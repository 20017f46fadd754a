"""Walk through the link-budget model: path loss, SNR for the three link
families, and the rate ladder. Each budget takes path losses, and the
path loss takes a link's length in meters.

Run:  python demos/01_link_budget.py
"""

import math

from risplan import (RadioConfig, backhaul_snr_db, direct_snr_db, path_loss_db,
                     reflected_snr_db, snr_to_rate_mbps)

# The defaults describe a 28 GHz system. Its surface is a 0.5 m square
# panel of 1e4 elements, 5 mm apart, close to the 5.35 mm half wavelength;
# a half-wavelength-square element gives the reflected budget the aperture
# constant 20*log10(pi), whatever the carrier.
cfg = RadioConfig()
print("Radio defaults: "
      f"{cfg.tx_power_dbm:.0f} dBm, "
      f"{cfg.bs_array_elements}-element arrays, {cfg.ris_elements} surface elements, "
      f"{cfg.bandwidth_hz/1e6:.0f} MHz channels")
print(f"Reflected-budget aperture constant: {cfg.ris_element_gain_db:.2f} dB\n")

print(f"{'d [m]':>6} {'PL [dB]':>8} {'direct SNR':>11} {'rate [Mbps]':>12} "
      f"{'backhaul SNR':>13} {'bh rate':>9}")
for d in (25, 50, 100, 200, 400, 800):
    loss = path_loss_db(d, cfg)
    snr = direct_snr_db(loss, cfg)
    bh = backhaul_snr_db(loss, cfg)
    print(f"{d:6d} {loss:8.1f} {snr:11.2f} "
          f"{snr_to_rate_mbps(snr, cfg):12.1f} {bh:13.2f} "
          f"{snr_to_rate_mbps(bh, cfg):9.1f}")

print("\nReflected path, station 150 m from the surface, varying the "
      "surface-to-terminal hop:")
loss_in = path_loss_db(150.0, cfg)
for d2 in (10, 25, 50, 100, 200):
    snr = reflected_snr_db(loss_in, path_loss_db(d2, cfg), cfg)
    print(f"  {d2:4d} m: SNR {snr:7.2f} dB -> {snr_to_rate_mbps(snr, cfg):8.1f} Mbps")

print("\nElement-count law (equal geometry, doubling elements adds ~6.02 dB):")
# Station at (0, 0), surface at (80, 40), terminal at (100, 80).
hops = (math.hypot(80.0, 40.0), math.hypot(20.0, 40.0))
for n in (2500, 5000, 10000, 20000):
    c = RadioConfig(ris_elements=n)
    snr = reflected_snr_db(*(path_loss_db(d, c) for d in hops), c)
    print(f"  N={n:6d}: reflected SNR {snr:7.2f} dB")
