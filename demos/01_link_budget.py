"""Walk through the link-budget model: path loss, SNR for the three link
families, and the rate ladder.

Run:  python demos/01_link_budget.py
"""

from risplan import (Point2D, RadioConfig, backhaul_snr_db, direct_snr_db,
                     path_loss_db, reflected_snr_db, snr_to_rate_mbps)

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
bs = Point2D(0.0, 0.0)
for d in (25, 50, 100, 200, 400, 800):
    tp = Point2D(float(d), 0.0)
    snr = direct_snr_db(tp, bs, cfg)
    bh = backhaul_snr_db(bs, tp, cfg)
    print(f"{d:6d} {path_loss_db(d, cfg):8.1f} {snr:11.2f} "
          f"{snr_to_rate_mbps(snr, cfg):12.1f} {bh:13.2f} "
          f"{snr_to_rate_mbps(bh, cfg):9.1f}")

print("\nReflected path, station 150 m from the surface, varying the "
      "surface-to-terminal hop:")
station = Point2D(0.0, 0.0)
surface = Point2D(150.0, 0.0)
for d2 in (10, 25, 50, 100, 200):
    tp = Point2D(150.0, float(d2))
    snr = reflected_snr_db(tp, station, surface, cfg)
    print(f"  {d2:4d} m: SNR {snr:7.2f} dB -> {snr_to_rate_mbps(snr, cfg):8.1f} Mbps")

print("\nElement-count law (equal geometry, doubling elements adds ~6.02 dB):")
tp, ris = Point2D(100.0, 80.0), Point2D(80.0, 40.0)
for n in (2500, 5000, 10000, 20000):
    c = RadioConfig(ris_elements=n)
    print(f"  N={n:6d}: reflected SNR {reflected_snr_db(tp, station, ris, c):7.2f} dB")
