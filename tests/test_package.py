"""The package's public names: ``risplan.__all__`` lists each once, each
resolves, and names that were removed stay removed."""

import risplan

REMOVED = {"is_link_blocked", "sector_contains", "LINK_ACCESS_DIRECT",
           "LINK_ACCESS_REFLECTED_TP_LEG", "LINK_BS_RIS_LEG", "LINK_BACKHAUL", "cap_dir",
           "load_planning"}


def test_all_has_no_duplicates():
    assert len(risplan.__all__) == len(set(risplan.__all__))


def test_every_entry_resolves():
    missing = [name for name in risplan.__all__ if not hasattr(risplan, name)]
    assert missing == []


def test_removed_names_stay_removed():
    assert REMOVED.isdisjoint(risplan.__all__)
    assert not any(hasattr(risplan, name) for name in REMOVED)
    assert not any(hasattr(module, name) for module in (risplan.geometry, risplan.resilience,
                                                        risplan.scenario)
                   for name in REMOVED)
    assert "cap_dir" not in risplan.LinkBudgetTable.__dataclass_fields__


def test_radio_config_holds_only_what_the_link_budget_reads():
    # The carrier and the panel side only explain the defaults; no link table reads them.
    fields = risplan.RadioConfig.__dataclass_fields__
    assert "carrier_freq_hz" not in fields and "ris_side_m" not in fields
    assert not any(hasattr(risplan.RadioConfig, name) for name in (
        "wavelength_m", "element_spacing_m", "ris_aperture_gain_db"))
    assert not hasattr(risplan.radio, "SPEED_OF_LIGHT_M_S")
