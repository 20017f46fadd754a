"""The package's public names: ``risplan.__all__`` lists each once, each
resolves, and names that were removed stay removed."""

import risplan

REMOVED = {"is_link_blocked", "sector_contains", "LINK_ACCESS_DIRECT",
           "LINK_ACCESS_REFLECTED_TP_LEG", "LINK_BS_RIS_LEG", "LINK_BACKHAUL", "cap_dir"}


def test_all_has_no_duplicates():
    assert len(risplan.__all__) == len(set(risplan.__all__))


def test_every_entry_resolves():
    missing = [name for name in risplan.__all__ if not hasattr(risplan, name)]
    assert missing == []


def test_removed_names_stay_removed():
    assert REMOVED.isdisjoint(risplan.__all__)
    assert not any(hasattr(risplan, name) for name in REMOVED)
    assert not any(hasattr(module, name) for module in (risplan.geometry, risplan.resilience)
                   for name in REMOVED)
    assert "cap_dir" not in risplan.LinkBudgetTable.__dataclass_fields__
