import numpy as np
import pytest

from risplan.radio import LinkBudgetTable, RadioConfig, build_link_tables
from risplan.scenario import PlanningConfig, generate


@pytest.fixture(scope="session")
def small_instance():
    """Six sites, three test points, everything mutually reachable."""
    scenario = generate(200.0, 200.0, 6, 3, seed=1)
    tables = build_link_tables(scenario, RadioConfig())
    return scenario, tables


@pytest.fixture
def default_cfg():
    return PlanningConfig(mu=0.5, budget=2.3)


def restrict_tuples(tables: LinkBudgetTable, keep: list[tuple[int, int, int]]):
    """Copy of the tables with delta_src masked down to ``keep``; the
    matching capacities are re-masked so the zero-capacity invariant holds."""
    mask = np.zeros_like(tables.delta_src)
    for (t, c, r) in keep:
        if tables.delta_src[t, c, r] != 1:
            raise AssertionError(f"tuple {(t, c, r)} not active in the base tables")
        mask[t, c, r] = 1
    return LinkBudgetTable(
        delta_acc=tables.delta_acc,
        delta_bh=tables.delta_bh,
        delta_src=mask,
        cap_acc=tables.cap_acc,
        cap_bh=tables.cap_bh,
        cap_ref=tables.cap_ref * mask,
        theta=tables.theta,
        len_tc=tables.len_tc,
        phi_a=tables.phi_a,
        phi_b=tables.phi_b,
    )


def restrict_access(tables: LinkBudgetTable, keep: list[tuple[int, int]]):
    """Copy of the tables with delta_acc masked down to ``keep`` (and
    delta_src re-derived so the direct-link prerequisite still holds)."""
    mask = np.zeros_like(tables.delta_acc)
    for (t, c) in keep:
        if tables.delta_acc[t, c] != 1:
            raise AssertionError(f"access pair {(t, c)} not active in the base tables")
        mask[t, c] = 1
    src = tables.delta_src * mask[:, :, None]
    return LinkBudgetTable(
        delta_acc=mask,
        delta_bh=tables.delta_bh,
        delta_src=src,
        cap_acc=tables.cap_acc * mask,
        cap_bh=tables.cap_bh,
        cap_ref=tables.cap_ref * src,
        theta=tables.theta,
        len_tc=tables.len_tc,
        phi_a=tables.phi_a,
        phi_b=tables.phi_b,
    )
