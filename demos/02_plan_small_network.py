"""Plan a small network both ways: surface-assisted and station-only.

Generates a 6-site / 3-terminal instance, builds and solves both MILPs,
decodes and validates the plans, and cross-checks the surface-assisted
optimum against the exhaustive oracle.

Run:  python demos/02_plan_small_network.py
"""

from risplan import (PlanningConfig, RadioConfig, brute_force_plan,
                     build_baseline_model, build_link_tables,
                     build_ris_model, export_lp, extract_plan, generate,
                     solve, validate_plan)

scenario = generate(200.0, 200.0, n_cs=6, n_tp=3, seed=1)
radio = RadioConfig()
tables = build_link_tables(scenario, radio)
print(f"instance: {scenario.n_sites} candidate sites, "
      f"{scenario.n_test_points} test points, "
      f"{int(tables.delta_src.sum())} feasible (t, station, surface) triples\n")

cfg = PlanningConfig(mu=0.5, budget=2.3)

for mode, builder in (("ris", build_ris_model), ("baseline", build_baseline_model)):
    budget_cfg = cfg if mode == "ris" else PlanningConfig(mu=0.5, budget=3.0)
    model = builder(scenario, tables, budget_cfg)
    result = solve(model)
    print(f"--- {mode}: {model.num_variables} vars, {model.num_constraints} rows "
          f"-> {result.status} in {result.solve_time_s:.2f}s")
    if result.status != "optimal":
        continue
    plan = extract_plan(model, result.variable_values, scenario, tables, budget_cfg)
    print(f"    objective {plan.objective_value:.4f}, cost {plan.total_cost:g}")
    print(f"    donor {plan.donor}, stations {plan.iab_nodes}, "
          f"surfaces {plan.ris_sites}")
    for t, pair in enumerate(plan.assignments):
        print(f"    terminal {t}: links to sites {pair}, "
              f"separation {plan.theta_per_tp[t]:.2f} rad, "
              f"mean length {plan.len_per_tp[t]:.1f} m")
    violations = validate_plan(plan, scenario, tables, budget_cfg)
    print(f"    independent validation: {len(violations)} violations")

print("\n--- exhaustive oracle cross-check (ris mode)")
oracle = brute_force_plan(scenario, tables, cfg, "ris")
model = build_ris_model(scenario, tables, cfg)
milp = solve(model)
print(f"    oracle optimum  {oracle.objective:.10f}")
print(f"    solver optimum  {milp.objective_value:.10f}")

lp_text = export_lp(model)
print(f"\nLP export: {len(lp_text.splitlines())} lines; first three:")
for line in lp_text.splitlines()[:3]:
    print(f"  {line}")
