"""Fair rate allocation over the stability region.

Given concave per-queue utilities, the best admissible rate vector solves
a convex program whose feasible set is the region itself.  Frank-Wolfe
needs only the region's support-vertex oracle -- no LP solver -- and each
iterate stays feasible by construction.
"""

from mqms import DiscreteChannelModel, UtilitySpec, build_region, solve_fairness

model = DiscreteChannelModel.bernoulli([[0.5], [0.5]])
region = build_region(model)
print("region:", [(a, round(b, 3)) for a, b in region.inequalities])

# log utility = proportional fairness; the symmetric model splits the
# shared facet (r1 + r2 = 0.75) evenly
sol = solve_fairness(model, UtilitySpec.log_shifted(2), step_rule="line_search")
print(f"\nproportional fairness: r* = {sol.r_star.round(6)}, "
      f"gap {sol.gap:.1e} after {sol.iterations} iterations")
print(f"binding constraints: {list(region.binding(sol.r_star))}")

# pure throughput maximization rides to a vertex instead
lin = solve_fairness(model, UtilitySpec.weighted_linear([1.0, 0.2]))
print(f"\nweighted throughput (1, 0.2): r* = {lin.r_star.round(6)}, "
      f"objective {lin.objective:.4f}")

# an asymmetric system: the strong queue no longer gets half
asym = DiscreteChannelModel.bernoulli([[0.9], [0.3]])
sol_a = solve_fairness(asym, UtilitySpec.log_shifted(2), step_rule="line_search")
print(f"\nasymmetric links (0.9 vs 0.3): proportional-fair r* = {sol_a.r_star.round(6)}")

# per-source caps fold into the objective, so the oracle is unchanged
capped = solve_fairness(
    model, UtilitySpec.log_shifted(2, caps=[0.2, 1.0]), step_rule="line_search"
)
print(f"\nwith a 0.2 cap on queue 1: r* = {capped.r_star.round(6)} "
      f"(the freed capacity goes to queue 2)")
