"""Hosting capacity of one feeder under all four fairness policies.

Generates a 5-load linear feeder, solves utilitarian / egalitarian /
bounded / bargaining hosting capacity, and reports the price of fairness
and Gini coefficient of each allocation.
"""
import numpy as np

from fairhc.formulation import FairnessPolicy, build_problem, policy_string
from fairhc.kpi import gini, price_of_fairness
from fairhc.netmodel import to_per_unit
from fairhc.solver import SolverOptions, solve_hc, solve_references
from fairhc.synth import Conductor, SynthSpec, generate_feeder


def main():
    spec = SynthSpec(n_loads=5, layout="linear", trunk_len_m=250.0,
                     conductor=Conductor(i_rated_a=500.0))
    nf = to_per_unit(generate_feeder(spec))
    options = SolverOptions()

    refs, uti, _ = solve_references(nf, options)

    policies = [
        FairnessPolicy.utilitarian(),
        FairnessPolicy.egalitarian(),
        FairnessPolicy.bounded(0.5, 0.5),
        FairnessPolicy.bargaining(0.5),
    ]
    print(f"{'policy':28s} {'HC [kW]':>10s} {'PoF':>7s} {'Gini':>7s}   allocation [kW]")
    for policy in policies:
        sol = solve_hc(build_problem(nf, policy, refs), options)
        pof = price_of_fairness(uti.hc_total, sol.hc_total)
        g = gini(sol.allocation) if sol.allocation.sum() > 0 else 0.0
        alloc = np.array2string(sol.allocation, precision=1, floatmode="fixed")
        print(f"{policy_string(policy):28s} {sol.hc_total:10.1f} {pof:7.3f} {g:7.3f}   {alloc}")

    print("\nutilitarian capacity concentrates near the substation; the fairness"
          "\npolicies trade total capacity against how evenly it is spread.")


if __name__ == "__main__":
    main()
