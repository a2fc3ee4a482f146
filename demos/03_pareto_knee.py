"""PoF-vs-Gini frontier for the bargaining family, with knee point.

Sweeps the bargaining weight K over [0, 1] on a small linear feeder and
prints the frontier CSV, the nondominated subset, and the knee point that
best balances efficiency loss against inequality.
"""
from fairhc.netmodel import to_per_unit
from fairhc.pareto import frontier_to_csv, knee_point, pareto_filter, sweep
from fairhc.synth import Conductor, SynthSpec, generate_feeder


def main():
    spec = SynthSpec(n_loads=4, layout="linear", trunk_len_m=200.0,
                     conductor=Conductor(i_rated_a=500.0))
    nf = to_per_unit(generate_feeder(spec))

    frontier = sweep(nf, "bargaining", steps=11)
    print(frontier_to_csv(frontier))

    nondominated = pareto_filter(frontier.points)
    print(f"nondominated points: {len(nondominated)} of {len(frontier.points)}")

    knee = knee_point(frontier)
    print(f"knee point: family={knee.family} param={knee.param} "
          f"hc={knee.hc_kw:.1f} kW pof={knee.pof:.3f} gini={knee.gini:.3f}")


if __name__ == "__main__":
    main()
