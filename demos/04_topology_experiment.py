"""Topology sensitivity: linear chain vs branched layout, matched everywhere else.

Both feeders carry the same number of loads, the same uniform demand, the same
conductor, and the same total conductor length; only the layout differs.  The
linear chain loses noticeably more hosting capacity under the egalitarian
policy because its deepest bus throttles every load equally.
"""
import json

from fairhc.synth import Conductor, SynthSpec, topology_experiment


def main():
    conductor = Conductor(i_rated_a=500.0)
    linear = SynthSpec(n_loads=10, layout="linear", trunk_len_m=500.0,
                       conductor=conductor)
    branched = SynthSpec(n_loads=10, layout="branched", trunk_len_m=200.0,
                         branch_len_m=30.0, conductor=conductor)
    assert linear.total_length_m == branched.total_length_m

    report = topology_experiment(linear, branched)
    print(json.dumps(report.to_dict(), indent=2))
    print(f"\negalitarian price of fairness: linear {report.linear.pof_egal:.2f} "
          f"vs branched {report.branched.pof_egal:.2f}"
          f" -> the linear layout loses more capacity to fairness")


if __name__ == "__main__":
    main()
