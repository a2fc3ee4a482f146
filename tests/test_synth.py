import dataclasses
import math

import numpy as np
import pytest

from fairhc.errors import ValidationError
from fairhc.netmodel import feeder_stats, to_per_unit
from fairhc.synth import Conductor, SynthSpec, generate_feeder, topology_experiment

STRONG = Conductor(i_rated_a=500.0)


class TestSpecValidation:
    def test_bad_layout(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_loads=3, layout="ring", trunk_len_m=100.0)

    def test_bad_counts_and_lengths(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_loads=0, layout="linear", trunk_len_m=100.0)
        with pytest.raises(ValidationError):
            SynthSpec(n_loads=3, layout="linear", trunk_len_m=0.0)

    @pytest.mark.parametrize("bad", [2.5, 2.0])
    def test_non_integer_count_rejected(self, bad):
        with pytest.raises(ValidationError, match="^synth spec: n_loads must be an integer$"):
            SynthSpec(bad, "linear", 100.0)

    def test_numpy_integer_count_accepted(self):
        assert feeder_stats(generate_feeder(SynthSpec(np.int64(3), "linear", 100.0))).n_loads == 3

    def test_bad_conductor(self):
        with pytest.raises(ValidationError):
            Conductor(r_ohm_per_km=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("record, name", [
        *((Conductor(), f.name) for f in dataclasses.fields(Conductor)),
        *((SynthSpec(3, "branched", 100.0), name)
          for name in ("trunk_len_m", "branch_len_m", "load_p_kw", "load_q_kvar", "dg_cap_kw")),
    ])
    def test_non_finite_numbers_rejected(self, record, name, bad):
        with pytest.raises(ValidationError, match=f": {name} must be finite$"):
            dataclasses.replace(record, **{name: bad})

    def test_total_length(self):
        lin = SynthSpec(n_loads=4, layout="linear", trunk_len_m=400.0)
        bra = SynthSpec(n_loads=4, layout="branched", trunk_len_m=280.0,
                        branch_len_m=30.0)
        assert lin.total_length_m == 400.0
        assert bra.total_length_m == 400.0


class TestGenerateFeeder:
    def test_linear_counts(self):
        feeder = generate_feeder(SynthSpec(n_loads=4, layout="linear", trunk_len_m=164.0))
        stats = feeder_stats(feeder)
        assert stats.n_buses == 5
        assert stats.n_loads == 4
        assert stats.total_length == pytest.approx(0.164)

    def test_branched_counts(self):
        feeder = generate_feeder(SynthSpec(n_loads=4, layout="branched",
                                           trunk_len_m=200.0, branch_len_m=25.0))
        stats = feeder_stats(feeder)
        assert stats.n_buses == 9  # slack + 4 junctions + 4 lateral load buses
        assert stats.n_loads == 4
        assert stats.total_length == pytest.approx(0.300)

    def test_validation_clean(self):
        # Feeder.__post_init__ enforces radiality/connectivity; must not raise
        for layout in ("linear", "branched"):
            feeder = generate_feeder(SynthSpec(n_loads=7, layout=layout,
                                               trunk_len_m=350.0))
            to_per_unit(feeder)

    def test_deterministic(self):
        spec = SynthSpec(n_loads=5, layout="branched", trunk_len_m=250.0)
        assert generate_feeder(spec) == generate_feeder(spec)

    def test_length_scales_resistance(self):
        spec = SynthSpec(n_loads=2, layout="linear", trunk_len_m=1000.0,
                         conductor=Conductor(r_ohm_per_km=0.9))
        feeder = generate_feeder(spec)
        assert feeder.lines[0].resistance == pytest.approx(0.9 * 0.5)


class TestTopologyExperiment:
    def test_argument_validation(self):
        lin = SynthSpec(n_loads=3, layout="linear", trunk_len_m=300.0)
        bra = SynthSpec(n_loads=3, layout="branched", trunk_len_m=210.0)
        with pytest.raises(ValidationError):
            topology_experiment(bra, lin)  # wrong order
        with pytest.raises(ValidationError):
            topology_experiment(lin, SynthSpec(n_loads=4, layout="branched",
                                               trunk_len_m=180.0))

    @pytest.mark.parametrize("name, value", [("conductor", STRONG), ("load_p_kw", 5.0), ("load_q_kvar", 1.0),
                                             ("dg_cap_kw", 60.0)])
    def test_pair_differing_beyond_layout_and_lengths_rejected(self, name, value):
        lin = SynthSpec(n_loads=3, layout="linear", trunk_len_m=300.0)
        bra = dataclasses.replace(SynthSpec(n_loads=3, layout="branched", trunk_len_m=210.0), **{name: value})
        with pytest.raises(ValidationError, match=f"^specs must have equal {name}$"):
            topology_experiment(lin, bra)

    def test_matched_pair_report(self):
        lin = SynthSpec(n_loads=3, layout="linear", trunk_len_m=150.0,
                        conductor=STRONG)
        bra = SynthSpec(n_loads=3, layout="branched", trunk_len_m=60.0,
                        branch_len_m=30.0, conductor=STRONG)
        report = topology_experiment(lin, bra)
        assert report.linear.hc_uti_kw >= report.linear.hc_egal_kw - 1e-6
        assert report.branched.hc_uti_kw >= report.branched.hc_egal_kw - 1e-6
        assert report.pof_gap == pytest.approx(
            report.linear.pof_egal - report.branched.pof_egal)
        d = report.to_dict()
        assert set(d) == {"linear", "branched", "pof_gap", "linear_loses_more"}

    def test_single_load_pair_equal_pof(self):
        lin = SynthSpec(n_loads=1, layout="linear", trunk_len_m=60.0,
                        conductor=STRONG)
        bra = SynthSpec(n_loads=1, layout="branched", trunk_len_m=30.0,
                        branch_len_m=30.0, conductor=STRONG)
        report = topology_experiment(lin, bra)
        for row in (report.linear, report.branched):
            assert row.hc_uti_kw >= row.hc_egal_kw
        # one load: every policy coincides, so PoF matches across layouts
        assert report.linear.pof_egal == pytest.approx(report.branched.pof_egal,
                                                       abs=1e-4)

    def test_deterministic_report(self):
        lin = SynthSpec(n_loads=2, layout="linear", trunk_len_m=100.0,
                        conductor=STRONG)
        bra = SynthSpec(n_loads=2, layout="branched", trunk_len_m=40.0,
                        branch_len_m=30.0, conductor=STRONG)
        assert topology_experiment(lin, bra) == topology_experiment(lin, bra)
