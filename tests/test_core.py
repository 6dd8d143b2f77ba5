"""Cell-level mathematics: fusion oracle values, accumulator updates,
the migration state machine, and algebraic properties of the fusion.

The per-cell state machine is the test oracle's `DendriticCell`
(`tests/reference_tissue.py`); `TestDendriticCell` pins the rules that
the oracle checks the library's array tick against."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca.core import (Context, InvalidWeights, SignalVector, WeightMatrix,
                      fuse_signals)
from reference_tissue import AntigenStoreFull, CellStateError, DendriticCell

DEFAULT = WeightMatrix()


def brute_force_fusion(p, d, s, ic, weights):
    """Independent re-statement of the fusion formula for oracle checks."""
    out = []
    for wp, wd, ws in (weights.csm, weights.semi, weights.mat):
        numerator = wp * p + ws * s + wd * d
        denominator = abs(wp) + abs(ws) + abs(wd)
        out.append(numerator / denominator * ((1 + ic) / 2))
    return tuple(out)


signal_vectors = st.builds(
    SignalVector,
    pamp=st.floats(0, 100),
    danger=st.floats(0, 100),
    safe=st.floats(0, 100),
    inflammation=st.floats(0, 2),
)


class TestSignalVector:
    def test_rejects_negative_concentrations(self):
        for field in ("pamp", "danger", "safe"):
            with pytest.raises(ValueError):
                SignalVector(**{field: -0.1})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["pamp", "danger", "safe"])
    def test_rejects_non_finite_concentrations(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SignalVector(**{field: value})

    def test_rejects_inflammation_outside_range(self):
        with pytest.raises(ValueError):
            SignalVector(inflammation=-0.01)
        with pytest.raises(ValueError):
            SignalVector(inflammation=2.01)

    def test_boundary_inflammation_accepted(self):
        assert SignalVector(inflammation=0.0).inflammation == 0.0
        assert SignalVector(inflammation=2.0).inflammation == 2.0


class TestWeightMatrix:
    def test_defaults(self):
        assert DEFAULT.csm == (2.0, 1.0, 2.0)
        assert DEFAULT.semi == (0.0, 0.0, 3.0)
        assert DEFAULT.mat == (2.0, 1.0, -3.0)

    def test_zero_absolute_sum_rejected(self):
        with pytest.raises(InvalidWeights):
            WeightMatrix(semi=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("row", [
        dict(csm=(math.nan, 1.0, 2.0)), dict(mat=(2.0, 1.0, math.inf)),
        dict(semi=(0.0, -math.inf, 3.0)), dict(csm=(1.0, 1.0)),
        dict(csm=(1.0, 1.0, 1.0, 1.0)), dict(semi=(0.0, "0", 3.0)),
        dict(mat=None)])
    def test_malformed_row_rejected(self, row):
        with pytest.raises(InvalidWeights, match="three finite numbers"):
            WeightMatrix(**row)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_safe_mat_override_checked(self, weight):
        with pytest.raises(InvalidWeights):
            DEFAULT.with_safe_mat_weight(weight)

    def test_safe_mat_override(self):
        patched = DEFAULT.with_safe_mat_weight(-1.0)
        assert patched.mat == (2.0, 1.0, -1.0)
        assert patched.csm == DEFAULT.csm
        assert patched.semi == DEFAULT.semi


class TestFuseSignals:
    def test_zero_input_zero_output(self):
        assert fuse_signals(SignalVector(), DEFAULT) == (0.0, 0.0, 0.0)

    def test_pamp_only_oracle(self):
        csm, semi, mat = fuse_signals(SignalVector(pamp=50), DEFAULT)
        assert csm == pytest.approx(10.0, abs=1e-12)
        assert semi == 0.0
        assert mat == pytest.approx(25.0 / 3.0, abs=1e-12)

    def test_safe_only_oracle(self):
        csm, semi, mat = fuse_signals(SignalVector(safe=50), DEFAULT)
        assert (csm, semi, mat) == pytest.approx((10.0, 25.0, -12.5))

    def test_inflammation_doubles_output(self):
        base = fuse_signals(SignalVector(pamp=50), DEFAULT)
        hot = fuse_signals(SignalVector(pamp=50, inflammation=1.0), DEFAULT)
        assert hot == pytest.approx(tuple(2 * v for v in base))
        assert hot[0] == pytest.approx(20.0)

    def test_matches_brute_force_on_random_vectors(self):
        rng = random.Random(2024)
        for _ in range(1000):
            s = SignalVector(pamp=rng.uniform(0, 100),
                             danger=rng.uniform(0, 100),
                             safe=rng.uniform(0, 100),
                             inflammation=rng.uniform(0, 2))
            expected = brute_force_fusion(s.pamp, s.danger, s.safe,
                                          s.inflammation, DEFAULT)
            got = fuse_signals(s, DEFAULT)
            for g, e in zip(got, expected):
                assert math.isclose(g, e, abs_tol=1e-9)

    @given(signal_vectors, st.floats(0, 10))
    @settings(max_examples=150)
    def test_linearity_in_concentrations(self, s, k):
        scaled = SignalVector(pamp=k * s.pamp, danger=k * s.danger,
                              safe=k * s.safe, inflammation=s.inflammation)
        base = fuse_signals(s, DEFAULT)
        got = fuse_signals(scaled, DEFAULT)
        for g, b in zip(got, base):
            assert math.isclose(g, k * b, rel_tol=1e-9, abs_tol=1e-9)

    @given(signal_vectors, st.floats(0, 100))
    @settings(max_examples=150)
    def test_more_safe_never_raises_mature_delta(self, s, extra):
        safer = SignalVector(pamp=s.pamp, danger=s.danger,
                             safe=s.safe + extra, inflammation=s.inflammation)
        assert fuse_signals(safer, DEFAULT)[2] <= fuse_signals(s, DEFAULT)[2] + 1e-9

    @given(signal_vectors)
    @settings(max_examples=150)
    def test_inflammation_scaling_property(self, s):
        cold = SignalVector(pamp=s.pamp, danger=s.danger, safe=s.safe,
                            inflammation=0.0)
        hot = SignalVector(pamp=s.pamp, danger=s.danger, safe=s.safe,
                           inflammation=1.0)
        for h, c in zip(fuse_signals(hot, DEFAULT), fuse_signals(cold, DEFAULT)):
            assert math.isclose(h, 2 * c, rel_tol=1e-12, abs_tol=1e-12)


class TestDendriticCell:
    def make_cell(self, threshold=10.0, capacity=50):
        return DendriticCell(id=0, migration_threshold=threshold,
                             antigen_capacity=capacity)

    def test_migrates_at_exact_threshold(self):
        cell = self.make_cell()
        cell.cytokines.csm = 9.0
        cell.apply_deltas((1.0, 0.0, 0.0))
        assert cell.is_migrated

    def test_no_signal_no_migration(self):
        cell = self.make_cell()
        for _ in range(100):
            cell.apply_deltas((0.0, 0.0, 0.0))
        assert not cell.is_migrated

    def test_pamp_burst_migrates_on_first_update(self):
        cell = self.make_cell()
        cell.update(SignalVector(pamp=50), DEFAULT)
        assert cell.is_migrated

    def test_update_on_migrated_cell_rejected(self):
        cell = self.make_cell(threshold=1.0)
        cell.update(SignalVector(pamp=50), DEFAULT)
        with pytest.raises(CellStateError):
            cell.update(SignalVector(pamp=50), DEFAULT)

    def test_ingest_multiset_semantics(self):
        cell = self.make_cell()
        cell.ingest("pid-42")
        cell.ingest("pid-42")
        assert cell.antigen_store == ["pid-42", "pid-42"]

    def test_ingest_refused_at_capacity(self):
        cell = self.make_cell(capacity=2)
        cell.ingest("a")
        cell.ingest("b")
        with pytest.raises(AntigenStoreFull):
            cell.ingest("c")

    def test_ingest_refused_after_migration(self):
        cell = self.make_cell(threshold=1.0)
        cell.update(SignalVector(pamp=50), DEFAULT)
        with pytest.raises(CellStateError):
            cell.ingest("a")

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            self.make_cell().ingest("")

    def test_present_requires_migration(self):
        with pytest.raises(CellStateError):
            self.make_cell().present()

    @pytest.mark.parametrize("mat,semi,expected", [
        (5.0, 3.0, Context.MATURE),
        (-2.0, 1.0, Context.SEMI_MATURE),
        (0.0, 0.0, Context.SEMI_MATURE),
    ])
    def test_context_decision(self, mat, semi, expected):
        cell = self.make_cell(threshold=1.0)
        cell.cytokines.mat = mat
        cell.cytokines.semi = semi
        cell.apply_deltas((1.0, 0.0, 0.0))
        context, antigens = cell.present()
        assert context is expected
        assert antigens == []

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(0.1, 50))
    @settings(max_examples=150)
    def test_context_depends_only_on_sign_of_mat_minus_semi(self, mat, semi, csm):
        cell = self.make_cell(threshold=csm)
        cell.cytokines.mat = mat
        cell.cytokines.semi = semi
        cell.apply_deltas((csm, 0.0, 0.0))
        context, _ = cell.present()
        assert context is (Context.MATURE if mat > semi
                           else Context.SEMI_MATURE)

    @given(st.lists(signal_vectors, min_size=1, max_size=30),
           st.floats(1, 20), st.floats(0, 20))
    @settings(max_examples=150)
    def test_lower_threshold_migrates_no_later(self, stream, low, extra):
        fast = self.make_cell(threshold=low)
        slow = self.make_cell(threshold=low + extra)
        fast_at = slow_at = None
        for step, s in enumerate(stream):
            if fast_at is None:
                fast.update(s, DEFAULT)
                if fast.is_migrated:
                    fast_at = step
            if slow_at is None:
                slow.update(s, DEFAULT)
                if slow.is_migrated:
                    slow_at = step
        if slow_at is not None:
            assert fast_at is not None and fast_at <= slow_at

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DendriticCell(id=0, migration_threshold=0.0)
        with pytest.raises(ValueError):
            DendriticCell(id=0, migration_threshold=5.0, antigen_capacity=0)
