"""The array tick against the sequential reference tick, draw for draw,
and against itself drawing its tick randomness in blocks of other sizes.

Both tissues get the same configuration, signals and antigen; after every
tick their records, pool snapshots, feed and store must be equal. The
record columns, read from the tick logs, must be the records by field.
"""

import random
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dca.tissue
from dca.core import SignalVector
from dca.tissue import MigrationRecord, PopulationConfig, Tissue
from reference_tissue import ReferenceTissue


def small(seed, **overrides):
    """The `small_config` shape of test_tissue.py."""
    base = dict(num_cells=10, tissue_antigen_capacity=2,
                antigen_sample_multiplicity=3,
                antigen_sampling_probability=0.5,
                threshold_mode=("uniform", 2.0, 8.0))
    base.update(overrides)
    return PopulationConfig(seed=seed, **base)


def drive_shape(seed):
    """The `_drive` shape of test_acceptance.py."""
    return PopulationConfig(seed=seed, num_cells=8, tissue_antigen_capacity=2,
                            antigen_sample_multiplicity=3,
                            antigen_sampling_probability=1.0,
                            threshold_mode=("uniform", 2.0, 8.0))


CONFIGS = {
    "breast_cancer": lambda s: PopulationConfig.breast_cancer(seed=s),
    "portscan": lambda s: PopulationConfig.portscan(seed=s),
    "small_config": small,
    "drive": drive_shape,
    "fixed_threshold": lambda s: small(s, threshold_mode=("fixed", 4.0)),
    "overwrite_multiplicity_3": lambda s: small(
        s, antigen_overwrite=True, tissue_antigen_capacity=3),
    "cell_capacity_2": lambda s: small(s, cell_antigen_capacity=2,
                                       antigen_sampling_probability=1.0),
    # the one-slot store, which `Tissue.tick` samples in one walk
    "one_slot_multiplicity_1": lambda s: small(
        s, tissue_antigen_capacity=1, antigen_sample_multiplicity=1),
    "one_slot_cell_capacity_2": lambda s: small(
        s, tissue_antigen_capacity=1, cell_antigen_capacity=2,
        antigen_sampling_probability=1.0),
    "one_slot_overwrite": lambda s: small(
        s, tissue_antigen_capacity=1, antigen_overwrite=True),
}

ONE_SLOT = sorted(name for name in CONFIGS if name.startswith("one_slot"))


def scripted_steps(seed, ticks=60, max_antigen=4, quiet=20):
    """Random signals and antigen bursts, then `quiet` ticks without
    antigen so that stores empty and held antigen is presented."""
    rng = random.Random(seed)
    steps = []
    for t in range(ticks + quiet):
        signals = SignalVector(pamp=rng.uniform(0, 3), danger=rng.uniform(0, 3),
                               safe=rng.uniform(0, 3),
                               inflammation=rng.choice([0.0, 1.0, 2.0]))
        count = rng.randint(0, max_antigen) if t < ticks else 0
        steps.append((signals, [f"ag-{t}-{k % 3}" for k in range(count)]))
    return steps


def pool_state(cells):
    return [(c.id, c.migration_threshold, c.cytokines.csm, c.cytokines.semi,
             c.cytokines.mat, c.antigen_store) for c in cells]


def assert_same(tissue, ref):
    assert tissue.records == ref.records
    assert pool_state(tissue.pool) == pool_state(ref.pool)
    assert list(tissue._feed) == list(ref.feed)
    assert tissue.slots == [None if s is None else tuple(s)
                                        for s in ref.slots]
    assert tissue.clock == ref.clock


def run_both(cfg, steps):
    tissue, ref = Tissue(cfg), ReferenceTissue(cfg)
    assert_same(tissue, ref)
    for signals, labels in steps:
        for t in (tissue, ref):
            t.set_signals(signals)
            for label in labels:
                t.enqueue_antigen(label)
        assert list(tissue.tick()) == ref.tick()
        assert_same(tissue, ref)
    return tissue


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_array_tick_matches_reference(name, seed):
    cfg = CONFIGS[name](seed)
    burst = 30 if name == "portscan" else 4
    tissue = run_both(cfg, scripted_steps(seed, max_antigen=burst))
    assert tissue.records


class DrawLog(ReferenceTissue):
    """The reference tissue, logging each tick's samples of the store:
    True for one that took a label, False for one that found it empty."""

    def tick(self):
        self.draws = []
        return super().tick()

    def _sample(self, idx):
        label = super()._sample(idx)
        self.draws.append(label is not None)
        return label


def test_configs_reach_the_paths_they_name():
    """The overwrite config overwrites a full store and the capacity-2
    config fills cells, so both rare branches are compared above. Each
    one-slot config spends its slot mid-tick with the feed empty and a
    winner with room still to come, so the one-slot walk's stop is
    compared too, and the one-slot capacity-2 config holds full cells,
    which win every coin at p = 1, so the walk must skip them."""
    steps = scripted_steps(0)
    tissue = Tissue(CONFIGS["overwrite_multiplicity_3"](0))
    full = 0
    for signals, labels in steps:
        tissue.set_signals(signals)
        for label in labels:
            full += tissue.occupied == 3
            tissue.enqueue_antigen(label)
        tissue.tick()
    assert full > 0
    tissue = Tissue(CONFIGS["cell_capacity_2"](0))
    filled = 0
    for signals, labels in steps:
        tissue.set_signals(signals)
        for label in labels:
            tissue.enqueue_antigen(label)
        tissue.tick()
        filled += sum(len(c.antigen_store) == 2 for c in tissue.pool)
    assert filled > 0
    for name in ONE_SLOT:
        ref = DrawLog(CONFIGS[name](0))
        spent = filled = 0
        for signals, labels in steps:
            ref.set_signals(signals)
            for label in labels:
                ref.enqueue_antigen(label)
            ref.tick()
            spent += (True, False) in zip(ref.draws, ref.draws[1:])
            filled += sum(cell.store_full for cell in ref.pool)
        assert spent > 0, name
        if name == "one_slot_cell_capacity_2":
            assert filled > 0


# `record_columns` reads the tick logs without building records; field by
# field it must give what unzipping the built records gives, also after a
# read of `records` mid-run
@pytest.mark.parametrize("read_mid_run", [False, True])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_record_columns_are_the_records_by_field(name, read_mid_run):
    cfg = CONFIGS[name](1)
    steps = scripted_steps(1, max_antigen=30 if name == "portscan" else 4)
    tissue, twin = Tissue(cfg), Tissue(cfg)
    for i, (signals, labels) in enumerate(steps):
        for t in (tissue, twin):
            t.receive(signals, labels)
            t.tick()
        if read_mid_run and i == len(steps) // 2:
            mid_run = tissue.records
    if read_mid_run:
        assert 0 < len(mid_run) < tissue.migrations
    columns = tissue.record_columns()
    expected = tuple(zip(*twin.records))
    assert len(columns) == len(expected) == len(MigrationRecord._fields)
    for field, column, want in zip(MigrationRecord._fields, columns,
                                   expected):
        assert type(column) is list
        assert repr(column) == repr(list(want)), field
    assert tissue.records == twin.records


def test_a_tissue_without_migrations_gives_seven_empty_columns():
    tissue = Tissue(small(3, threshold_mode=("fixed", 1e9)))
    for signals, labels in scripted_steps(3, ticks=10, quiet=5):
        tissue.receive(signals, labels)
        tissue.tick()
    columns = tissue.record_columns()
    assert columns == ([],) * 7
    assert list(map(tuple.__new__, repeat(MigrationRecord),
                    zip(*columns))) == [] == tissue.records


signal_steps = st.lists(
    st.tuples(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10),
              st.floats(0, 2), st.integers(0, 4)),
    min_size=1, max_size=40)


# No shrinking: a failing example is reported as drawn. Shrinking one
# through draw-for-draw replays of both tissues took minutes and over a
# gigabyte, so a broken tick would tie the run up instead of failing it.
@given(st.integers(0, 2**32), signal_steps, st.booleans(),
       st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_reference_property(seed, raw_steps, overwrite, probability,
                            capacity):
    cfg = small(seed, antigen_overwrite=overwrite,
                antigen_sampling_probability=probability,
                tissue_antigen_capacity=capacity, cell_antigen_capacity=3)
    steps = [(SignalVector(pamp=p, danger=d, safe=s, inflammation=ic),
              [f"h-{t}-{k}" for k in range(n)])
             for t, (p, d, s, ic, n) in enumerate(raw_steps)]
    run_both(cfg, steps)


def tissue_state(t):
    return (t.records, pool_state(t.pool), list(t._feed), t.slots, t.clock)


def blocked(cfg, size):
    """A tissue that draws `size` ticks of orders, coins and slots at a
    time, and so `size * num_cells` fresh thresholds at a time (both
    blocks are sized when the tissue is built)."""
    with mock.patch.object(dca.tissue, "BLOCK_TICKS", size):
        return Tissue(cfg)


# Drawing one tick (and one pool's fresh thresholds) at a time and 7 at a
# time (so a block ends where the default's does not) must give what the
# default blocks give, on both store policies. A per-tick draw moved onto
# a stream that another draw shares would shift with the block size and
# fail this.
@given(st.integers(0, 2**32), signal_steps, st.booleans(),
       st.sampled_from([1, 3]), st.sampled_from([0.3, 1.0]))
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_outputs_do_not_depend_on_the_block_size(
        seed, raw_steps, overwrite, capacity, probability):
    cfg = small(seed, antigen_overwrite=overwrite,
                tissue_antigen_capacity=capacity,
                antigen_sampling_probability=probability,
                cell_antigen_capacity=3)
    tissues = [Tissue(cfg), blocked(cfg, 1), blocked(cfg, 7)]
    assert [t._block for t in tissues] == [dca.tissue.BLOCK_TICKS, 1, 7]
    steps = [(SignalVector(pamp=p, danger=d, safe=s, inflammation=ic),
              [f"b-{t}-{k}" for k in range(n)])
             for t, (p, d, s, ic, n) in enumerate(raw_steps)]
    # quiet ticks that let the pools migrate and the stores empty
    steps += [(SignalVector(pamp=1.0, danger=1.0), [])] * 40
    for signals, labels in steps:
        for t in tissues:
            t.set_signals(signals)
            for label in labels:
                t.enqueue_antigen(label)
            t.tick()
        first = tissue_state(tissues[0])
        assert tissue_state(tissues[1]) == first
        assert tissue_state(tissues[2]) == first
