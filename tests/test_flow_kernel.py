"""Replica-batched skew-walk kernel: bit equality with skew_lattice_flow,
row equality with the per-replica flow-experiment computation, negative
controls for the streamed invariants, and bit equality of their reduction
with the dense one it replaced; merge records and coalescence times against
the per-pair scan they replaced."""

import math
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from walshflow import flows
from walshflow.cli import DEFAULT_CONFIG, _flow_chunk, _flow_starts
from walshflow.flows import (
    LATTICE_INF,
    CoalescenceRecord,
    FlowEnsemble,
    LatticeFlowConfig,
    OffLatticeStart,
    _first_meetings,
    _flow_invariants,
    _junction_meetings,
    _skew_flow_states,
    coalescence_time,
    skew_lattice_flow,
    skew_lattice_flows,
)
from walshflow.graph import GraphPoint, validate_spec
from walshflow.paths import KEY_REPLICA, RngStream

# plus-weights 0, 1/2, 1 and generic, with starts on plus and minus rays
LATTICE_SPECS = [
    validate_spec((0.6, 0.4), (-1, -1)),
    validate_spec((0.5, 0.5), (1, -1)),
    validate_spec((0.3, 0.2, 0.5), (1, 1, -1)),
    validate_spec((0.6, 0.4), (1, 1)),
    validate_spec((0.7, 0.3), (1, -1)),
    validate_spec((0.4, 0.3, 0.3), (1, 1, -1)),
    validate_spec((0.2, 0.5, 0.3), (1, -1, -1)),
]


def _random_lattice_case(seed):
    """A random spec, level, horizon and start list (with a start that
    enters from start 0 now and then), on one lattice parity."""
    rng = np.random.default_rng(seed)
    spec = LATTICE_SPECS[seed % len(LATTICE_SPECS)]
    level = int(rng.integers(1, 5))
    steps = int(rng.integers(1, 400))
    dt, dx = 4.0 ** (-level), 2.0 ** (-level)
    pairs, signed = [], []
    for q in range(int(rng.integers(1, 6))):
        birth = 0 if q == 0 else int(rng.integers(0, steps))
        ray = int(rng.integers(1, spec.n_rays + 1))
        units = int(rng.integers(0, 7))
        if spec.alpha_plus != 0.5 and (birth + units) % 2:
            units += 1
        point = spec.origin if units == 0 else GraphPoint(ray=ray, radius=units * dx)
        pairs.append((birth * dt, point))
        signed.append((birth, spec.sign(ray) * units if units else 0))
    config = LatticeFlowConfig(level=level, horizon=steps * dt, start_pairs=tuple(pairs))
    if rng.random() < 0.3:
        signed.append((int(rng.integers(0, steps)), None))
    return spec, config, signed


@pytest.mark.parametrize("batch", range(5))
def test_kernel_states_equal_skew_lattice_flow_rows(batch):
    for seed in range(120 * batch, 120 * (batch + 1)):
        spec, config, starts = _random_lattice_case(seed)
        streams = [RngStream(seed).child(KEY_REPLICA, rep) for rep in range(3)]
        refs = [skew_lattice_flow(config, spec, s).traj for s in streams]
        seen = 0
        for k0, rows in _skew_flow_states(spec.alpha_plus, config.steps, starts, streams):
            for r, ref in enumerate(refs):
                for q, (birth, units) in enumerate(starts):
                    source = ref[0] if units is None else ref[q]
                    lo = max(birth, k0)
                    got = rows[lo - k0 :, q, r]
                    want = source[lo : k0 + len(rows)]
                    np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
            seen = k0 + len(rows) - 1
        assert seen == config.steps


@pytest.mark.parametrize("batch", range(2))
def test_batched_ensembles_equal_skew_lattice_flow(batch):
    """Every spec, later births and one to four streams per case; the
    random case's extra entering start is not a configured start."""
    for seed in range(70 * batch, 70 * (batch + 1)):
        spec, config, _starts = _random_lattice_case(seed)
        streams = [RngStream(seed).child(KEY_REPLICA, rep) for rep in range(1 + seed % 4)]
        got = skew_lattice_flows(config, spec, streams)
        assert len(got) == len(streams)
        for stream, ens in zip(streams, got):
            want = skew_lattice_flow(config, spec, stream)
            assert ens.traj.dtype == np.int64 and ens.traj.shape == want.traj.shape
            assert ens.traj.tobytes() == want.traj.tobytes(), f"seed {seed}"
            assert ens.start_meta == want.start_meta
            for q, (birth, _units, _ray) in enumerate(ens.start_meta):
                assert (ens.traj[q, :birth] == LATTICE_INF).all()


# The per-pair scan merge_record and coalescence_time made before they went
# through _first_meetings, kept as their reference.


def _first_meeting_oracle(ens, i, q):
    """First index from the later birth on at which starts i and q both sit
    at the junction, or at plus-weight 1/2 are equal; None if there is none."""
    born = max(ens.born_at(i), ens.born_at(q))
    a, b = ens.traj[i], ens.traj[q]
    if ens.spec.alpha_plus == 0.5:
        hits = np.flatnonzero(a[born:] == b[born:])
    else:
        hits = np.flatnonzero((a[born:] == 0) & (b[born:] == 0))
    return int(hits[0]) + born if len(hits) else None


def _merge_record_oracle(ens, q):
    """Start q's first meeting with any earlier start, the smallest target
    on ties, from the per-pair scan."""
    best = None
    for i in range(q):
        idx = _first_meeting_oracle(ens, i, q)
        if idx is not None and (best is None or idx < best.merge_index):
            best = CoalescenceRecord(start_index=q, target_index=i, merge_index=idx)
    return best


def test_merge_records_and_coalescence_times_equal_the_per_pair_scan():
    """Every start's merge record and every pair's coalescence time over the
    random lattice cases: plus-weight 1/2, late births, and earlier starts
    born after later ones."""
    seen = {"merge at 1/2": 0, "merge after a late birth": 0, "earlier born later": 0}
    for seed in range(600):
        spec, config, _starts = _random_lattice_case(seed)
        ens = skew_lattice_flow(config, spec, RngStream(seed).child(KEY_REPLICA, 0))
        births = [meta[0] for meta in ens.start_meta]
        for q in range(len(births)):
            record = ens.merge_record(q)
            assert record == _merge_record_oracle(ens, q), f"seed {seed} start {q}"
            if record is None:
                continue
            seen["merge at 1/2"] += spec.alpha_plus == 0.5
            seen["merge after a late birth"] += max(births[q], births[record.target_index]) > 0
            seen["earlier born later"] += births[record.target_index] > births[q]
            for i in range(len(births)):
                want = births[i] if i == q else _first_meeting_oracle(ens, min(i, q), max(i, q))
                assert coalescence_time(ens, i, q) == want, f"seed {seed} pair {i}, {q}"
    assert all(seen.values()), seen


def test_merge_record_takes_the_smallest_target_on_a_tie():
    """Starts 0 and 1 meet start 2 at its birth, index 2, together: at the
    junction, so under the junction rule and at plus-weight 1/2 alike."""
    never = LATTICE_INF
    traj = np.array(
        [[2, 1, 0, 1, 2], [-2, -1, 0, -1, -2], [never, never, 0, 1, 0]], dtype=np.int64
    )
    for spec in (LATTICE_SPECS[4], LATTICE_SPECS[1]):
        pairs = (
            (0.0, GraphPoint(ray=1, radius=1.0)),
            (0.0, GraphPoint(ray=2, radius=1.0)),
            (0.5, spec.origin),
        )
        config = LatticeFlowConfig(level=1, horizon=1.0, start_pairs=pairs)
        ens = FlowEnsemble(config, spec, traj.copy(), config.signed_starts(spec))
        assert ens.merge_record(0) is None
        assert ens.merge_record(1) == CoalescenceRecord(1, 0, 2)
        assert ens.merge_record(2) == CoalescenceRecord(2, 0, 2)
        assert coalescence_time(ens, 2, 1) == coalescence_time(ens, 0, 2) == 2


def test_batched_ensembles_reject_mixed_parities_as_one_stream_does():
    spec = LATTICE_SPECS[4]
    dx = 2.0 ** (-3)
    config = LatticeFlowConfig(
        level=3,
        horizon=1.0,
        start_pairs=((0.0, spec.origin), (0.0, GraphPoint(ray=1, radius=dx))),
    )
    stream = RngStream(5).child(KEY_REPLICA, 0)
    with pytest.raises(OffLatticeStart, match="parities"):
        skew_lattice_flow(config, spec, stream)
    with pytest.raises(OffLatticeStart, match="parities"):
        skew_lattice_flows(config, spec, [stream, stream.child(1)])
    # at plus-weight 1/2 the same starts are a translation flow
    half = LATTICE_SPECS[1]
    (ens,) = skew_lattice_flows(config, half, [stream])
    assert ens.traj.tobytes() == skew_lattice_flow(config, half, stream).traj.tobytes()


def test_batched_ensembles_of_a_horizon_under_one_step():
    # no step, so the kernel yields no block: each row is its start alone
    spec = LATTICE_SPECS[5]
    config = LatticeFlowConfig(
        level=2,
        horizon=0.5 * 4.0**-2,
        start_pairs=((0.0, spec.origin), (0.0, GraphPoint(ray=3, radius=0.5))),
    )
    assert config.steps == 0
    streams = [RngStream(6).child(KEY_REPLICA, rep) for rep in range(2)]
    for stream, ens in zip(streams, skew_lattice_flows(config, spec, streams)):
        want = skew_lattice_flow(config, spec, stream).traj
        assert ens.traj.tobytes() == want.tobytes() and want.tolist() == [[0], [-2]]


# plus-weights 0, 1/2, 1 and generic
SPAN_SPECS = [LATTICE_SPECS[0], LATTICE_SPECS[1], LATTICE_SPECS[3], LATTICE_SPECS[5]]


def test_layout_constants_start_blocks_and_spans_on_a_sign_word():
    """A stream comes in blocks of 64 steps, each opened by its sign word,
    and every span but the last ends on a block, so a span is a multiple
    of 64."""
    assert flows._SPAN_STEPS % 64 == 0 and flows._SPAN_STEPS > 0


def _assert_states_equal_flow_rows(spec, steps, plan, entering):
    """_skew_flow_states over `steps` steps against skew_lattice_flow, for
    starts given as (birth, ray, units) on one lattice parity at level 2,
    plus starts that enter from start 0 at the `entering` births."""
    level = 2
    dx = 2.0 ** (-level)
    pairs = [
        (birth * 4.0 ** (-level), spec.origin if units == 0 else GraphPoint(ray, units * dx))
        for birth, ray, units in plan
    ]
    config = LatticeFlowConfig(
        level=level, horizon=steps * 4.0 ** (-level), start_pairs=tuple(pairs)
    )
    assert config.steps == steps
    starts = [(birth, spec.sign(ray) * units) for birth, ray, units in plan]
    starts += [(birth, None) for birth in entering]
    streams = [RngStream(4247).child(KEY_REPLICA, rep) for rep in range(3)]
    refs = [skew_lattice_flow(config, spec, s).traj for s in streams]
    seen = 0
    for k0, rows in _skew_flow_states(spec.alpha_plus, steps, starts, streams):
        assert k0 == seen
        for r, ref in enumerate(refs):
            for q, (birth, units) in enumerate(starts):
                source = ref[0] if units is None else ref[q]
                lo = max(birth, k0)
                np.testing.assert_array_equal(
                    rows[lo - k0 :, q, r], source[lo : k0 + len(rows)]
                )
        seen = k0 + len(rows) - 1
    assert seen == steps


@pytest.mark.parametrize("spec", SPAN_SPECS, ids=lambda spec: f"a+={spec.alpha_plus:g}")
@pytest.mark.parametrize("span", [None, 64, 128])
def test_kernel_states_equal_flow_rows_across_draw_spans(monkeypatch, spec, span):
    """Horizons over several draw spans that end mid-byte and mid-word, with
    starts that enter from start 0 just before a span boundary and near the
    end."""
    if span is not None:
        monkeypatch.setattr(flows, "_SPAN_STEPS", span)
    span = flows._SPAN_STEPS
    steps = 3 * span + 13
    plan = [(0, 1, 0), (0, spec.n_rays, 4), (0, 1, 2), (33, 1, 3)]
    _assert_states_equal_flow_rows(spec, steps, plan, [span - 1, steps - 3])


@pytest.mark.parametrize("spec", SPAN_SPECS, ids=lambda spec: f"a+={spec.alpha_plus:g}")
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 127, 2 * 64 + 1, 3 * 64 + 63])
def test_kernel_states_equal_flow_rows_at_sign_word_edges(monkeypatch, spec, steps):
    """Horizons under one sign word, on a word's end, and 1 and 63 steps
    into a word, on spans of two words, so that spans end mid-word too."""
    monkeypatch.setattr(flows, "_SPAN_STEPS", 128)
    plan = [(0, 1, 0), (0, spec.n_rays, 2)]
    _assert_states_equal_flow_rows(spec, steps, plan, [steps // 2, steps - 1])


def _flow_task_oracle(config, rep):
    """The per-replica flow-experiment row, from full trajectories of two
    skew_lattice_flow ensembles (the computation the kernel replaced)."""
    spec = config.spec()
    dx = 2.0 ** (-config.level)
    ap = spec.alpha_plus
    flow_config = LatticeFlowConfig(
        level=config.level,
        horizon=config.flow_horizon,
        start_pairs=_flow_starts(spec, config),
    )
    stream = RngStream(config.root_seed).child(KEY_REPLICA, rep)
    ens = skew_lattice_flow(flow_config, spec, stream)

    same_time = [q for q in range(ens.n_starts) if ens.born_at(q) == 0]
    order = sorted(same_time, key=lambda q: ens.start_meta[q][1])
    monotone = all(
        bool(np.all(ens.traj[a] <= ens.traj[b])) for a, b in zip(order[:-1], order[1:])
    )

    permanence = True
    at_zero = True
    for q in range(1, ens.n_starts):
        record = ens.merge_record(q)
        if record is None:
            continue
        t = record.merge_index
        permanence = permanence and bool(
            np.array_equal(ens.traj[q, t:], ens.traj[record.target_index, t:])
        )
        if ap != 0.5:
            at_zero = (
                at_zero and ens.traj[q, t] == 0 and ens.traj[record.target_index, t] == 0
            )

    mid = ens.steps // 4
    value = int(ens.traj[0, mid])
    if value == 0:
        child_point = spec.origin
    elif value > 0:
        child_point = GraphPoint(ray=1, radius=value * dx)
    else:
        child_point = GraphPoint(ray=spec.n_rays, radius=-value * dx)
    extended = LatticeFlowConfig(
        level=config.level,
        horizon=config.flow_horizon,
        start_pairs=flow_config.start_pairs + ((mid * flow_config.dt, child_point),),
    )
    ens2 = skew_lattice_flow(extended, spec, stream)
    flow_prop = bool(
        np.array_equal(ens2.traj[0], ens.traj[0])
        and np.array_equal(ens2.traj[-1, mid:], ens.traj[0, mid:])
    )

    merge_idx = coalescence_time(ens, 0, 1)
    if merge_idx is None or ap <= 0.5:
        merge_level = math.nan
        merge_out = -1 if merge_idx is None else merge_idx
    else:
        visits = int(np.sum(ens.traj[1, :merge_idx] == 0))
        merge_level = config.flow_y_units * dx + (2.0 * ap - 1.0) * dx * visits
        merge_out = merge_idx
    return (rep, monotone, flow_prop, permanence, bool(at_zero), merge_out, merge_level)


@pytest.mark.parametrize(
    "alpha, eps, level",
    [
        ((0.4, 0.3, 0.3), (1, 1, -1), 5),
        ((0.5, 0.5), (1, -1), 4),
        ((0.3, 0.7), (1, -1), 3),
        ((0.6, 0.4), (1, 1), 4),
    ],
)
def test_kernel_rows_equal_per_replica_oracle(alpha, eps, level):
    config = replace(
        DEFAULT_CONFIG, alpha=alpha, eps=eps, level=level, flow_horizon=2.0, root_seed=31
    ).validate()
    first, count = 37, 200
    rows = _flow_chunk((config, first, count))
    oracle = [_flow_task_oracle(config, rep) for rep in range(first, first + count)]
    assert len(rows) == count
    for got, want in zip(rows, oracle):
        np.testing.assert_equal(got, want)


def _full_trajectories(seed, spec=LATTICE_SPECS[5], level=3, horizon=4.0):
    """Flow-experiment trajectories of one replica, start by start, with the
    flow-property start appended: (ensemble, traj, births, units)."""
    config = replace(DEFAULT_CONFIG, level=level, flow_horizon=horizon)
    base = LatticeFlowConfig(
        level=level, horizon=horizon, start_pairs=_flow_starts(spec, config)
    )
    stream = RngStream(seed).child(KEY_REPLICA, 0)
    ens = skew_lattice_flow(base, spec, stream)
    mid = ens.steps // 4
    traj = np.vstack([ens.traj, ens.traj[0]])
    traj[-1, :mid] = np.iinfo(np.int64).max
    births = [meta[0] for meta in ens.start_meta] + [mid]
    units = [meta[1] for meta in ens.start_meta] + [None]
    return ens, traj, births, units


def _cut(traj, width):
    """(replicas, starts, steps + 1) trajectories in blocks of `width`
    steps, laid out as the kernel yields them."""
    steps = traj.shape[-1] - 1
    return ((k0, traj[..., k0 : k0 + width + 1].T) for k0 in range(0, steps, width))


_OUTPUTS = ("monotone", "flow_prop", "permanence", "at_zero", "merge", "visits")


def _streamed(traj, births, units, width=50):
    """Run the streamed invariants over one replica's trajectories, cut in
    blocks of a width the kernel does not use."""
    out = _flow_invariants(_cut(traj[None], width), births, units, True, 1)
    return {name: value[0] for name, value in zip(_OUTPUTS, out)}


def _merged_replica():
    for seed in range(100):
        ens, traj, births, units = _full_trajectories(seed)
        record = ens.merge_record(1)
        if record is not None and record.merge_index + 1 < ens.steps:
            return ens, traj, births, units, record.merge_index
    raise AssertionError("no replica merged starts 0 and 1")


def test_streamed_invariants_hold_on_true_trajectories():
    ens, traj, births, units, t = _merged_replica()
    got = _streamed(traj, births, units)
    assert got["monotone"] and got["flow_prop"] and got["permanence"] and got["at_zero"]
    assert got["merge"] == t == coalescence_time(ens, 0, 1)
    assert got["visits"] == int(np.sum(traj[1, :t] == 0))


def test_monotone_fails_when_a_column_is_pushed_below_its_merge_target():
    _ens, traj, births, units, t = _merged_replica()
    traj[1, t:] -= 2
    assert not _streamed(traj, births, units)["monotone"]


def test_permanence_fails_when_a_column_leaves_its_merge_target():
    _ens, traj, births, units, t = _merged_replica()
    traj[1, t + 1 :] += 2
    got = _streamed(traj, births, units)
    assert got["merge"] == t
    assert not got["permanence"]


def test_flow_property_fails_when_the_appended_start_is_pushed_after_birth():
    _ens, traj, births, units, _t = _merged_replica()
    traj[-1, births[-1] :] += 2
    got = _streamed(traj, births, units)
    assert not got["flow_prop"]
    assert got["monotone"] and got["permanence"]


def _replica_merging_past_start_0(q=3):
    """A replica in which start q merges into an earlier start other than
    start 0 before the last step: (traj, births, units, merge index, target)."""
    for seed in range(200):
        ens, traj, births, units = _full_trajectories(seed)
        record = ens.merge_record(q)
        if (
            record is not None
            and record.target_index != 0
            and record.merge_index + 1 < ens.steps
        ):
            return traj, births, units, record.merge_index, record.target_index
    raise AssertionError(f"no replica merged start {q} into a start other than 0")


def test_permanence_fails_when_a_start_leaves_a_target_other_than_start_0():
    traj, births, units, t, _target = _replica_merging_past_start_0()
    assert _streamed(traj, births, units)["permanence"]
    traj[3, t + 1 :] += 2
    got = _streamed(traj, births, units)
    assert not got["permanence"]
    assert got["monotone"] and got["flow_prop"]


def test_permanence_fails_when_a_start_follows_another_start_than_its_target():
    traj, births, units, t, target = _replica_merging_past_start_0()
    other = next(
        s
        for s in range(3)
        if s != target and not np.array_equal(traj[s, t + 1 :], traj[target, t + 1 :])
    )
    traj[3, t + 1 :] = traj[other, t + 1 :]
    got = _streamed(traj, births, units)
    assert not got["permanence"]
    assert got["monotone"] and got["flow_prop"]


def test_permanence_fails_when_a_start_follows_an_earlier_start_born_after_its_merge():
    """Start 2 merges into start 0 at index 2, then runs with start 1, an
    earlier start born at index 6. Entries ahead of a birth mean nothing,
    so start 1's are set to start 2's values: start 2 then equals start 1
    at every index from its merge on, yet leaves its own target."""
    leader = [0, -1, 0, -1, -2, -3, -2, -3, -4, -3, -4, -5, -4]
    leaver = [2, 1, 0, 1, 2, 3, 4, 5, 4, 5, 6, 5, 6]
    never = np.iinfo(np.int64).max
    traj = np.array([leader, leaver, leaver, [never] * 4 + leader[4:]], dtype=np.int64)
    births, units = [0, 6, 0, 4], [0, leaver[6], 2, None]
    for width in (4, 50):
        got = _streamed(traj, births, units, width=width)
        assert not got["permanence"]
        assert got["monotone"] and got["flow_prop"] and got["at_zero"]
    # with start 2 kept on its target the same replica passes
    traj[2, 2:] = leader[2:]
    assert _streamed(traj, births, units, width=4)["permanence"]


# The dense reduction the junction-event one replaced, kept as its reference.


def _flow_invariants_oracle(
    blocks,
    births: list[int],
    units: list[Optional[int]],
    junction_rule: bool,
    n_replicas: int,
):
    """Reduce state blocks, as _skew_flow_states yields them, to the
    flow-experiment invariants of each replica.

    Columns before the last are an ensemble of starts with the given
    births and signed units; the last column is the flow-property start.
    Returns per replica (monotone, flow_prop, permanence, at_zero, merge,
    visits):
      monotone    same-time starts keep their initial order at every index;
      flow_prop   the last column equals start 0 from its birth on;
      permanence  every start equals its merge target from the merge on;
      at_zero     every merge sits at the junction (junction rule only),
                  true by definition, since a merge record under the
                  junction rule is a common junction visit;
      merge       index of the (0, 1) merge, -1 if none in the horizon;
      visits      junction visits of start 1 before that merge.
    A merge is recorded as FlowEnsemble.merge_record does: the first
    meeting with any earlier start, the smallest target on ties.
    """
    n = len(births) - 1
    order = sorted((q for q in range(n) if births[q] == 0), key=lambda q: units[q])
    never = np.iinfo(np.int64).max
    monotone = np.ones(n_replicas, dtype=bool)
    flow_prop = np.ones(n_replicas, dtype=bool)
    permanence = np.ones(n_replicas, dtype=bool)
    at_zero = np.ones(n_replicas, dtype=bool)
    merge_at = np.full((n, n_replicas), never, dtype=np.int64)
    target = np.zeros((n, n_replicas), dtype=np.intp)
    visits = np.zeros(n_replicas, dtype=np.int64)
    # one buffer each for the whole horizon, written in place per block:
    # allocated per block, they can cost fresh pages on every block
    at_junction_buf = np.empty((64 + 1, n, n_replicas), dtype=bool)
    meet_buf = np.empty_like(at_junction_buf)
    pair_buf = np.empty((64 + 1, n_replicas), dtype=bool)
    after_buf = np.empty_like(pair_buf)
    for k0, rows in blocks:
        width = len(rows)
        index = np.arange(k0, k0 + width)
        born = (index[:, None] >= births[:n])[:, :, None]
        at_junction = np.equal(rows[:, :n], 0, out=at_junction_buf[:width])
        at_junction &= born
        pair = pair_buf[:width]
        for a, b in zip(order[:-1], order[1:]):
            monotone &= np.less_equal(rows[:, a], rows[:, b], out=pair).all(axis=0)
        lo = max(births[n] - k0, 0)
        flow_prop &= np.equal(rows[lo:, n], rows[lo:, 0], out=pair[lo:]).all(axis=0)

        for q in range(1, n):
            pending = merge_at[q] == never
            if not pending.any():
                continue
            meet = meet_buf[:width, :q]
            if junction_rule:
                np.logical_and(at_junction[:, :q], at_junction[:, q, None], out=meet)
            else:
                np.equal(rows[:, :q], rows[:, q, None], out=meet)
                meet &= born[:, :q]
                meet &= born[:, q, None]
            new, to, at = _first_meetings(meet, pending, k0)
            target[q, new], merge_at[q, new] = to, at
            if junction_rule:
                at_zero[new] &= at_junction[at - k0, q, new] & at_junction[at - k0, to, new]

        # each earlier start densely, counted only where it is q's target
        after = after_buf[:width]
        for q in range(1, n):
            if (merge_at[q] < never).any():
                np.greater_equal(index[:, None], merge_at[q], out=after)
                for t in range(q):
                    differ = np.not_equal(rows[:, q], rows[:, t], out=pair)
                    differ &= after
                    permanence &= ~(differ.any(axis=0) & (target[q] == t))

        before = np.less(index[:-1, None], merge_at[1], out=pair[:-1])
        before &= at_junction[:-1, 1]
        visits += np.count_nonzero(before, axis=0)
    merge = np.where(merge_at[1] < never, merge_at[1], -1)
    return monotone, flow_prop, permanence, at_zero, merge, visits


def _assert_outputs_equal(got, want, label):
    for name, g, w in zip(_OUTPUTS, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, f"{label}: {name}"
        assert g.tobytes() == w.tobytes(), f"{label}: {name} {g} != {w}"


def _oracle_case(seed):
    """A spec, horizon, replica count and start list for the oracle test:
    births on a block's first row and inside blocks, in every fourth case
    starts 0 and 1 at the junction at their births, and a flow-property
    start last."""
    rng = np.random.default_rng(seed)
    spec = LATTICE_SPECS[seed % len(LATTICE_SPECS)]
    steps = (1, 63, 64, 65, 3 * 64 + 13)[seed % 5]
    births = [0]
    for _ in range(int(rng.integers(1, 5))):
        first_row = 64 * int(rng.integers(0, 1 + steps // 64))
        births.append(int(rng.choice([0, first_row, rng.integers(0, steps)])))
    starts = []
    for q, birth in enumerate(births):
        units = 0 if q < 2 and seed % 4 == 0 else int(rng.integers(-6, 7))
        if spec.alpha_plus != 0.5 and (birth + units) % 2:
            units += 1
        starts.append((birth, units))
    starts.append((int(rng.integers(0, steps)), None))
    return spec, steps, int(rng.integers(1, 301)), starts


def test_flow_invariants_equal_the_dense_oracle_on_kernel_blocks():
    """Fifty kernel runs at every kind of plus-weight; each block's
    junction meetings also equal the dense first meetings, targets
    included, under a random pending mask."""
    seen = {"birth on a first row": 0, "birth inside": 0, "merge at 0": 0}
    seen |= {"merge on a last row": 0, "tied targets": 0}
    for seed in range(50):
        spec, steps, n_replicas, starts = _oracle_case(seed)
        streams = [RngStream(seed).child(KEY_REPLICA, rep) for rep in range(n_replicas)]
        blocks = [
            (k0, rows.copy())
            for k0, rows in _skew_flow_states(spec.alpha_plus, steps, starts, streams)
        ]
        args = ([birth for birth, _ in starts], [units for _, units in starts])
        junction_rule = spec.alpha_plus != 0.5
        got = _flow_invariants(iter(blocks), *args, junction_rule, n_replicas)
        want = _flow_invariants_oracle(iter(blocks), *args, junction_rule, n_replicas)
        _assert_outputs_equal(got, want, f"seed {seed}")

        births = args[0][:-1]
        seen["birth on a first row"] += any(b and b % 64 == 0 for b in births)
        seen["birth inside"] += any(b % 64 for b in births)
        merge = want[4]
        seen["merge at 0"] += int(np.sum(merge == 0))
        seen["merge on a last row"] += int(np.sum((merge > 0) & (merge % 64 == 0)))
        if not junction_rule:
            continue
        rng = np.random.default_rng(seed)
        for k0, rows in blocks:
            index = np.arange(k0, k0 + len(rows))[:, None, None]
            at_junction = (rows[:, : len(births)] == 0) & (index >= np.array(births)[:, None])
            pending = rng.random(at_junction.shape[1:]) < 0.8
            found = {q: rest for q, *rest in _junction_meetings(at_junction, pending, k0)}
            for q in range(1, len(births)):
                meet = at_junction[:, :q] & at_junction[:, q, None]
                new, to, at = _first_meetings(meet, pending[q], k0)
                if len(new):
                    for g, w in zip(found.pop(q), (new, to, at)):
                        np.testing.assert_array_equal(g, w, err_msg=f"seed {seed} q {q}")
                    seen["tied targets"] += int(np.sum(meet[at - k0, :, new].sum(axis=1) > 1))
            assert not found, f"seed {seed}: meetings {found} not in the dense masks"
    assert all(seen.values()), seen


def _perturbed_trajectories(seeds):
    """Flow-experiment trajectories of one replica per seed, as is and
    broken: a start shifted from an index on, a start moved at one index,
    and a start copying another from an index on. Returns ((replicas,
    starts, steps + 1) trajectories, births, units)."""
    planes = []
    for seed in seeds:
        _ens, traj, births, units = _full_trajectories(seed)
        rng = np.random.default_rng(seed)
        steps = traj.shape[1] - 1
        planes.append(traj)
        for kind in ("shift", "blip", "copy"):
            q = int(rng.integers(1, len(births)))
            k = int(rng.integers(births[q], steps + 1))
            broken = traj.copy()
            if kind == "shift":
                broken[q, k:] += 2
            elif kind == "blip":
                broken[q, k] += 2
            else:
                other = int(rng.integers(0, len(births) - 1))
                broken[q, max(k, births[other]) :] = traj[other, max(k, births[other]) :]
            planes.append(broken)
    return np.stack(planes), births, units


def test_flow_invariants_equal_the_dense_oracle_at_any_block_width():
    """Streamed trajectories, true and broken, cut in blocks of any width,
    with merges under the junction rule and as first equalities. The dense
    reduction holds blocks of at most 64 steps, so blocks wider than that
    are checked against it at 64."""
    traj, births, units = _perturbed_trajectories(range(16))
    n_replicas = len(traj)
    for junction_rule in (True, False):
        for width in (1, 4, 50, 64, 65, 66, 200):
            args = (births, units, junction_rule, n_replicas)
            got = _flow_invariants(_cut(traj, width), *args)
            want = _flow_invariants_oracle(_cut(traj, min(width, 64)), *args)
            _assert_outputs_equal(got, want, f"junction rule {junction_rule}, width {width}")
        # the broken replicas break each invariant but at_zero somewhere
        assert not want[2].all() and not want[0].all() and not want[1].all()
        assert (want[4] >= 0).sum() >= n_replicas // 2


@pytest.mark.parametrize("alpha", [(0.7, 0.3), (0.5, 0.5)])
def test_flow_invariants_of_start_0_alone(alpha):
    """A block of start 0 and the flow-property start: no start 1, so no
    merge and no visits, and the other invariants hold."""
    spec = validate_spec(alpha, (1, -1))
    streams = [RngStream(8).child(KEY_REPLICA, rep) for rep in range(5)]
    starts = [(0, 0), (40, None)]
    blocks = _skew_flow_states(spec.alpha_plus, 150, starts, streams)
    junction_rule = spec.alpha_plus != 0.5
    got = _flow_invariants(blocks, [0, 40], [0, None], junction_rule, len(streams))
    for name, value in zip(_OUTPUTS, got):
        assert value.shape == (len(streams),), name
    assert all(value.all() for value in got[:4])
    assert (got[4] == -1).all() and (got[5] == 0).all()
