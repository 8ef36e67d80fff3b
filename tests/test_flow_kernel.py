"""Replica-batched skew-walk kernel: bit equality with skew_lattice_flow,
row equality with the per-replica flow-experiment computation, and
negative controls for the streamed invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from walshflow import flows
from walshflow.cli import DEFAULT_CONFIG, _flow_chunk, _flow_starts
from walshflow.flows import (
    LATTICE_INF,
    LatticeFlowConfig,
    OffLatticeStart,
    _flow_invariants,
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


def _streamed(traj, births, units, width=50):
    """Run the streamed invariants over one replica's trajectories, cut in
    blocks of a width the kernel does not use."""
    steps = traj.shape[1] - 1
    blocks = (
        (k0, traj[:, k0 : k0 + width + 1].T[:, :, None]) for k0 in range(0, steps, width)
    )
    out = _flow_invariants(blocks, births, units, True, 1)
    return {
        name: value[0]
        for name, value in zip(
            ("monotone", "flow_prop", "permanence", "at_zero", "merge", "visits"), out
        )
    }


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
