import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import kstest, norm

from walshflow.graph import PiecewiseFunction, validate_spec
from walshflow.paths import (
    KEY_EXACT_MARGINAL,
    KEY_MAPPING_CHOICE,
    KEY_RAY_FLIP,
    KEY_REPLICA,
    EmptyInterval,
    RngStream,
    ScalarPath,
    TimeGrid,
    WalshPath,
    _dyadic_labels,
    dyadic_label,
    find_excursions,
    freidlin_sheu_residual,
    keyed_uniforms,
    local_time_band,
    sample_brownian,
    sample_wbm_exact,
    scaled_walk_marginal,
    skorokhod_reflection,
    wbm_flip_construct,
    wbm_flip_paths,
)

SPEC2 = validate_spec((0.7, 0.3), (1, -1))
SPEC3 = validate_spec((0.4, 0.3, 0.3), (1, 1, -1))


def test_time_grid():
    g = TimeGrid(dt=0.25, steps=4)
    assert g.horizon == 1.0
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, steps=4)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, steps=0)


def test_rng_stream_determinism():
    a = RngStream(42).child(1, 7, -3)
    b = RngStream(42).child(1, 7, -3)
    assert np.array_equal(a.generator().random(8), b.generator().random(8))
    c = RngStream(42).child(1, 7, 3)
    assert not np.array_equal(a.generator().random(8), c.generator().random(8))
    d = RngStream(43).child(1, 7, -3)
    assert not np.array_equal(a.generator().random(8), d.generator().random(8))


def test_rng_stream_zigzag_separates_signs():
    # -1 and +1 as key parts must address different streams
    a = RngStream(7).child(-1)
    b = RngStream(7).child(1)
    assert not np.array_equal(a.generator().random(4), b.generator().random(4))


def _uniform_keys(rng, n):
    """n keys of mixed shapes and 32-bit word counts, shuffled together;
    every part fits int64 (larger parts go in stream keys)."""
    keys = []
    for i in range(n):
        kind = i % 6
        if kind == 0:  # flip ray: label of an interval on the 1e-4 grid
            g = int(rng.integers(0, 10000))
            d = g + int(rng.integers(1, 300))
            keys.append((KEY_RAY_FLIP, *dyadic_label(g * 1e-4, d * 1e-4)))
        elif kind == 1:  # mapping choice: label of a 4^-6 lattice excursion
            g = int(rng.integers(0, 4096))
            d = g + 2 * int(rng.integers(1, 200))
            label = dyadic_label(g * 4.0**-6, d * 4.0**-6)
            keys.append((KEY_MAPPING_CHOICE, int(rng.integers(0, 10001)), 0, *label))
        elif kind == 2:  # negative (zigzag-encoded) parts and parts of 0
            parts = rng.integers(-(2**31), 2**31, int(rng.integers(1, 6)))
            parts[rng.random(len(parts)) < 0.3] = 0
            keys.append(tuple(int(p) for p in parts))
        elif kind == 3:  # parts of two words, either sign
            keys.append(
                tuple(
                    int(rng.choice([-1, 1])) * int(rng.integers(1, 2**40)) << int(e)
                    for e in rng.integers(0, 23, int(rng.integers(1, 4)))
                )
            )
        elif kind == 4:  # zigzag edges: -2^31 encodes to 2^32 - 1, 2^31 to 2^32,
            # the int64 ends to 2^64 - 1 and 2^64 - 2
            keys.append((0, -(2**31), 2**31, -(2**63), 2**63 - 1)[: 1 + i % 5])
        else:  # no key parts at all
            keys.append(())
    order = rng.permutation(n)
    return [keys[j] for j in order]


def _by_length(keys):
    """(positions, (count, parts) int64 array) of the keys of each length."""
    lengths = np.array([len(key) for key in keys])
    for length in np.unique(lengths).tolist():
        index = np.flatnonzero(lengths == length)
        yield index, np.array([keys[j] for j in index], dtype=np.int64)


def test_uniforms_bit_equal_to_generator():
    rng = np.random.default_rng(20240)
    checked = 0
    for root in (0, 7, 20240, 2**32 - 1, 2**32, 2**40 + 5, 2**63 + 11, 2**64 - 1):
        for stream in (
            RngStream(root),
            RngStream(root).child(9, -3, 2**35),
            # stream keys take parts of any size: here of two to four words
            RngStream(root).child(-(2**89), 2**64 - 1, 2**40 << 50, -(2**63) - 1),
        ):
            for _index, keys in _by_length(_uniform_keys(rng, 500)):
                got = stream.uniforms(keys)
                want = [stream.child(*key).generator().random() for key in keys.tolist()]
                assert got.dtype == np.float64
                assert got.tolist() == want
                checked += len(keys)
            assert stream.uniforms(np.empty((0, 3), dtype=np.int64)).shape == (0,)
    assert checked >= 10**4
    # a key part outside int64 raises instead of wrapping
    for part in (2**63, -(2**63) - 1, 2**64 - 1):
        with pytest.raises(OverflowError):
            RngStream(5).uniforms([(KEY_RAY_FLIP, part)])


def test_keyed_uniforms_across_streams_bit_equal():
    # 24 streams under one root: replica streams, the root itself, and
    # stream keys of up to seven words with negative parts and parts of
    # 2^32 and more; their keys interleaved in one call per key length
    rng = np.random.default_rng(777)
    root = RngStream(2**40 + 5)
    streams = [root.child(KEY_REPLICA, rep) for rep in range(16)] + [
        root,
        root.child(-1),
        root.child(9, -3, 2**35),
        root.child(2**32),
        root.child(-(2**33), 7, 0, 2**64 - 1),
        root.child(KEY_REPLICA, -12),
        root.child(0, 0, 0, 0, 0),
        root.child(2**31, -(2**31)),
    ]
    picks = rng.integers(0, len(streams), 2400)
    keys = _uniform_keys(rng, len(picks))
    for index, array in _by_length(keys):
        got = keyed_uniforms(streams, picks[index], array)
        want = [
            streams[i].child(*key).generator().random()
            for i, key in zip(picks[index].tolist(), array.tolist())
        ]
        assert got.dtype == np.float64
        assert got.tolist() == want
        # each stream's share is that stream's one-stream draw
        for i in (0, 16, 20):
            mine = picks[index] == i
            assert streams[i].uniforms(array[mine]).tolist() == got[mine].tolist()
    assert len(set(picks.tolist())) == len(streams)
    empty = keyed_uniforms([], np.empty(0, dtype=np.intp), np.empty((0, 3), dtype=np.int64))
    assert empty.shape == (0,)
    with pytest.raises(ValueError, match="root seeds"):
        keyed_uniforms([root, RngStream(5)], [0, 1], [(1,), (1,)])


def test_flip_paths_equal_one_stream_construction():
    grid = TimeGrid(dt=1e-3, steps=1000)
    root = RngStream(20240)
    streams = [root.child(KEY_REPLICA, rep) for rep in range(7)] + [root, root.child(-4, 2**33)]
    paths = list(wbm_flip_paths(grid, SPEC3, streams))
    assert len(paths) == len(streams)
    for stream, path in zip(streams, paths):
        alone = wbm_flip_construct(grid, SPEC3, stream)
        for name in ("rays", "radii", "brownian", "local_time"):
            got, want = getattr(path, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert list(wbm_flip_paths(grid, SPEC3, [])) == []
    # one-step paths: some end at the junction with no excursion at all,
    # and a chunk of only those draws nothing
    grid = TimeGrid(dt=1.0, steps=1)
    paths = list(wbm_flip_paths(grid, SPEC3, streams))
    flat = [path for path in paths if path.radii[-1] == 0.0]
    assert 0 < len(flat) < len(paths)
    for path in flat:
        assert path.rays.tolist() == [SPEC3.n_rays] * 2
    chosen = [s for s, path in zip(streams, paths) if path.radii[-1] == 0.0]
    alone = [wbm_flip_construct(grid, SPEC3, stream) for stream in chosen]
    assert [p.rays.tolist() for p in wbm_flip_paths(grid, SPEC3, chosen)] == [
        p.rays.tolist() for p in alone
    ]
    with pytest.raises(ValueError, match="root seeds"):
        next(wbm_flip_paths(grid, SPEC3, [root.child(1), RngStream(20241).child(1)]))


def test_flip_rays_equal_per_excursion_generators():
    # oracle: find each excursion by a scalar scan, draw its ray from its
    # own generator, map it with a hand-written cumulative search
    grid = TimeGrid(dt=1e-3, steps=1000)
    times = grid.dt * np.arange(grid.steps + 1)
    cum = np.cumsum(SPEC3.alpha)
    cum[-1] = 1.0
    for rep in range(6):
        stream = RngStream(20240).child(9, rep)
        path = wbm_flip_construct(grid, SPEC3, stream)
        expected = np.full(grid.steps + 1, SPEC3.n_rays)
        k = 1
        while k <= grid.steps:
            if path.radii[k] == 0.0:
                k += 1
                continue
            first = k
            while k <= grid.steps and path.radii[k] > 0.0:
                k += 1
            num, exp = dyadic_label(times[first - 1], times[min(k, grid.steps)])
            u = stream.child(KEY_RAY_FLIP, num, exp).generator().random()
            expected[first:k] = int(np.searchsorted(cum, u, side="right")) + 1
        assert np.array_equal(path.rays, expected)


def test_rng_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)


def test_sample_brownian_shape_and_start():
    grid = TimeGrid(0.01, 100)
    path = sample_brownian(grid, RngStream(5))
    assert path.values[0] == 0.0
    assert len(path.values) == 101
    again = sample_brownian(grid, RngStream(5))
    assert np.array_equal(path.values, again.values)


def test_skorokhod_toy_example():
    grid = TimeGrid(1.0, 4)
    brownian = ScalarPath(grid=grid, values=np.array([0.0, -2.0, -1.0, -3.0, 1.0]))
    reflected, local = skorokhod_reflection(brownian)
    assert reflected.values.tolist() == [0.0, 0.0, 1.0, 0.0, 4.0]
    # the compensator is the running depth of the minimum below 0
    assert local.values.tolist() == [0.0, 2.0, 2.0, 3.0, 3.0]


def test_reflection_zeros_are_exact():
    grid = TimeGrid(0.001, 1000)
    brownian = sample_brownian(grid, RngStream(11))
    reflected, local = skorokhod_reflection(brownian)
    driver = brownian.values
    at_min = driver == np.minimum.accumulate(np.minimum(driver, 0.0))
    # wherever the running minimum is (re)attained below zero, the
    # reflected value is the same float minus itself
    assert np.all(reflected.values[at_min & (driver <= 0.0)] == 0.0)
    assert np.all(reflected.values >= 0.0)
    # Skorokhod identity holds to the last bit representable
    assert np.allclose(reflected.values, driver + local.values, atol=0.0, rtol=0.0)


def test_local_time_band_flat_path():
    grid = TimeGrid(0.01, 100)
    flat = ScalarPath(grid=grid, values=np.zeros(101))
    assert local_time_band(flat, 0.1) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        local_time_band(flat, 0.0)


def _scan_excursions(off, dt):
    """Oracle: walk the mask point by point; each run off the junction that
    starts right after a junction point runs to the next junction point,
    or to the last index when it is still open there."""
    rows = []
    for k in range(1, len(off)):
        if off[k] and not off[k - 1]:
            d = k
            while d < len(off) - 1 and off[d]:
                d += 1
            rows.append((k - 1, d, dyadic_label((k - 1) * dt, d * dt)))
    return rows


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=80),
    st.sampled_from([1e-3, 1e-4, 4.0**-5, 0.25, 0.3, 2.0]),
)
@example([True, True, False, True, True, False], 1e-3)  # a run from index 0
@example([False, False, True, False, False, False, True, False], 1e-3)  # junction runs
@example([False, True, True], 4.0**-5)  # a run open at the last index
@example([True] * 7, 0.25)
@example([False] * 7, 0.25)
@example([True], 0.25)
@example([False], 0.25)
def test_find_excursions_matches_scalar_scan(off, dt):
    g, d, labels = find_excursions(np.array(off), dt)
    assert g.dtype.kind == d.dtype.kind == "i"
    assert labels.dtype == np.int64 and labels.shape == (len(g), 2)
    got = [(a, b, tuple(label)) for a, b, label in zip(g.tolist(), d.tolist(), labels.tolist())]
    assert got == _scan_excursions(off, dt)
    # one path per row: each row's excursions, its bounds offset by the
    # row's start in the flattened mask
    rows = [off, off[::-1], [not x for x in off], off]
    g, d, labels = find_excursions(np.array(rows), dt)
    got = [(a, b, tuple(label)) for a, b, label in zip(g.tolist(), d.tolist(), labels.tolist())]
    n = len(off)
    want = [
        (r * n + a, r * n + b, label)
        for r, row in enumerate(rows)
        for a, b, label in _scan_excursions(row, dt)
    ]
    assert got == want
    assert find_excursions(np.zeros((0, n), dtype=bool), dt)[2].shape == (0, 2)


def test_dyadic_label_examples():
    # (numerator, exponent) of 1/2, 2 and 3/8
    assert dyadic_label(0.3, 0.8) == (1, 1)
    assert dyadic_label(1.1, 3.2) == (2, 0)
    assert dyadic_label(0.26, 0.49) == (3, 3)
    with pytest.raises(EmptyInterval):
        dyadic_label(0.5, 0.5)
    with pytest.raises(EmptyInterval):
        dyadic_label(0.8, 0.3)


def _brute_force_label(u, v, max_exp=1100):
    fu, fv = Fraction(u), Fraction(v)
    for n in range(max_exp + 1):
        scale = 1 << n
        k_lo = math.floor(fu * scale) + 1
        candidate = Fraction(k_lo, scale)
        if candidate < fv:
            return candidate
    return None


def _as_key(label):
    return label.numerator, label.denominator.bit_length() - 1


@settings(max_examples=200)
@given(
    st.floats(min_value=-16.0, max_value=16.0),
    st.floats(min_value=2.0**-30, max_value=8.0),
)
def test_dyadic_label_matches_brute_force(u, width):
    v = u + width
    expected = _brute_force_label(u, v)
    assert expected is not None
    assert dyadic_label(u, v) == _as_key(expected)


def _program_intervals(rng):
    """Intervals of the kinds the program labels: excursions on the 1e-4
    flip grid and on the 4^-3..4^-6 flow lattices, then adjacent floats,
    u = 0 and negated grid intervals."""
    out = []
    flip = 1e-4 * np.arange(10_001)
    g = rng.integers(0, 10_000, size=3000)
    d = np.minimum(g + np.exp2(rng.uniform(0.0, 13.0, size=3000)).astype(int), 10_000)
    out += [(float(flip[a]), float(flip[b])) for a, b in zip(g, d)]
    for level in range(3, 7):
        dt = 4.0**-level
        g = rng.integers(0, 4 * 4**level, size=1000)
        d = g + np.exp2(rng.uniform(0.0, 2 * level + 1, size=1000)).astype(int)
        out += [(int(a) * dt, int(b) * dt) for a, b in zip(g, d)]
    us = rng.uniform(-16.0, 16.0, size=1000)
    out += [(float(u), float(np.nextafter(u, np.inf))) for u in us]
    out += [(0.0, float(v)) for v in np.exp2(rng.uniform(-60.0, 4.0, size=999))]
    out.append((0.0, 5e-324))
    out += [(-b, -a) for a, b in out[:1000]]
    return out


def test_dyadic_label_brute_force_sweep():
    rng = np.random.default_rng(2024)
    us = rng.uniform(-8.0, 8.0, size=10_000)
    widths = np.exp2(rng.uniform(-25.0, 3.0, size=10_000))
    intervals = [(float(u), float(u + w)) for u, w in zip(us, widths)]
    intervals += _program_intervals(rng)
    assert len(intervals) >= 20_000
    for u, v in intervals:
        if not u < v:
            continue
        assert dyadic_label(u, v) == _as_key(_brute_force_label(u, v)), (u, v)


def _scalar_labels(u, v):
    return [dyadic_label(a, b) for a, b in zip(u.tolist(), v.tolist())]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-16.0, max_value=16.0),
            st.floats(min_value=2.0**-30, max_value=8.0),
        ),
        min_size=1,
        max_size=12,
    )
)
@example([(0.0, 1.0), (-3.0, 1.0), (2.5, 1.0), (0.3, 2.0**-30)])  # one unit wide
def test_array_labels_match_scalar_rule(rows):
    # every row of a call is labelled at the level the narrowest row needs
    u = np.array([a for a, _w in rows])
    v = u + np.array([w for _a, w in rows])
    keep = u < v
    u, v = u[keep], v[keep]
    assert [tuple(r) for r in _dyadic_labels(u, v).tolist()] == _scalar_labels(u, v)


def test_array_labels_sweep():
    rng = np.random.default_rng(17)
    cases = []
    # grid intervals ]g dt, d dt[ at non-dyadic and dyadic steps, each grid
    # in one call, then the same intervals negated
    for dt in (1e-4, 0.3, 1 / 3, 4.0**-6):
        g = rng.integers(0, 20_000, size=3000)
        d = g + np.exp2(rng.uniform(0.0, 14.0, size=3000)).astype(np.int64)
        cases += [(g * dt, d * dt), (-d * dt, -g * dt)]
    # intervals one unit wide, from integers and from between them
    starts = np.concatenate([np.arange(-40.0, 40.0), rng.uniform(-40.0, 40.0, size=500)])
    cases.append((starts, starts + 1.0))
    # mixed signs and widths in one call
    u = rng.uniform(-8.0, 8.0, size=5000)
    v = u + np.exp2(rng.uniform(-20.0, 3.0, size=5000))
    cases.append((u, v))
    for u, v in cases:
        assert (u < v).all()
        labels = _dyadic_labels(u, v)
        assert labels.dtype == np.int64
        assert [tuple(r) for r in labels.tolist()] == _scalar_labels(u, v)
    empty = np.empty(0)
    assert _dyadic_labels(empty, empty).shape == (0, 2)


def test_array_labels_outside_exact_domain_raise():
    # dyadic_label handles these; the array rule would need integers of
    # 2^53 or more, so it refuses rather than round
    ones = np.array([1.0, 0.25])
    for u, v in (
        (ones, np.nextafter(ones, 2.0)),
        (np.array([2.0**60]), np.array([2.0**60 + 2.0**9])),
        (np.array([0.0, 1e300]), np.array([1e-300, 2e300])),
    ):
        dyadic_label(float(u[-1]), float(v[-1]))
        with pytest.raises(ValueError, match="2\\^53"):
            _dyadic_labels(u, v)
    with pytest.raises(ValueError, match="2\\^53"):
        _dyadic_labels(np.array([0.0]), np.array([np.inf]))
    with pytest.raises(EmptyInterval):
        _dyadic_labels(np.array([0.1, 0.5]), np.array([0.2, 0.5]))
    # on the widest grid the program takes, labels stay inside the domain
    steps = 2**22
    g = np.array([0, steps // 2, steps - 1])
    u, v = g * 1e-4, (g + 1) * 1e-4
    assert [tuple(r) for r in _dyadic_labels(u, v).tolist()] == _scalar_labels(u, v)


def test_walsh_path_validation():
    grid = TimeGrid(1.0, 3)
    radii = np.array([0.0, 1.0, 1.0, 0.0])
    WalshPath(grid=grid, rays=np.array([2, 1, 1, 2]), radii=radii, n_rays=2)
    with pytest.raises(ValueError):
        # ray flips inside the positive run
        WalshPath(grid=grid, rays=np.array([2, 1, 2, 2]), radii=radii, n_rays=2)
    with pytest.raises(ValueError):
        # zero must sit on the origin ray
        WalshPath(grid=grid, rays=np.array([1, 1, 1, 2]), radii=radii, n_rays=2)


def test_flip_construct_invariants():
    grid = TimeGrid(0.005, 400)
    path = wbm_flip_construct(grid, SPEC3, RngStream(31))
    # the radius array is the reflected driver, bit for bit
    brownian = sample_brownian(grid, RngStream(31))
    reflected, local = skorokhod_reflection(brownian)
    assert np.array_equal(path.radii, reflected.values)
    assert np.array_equal(path.local_time, local.values)
    assert np.array_equal(path.brownian, brownian.values)
    # determinism: same stream, same path
    again = wbm_flip_construct(grid, SPEC3, RngStream(31))
    assert np.array_equal(path.rays, again.rays)
    assert np.array_equal(path.radii, again.radii)


def test_flip_construct_ray_frequencies_rough():
    grid = TimeGrid(1.0 / 128, 128)
    counts = np.zeros(3)
    total = 0
    for rep in range(1000):
        path = wbm_flip_construct(grid, SPEC3, RngStream(900).child(9, rep))
        ray, radius = int(path.rays[-1]), float(path.radii[-1])
        if radius > 0.0:
            counts[ray - 1] += 1
            total += 1
    freq = counts / total
    for a, got in zip(SPEC3.alpha, freq):
        sigma = math.sqrt(a * (1 - a) / total)
        assert abs(got - a) < 5 * sigma


def test_sample_wbm_exact_marginal():
    rays, radii = sample_wbm_exact(SPEC3, 1.0, 20_000, RngStream(123))
    assert np.all(radii >= 0.0)
    # radius against the folded-normal law
    ks = kstest(radii, lambda x: 2.0 * norm.cdf(x) - 1.0)
    assert ks.pvalue > 1e-3
    # ray frequencies against the weights
    for i, a in enumerate(SPEC3.alpha, start=1):
        got = np.mean(rays == i)
        sigma = math.sqrt(a * (1 - a) / len(rays))
        assert abs(got - a) < 5 * sigma
    again_rays, again_radii = sample_wbm_exact(SPEC3, 1.0, 20_000, RngStream(123))
    assert np.array_equal(rays, again_rays)
    assert np.array_equal(radii, again_radii)


def _exact_marginal_oracle(spec, t, replicas, stream):
    """sample_wbm_exact written as whole-array expressions, one new array
    per operation: the same float operations in the same order."""
    gen = stream.child(KEY_EXACT_MARGINAL).generator()
    dt = t / 16
    increments = gen.standard_normal((replicas, 16)) * math.sqrt(dt)
    endpoints = np.cumsum(increments, axis=1)
    starts = np.concatenate([np.zeros((replicas, 1)), endpoints[:, :-1]], axis=1)
    log_u = np.log1p(-gen.random((replicas, 16)))
    disc = np.sqrt(np.square(increments) - 2.0 * dt * log_u)
    step_minima = (starts + endpoints - disc) / 2.0
    running = np.minimum.accumulate(step_minima, axis=1)
    radii = endpoints[:, -1] - running[:, -1]
    argmin_step = np.argmax(step_minima <= running[:, -1:], axis=1)
    chosen = gen.random((replicas, 16))[np.arange(replicas), argmin_step]
    cum = np.cumsum(spec.alpha)
    cum[-1] = 1.0
    rays = np.searchsorted(cum, chosen, side="right") + 1
    rays[radii == 0.0] = spec.n_rays
    return rays, radii


def test_sample_wbm_exact_bit_equal_to_array_expressions():
    for seed, t, replicas in ((1, 1.0, 5000), (2, 0.3, 1), (3, 4.0, 17)):
        stream = RngStream(seed).child(KEY_REPLICA, 201)
        rays, radii = sample_wbm_exact(SPEC3, t, replicas, stream)
        want_rays, want_radii = _exact_marginal_oracle(SPEC3, t, replicas, stream)
        assert rays.tolist() == want_rays.tolist()
        assert radii.tobytes() == want_radii.tobytes()


def test_scaled_walk_marginal_sign_frequencies():
    rays, radii = scaled_walk_marginal(SPEC2, 3, 1.0, 20_000, RngStream(55))
    nonzero = radii > 0.0
    frac_plus = np.mean(rays[nonzero] == 1)
    sigma = math.sqrt(0.7 * 0.3 / np.count_nonzero(nonzero))
    assert abs(frac_plus - 0.7) < 5 * sigma
    assert np.all(radii[rays == 2] >= 0.0)
    # walk lives on the scaled lattice
    lattice = np.round(radii * 8) / 8
    assert np.array_equal(lattice, radii)


def test_freidlin_sheu_radius_function_telescopes():
    grid = TimeGrid(0.001, 1000)
    path = wbm_flip_construct(grid, SPEC3, RngStream(321))
    radius_fn = PiecewiseFunction.radial(
        3,
        value=lambda h: np.asarray(h, dtype=float),
        deriv=lambda h: np.ones_like(np.asarray(h, dtype=float)),
        second_deriv=lambda h: np.zeros_like(np.asarray(h, dtype=float)),
    )
    res = freidlin_sheu_residual(radius_fn, SPEC3, path)
    assert abs(res) < 1e-12


def test_freidlin_sheu_requires_driver():
    grid = TimeGrid(1.0, 3)
    bare = WalshPath(
        grid=grid,
        rays=np.array([3, 1, 1, 3]),
        radii=np.array([0.0, 1.0, 1.0, 0.0]),
        n_rays=3,
    )
    f = PiecewiseFunction.radial(3, value=lambda h: h, deriv=lambda h: 1.0, second_deriv=lambda h: 0.0)
    with pytest.raises(ValueError):
        freidlin_sheu_residual(f, SPEC3, bare)
