"""Path constructions: Brownian sampling, reflection, excursion flips.

A Walsh path is built from a reflected scalar driver: the radius follows
the reflected Brownian motion exactly, and each positive excursion is
assigned a ray by a categorical draw keyed on the excursion's dyadic
label.

Randomness: every draw comes from an RngStream addressed by (root seed,
key tuple), the key led by one of the KEY_* purpose codes below. Draws
made per excursion, here and in walshflow.flows, are keyed by the label
that find_excursions, the one excursion finder, gives its time interval,
so the same root seed reproduces every path, excursion by excursion,
whatever the traversal order or the worker count. find_excursions labels
every excursion of a path, or of many paths at once, in a few array
operations; dyadic_label is the same rule on one interval, in Python
ints, and serves as its oracle. Keys that need one uniform each (the flip
rays, vertex weights, mapping choices) are drawn in bulk by keyed_uniforms,
which redoes numpy's SeedSequence and Philox hashing on arrays and is
bit-equal to building each key's generator. It takes int64 key rows, one
per draw, under several streams in one pass, so the flip rays of many
paths (wbm_flip_paths) come from one draw; RngStream.uniforms is its
one-stream case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from walshflow.graph import (
    GraphSpec,
    PiecewiseFunction,
    flux_defect,
    graph_point,
    vector_eval,
)

__all__ = [
    "EmptyInterval",
    "TimeGrid",
    "ScalarPath",
    "RngStream",
    "keyed_uniforms",
    "WalshPath",
    "sample_brownian",
    "skorokhod_reflection",
    "local_time_band",
    "dyadic_label",
    "find_excursions",
    "wbm_flip_construct",
    "wbm_flip_paths",
    "sample_wbm_exact",
    "scaled_walk_marginal",
    "freidlin_sheu_residual",
    "freidlin_sheu_residuals",
    "ray_from_uniform",
    "categorical",
]

# purpose codes for RNG stream keys; globally unique so no two draw sites
# can collide on the same Philox counter block
KEY_BROWNIAN = 1
KEY_RAY_FLIP = 2
KEY_EXACT_MARGINAL = 3
KEY_WALK = 4
KEY_FLOW_COINS = 5
KEY_KERNEL_CHOICE = 6
KEY_MAPPING_CHOICE = 7
KEY_MEASURE = 8
KEY_REPLICA = 9


class EmptyInterval(ValueError):
    """Dyadic label of an empty open interval."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid k*dt for k = 0..steps; every path starts at time 0."""

    dt: float
    steps: int

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt = {self.dt!r} must be > 0")
        if self.steps < 1:
            raise ValueError(f"steps = {self.steps!r} must be >= 1")

    @property
    def horizon(self) -> float:
        return self.dt * self.steps


@dataclass(frozen=True, eq=False)
class ScalarPath:
    """Values on a time grid, one per grid point."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.steps + 1:
            raise ValueError(
                f"{len(self.values)} values for {self.grid.steps + 1} grid points"
            )


# numpy's SeedSequence hashing on 32-bit words, with its pool of 4 words
_M32 = 0xFFFFFFFF
_POOL = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# Philox4x64-10: round multipliers and key (Weyl) increments, as columns
# against the counter words, which are stepped as rows (c0, c2), (c1, c3)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10


def _zigzag(part: int) -> int:
    """Key part as a spawn-key entry: 0, -1, 1, -2, ... to 0, 1, 2, 3, ..."""
    return 2 * part if part >= 0 else -2 * part - 1


def _entropy_words(parts) -> int:
    """How many SeedSequence entropy words key parts take: each part is
    zigzag-encoded and split into 32-bit words (a part of 0 is one word)."""
    return sum(max(1, -(-_zigzag(part).bit_length() // 32)) for part in parts)


def _hashmix(value, h):
    """SeedSequence hashmix of value under hash constant h, each an int or
    an array of 32-bit words held in uint64; returns it and the next h."""
    h_next = (h * _MULT_A) & _M32
    value = ((value ^ h) * h_next) & _M32
    return value ^ (value >> _XSHIFT), h_next


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> _XSHIFT)


def _absorb(pool: np.ndarray, words, h: int) -> np.ndarray:
    """SeedSequence's mixing of entropy words past the pool size into every
    pool word, for a (_POOL, n) array of pools and (n,) arrays of words.
    The hash constants do not depend on the words, so each word is hashed
    into the four pool words side by side."""
    for w in words:
        hs = np.array([h * _MULT_A**i & _M32 for i in range(_POOL + 1)], dtype=np.uint64)
        hashed, _ = _hashmix(w, hs[:-1, None])
        pool = _mix(pool, hashed)
        h = int(hs[-1])
    return pool


def _mulhilo(m, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product m * x."""
    m_lo, m_hi = m & _M32, m >> 32
    x_lo, x_hi = x & _M32, x >> 32
    t = x_lo * m_lo
    u = x_lo * m_hi + (t >> 32)
    w = x_hi * m_lo + (u & _M32)
    return x_hi * m_hi + (u >> 32) + (w >> 32), x * m


# generate_state's hash constant before each pool word, and after the last
_STATE_H = np.array([_INIT_B * _MULT_B**i & _M32 for i in range(_POOL + 1)], dtype=np.uint64)


def _philox_first_uniform(pool: np.ndarray) -> np.ndarray:
    """random() of Generator(Philox(seed sequence with this pool)), for a
    (_POOL, n) array of pools: the Philox key is generate_state(2, uint64),
    the first block has counter (1, 0, 0, 0), and only its word 0 is used."""
    state = ((pool ^ _STATE_H[:-1, None]) * _STATE_H[1:, None]) & _M32
    state ^= state >> _XSHIFT
    key = state[0::2] | (state[1::2] << 32)  # (k0, k1)
    # round 1 on counter (1, 0, 0, 0) multiplies only by 1 and 0
    even, odd = key, np.array([[0], _PHILOX_M[0]], dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS - 1):
        key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return (even[0] >> 11) * 2.0**-53


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream addressed by (root seed, key tuple).

    Children extend the key; the same root seed and key always produce
    identical draws regardless of creation order. Key parts may be any
    ints (negative parts are zigzag-encoded for the seed sequence).
    """

    root_seed: int
    stream_key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.root_seed < 2**64:
            raise ValueError(f"root_seed {self.root_seed!r} outside 64-bit range")

    def child(self, *parts: int) -> "RngStream":
        return RngStream(self.root_seed, self.stream_key + tuple(int(p) for p in parts))

    def seed_sequence(self) -> np.random.SeedSequence:
        encoded = tuple(_zigzag(k) for k in self.stream_key)
        return np.random.SeedSequence(self.root_seed, spawn_key=encoded)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed_sequence()))

    def uniforms(self, keys) -> np.ndarray:
        """The first random() of each child key's generator, in one pass:
        bit for bit [self.child(*key).generator().random() for key in keys],
        for keys given as an (n, parts) int64 array."""
        return keyed_uniforms([self], np.zeros(len(keys), dtype=np.intp), keys)


def _key_words(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entropy words of every row of an int64 key array: per part its low
    32-bit word, then its high word where that is not 0, interleaved into
    (n, 2 * parts) words with a mask of the ones a row keeps."""
    encoded = (keys.view(np.uint64) << np.uint64(1)) ^ (keys >> 63).view(np.uint64)
    words = np.stack([encoded & np.uint64(_M32), encoded >> np.uint64(32)], axis=2)
    kept = words != 0
    kept[:, :, 0] = True
    n = len(keys)
    return words.reshape(n, -1), kept.reshape(n, -1)


def keyed_uniforms(streams, which, keys) -> np.ndarray:
    """The first random() of each draw's generator, in one pass: bit for
    bit [streams[i].child(*key).generator().random() for i, key in
    zip(which, keys)], with keys an (n, parts) int64 array.

    Key parts outside int64 raise, and belong in the stream keys, which
    take any int. Each stream's pool is its own SeedSequence's; the rest of
    SeedSequence and Philox4x64-10 is redone in uint64 arithmetic: the
    key words are encoded and hashed on arrays, over all draws that
    start from the same hash constant and have the same number of words
    at once. The hash constant after a stream key depends only on how
    many words the key has, since the root seed's words are padded to the
    pool size ahead of any stream key.
    """
    keys = np.asarray(keys, dtype=np.int64)
    which = np.asarray(which, dtype=np.intp)
    if keys.ndim != 2 or which.shape != keys.shape[:1]:
        raise ValueError(f"keys of shape {keys.shape} for {which.shape} draws")
    out = np.empty(len(keys))
    if not len(keys):
        return out
    # the pool fill takes _POOL hashes per pool word, the mixing of a
    # stream key _POOL per entropy word
    table = np.array([stream.seed_sequence().pool for stream in streams], dtype=np.uint64)
    hashes = [
        _INIT_A * _MULT_A ** (_POOL * (_POOL + _entropy_words(stream.stream_key))) & _M32
        for stream in streams
    ]
    words, kept = _key_words(keys)
    # draws with one hash constant and word count (0 to 2 * parts) share
    # a group, coded as constant index * width + word count
    width = words.shape[1] + 1
    constants, constant_of_stream = np.unique(hashes, return_inverse=True)
    codes, group_of_draw = np.unique(
        constant_of_stream[which] * width + np.count_nonzero(kept, axis=1),
        return_inverse=True,
    )
    for group, code in enumerate(codes.tolist()):
        rows = np.flatnonzero(group_of_draw == group)
        h, count = int(constants[code // width]), code % width
        columns = words[rows][kept[rows]].reshape(len(rows), count).T
        pools = np.ascontiguousarray(table[which[rows]].T)
        out[rows] = _philox_first_uniform(_absorb(pools, columns, h))
    return out


@dataclass(frozen=True, eq=False)
class WalshPath:
    """A path on the star graph: per-grid-point ray and radius.

    The radius array is the reflected driver itself (no separate copy to
    drift out of sync), zeros sit on the canonical origin ray, and the
    ray is constant on every positive excursion; construction validates
    the last two. Optional driver pieces (raw Brownian and its Skorokhod
    local time) ride along for pathwise-identity checks.
    """

    grid: TimeGrid
    rays: np.ndarray
    radii: np.ndarray
    n_rays: int
    brownian: Optional[np.ndarray] = field(default=None)
    local_time: Optional[np.ndarray] = field(default=None)

    def __post_init__(self) -> None:
        n = self.grid.steps + 1
        if len(self.rays) != n or len(self.radii) != n:
            raise ValueError("rays and radii must have one entry per grid point")
        if np.any(self.radii < 0.0):
            raise ValueError("radii must be nonnegative")
        at_zero = self.radii == 0.0
        if np.any(self.rays[at_zero] != self.n_rays):
            raise ValueError("zero-radius points must sit on the origin ray")
        # ray constant per positive excursion: changes only across zeros
        changed = self.rays[1:] != self.rays[:-1]
        inside = (~at_zero[1:]) & (~at_zero[:-1])
        if np.any(changed & inside):
            raise ValueError("ray changed inside a positive excursion")


def sample_brownian(grid: TimeGrid, stream: RngStream) -> ScalarPath:
    """Brownian path from 0 on the grid, from the stream's dedicated child key."""
    gen = stream.child(KEY_BROWNIAN).generator()
    increments = gen.standard_normal(grid.steps) * math.sqrt(grid.dt)
    values = np.empty(grid.steps + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return ScalarPath(grid=grid, values=values)


def skorokhod_reflection(brownian: ScalarPath) -> tuple[ScalarPath, ScalarPath]:
    """Reflect B - B_0 at zero; returns (reflected path, local time).

    The local time is the running compensator -min(0, min_u(B_u - B_0));
    both identities hold exactly in float arithmetic because the reflected
    value at an attained minimum is the same float subtracted from itself.
    """
    w = brownian.values - brownian.values[0]
    floor_ = np.minimum.accumulate(np.minimum(w, 0.0))
    reflected = ScalarPath(grid=brownian.grid, values=w - floor_)
    local = ScalarPath(grid=brownian.grid, values=-floor_)
    return reflected, local


def local_time_band(path: ScalarPath, eps: float) -> float:
    """Occupation-band estimator (1/2 eps) * time spent at or below eps,
    left-endpoint rule over the grid."""
    if eps <= 0.0:
        raise ValueError(f"eps {eps!r} must be > 0")
    count = int(np.count_nonzero(path.values[:-1] <= eps))
    return count * path.grid.dt / (2.0 * eps)


def dyadic_label(u: float, v: float) -> tuple[int, int]:
    """Least dyadic rational strictly inside ]u, v[ at the smallest level,
    as the key (numerator, exponent) of numerator / 2^exponent, reduced.

    Exact integer arithmetic (floats are binary rationals): with u = U/2^E
    and v = V/2^E, the level-(E - j) candidate ((U >> j) + 1) 2^j / 2^E is
    below v exactly when U and V - 1 still differ at or above bit j, so
    the smallest level takes j at their highest differing bit (at most E,
    level 0). A negative u is first shifted by an integer, which labels
    commute with, and an interval one unit wide is refined to 2^-(E+1)
    units so that a lattice point lies strictly inside.

    The program labels through find_excursions, on arrays; this scalar
    form, exact for every pair of floats, is kept as its oracle.
    """
    if not u < v:
        raise EmptyInterval(f"interval ]{u!r}, {v!r}[ is empty")
    nu, du = float(u).as_integer_ratio()
    nv, dv = float(v).as_integer_ratio()
    E = max(du, dv).bit_length() - 1
    U = nu << (E + 1 - du.bit_length())
    V = nv << (E + 1 - dv.bit_length())
    shift = max(0, -(U >> E))
    U += shift << E
    V += shift << E
    if V - U < 2:
        U, V, E = U << 1, V << 1, E + 1
    j = min(E, (U ^ (V - 1)).bit_length() - 1)
    return (U >> j) + 1 - (shift << (E - j)), E - j


def _dyadic_labels(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dyadic_label of every interval ]u[i], v[i][, as (n, 2) int64 rows
    (numerator, exponent), by the level rule: the first level L at which
    floor(u 2^L) + 1 < v 2^L, with that numerator.

    At a level K that every row reaches, floor(u 2^L) and the last integer
    below v 2^L are A >> (K - L) and C >> (K - L), for A = floor(u 2^K)
    and C = ceil(v 2^K) - 1; so, as in dyadic_label, L is K less the
    highest bit at which A and C differ, capped at K. Scaling by 2^K and
    rounding are exact in floats, and the integers below exact while
    |u| and |v| times 2^K stay under 2^53; ValueError outside that domain
    (on a grid k dt of n steps, |A| is about 4n at most).
    """
    labels = np.empty((len(u), 2), dtype=np.int64)
    if not len(u):
        return labels
    if not np.all(u < v):
        raise EmptyInterval("an interval to label is empty")
    # twice the narrowest width's leading power of two is at least one
    # unit of level K, so every row has its label by then
    top = max(0, 2 - int(np.frexp(np.min(v - u))[1]))
    reach = max(np.max(np.abs(u)), np.max(np.abs(v)))
    if not (np.isfinite(reach) and int(np.frexp(reach)[1]) + top <= 53):
        raise ValueError(f"labels at level {top} of |t| up to {reach!r} exceed 2^53")
    low = np.floor(np.ldexp(u, top)).astype(np.int64)
    high = np.ceil(np.ldexp(v, top)).astype(np.int64) - 1
    differ = low ^ high
    # bit length from the float exponent, exact below 2^53; different
    # signs differ above every bit
    drop = np.where(differ < 0, top, np.minimum(top, np.frexp(differ.astype(float))[1] - 1))
    labels[:, 0] = (low >> drop) + 1
    labels[:, 1] = top - drop
    return labels


def categorical(weights, u) -> np.ndarray:
    """Category index of each uniform in u: the count of cumulative weights
    at or below it (searchsorted, side right), the last pinned to 1 against
    rounding. weights is one vector, or one row per uniform."""
    cum = np.cumsum(weights, axis=-1)
    cum[..., -1] = 1.0
    u = np.asarray(u)
    # one comparison per category: a reduction over the short last axis of
    # a (uniforms, categories) array is several times slower
    return sum((cum[..., j] <= u for j in range(cum.shape[-1])), np.int64(0))


def ray_from_uniform(spec: GraphSpec, u) -> np.ndarray:
    """Map uniforms to ray indices with the spec's weights."""
    return categorical(spec.alpha, u) + 1


def find_excursions(off: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds (g, d) and dyadic label of every excursion of a path on the
    grid k*dt, from its boolean mask of points off the junction: a run off
    it after a junction point g, up to the next junction point d or, still
    open, the last index. A run from index 0 is not an excursion.

    off may also hold one path per row; the bounds then index off.ravel(),
    row by row, and each row is labelled on its own grid. Labels come as
    (n, 2) int64 rows (numerator, exponent) from _dyadic_labels, all paths
    in one pass.
    """
    points = off.shape[-1]
    flat = off.ravel()
    # the first point of every excursion: off, after a junction point of
    # its own row (a row's index 0 follows the previous row's last point)
    first = np.flatnonzero(flat[1:] & ~flat[:-1]) + 1
    first = first[first % points != 0]
    # an excursion ends at its row's next junction point, or its last point
    stops = ~flat
    stops[points - 1 :: points] = True
    zeros = np.flatnonzero(stops)
    g = first - 1
    d = zeros[np.searchsorted(zeros, first)]
    return g, d, _dyadic_labels((g % points) * dt, (d % points) * dt)


def wbm_flip_paths(grid: TimeGrid, spec: GraphSpec, streams) -> Iterator[WalshPath]:
    """Walsh paths from the junction via excursion flips of reflected
    drivers, one per stream, yielded in stream order.

    Each driver is B reflected at zero, so every positive run follows a
    junction point and is an excursion that find_excursions labels; its
    ray comes from a categorical draw keyed by the label.

    All drivers are sampled and reflected at the first request; one
    find_excursions call labels the excursions of all of them, and one
    keyed_uniforms call draws their flip uniforms. Each path is assembled
    as it is yielded, and the generator lets go of its drivers then, so a
    path the caller drops is freed before the chunk ends.
    """
    streams = list(streams)
    points = grid.steps + 1
    drivers = []
    off = np.empty((len(streams), points), dtype=bool)
    for stream, row in zip(streams, off):
        brownian = sample_brownian(grid, stream)
        reflected, local = skorokhod_reflection(brownian)
        np.greater(reflected.values, 0.0, out=row)
        drivers.append((brownian, reflected, local))
    g, d, labels = find_excursions(off, grid.dt)
    keys = np.column_stack([np.full(len(g), KEY_RAY_FLIP), labels])
    flips = ray_from_uniform(spec, keyed_uniforms(streams, g // points, keys))
    # points off the junction per excursion: a run still open at the last
    # index holds d itself
    lengths = d - g - 1 + off.ravel()[d]
    ends = np.cumsum(np.bincount(g // points, minlength=len(streams))).tolist()
    end = 0
    drivers.reverse()
    for row, stop in zip(off, ends):
        start, end = end, stop
        brownian, reflected, local = drivers.pop()
        rays = np.full(points, spec.n_rays, dtype=np.int64)
        rays[row] = np.repeat(flips[start:end], lengths[start:end])
        yield WalshPath(
            grid=grid,
            rays=rays,
            radii=reflected.values,
            n_rays=spec.n_rays,
            brownian=brownian.values,
            local_time=local.values,
        )


def wbm_flip_construct(grid: TimeGrid, spec: GraphSpec, stream: RngStream) -> WalshPath:
    """The Walsh path of one stream: wbm_flip_paths of that stream alone.
    The program draws paths in chunks through wbm_flip_paths; this shim
    keeps the one-path form for tests and the benchmark's traced name."""
    (path,) = wbm_flip_paths(grid, spec, [stream])
    return path


def sample_wbm_exact(
    spec: GraphSpec, t: float, replicas: int, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (ray, radius) marginals of the flip construction at time t
    from the origin, from their exact law: the ray has law alpha and,
    independently of it, the radius has the law of sqrt(t)|N|.

    The radius B_t - min_{s<=t} B_s of the reflected Brownian motion has
    the law of |B_t| (Levy's identity), and the excursion straddling t
    takes its ray from a flip drawn independently of B (Walsh 1978; Barlow,
    Pitman and Yor 1989). So P(ray i, radius in dr) = 2 alpha_i phi_t(r) dr,
    the semigroup's decomposition at the origin.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t = {t!r} must be finite and > 0")
    if replicas < 1:
        raise ValueError("need at least one replica")
    gen = stream.child(KEY_EXACT_MARGINAL).generator()
    radii = np.abs(gen.standard_normal(replicas))
    radii *= math.sqrt(t)
    rays = ray_from_uniform(spec, gen.random(replicas))
    rays[radii == 0.0] = spec.n_rays  # measure-zero guard
    return rays, radii


def _uniforms_below(words: np.ndarray, p: float) -> np.ndarray:
    """Which raw Philox words give a uniform below p, as a bool array.

    A uniform is (raw >> 11) / 2^53, so it is below p exactly when raw <
    ceil(p 2^53) 2^11. That threshold is 2^64 at p = 1, outside uint64,
    so that case is every word rather than a comparison.
    """
    units = math.ceil(p * 2.0**53)
    if units >= 2**53:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(units << 11)


def _coin_steps(up: np.ndarray) -> np.ndarray:
    """The +-1 steps of coins given as bits or booleans: bit 1 steps up,
    bit 0 down. Written over up's own buffer, viewed as int8."""
    steps = up.view(np.int8)
    steps *= 2
    steps -= 1
    return steps


# the +-1 steps of the eight bits of every byte, least significant bit first,
# one 8-byte element per byte, so that one take turns bytes into steps
_BYTE_STEPS = (
    _coin_steps(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"))
    .view(np.uint64)
    .ravel()
)


def _word_steps(words: np.ndarray) -> np.ndarray:
    """The +-1 steps of coins packed 64 to a word, as _coin_steps gives
    them: bit j of word i, counted from the least significant bit on every
    machine, is step 64 i + j. (..., n) uint64 words give (..., 64 n) int8."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return _BYTE_STEPS.take(octets).view(np.int8).reshape(*words.shape[:-1], 64 * words.shape[-1])


def _state_dtype(reach: int) -> type:
    """The narrowest of int16, int32 and int64 that holds +-reach; ValueError
    when not even int64 does."""
    for dtype in (np.int16, np.int32, np.int64):
        if reach <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"reach {reach} does not fit an int64 state")


def _skew_step(
    z: np.ndarray,
    junction: np.ndarray | int | None,
    xi: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One step of the skew walk for every state in z.

    A state moves by its Rademacher sign xi, except at the junction, where
    it takes the junction step instead, given per state or once for all
    states. junction is None where there is no junction rule (the flows at
    plus-weight 1/2).
    """
    if junction is None:
        return np.add(z, xi, out=out)
    at_junction = z == 0
    out = np.add(z, xi, out=out)
    np.copyto(out, junction, where=at_junction)
    return out


def scaled_walk_marginal(
    spec: GraphSpec,
    level: int,
    t: float,
    replicas: int,
    stream: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the walk after floor(2^(2n) t) steps, scaled by 2^-n.

    Returns (rays, radii); the origin reports the canonical ray.

    Each step draws one uniform u per replica, random(replicas) of the
    stream: away from the junction the radius steps up when u < 1/2 and
    down otherwise, and at the junction it steps up onto a ray drawn from
    u. Three exact facts make that cheap:

    - the uniform is (raw >> 11) 2^-53 of the step's raw Philox word, so
      the sign is _uniforms_below(words, 1/2), read from random_raw;
    - the junction step is +1 and from 0 both signs land on 1, so the step
      is k <- |k + xi|, an add and an abs on a state of
      _state_dtype(steps);
    - the ray reported is the one drawn at the replica's last departure
      from 0, so only that step's word is kept, and ray_from_uniform runs
      once, on its uniform, after the last step.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t = {t!r} must be finite and >= 0")
    if replicas < 1:
        raise ValueError("need at least one replica")
    steps = int(math.floor((4**level) * t))
    bits = stream.child(KEY_WALK, level).generator().bit_generator
    k = np.zeros(replicas, dtype=_state_dtype(steps))
    departure = np.zeros(replicas, dtype=np.uint64)
    for _ in range(steps):
        words = bits.random_raw(replicas)
        np.copyto(departure, words, where=k == 0)
        k += _coin_steps(_uniforms_below(words, 0.5))  # up below 1/2
        np.abs(k, out=k)
    departure >>= np.uint64(11)
    rays = ray_from_uniform(spec, departure * 2.0**-53)
    rays[k == 0] = spec.n_rays
    return rays, k.astype(float) / float(2**level)


def freidlin_sheu_residual(f: PiecewiseFunction, spec: GraphSpec, path: WalshPath) -> float:
    """Pathwise change-of-variables residual over the whole grid.

    f(Z_T) - f(Z_0) - sum f'(Z)dB - (1/2) sum f''(Z)dt - defect * Ltilde_T
    with left-endpoint sums, the driver Brownian increments, and the
    Skorokhod local time carried by the path. Derivatives at the origin
    follow the canonical-ray convention baked into the path's zero rays.
    """
    return freidlin_sheu_residuals([f], spec, path)[0]


def freidlin_sheu_residuals(
    functions: Sequence[PiecewiseFunction], spec: GraphSpec, path: WalshPath
) -> list[float]:
    """freidlin_sheu_residual of each function on one path, in order.

    The path's ray masks, the radii on each ray and the driver increments
    are worked out once for all the functions. A function whose rays all
    share one component (a radial profile) has its derivatives evaluated
    once on the whole radius array; the others ray by ray, on the rays the
    path visits. Each value is bit for bit the one-function residual's.
    """
    if path.brownian is None or path.local_time is None:
        raise ValueError("path must carry its Brownian driver and local time")
    if path.n_rays != spec.n_rays or any(f.n_rays != spec.n_rays for f in functions):
        raise ValueError("function, path, and spec must agree on the ray count")
    rays, radii = path.rays, path.radii
    # each visited ray's mask and the radii on it
    visited = {}
    for ray in range(1, spec.n_rays + 1):
        mask = rays == ray
        if np.any(mask):
            visited[ray] = (mask, radii[mask])
    increments = np.diff(path.brownian)
    z0 = graph_point(spec, int(rays[0]), float(radii[0]))
    zT = graph_point(spec, int(rays[-1]), float(radii[-1]))
    residuals = []
    for f in functions:
        for ray in visited:
            comp = f.components[ray - 1]
            if comp.deriv is None or comp.second_deriv is None:
                raise ValueError(f"ray {ray} needs both derivative evaluators")
        shared = f.components[0]
        if all(comp is shared for comp in f.components):
            fp = vector_eval(shared.deriv, radii)
            fpp = vector_eval(shared.second_deriv, radii)
        else:
            fp = np.empty(len(radii))
            fpp = np.empty(len(radii))
            for ray, (mask, on_ray) in visited.items():
                comp = f.components[ray - 1]
                fp[mask] = vector_eval(comp.deriv, on_ray)
                fpp[mask] = vector_eval(comp.second_deriv, on_ray)
        ito_sum = float(np.dot(fp[:-1], increments))
        drift_sum = 0.5 * path.grid.dt * float(np.sum(fpp[:-1]))
        defect = flux_defect(f, spec)
        residuals.append(
            f(zT) - f(z0) - ito_sum - drift_sum - defect * float(path.local_time[-1])
        )
    return residuals
