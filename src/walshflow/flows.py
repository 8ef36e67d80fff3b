"""Lattice flows with shared noise: scalar trajectories, kernels, mappings.

All trajectories of one ensemble ride the same per-step coins, read from a
KEY_FLOW_COINS stream in blocks of the 64 steps one sign word serves: a
block of b <= 64 steps for m walkers is (b + 1) m words, the m sign words
and then b rows of m junction words. At the block's step s a walker off
the junction steps up when bit s of its sign word is set (bit 0 least
significant), and one at it when its junction word of row s gives a
uniform (word >> 11) 2^-53 below the plus-weight. A replica stream is one
walker; the merge study's unmerged pairs are the walkers of its stream.
Trajectories are integers in lattice units (space 2^-n, time 4^-n); before
a start is born its row holds an integer infinity, mirroring the
convention that a trajectory is undefined ahead of its start time.

Coalescence is the recorded merge event of the kernel construction: the
first index at which two trajectories sit at the junction together (for
plus-weight 1/2 the flow is a pure translation with no junction rule, and
the record is the first plain equality instead). Under the junction rule
two trajectories never first become equal at the junction: off it, distinct
values move by the same sign and stay distinct, and a value at 0 leaves it.
They first become equal off the junction, shared coins keep them equal from
then on, and the record is the first junction visit of the merged path at
or after that equality, so everything after the record is bitwise
identical either way. The record comes at least one step after the
equality, and often many more: at the default graph, level 6 and seed
20240, over 162 records in 60 flow-experiment replicas, the gap ran from 1
to 2,087 steps, with a median of 3, and about half were over one step.
A start's value and junction visits therefore come from its own row; the
copy chain of merges serves only the draw keys. Kernels and mappings key
their draws by the rows of FlowEnsemble.excursions, one table per
trajectory, labelled by paths.find_excursions; a KernelFlow draws their
ray weights into one array per trajectory (MeasurePairSampler.draw, one
call per side), copies a merged start's from its target, and mappings
read that array, keeping nothing of their own.

A replica-batched kernel, _skew_flow_states, steps a (starts, replicas)
integer state through time, each replica on the coins skew_lattice_flow
reads from its stream (_coin_blocks). It has two callers.
skew_lattice_flows copies its blocks into full trajectories, one ensemble
per stream, for the kernel experiment. The flow experiment keeps no
trajectories: after every block it folds the block into running
invariants: monotone order, the flow property, permanence and
merge-at-junction against the merge record, the (0, 1) merge index and
the junction visits before it. Its memory is therefore O(replicas x
(starts x 64 + _SPAN_STEPS / 4)) whatever the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from walshflow.graph import WEIGHT_SUM_TOL, GraphPoint, GraphSpec, graph_point
from walshflow.paths import (
    KEY_FLOW_COINS,
    KEY_KERNEL_CHOICE,
    KEY_MAPPING_CHOICE,
    RngStream,
    _coin_steps,
    _skew_step,
    _state_dtype,
    _uniforms_below,
    _word_steps,
    categorical,
    find_excursions,
)

__all__ = [
    "OffLatticeStart",
    "SamplerInvalid",
    "BeforeHitting",
    "LATTICE_INF",
    "LatticeFlowConfig",
    "KernelMeasure",
    "MeasurePairSampler",
    "FlowEnsemble",
    "CoalescenceRecord",
    "ray_ratios",
    "skew_lattice_flow",
    "skew_lattice_flows",
    "coalescence_time",
    "wiener_kernel",
    "KernelFlow",
    "MappingFlow",
    "sample_kernel_flow",
    "extract_ray_weights",
    "measure_ray_weights",
    "filter_mapping_to_kernel",
    "mapping_rays",
    "project_kernel_to_wiener",
    "flow_property_check",
    "merge_level_samples",
]

LATTICE_INF = np.iinfo(np.int64).max


class OffLatticeStart(ValueError):
    """A start pair is not on the lattice, or start parities are mixed."""


class SamplerInvalid(ValueError):
    """A measure-pair sampler is structurally unusable."""


class BeforeHitting(ValueError):
    """Ray weights requested before the trajectory reached the junction."""


def _block(spec: GraphSpec, side: int) -> slice:
    """Columns of a side's rays in a vector over all rays."""
    rays = spec.side_rays(side)
    return slice(rays.start - 1, rays.stop - 1)


def ray_ratios(spec: GraphSpec, side: int) -> tuple[float, ...]:
    """Normalized ray weights on one side of the junction: alpha_i/alpha+
    over the plus block (side +1) or alpha_j/alpha- over the minus block."""
    if not spec.side_rays(side):
        raise SamplerInvalid(f"no {'plus' if side > 0 else 'minus'} rays")
    alpha = spec.alpha[_block(spec, side)]
    total = math.fsum(alpha)
    return tuple(a / total for a in alpha)


@dataclass(frozen=True)
class LatticeFlowConfig:
    """Lattice level, time horizon, and the ordered starts.

    Order is construction priority: when trajectories merge, the later
    one copies the earlier one. Starts must sit on the lattice (times on
    the 4^-level grid, radii on the 2^-level grid); OffLatticeStart
    otherwise.
    """

    level: int
    horizon: float
    start_pairs: tuple[tuple[float, GraphPoint], ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if not self.start_pairs:
            raise ValueError("need at least one start")
        dt, dx = self.dt, self.dx
        for s, x in self.start_pairs:
            if s < 0.0 or s >= self.horizon:
                raise OffLatticeStart(f"start time {s!r} outside [0, horizon)")
            if abs(s / dt - round(s / dt)) > 1e-9:
                raise OffLatticeStart(f"start time {s!r} is off the 4^-{self.level} grid")
            if abs(x.radius / dx - round(x.radius / dx)) > 1e-9:
                raise OffLatticeStart(
                    f"start radius {x.radius!r} is off the 2^-{self.level} grid"
                )

    @property
    def dx(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def dt(self) -> float:
        return 4.0 ** (-self.level)

    @property
    def steps(self) -> int:
        return int(math.floor(self.horizon / self.dt + 1e-9))

    def signed_starts(self, spec: GraphSpec) -> list[tuple[int, int, int]]:
        """Per start: (time index, signed units, ray), where the signed
        units are eps(ray) times the radius in lattice units, 0 at the
        junction: the scalar value the start's trajectory begins at."""
        out = []
        for s, x in self.start_pairs:
            units = int(round(x.radius / self.dx))
            signed = spec.sign(x.ray) * units if units else 0
            out.append((int(round(s / self.dt)), signed, x.ray))
        return out


@dataclass(frozen=True)
class KernelMeasure:
    """Finitely supported probability measure on the graph."""

    points: tuple[GraphPoint, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.weights) or not self.points:
            raise ValueError("points and weights must be non-empty and aligned")
        for w in self.weights:
            if not w > 0.0:
                raise ValueError(f"weight {w!r} must be > 0")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("atoms must be distinct")

    @classmethod
    def dirac(cls, point: GraphPoint) -> "KernelMeasure":
        return cls(points=(point,), weights=(1.0,))


def measure_ray_weights(measure: KernelMeasure, spec: GraphSpec) -> np.ndarray:
    """Total mass per ray away from the origin, indexed 0..N-1."""
    out = np.zeros(spec.n_rays)
    for pt, w in zip(measure.points, measure.weights):
        if pt.radius > 0.0:
            out[pt.ray - 1] += w
    return out


class MeasurePairSampler:
    """Sampling laws for the per-excursion ray-weight vectors.

    One law on the plus simplex, one on the minus simplex; a valid
    solution needs the normalized ray weights as their mean (biased laws
    can still be built, as statistical negative controls). Named families:

      wiener           point mass at the normalized weights
      dirac-vertices   simplex vertex i with probability ratio_i
      uniform-simplex  flat law on the simplex (mean is uniform, so this
                       is only unbiased when the ratios are themselves
                       uniform; otherwise it serves as a biased control)
      dirichlet:<c>    Dirichlet with concentration c * ratios (mean is
                       the ratios for every c > 0)
      custom-weights:w1,w2,...  point mass at the given vector
    """

    def __init__(self, spec: GraphSpec, plus_name: str, minus_name: Optional[str] = None):
        self.spec = spec
        names = {1: plus_name, -1: plus_name if minus_name is None else minus_name}
        self._laws = {
            side: self._build(name, ray_ratios(spec, side))
            for side, name in names.items()
            if spec.side_rays(side)
        }

    @staticmethod
    def _build(name: str, ratios: tuple[float, ...]) -> tuple[str, np.ndarray]:
        """(kind, vector) of a family: a "point" mass at the vector, a
        "vertex" drawn with the vector's probabilities, or a "dirichlet"
        law with the vector as its concentrations."""
        dim = len(ratios)
        if name == "wiener":
            return "point", np.asarray(ratios)
        if name == "dirac-vertices":
            return "vertex", np.asarray(ratios)
        if name == "uniform-simplex":
            return "dirichlet", np.ones(dim)
        if name.startswith("dirichlet:"):
            try:
                conc = float(name.split(":", 1)[1])
            except ValueError as exc:
                raise SamplerInvalid(f"bad concentration in {name!r}") from exc
            if not 0.0 < conc < math.inf:
                raise SamplerInvalid(f"concentration must be finite and > 0 in {name!r}")
            return "dirichlet", conc * np.asarray(ratios)
        if name.startswith("custom-weights:"):
            try:
                vec = np.array([float(v) for v in name.split(":", 1)[1].split(",")])
            except ValueError as exc:
                raise SamplerInvalid(f"bad weight list in {name!r}") from exc
            if len(vec) != dim:
                raise SamplerInvalid(f"{name!r} has {len(vec)} weights, need {dim}")
            finite = bool(np.all(np.isfinite(vec)))
            if not finite or np.any(vec < 0.0) or abs(math.fsum(vec) - 1.0) > WEIGHT_SUM_TOL:
                raise SamplerInvalid(f"{name!r} is not a probability vector")
            return "point", vec
        raise SamplerInvalid(f"unknown sampler family {name!r}")

    def draw(self, side: int, stream: RngStream, keys) -> np.ndarray:
        """One weight vector on the side's simplex per row of keys, an
        (n, parts) int64 array, as an (n, dim) matrix. Row i depends only
        on stream.child(*keys[i]): a point mass reads no stream (its rows
        are one read-only vector), a vertex is picked by the child's first
        uniform (one stream.uniforms call for all rows), and a Dirichlet
        row takes the child's generator."""
        law = self._laws.get(side)
        if law is None:
            raise SamplerInvalid(
                "no rays on the requested side; the trajectory should never get there"
            )
        kind, vec = law
        keys = np.asarray(keys, dtype=np.int64)
        if kind == "point":
            return np.broadcast_to(vec, (len(keys), len(vec)))
        if kind == "vertex":
            return np.eye(len(vec))[categorical(vec, stream.uniforms(keys))]
        rows = [stream.child(*key).generator().dirichlet(vec) for key in keys.tolist()]
        return np.array(rows).reshape(len(keys), len(vec))


def _choice_keys(indices, key) -> np.ndarray:
    """Int64 key rows (c, *key), one per index c."""
    return np.column_stack([np.asarray(indices), np.tile(key, (len(indices), 1))])


@dataclass(frozen=True)
class CoalescenceRecord:
    """later start q merged into target at the given grid index."""

    start_index: int
    target_index: int
    merge_index: int


class FlowEnsemble:
    """Scalar lattice trajectories driven by one shared coin sequence.

    The ensemble owns the excursions of its trajectories: every kernel and
    mapping view on it keys its draws by a row of excursions(q), the one
    table per trajectory, found through excursion_row, the one index rule.
    The copy chain of merges is followed only there, for the draw keys.
    """

    def __init__(
        self,
        config: LatticeFlowConfig,
        spec: GraphSpec,
        traj: np.ndarray,
        start_meta: list[tuple[int, int, int]],
    ):
        self.config = config
        self.spec = spec
        self.traj = traj  # (n_starts, steps+1) int64, LATTICE_INF before birth
        self.start_meta = start_meta  # (s_index, signed_units, ray)
        self._zero_cache: dict[int, np.ndarray] = {}
        self._merge_cache: dict[int, Optional[CoalescenceRecord]] = {}
        self._excursion_cache: dict[int, np.ndarray] = {}

    @property
    def n_starts(self) -> int:
        return len(self.start_meta)

    @property
    def steps(self) -> int:
        return self.config.steps

    def zeros_of(self, q: int) -> np.ndarray:
        if q not in self._zero_cache:
            self._zero_cache[q] = np.flatnonzero(self.traj[q] == 0)
        return self._zero_cache[q]

    def born_at(self, q: int) -> int:
        return self.start_meta[q][0]

    def excursions(self, q: int) -> np.ndarray:
        """One int64 row per excursion of start q from its first junction
        visit on, in time order: bounds g and d (paths.find_excursions), side
        (the sign on it), then the key of its draws (source start, label
        numerator, label exponent). Rows starting before q's recorded merge
        are q's own; the rest are the merge target's, so each excursion is
        labelled once, keyed by the start down the merge chain that carried
        it when it began.
        """
        if q not in self._excursion_cache:
            record = self.merge_record(q)
            m = self.steps if record is None else record.merge_index
            # at plus-weight 1/2 a start can merge inside its own excursion,
            # which then runs on to its next zero
            off = self.traj[q] != 0
            off[m:] = np.logical_and.accumulate(off[m:])
            g, d, labels = find_excursions(off, self.config.dt)
            side = np.sign(self.traj[q, g + 1])
            table = np.column_stack([g, d, side, np.full(len(g), q), labels])
            if record is not None:
                theirs = self.excursions(record.target_index)
                table = np.concatenate([table, theirs[theirs[:, 0] >= m]])
            self._excursion_cache[q] = table
        return self._excursion_cache[q]

    def excursion_row(self, q: int, k):
        """Row of excursions(q) holding index k (an int or an index array),
        -1 where k is inside no excursion: at the junction, or before q's
        first visit to it. ValueError before q's birth."""
        if np.min(k) < self.born_at(q):
            raise ValueError(f"start {q} is not born at index {np.min(k)}")
        row = np.searchsorted(self.excursions(q)[:, 0], k) - 1
        return np.where(self.traj[q, k] != 0, row, -1)

    def excursion(self, q: int, k: int) -> tuple[tuple[int, int, int], int]:
        """(key, side) of the excursion start q is on at index k, from its
        row of excursions(q). Raises BeforeHitting ahead of the first
        junction visit, ValueError at the junction."""
        row = self.excursion_row(q, k)
        if row < 0 and self.traj[q, k] == 0:
            raise ValueError(f"index {k} is not inside an excursion of start {q}")
        if row < 0:
            raise BeforeHitting(f"start {q} has not visited the junction by index {k}")
        _g, _d, side, *key = self.excursions(q)[row].tolist()
        return tuple(key), side

    def merge_record(self, q: int) -> Optional[CoalescenceRecord]:
        """First recorded coalescence of start q onto any earlier start."""
        if q in self._merge_cache:
            return self._merge_cache[q]
        best: Optional[CoalescenceRecord] = None
        for i in range(q):
            idx = self._first_meeting(i, q)
            if idx is not None and (best is None or idx < best.merge_index):
                best = CoalescenceRecord(start_index=q, target_index=i, merge_index=idx)
        self._merge_cache[q] = best
        return best

    def _first_meeting(self, i: int, q: int) -> Optional[int]:
        born = max(self.born_at(i), self.born_at(q))
        a, b = self.traj[i], self.traj[q]
        if self.spec.alpha_plus == 0.5:
            hits = np.flatnonzero((a[born:] == b[born:]))
        else:
            hits = np.flatnonzero((a[born:] == 0) & (b[born:] == 0))
        return int(hits[0]) + born if len(hits) else None


def skew_lattice_flow(
    config: LatticeFlowConfig, spec: GraphSpec, stream: RngStream
) -> FlowEnsemble:
    """Simulate the shared-coin lattice flow for every configured start.

    The stream is one walker in the blocks of the module docstring, read by
    one bit generator. Each start steps from its birth on the one rule of the
    flow: away from the junction it moves by the shared sign; at the
    junction it steps up exactly when the shared uniform is below the
    plus-weight (always up at weight 1, always down at weight 0, and no
    junction rule at weight 1/2 where the flow is a translation). When the
    plus-weight is not 1/2, all starts must agree on (time index + signed
    units) parity, otherwise order could not be preserved and
    OffLatticeStart is raised.
    """
    steps = config.steps
    signed = _checked_starts(config, spec)
    junction_rule = spec.alpha_plus != 0.5
    gen = stream.child(KEY_FLOW_COINS).generator().bit_generator
    # block i opens with sign word 65 i; step k's junction word is k + k // 64 + 1
    words = gen.random_raw(steps + -(-steps // 64))
    up = _uniforms_below(words, spec.alpha_plus).tolist()
    xi = _word_steps(words[::65, None]).ravel()[:steps].tolist()
    traj = np.full((len(signed), steps + 1), LATTICE_INF, dtype=np.int64)
    for q, (s_idx, z, _ray) in enumerate(signed):
        row = [z]
        for k in range(s_idx, steps):
            if z == 0 and junction_rule:
                z = 1 if up[k + k // 64 + 1] else -1
            else:
                z += xi[k]
            row.append(z)
        traj[q, s_idx:] = row
    return FlowEnsemble(config, spec, traj, signed)


def _checked_starts(config: LatticeFlowConfig, spec: GraphSpec) -> list[tuple[int, int, int]]:
    """config.signed_starts, after the parity check of skew_lattice_flow."""
    signed = config.signed_starts(spec)
    if spec.alpha_plus != 0.5 and len({(s_idx + units) % 2 for s_idx, units, _ in signed}) > 1:
        raise OffLatticeStart("starts mix lattice parities; trajectories could cross")
    return signed


def skew_lattice_flows(
    config: LatticeFlowConfig, spec: GraphSpec, streams: list[RngStream]
) -> list[FlowEnsemble]:
    """skew_lattice_flow of every stream, bit for bit, from one pass of the
    replica-batched kernel _skew_flow_states over all the streams.

    The trajectories of all streams are kept in one (streams, starts,
    steps + 1) int64 array, LATTICE_INF before each birth, and each
    ensemble holds its stream's plane of it.
    """
    signed = _checked_starts(config, spec)
    starts: list[tuple[int, Optional[int]]] = [(s_idx, units) for s_idx, units, _ray in signed]
    traj = np.empty((len(streams), len(starts), config.steps + 1), dtype=np.int64)
    # the kernel yields no block when there are no steps
    traj[:, :, 0] = [units for _birth, units in starts]
    for k0, rows in _skew_flow_states(spec.alpha_plus, config.steps, starts, streams):
        traj[:, :, k0 : k0 + len(rows)] = rows.transpose(2, 1, 0)
    for q, (birth, _units) in enumerate(starts):
        traj[:, q, :birth] = LATTICE_INF
    return [FlowEnsemble(config, spec, plane, signed) for plane in traj]


# time steps of coins one generator call draws per replica stream, kept 64
# to a word; a multiple of 64, so that every span starts a block
_SPAN_STEPS = 2048
# merge_level_samples' blocks for m unmerged pairs are b = min(64, max(1,
# _MERGE_BLOCK_WORDS // m), steps left) steps, so changing this is a stream
# bump of the merge study; a block reads at most max(_MERGE_BLOCK_WORDS, m) +
# m words: about 1 MiB, and 4 MiB at the merge_pairs budget of cli._BOUNDS
_MERGE_BLOCK_WORDS = 2**17


def _coin_blocks(streams: list[RngStream], steps: int, alpha_plus: float):
    """The coins skew_lattice_flow draws from each stream, in time blocks.

    Yields (junction, xi) per block of at most 64 steps, each a (replicas,
    block) int8 array of +-1; junction is None at plus-weight 1/2, where
    the junction words are drawn but not read. One bit generator per stream
    reads _SPAN_STEPS steps of blocks per call, kept as two little-endian
    words per block: the sign word as drawn and the bits of
    _uniforms_below(junction words, a+).
    """
    junction_rule = alpha_plus != 0.5
    gens = [s.child(KEY_FLOW_COINS).generator().bit_generator for s in streams]
    # per stream and block: the sign word, then the packed junction bits
    packed = np.empty((len(streams), _SPAN_STEPS // 64, 2), dtype="<u8")
    for s0 in range(0, steps, _SPAN_STEPS):
        width = min(_SPAN_STEPS, steps - s0)
        blocks = -(-width // 64)
        for row, gen in zip(packed, gens):
            words = gen.random_raw(width + blocks)
            # a row per block; resize pads a short last block with unread words
            words = np.resize(words, (blocks, 65)) if width % 64 else words.reshape(blocks, 65)
            row[:blocks, 0] = words[:, 0]
            if junction_rule:
                up = _uniforms_below(words[:, 1:], alpha_plus)
                row[:blocks, 1] = np.packbits(up, bitorder="little").view("<u8")
        for k0 in range(0, width, 64):
            block = min(64, width - k0)
            coins = _word_steps(packed[:, k0 // 64, : 1 + junction_rule])
            yield (coins[:, 64 : 64 + block] if junction_rule else None), coins[:, :block]


def _skew_flow_states(
    alpha_plus: float,
    steps: int,
    starts: list[tuple[int, Optional[int]]],
    streams: list[RngStream],
):
    """Step every start of every replica on the replica's own coins.

    starts holds (birth index, signed units) per start; units None means
    the start enters at its birth with start 0's value there. Yields
    (k0, rows) per time block, where rows[j, q, r] is start q of replica r
    at index k0 + j for j = 0..width: consecutive blocks share one row.
    rows is a view of a buffer the next block overwrites, and its entries
    ahead of a start's birth mean nothing. States take the narrowest
    integer type that holds every reachable value; memory is as the module
    docstring gives. _flow_experiment_invariants reduces the blocks as they
    come; skew_lattice_flows copies them into whole trajectories.
    """
    dtype = _state_dtype(steps + max(abs(units or 0) for _, units in starts))
    rows = np.zeros((64 + 1, len(starts), len(streams)), dtype=dtype)
    born: dict[int, list[tuple[int, Optional[int]]]] = {}
    for q, (birth, units) in enumerate(starts):
        born.setdefault(birth, []).append((q, units))

    def enter(k: int, row: np.ndarray) -> None:
        for q, units in born[k]:
            row[q] = row[0] if units is None else units

    if 0 in born:
        enter(0, rows[0])
    k0 = 0
    for junction, xi in _coin_blocks(streams, steps, alpha_plus):
        width = xi.shape[1]
        for j in range(width):
            step_up = None if junction is None else junction[:, j]
            _skew_step(rows[j], step_up, xi[:, j], out=rows[j + 1])
            if k0 + j + 1 in born:
                enter(k0 + j + 1, rows[j + 1])
        yield k0, rows[: width + 1]
        rows[0] = rows[width]
        k0 += width


def _flow_invariants(
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


def _first_meetings(meet: np.ndarray, pending: np.ndarray, k0: int):
    """The replicas whose start first meets an earlier start in this block.

    meet[j, i, r] says that in replica r the start meets start i at index
    k0 + j; only pending replicas count. Returns (replicas, targets,
    indices): the earliest meeting of each, the smallest target on ties.
    """
    met = meet.any(axis=0) & pending
    i, r = np.nonzero(met)
    first = np.full(meet.shape[1:], np.iinfo(np.int64).max)
    first[i, r] = meet[:, i, r].argmax(axis=0) + k0
    new = np.flatnonzero(met.any(axis=0))
    targets = first[:, new].argmin(axis=0)
    return new, targets, first[targets, new]


def _flow_experiment_invariants(
    config: LatticeFlowConfig, spec: GraphSpec, streams: list[RngStream]
):
    """The flow-experiment invariants of _flow_invariants, one replica per
    stream: the starts of config plus a flow-property start entering at
    steps // 4, all stepped together on each replica's coins."""
    steps = config.steps
    starts: list[tuple[int, Optional[int]]] = [
        (s_idx, units) for s_idx, units, _ray in config.signed_starts(spec)
    ]
    # the flow-property start sits where start 0 is at mid; signs are
    # block-sorted, so its signed value is start 0's
    starts.append((steps // 4, None))
    blocks = _skew_flow_states(spec.alpha_plus, steps, starts, streams)
    return _flow_invariants(
        blocks,
        [birth for birth, _ in starts],
        [units for _, units in starts],
        spec.alpha_plus != 0.5,
        len(streams),
    )


def coalescence_time(ensemble: FlowEnsemble, i: int, j: int) -> Optional[int]:
    """Recorded coalescence index of two trajectories.

    The same start meets itself at its birth index. When the two never
    meet within the horizon the result is None, which is a report, not a
    failure: at plus-weight 1/2 distinct same-time starts are parallel
    translates and never meet at all.
    """
    if i == j:
        return ensemble.born_at(i)
    lo, hi = (i, j) if i < j else (j, i)
    return ensemble._first_meeting(lo, hi)


def wiener_kernel(
    spec: GraphSpec, start: GraphPoint, z_value: float, hit_junction: bool
) -> KernelMeasure:
    """The noise-measurable kernel: a moving point mass before the
    junction visit; after it, mass splits over one side's rays in
    proportion to their weights, at the current radius.
    """
    radius = abs(z_value)
    if not hit_junction or z_value == 0.0:
        return KernelMeasure.dirac(graph_point(spec, start.ray, radius))
    side = 1 if z_value > 0.0 else -1
    points = tuple(GraphPoint(ray=r, radius=radius) for r in spec.side_rays(side))
    return KernelMeasure(points=points, weights=ray_ratios(spec, side))


class KernelFlow:
    """Kernel trajectories over a scalar ensemble.

    Per excursion of each trajectory one ray-weight vector is drawn from
    the measure pair, keyed by the ensemble's excursion key (start
    priority, excursion label), so the vector is constant across the
    excursion and identical on replay. An excursion begun after a recorded
    coalescence has its merge target's key, so the kernel copies the target's.
    """

    def __init__(
        self,
        ensemble: FlowEnsemble,
        sampler: MeasurePairSampler,
        stream: RngStream,
        draw_index: int = 0,
    ):
        self.ensemble = ensemble
        self.sampler = sampler
        self.stream = stream
        self.draw_index = draw_index
        self._tables: dict[int, np.ndarray] = {}

    def weight_table(self, q: int) -> np.ndarray:
        """(rows, n_rays) ray weights, row i for row i of excursions(q):
        the excursion's vector over its side's rays, 0 on the other side."""
        if q not in self._tables:
            ens = self.ensemble
            rows = ens.excursions(q)
            table = np.zeros((len(rows), ens.spec.n_rays))
            # q's own rows come first, each keyed (q, label)
            mine = np.count_nonzero(rows[:, 3] == q)
            stream = self.stream.child(KEY_KERNEL_CHOICE, self.draw_index, q)
            for side in set(rows[:mine, 2].tolist()):
                drawn = np.flatnonzero(rows[:mine, 2] == side)
                block = _block(ens.spec, side)
                table[drawn, block] = self.sampler.draw(side, stream, rows[drawn, 4:])
            # the rows after the merge are a tail of the target's table
            if mine < len(rows):
                theirs = self.weight_table(ens.merge_record(q).target_index)
                table[mine:] = theirs[len(theirs) - (len(rows) - mine) :]
            self._tables[q] = table
        return self._tables[q]

    def excursion_weights(self, q: int, k: int) -> np.ndarray:
        """Ray weights, over its side's block, of the excursion start q is
        on at index k: its row of weight_table(q)."""
        _key, side = self.ensemble.excursion(q, k)
        row = int(self.ensemble.excursion_row(q, k))
        return self.weight_table(q)[row, _block(self.ensemble.spec, side)]

    def kernel_at(self, q: int, k: int) -> KernelMeasure:
        ens = self.ensemble
        z = int(ens.traj[q, k])
        radius = abs(z) * ens.config.dx
        if ens.excursion_row(q, k) < 0:
            return KernelMeasure.dirac(graph_point(ens.spec, ens.start_meta[q][2], radius))
        rays = ens.spec.side_rays(1 if z > 0 else -1)
        points = []
        masses = []
        for ray, w in zip(rays, self.excursion_weights(q, k)):
            if w > 0.0:
                points.append(GraphPoint(ray=ray, radius=radius))
                masses.append(float(w))
        return KernelMeasure(points=tuple(points), weights=tuple(masses))


class MappingFlow:
    """Point trajectories refining a kernel flow: per excursion one ray is
    drawn from the excursion's weight vector, so conditionally on the
    kernel the point sits on ray i with probability equal to its mass."""

    def __init__(self, kernel_flow: KernelFlow, choice_index: int = 0):
        self.kernels = kernel_flow
        self.choice_index = choice_index
        self._rays: dict[int, np.ndarray] = {}

    def ray_table(self, q: int) -> np.ndarray:
        """The ray picked on each row of excursions(q), as mapping_rays
        picks it: one choice uniform per row, keyed (choice index, *row
        key) and drawn in one call, put through the row's weights over its
        side's block of weight_table(q)."""
        if q not in self._rays:
            ens = self.kernels.ensemble
            rows = ens.excursions(q)
            table = self.kernels.weight_table(q)
            keys = np.column_stack([np.full(len(rows), self.choice_index), rows[:, 3:]])
            u = self.kernels.stream.child(KEY_MAPPING_CHOICE).uniforms(keys)
            rays = np.empty(len(rows), dtype=np.int64)
            for side in set(rows[:, 2].tolist()):
                on = rows[:, 2] == side
                weights = table[on, _block(ens.spec, side)]
                rays[on] = ens.spec.side_rays(side).start + categorical(weights, u[on])
            self._rays[q] = rays
        return self._rays[q]

    def _excursion_ray(self, q: int, k: int) -> int:
        return int(self.ray_table(q)[self.kernels.ensemble.excursion_row(q, k)])

    def point_at(self, q: int, k: int) -> GraphPoint:
        ens = self.kernels.ensemble
        radius = abs(int(ens.traj[q, k])) * ens.config.dx
        if ens.excursion_row(q, k) < 0:
            return graph_point(ens.spec, ens.start_meta[q][2], radius)
        return GraphPoint(ray=self._excursion_ray(q, k), radius=radius)


def mapping_rays(
    flow: KernelFlow,
    start_index: int,
    k: int,
    choice_indices,
    redraw: bool = False,
) -> np.ndarray:
    """The ray a mapping flow with choice index c picks at (start_index, k),
    for every choice index c, from one bulk draw of the choice uniforms:
    the draw behind filtering and Wiener projection, and for one choice
    index the row of MappingFlow.ray_table. With redraw, choice c picks
    from the excursion's weights at draw index c.

    Index k must lie inside an excursion after the junction visit.
    """
    ens = flow.ensemble
    key, side = ens.excursion(start_index, k)
    keys = _choice_keys(choice_indices, key)
    if redraw:
        weights = flow.sampler.draw(side, flow.stream.child(KEY_KERNEL_CHOICE), keys)
    else:
        weights = flow.excursion_weights(start_index, k)
    u = flow.stream.child(KEY_MAPPING_CHOICE).uniforms(keys)
    return ens.spec.side_rays(side).start + categorical(weights, u)


def sample_kernel_flow(
    config: LatticeFlowConfig,
    spec: GraphSpec,
    sampler: MeasurePairSampler,
    stream: RngStream,
) -> KernelFlow:
    """Kernel flow over a fresh scalar ensemble on the stream's coins."""
    if sampler.spec is not spec and sampler.spec != spec:
        raise SamplerInvalid("sampler was built for a different graph")
    return KernelFlow(skew_lattice_flow(config, spec, stream), sampler, stream)


def extract_ray_weights(
    flow: KernelFlow, start_index: int
) -> list[tuple[int, int, int, np.ndarray]]:
    """The rows of FlowEnsemble.excursions(start_index) with their weights:
    (side, start index, end index, ray weights over that side's block).

    Raises BeforeHitting when the trajectory never reaches the junction.
    """
    ens = flow.ensemble
    if not len(ens.zeros_of(start_index)):
        raise BeforeHitting(f"start {start_index} never reaches the junction")
    table = flow.weight_table(start_index)
    blocks = {side: _block(ens.spec, side) for side in (1, -1)}
    return [
        (side, g, d, weights[blocks[side]])
        for (g, d, side, *_key), weights in zip(ens.excursions(start_index).tolist(), table)
    ]


def filter_mapping_to_kernel(
    flow: KernelFlow,
    start_index: int,
    k: int,
    replicas: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Conditional check: with coins and weight draws fixed, redraw the
    point choice many times; the ray frequencies over replicas should
    match the excursion's weight vector to binomial accuracy.

    Returns (frequencies, weight vector, replica count); the caller
    compares them at 3 sqrt(w(1-w)/replicas). ValueError for replicas < 1.
    """
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    _key, side = flow.ensemble.excursion(start_index, k)
    weights = flow.excursion_weights(start_index, k)
    first = flow.ensemble.spec.side_rays(side).start
    rays = mapping_rays(flow, start_index, k, range(replicas)) - first
    return np.bincount(rays, minlength=len(weights)) / replicas, weights, replicas


def project_kernel_to_wiener(
    flow: KernelFlow,
    start_index: int,
    k: int,
    replicas: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Average the kernel's ray-weight vectors over draw indices 0 to
    replicas - 1 with the coins fixed; for an unbiased sampler the average
    converges to the noise-measurable kernel's weights (biased samplers
    are the negative control and drift away).

    Returns (mean ray weights over all rays, reference weights, count).
    ValueError for replicas < 1.
    """
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    ens, spec = flow.ensemble, flow.ensemble.spec
    signed = float(ens.traj[start_index, k]) * ens.config.dx
    start = graph_point(spec, ens.start_meta[start_index][2], abs(signed))
    hit = bool(ens.excursion_row(start_index, k) >= 0)
    reference = measure_ray_weights(wiener_kernel(spec, start, signed, hit), spec)
    if not hit:
        # no excursion, no draw: every replica has the same point mass
        return measure_ray_weights(flow.kernel_at(start_index, k), spec), reference, replicas
    key, side = ens.excursion(start_index, k)
    draws = flow.sampler.draw(
        side, flow.stream.child(KEY_KERNEL_CHOICE), _choice_keys(range(replicas), key)
    )
    mean = np.zeros(spec.n_rays)
    mean[_block(spec, side)] = draws.mean(axis=0)
    return mean, reference, replicas


def flow_property_check(
    config: LatticeFlowConfig,
    spec: GraphSpec,
    sampler: MeasurePairSampler,
    stream: RngStream,
    parent_index: int,
    mid_index: int,
    final_index: int,
) -> tuple[float, KernelMeasure, KernelMeasure]:
    """Compose the parent kernel at an intermediate time with kernels
    started from its atoms, and compare against the one-shot kernel.

    Intermediate starts are appended to the configuration when absent.
    Appending never changes earlier trajectories or their draws: coins
    are shared and draw keys use start priority, which appending preserves.

    Returns (max atom-weight discrepancy, composed measure, direct
    measure); atom supports must match exactly for the discrepancy to be
    finite, and weight discrepancies come only from float resummation.
    """
    flow = sample_kernel_flow(config, spec, sampler, stream)
    ens = flow.ensemble
    if not (ens.born_at(parent_index) <= mid_index < final_index <= ens.steps):
        raise ValueError("need birth <= mid < final <= horizon")
    mid_measure = flow.kernel_at(parent_index, mid_index)

    mid_time = mid_index * config.dt
    existing = {(s, x): idx for idx, (s, x) in enumerate(config.start_pairs)}
    needed = tuple(
        (mid_time, pt) for pt in mid_measure.points if (mid_time, pt) not in existing
    )
    if needed:
        config = LatticeFlowConfig(
            level=config.level,
            horizon=config.horizon,
            start_pairs=config.start_pairs + needed,
        )
        flow = sample_kernel_flow(config, spec, sampler, stream)
        ens = flow.ensemble
        existing = {(s, x): idx for idx, (s, x) in enumerate(config.start_pairs)}

    combined: dict[GraphPoint, float] = {}
    for pt, w in zip(mid_measure.points, mid_measure.weights):
        child = existing[(mid_time, pt)]
        child_measure = flow.kernel_at(child, final_index)
        for cpt, cw in zip(child_measure.points, child_measure.weights):
            combined[cpt] = combined.get(cpt, 0.0) + w * cw

    direct = flow.kernel_at(parent_index, final_index)
    direct_map = dict(zip(direct.points, direct.weights))
    if set(combined) != set(direct_map):
        return math.inf, _measure_from_map(combined), direct
    disc = max(abs(combined[pt] - direct_map[pt]) for pt in direct_map)
    return disc, _measure_from_map(combined), direct


def _measure_from_map(mapping: dict[GraphPoint, float]) -> KernelMeasure:
    pts = tuple(mapping.keys())
    ws = np.array([mapping[p] for p in pts])
    ws = ws / ws.sum()
    return KernelMeasure(points=pts, weights=tuple(float(w) for w in ws))


def _merge_level(y_units: int, dx: float, alpha_plus: float, visits):
    """Level of a merge: y + (2 a+ - 1) dx * (junction visits of the upper
    trajectory before it), for a scalar or an array of visit counts."""
    return y_units * dx + (2.0 * alpha_plus - 1.0) * dx * visits


def merge_level_samples(
    spec: GraphSpec,
    level: int,
    y_units: int,
    horizon_steps: int,
    n_pairs: int,
    stream: RngStream,
) -> tuple[np.ndarray, int]:
    """Coalescence levels for pairs started at the junction and at
    +y_units, all pairs drawing from the one KEY_FLOW_COINS stream.

    The level of a merge is y + (2 a+ - 1) dx * (junction visits of the
    upper trajectory before the merge): the lattice local time the upper
    trajectory accumulated, measured on the skew scale, which is always
    >= y. Returns (levels of the merged pairs in pair order, number
    censored at the horizon).

    Draw layout: the blocks of the module docstring, of the length the
    _MERGE_BLOCK_WORDS comment gives, read as (b + 1, m) arrays; the
    walkers are the m pairs unmerged at the block's start, ranked by index,
    and both walks of a pair read its words. So one pair reads a replica
    stream, as skew_lattice_flow's starts at 0 and +y_units do. A pair
    merges at the first step after which both its walks sit at 0. Its
    level counts the upper walk's junction visits up to and including
    that step, and the coins it reads after it in the block go unused.
    Merged pairs leave at the end of the block. Memory is
    O(max(_MERGE_BLOCK_WORDS, n_pairs)) bytes whatever the horizon.
    """
    if y_units <= 0 or y_units % 2 != 0:
        raise OffLatticeStart("upper start must be a positive even number of units")
    ap = spec.alpha_plus
    if not 0.5 < ap < 1.0:
        raise ValueError("merge-level law needs a plus-weight strictly between 1/2 and 1")
    gen = stream.child(KEY_FLOW_COINS).generator().bit_generator
    # both walks of every unmerged pair, the upper walk's junction visits
    # and the pair's index, in rank order
    z = np.zeros((2, n_pairs), dtype=_state_dtype(horizon_steps + y_units))
    z[1] = y_units
    visits = np.zeros(n_pairs, dtype=np.int64)
    pair = np.arange(n_pairs)
    merged_visits = np.full(n_pairs, -1, dtype=np.int64)
    done = 0
    while len(pair) and done < horizon_steps:
        m = len(pair)
        b = min(64, max(1, _MERGE_BLOCK_WORDS // m), horizon_steps - done)
        # the block's words live only until they are coins
        words = gen.random_raw((b + 1, m))
        xi = _word_steps(words[0, :, None])[:, :b].T
        junction = _coin_steps(_uniforms_below(words[1:], ap))
        states = np.empty((b + 1, 2, m), dtype=z.dtype)
        states[0] = z
        for s in range(b):
            _skew_step(states[s], junction[s], xi[s], out=states[s + 1])
        done += b

        apart = np.logical_or(states[1:, 0], states[1:, 1])
        left = apart.all(axis=0)
        merged = np.flatnonzero(~left)
        # the upper walk's visits up to each pair's first merge, or the block's end
        counted = states[:-1, 1] == 0
        counted[:, merged] &= np.arange(b)[:, None] <= apart[:, merged].argmin(axis=0)
        visits += np.count_nonzero(counted, axis=0)
        z = states[b]
        if len(merged):
            merged_visits[pair[merged]] = visits[merged]
            pair, visits, z = pair[left], visits[left], z[:, left]

    levels = _merge_level(y_units, 2.0 ** (-level), ap, merged_visits[merged_visits >= 0])
    return levels, len(pair)
