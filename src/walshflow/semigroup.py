"""Transition semigroup of Walsh Brownian motion, evaluated by quadrature.

Everything reduces to one-dimensional heat-kernel integrals over a single
half-line: for a point at radius h on ray j,

    (P_t f)(h e_j) = 2 sum_i alpha_i (p_t f_i)(-h) + (p_t f_j)(h) - (p_t f_j)(-h)

where (p_t g)(x) = integral_0^inf g(y) phi_t(x - y) dy convolves g, extended
by zero to the negative axis, with the Gaussian kernel phi_t. At the origin
only the weighted sum survives. Quadrature is one fixed rule: composite
Simpson on 2001 nodes (_SPACE_NODES) over the window +-10 sqrt(t) (_WINDOW)
around the Gaussian center, clipped to [0, inf).

The decomposition is written once (_ray_decomposition) and convolves each
distinct component, told apart by identity, once per call: (p_t g)(-h)
serves both the junction sum and the own ray's -h term, and rays that share
a component (PiecewiseFunction.radial, or equal coefficients in the
graph.*_family catalogue) share its convolutions. Semigroup tables hold 400
spline nodes per ray (_TABLE_NODES) out to 12 sqrt(s), one table per
distinct component.

The tables are walshflow's own not-a-knot cubic splines (_not_a_knot,
_piecewise_cubic), bit for bit scipy's CubicSpline on the uniform table
nodes: the same tridiagonal system for the node slopes, solved as LAPACK
gtsv solves it with no row interchange, which uniform nodes never need.
scipy.interpolate is not imported.

halfline_convolution takes one centre or a 1-d array of them; a scalar is
the one-row case of the same row kernel. Live windows are integrated in
C-contiguous blocks of at most _BLOCK_ROWS rows and each row keeps its own
np.dot with the Simpson weights, so every value is bit for bit the
one-window pass: a strided block can take another np.exp loop, and a
matrix-vector product another summation order, and both move last bits.
Empty windows are skipped before any work.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from walshflow.graph import (
    DOMAIN_TOL,
    DerivativeUnavailable,
    GraphPoint,
    GraphSpec,
    PiecewiseFunction,
    RayFunction,
    flux_defect,
    in_generator_domain,
    vector_eval,
)

__all__ = [
    "NonPositiveTime",
    "QuadratureDiverged",
    "OriginNotDifferentiable",
    "NotInDomain",
    "heat_kernel",
    "halfline_convolution",
    "wbm_semigroup_apply",
    "semigroup_derivative",
    "generator_residual",
    "tabulate_semigroup",
]


class NonPositiveTime(ValueError):
    """Semigroup evaluation needs t > 0."""


class QuadratureDiverged(ArithmeticError):
    """A quadrature pass produced a non-finite value."""


class OriginNotDifferentiable(ValueError):
    """The radial derivative of P_t f is one-sided per ray at the origin."""


class NotInDomain(ValueError):
    """Generator identity requires a vanishing junction flux defect."""


# half-width, in units of sqrt(t), of halfline_convolution's window
_WINDOW = 10.0
# Simpson nodes (odd) of halfline_convolution's space integral
_SPACE_NODES = 2001
# Simpson nodes (odd) of generator_residual's time integral
_TIME_NODES = 65
# spline nodes per ray of a tabulate_semigroup table reaching 12 sqrt(s)
_TABLE_NODES = 400

RayCallable = Callable[[float], float]
FunctionLike = Union[PiecewiseFunction, Sequence[RayCallable]]


def heat_kernel(y, t: float):
    """Gaussian density phi_t(y) = exp(-y^2 / 2t) / sqrt(2 pi t).

    Accepts scalar or array y. Raises NonPositiveTime for t <= 0.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"t = {t!r} must be > 0")
    y = np.asarray(y, dtype=float)
    out = np.exp(-(y * y) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


def _simpson_weights(n: int) -> np.ndarray:
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights


def _simpson(vals: np.ndarray, step: float) -> float:
    return float(step / 3.0 * np.dot(_simpson_weights(len(vals)), vals))


# the space integral's Simpson weights and node indices, built once
_SPACE_WEIGHTS = _simpson_weights(_SPACE_NODES)
_NODE_INDEX = np.arange(_SPACE_NODES, dtype=float)
# windows per quadrature block: 8 rows of _SPACE_NODES float64 keep each
# temporary near 128 KB. Measured on verify-semigroup (2-core x86-64): 4 and
# 8 rows ran fastest; 16 rows ran slower and raised its peak RSS by 0.9 MB
# more, 64 rows by 5.7 MB more.
_BLOCK_ROWS = 8


def halfline_convolution(fn: RayCallable, t: float, x):
    """(p_t fn)(x): convolve fn, supported on [0, inf), with phi_t.

    x is a scalar (the result is a float) or a 1-d array of centres (the
    result is an array of the same length); it may be negative, and the
    Gaussian window is clipped to the support.

    Each centre gets its own Simpson pass: nodes lo + i step with the last
    node at hi (np.linspace's arithmetic), the integrand on a C-contiguous
    block of rows, and its own np.dot with the weights. An empty window
    (hi <= lo) is 0.0 and costs nothing; a NaN centre or time has a live
    window and ends in QuadratureDiverged.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"t = {t!r} must be > 0")
    centres = np.asarray(x, dtype=float)
    if centres.ndim > 1:
        raise ValueError(f"centres must be a scalar or 1-d, got shape {centres.shape}")
    xs = centres.reshape(-1)
    radius = _WINDOW * math.sqrt(t)
    reach = xs - radius
    lo = np.where(reach > 0.0, reach, 0.0)
    hi = xs + radius
    steps = (hi - lo) / (_SPACE_NODES - 1)
    values = np.zeros(len(xs))
    live = np.flatnonzero(~(hi <= lo))
    for first in range(0, len(live), _BLOCK_ROWS):
        rows = live[first : first + _BLOCK_ROWS]
        nodes = _NODE_INDEX * steps[rows, None]
        nodes += lo[rows, None]
        nodes[:, -1] = hi[rows]
        integrand = vector_eval(fn, nodes) * heat_kernel(nodes - xs[rows, None], t)
        for row, vals in zip(rows.tolist(), integrand):
            values[row] = steps[row] / 3.0 * np.dot(_SPACE_WEIGHTS, vals)
    diverged = np.flatnonzero(~np.isfinite(values))
    if len(diverged):
        x = float(xs[diverged[0]])
        raise QuadratureDiverged(f"non-finite quadrature value at x={x}, t={t}")
    return float(values[0]) if centres.ndim == 0 else values


def _components(f: FunctionLike, n_rays: int) -> list[RayCallable]:
    if isinstance(f, PiecewiseFunction):
        comps = [c.value for c in f.components]
    else:
        comps = list(f)
    if len(comps) != n_rays:
        raise ValueError(f"function has {len(comps)} components, spec has {n_rays} rays")
    return comps


def _deriv_components(f: PiecewiseFunction, n_rays: int, order: int) -> list[RayCallable]:
    comps = []
    for i, c in enumerate(f.components, start=1):
        fn = c.deriv if order == 1 else c.second_deriv
        if fn is None:
            raise DerivativeUnavailable(f"ray {i} has no order-{order} derivative evaluator")
        comps.append(fn)
    if len(comps) != n_rays:
        raise ValueError(f"function has {len(comps)} components, spec has {n_rays} rays")
    return comps


def _check_ray(spec: GraphSpec, point: GraphPoint) -> None:
    if point.ray > spec.n_rays:
        raise ValueError(f"point on ray {point.ray}, spec has {spec.n_rays} rays")


def _ray_decomposition(
    comps: Sequence[RayCallable],
    alpha: Sequence[float],
    t: float,
    hs: np.ndarray,
    owners: Sequence[RayCallable],
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """P_t f at the radii hs, each convolution once per distinct component.

    Returns the junction term 2 sum_i alpha_i (p_t f_i)(-h), which is P_t f
    at the origin where h == 0, and, keyed by id, for every component g in
    owners the value junction term + (p_t g)(h) - (p_t g)(-h) on a ray
    whose component is g (the junction term itself where h == 0).
    Components are told apart by identity.
    """
    distinct = {id(fn): fn for fn in comps}
    owned = {id(fn) for fn in owners}
    n = len(hs)
    inner, outer = {}, {}
    for key, fn in distinct.items():
        centres = np.concatenate([-hs, hs]) if key in owned else -hs
        values = halfline_convolution(fn, t, centres)
        inner[key], outer[key] = values[:n], values[n:]
    terms = 2.0 * np.asarray(alpha)[:, None] * np.array([inner[id(fn)] for fn in comps])
    shared = np.array([math.fsum(column) for column in terms.T.tolist()])
    at_origin = hs == 0.0
    rays = {
        key: np.where(at_origin, shared, shared + outer[key] - inner[key]) for key in owned
    }
    return shared, rays


def wbm_semigroup_apply(
    f: FunctionLike, spec: GraphSpec, point: GraphPoint, t: float
) -> float:
    """Evaluate (P_t f)(point) from the closed-form ray decomposition.

    f is a PiecewiseFunction or a plain sequence of per-ray callables; the
    raw-callable form exists for integrands with a measure-zero junction
    mismatch (ray indicators) that the validated type would reject.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"t = {t!r} must be > 0")
    comps = _components(f, spec.n_rays)
    _check_ray(spec, point)
    h = np.array([point.radius])
    if point.is_origin:
        shared, _ = _ray_decomposition(comps, spec.alpha, t, h, ())
        return float(shared[0])
    own = comps[point.ray - 1]
    _, rays = _ray_decomposition(comps, spec.alpha, t, h, (own,))
    return float(rays[id(own)][0])


def semigroup_derivative(
    f: PiecewiseFunction, spec: GraphSpec, point: GraphPoint, t: float
) -> float:
    """Radial derivative of P_t f away from the origin via the exchange
    identity (P_t f)' = -P_t f' + 2 (p_t f_j')(h) on ray j.

    Needs analytic derivative evaluators on every component. Raises
    OriginNotDifferentiable at radius 0, where only one-sided per-ray
    derivatives exist.
    """
    if point.is_origin:
        raise OriginNotDifferentiable("radial derivative is one-sided at the origin")
    fprime = _deriv_components(f, spec.n_rays, order=1)
    _check_ray(spec, point)
    own = fprime[point.ray - 1]
    return -wbm_semigroup_apply(fprime, spec, point, t) + 2.0 * halfline_convolution(
        own, t, point.radius
    )


def generator_residual(
    f: PiecewiseFunction, spec: GraphSpec, point: GraphPoint, t: float
) -> float:
    """P_t f(x) - f(x) - (1/2) integral_0^t (P_u f'')(x) du.

    Vanishes for functions in the generator domain (NotInDomain
    otherwise). The time integral runs over v = sqrt(u) with composite
    Simpson on _TIME_NODES nodes, because P_u f'' picks up a sqrt(u) term
    at the origin and the substitution makes the integrand smooth there;
    the v=0 endpoint carries weight 2v = 0, so the u -> 0 limit never
    needs evaluating.
    """
    if not in_generator_domain(f, spec):
        raise NotInDomain(
            f"junction flux defect {flux_defect(f, spec)!r} exceeds {DOMAIN_TOL}"
        )
    if t <= 0.0:
        raise NonPositiveTime(f"t = {t!r} must be > 0")
    fpp = _deriv_components(f, spec.n_rays, order=2)

    vmax = math.sqrt(t)
    vs = np.linspace(0.0, vmax, _TIME_NODES)
    vals = np.empty(_TIME_NODES)
    vals[0] = 0.0
    for k in range(1, _TIME_NODES):
        v = vs[k]
        vals[k] = 2.0 * v * wbm_semigroup_apply(fpp, spec, point, v * v)
    time_integral = _simpson(vals, vmax / (_TIME_NODES - 1))

    return wbm_semigroup_apply(f, spec, point, t) - f(point) - 0.5 * time_integral


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients, shape (4, n - 1), of the not-a-knot cubic spline through
    (x, y): on [x_i, x_i+1] it is sum_k c[3 - k, i] (h - x_i)^k.

    Bit for bit scipy's CubicSpline(x, y, bc_type="not-a-knot") for n >= 4:
    the same banded system for the node slopes, solved the way LAPACK gtsv
    solves it when no row is interchanged (forward sweep, then
    back-substitution, the second superdiagonal zero), and
    CubicHermiteSpline's coefficient formulas. The first row has
    |d| == |dl| and every later row of uniform nodes is diagonally dominant,
    so no row needs an interchange; nodes whose row would need one raise
    ValueError. Non-finite values raise QuadratureDiverged.
    """
    n = len(x)
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise QuadratureDiverged(f"non-finite table value at h={float(x[bad[0]])}")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.empty(n)
    du = np.empty(n - 1)
    dl = np.empty(n - 1)
    b = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot at both ends: the third derivative is continuous at x_1
    # and at x_n-2
    width = x[2] - x[0]
    d[0] = dx[1]
    du[0] = width
    b[0] = ((dx[0] + 2 * width) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / width
    width = x[-1] - x[-3]
    d[-1] = dx[-2]
    dl[-1] = width
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * width + dx[-1]) * dx[-2] * slope[-1]) / width

    d, du, dl, b = d.tolist(), du.tolist(), dl.tolist(), b.tolist()
    for i in range(n - 1):
        if not abs(d[i]) >= abs(dl[i]):
            raise ValueError(f"spline row {i} needs a row interchange: nodes are not uniform")
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]

    slopes = np.array(b)
    t = (slopes[:-1] + slopes[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - slopes[:-1]) / dx - t, slopes[:-1], y[:-1]))


def _piecewise_cubic(x: np.ndarray, coeffs: np.ndarray):
    """Evaluate the piecewise polynomial coeffs (highest power first) on the
    breakpoints x with scipy PPoly's arithmetic: interval i with
    x_i <= h < x_i+1, clipped to the first and last, and powers of
    h - x_i built by repeated multiplication, not Horner's rule."""

    def evaluate(h):
        h = np.asarray(h, dtype=float)
        i = np.clip(np.searchsorted(x, h, "right") - 1, 0, len(x) - 2)
        offset = h - x[i]
        out = coeffs[-1][i] + 0.0
        power = offset
        for k in range(len(coeffs) - 2, -1, -1):
            out = out + coeffs[k][i] * power
            if k:
                power = power * offset
        return out

    return evaluate


# a cubic's coefficients times these give its first and second derivative's
_FIRST = np.array([[3.0], [2.0], [1.0]])
_SECOND = np.array([[6.0], [2.0]])


def _clamped(table, radius: float, beyond: float):
    """The table below radius, the constant beyond at and past it."""

    def evaluate(h):
        h = np.asarray(h, dtype=float)
        out = np.where(h >= radius, beyond, table(np.minimum(h, radius)))
        return float(out) if out.ndim == 0 else out

    return evaluate


def tabulate_semigroup(
    f: FunctionLike, spec: GraphSpec, s: float, radius_max: Optional[float] = None
) -> PiecewiseFunction:
    """Tabulate P_s f per ray and wrap cubic splines as a PiecewiseFunction.

    The splines are walshflow's own not-a-knot cubics (_not_a_knot), bit
    for bit scipy's CubicSpline on the uniform table nodes, from a solve
    that takes no row interchange. A non-finite table value raises
    QuadratureDiverged. Rays whose components are the same object share
    one table: the ray decomposition gives them the same values at every
    node.

    Default table reaches 12 sqrt(s) with _TABLE_NODES nodes; pass a larger
    finite radius_max when the table feeds another semigroup application
    whose quadrature window reaches further (the node count is scaled to
    keep the default spacing). Beyond the table the value is clamped to the
    last node; callers must keep the clamped region under negligible
    Gaussian mass.
    """
    if s <= 0.0:
        raise NonPositiveTime(f"s = {s!r} must be > 0")
    if radius_max is not None and not math.isfinite(radius_max):
        raise ValueError(f"radius_max = {radius_max!r} must be finite")
    base_radius = 12.0 * math.sqrt(s)
    radius = max(base_radius, radius_max) if radius_max is not None else base_radius
    nodes = _TABLE_NODES
    if radius > base_radius:
        nodes = max(nodes, math.ceil(nodes * radius / base_radius))
    hs = np.linspace(0.0, radius, nodes)

    comps = _components(f, spec.n_rays)
    _, rays = _ray_decomposition(comps, spec.alpha, s, hs, comps)
    tables = {}
    for key, vals in rays.items():
        coeffs = _not_a_knot(hs, vals)
        tables[key] = RayFunction(
            value=_clamped(_piecewise_cubic(hs, coeffs), radius, float(vals[-1])),
            deriv=_clamped(_piecewise_cubic(hs, _FIRST * coeffs[:3]), radius, 0.0),
            second_deriv=_clamped(_piecewise_cubic(hs, _SECOND * coeffs[:2]), radius, 0.0),
        )
    return PiecewiseFunction(components=tuple(tables[id(fn)] for fn in comps))
