"""Transition semigroup of Walsh Brownian motion, evaluated by quadrature.

Everything reduces to one-dimensional heat-kernel integrals over a single
half-line: for a point at radius h on ray j,

    (P_t f)(h e_j) = 2 sum_i alpha_i (p_t f_i)(-h) + (p_t f_j)(h) - (p_t f_j)(-h)

where (p_t g)(x) = integral_0^inf g(y) phi_t(x - y) dy convolves g, extended
by zero to the negative axis, with the Gaussian kernel phi_t. At the origin
only the weighted sum survives. Quadrature is one fixed rule: composite
Simpson on 2001 nodes (_SPACE_NODES) over the window +-10 sqrt(t) (_WINDOW)
around the Gaussian center, clipped to [0, inf). Semigroup tables hold 400
spline nodes per ray (_TABLE_NODES) out to 12 sqrt(s).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.interpolate import CubicSpline

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


def _simpson(vals: np.ndarray, step: float) -> float:
    weights = np.ones(len(vals))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(step / 3.0 * np.dot(weights, vals))


def halfline_convolution(fn: RayCallable, t: float, x: float) -> float:
    """(p_t fn)(x): convolve fn, supported on [0, inf), with phi_t.

    x may be negative; the Gaussian window is clipped to the support.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"t = {t!r} must be > 0")
    radius = _WINDOW * math.sqrt(t)
    lo = max(0.0, x - radius)
    hi = x + radius
    if hi <= lo:
        return 0.0
    ys = np.linspace(lo, hi, _SPACE_NODES)
    integrand = vector_eval(fn, ys) * heat_kernel(ys - x, t)
    result = _simpson(integrand, (hi - lo) / (_SPACE_NODES - 1))
    if not math.isfinite(result):
        raise QuadratureDiverged(f"non-finite quadrature value at x={x}, t={t}")
    return result


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
    h = point.radius
    shared = math.fsum(
        2.0 * a * halfline_convolution(fn, t, -h)
        for a, fn in zip(spec.alpha, comps)
    )
    if h == 0.0:
        return shared
    own = comps[point.ray - 1]
    return (
        shared
        + halfline_convolution(own, t, h)
        - halfline_convolution(own, t, -h)
    )


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

    Default table reaches 12 sqrt(s) with _TABLE_NODES nodes; pass a larger
    radius_max when the table feeds another semigroup application whose
    quadrature window reaches further (the node count is scaled to keep
    the default spacing). Beyond the table the value is clamped to the
    last node; callers must keep the clamped region under negligible
    Gaussian mass.
    """
    if s <= 0.0:
        raise NonPositiveTime(f"s = {s!r} must be > 0")
    base_radius = 12.0 * math.sqrt(s)
    radius = max(base_radius, radius_max) if radius_max is not None else base_radius
    nodes = _TABLE_NODES
    if radius > base_radius:
        nodes = max(nodes, math.ceil(nodes * radius / base_radius))
    hs = np.linspace(0.0, radius, nodes)

    origin_value = wbm_semigroup_apply(f, spec, spec.origin, s)
    components = []
    for ray in range(1, spec.n_rays + 1):
        vals = np.empty(nodes)
        vals[0] = origin_value
        for k in range(1, nodes):
            point = GraphPoint(ray=ray, radius=float(hs[k]))
            vals[k] = wbm_semigroup_apply(f, spec, point, s)
        spline = CubicSpline(hs, vals, bc_type="not-a-knot")
        components.append(
            RayFunction(
                value=_clamped(spline, radius, float(vals[-1])),
                deriv=_clamped(spline.derivative(1), radius, 0.0),
                second_deriv=_clamped(spline.derivative(2), radius, 0.0),
            )
        )
    return PiecewiseFunction(components=tuple(components))
