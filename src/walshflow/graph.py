"""Star graph geometry: rays, weights, points, and piecewise test functions.

The state space is a star of N half-lines glued at one origin. Ray i carries
a weight alpha_i > 0 (the weights sum to 1) and a sign eps_i in {+1, -1};
the signs are block sorted so rays 1..p are the plus block and p+1..N the
minus block. The origin is canonically attached to ray N.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "NonPositiveWeight",
    "WeightsNotNormalized",
    "SignsNotBlockSorted",
    "DerivativeUnavailable",
    "WrongRayCount",
    "GraphSpec",
    "GraphPoint",
    "RayFunction",
    "PiecewiseFunction",
    "validate_spec",
    "graph_point",
    "flux_defect",
    "in_generator_domain",
    "central_difference",
    "vector_eval",
    "bump_family",
    "decay_family",
    "slope_family",
]

WEIGHT_SUM_TOL = 1e-12
JUNCTION_TOL = 1e-9
DOMAIN_TOL = 1e-9


class NonPositiveWeight(ValueError):
    """A ray weight is zero or negative."""


class WeightsNotNormalized(ValueError):
    """Ray weights do not sum to 1 within tolerance."""


class SignsNotBlockSorted(ValueError):
    """Ray signs are not arranged as a +1 block followed by a -1 block."""


class DerivativeUnavailable(ValueError):
    """A piecewise function component has no derivative evaluator."""


class WrongRayCount(ValueError):
    """A spec has no rays, or its weights and signs differ in count."""


@dataclass(frozen=True)
class GraphSpec:
    """Immutable description of a star graph: weights and signs per ray.

    Use :func:`validate_spec` to construct one from raw sequences; the
    constructor itself also validates, so an invalid spec cannot exist.
    """

    alpha: tuple[float, ...]
    eps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) < 1:
            raise WrongRayCount("need at least one ray")
        if len(self.eps) != len(self.alpha):
            raise WrongRayCount(
                f"{len(self.alpha)} weights but {len(self.eps)} signs"
            )
        for i, a in enumerate(self.alpha, start=1):
            if not (a > 0.0):
                raise NonPositiveWeight(f"alpha_{i} = {a!r} must be > 0")
        total = math.fsum(self.alpha)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightsNotNormalized(f"weights sum to {total!r}, not 1")
        for s in self.eps:
            if s not in (1, -1):
                raise SignsNotBlockSorted(f"sign {s!r} is not +1 or -1")
        seen_minus = False
        for s in self.eps:
            if s == -1:
                seen_minus = True
            elif seen_minus:
                raise SignsNotBlockSorted(
                    "signs must be all +1 rays first, then all -1 rays"
                )

    @property
    def n_rays(self) -> int:
        return len(self.alpha)

    @property
    def p(self) -> int:
        """Number of plus rays (the leading +1 block)."""
        return sum(1 for s in self.eps if s == 1)

    @property
    def alpha_plus(self) -> float:
        return math.fsum(self.alpha[: self.p])

    def side_rays(self, side: int) -> range:
        """Rays on one side of the junction: the plus block 1..p for side +1,
        the minus block p+1..N for side -1; empty when the side has none."""
        p = self.p
        return range(1, p + 1) if side > 0 else range(p + 1, self.n_rays + 1)

    @property
    def origin(self) -> "GraphPoint":
        return GraphPoint(ray=self.n_rays, radius=0.0)

    def sign(self, ray: int) -> int:
        return self.eps[ray - 1]


def validate_spec(alpha: Sequence[float], eps: Sequence[int]) -> GraphSpec:
    """Build a validated GraphSpec from weight and sign sequences.

    Raises NonPositiveWeight, WeightsNotNormalized, or SignsNotBlockSorted
    with the offending entry spelled out.
    """
    return GraphSpec(alpha=tuple(float(a) for a in alpha), eps=tuple(int(s) for s in eps))


@dataclass(frozen=True)
class GraphPoint:
    """A point of the star graph: ray index (1-based) and radius >= 0
    (NaN is rejected).

    The origin is the unique point with radius 0; construct points through
    :func:`graph_point` so the origin is always canonicalized to ray N.
    """

    ray: int
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
            raise ValueError(f"radius {self.radius!r} must be >= 0")
        if self.ray < 1:
            raise ValueError(f"ray {self.ray!r} must be >= 1")

    @property
    def is_origin(self) -> bool:
        return self.radius == 0.0


def graph_point(spec: GraphSpec, ray: int, radius: float) -> GraphPoint:
    """Construct a point, canonicalizing radius 0 onto ray N."""
    if not 1 <= ray <= spec.n_rays:
        raise ValueError(f"ray {ray} outside 1..{spec.n_rays}")
    radius = float(radius)
    if radius == 0.0:
        return spec.origin
    return GraphPoint(ray=ray, radius=radius)


@dataclass(frozen=True)
class RayFunction:
    """One component of a piecewise function: value on [0, inf) plus
    optional first and second derivative evaluators.

    Each evaluator takes an array of radii and returns an array of the same
    shape; a constant may return a scalar, which broadcasts."""

    value: Callable[[float], float]
    deriv: Optional[Callable[[float], float]] = None
    second_deriv: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class PiecewiseFunction:
    """A function on the star graph given by one RayFunction per ray.

    Components must agree at the junction within 1e-9. Derivative values at
    the origin follow the ray-N convention (the origin lives on ray N).
    """

    components: tuple[RayFunction, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("need at least one component")
        f0 = self.components[0].value(0.0)
        for i, comp in enumerate(self.components[1:], start=2):
            fi = comp.value(0.0)
            if abs(fi - f0) > JUNCTION_TOL:
                raise ValueError(
                    f"component {i} value {fi!r} at the junction differs from "
                    f"component 1 value {f0!r} beyond {JUNCTION_TOL}"
                )

    @property
    def n_rays(self) -> int:
        return len(self.components)

    def __call__(self, point: GraphPoint) -> float:
        return self.components[point.ray - 1].value(point.radius)

    @classmethod
    def radial(
        cls,
        n_rays: int,
        value: Callable[[float], float],
        deriv: Optional[Callable[[float], float]] = None,
        second_deriv: Optional[Callable[[float], float]] = None,
    ) -> "PiecewiseFunction":
        """Same profile on every ray."""
        comp = RayFunction(value=value, deriv=deriv, second_deriv=second_deriv)
        return cls(components=(comp,) * n_rays)


def flux_defect(f: PiecewiseFunction, spec: GraphSpec) -> float:
    """Weighted one-sided derivative sum at the junction:
    sum_i alpha_i * f_i'(0+).

    Zero (within tolerance) characterizes membership in the generator
    domain. Raises DerivativeUnavailable if any component lacks an
    analytic derivative; the central-difference fallback is deliberately
    not substituted here, it exists for cross-checks only.
    """
    if f.n_rays != spec.n_rays:
        raise ValueError(f"function has {f.n_rays} components, spec has {spec.n_rays} rays")
    terms = []
    for i, (a, comp) in enumerate(zip(spec.alpha, f.components), start=1):
        if comp.deriv is None:
            raise DerivativeUnavailable(f"ray {i} has no derivative evaluator")
        terms.append(a * comp.deriv(0.0))
    return math.fsum(terms)


def in_generator_domain(f: PiecewiseFunction, spec: GraphSpec) -> bool:
    """True when the junction flux defect vanishes within DOMAIN_TOL."""
    return abs(flux_defect(f, spec)) <= DOMAIN_TOL


def central_difference(fn: Callable[[float], float], x: float, step: float = 1e-5) -> float:
    """Two-sided difference quotient, for cross-checking analytic
    derivative evaluators. Not a substitute for them."""
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def vector_eval(fn: Callable, xs) -> np.ndarray:
    """Evaluate a per-ray callable once on an array of radii. A 0-d result
    (a constant) broadcasts to the input's shape; any other shape mismatch
    raises ValueError."""
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape == xs.shape:
        return vals
    if vals.ndim == 0:
        return np.full(xs.shape, vals)
    raise ValueError(f"callable returned shape {vals.shape} for radii of shape {xs.shape}")


# Test functions with closed-form derivatives, vectorised with np.exp. The
# order of operations is part of the contract: reports that evaluate them
# are compared byte for byte. Rays with the same coefficient share one
# RayFunction, as PiecewiseFunction.radial's rays do, so the semigroup
# quadrature runs once per distinct coefficient.


def _per_coefficient(
    make: Callable[[float], RayFunction], coeffs: Sequence[float]
) -> PiecewiseFunction:
    """One RayFunction per distinct coefficient, keyed on its exact float
    bits, so that 0.0 and -0.0 stay apart."""
    made: dict[bytes, RayFunction] = {}
    components = []
    for c in coeffs:
        key = struct.pack("<d", c)
        if key not in made:
            made[key] = make(c)
        components.append(made[key])
    return PiecewiseFunction(components=tuple(components))


def bump_family(coeffs: Sequence[float]) -> PiecewiseFunction:
    """c_i h^2 e^{-h} on ray i, with both derivatives. Every slope at the
    junction is 0, so the function is in the generator domain."""

    def bump(c: float) -> RayFunction:
        return RayFunction(
            value=lambda h: c * h * h * np.exp(-h),
            deriv=lambda h: c * (2.0 * h - h * h) * np.exp(-h),
            second_deriv=lambda h: c * (2.0 - 4.0 * h + h * h) * np.exp(-h),
        )

    return _per_coefficient(bump, coeffs)


def decay_family(coeffs: Sequence[float]) -> PiecewiseFunction:
    """c_i e^{-h} on ray i, with both derivatives. Continuity at the
    junction needs equal coefficients; the flux defect is then -c, so the
    function is outside the generator domain."""

    def decay(c: float) -> RayFunction:
        return RayFunction(
            value=lambda h: c * np.exp(-h),
            deriv=lambda h: -c * np.exp(-h),
            second_deriv=lambda h: c * np.exp(-h),
        )

    return _per_coefficient(decay, coeffs)


def slope_family(coeffs: Sequence[float]) -> PiecewiseFunction:
    """c_i h e^{-h} on ray i, with both derivatives. The value at the
    junction is 0 whatever the coefficients; the slope there is c_i, so the
    flux defect is sum_i alpha_i c_i, and the function is in the generator
    domain only when that sum vanishes."""

    def slope(c: float) -> RayFunction:
        return RayFunction(
            value=lambda h: c * h * np.exp(-h),
            deriv=lambda h: c * (1.0 - h) * np.exp(-h),
            second_deriv=lambda h: c * (h - 2.0) * np.exp(-h),
        )

    return _per_coefficient(slope, coeffs)
