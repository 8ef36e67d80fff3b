import math

import numpy as np
import pytest
from scipy.stats import norm

from walshflow.graph import (
    GraphPoint,
    PiecewiseFunction,
    RayFunction,
    bump_family,
    central_difference,
    decay_family,
    validate_spec,
)
from walshflow.semigroup import (
    NonPositiveTime,
    NotInDomain,
    OriginNotDifferentiable,
    QuadratureDiverged,
    generator_residual,
    halfline_convolution,
    heat_kernel,
    semigroup_derivative,
    tabulate_semigroup,
    wbm_semigroup_apply,
)

SPEC2 = validate_spec((0.5, 0.5), (1, -1))
SPEC2W = validate_spec((0.7, 0.3), (1, -1))
SPEC3 = validate_spec((0.4, 0.3, 0.3), (1, 1, -1))
SPEC5 = validate_spec((0.3, 0.25, 0.2, 0.15, 0.1), (1, 1, 1, -1, -1))


def test_heat_kernel_frozen_values():
    assert heat_kernel(0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert heat_kernel(0.0, 4.0) == pytest.approx(0.19947114020071635, abs=1e-12)
    assert heat_kernel(3.0, 1.0) == pytest.approx(0.0044318484119380075, abs=1e-12)
    with pytest.raises(NonPositiveTime):
        heat_kernel(0.0, 0.0)
    with pytest.raises(NonPositiveTime):
        heat_kernel(1.0, -1.0)


def test_heat_kernel_array():
    ys = np.array([0.0, 3.0])
    got = heat_kernel(ys, 1.0)
    assert got == pytest.approx([0.3989422804014327, 0.0044318484119380075])


def test_halfline_convolution_frozen_values():
    # f == 1: half the Gaussian mass sits on the support when centered at 0
    assert halfline_convolution(lambda y: 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-9)
    # centered at -1: the mass above 0 is Phi(-1)
    assert halfline_convolution(lambda y: 1.0, 1.0, -1.0) == pytest.approx(
        0.15865525393145707, abs=1e-9
    )
    # f(y) = y at 0: the half-normal first moment
    assert halfline_convolution(lambda y: y, 1.0, 0.0) == pytest.approx(
        0.3989422804014327, abs=1e-9
    )


def test_halfline_convolution_window_left_of_support():
    assert halfline_convolution(lambda y: 1.0, 1.0, -20.0) == 0.0


def test_halfline_convolution_diverges():
    with pytest.raises(QuadratureDiverged):
        with np.errstate(over="ignore"):
            halfline_convolution(lambda y: np.exp(np.square(np.asarray(y, dtype=float)) ** 2), 1.0, 0.0)


def exp_profile(n_rays):
    return decay_family((1.0,) * n_rays)


def test_apply_constant_is_one():
    ones = PiecewiseFunction.radial(3, value=lambda h: np.ones_like(np.asarray(h, dtype=float)))
    for pt in (SPEC3.origin, GraphPoint(ray=1, radius=0.5), GraphPoint(ray=3, radius=2.0)):
        assert wbm_semigroup_apply(ones, SPEC3, pt, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_apply_radius_at_origin():
    f = PiecewiseFunction.radial(2, value=lambda h: h)
    got = wbm_semigroup_apply(f, SPEC2, SPEC2.origin, 1.0)
    # E|N(0,1)| = sqrt(2/pi)
    assert got == pytest.approx(0.7978845608028654, abs=1e-9)


def test_apply_ray_indicator_occupancy():
    # occupancy of ray k from (ray 1, h=0.7) at t=0.9 against the closed form
    h, t = 0.7, 0.9
    pt = GraphPoint(ray=1, radius=h)
    for k, expect in ((1, 0.7236420287771373), (2, 0.13817898561143138)):
        indicator = tuple(
            (lambda y: np.ones_like(np.asarray(y, dtype=float)))
            if i == k
            else (lambda y: np.zeros_like(np.asarray(y, dtype=float)))
            for i in range(1, 4)
        )
        got = wbm_semigroup_apply(indicator, SPEC3, pt, t)
        assert got == pytest.approx(expect, abs=1e-8)


def test_apply_occupancy_oracle_grid():
    # same closed form swept over rays, radii, and times
    t = 0.6
    for spec in (SPEC2W, SPEC3):
        for j in range(1, spec.n_rays + 1):
            for h in (0.2, 1.0):
                pt = GraphPoint(ray=j, radius=h)
                for k in range(1, spec.n_rays + 1):
                    indicator = tuple(
                        (lambda y, hit=(i == k): np.full_like(np.asarray(y, dtype=float), 1.0 if hit else 0.0))
                        for i in range(1, spec.n_rays + 1)
                    )
                    want = 2.0 * spec.alpha[k - 1] * norm.cdf(-h / math.sqrt(t))
                    if j == k:
                        want += norm.cdf(h / math.sqrt(t)) - norm.cdf(-h / math.sqrt(t))
                    got = wbm_semigroup_apply(indicator, spec, pt, t)
                    assert got == pytest.approx(want, abs=1e-8)


def test_apply_rejects_bad_time():
    ones = PiecewiseFunction.radial(2, value=lambda h: 1.0)
    with pytest.raises(NonPositiveTime):
        wbm_semigroup_apply(ones, SPEC2, SPEC2.origin, 0.0)


def test_conservation_grid():
    ones = [lambda y: np.ones_like(np.asarray(y, dtype=float))] * 5
    for spec in (SPEC2, SPEC3, SPEC5):
        for t in (0.25, 1.0, 4.0):
            for h in (0.0, 0.5, 1.0, 3.0):
                pt = spec.origin if h == 0.0 else GraphPoint(ray=1, radius=h)
                got = wbm_semigroup_apply(ones[: spec.n_rays], spec, pt, t)
                assert abs(got - 1.0) < 1e-8


def test_positivity():
    f = PiecewiseFunction.radial(3, value=lambda h: np.square(h) * np.exp(-h))
    for h in (0.0, 0.3, 1.5):
        pt = SPEC3.origin if h == 0.0 else GraphPoint(ray=2, radius=h)
        assert wbm_semigroup_apply(f, SPEC3, pt, 0.7) >= -1e-10


def test_derivative_identity_against_finite_difference():
    f = exp_profile(2)
    pt = GraphPoint(ray=1, radius=1.0)
    t = 0.5
    got = semigroup_derivative(f, SPEC2, pt, t)
    step = 1e-4
    fd = (
        wbm_semigroup_apply(f, SPEC2, GraphPoint(ray=1, radius=1.0 + step), t)
        - wbm_semigroup_apply(f, SPEC2, GraphPoint(ray=1, radius=1.0 - step), t)
    ) / (2.0 * step)
    assert got == pytest.approx(fd, rel=1e-5)


def test_derivative_identity_asymmetric_weights():
    f = PiecewiseFunction(
        components=(
            RayFunction(
                value=lambda h: np.exp(-h),
                deriv=lambda h: -np.exp(-h),
            ),
            RayFunction(
                value=lambda h: np.exp(-2.0 * h),
                deriv=lambda h: -2.0 * np.exp(-2.0 * h),
            ),
        )
    )
    pt = GraphPoint(ray=2, radius=0.6)
    t = 0.8
    got = semigroup_derivative(f, SPEC2W, pt, t)
    step = 1e-4
    fd = (
        wbm_semigroup_apply(f, SPEC2W, GraphPoint(ray=2, radius=0.6 + step), t)
        - wbm_semigroup_apply(f, SPEC2W, GraphPoint(ray=2, radius=0.6 - step), t)
    ) / (2.0 * step)
    assert got == pytest.approx(fd, rel=1e-5)


def test_derivative_refuses_origin():
    with pytest.raises(OriginNotDifferentiable):
        semigroup_derivative(exp_profile(2), SPEC2, SPEC2.origin, 1.0)


def quadratic_profile(n_rays):
    return PiecewiseFunction.radial(
        n_rays,
        value=lambda h: np.square(h),
        deriv=lambda h: 2.0 * np.asarray(h, dtype=float),
        second_deriv=lambda h: np.full_like(np.asarray(h, dtype=float), 2.0),
    )


def test_generator_residual_quadratic_at_origin():
    f = quadratic_profile(2)
    res = generator_residual(f, SPEC2, SPEC2.origin, 1.0)
    assert abs(res) < 1e-4
    # and the semigroup value itself is t at the origin
    assert wbm_semigroup_apply(f, SPEC2, SPEC2.origin, 1.0) == pytest.approx(1.0, abs=1e-7)


def test_generator_residual_rejects_flux():
    res_fn = exp_profile(2)  # slope -1 on both rays: defect -1
    with pytest.raises(NotInDomain):
        generator_residual(res_fn, SPEC2, SPEC2.origin, 1.0)


def test_generator_residual_domain_function_off_origin():
    f = bump_family((1.0,) * 3)
    for pt in (SPEC3.origin, GraphPoint(ray=2, radius=0.8)):
        assert abs(generator_residual(f, SPEC3, pt, 0.5)) < 1e-4


def test_semigroup_law_spot_check():
    f = exp_profile(2)
    s, t = 0.25, 0.25
    pt = GraphPoint(ray=1, radius=0.5)
    table = tabulate_semigroup(f, SPEC2, s, radius_max=0.5 + 10.5 * math.sqrt(t))
    lhs = wbm_semigroup_apply(f, SPEC2, pt, s + t)
    rhs = wbm_semigroup_apply(table, SPEC2, pt, t)
    assert lhs == pytest.approx(rhs, abs=1e-5)


def test_tabulate_matches_direct_evaluation():
    f = exp_profile(3)
    table = tabulate_semigroup(f, SPEC3, 0.5)
    for ray, h in ((1, 0.0), (2, 0.7), (3, 2.3)):
        pt = SPEC3.origin if h == 0.0 else GraphPoint(ray=ray, radius=h)
        direct = wbm_semigroup_apply(f, SPEC3, pt, 0.5)
        assert table(pt) == pytest.approx(direct, abs=1e-8)


def test_tabulate_spline_derivative_cross_check():
    f = exp_profile(2)
    table = tabulate_semigroup(f, SPEC2, 0.5)
    comp = table.components[0]
    got = comp.deriv(1.0)
    fd = central_difference(comp.value, 1.0)
    assert got == pytest.approx(fd, rel=1e-6)
