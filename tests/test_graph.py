import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walshflow.graph import (
    DerivativeUnavailable,
    GraphPoint,
    NonPositiveWeight,
    PiecewiseFunction,
    RayFunction,
    SignsNotBlockSorted,
    WeightsNotNormalized,
    central_difference,
    flux_defect,
    graph_point,
    in_generator_domain,
    slope_family,
    validate_spec,
    vector_eval,
)


def spec3():
    return validate_spec((0.4, 0.3, 0.3), (1, 1, -1))


def test_validate_spec_accepts_valid():
    s = spec3()
    assert s.n_rays == 3
    assert s.p == 2
    assert math.isclose(s.alpha_plus, 0.7)
    # side_rays splits 1..N in order: the plus block, then the minus block
    for alpha, eps in (
        ((0.7, 0.3), (1, -1)),
        ((0.4, 0.3, 0.3), (1, 1, -1)),
        ((0.3, 0.2, 0.2, 0.15, 0.15), (1, 1, 1, -1, -1)),
        ((0.5, 0.25, 0.25), (1, 1, 1)),
    ):
        spec = validate_spec(alpha, eps)
        plus, minus = spec.side_rays(1), spec.side_rays(-1)
        assert [*plus, *minus] == list(range(1, spec.n_rays + 1))
        assert [spec.sign(r) for r in plus] == [1] * spec.p
        assert [spec.sign(r) for r in minus] == [-1] * (spec.n_rays - spec.p)


def test_validate_spec_degenerate_single_ray():
    s = validate_spec((1.0,), (1,))
    assert s.n_rays == 1
    assert s.p == 1
    assert s.alpha_plus == 1.0
    assert s.side_rays(1) == range(1, 2)
    assert not s.side_rays(-1)


def test_validate_spec_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        validate_spec((0.5, 0.5, 0.0), (1, 1, -1))
    with pytest.raises(NonPositiveWeight):
        validate_spec((1.2, -0.2), (1, -1))


def test_validate_spec_rejects_unnormalized():
    with pytest.raises(WeightsNotNormalized):
        validate_spec((0.5, 0.4), (1, -1))


def test_validate_spec_rejects_unsorted_signs():
    with pytest.raises(SignsNotBlockSorted):
        validate_spec((0.3, 0.3, 0.4), (1, -1, 1))
    with pytest.raises(SignsNotBlockSorted):
        validate_spec((0.5, 0.5), (-1, 1))


def test_origin_canonicalized_to_last_ray():
    s = spec3()
    pt = graph_point(s, 1, 0.0)
    assert pt.ray == 3
    assert pt == s.origin
    assert pt.is_origin


def test_graph_point_validation():
    s = spec3()
    with pytest.raises(ValueError):
        graph_point(s, 4, 1.0)
    with pytest.raises(ValueError):
        GraphPoint(ray=1, radius=-0.5)


def linear_ray(slope):
    return RayFunction(
        value=lambda h, s=slope: s * h,
        deriv=lambda h, s=slope: s,
        second_deriv=lambda h: 0.0,
    )


def test_flux_defect_example():
    # two rays, weights 0.7 / 0.3, slopes +1 / -1 at the junction:
    # 0.7 * 1 + 0.3 * (-1) = 0.4
    s = validate_spec((0.7, 0.3), (1, -1))
    f = PiecewiseFunction(components=(linear_ray(1.0), linear_ray(-1.0)))
    assert flux_defect(f, s) == pytest.approx(0.4, abs=1e-15)
    assert not in_generator_domain(f, s)
    # c_i h e^{-h} has slope c_i at the junction: the defect is sum alpha_i c_i
    spec = spec3()
    for coeffs, want in (((1.5, -1.0, -1.0), 0.0), ((1.0, 1.0, 1.0), 1.0)):
        g = slope_family(coeffs)
        assert flux_defect(g, spec) == pytest.approx(want, abs=1e-15)
        assert in_generator_domain(g, spec) == (want == 0.0)


def test_flux_defect_zero_for_balanced_slopes():
    s = validate_spec((0.7, 0.3), (1, -1))
    # slopes (0.3, -0.7): 0.7*0.3 + 0.3*(-0.7) = 0
    f = PiecewiseFunction(components=(linear_ray(0.3), linear_ray(-0.7)))
    assert abs(flux_defect(f, s)) < 1e-15
    assert in_generator_domain(f, s)


def test_flux_defect_missing_derivative():
    s = validate_spec((0.5, 0.5), (1, -1))
    bad = RayFunction(value=lambda h: h)
    f = PiecewiseFunction(components=(linear_ray(1.0), bad))
    with pytest.raises(DerivativeUnavailable):
        flux_defect(f, s)


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_flux_defect_linearity(s1, s2, c, d):
    spec = validate_spec((0.7, 0.3), (1, -1))
    f = PiecewiseFunction(components=(linear_ray(s1), linear_ray(s2)))
    g = PiecewiseFunction(components=(linear_ray(c * s1 + d), linear_ray(c * s2 + d)))
    # c*f + d*id has slopes c*s_i + d, and the defect is linear in slopes
    want = c * flux_defect(f, spec) + d * (0.7 + 0.3)
    assert flux_defect(g, spec) == pytest.approx(want, abs=1e-12)


def test_junction_continuity_enforced():
    jump = RayFunction(value=lambda h: h + 1.0, deriv=lambda h: 1.0)
    with pytest.raises(ValueError):
        PiecewiseFunction(components=(linear_ray(1.0), jump))


def test_piecewise_evaluation_and_origin_convention():
    s = spec3()
    f = PiecewiseFunction(
        components=(linear_ray(1.0), linear_ray(2.0), linear_ray(3.0))
    )
    assert f(GraphPoint(ray=2, radius=1.5)) == 3.0
    # the origin lives on the last ray
    assert f(s.origin) == 0.0 and s.origin.ray == 3


def test_radial_constructor():
    f = PiecewiseFunction.radial(
        3,
        value=lambda h: math.exp(-h),
        deriv=lambda h: -math.exp(-h),
        second_deriv=lambda h: math.exp(-h),
    )
    assert f.n_rays == 3
    assert f(GraphPoint(ray=2, radius=0.0)) == 1.0


def test_central_difference_cross_check():
    # fallback agrees with the analytic derivative on a smooth profile
    got = central_difference(math.exp, 0.3)
    assert got == pytest.approx(math.exp(0.3), rel=1e-9)
    for comp in slope_family((1.5, -1.0, 0.25)).components:
        for h in (0.1, 0.8, 2.0, 4.5):
            assert comp.deriv(h) == pytest.approx(central_difference(comp.value, h), abs=1e-9)
            assert comp.second_deriv(h) == pytest.approx(
                central_difference(comp.deriv, h), abs=1e-9
            )


def test_vector_eval_one_call_on_the_array():
    xs = np.linspace(0.0, 2.0, 5)
    # a constant returns a 0-d value, which broadcasts to the input's shape
    assert np.array_equal(vector_eval(lambda h: 1.0, xs), np.ones(5))
    assert np.array_equal(vector_eval(np.exp, xs), np.exp(xs))
    # a scalar-only callable fails loudly instead of looping per element
    with pytest.raises(TypeError):
        vector_eval(math.exp, xs)
    with pytest.raises(ValueError):
        vector_eval(lambda h: np.ones(3), xs)
