import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.stats import norm

from walshflow.graph import (
    GraphPoint,
    PiecewiseFunction,
    RayFunction,
    bump_family,
    central_difference,
    decay_family,
    slope_family,
    validate_spec,
    vector_eval,
)
from walshflow.semigroup import (
    _BLOCK_ROWS,
    _SPACE_NODES,
    _WINDOW,
    NonPositiveTime,
    NotInDomain,
    OriginNotDifferentiable,
    QuadratureDiverged,
    _clamped,
    _not_a_knot,
    _piecewise_cubic,
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


def _halfline_closed_form(k: int, t: float, x: float) -> float:
    """The integral over h >= 0 of h^k e^-h phi_t(h - x), for k = 0, 1, 2.

    Completing the square, e^-h phi_t(h - x) = e^(t/2 - x) phi_t(h - m)
    with m = x - t, so the integral is e^(t/2 - x) E[Y^k; Y > 0] for Y
    normal with mean m and variance t: the truncated moments below, in
    Phi and phi at a = m / sqrt(t).
    """
    s = math.sqrt(t)
    m = x - t
    a = m / s
    cdf = 0.5 * math.erfc(-a / math.sqrt(2.0))
    pdf = math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi)
    moment = (cdf, m * cdf + s * pdf, (m * m + t) * cdf + m * s * pdf)[k]
    return math.exp(t / 2.0 - x) * moment


@pytest.mark.parametrize("t", [1 / 16, 0.25, 1.0, 4.0])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("c", [1.0, -2.5])
def test_halfline_convolution_matches_closed_form(c, k, t):
    # the test families c h^k e^-h, as the verdicts convolve them
    fn = (decay_family, slope_family, bump_family)[k]((c,)).components[0].value
    xs = np.linspace(-3.0, 5.0, 8)
    got = halfline_convolution(fn, t, xs)
    for x, value in zip(xs, got):
        # the quadrature is linear in fn, so its error scales with |c|
        assert abs(value - c * _halfline_closed_form(k, t, float(x))) <= 1e-10 * abs(c), x
        assert halfline_convolution(fn, t, float(x)) == value


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


# Oracles: the per-point quadrature as it was before the row kernel, one
# 2001-node Simpson pass per centre and every convolution of the ray
# decomposition recomputed per point and ray. The row kernel and the shared
# components must reproduce them bit for bit.


def _halfline_oracle(fn, t, x):
    radius = _WINDOW * math.sqrt(t)
    lo = max(0.0, x - radius)
    hi = x + radius
    if hi <= lo:
        return 0.0
    ys = np.linspace(lo, hi, _SPACE_NODES)
    integrand = vector_eval(fn, ys) * heat_kernel(ys - x, t)
    weights = np.ones(_SPACE_NODES)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    step = (hi - lo) / (_SPACE_NODES - 1)
    result = float(step / 3.0 * np.dot(weights, integrand))
    if not math.isfinite(result):
        raise QuadratureDiverged(f"non-finite quadrature value at x={x}, t={t}")
    return result


def _apply_oracle(f, spec, point, t):
    comps = [c.value for c in f.components] if isinstance(f, PiecewiseFunction) else list(f)
    h = point.radius
    shared = math.fsum(2.0 * a * _halfline_oracle(fn, t, -h) for a, fn in zip(spec.alpha, comps))
    if h == 0.0:
        return shared
    own = comps[point.ray - 1]
    return shared + _halfline_oracle(own, t, h) - _halfline_oracle(own, t, -h)


def _table_nodes(s, radius_max=None):
    base_radius = 12.0 * math.sqrt(s)
    radius = max(base_radius, radius_max) if radius_max is not None else base_radius
    nodes = 400
    if radius > base_radius:
        nodes = max(nodes, math.ceil(nodes * radius / base_radius))
    return np.linspace(0.0, radius, nodes)


def _tabulate_oracle(f, spec, s, radius_max=None):
    # scipy's CubicSpline is the spline oracle; the package builds its own
    hs = _table_nodes(s, radius_max)
    radius, nodes = float(hs[-1]), len(hs)
    origin_value = _apply_oracle(f, spec, spec.origin, s)
    components = []
    for ray in range(1, spec.n_rays + 1):
        vals = np.empty(nodes)
        vals[0] = origin_value
        for k in range(1, nodes):
            vals[k] = _apply_oracle(f, spec, GraphPoint(ray=ray, radius=float(hs[k])), s)
        spline = CubicSpline(hs, vals, bc_type="not-a-knot")
        components.append(
            RayFunction(
                value=_clamped(spline, radius, float(vals[-1])),
                deriv=_clamped(spline.derivative(1), radius, 0.0),
                second_deriv=_clamped(spline.derivative(2), radius, 0.0),
            )
        )
    return PiecewiseFunction(components=tuple(components))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _centres(t, n):
    """n centres: -radius exactly, 0, +radius, then a sweep from left of the
    support to right of it."""
    radius = _WINDOW * math.sqrt(t)
    sweep = np.linspace(-1.5 * radius, 1.5 * radius + 2.0, max(n - 3, 0))
    return np.concatenate([[-radius, 0.0, radius], sweep])[:n]


_TABLE = tabulate_semigroup(bump_family((1.0, 1.0)), SPEC2, 0.5).components[0].value
_ROW_FUNCTIONS = {
    "bump": bump_family((1.5,)).components[0].value,
    "constant-0d": lambda y: np.array(0.75),
    "python-constant": lambda y: 1.0,
    "spline-table": _TABLE,
}


@pytest.mark.parametrize("t", [1e-4, 0.25, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 1000])
def test_halfline_rows_bit_equal_to_per_point_oracle(t, n):
    xs = _centres(t, n)
    assert xs[0] == -_WINDOW * math.sqrt(t)
    for name, fn in _ROW_FUNCTIONS.items():
        got = halfline_convolution(fn, t, xs)
        assert got.shape == (n,)
        want = [_halfline_oracle(fn, t, float(x)) for x in xs]
        assert _bits(got) == _bits(want), name
        assert _bits([halfline_convolution(fn, t, float(xs[-1]))]) == _bits(want[-1:])
    assert halfline_convolution(fn, t, -_WINDOW * math.sqrt(t)) == 0.0


def test_halfline_empty_and_bad_centres():
    fn = _ROW_FUNCTIONS["bump"]
    assert halfline_convolution(fn, 1.0, np.empty(0)).shape == (0,)
    with pytest.raises(ValueError, match="1-d"):
        halfline_convolution(fn, 1.0, np.zeros((2, 2)))


def test_halfline_nan_centre_or_time_diverges():
    # a NaN window is live, never a silent 0.0
    fn = _ROW_FUNCTIONS["python-constant"]
    with pytest.raises(QuadratureDiverged):
        halfline_convolution(fn, 1.0, math.nan)
    with pytest.raises(QuadratureDiverged):
        halfline_convolution(fn, 1.0, np.array([-30.0, 0.5, math.nan, 30.0]))
    with pytest.raises(QuadratureDiverged):
        halfline_convolution(fn, math.nan, 0.5)
    with pytest.raises(QuadratureDiverged):
        _halfline_oracle(fn, 1.0, math.nan)


def _indicators(n_rays, k):
    return tuple(
        (lambda y, hit=(i == k): np.full_like(np.asarray(y, dtype=float), 1.0 if hit else 0.0))
        for i in range(1, n_rays + 1)
    )


_APPLY_CASES = [
    (SPEC2, bump_family((1.0, 1.0))),
    (SPEC2W, slope_family((0.3, -0.7))),
    (SPEC3, bump_family((0.5, 1.0, 1.5))),
    (SPEC3, PiecewiseFunction.radial(3, value=lambda h: np.exp(-h * h))),
    (SPEC3, _indicators(3, 2)),
    (SPEC3, tabulate_semigroup(bump_family((1.0, 1.0, 2.0)), SPEC3, 0.25, radius_max=13.5)),
    (SPEC5, bump_family((1.0, 1.0, 2.0, 2.0, 0.5))),
    (SPEC5, [lambda y: np.ones_like(np.asarray(y, dtype=float))] * 5),
]


@pytest.mark.parametrize("spec, f", _APPLY_CASES)
def test_apply_bit_equal_to_per_point_oracle(spec, f):
    points = [spec.origin] + [
        GraphPoint(ray=ray, radius=h)
        for ray in (1, spec.n_rays)
        for h in (1e-3, 0.7, 2.3, 15.0)
    ]
    for t in (1e-4, 0.25, 1.0, 4.0):
        for point in points:
            got = wbm_semigroup_apply(f, spec, point, t)
            assert isinstance(got, float)
            assert _bits([got]) == _bits([_apply_oracle(f, spec, point, t)]), (point, t)


_TABLE_CASES = {
    "spec2-equal": (SPEC2, bump_family((1.0, 1.0))),
    "spec3-distinct": (SPEC3, bump_family((0.5, 1.0, 1.5))),
    "spec5-mixed": (SPEC5, slope_family((1.0, 1.0, -2.0, 0.5, 0.5))),
    "spec3-radial": (SPEC3, PiecewiseFunction.radial(3, value=lambda h: np.exp(-h * h))),
}


@pytest.mark.parametrize("radius_max", [None, 13.5])
@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_tabulate_bit_equal_to_per_point_oracle(case, radius_max):
    spec, f = _TABLE_CASES[case]
    got = tabulate_semigroup(f, spec, 1.0, radius_max=radius_max)
    want = _tabulate_oracle(f, spec, 1.0, radius_max=radius_max)
    hs = np.concatenate([np.linspace(0.0, 16.0, 1601), [0.37, 5.3e-3, 12.0, 13.5]])
    for mine, theirs in zip(got.components, want.components):
        for name in ("value", "deriv", "second_deriv"):
            assert _bits(getattr(mine, name)(hs)) == _bits(getattr(theirs, name)(hs)), name
    # rays with the same component share one table
    sharing = [
        [j for j in range(spec.n_rays) if f.components[j] is f.components[i]]
        for i in range(spec.n_rays)
    ]
    for i, same in enumerate(sharing):
        assert [j for j in range(spec.n_rays) if got.components[j] is got.components[i]] == same


# verify-semigroup's tables (s = 0.25 and 1 at radius_max 13.5) and a
# 4,500-node one
_CLI_TABLE_NODES = {0.25: 900, 1.0: 450, 0.01: 4500}


@pytest.mark.parametrize("s", sorted(_CLI_TABLE_NODES))
def test_tabulate_cli_tables_bit_equal_to_per_point_oracle(s):
    f = bump_family((1.0,) * 3)
    hs = _table_nodes(s, 13.5)
    assert len(hs) == _CLI_TABLE_NODES[s] and hs[-1] == 13.5
    (got,) = set(tabulate_semigroup(f, SPEC3, s, radius_max=13.5).components)
    want = _tabulate_oracle(f, SPEC3, s, radius_max=13.5).components[0]
    # every node, every midpoint, the radius exactly, and both sides of the table
    probes = np.concatenate([hs, (hs[:-1] + hs[1:]) / 2, [-0.25, -0.0, 13.5, 14.0, math.nan]])
    for name in ("value", "deriv", "second_deriv"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert _bits(mine(probes)) == _bits(theirs(probes)), name
        assert _bits(mine(probes.reshape(-1, 1))) == _bits(theirs(probes.reshape(-1, 1))), name
        for h in (0.0, 0.7, 13.5, np.float64(2.3), np.array(5.1), math.nan):
            value = mine(h)
            assert isinstance(value, float), (name, h)
            assert _bits([value]) == _bits([theirs(h)]), (name, h)
    assert math.isnan(got.value(math.nan))
    assert got.value(13.5) == got.value(20.0)


_SPLINE_DERIVATIVES = {
    1: np.array([[3.0], [2.0], [1.0]]),
    2: np.array([[6.0], [2.0]]),
}


@pytest.mark.parametrize("n", [4, 5, 400, 4500])
def test_not_a_knot_bit_equal_to_cubic_spline(n):
    rng = np.random.default_rng(n)
    for radius in (1.0, 3.7, 13.5):
        x = np.linspace(0.0, radius, n)
        y = rng.standard_normal(n)
        coeffs = _not_a_knot(x, y)
        oracle = CubicSpline(x, y, bc_type="not-a-knot")
        assert _bits(coeffs) == _bits(oracle.c)
        probes = np.concatenate([x, rng.uniform(-0.5, radius + 0.5, 2000), [math.nan]])
        assert _bits(_piecewise_cubic(x, coeffs)(probes)) == _bits(oracle(probes))
        for order, factor in _SPLINE_DERIVATIVES.items():
            mine = _piecewise_cubic(x, factor * coeffs[: 4 - order])
            assert _bits(mine(probes)) == _bits(oracle.derivative(order)(probes)), order


def test_not_a_knot_refuses_interchange_and_non_finite_values():
    # row 1 pivots on dx0 + dx1 = 2 against dx2 = 8: gtsv would swap rows
    with pytest.raises(ValueError, match="row interchange"):
        _not_a_knot(np.array([0.0, 1.0, 2.0, 10.0, 11.0]), np.arange(5.0))
    x = np.linspace(0.0, 1.0, 6)
    for bad in (math.nan, math.inf, -math.inf):
        y = np.ones(6)
        y[3] = bad
        with pytest.raises(QuadratureDiverged, match="h=0.6"):
            _not_a_knot(x, y)


def test_tabulate_never_returns_a_nan_table():
    nan_far_out = PiecewiseFunction.radial(
        2, value=lambda h: np.where(np.asarray(h) > 5.0, math.nan, 1.0)
    )
    with pytest.raises(QuadratureDiverged):
        tabulate_semigroup(nan_far_out, SPEC2, 1.0)


@pytest.mark.parametrize("radius_max", [math.nan, math.inf, -math.inf])
def test_tabulate_rejects_non_finite_radius_max(radius_max):
    # max(base, nan) was base, a silent default; inf overflowed math.ceil
    with pytest.raises(ValueError, match="radius_max"):
        tabulate_semigroup(bump_family((1.0, 1.0)), SPEC2, 1.0, radius_max=radius_max)


@pytest.mark.parametrize("family", [bump_family, decay_family, slope_family])
def test_families_share_one_component_per_coefficient(family):
    # decay_family needs its coefficients within 1e-9 of each other
    f = family((1.0, 1.0, 1.0 + 1e-12, 1.0))
    first, second, third, fourth = f.components
    assert first is second is fourth and third is not first
    # keyed on exact bits: 0.0 and -0.0 are two coefficients
    zero, minus_zero = family((0.0, -0.0)).components
    assert zero is not minus_zero
    minus, again = family((-0.0, -0.0)).components
    assert minus is again


def test_apply_rejects_ray_beyond_spec():
    f = bump_family((1.0, 1.0))
    for radius in (0.0, 0.5):
        with pytest.raises(ValueError, match="ray 3, spec has 2 rays"):
            wbm_semigroup_apply(f, SPEC2, GraphPoint(ray=3, radius=radius), 1.0)
    with pytest.raises(ValueError, match="ray 4, spec has 3 rays"):
        semigroup_derivative(bump_family((1.0,) * 3), SPEC3, GraphPoint(ray=4, radius=0.5), 1.0)


def test_graph_point_rejects_nan_radius():
    with pytest.raises(ValueError, match="radius"):
        GraphPoint(ray=1, radius=math.nan)
    with pytest.raises(ValueError, match="radius"):
        GraphPoint(ray=1, radius=-1e-300)
    assert GraphPoint(ray=1, radius=0.0).is_origin
