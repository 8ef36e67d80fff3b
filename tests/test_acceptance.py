"""Acceptance checks, one test per criterion, one printed verdict each.

Every test computes its verdict first, prints a single PASS/FAIL line,
then asserts, so the printed record survives a failing run. Seeds are
frozen; each criterion states its tolerance inline.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np

from walshflow.cli import DEFAULT_CONFIG, main, serialize_config
from walshflow.flows import (
    KernelFlow,
    LatticeFlowConfig,
    MeasurePairSampler,
    extract_ray_weights,
    filter_mapping_to_kernel,
    merge_level_samples,
    project_kernel_to_wiener,
    ray_ratios,
    sample_kernel_flow,
    skew_lattice_flow,
    skew_lattice_flows,
    wiener_kernel,
)
from walshflow.graph import (
    GraphPoint,
    PiecewiseFunction,
    bump_family,
    central_difference,
    decay_family,
    slope_family,
    validate_spec,
)
from walshflow.paths import (
    RngStream,
    TimeGrid,
    freidlin_sheu_residual,
    local_time_band,
    sample_brownian,
    sample_wbm_exact,
    scaled_walk_marginal,
    skorokhod_reflection,
    wbm_flip_construct,
)
from walshflow.semigroup import (
    generator_residual,
    semigroup_derivative,
    tabulate_semigroup,
    wbm_semigroup_apply,
)
from walshflow.stats import (
    chi_square_rays,
    folded_gaussian_cdf,
    ks_statistic,
    marginal_vs_semigroup,
    powerlaw_fit_coalescence,
)

SPEC2 = validate_spec((0.7, 0.3), (1, -1))
SPEC3 = validate_spec((0.4, 0.3, 0.3), (1, 1, -1))
SPEC5 = validate_spec((0.3, 0.2, 0.2, 0.15, 0.15), (1, 1, 1, -1, -1))


def _verdict(num: int, name: str, ok: bool, extra: str = "") -> bool:
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    return ok


def _ones(n_rays: int) -> PiecewiseFunction:
    return PiecewiseFunction.radial(
        n_rays, value=lambda h: np.ones_like(np.asarray(h, dtype=float))
    )


def test_01_conservation_and_positivity():
    t_start = time.perf_counter()
    worst = 0.0
    most_negative = 0.0
    radii = (0.0, 0.25, 0.75, 1.5, 3.0)
    times = (0.1, 0.3, 0.8, 1.5, 2.5)
    for spec in (SPEC2, SPEC3, SPEC5):
        ones = _ones(spec.n_rays)
        nonneg = bump_family((1.0,) * spec.n_rays)
        for i, r in enumerate(radii):
            ray = 1 + i % spec.n_rays
            pt = spec.origin if r == 0.0 else GraphPoint(ray=ray, radius=r)
            for t in times:
                worst = max(worst, abs(wbm_semigroup_apply(ones, spec, pt, t) - 1.0))
                most_negative = min(
                    most_negative, wbm_semigroup_apply(nonneg, spec, pt, t)
                )
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-8 and most_negative >= -1e-8 and elapsed < 10.0
    assert _verdict(
        1,
        "semigroup-conservation-positivity",
        ok,
        f"worst={worst:.3g}, min={most_negative:.3g}, {elapsed:.1f}s",
    )


def test_02_semigroup_law():
    t_start = time.perf_counter()
    functions = [
        decay_family((1.0,) * 3),
        bump_family((1.0,) * 3),
        slope_family((0.6, 0.4, 0.2)),
    ]
    eval_points = [
        SPEC3.origin,
        GraphPoint(ray=1, radius=0.4),
        GraphPoint(ray=2, radius=1.1),
        GraphPoint(ray=3, radius=2.2),
    ]
    worst = 0.0
    for fn in functions:
        for s in (0.25, 1.0):
            table = tabulate_semigroup(fn, SPEC3, s, radius_max=13.5)
            for t in (0.25, 1.0):
                for pt in eval_points:
                    direct = wbm_semigroup_apply(fn, SPEC3, pt, s + t)
                    chained = wbm_semigroup_apply(table, SPEC3, pt, t)
                    worst = max(worst, abs(direct - chained))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-5 and elapsed < 60.0
    assert _verdict(2, "semigroup-law", ok, f"worst={worst:.3g}, {elapsed:.1f}s")


def test_03_generator_identity():
    cases = [
        (SPEC3, bump_family((1.0,) * 3)),
        (SPEC3, bump_family((0.5,) * 3)),
        (SPEC3, slope_family((1.5, -1.0, -1.0))),
        (SPEC2, bump_family((1.0,) * 2)),
        (SPEC2, slope_family((3.0, -7.0))),
        (SPEC5, bump_family((1.0,) * 5)),
    ]
    worst = 0.0
    for spec, fn in cases:
        for pt in (spec.origin, GraphPoint(ray=1, radius=0.7)):
            for t in (0.5, 1.0):
                worst = max(worst, abs(generator_residual(fn, spec, pt, t)))
    ok = worst <= 1e-4 and len(cases) >= 5
    assert _verdict(3, "generator-identity", ok, f"worst={worst:.3g}")


def test_04_derivative_identity():
    fn = decay_family((1.0,) * 3)
    worst_rel = 0.0
    radii = (0.2, 0.45, 0.7, 0.95, 1.2, 1.45, 1.7, 1.95, 2.2, 2.45)
    for i, r in enumerate(radii):
        for j, t in enumerate((0.5, 1.0)):
            ray = 1 + (i + j) % 3
            pt = GraphPoint(ray=ray, radius=r)
            analytic = semigroup_derivative(fn, SPEC3, pt, t)
            numeric = central_difference(
                lambda h: wbm_semigroup_apply(fn, SPEC3, GraphPoint(ray=ray, radius=h), t),
                r,
                step=1e-4,
            )
            worst_rel = max(worst_rel, abs(analytic - numeric) / abs(numeric))
    ok = worst_rel <= 1e-5
    assert _verdict(4, "derivative-identity", ok, f"worst_rel={worst_rel:.3g}")


def test_05_flip_construction_vs_semigroup():
    t_start = time.perf_counter()

    # main battery on 1e5 exact junction marginals of the flip construction
    rays, radii = sample_wbm_exact(SPEC3, 1.0, 100000, RngStream(501, (50,)))
    report = marginal_vs_semigroup(SPEC3, 1.0, rays, radii)

    # the pathwise construction's ray law is grid-exact: check it directly
    grid = TimeGrid(dt=2.0**-6, steps=64)
    end_rays = []
    for rep in range(3000):
        path = wbm_flip_construct(grid, SPEC3, RngStream(502, (51, rep)))
        if path.radii[-1] > 0.0:
            end_rays.append(path.rays[-1])
    counts = np.bincount(np.asarray(end_rays), minlength=4)[1:]
    _, chi_p = chi_square_rays(counts, np.asarray(SPEC3.alpha))

    failures = 0
    for seed in range(100):
        m_rays, m_radii = sample_wbm_exact(SPEC3, 1.0, 100000, RngStream(503, (52, seed)))
        if not marginal_vs_semigroup(SPEC3, 1.0, m_rays, m_radii).passed:
            failures += 1
    elapsed = time.perf_counter() - t_start
    ok = report.passed and chi_p > 0.01 and failures <= 4 and elapsed < 120.0
    assert _verdict(
        5,
        "flip-construction-battery",
        ok,
        f"meta_failures={failures}/100, path_chi_p={chi_p:.3f}, {elapsed:.1f}s",
    )


def test_06_walk_convergence():
    cdf = folded_gaussian_cdf(1.0)
    ks_values = []
    for level in (2, 3, 4, 5):
        _, radii = scaled_walk_marginal(SPEC3, level, 1.0, 100000, RngStream(601, (60,)))
        stat, _ = ks_statistic(radii, cdf)
        ks_values.append(stat)
    band_ok = all(b <= 1.10 * a for a, b in zip(ks_values[:-1], ks_values[1:]))
    ok = band_ok and ks_values[-1] < ks_values[0]
    assert _verdict(
        6,
        "walk-convergence",
        ok,
        "ks=" + ", ".join(f"{v:.4f}" for v in ks_values),
    )


def _ito_rms(fn, spec, dt, n_paths, seed):
    grid = TimeGrid(dt=dt, steps=int(round(1.0 / dt)))
    acc = 0.0
    for rep in range(n_paths):
        path = wbm_flip_construct(grid, spec, RngStream(seed, (70, rep)))
        acc += freidlin_sheu_residual(fn, spec, path) ** 2
    return math.sqrt(acc / n_paths)


def test_07_ito_expansion_rate():
    in_domain = bump_family((0.3,) * 3)
    ray_coupled = bump_family((0.25, 0.30, 0.35))
    off_domain = decay_family((0.3,) * 3)  # nonzero flux at the junction
    ok = True
    summary = []
    for idx, fn in enumerate((in_domain, ray_coupled, off_domain)):
        coarse = _ito_rms(fn, SPEC3, 4e-4, 200, 701 + idx)
        fine = _ito_rms(fn, SPEC3, 1e-4, 200, 701 + idx)
        ratio = coarse / fine
        ok = ok and 1.7 <= ratio <= 2.6 and fine <= 5e-3
        summary.append(f"{ratio:.2f}/{fine:.4f}")
    assert _verdict(7, "ito-expansion-rate", ok, "ratio/rms " + "; ".join(summary))


def test_08_local_time_band():
    grid = TimeGrid(dt=1e-4, steps=10000)
    errors = {eps: 0.0 for eps in (0.2, 0.1, 0.05)}
    n_paths = 100
    for rep in range(n_paths):
        brownian = sample_brownian(grid, RngStream(801, (80, rep)))
        reflected, local = skorokhod_reflection(brownian)
        exact = float(local.values[-1])
        for eps in errors:
            errors[eps] += abs(local_time_band(reflected, eps) - exact)
    means = [errors[eps] / n_paths for eps in (0.2, 0.1, 0.05)]
    ok = means[1] <= 1.10 * means[0] and means[2] <= 1.10 * means[1]
    assert _verdict(
        8,
        "local-time-band",
        ok,
        "err=" + ", ".join(f"{v:.4f}" for v in means),
    )


def _invariants_hold(spec, seed):
    level = 3
    dx = 2.0**-level
    dt = 4.0**-level
    plus_ray = 1
    minus_ray = spec.n_rays if spec.p < spec.n_rays else spec.p
    config = LatticeFlowConfig(
        level=level,
        horizon=2.0,
        start_pairs=(
            (0.0, spec.origin),
            (0.0, GraphPoint(ray=plus_ray, radius=4 * dx)),
            (0.0, GraphPoint(ray=minus_ray, radius=2 * dx)),
        ),
    )
    stream = RngStream(seed, (90,))
    ens = skew_lattice_flow(config, spec, stream)

    order = sorted(range(3), key=lambda q: int(ens.traj[q, 0]))
    for a, b in zip(order[:-1], order[1:]):
        if not np.all(ens.traj[a] <= ens.traj[b]):
            return False

    for q in range(1, 3):
        record = ens.merge_record(q)
        if record is None:
            continue
        t = record.merge_index
        if not np.array_equal(ens.traj[q, t:], ens.traj[record.target_index, t:]):
            return False
        if spec.alpha_plus != 0.5 and (
            ens.traj[q, t] != 0 or ens.traj[record.target_index, t] != 0
        ):
            return False

    mid = ens.steps // 4
    value = int(ens.traj[0, mid])
    if value == 0:
        child = spec.origin
    elif value > 0:
        child = GraphPoint(ray=plus_ray, radius=value * dx)
    else:
        child = GraphPoint(ray=spec.n_rays, radius=-value * dx)
    extended = LatticeFlowConfig(
        level=level,
        horizon=2.0,
        start_pairs=config.start_pairs + ((mid * dt, child),),
    )
    ens2 = skew_lattice_flow(extended, spec, stream)
    return bool(
        np.array_equal(ens2.traj[0], ens.traj[0])
        and np.array_equal(ens2.traj[-1, mid:], ens.traj[0, mid:])
    )


def test_09_flow_invariants_exact():
    """Monotone order, permanence, merge at the junction and the flow
    property on 6,000 lattice-flow ensembles. The merge-at-junction clause
    holds by definition: under the junction rule a merge record is a common
    junction visit, so that clause cannot fail; the others can."""
    grid_specs = [
        validate_spec((0.5, 0.5), (1, -1)),
        validate_spec((0.7, 0.3), (1, -1)),
        validate_spec((0.6, 0.4), (1, 1)),
        validate_spec((0.5, 0.3, 0.2), (1, -1, -1)),
        validate_spec((0.4, 0.3, 0.3), (1, 1, -1)),
        validate_spec((0.4, 0.3, 0.3), (1, 1, 1)),
    ]
    checked = 0
    ok = True
    for spec_idx, spec in enumerate(grid_specs):
        for seed in range(1000):
            if not _invariants_hold(spec, 9000 + 1000 * spec_idx + seed):
                ok = False
                break
            checked += 1
        if not ok:
            break
    assert _verdict(9, "flow-invariants-exact", ok, f"{checked} ensembles")


def test_10_coalescence_power_law():
    y = 0.0625  # flow started 2^-4 above the junction
    stream = RngStream(11, (40,))
    levels, censored = merge_level_samples(SPEC2, 6, 4, 65536, 40000, stream)
    arr = np.asarray(levels, dtype=float)
    above = arr[arr > y * (1.0 + 1e-12)]
    fit = powerlaw_fit_coalescence(above, y)
    ok = arr.size >= 10000 and above.size >= 10000 and fit.r_squared >= 0.98
    assert _verdict(
        10,
        "coalescence-power-law",
        ok,
        f"merges={arr.size}, lambda_hat={fit.lambda_hat:.4f}, r2={fit.r_squared:.5f}",
    )


def test_11_kernel_flow_structure():
    config = LatticeFlowConfig(
        level=5, horizon=1.0, start_pairs=((0.0, SPEC3.origin),)
    )
    worst_wiener = 0.0
    for rep in range(20):
        sampler = MeasurePairSampler(SPEC3, "wiener")
        flow = sample_kernel_flow(
            config, SPEC3, sampler, RngStream(1101, (110, rep))
        )
        dx = flow.ensemble.config.dx
        for k in range(0, flow.ensemble.steps + 1, 8):
            measure = flow.kernel_at(0, k)
            z = float(flow.ensemble.traj[0, k]) * dx
            reference = wiener_kernel(SPEC3, SPEC3.origin, z, True)
            if set(measure.points) != set(reference.points):
                worst_wiener = math.inf
                break
            got = dict(zip(measure.points, measure.weights))
            want = dict(zip(reference.points, reference.weights))
            worst_wiener = max(
                worst_wiener, max(abs(got[p] - want[p]) for p in want)
            )

    dirac_ok = True
    for rep in range(20):
        sampler = MeasurePairSampler(SPEC3, "dirac-vertices")
        flow = sample_kernel_flow(
            config, SPEC3, sampler, RngStream(1102, (111, rep))
        )
        for k in range(0, flow.ensemble.steps + 1, 8):
            weights = flow.kernel_at(0, k).weights
            if not (
                math.fsum(weights) == 1.0
                and all(w in (0.0, 1.0) for w in weights)
            ):
                dirac_ok = False
                break
    ok = worst_wiener == 0.0 and dirac_ok
    assert _verdict(
        11, "kernel-flow-structure", ok, f"wiener_dev={worst_wiener:.3g}"
    )


def _kernel_flows(config, spec, sampler, seed, key):
    """sample_kernel_flow on RngStream(seed, (key, rep)) for rep = 0, 1, ...,
    bit for bit; skew_lattice_flows steps 256 replicas at a time."""
    for first in itertools.count(0, 256):
        streams = [RngStream(seed, (key, rep)) for rep in range(first, first + 256)]
        for ens, stream in zip(skew_lattice_flows(config, spec, streams), streams):
            yield KernelFlow(ens, sampler, stream)


def _side_moments(config, spec, sampler, seed, key, side, target_excursions):
    """Sums and squared sums of the weights of side's excursions, replica
    after replica until target_excursions are seen, and their count."""
    total = np.zeros(len(spec.side_rays(side)))
    total_sq = np.zeros(len(total))
    count = 0
    for flow in _kernel_flows(config, spec, sampler, seed, key):
        for excursion_side, _g, _d, weights in extract_ray_weights(flow, 0):
            if excursion_side == side:
                total += weights
                total_sq += weights**2
                count += 1
        if count >= target_excursions:
            return total, total_sq, count


def _moment_z(spec, side, total, total_sq, count):
    mean = total / count
    sd = np.sqrt(np.maximum(total_sq / count - mean**2, 0.0))
    z = np.abs(mean - np.asarray(ray_ratios(spec, side))) / np.maximum(
        sd / math.sqrt(count), 1e-12
    )
    return float(np.max(z))


def _plus_moment_z(spec, measure_name, target_excursions, seed):
    sampler = MeasurePairSampler(spec, measure_name, "wiener")
    config = LatticeFlowConfig(level=5, horizon=1.0, start_pairs=((0.0, spec.origin),))
    total, total_sq, count = _side_moments(
        config, spec, sampler, seed, 120, +1, target_excursions
    )
    return _moment_z(spec, +1, total, total_sq, count), count


def test_12_moment_conditions():
    z_dirichlet, n1 = _plus_moment_z(SPEC3, "dirichlet:4", 100000, 1201)
    z_vertices, n2 = _plus_moment_z(SPEC3, "dirac-vertices", 100000, 1202)

    # minus-side moments on a graph whose minus block has two rays
    spec_minus = validate_spec((0.4, 0.3, 0.3), (1, -1, -1))
    sampler = MeasurePairSampler(spec_minus, "wiener", "dirichlet:4")
    config = LatticeFlowConfig(
        level=5, horizon=1.0, start_pairs=((0.0, spec_minus.origin),)
    )
    z_minus = _moment_z(
        spec_minus, -1, *_side_moments(config, spec_minus, sampler, 1203, 121, -1, 30000)
    )

    proj_sampler = MeasurePairSampler(SPEC3, "dirichlet:4", "dirichlet:4")
    proj_flow = sample_kernel_flow(config, SPEC3, proj_sampler, RngStream(1204, (122,)))
    freq, reference, n_proj = project_kernel_to_wiener(proj_flow, 0, 1, 4000)
    bound = 3.0 * np.sqrt(reference * (1.0 - reference) / n_proj)
    proj_ok = bool(np.all(np.abs(freq - reference) <= np.maximum(bound, 1e-12)))

    z_biased, _ = _plus_moment_z(SPEC3, "uniform-simplex", 2000, 1205)

    ok = (
        z_dirichlet <= 3.0
        and z_vertices <= 3.0
        and z_minus <= 3.0
        and proj_ok
        and z_biased > 3.0
    )
    assert _verdict(
        12,
        "moment-conditions",
        ok,
        f"z=({z_dirichlet:.2f}, {z_vertices:.2f}, {z_minus:.2f}), "
        f"biased_z={z_biased:.1f}, n=({n1}, {n2})",
    )


def test_13_filtering():
    sampler = MeasurePairSampler(SPEC3, "dirichlet:4", "dirichlet:4")
    config = LatticeFlowConfig(level=5, horizon=1.0, start_pairs=((0.0, SPEC3.origin),))
    flow = sample_kernel_flow(config, SPEC3, sampler, RngStream(1301, (130,)))
    excursions = extract_ray_weights(flow, 0)
    picked = {}
    for side, g, _d, _w in excursions:
        if side not in picked:
            picked[side] = g + 1
    ok = True
    worst = 0.0
    for side, k in sorted(picked.items()):
        freq, weights, n = filter_mapping_to_kernel(flow, 0, k, 10000)
        bound = 3.0 * np.sqrt(weights * (1.0 - weights) / n)
        dev = np.abs(freq - weights)
        ok = ok and bool(np.all(dev <= np.maximum(bound, 1e-12)))
        worst = max(worst, float(np.max(dev)))
    assert _verdict(13, "filtering", ok, f"worst_dev={worst:.4f}")


def test_14_special_cases():
    # both rays glued positively: every kernel splits evenly after the
    # junction visit
    tanaka = validate_spec((0.5, 0.5), (1, 1))
    sampler = MeasurePairSampler(tanaka, "wiener")
    config = LatticeFlowConfig(level=5, horizon=1.0, start_pairs=((0.0, tanaka.origin),))
    flow = sample_kernel_flow(config, tanaka, sampler, RngStream(1401, (140,)))
    worst = 0.0
    for k in range(flow.ensemble.steps + 1):
        if int(flow.ensemble.traj[0, k]) != 0:
            weights = flow.kernel_at(0, k).weights
            worst = max(worst, max(abs(w - 0.5) for w in weights))

    # signed scalar marginal at an odd step count: the sign law
    level = 3
    odd_steps = 4**level + 1
    sign_config = LatticeFlowConfig(
        level=level,
        horizon=odd_steps * 4.0**-level,
        start_pairs=((0.0, SPEC2.origin),),
    )
    positive = 0
    n_sign = 2000
    for rep in range(n_sign):
        ens = skew_lattice_flow(sign_config, SPEC2, RngStream(1402, (141, rep)))
        if int(ens.traj[0, odd_steps]) > 0:
            positive += 1
    freq = positive / n_sign
    sigma = math.sqrt(SPEC2.alpha_plus * (1.0 - SPEC2.alpha_plus) / n_sign)
    z = abs(freq - SPEC2.alpha_plus) / sigma
    ok = worst == 0.0 and z <= 3.0
    assert _verdict(
        14, "special-cases", ok, f"split_dev={worst:.3g}, sign_z={z:.2f}"
    )


def test_15_determinism(tmp_path):
    config = replace(
        DEFAULT_CONFIG,
        level=5,
        flow_replicas=120,
        merge_pairs=150,
        root_seed=505,
    )
    ini = tmp_path / "determinism.ini"
    ini.write_text(serialize_config(config), encoding="utf-8")
    outputs = []
    for name, workers in (("serial", "1"), ("pool", "8")):
        out = tmp_path / name
        code = main(
            [
                "flow-experiment",
                "--config",
                str(ini),
                "--out",
                str(out),
                "--workers",
                workers,
            ]
        )
        assert code == 0
        outputs.append(out)
    identical = True
    names = sorted(os.listdir(outputs[0]))
    for artifact in names:
        left = (outputs[0] / artifact).read_bytes()
        right = (outputs[1] / artifact).read_bytes()
        identical = identical and left == right
    ok = identical and len(names) == 3
    assert _verdict(15, "determinism", ok, f"{len(names)} artifacts compared")
