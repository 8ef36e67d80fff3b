"""Lattice flow tests: shared-coin dynamics, kernels, mappings, merges."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshflow import flows
from walshflow import paths as paths_module
from walshflow.flows import (
    LATTICE_INF,
    BeforeHitting,
    FlowEnsemble,
    KernelFlow,
    KernelMeasure,
    LatticeFlowConfig,
    MappingFlow,
    MeasurePairSampler,
    OffLatticeStart,
    SamplerInvalid,
    coalescence_time,
    extract_ray_weights,
    filter_mapping_to_kernel,
    flow_property_check,
    mapping_rays,
    measure_ray_weights,
    merge_level_samples,
    project_kernel_to_wiener,
    ray_ratios,
    sample_kernel_flow,
    skew_lattice_flow,
    wiener_kernel,
)
from walshflow.graph import GraphPoint, validate_spec
from walshflow.paths import (
    KEY_FLOW_COINS,
    KEY_KERNEL_CHOICE,
    KEY_MAPPING_CHOICE,
    RngStream,
    _skew_step,
    categorical,
    dyadic_label,
)

SPEC2 = validate_spec((0.7, 0.3), (1, -1))
SPEC2H = validate_spec((0.5, 0.5), (1, -1))
SPEC3 = validate_spec((0.4, 0.3, 0.3), (1, 1, -1))
TANAKA3 = validate_spec((0.5, 0.25, 0.25), (1, 1, 1))
DOWN2 = validate_spec((0.6, 0.4), (-1, -1))
HALF3 = validate_spec((0.25, 0.25, 0.5), (1, 1, -1))

ALL_SPECS = [SPEC2, SPEC2H, SPEC3, TANAKA3, DOWN2, HALF3]


def _naive_flow(spec, config, stream):
    """Step-by-step reference dynamics, written apart from skew_lattice_flow:
    it reads the raw draw arrays and spells out every plus-weight case."""
    steps = config.steps
    gen = stream.child(KEY_FLOW_COINS).generator()
    u = gen.random(steps)
    xi = np.where(gen.random(steps) < 0.5, 1, -1)
    ap = spec.alpha_plus
    out = np.full((len(config.start_pairs), steps + 1), LATTICE_INF, dtype=np.int64)
    for q, (s, x) in enumerate(config.start_pairs):
        s_idx = int(round(s / config.dt))
        units = int(round(x.radius / config.dx))
        z = spec.sign(x.ray) * units if units else 0
        out[q, s_idx] = z
        for k in range(s_idx, steps):
            if ap == 0.5 or z != 0:
                z = z + int(xi[k])
            elif ap == 1.0:
                z = 1
            elif ap == 0.0:
                z = -1
            else:
                z = 1 if u[k] < ap else -1
            out[q, k + 1] = z
    return out


def _config_for(spec, level, steps, start_units):
    """Starts given as (time index, ray, units); parity is the caller's job."""
    dt = 4.0 ** (-level)
    dx = 2.0 ** (-level)
    pairs = []
    for s_idx, ray, units in start_units:
        point = spec.origin if units == 0 else GraphPoint(ray=ray, radius=units * dx)
        pairs.append((s_idx * dt, point))
    return LatticeFlowConfig(level=level, horizon=steps * dt, start_pairs=tuple(pairs))


class TestConfigValidation:
    def test_lattice_quantities(self):
        cfg = _config_for(SPEC2, 3, 64, [(0, 1, 0)])
        assert cfg.dx == 0.125
        assert cfg.dt == 0.015625
        assert cfg.steps == 64

    def test_off_lattice_time_rejected(self):
        with pytest.raises(OffLatticeStart):
            LatticeFlowConfig(
                level=2,
                horizon=1.0,
                start_pairs=((0.1, GraphPoint(ray=1, radius=0.25)),),
            )

    def test_off_lattice_radius_rejected(self):
        with pytest.raises(OffLatticeStart):
            LatticeFlowConfig(
                level=2,
                horizon=1.0,
                start_pairs=((0.0, GraphPoint(ray=1, radius=0.3)),),
            )

    def test_start_past_horizon_rejected(self):
        with pytest.raises(OffLatticeStart):
            LatticeFlowConfig(
                level=1,
                horizon=0.5,
                start_pairs=((0.5, GraphPoint(ray=1, radius=0.5)),),
            )

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError):
            LatticeFlowConfig(level=1, horizon=1.0, start_pairs=())

    def test_mixed_parity_rejected_for_skewed_flow(self):
        cfg = _config_for(SPEC2, 2, 32, [(0, 1, 0), (0, 1, 1)])
        with pytest.raises(OffLatticeStart):
            skew_lattice_flow(cfg, SPEC2, RngStream(5))

    def test_mixed_parity_fine_for_translation_flow(self):
        cfg = _config_for(SPEC2H, 2, 32, [(0, 1, 0), (0, 1, 1)])
        ens = skew_lattice_flow(cfg, SPEC2H, RngStream(5))
        assert ens.traj.shape == (2, 33)


class TestScalarDynamics:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_jump_evolution_matches_naive_reference(self, spec, seed):
        cfg = _config_for(spec, 2, 48, [(0, 1, 0), (0, 1, 2), (4, spec.n_rays, 2)])
        stream = RngStream(seed).child(3)
        ens = skew_lattice_flow(cfg, spec, stream)
        expected = _naive_flow(spec, cfg, stream)
        assert np.array_equal(ens.traj, expected)

    def test_sentinel_before_birth(self):
        cfg = _config_for(SPEC2, 1, 16, [(0, 1, 0), (4, 1, 2)])
        ens = skew_lattice_flow(cfg, SPEC2, RngStream(11))
        assert np.all(ens.traj[1, :4] == LATTICE_INF)
        assert ens.traj[1, 4] == 2
        assert np.all(ens.traj[1, 4:] != LATTICE_INF)

    def test_translation_flow_is_a_translation(self):
        cfg = _config_for(SPEC2H, 2, 64, [(0, 1, 0), (0, 1, 4), (0, 2, 2)])
        ens = skew_lattice_flow(cfg, SPEC2H, RngStream(21))
        assert np.all(ens.traj[1] - ens.traj[0] == 4)
        assert np.all(ens.traj[2] - ens.traj[0] == -2)

    def test_translation_flow_never_meets(self):
        cfg = _config_for(SPEC2H, 2, 64, [(0, 1, 0), (0, 1, 4)])
        ens = skew_lattice_flow(cfg, SPEC2H, RngStream(21))
        assert coalescence_time(ens, 0, 1) is None

    def test_fully_positive_graph_keeps_trajectories_nonnegative(self):
        cfg = _config_for(TANAKA3, 2, 200, [(0, 3, 0)])
        ens = skew_lattice_flow(cfg, TANAKA3, RngStream(33))
        assert np.all(ens.traj[0] >= 0)
        assert np.any(ens.traj[0] == 0)

    def test_fully_negative_graph_keeps_trajectories_nonpositive(self):
        cfg = _config_for(DOWN2, 2, 200, [(0, 1, 0)])
        ens = skew_lattice_flow(cfg, DOWN2, RngStream(34))
        assert np.all(ens.traj[0] <= 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_monotone_coupling_exact(self, seed):
        cfg = _config_for(SPEC2, 3, 256, [(0, 2, 4), (0, 2, 2), (0, 1, 0), (0, 1, 2), (0, 1, 4)])
        ens = skew_lattice_flow(cfg, SPEC2, RngStream(40).child(seed))
        signed = [meta[1] for meta in ens.start_meta]
        order = np.argsort(signed)
        for a, b in zip(order[:-1], order[1:]):
            assert np.all(ens.traj[a] <= ens.traj[b])

    @pytest.mark.parametrize("seed", range(12))
    def test_trajectories_identical_after_recorded_merge(self, seed):
        cfg = _config_for(SPEC3, 3, 256, [(0, 1, 0), (0, 3, 2), (4, 1, 4)])
        ens = skew_lattice_flow(cfg, SPEC3, RngStream(41).child(seed))
        for q in range(1, ens.n_starts):
            record = ens.merge_record(q)
            if record is None:
                continue
            t = record.merge_index
            assert ens.traj[q, t] == 0 and ens.traj[record.target_index, t] == 0
            assert np.array_equal(ens.traj[q, t:], ens.traj[record.target_index, t:])

    def test_coalescence_with_self_is_birth(self):
        cfg = _config_for(SPEC2, 2, 32, [(0, 1, 0), (4, 1, 2)])
        ens = skew_lattice_flow(cfg, SPEC2, RngStream(3))
        assert coalescence_time(ens, 1, 1) == 4

    def test_flow_restarted_from_intermediate_state_is_identical(self):
        cfg = _config_for(SPEC3, 3, 128, [(0, 1, 2)])
        stream = RngStream(77).child(1)
        ens = skew_lattice_flow(cfg, SPEC3, stream)
        mid = 32
        value = int(ens.traj[0, mid])
        ray = 1 if value > 0 else SPEC3.n_rays
        cfg2 = _config_for(SPEC3, 3, 128, [(0, 1, 2), (mid, ray, abs(value))])
        ens2 = skew_lattice_flow(cfg2, SPEC3, stream)
        assert np.array_equal(ens2.traj[0], ens.traj[0])
        assert np.array_equal(ens2.traj[1, mid:], ens.traj[0, mid:])


class TestHittingTime:
    def test_unreachable_junction_returns_none(self):
        cfg = _config_for(SPEC2, 2, 16, [(0, 1, 20)])
        ens = skew_lattice_flow(cfg, SPEC2, RngStream(6))
        assert len(ens.zeros_of(0)) == 0

    def test_first_passage_times_match_walk_recursion(self):
        """Empirical hitting-time histogram against the exact absorbed-walk
        recursion; junction behavior is irrelevant before the first visit."""
        y, steps, replicas = 3, 128, 1500
        size = y + steps + 2
        prob = np.zeros(size)
        prob[y] = 1.0
        hit = np.zeros(steps + 1)
        for k in range(1, steps + 1):
            new = np.zeros(size)
            new[:-1] += 0.5 * prob[1:]
            new[1:] += 0.5 * prob[:-1]
            hit[k] = new[0]
            new[0] = 0.0
            prob = new
        censored = 1.0 - hit.sum()

        cfg = _config_for(SPEC2, 3, steps, [(0, 1, y)])
        counts: dict[int, int] = {}
        none_count = 0
        for rep in range(replicas):
            ens = skew_lattice_flow(cfg, SPEC2, RngStream(500).child(rep))
            zeros = ens.zeros_of(0)
            if not len(zeros):
                none_count += 1
            else:
                tau = int(zeros[0])
                counts[tau] = counts.get(tau, 0) + 1

        observed, expected = [], []
        acc_o, acc_e = 0, 0.0
        for k in range(1, steps + 1):
            if hit[k] == 0.0:
                continue
            acc_o += counts.get(k, 0)
            acc_e += replicas * hit[k]
            if acc_e >= 10.0:
                observed.append(acc_o)
                expected.append(acc_e)
                acc_o, acc_e = 0, 0.0
        observed.append(acc_o + none_count)
        expected.append(acc_e + replicas * censored)
        from scipy import stats as sps

        exp = np.array(expected) * (sum(observed) / sum(expected))
        stat, p = sps.chisquare(observed, exp)
        assert p > 1e-3, f"chi-square p={p} (stat={stat})"


class TestKernelMeasure:
    def test_validation(self):
        pt = GraphPoint(ray=1, radius=1.0)
        with pytest.raises(ValueError):
            KernelMeasure(points=(pt,), weights=(0.5,))
        with pytest.raises(ValueError):
            KernelMeasure(points=(pt,), weights=(-1.0,))
        with pytest.raises(ValueError):
            KernelMeasure(points=(pt, pt), weights=(0.5, 0.5))

    def test_dirac(self):
        pt = GraphPoint(ray=2, radius=0.5)
        m = KernelMeasure.dirac(pt)
        assert m.points == (pt,) and m.weights == (1.0,)

    def test_split_weights_frozen_example(self):
        m = wiener_kernel(SPEC3, SPEC3.origin, 0.5, True)
        assert m.points == (GraphPoint(ray=1, radius=0.5), GraphPoint(ray=2, radius=0.5))
        assert m.weights == (0.4 / 0.7, 0.3 / 0.7)
        np.testing.assert_allclose(m.weights, (4.0 / 7.0, 3.0 / 7.0), rtol=0, atol=1e-15)

    def test_wiener_kernel_before_hitting_is_moving_dirac(self):
        m = wiener_kernel(SPEC3, GraphPoint(ray=2, radius=1.0), 0.75, False)
        assert m == KernelMeasure.dirac(GraphPoint(ray=2, radius=0.75))

    def test_wiener_kernel_negative_side(self):
        m = wiener_kernel(SPEC3, SPEC3.origin, -0.25, True)
        assert m == KernelMeasure.dirac(GraphPoint(ray=3, radius=0.25))

    def test_wiener_kernel_at_junction(self):
        m = wiener_kernel(SPEC3, SPEC3.origin, 0.0, True)
        assert m == KernelMeasure.dirac(SPEC3.origin)


def _sampler_keys(n):
    """n one-part draw keys, the rows 0..n-1."""
    return np.arange(n, dtype=np.int64)[:, None]


def _per_key_weights(name, ratios, gen):
    """Oracle: the family rule on one key's own generator, the draw each
    excursion key made on its own before the kernel flows kept a weight
    table per trajectory."""
    ratios = np.asarray(ratios)
    if name == "dirac-vertices":
        out = np.zeros(len(ratios))
        out[categorical(ratios, gen.random())] = 1.0
        return out
    if name == "uniform-simplex":
        return gen.dirichlet(np.ones(len(ratios)))
    if name.startswith("dirichlet:"):
        return gen.dirichlet(float(name.split(":", 1)[1]) * ratios)
    if name.startswith("custom-weights:"):
        return np.array([float(v) for v in name.split(":", 1)[1].split(",")])
    assert name == "wiener"
    return ratios


class TestSamplers:
    def test_unknown_family_rejected(self):
        with pytest.raises(SamplerInvalid):
            MeasurePairSampler(SPEC3, "nonsense")

    def test_custom_weights_validation(self):
        with pytest.raises(SamplerInvalid):
            MeasurePairSampler(SPEC3, "custom-weights:0.5,0.2,0.3")
        with pytest.raises(SamplerInvalid):
            MeasurePairSampler(SPEC3, "custom-weights:0.5,0.6")
        s = MeasurePairSampler(SPEC3, "custom-weights:0.8,0.2", "wiener")
        np.testing.assert_array_equal(s.draw(1, RngStream(0), _sampler_keys(1)), [[0.8, 0.2]])

    def test_dirichlet_concentration_validation(self):
        with pytest.raises(SamplerInvalid):
            MeasurePairSampler(SPEC3, "dirichlet:0")
        with pytest.raises(SamplerInvalid):
            MeasurePairSampler(SPEC3, "dirichlet:abc")

    def test_one_sided_graph_has_no_minus_sampler(self):
        s = MeasurePairSampler(TANAKA3, "wiener")
        with pytest.raises(SamplerInvalid):
            s.draw(-1, RngStream(0), _sampler_keys(1))
        with pytest.raises(SamplerInvalid):
            ray_ratios(TANAKA3, -1)

    def test_wiener_sampler_is_the_ratio_point_mass(self):
        s = MeasurePairSampler(SPEC3, "wiener")
        stream = RngStream(1)
        np.testing.assert_array_equal(
            s.draw(1, stream, _sampler_keys(2)), [[0.4 / 0.7, 0.3 / 0.7]] * 2
        )
        np.testing.assert_array_equal(s.draw(-1, stream, _sampler_keys(1)), [[1.0]])

    def test_vertex_sampler_mean_matches_ratios(self):
        s = MeasurePairSampler(SPEC3, "dirac-vertices")
        draws = s.draw(1, RngStream(2), _sampler_keys(20000))
        mean = draws.mean(axis=0)
        ref = np.array(ray_ratios(SPEC3, 1))
        sigma = np.sqrt(ref * (1 - ref) / len(draws))
        assert np.all(np.abs(mean - ref) <= 3 * sigma)
        assert set(np.unique(draws)) == {0.0, 1.0}

    def test_dirichlet_sampler_mean_matches_ratios(self):
        s = MeasurePairSampler(SPEC3, "dirichlet:5")
        draws = s.draw(1, RngStream(3), _sampler_keys(20000))
        mean = draws.mean(axis=0)
        ref = np.array(ray_ratios(SPEC3, 1))
        sigma = draws.std(axis=0) / math.sqrt(len(draws))
        assert np.all(np.abs(mean - ref) <= 4 * sigma)

    def test_uniform_simplex_is_biased_for_asymmetric_ratios(self):
        s = MeasurePairSampler(SPEC3, "uniform-simplex")
        draws = s.draw(1, RngStream(4), _sampler_keys(5000))
        assert abs(draws.mean(axis=0)[0] - 0.5) < 0.03
        assert abs(draws.mean(axis=0)[0] - 4.0 / 7.0) > 0.05

    @pytest.mark.parametrize("name", ["dirac-vertices", "dirichlet:4", "uniform-simplex"])
    def test_a_row_depends_only_on_its_key(self, name):
        s = MeasurePairSampler(SPEC3, name)
        stream = RngStream(6).child(1)
        keys = np.array([[KEY_KERNEL_CHOICE, c, 0, 1, 2] for c in range(-2, 40)])
        rows = s.draw(1, stream, keys)
        assert rows.shape == (len(keys), 2)
        for key, row in zip(keys.tolist(), rows):
            want = _per_key_weights(name, ray_ratios(SPEC3, 1), stream.child(*key).generator())
            assert row.tobytes() == want.tobytes()
        np.testing.assert_array_equal(s.draw(1, stream, keys[::-1]), rows[::-1])
        assert s.draw(1, stream, keys[:0]).shape == (0, 2)

    def test_only_drawing_laws_build_a_child_stream(self, monkeypatch):
        """Per trajectory a point mass builds no generator and draws no
        uniform; a vertex law builds none and makes one uniforms call per
        side it draws on; a Dirichlet law builds one generator per
        excursion key, and a merged start none for its target's rows."""
        _cfg, fixture = _kernel_fixture("wiener")
        ens, stream = fixture.ensemble, fixture.stream
        assert any(ens.merge_record(q) is not None for q in range(ens.n_starts))
        rows = [ens.excursions(q) for q in range(ens.n_starts)]
        built, uniform_keys = [], []
        generator, uniforms = RngStream.generator, RngStream.uniforms

        def counted_generator(s):
            built.append(s.stream_key)
            return generator(s)

        def counted_uniforms(s, keys):
            uniform_keys.append([s.stream_key + tuple(key) for key in np.asarray(keys).tolist()])
            return uniforms(s, keys)

        monkeypatch.setattr(RngStream, "generator", counted_generator)
        monkeypatch.setattr(RngStream, "uniforms", counted_uniforms)

        def draws_of(plus, minus="wiener", spec=SPEC3, q=0):
            built.clear()
            uniform_keys.clear()
            flow = KernelFlow(ens, MeasurePairSampler(spec, plus, minus), stream)
            return extract_ray_weights(flow, q), flow

        plus0 = rows[0][rows[0][:, 2] == 1]
        for name in ("wiener", "custom-weights:0.8,0.2"):
            weights, _flow = draws_of(name)
            assert built == [] and uniform_keys == [] and len(weights) == len(rows[0]) > 2
        for side, _g, _d, w in draws_of("wiener")[0]:
            assert w.tolist() == list(ray_ratios(SPEC3, side))

        keys0 = [stream.stream_key + (KEY_KERNEL_CHOICE, 0, *key) for key in plus0[:, 3:].tolist()]
        _weights, _flow = draws_of("dirac-vertices")
        assert built == [] and uniform_keys == [keys0]
        _weights, _flow = draws_of("dirac-vertices", "dirac-vertices")
        assert built == [] and len(uniform_keys) == 2

        _weights, _flow = draws_of("dirichlet:4")
        assert uniform_keys == [] and built == keys0
        # both sides, every start: one generator per key of the ensemble
        _weights, flow = draws_of("dirichlet:4", "dirichlet:4")
        for q in range(1, ens.n_starts):
            flow.weight_table(q)
        keys = {tuple(key) for table in rows for key in table[:, 3:].tolist()}
        assert len(built) == len(set(built)) == len(keys)
        assert {key[len(stream.stream_key) + 2 :] for key in built} == keys

        # a one-sided graph draws on its one side only
        tanaka = MeasurePairSampler(TANAKA3, "dirichlet:4")
        built.clear()
        assert tanaka.draw(1, stream, _sampler_keys(3)).shape == (3, 3)
        assert len(built) == 3
        with pytest.raises(SamplerInvalid):
            tanaka.draw(-1, stream, _sampler_keys(3))


def _kernel_fixture(sampler_name="dirichlet:4", seed=910, spec=SPEC3):
    cfg = _config_for(spec, 4, 256, [(0, 1, 0), (0, 2, 2), (0, 3, 2)])
    sampler = MeasurePairSampler(spec, sampler_name)
    stream = RngStream(seed).child(2)
    flow = sample_kernel_flow(cfg, spec, sampler, stream)
    return cfg, flow


class TestKernelFlow:
    def test_phase_one_is_a_moving_point_mass(self):
        cfg, flow = _kernel_fixture()
        ens = flow.ensemble
        tau = int(ens.zeros_of(1)[0])
        assert tau > 0
        for k in range(0, tau + 1):
            m = flow.kernel_at(1, k)
            z = abs(int(ens.traj[1, k]))
            if z == 0:
                assert m == KernelMeasure.dirac(SPEC3.origin)
            else:
                assert m == KernelMeasure.dirac(GraphPoint(ray=2, radius=z * cfg.dx))

    def test_mass_is_one_everywhere(self):
        cfg, flow = _kernel_fixture()
        for q in range(flow.ensemble.n_starts):
            for k in range(flow.ensemble.born_at(q), flow.ensemble.steps + 1, 7):
                m = flow.kernel_at(q, k)
                assert abs(math.fsum(m.weights) - 1.0) <= 1e-12

    def test_weights_constant_within_excursion(self):
        cfg, flow = _kernel_fixture()
        rows = extract_ray_weights(flow, 0)
        assert rows, "origin start must produce excursions"
        for side, g, d, weights in rows[:6]:
            for k in range(g + 1, min(d, g + 5)):
                if flow.ensemble.traj[0, k] == 0:
                    continue
                again = flow.excursion_weights(0, k)
                assert np.shares_memory(again, weights)
                np.testing.assert_array_equal(again, weights)

    def test_kernel_copies_target_after_recorded_merge(self):
        cfg, flow = _kernel_fixture()
        ens = flow.ensemble
        merged = [(q, ens.merge_record(q)) for q in range(1, ens.n_starts)]
        merged = [(q, r) for q, r in merged if r is not None]
        assert merged, "fixture should produce at least one merge"
        for q, record in merged:
            for k in range(record.merge_index + 1, ens.steps + 1, 13):
                assert flow.kernel_at(q, k) == flow.kernel_at(record.target_index, k)

    def test_point_mass_sampler_reproduces_noise_kernel_exactly(self):
        cfg, flow = _kernel_fixture(sampler_name="wiener")
        ens = flow.ensemble
        for k in range(0, ens.steps + 1, 5):
            z = float(ens.traj[0, k]) * cfg.dx
            ref = wiener_kernel(SPEC3, SPEC3.origin, z, True)
            assert flow.kernel_at(0, k) == ref

    def test_vertex_sampler_gives_point_kernels(self):
        cfg, flow = _kernel_fixture(sampler_name="dirac-vertices")
        ens = flow.ensemble
        for k in range(0, ens.steps + 1, 3):
            m = flow.kernel_at(0, k)
            assert len(m.points) == 1 and m.weights == (1.0,)

    def test_determinism(self):
        _, flow_a = _kernel_fixture(seed=77)
        _, flow_b = _kernel_fixture(seed=77)
        for q in range(flow_a.ensemble.n_starts):
            for k in range(flow_a.ensemble.born_at(q), flow_a.ensemble.steps + 1, 11):
                assert flow_a.kernel_at(q, k) == flow_b.kernel_at(q, k)

    def test_sampler_spec_mismatch_rejected(self):
        cfg = _config_for(SPEC2, 2, 16, [(0, 1, 0)])
        sampler = MeasurePairSampler(SPEC3, "wiener")
        with pytest.raises(SamplerInvalid):
            sample_kernel_flow(cfg, SPEC2, sampler, RngStream(1))


# the five sampler families; a custom vector is spelled out per side
_FAMILIES = ("wiener", "custom-weights", "dirac-vertices", "uniform-simplex", "dirichlet:4")
_CUSTOM = {1: "custom-weights:1", 2: "custom-weights:0.8,0.2"}
MINUS3 = validate_spec((0.4, 0.3, 0.3), (1, -1, -1))


@pytest.mark.parametrize("spec", [SPEC3, MINUS3], ids=["spec3", "minus3"])
@pytest.mark.parametrize("family", _FAMILIES)
def test_weight_tables_equal_per_key_draws(spec, family):
    """Every row of every start's weight table, merged starts included,
    and every redrawn choice of mapping_rays, bit for bit the per-key
    oracle, at draw index 0 and 3."""
    names = {
        side: _CUSTOM[len(spec.side_rays(side))] if family == "custom-weights" else family
        for side in (1, -1)
    }
    sampler = MeasurePairSampler(spec, names[1], names[-1])
    _cfg, fixture = _kernel_fixture("wiener", spec=spec)
    ens, stream = fixture.ensemble, fixture.stream
    assert any(ens.merge_record(q) is not None for q in range(ens.n_starts))

    def oracle(side, draw_index, key):
        gen = stream.child(KEY_KERNEL_CHOICE, draw_index, *key).generator()
        return _per_key_weights(names[side], ray_ratios(spec, side), gen)

    sides_seen = set()
    for draw_index in (0, 3):
        flow = KernelFlow(ens, sampler, stream, draw_index)
        for q in range(ens.n_starts):
            rows = ens.excursions(q)
            table = flow.weight_table(q)
            assert table.shape == (len(rows), spec.n_rays)
            for (_g, _d, side, *key), got in zip(rows.tolist(), table):
                rays = spec.side_rays(side)
                want = np.zeros(spec.n_rays)
                want[rays.start - 1 : rays.stop - 1] = oracle(side, draw_index, key)
                assert got.tobytes() == want.tobytes()
                sides_seen.add(side)
    assert sides_seen == {1, -1}

    choices = range(2, 9)
    for q in range(ens.n_starts):
        for g, _d, side, *key in ens.excursions(q)[-3:].tolist():
            first = spec.side_rays(side).start
            want = [
                first
                + int(
                    categorical(
                        oracle(side, c, key),
                        stream.child(KEY_MAPPING_CHOICE, c, *key).generator().random(),
                    )
                )
                for c in choices
            ]
            assert mapping_rays(flow, q, g + 1, choices, redraw=True).tolist() == want


@pytest.mark.parametrize("spec", [SPEC3, MINUS3], ids=["spec3", "minus3"])
@pytest.mark.parametrize("family", _FAMILIES)
def test_ray_tables_equal_mapping_rays(spec, family):
    """Every row of every start's ray table, merged starts included, bit
    for bit the ray mapping_rays picks at the row's first index."""
    names = {
        side: _CUSTOM[len(spec.side_rays(side))] if family == "custom-weights" else family
        for side in (1, -1)
    }
    sampler = MeasurePairSampler(spec, names[1], names[-1])
    _cfg, fixture = _kernel_fixture("wiener", spec=spec)
    ens = fixture.ensemble
    assert any(ens.merge_record(q) is not None for q in range(ens.n_starts))
    flow = KernelFlow(ens, sampler, fixture.stream, draw_index=2)
    sides_seen = set()
    for choice in (0, 7):
        mapping = MappingFlow(flow, choice)
        for q in range(ens.n_starts):
            rows = ens.excursions(q)
            want = [mapping_rays(flow, q, g + 1, (choice,)) for g in rows[:, 0].tolist()]
            got = mapping.ray_table(q)
            assert got.dtype == np.int64 and len(got) == len(rows) > 0
            assert got.tobytes() == np.concatenate(want).tobytes()
            sides_seen |= set(rows[:, 2].tolist())
    assert sides_seen == {1, -1}


class TestMappingFlow:
    def test_radius_tracks_scalar_magnitude_exactly(self):
        cfg, flow = _kernel_fixture()
        mapping = MappingFlow(flow)
        ens = flow.ensemble
        for q in range(ens.n_starts):
            for k in range(ens.born_at(q), ens.steps + 1):
                pt = mapping.point_at(q, k)
                # after a merge the start's own row is its target's
                z = int(ens.traj[q, k])
                assert pt.radius == abs(z) * cfg.dx
                if z > 0:
                    assert 1 <= pt.ray <= SPEC3.p
                elif z < 0:
                    assert SPEC3.p < pt.ray <= SPEC3.n_rays
                else:
                    assert pt.is_origin and pt.ray == SPEC3.n_rays

    def test_one_lookup_labels_its_excursion_once(self, monkeypatch):
        # calls holds one entry per row the array labeller labels
        calls = []
        label = paths_module._dyadic_labels

        def counted(u, v):
            calls.extend(zip(u.tolist(), v.tolist()))
            return label(u, v)

        monkeypatch.setattr(paths_module, "_dyadic_labels", counted)
        cfg, flow = _kernel_fixture()
        ens = flow.ensemble
        k = int(ens.zeros_of(0)[1]) + 1
        MappingFlow(flow).point_at(0, k)
        # the first lookup labels each excursion of its trajectory once
        rows = len(ens.excursions(0))
        assert len(calls) == rows > 2
        # other draws and choices, kernels and filtering on the same
        # ensemble share the labels
        other = KernelFlow(ens, flow.sampler, flow.stream, draw_index=3)
        MappingFlow(other, choice_index=5).point_at(0, k)
        other.kernel_at(0, k)
        filter_mapping_to_kernel(flow, 0, int(ens.zeros_of(0)[2]) + 1, 50)
        assert len(calls) == rows

        # every start: one label per excursion of the ensemble, that is per
        # distinct (source start, left end), merged starts included
        calls.clear()
        _cfg, fresh = _kernel_fixture()
        ens = fresh.ensemble
        assert any(ens.merge_record(q) is not None for q in range(ens.n_starts))
        excursions = set()
        for q in range(ens.n_starts):
            for k in range(ens.born_at(q), ens.steps + 1):
                fresh.kernel_at(q, k)
            excursions |= {(source, g) for g, _d, _side, source, *_ in ens.excursions(q).tolist()}
        assert len(calls) == len(excursions)

    def test_filtering_follows_the_copy_chain(self):
        cfg, flow = _kernel_fixture()
        ens = flow.ensemble
        for q in range(1, ens.n_starts):
            record = ens.merge_record(q)
            if record is None:
                continue
            after = np.flatnonzero(ens.traj[q, record.merge_index + 1 :] != 0)
            k = record.merge_index + 1 + int(after[0])
            mine = filter_mapping_to_kernel(flow, q, k, 50)
            target = filter_mapping_to_kernel(flow, record.target_index, k, 50)
            np.testing.assert_array_equal(mine[0], target[0])
            np.testing.assert_array_equal(mine[1], target[1])
            return
        pytest.fail("fixture should produce at least one merge")

    def test_ray_constant_within_excursion(self):
        cfg, flow = _kernel_fixture()
        mapping = MappingFlow(flow)
        rows = extract_ray_weights(flow, 0)
        for side, g, d, _ in rows[:6]:
            rays = {
                mapping.point_at(0, k).ray
                for k in range(g + 1, min(d, g + 6))
                if flow.ensemble.traj[0, k] != 0
            }
            assert len(rays) == 1

    @pytest.mark.parametrize("sampler_name", ["dirichlet:4", "dirac-vertices", "wiener"])
    def test_mapping_rays_equal_mapping_flow_loop(self, sampler_name):
        # oracle: one generator per choice index, its first uniform mapped
        # through the excursion's weights, on every start and both sides of
        # the junction; with redraw the weights are those of draw index c
        cfg, flow = _kernel_fixture(sampler_name=sampler_name)
        ens = flow.ensemble

        def oracle(weights, q, k, side, c):
            key, _side = ens.excursion(q, k)
            u = flow.stream.child(KEY_MAPPING_CHOICE, c, *key).generator().random()
            first = 1 if side > 0 else SPEC3.p + 1
            return first + int(categorical(weights, u))

        def redrawn(q, k, side, c):
            key, _side = ens.excursion(q, k)
            gen = flow.stream.child(KEY_KERNEL_CHOICE, c, *key).generator()
            return _per_key_weights(sampler_name, ray_ratios(SPEC3, side), gen)

        sides_seen = set()
        for q in range(ens.n_starts):
            for side, g, _d, w in extract_ray_weights(flow, q)[:4]:
                sides_seen.add(side)
                choices = range(3, 60)
                got = mapping_rays(flow, q, g + 1, choices)
                want = [oracle(w, q, g + 1, side, c) for c in choices]
                assert got.tolist() == want
                assert [MappingFlow(flow, c).point_at(q, g + 1).ray for c in (3, 4)] == want[:2]
                got = mapping_rays(flow, q, g + 1, choices, redraw=True)
                want = [oracle(redrawn(q, g + 1, side, c), q, g + 1, side, c) for c in choices]
                assert got.tolist() == want
        assert sides_seen == {1, -1}
        with pytest.raises(ValueError):
            mapping_rays(flow, 0, int(ens.zeros_of(0)[1]), range(3))

    def test_no_replicas_is_an_error(self):
        _cfg, flow = _kernel_fixture()
        k = int(flow.ensemble.zeros_of(0)[0]) + 1
        for replicas in (0, -1):
            with pytest.raises(ValueError, match="replica"):
                filter_mapping_to_kernel(flow, 0, k, replicas)

    def test_conditional_ray_frequencies_match_weights(self):
        cfg, flow = _kernel_fixture(sampler_name="uniform-simplex", seed=300)
        ens = flow.ensemble
        rows = extract_ray_weights(flow, 0)
        side, g, d, weights = rows[0]
        k = g + 1
        replicas = 4000
        freq, ref, n = filter_mapping_to_kernel(flow, 0, k, replicas)
        np.testing.assert_array_equal(ref, weights)
        bound = 3.0 * np.sqrt(ref * (1.0 - ref) / n)
        assert np.all(np.abs(freq - ref) <= np.maximum(bound, 1e-12))


class TestProjectionAndComposition:
    def test_projection_recovers_noise_kernel_for_unbiased_sampler(self):
        cfg = _config_for(SPEC3, 4, 256, [(0, 1, 0)])
        sampler = MeasurePairSampler(SPEC3, "dirichlet:3")
        k = 101
        flow = sample_kernel_flow(cfg, SPEC3, sampler, RngStream(411).child(0))
        mean, ref, n = project_kernel_to_wiener(flow, 0, k, replicas=3000)
        assert np.all(np.abs(mean - ref) <= 0.025)

    def test_projection_detects_biased_sampler(self):
        cfg = _config_for(SPEC3, 4, 256, [(0, 1, 0)])
        sampler = MeasurePairSampler(SPEC3, "custom-weights:0.9,0.1", "wiener")
        flow = sample_kernel_flow(cfg, SPEC3, sampler, RngStream(411).child(0))
        ens = flow.ensemble
        k = int(np.flatnonzero(ens.traj[0, : ens.steps + 1] > 0)[-1])
        mean, ref, n = project_kernel_to_wiener(flow, 0, k, replicas=500)
        assert np.max(np.abs(mean - ref)) > 0.05

    def test_projection_with_point_mass_sampler_is_exact(self):
        cfg = _config_for(SPEC3, 4, 64, [(0, 1, 0)])
        sampler = MeasurePairSampler(SPEC3, "wiener")
        flow = sample_kernel_flow(cfg, SPEC3, sampler, RngStream(412).child(0))
        mean, ref, n = project_kernel_to_wiener(flow, 0, 33, replicas=8)
        np.testing.assert_allclose(mean, ref, rtol=0, atol=1e-15)

    def test_projection_without_replicas_is_an_error(self):
        _cfg, flow = _kernel_fixture()
        for k in (0, int(flow.ensemble.zeros_of(0)[0]) + 1):
            with pytest.raises(ValueError, match="replica"):
                project_kernel_to_wiener(flow, 0, k, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_flow_property_composition(self, seed):
        cfg = _config_for(SPEC3, 4, 256, [(0, 1, 0)])
        sampler = MeasurePairSampler(SPEC3, "dirichlet:4")
        disc, composed, direct = flow_property_check(
            cfg, SPEC3, sampler, RngStream(800).child(seed), 0, 64, 192
        )
        assert disc <= 1e-12
        assert set(composed.points) == set(direct.points)


def _scan_excursion_rows(ens, q):
    """Oracle, index by index: start q's last zero before the index and its
    next zero (or the horizon), labelled on their own. An excursion starting
    before q's recorded merge is q's; a later one belongs to the first start
    down the merge chain that carries it then. Maps each index inside an
    excursion to (g, d, side, key)."""
    dt = ens.config.dt
    zeros = np.flatnonzero(ens.traj[q] == 0)
    out = {}
    for k in range(ens.born_at(q), ens.steps + 1):
        z = int(ens.traj[q, k])
        if z == 0 or not len(zeros) or zeros[0] > k:
            continue
        g = int(zeros[zeros < k][-1])
        later = zeros[zeros > k]
        d = int(later[0]) if len(later) else ens.steps
        source = q
        record = ens.merge_record(source)
        while record is not None and g >= record.merge_index:
            source = record.target_index
            record = ens.merge_record(source)
        out[k] = (g, d, 1 if z > 0 else -1, (source, *dyadic_label(g * dt, d * dt)))
    return out


@settings(max_examples=120, deadline=None)
@given(
    spec=st.sampled_from(ALL_SPECS),
    seed=st.integers(0, 2**20),
    starts=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)), min_size=1, max_size=4),
    copy_at=st.integers(1, 40),
    copy_first=st.booleans(),
)
# start 2 born late at the junction and start 3 born off it, then a start
# born on start 0's path: merging at the junction; at plus-weight 1/2, where
# it merges at birth, placed after start 0 (inside one of its excursions,
# or one step before start 0's next zero) or before it (so that start 0
# merges inside one of its own excursions)
@example(spec=SPEC3, seed=1, starts=[(0, 0), (6, 0), (5, 3)], copy_at=9, copy_first=False)
@example(spec=SPEC2H, seed=0, starts=[(0, 0), (6, 0), (5, 3)], copy_at=1, copy_first=False)
@example(spec=SPEC2H, seed=0, starts=[(0, 0), (6, 0), (5, 3)], copy_at=13, copy_first=False)
@example(spec=SPEC2H, seed=0, starts=[(0, 0), (6, 0), (5, 3)], copy_at=5, copy_first=True)
@example(spec=HALF3, seed=5, starts=[(0, 0)], copy_at=8, copy_first=False)
@example(spec=HALF3, seed=5, starts=[(0, 0)], copy_at=8, copy_first=True)
def test_excursion_table_matches_index_scan(spec, seed, starts, copy_at, copy_first):
    # starts born off the junction (their LATTICE_INF prefix and first run
    # are one run from index 0) or late at it, plus one born where start 0
    # is at copy_at, which merges at birth when there is no junction rule
    level, steps = 2, 64
    starts = [(s, 1 + s % spec.n_rays, u + (s + u) % 2) for s, u in starts]
    stream = RngStream(seed)
    base = skew_lattice_flow(_config_for(spec, level, steps, starts), spec, stream)
    z = int(base.traj[0, copy_at])
    if z != LATTICE_INF and spec.side_rays(1 if z >= 0 else -1):
        copy = (copy_at, spec.side_rays(1 if z >= 0 else -1)[0], abs(z))
        starts = [copy] + starts if copy_first else starts + [copy]
    ens = skew_lattice_flow(_config_for(spec, level, steps, starts), spec, stream)
    for q in range(ens.n_starts):
        # a start follows its merge target bitwise from the recorded merge on
        record = ens.merge_record(q)
        if record is not None:
            m = record.merge_index
            assert np.array_equal(ens.traj[q, m:], ens.traj[record.target_index, m:])
        rows = ens.excursions(q)
        assert rows.dtype == np.int64 and rows.shape[1] == 6
        assert np.all(np.diff(rows[:, 0]) > 0)
        table = [(g, d, side, tuple(key)) for g, d, side, *key in rows.tolist()]
        scan = _scan_excursion_rows(ens, q)
        assert set(table) == set(scan.values())
        for k in range(ens.born_at(q), ens.steps + 1):
            if k in scan:
                assert table[int(ens.excursion_row(q, k))] == scan[k]
                assert ens.excursion(q, k) == (scan[k][3], scan[k][2])
            else:
                assert ens.excursion_row(q, k) == -1
                with pytest.raises(ValueError):
                    ens.excursion(q, k)
        if ens.born_at(q) > 0:
            with pytest.raises(ValueError):
                ens.excursion_row(q, ens.born_at(q) - 1)


class TestHalfWeightMerges:
    """At plus-weight 1/2 a merge is the first plain equality, so a start
    can merge before its own first junction visit or inside one of its
    own excursions; either way it keeps its own kernel up to the zero."""

    def _flow(self, starts):
        cfg = _config_for(HALF3, 2, 64, starts)
        sampler = MeasurePairSampler(HALF3, "wiener")
        return sample_kernel_flow(cfg, HALF3, sampler, RngStream(5))

    def test_start_born_on_a_path_is_a_point_mass_until_its_first_visit(self):
        flow = self._flow([(0, 1, 0), (8, 1, 2)])
        ens = flow.ensemble
        assert ens.merge_record(1).merge_index == 8
        assert int(ens.zeros_of(1)[0]) == 12
        for k in range(9, 12):
            radius = abs(int(ens.traj[1, k])) * ens.config.dx
            assert flow.kernel_at(1, k) == KernelMeasure.dirac(GraphPoint(ray=1, radius=radius))
            assert ens.excursion_row(1, k) == -1
            with pytest.raises(BeforeHitting):
                ens.excursion(1, k)
        # start 0's excursion from before start 1's birth is not start 1's
        row = [6, 12, 1, 0, 1, 1]
        assert row in ens.excursions(0).tolist()
        assert row not in ens.excursions(1).tolist()

    def test_start_merging_inside_its_excursion_keeps_it(self):
        flow = self._flow([(8, 1, 2), (0, 1, 0)])
        ens = flow.ensemble
        assert ens.merge_record(1).merge_index == 8
        for k in range(9, 12):
            assert ens.excursion(1, k) == ((1, 1, 1), 1)
            radius = abs(int(ens.traj[1, k])) * ens.config.dx
            points = (GraphPoint(ray=1, radius=radius), GraphPoint(ray=2, radius=radius))
            assert flow.kernel_at(1, k) == KernelMeasure(points=points, weights=(0.5, 0.5))


class TestRayWeightExtraction:
    def test_before_hitting_raises(self):
        cfg = _config_for(SPEC2, 2, 16, [(0, 1, 20)])
        sampler = MeasurePairSampler(SPEC2, "wiener")
        flow = sample_kernel_flow(cfg, SPEC2, sampler, RngStream(9))
        with pytest.raises(BeforeHitting):
            extract_ray_weights(flow, 0)
        with pytest.raises(BeforeHitting):
            flow.excursion_weights(0, 3)
        with pytest.raises(BeforeHitting):
            flow.ensemble.excursion(0, 3)

    def test_rows_cover_excursions_with_matching_sides(self):
        cfg, flow = _kernel_fixture()
        ens = flow.ensemble
        rows = extract_ray_weights(flow, 0)
        zeros = ens.zeros_of(0)
        expected_rows = sum(1 for g in zeros if g + 1 <= ens.steps)
        assert len(rows) == expected_rows
        for side, g, d, weights in rows:
            interior = ens.traj[0, g + 1 : d]
            assert np.all(np.sign(interior) == side)
            assert {ens.excursion(0, k)[1] for k in range(g + 1, d)} == {side}
            dim = SPEC3.p if side > 0 else SPEC3.n_rays - SPEC3.p
            assert len(weights) == dim
        # at the junction there is no excursion to key
        for g in zeros:
            with pytest.raises(ValueError) as raised:
                ens.excursion(0, int(g))
            assert not isinstance(raised.value, BeforeHitting)

    def test_rows_after_a_merge_follow_the_copy_chain(self):
        sampler = MeasurePairSampler(SPEC3, "dirichlet:4")
        cfg = _config_for(SPEC3, 3, 256, [(0, 1, 0), (0, 1, 2)])
        checked = 0
        for seed in range(40):
            flow = sample_kernel_flow(cfg, SPEC3, sampler, RngStream(seed))
            record = flow.ensemble.merge_record(1)
            if record is None:
                continue
            for side, g, _d, weights in extract_ray_weights(flow, 1):
                if g < record.merge_index:
                    continue
                kernel = measure_ray_weights(flow.kernel_at(1, g + 1), SPEC3)
                block = kernel[: SPEC3.p] if side > 0 else kernel[SPEC3.p :]
                np.testing.assert_array_equal(weights, block)
                checked += 1
        assert checked > 100

    def test_measure_ray_weights_helper(self):
        m = wiener_kernel(SPEC3, SPEC3.origin, 0.5, True)
        np.testing.assert_allclose(
            measure_ray_weights(m, SPEC3), [4.0 / 7.0, 3.0 / 7.0, 0.0]
        )
        origin = KernelMeasure.dirac(SPEC3.origin)
        np.testing.assert_array_equal(measure_ray_weights(origin, SPEC3), [0, 0, 0])


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.3, 0.5, 0.7, 1.0 - 2.0**-53, 1.0])
def test_uniforms_below_matches_the_uniforms_of_the_words(p):
    """Words at the edges of every 2^11-word bucket, and a Philox run: the
    bool of each is the uniform (word >> 11) / 2^53 < p, at p = 0 and 1 too."""
    top = 2**64 - 1
    edges = np.array(
        [0, 1, 2**11 - 1, 2**11, 2**63, top - 2**11, top - 2**11 + 1, top], dtype=np.uint64
    )
    gen = np.random.Philox(5)
    words = np.concatenate([edges, gen.random_raw(4096)])
    got = paths_module._uniforms_below(words, p)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, (words >> np.uint64(11)) * 2.0**-53 < p)
    np.testing.assert_array_equal(
        paths_module._uniforms_below(np.random.Philox(5).random_raw(64), p),
        np.random.Generator(np.random.Philox(5)).random(64) < p,
    )


def _merge_levels_oracle(spec, level, y_units, horizon_steps, n_pairs, stream):
    """merge_level_samples as a per-step loop: every step draws random(m)
    junction uniforms, then random(m) signs, for its m unmerged pairs, and
    steps them through index arrays with paths._skew_step."""
    ap = spec.alpha_plus
    gen = stream.child(KEY_FLOW_COINS).generator()
    dx = 2.0 ** (-level)
    z_x = np.zeros(n_pairs, dtype=np.int64)
    z_y = np.full(n_pairs, y_units, dtype=np.int64)
    visits_y = np.zeros(n_pairs, dtype=np.int64)
    alive_idx = np.arange(n_pairs)
    levels = np.full(n_pairs, np.nan)
    for _ in range(horizon_steps):
        if not len(alive_idx):
            break
        m = len(alive_idx)
        u_origin = gen.random(m)
        xi = np.where(gen.random(m) < 0.5, 1, -1)
        junction = np.where(u_origin < ap, 1, -1)
        zx = z_x[alive_idx]
        zy = z_y[alive_idx]
        visits_y[alive_idx[zy == 0]] += 1
        new_zx = _skew_step(zx, junction, xi)
        new_zy = _skew_step(zy, junction, xi)
        z_x[alive_idx] = new_zx
        z_y[alive_idx] = new_zy
        merged = (new_zx == 0) & (new_zy == 0)
        if np.any(merged):
            hit = alive_idx[merged]
            levels[hit] = y_units * dx + (2.0 * ap - 1.0) * dx * visits_y[hit]
            alive_idx = alive_idx[~merged]
    return levels[~np.isnan(levels)], int(len(alive_idx))


def _assert_merge_levels_match_oracle(args):
    levels, censored = merge_level_samples(*args)
    want, want_censored = _merge_levels_oracle(*args)
    assert censored == want_censored
    assert levels.dtype == want.dtype and levels.tobytes() == want.tobytes()
    return levels, censored


# more pairs than half a draw, so a step's words cross a refill
_MANY_PAIRS = flows._MERGE_DRAW_WORDS // 2 + 7


class TestMergeLevels:
    @pytest.mark.parametrize("ap", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("y_units", [2, 4, 8])
    @pytest.mark.parametrize("n_pairs", [1, 9, _MANY_PAIRS])
    def test_bulk_draws_equal_per_step_oracle(self, ap, y_units, n_pairs):
        spec = validate_spec((ap, 1.0 - ap), (1, -1))
        for seed, steps in enumerate([0, 1, 300]):
            args = (spec, 4, y_units, steps, n_pairs, RngStream(7000 + seed, (n_pairs,)))
            _levels, censored = _assert_merge_levels_match_oracle(args)
            if steps == 0:
                assert censored == n_pairs

    @pytest.mark.parametrize("ap", [0.55, 0.7, 0.9])
    def test_every_pair_merges_before_the_horizon(self, ap):
        spec = validate_spec((ap, 1.0 - ap), (1, -1))
        levels, censored = _assert_merge_levels_match_oracle(
            (spec, 4, 2, 2000, 9, RngStream(0))
        )
        assert censored == 0 and len(levels) == 9

    @pytest.mark.parametrize("draw_words", [4, 16, 64])
    def test_small_draws_refill_inside_steps(self, monkeypatch, draw_words):
        monkeypatch.setattr(flows, "_MERGE_DRAW_WORDS", draw_words)
        for n_pairs in (9, 40):
            _assert_merge_levels_match_oracle((SPEC2, 3, 2, 400, n_pairs, RngStream(63)))

    @pytest.mark.parametrize("reach, dtype", [(32767, np.int16), (32768, np.int32)])
    def test_state_type_edge(self, reach, dtype):
        """horizon_steps + y_units at the int16 edge picks int16, one past it
        int32; the levels match the oracle either way."""
        assert paths_module._state_dtype(reach) is dtype
        _assert_merge_levels_match_oracle((SPEC2, 3, 2, reach - 2, 9, RngStream(64)))

    def test_levels_never_below_initial_separation(self):
        levels, censored = merge_level_samples(SPEC2, 4, 2, 4096, 400, RngStream(60))
        assert len(levels) + censored == 400
        assert len(levels) > 300
        assert np.all(levels >= 2 * 2.0 ** (-4) - 1e-15)

    def test_determinism(self):
        a, ca = merge_level_samples(SPEC2, 4, 2, 2048, 200, RngStream(61))
        b, cb = merge_level_samples(SPEC2, 4, 2, 2048, 200, RngStream(61))
        assert ca == cb
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(OffLatticeStart):
            merge_level_samples(SPEC2, 4, 3, 128, 10, RngStream(1))
        with pytest.raises(ValueError):
            merge_level_samples(SPEC2H, 4, 2, 128, 10, RngStream(1))

    def test_visit_counting_against_direct_simulation(self):
        """Re-derive a few merge levels with an independent scalar loop."""
        spec, level, y_units, steps = SPEC2, 3, 2, 512
        n_pairs = 8
        levels, censored = merge_level_samples(
            spec, level, y_units, steps, n_pairs, RngStream(62)
        )
        gen = RngStream(62).child(KEY_FLOW_COINS).generator()
        ap = spec.alpha_plus
        dx = 2.0 ** (-level)
        expected = []
        state = [(0, y_units, 0, True) for _ in range(n_pairs)]
        state = [list(s) for s in state]
        for _ in range(steps):
            alive = [i for i, s in enumerate(state) if s[3]]
            if not alive:
                break
            u = gen.random(len(alive))
            xi = np.where(gen.random(len(alive)) < 0.5, 1, -1)
            for j, i in enumerate(alive):
                zx, zy, visits, _ = state[i]
                if zy == 0:
                    visits += 1
                new_zx = (1 if u[j] < ap else -1) if zx == 0 else zx + int(xi[j])
                new_zy = (1 if u[j] < ap else -1) if zy == 0 else zy + int(xi[j])
                state[i] = [new_zx, new_zy, visits, True]
                if new_zx == 0 and new_zy == 0:
                    expected.append(y_units * dx + (2 * ap - 1) * dx * visits)
                    state[i][3] = False
        assert len(expected) == len(levels)
        np.testing.assert_allclose(sorted(levels), sorted(expected), rtol=0, atol=0)


def _merge_steps(spec, y_units, horizon, n_pairs, seed):
    """The steps at which the oracle merges some pair, found as the
    horizons at which its censored count drops."""
    steps, before = [], n_pairs
    for h in range(1, horizon + 1):
        _levels, censored = _merge_levels_oracle(spec, 4, y_units, h, n_pairs, RngStream(seed))
        if censored < before:
            steps.append(h)
        before = censored
    return steps


class TestMergeBlocks:
    """merge_level_samples steps in speculative blocks; whatever the block
    lengths, its levels are the per-step oracle's bit for bit."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 64])
    def test_block_cap(self, monkeypatch, cap):
        monkeypatch.setattr(flows, "_MERGE_BLOCK_STEPS", cap)
        for ap, n_pairs, steps in [(0.55, 9, 400), (0.7, 300, 600), (0.9, 40, 1000)]:
            spec = validate_spec((ap, 1.0 - ap), (1, -1))
            stream = RngStream(cap, (n_pairs,))
            _assert_merge_levels_match_oracle((spec, 4, 2, steps, n_pairs, stream))

    def test_word_cap_forces_one_step_blocks(self):
        n_pairs = flows._MERGE_BLOCK_WORDS // 2 + 1
        assert flows._MERGE_BLOCK_WORDS // (2 * n_pairs) == 0
        _levels, censored = _assert_merge_levels_match_oracle(
            (SPEC2, 4, 2, 24, n_pairs, RngStream(65))
        )
        assert censored < n_pairs

    @pytest.mark.parametrize("words", [2, 64, 1000])
    def test_small_word_cap(self, monkeypatch, words):
        """Blocks of one step while 2m exceeds the cap, longer below it."""
        monkeypatch.setattr(flows, "_MERGE_BLOCK_WORDS", words)
        for n_pairs in (9, 40, 300):
            stream = RngStream(66, (words,))
            _assert_merge_levels_match_oracle((SPEC2, 4, 4, 500, n_pairs, stream))

    def test_merge_on_the_last_step(self):
        """Horizons that end on a merge, inside the first block and later."""
        merges = _merge_steps(SPEC2, 2, 120, 40, 67)
        assert merges[0] < flows._MERGE_BLOCK_STEPS < merges[-1]
        for h in (merges[0], merges[len(merges) // 2], merges[-1]):
            args = (SPEC2, 4, 2, h, 40, RngStream(67))
            _levels, censored = _assert_merge_levels_match_oracle(args)
            _levels, before = _merge_levels_oracle(SPEC2, 4, 2, h - 1, 40, RngStream(67))
            assert censored < before

    @pytest.mark.parametrize("steps", [1, 2, 5, flows._MERGE_BLOCK_STEPS - 1])
    def test_horizon_shorter_than_the_first_block(self, steps):
        for n_pairs in (1, 9, 300):
            stream = RngStream(68, (steps,))
            _assert_merge_levels_match_oracle((SPEC2, 4, 2, steps, n_pairs, stream))

    def test_random_configs(self):
        rng = np.random.default_rng(2929)
        for _ in range(100):
            ap = float(rng.uniform(0.5, 1.0))
            if rng.random() < 0.5:
                spec = validate_spec((ap, 1.0 - ap), (1, -1))
            else:
                spec = validate_spec((ap / 2, ap / 2, 1.0 - ap), (1, 1, -1))
            args = (
                spec,
                int(rng.integers(1, 8)),
                int(rng.choice([2, 4, 8])),
                int(rng.integers(0, 601)),
                int(rng.integers(1, 301)),
                RngStream(int(rng.integers(2**31))),
            )
            _assert_merge_levels_match_oracle(args)
