"""Finite-mode forcing: construction, truncation, streams, growth bounds."""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from svvlab.errors import ConfigError, DomainError
from svvlab.noise import MAX_BASE_STEPS, NoiseModel, _column, bump
from svvlab.pressure import PressureLaw, StateFields, _smoothstep


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)


@pytest.fixture()
def single(law2):
    return NoiseModel.single_mode(0.1, law2, seed=7, dt_base=1e-3)


@pytest.fixture()
def family(law2):
    return NoiseModel.mode_family(0.2, 1.5, 6, law2, seed=7, dt_base=1e-3)


class TestConstruction:
    def test_single_mode_value(self, single):
        x = np.array([0.0])
        rho = np.array([2.0])
        val = single.modes[0].a * single.modes[0](x, rho, np.zeros(1))
        assert val[0] == pytest.approx(0.2)

    def test_outside_support_zero(self, single):
        x = np.array([5.0])
        val = single.modes[0](x, np.array([2.0]), np.zeros(1))
        assert val[0] == 0.0

    def test_amplitudes_nonincreasing_enforced(self, law2):
        from svvlab.noise import NoiseMode

        z = np.ones_like
        with pytest.raises(ConfigError):
            NoiseModel(
                modes=(NoiseMode(0.1, z), NoiseMode(0.5, z)),
                law=law2,
                seed=0,
                dt_base=1e-3,
            )

    def test_bump_profile(self):
        assert bump(0.0) == pytest.approx(1.0)
        assert bump(1.0) == 0.0
        assert bump(np.array([-2.0, 2.0])).tolist() == [0.0, 0.0]


class TestTruncateMollify:
    def test_h_value(self, law2):
        model = NoiseModel.mode_family(0.2, 1.5, 120, law2, seed=0, dt_base=1e-3)
        out = model.truncate_mollify(0.01, 1.0, 0.4, rho_inf=1.0)
        assert out.H == pytest.approx(10.0**0.8)
        assert out.n_modes == 100

    def test_mode_cap_floor(self, law2):
        model = NoiseModel.mode_family(0.2, 1.5, 6, law2, seed=0, dt_base=1e-3)
        out = model.truncate_mollify(0.3, 10.0, 0.4, rho_inf=1.0)
        assert out.n_modes == 3

    def test_eps_one_rejected(self, single):
        with pytest.raises(ConfigError):
            single.truncate_mollify(1.0, 1.0, 0.4, rho_inf=1.0)

    def test_alpha1_regime_enforced(self, single):
        # theta2 = 0.5 for gamma = 2: alpha1 must stay below it
        with pytest.raises(ConfigError):
            single.truncate_mollify(0.01, 1.0, 0.6, rho_inf=1.0)

    @pytest.mark.parametrize("c1", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_c1_rejected(self, single, c1):
        # a NaN H would make every forcing NaN, an infinite one never truncates
        with pytest.raises(ConfigError, match="c1"):
            single.truncate_mollify(0.05, c1, 0.25, rho_inf=1.0)


class TestSampling:
    def test_determinism(self, single):
        a = single.sample_increments(3, 17, 1e-3)
        b = single.sample_increments(3, 17, 1e-3)
        assert np.array_equal(a, b)

    def test_samples_independent(self, single):
        a = single.sample_increments(1, 0, 1e-3)
        b = single.sample_increments(2, 0, 1e-3)
        assert not np.array_equal(a, b)

    def test_coarse_step_sums_base_increments(self, single):
        # dt = 2 dt_base: one coarse draw equals the sum of the two fine ones
        coarse = single.sample_increments(0, 5, 2e-3)
        fine = single.sample_increments(0, 10, 1e-3) + single.sample_increments(
            0, 11, 1e-3
        )
        assert np.allclose(coarse, fine, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dt_base", [float("nan"), 7e-4, -1e-3, 0.0, float("inf"), 5e-324])
    def test_dt_base_must_divide_dt(self, law2, dt_base):
        # a NaN dt_base ended in a ValueError of int(round(nan)); the
        # increments and the run-file check share the one rule
        model = NoiseModel.single_mode(0.1, law2, seed=7, dt_base=dt_base)
        with pytest.raises(ConfigError, match="integer multiple"):
            model.sample_increments(0, 0, 1e-3)

    def test_base_steps_bounded(self, law2):
        # dt_base = 1e-8 drew 100,000 base steps per step and sample
        dt = 1e-3
        fine = NoiseModel.single_mode(0.1, law2, seed=7, dt_base=dt / MAX_BASE_STEPS)
        assert np.isfinite(fine.sample_increments(0, 0, dt)).all()
        for dt_base in (dt / (2 * MAX_BASE_STEPS), 1e-8):
            model = NoiseModel.single_mode(0.1, law2, seed=7, dt_base=dt_base)
            with pytest.raises(ConfigError, match=f"more than {MAX_BASE_STEPS}"):
                model.sample_increments(0, 0, dt)

    def test_mode_subset_shared_across_truncations(self, law2):
        model = NoiseModel.mode_family(0.2, 1.5, 10, law2, seed=3, dt_base=1e-3)
        big = model.truncate_mollify(0.2, 10.0, 0.4, rho_inf=1.0)  # 5 modes
        small = model.truncate_mollify(0.5, 10.0, 0.4, rho_inf=1.0)  # 2 modes
        a = big.sample_increments(0, 4, 1e-3)
        b = small.sample_increments(0, 4, 1e-3)
        assert np.array_equal(a[:2], b)

    def test_counter_reset_matches_fresh_philox(self, law2):
        # oracle: a Philox built afresh for every base step, keyed by
        # (seed, sample) with the base step as the high counter word
        rng = np.random.default_rng(20)
        u64 = (1 << 64) - 1
        for _ in range(20):
            seed, sid, step = (int(v) for v in rng.integers(0, 2**62, size=3))
            step %= 10**6
            model = NoiseModel.mode_family(0.2, 1.5, 4, law2, seed=seed, dt_base=1e-3)
            expect = np.zeros(4)
            for j in range(3 * step, 3 * step + 3):
                bitgen = np.random.Philox(key=(seed << 64) | (sid & u64), counter=j << 128)
                expect += np.random.Generator(bitgen).standard_normal(4)
            expect *= np.sqrt(1e-3)
            assert np.array_equal(model.sample_increments(sid, step, 3e-3), expect)
            # a second draw of the same stream, after others, resets again
            model.sample_increments(sid, step + 1, 3e-3)
            assert np.array_equal(model.sample_increments(sid, step, 3e-3), expect)

    @pytest.mark.parametrize("step", [-1, 1.5])
    def test_bad_step_rejected(self, single, step):
        # a negative step escaped as an OverflowError, a fractional one as
        # a TypeError
        message = f"step must be a nonnegative integer, got {step!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            single.sample_increments(0, step, 1e-3)

    @pytest.mark.parametrize("step", [0, 2**70])
    def test_first_and_far_steps_keep_their_bits(self, law2, step):
        # the fresh-Philox oracle at both ends of the step range, two base
        # steps per step
        model = NoiseModel.mode_family(0.2, 1.5, 4, law2, seed=7, dt_base=1e-3)
        expect = np.zeros(4)
        for j in range(2 * step, 2 * step + 2):
            bitgen = np.random.Philox(key=(7 << 64) | 3, counter=j << 128)
            expect += np.random.Generator(bitgen).standard_normal(4)
        expect *= np.sqrt(1e-3)
        assert np.array_equal(model.sample_increments(3, step, 2e-3), expect)
        assert np.array_equal(model.sample_increments([3], step, 2e-3)[0], expect)
        if step < 2**63:  # a numpy integer is the same step
            assert np.array_equal(model.sample_increments(3, np.int64(step), 2e-3), expect)

    @pytest.mark.parametrize("ki", [1, 3])
    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("high", [False, True])
    @pytest.mark.parametrize("ids", [[3], [4, 4, 9, 4]])
    def test_count_is_the_stack_of_single_steps(self, law2, ki, count, high, ids):
        # count steps in one call: the single-step calls, stacked, and the
        # fresh-Philox oracle; high puts the fine steps across 2^64, where
        # the counter's high word turns over
        model = NoiseModel.mode_family(0.2, 1.5, 4, law2, seed=7, dt_base=1e-3)
        dt = ki * 1e-3
        step = 2**64 // ki - count // 2 if high else 0
        expect = np.zeros((count, len(ids), 4))
        for k in range(count):
            for i, sid in enumerate(ids):
                for j in range((step + k) * ki, (step + k + 1) * ki):
                    bitgen = np.random.Philox(key=(7 << 64) | sid, counter=j << 128)
                    expect[k, i] += np.random.Generator(bitgen).standard_normal(4)
        expect *= np.sqrt(1e-3)
        stacked = np.stack([model.sample_increments(ids, step + k, dt) for k in range(count)])
        assert np.array_equal(stacked, expect)
        assert np.array_equal(model.sample_increments(ids, step, dt, count), expect)
        single = model.sample_increments(ids[0], step, dt, count)
        assert np.array_equal(single, expect[:, 0])

    @pytest.mark.parametrize("count", [0, -2, 1.5, "2"])
    def test_bad_count_rejected(self, single, count):
        message = f"count must be a positive integer, got {count!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            single.sample_increments([0, 1], 4, 1e-3, count)

    def test_numpy_time_steps_are_the_float_step(self, law2):
        # the base steps per step are kept per float dt, so a 0-d array or
        # a numpy float dt (or dt_base) is the same dt, not an unhashable key
        model = NoiseModel.mode_family(0.2, 1.5, 4, law2, seed=7, dt_base=1e-3)
        expect = model.sample_increments([3, 5], 4, 2e-3)
        for dt in (np.array(2e-3), np.float64(2e-3)):
            assert np.array_equal(model.sample_increments([3, 5], 4, dt), expect)
        numpy_base = replace(model, dt_base=np.array(1e-3))
        assert np.array_equal(numpy_base.sample_increments([3, 5], 4, 2e-3), expect)

    def test_batched_rows_are_one_sample_draws(self, family):
        ids = [4, 0, 9]
        batch = family.sample_increments(ids, 6, 2e-3)
        assert batch.shape == (3, family.n_modes)
        for row, sid in zip(batch, ids):
            assert np.array_equal(row, family.sample_increments(sid, 6, 2e-3))

    def test_repeated_id_is_drawn_once(self, family, monkeypatch):
        # each id's stream is looked up once per call, and its draws counted
        calls = []
        stream = NoiseModel._stream

        def counted(self, sample_id):
            gen, state = stream(self, sample_id)

            def draw(*args, **kwargs):
                calls.append(sample_id)
                return gen.standard_normal(*args, **kwargs)

            return SimpleNamespace(bit_generator=gen.bit_generator, standard_normal=draw), state

        monkeypatch.setattr(NoiseModel, "_stream", counted)
        batch = family.sample_increments([4, 4, 9, 4], 6, 2e-3)
        assert calls == [4, 4, 9, 9]  # two base steps per id
        for row in (1, 3):
            assert np.array_equal(batch[row], batch[0])
        assert not np.array_equal(batch[0], batch[2])

    def test_moments(self, single):
        dt = 1e-3
        draws = np.array(
            [single.sample_increments(0, k, dt)[0] for k in range(20000)]
        )
        n = draws.size
        assert abs(draws.mean()) < 3.0 * np.sqrt(dt / n)
        assert abs(draws.var() - dt) < 3.0 * dt * np.sqrt(2.0 / n)

    def test_cross_mode_independence(self, family):
        dt = 1e-3
        draws = np.array(
            [family.sample_increments(0, k, dt) for k in range(20000)]
        )
        c = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(c) < 3.0 / np.sqrt(draws.shape[0])


class TestForcing:
    def test_zero_increment(self, single):
        x = np.linspace(-2, 2, 11)
        rho = np.ones(11)
        out = single.apply_forcing(single.on_grid(x), rho, np.zeros(11), np.zeros(1))
        assert np.all(out == 0.0)

    def test_vacuum_cell_zero(self, single):
        spatial = single.on_grid(np.zeros(1))
        out = single.apply_forcing(spatial, np.zeros(1), np.zeros(1), np.array([1.0]))
        assert out[0] == 0.0

    def test_outside_region_zero_after_mollify(self, law2):
        model = NoiseModel.single_mode(0.1, law2, seed=0, dt_base=1e-3)
        out = model.truncate_mollify(0.05, 3.0, 0.25, rho_inf=1.0)
        # state far outside Gamma_H: huge velocity
        x = np.zeros(1)
        rho = np.array([1.0])
        m = np.array([100.0])
        forced = out.apply_forcing(out.on_grid(x), rho, m, np.array([1.0]))
        assert forced[0] == 0.0
        inside = out.apply_forcing(out.on_grid(x), rho, np.zeros(1), np.array([1.0]))
        assert inside[0] != 0.0

    def test_shared_mollifier_matches_per_mode_sums(self, law2):
        model = NoiseModel.mode_family(
            0.5, 0.5, 20, law2, seed=1, dt_base=1e-3, support_kind="whole_line"
        )
        model = model.truncate_mollify(0.04, 1.5, 0.25, rho_inf=1.0)
        assert model.n_modes == 20
        # nodes finer than the transition width eps = 0.04, so that some
        # fall inside it where the mode profiles are nonzero
        x = np.linspace(-30.0, 30.0, 8193)
        rho = 1.0 + 0.5 * np.exp(-(x**2))
        m = 3.0 * np.sin(x) * rho  # crosses the edge of Gamma_H
        dW = np.random.default_rng(0).standard_normal(20)
        force = np.zeros_like(x)
        quad = 0.0
        indicator = model._indicator(StateFields(law2, rho, m))
        for k, mode in enumerate(model.modes):
            z = model.zeta_eff(k, model.on_grid(x), rho, m)
            # the per-mode formula, indicator and cutoff evaluated afresh
            raw = mode(x, rho, m)
            assert np.array_equal(z, raw * indicator * model.on_grid(x)[1])
            force = force + mode.a * z * dW[k]
            quad = quad + (mode.a * z) ** 2
        within = (indicator > 0.0) & (indicator < 1.0)  # strictly inside the transition
        assert within.any() and np.abs(x[within]).min() < 1.0
        assert model.on_grid(x)[1].min() == 0.0
        assert np.array_equal(model.apply_forcing(model.on_grid(x), rho, m, dW), force)
        assert np.array_equal(model.forcing_quadratic(model.on_grid(x), rho, m), quad)

    def test_batched_forcing_rows(self, family):
        model = family.truncate_mollify(0.2, 3.0, 0.25, rho_inf=1.0)
        x = np.linspace(-2.0, 2.0, 33)
        rho = 1.0 + 0.2 * np.cos(np.arange(3)[:, None] + x)
        m = 4.0 * np.sin(np.arange(3)[:, None] - x)  # partly outside Gamma_H
        dW = np.random.default_rng(1).standard_normal((3, model.n_modes))
        spatial = model.on_grid(x)
        out = model.apply_forcing(spatial, rho, m, dW)
        assert out.shape == rho.shape
        for r in range(3):
            assert np.array_equal(out[r], model.apply_forcing(spatial, rho[r], m[r], dW[r]))

    def test_rows_mollified_per_epsilon(self, law2):
        # each row is the model mollified for its own epsilon: caps 2, 4 and
        # 10 of 20 modes, its own H, transition width and whole-line cutoff;
        # modes beyond a row's cap give it exactly zero
        template = NoiseModel.mode_family(
            0.5, 0.5, 20, law2, seed=1, dt_base=1e-3, support_kind="whole_line"
        )
        eps = [0.5, 0.25, 0.1]
        rows = template.truncate_mollify(eps, 3.0, 0.25, rho_inf=1.0)
        lone = [template.truncate_mollify(e, 3.0, 0.25, rho_inf=1.0) for e in eps]
        assert rows.n_modes == 10 and rows.mode_cap == (2, 4, 10)
        assert rows.H == tuple(m.H for m in lone)
        assert rows.epsilon == tuple(eps)
        x = np.linspace(-5.0, 5.0, 65)
        rho = 1.0 + 0.3 * np.cos(np.arange(3)[:, None] + x)
        m = 3.0 * np.sin(x) * rho  # leaves Gamma_H in the first row
        dW = np.random.default_rng(2).standard_normal((3, rows.n_modes))
        force = rows.apply_forcing(rows.on_grid(x), rho, m, dW)
        quad = rows.forcing_quadratic(rows.on_grid(x), rho, m)
        for r, model in enumerate(lone):
            cap, spatial = model.n_modes, model.on_grid(x)
            assert np.array_equal(force[r], model.apply_forcing(spatial, rho[r], m[r], dW[r, :cap]))
            assert np.array_equal(quad[r], model.forcing_quadratic(spatial, rho[r], m[r]))
            for k in range(cap, rows.n_modes):
                assert not rows.zeta_eff(k, rows.on_grid(x), rho, m)[r].any()
        assert rows._indicator(StateFields(law2, rho, m))[0].min() < 1.0

    @pytest.mark.parametrize("method", ["apply_forcing", "forcing_quadratic", "zeta_eff"])
    @pytest.mark.parametrize("mollified", [False, True], ids=["raw", "mollified"])
    def test_negative_density_rejected(self, law2, mollified, method):
        # the raw model gave a forcing of -0.3 and a quadratic of 0.09 at
        # rho = -1; both models check rho, through the state's pass or, raw,
        # by the pass's check
        model = NoiseModel.single_mode(0.3, law2, seed=7, dt_base=1e-3)
        if mollified:
            model = model.truncate_mollify(0.05, 3.0, 0.25, rho_inf=1.0)
        spatial, rho = model.on_grid(np.zeros(1)), np.array([-1.0])
        calls = {
            "apply_forcing": lambda: model.apply_forcing(spatial, rho, 0.0, [1.0]),
            "forcing_quadratic": lambda: model.forcing_quadratic(spatial, rho, 0.0),
            "zeta_eff": lambda: model.zeta_eff(0, spatial, rho, 0.0),
        }
        with pytest.raises(DomainError, match="density must be nonnegative"):
            calls[method]()

    def test_raw_model_checks_without_a_pass(self, single, monkeypatch):
        # a raw model reads nothing of the state's pass, so without one it
        # makes the pass's density check alone, not P and P'
        calls = []
        check, parts = PressureLaw._check_nonneg, PressureLaw._pressure_parts
        monkeypatch.setattr(
            PressureLaw, "_check_nonneg",
            staticmethod(lambda rho: calls.append("_check_nonneg") or check(rho)),
        )
        monkeypatch.setattr(
            PressureLaw, "_pressure_parts",
            lambda self, *a: calls.append("_pressure_parts") or parts(self, *a),
        )
        x = np.linspace(-1.0, 1.0, 9)
        rho, m = np.ones(9), np.zeros(9)
        single.forcing_quadratic(single.on_grid(x), rho, m)
        single.apply_forcing(single.on_grid(x), rho, m, [1.0])
        assert calls == ["_check_nonneg", "_check_nonneg"]

    def test_wrong_increment_count(self, family):
        with pytest.raises(DomainError):
            family.apply_forcing(
                family.on_grid(np.zeros(3)), np.ones(3), np.zeros(3), np.zeros(2)
            )


def full_indicator(model, rho, m):
    """The Gamma_H indicator from the full formula at every node, zero on
    vacuum: the oracle of the scalar bound."""
    pos = rho > 0.0
    rp = np.where(pos, rho, 1.0)
    u = np.where(pos, m / rp, 0.0)
    K = np.where(pos, model.law.k_integral(rp), 0.0)
    H, width = _column(model.H), _column(model.epsilon)
    upper = (H - (u + K)) / width
    lower = ((u - K) + H) / width
    return np.where(pos, _smoothstep(upper)[0] * _smoothstep(lower)[0], 0.0)


def summed_forcing(model, x, rho, m, dW):
    """(apply_forcing, forcing_quadratic) with every coefficient multiplied
    by the full indicator and the forcing summed from zeros."""
    indicator = full_indicator(model, rho, m)
    cutoff = model.on_grid(x)[1]
    caps = _column(model.mode_cap) if isinstance(model.mode_cap, tuple) else None
    force, quad = np.zeros_like(rho), 0.0
    for k, mode in enumerate(model.modes):
        z = mode.alpha(x) * rho * indicator
        if cutoff is not None:
            z = z * cutoff
        if caps is not None:
            z = z * (k < caps)
        if dW[..., k, None].any():
            force = force + mode.a * z * dW[..., k, None]
        quad = quad + (mode.a * z) ** 2
    return force, quad


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def near_edge(model, law, delta, side, own, amp=0.3):
    """Three rows, rho = 1 + amp cos, whose largest w2 (side "upper") or
    smallest -w1 (side "lower") is (1 + delta) times the edge H - eps:
    each row's own edge, or the smallest over the rows."""
    x = np.linspace(-3.0, 3.0, 65)
    rows = np.arange(3)[:, None]
    rho = 1.0 + amp * np.cos(x + rows)
    K = law.k_integral(rho)
    edge = np.broadcast_to(_column(model.H) - _column(model.epsilon), (3, 1))
    target = (edge if own else edge.min()) * (1.0 + delta)
    u = 0.2 * np.sin(x - rows)
    if side == "upper":
        u = u + (target - (u + K).max(axis=-1, keepdims=True))
    else:
        u = u - (target + (u - K).min(axis=-1, keepdims=True))
    return x, rho, u * rho


class TestRegionBound:
    """Where max u + K(max rho) and min u - K(max rho) clear H - eps, the
    indicator is 1 without a per-node K; everywhere it, the forcing and
    its quadratic are those of the full formula, bitwise."""

    @pytest.mark.parametrize("delta", [-0.1, -1e-3, -1e-12, 0.0, 1e-12, 0.02])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize(
        "case", ["polytropic", "flat", "composite", "vacuum", "per-row", "per-row-own"]
    )
    def test_bound_equals_full_indicator(self, law2, case, side, delta, monkeypatch):
        law = law2
        if case == "composite":  # rho in [0.7, 1.3] straddles rho_lo = 0.9
            law = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
        eps = [0.05, 0.2, 0.5] if case.startswith("per-row") else 0.05
        template = NoiseModel.mode_family(0.4, 1.0, 3, law, seed=3, dt_base=1e-3)
        model = template.truncate_mollify(eps, 3.0, 0.25, 1.0)
        amp = 0.0 if case == "flat" else 0.3
        x, rho, m = near_edge(model, law, delta, side, case == "per-row-own", amp)
        if case == "vacuum":
            rho[:, 20:24] = m[:, 20:24] = 0.0
        # the bound clears inside the smallest edge by more than its margin
        # and, where rho varies and max u and max rho fall on different
        # nodes, by more than its slack
        clears = case != "per-row-own" and (
            delta == -0.1 or (case == "flat" and delta == -1e-3)
        )
        want = full_indicator(model, rho, m)
        ndims = []  # the ndim of each rho that the model's law takes K of
        plain = PressureLaw._k_integral
        monkeypatch.setattr(
            PressureLaw, "_k_integral",
            lambda self, r: (self is law and ndims.append(np.ndim(r))) or plain(self, r),
        )
        got = model._indicator(StateFields(law, rho, m))
        assert ndims == ([0] if clears else [0, 2])
        # None stands for an indicator of exactly 1, on states without
        # vacuum, and is what a bound that clears gives them
        if clears and case != "vacuum":
            assert got is None
        if got is None:
            assert case != "vacuum"
            got = np.ones_like(want)
        assert same_bits(got, want)
        if delta == 0.02:
            assert got.min() < 1.0
        dW = np.random.default_rng(4).standard_normal((3, model.n_modes))
        dW[:, 1] = 0.0  # a mode the sum skips
        force, quad = summed_forcing(model, x, rho, m, dW)
        # bitwise, so the signs of zero too: the bump is 0 on most nodes
        assert same_bits(model.apply_forcing(model.on_grid(x), rho, m, dW), force)
        assert same_bits(model.forcing_quadratic(model.on_grid(x), rho, m), quad)
        negative = model.apply_forcing(model.on_grid(x), rho, m, -np.abs(dW))
        assert not (np.signbit(negative) & (negative == 0.0)).any()

    def test_empty_and_nonfinite_states_take_the_full_formula(self, law2):
        model = NoiseModel.single_mode(0.3, law2, seed=7, dt_base=1e-3)
        model = model.truncate_mollify(0.05, 3.0, 0.25, 1.0)
        empty = np.zeros((1, 0))
        assert model._indicator(StateFields(law2, empty, empty)) is None
        rho, m = np.ones(5), np.zeros(5)
        for bad in (np.nan, np.inf):
            m[2] = bad
            with np.errstate(invalid="ignore"):
                assert same_bits(
                    model._indicator(StateFields(law2, rho, m)),
                    full_indicator(model, rho, m),
                )


def gathered_growth_b0(model, states):
    """growth_check's constant from the positive nodes gathered, each state
    masking its vacuum itself: the oracle of its evaluation on the states'
    pass."""
    eps2 = 0.0 if model.epsilon is None else _column(model.epsilon) ** 2
    worst = 0.0
    for x, rho, m in states:
        pos = rho > 0.0
        with np.errstate(over="ignore"):
            G = np.sqrt(model.forcing_quadratic(model.on_grid(x), rho, m))
            if pos.any():
                rp = rho[pos]
                u = m[pos] / rp
                e2 = np.broadcast_to(eps2, rho.shape)[pos]
                env = rp * np.sqrt(1.0 + e2 + u**2 + model.law.internal_energy(rp))
                worst = max(worst, float(np.max(G[pos] / env)))
    return worst


class TestGrowth:
    def test_single_mode_bound(self, single):
        x = np.linspace(-3, 3, 101)
        states = [(x, 1.0 + 0.5 * np.sin(x), 0.3 * np.cos(x))]
        rep = single.growth_check(states, B0=0.1)
        assert rep.passed
        assert rep.empirical_B0 <= 0.1 + 1e-12

    def test_vacuum_contributes_zero(self, single):
        x = np.zeros(3)
        rep = single.growth_check([(x, np.zeros(3), np.zeros(3))])
        assert rep.empirical_B0 == 0.0

    def test_empty_states(self, single):
        rep = single.growth_check([])
        assert rep.n_states == 0

    def test_per_row_model(self, law2):
        # a model mollified per row takes eps^2 row by row: its B0 is the
        # largest of the lone models' on their own rows
        template = NoiseModel.mode_family(0.5, 0.5, 60, law2, seed=1, dt_base=1e-3)
        eps = [0.05, 0.02]
        rows = template.truncate_mollify(eps, 3.0, 0.25, rho_inf=1.0)
        lone = [template.truncate_mollify(e, 3.0, 0.25, rho_inf=1.0) for e in eps]
        x = np.linspace(-2.0, 2.0, 65)
        rho = 1.0 + 0.4 * np.cos(np.arange(2)[:, None] + 2.0 * x)
        m = 0.5 * np.sin(x - np.arange(2)[:, None]) * rho
        rho[1, 3] = m[1, 3] = 0.0  # a vacuum node contributes zero
        states = [(x, rho, m), (x, rho[::-1].copy(), m[::-1].copy())]
        got = rows.growth_check(states, B0=1.0)
        want = [
            model.growth_check([(x, r[i], q[i]) for _, r, q in states]).empirical_B0
            for i, model in enumerate(lone)
        ]
        assert got.empirical_B0 == max(want) > 0.0
        assert got.n_states == 2 and got.passed

    @pytest.mark.parametrize("vacuum", [True, False], ids=["vacuum", "positive"])
    @pytest.mark.parametrize("kind", ["raw", "mollified", "per-row"])
    def test_equals_gathered_formula(self, law2, kind, vacuum):
        model = NoiseModel.mode_family(0.5, 0.5, 60, law2, seed=1, dt_base=1e-3)
        if kind != "raw":
            eps = [0.05, 0.02, 0.1] if kind == "per-row" else 0.05
            model = model.truncate_mollify(eps, 3.0, 0.25, rho_inf=1.0)
        x = np.linspace(-2.0, 2.0, 65)
        rho = 1.0 + 0.6 * np.cos(np.arange(3)[:, None] + 2.0 * x)
        m = 0.8 * np.sin(x - np.arange(3)[:, None]) * rho
        if vacuum:
            rho[0, 3] = m[0, 3] = rho[2, 40] = m[2, 40] = 0.0
        states = [(x, rho, m), (x, rho[::-1].copy(), 2.0 * m[::-1])]
        got = model.growth_check(states).empirical_B0
        assert got == gathered_growth_b0(model, states) > 0.0
