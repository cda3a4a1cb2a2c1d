"""Finite-mode forcing: construction, truncation, streams, growth bounds."""

import numpy as np
import pytest

from svvlab.errors import ConfigError, DomainError
from svvlab.noise import MAX_BASE_STEPS, NoiseModel, bump
from svvlab.pressure import PressureLaw


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

    def test_batched_rows_are_one_sample_draws(self, family):
        ids = [4, 0, 9]
        batch = family.sample_increments(ids, 6, 2e-3)
        assert batch.shape == (3, family.n_modes)
        for row, sid in zip(batch, ids):
            assert np.array_equal(row, family.sample_increments(sid, 6, 2e-3))

    def test_repeated_id_is_drawn_once(self, family, monkeypatch):
        calls = []
        blocks = NoiseModel._blocks

        def counted(self, sample_id, fine_step, count):
            calls.append(sample_id)
            return blocks(self, sample_id, fine_step, count)

        monkeypatch.setattr(NoiseModel, "_blocks", counted)
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
        out = single.apply_forcing(x, rho, np.zeros(11), np.zeros(1))
        assert np.all(out == 0.0)

    def test_vacuum_cell_zero(self, single):
        x = np.zeros(1)
        out = single.apply_forcing(x, np.zeros(1), np.zeros(1), np.array([1.0]))
        assert out[0] == 0.0

    def test_outside_region_zero_after_mollify(self, law2):
        model = NoiseModel.single_mode(0.1, law2, seed=0, dt_base=1e-3)
        out = model.truncate_mollify(0.05, 3.0, 0.25, rho_inf=1.0)
        # state far outside Gamma_H: huge velocity
        x = np.zeros(1)
        rho = np.array([1.0])
        m = np.array([100.0])
        forced = out.apply_forcing(x, rho, m, np.array([1.0]))
        assert forced[0] == 0.0
        inside = out.apply_forcing(x, rho, np.zeros(1), np.array([1.0]))
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
        for k, mode in enumerate(model.modes):
            z = model.zeta_eff(k, x, rho, m)
            # the per-mode formula, indicator and cutoff evaluated afresh
            raw = mode(x, rho, m)
            assert np.array_equal(
                z, raw * model._region_indicator(rho, m) * model._spatial_cutoff(x)
            )
            force = force + mode.a * z * dW[k]
            quad = quad + (mode.a * z) ** 2
        indicator = model._region_indicator(rho, m)
        within = (indicator > 0.0) & (indicator < 1.0)  # strictly inside the transition
        assert within.any() and np.abs(x[within]).min() < 1.0
        assert model._spatial_cutoff(x).min() == 0.0
        assert np.array_equal(model.apply_forcing(x, rho, m, dW), force)
        assert np.array_equal(model.forcing_quadratic(x, rho, m), quad)

    def test_batched_forcing_rows(self, family):
        model = family.truncate_mollify(0.2, 3.0, 0.25, rho_inf=1.0)
        x = np.linspace(-2.0, 2.0, 33)
        rho = 1.0 + 0.2 * np.cos(np.arange(3)[:, None] + x)
        m = 4.0 * np.sin(np.arange(3)[:, None] - x)  # partly outside Gamma_H
        dW = np.random.default_rng(1).standard_normal((3, model.n_modes))
        out = model.apply_forcing(x, rho, m, dW)
        assert out.shape == rho.shape
        for r in range(3):
            assert np.array_equal(out[r], model.apply_forcing(x, rho[r], m[r], dW[r]))

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
        force = rows.apply_forcing(x, rho, m, dW)
        quad = rows.forcing_quadratic(x, rho, m)
        for r, model in enumerate(lone):
            cap = model.n_modes
            assert np.array_equal(force[r], model.apply_forcing(x, rho[r], m[r], dW[r, :cap]))
            assert np.array_equal(quad[r], model.forcing_quadratic(x, rho[r], m[r]))
            for k in range(cap, rows.n_modes):
                assert not rows.zeta_eff(k, x, rho, m)[r].any()
        assert rows._region_indicator(rho, m)[0].min() < 1.0
        picked = rows.rows([2, 0])
        assert picked.H == (rows.H[2], rows.H[0]) and picked.mode_cap == (10, 2)
        assert np.array_equal(
            picked.apply_forcing(x, rho[[2, 0]], m[[2, 0]], dW[[2, 0]]), force[[2, 0]]
        )
        assert lone[0].rows([5, 7]) is lone[0]

    def test_wrong_increment_count(self, family):
        with pytest.raises(DomainError):
            family.apply_forcing(
                np.zeros(3), np.ones(3), np.zeros(3), np.zeros(2)
            )


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
