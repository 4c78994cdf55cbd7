import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tde_plankton import cli, equilibria, model, simulate
from tde_plankton.exceptions import (
    DomainError,
    InsufficientHistoryError,
    ParamError,
    SingularRateError,
)
from tde_plankton.model import ModelParams, StateNPZ

from conftest import bisect_oracle


class TestParams:
    def test_defaults_valid(self, table1):
        p = table1()
        assert p.mu == 5.9 and p.kk == 1.0

    def test_mortality_exceeding_uptake_rejected(self):
        with pytest.raises(ParamError):
            ModelParams(lam=7.0)

    def test_grazing_unable_to_beat_mortality_rejected(self):
        with pytest.raises(ParamError):
            ModelParams(delta=5.0)

    def test_negative_juvenile_mortality_rejected(self):
        with pytest.raises(ParamError):
            ModelParams(delta0=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("delta0", math.nan), ("m", math.nan), ("m", math.inf), ("mu", math.inf),
        ("l", math.inf), ("r_star", math.inf), ("r_floor", math.inf),
    ])
    def test_non_finite_value_rejected(self, name, value):
        with pytest.raises(ParamError, match=name):
            ModelParams(**{name: value})


class TestResponses:
    def test_f_anchor_values(self, table1):
        p = table1()
        assert model.f_uptake(0.0, p) == 0.0
        assert model.f_uptake(p.k, p) == 0.5
        assert abs(model.f_uptake(1e6 * p.k, p) - 1.0) < 1e-5

    def test_h_anchor_values(self, table1):
        p = table1()
        assert model.h_grazing(0.0, p) == 0.0
        assert model.h_grazing(p.kk, p) == 0.5

    def test_h_strictly_increasing(self, table1):
        p = table1()
        grid = np.linspace(0.0, 100.0, 500)
        assert np.all(model.h_grazing_prime(grid, p) > 0)
        assert np.all(np.diff(model.h_grazing(grid, p)) > 0)

    def test_r_constant_variant(self, table1):
        p = table1(l=None)
        assert model.r_growth(3.7, p) == 1.0
        assert model.r_growth_prime(3.7, p) == 0.0

    def test_r_half_saturation(self, table1):
        p = table1(l=0.159)
        assert model.r_growth(0.159, p) == pytest.approx(0.5, abs=1e-15)

    def test_r_saturates_to_one(self, table1):
        for l in (None, 0.159):
            p = table1(l=l)
            assert model.r_growth(1e9, p) == pytest.approx(1.0, abs=1e-8)

    def test_negative_argument_rejected(self, table1):
        p = table1()
        for fn in (model.f_uptake, model.h_grazing, model.r_growth):
            with pytest.raises(DomainError):
                fn(-1e-9, p)

    def test_derivatives_match_centered_differences(self, table1):
        # range capped where the derivatives stay clear of the FD roundoff
        # floor eps/(step*|f'|); beyond p ~ 20 the saturating slopes drop
        # under it and no implementation could meet the tolerance
        p = table1()
        grid = np.linspace(0.05, 10.0, 301)
        step = 1e-6
        for fn, dfn in (
            (model.f_uptake, model.f_uptake_prime),
            (model.h_grazing, model.h_grazing_prime),
            (model.r_growth, model.r_growth_prime),
        ):
            fd = (fn(grid + step, p) - fn(grid - step, p)) / (2 * step)
            an = dfn(grid, p)
            assert np.max(np.abs(fd - an) / np.abs(an)) <= 1e-6

    def test_h_over_r_bounded_near_zero(self, table1):
        p = table1(l=0.159)
        seq = 10.0 ** np.arange(-1, -14, -1)
        ratio = model.h_grazing(seq, p) / model.r_growth(seq, p)
        assert np.all(np.isfinite(ratio))
        assert ratio[-1] == pytest.approx(p.l / p.kk, rel=1e-9)


class TestInverses:
    def test_half_saturation_identity(self, table1):
        p = table1()
        assert model.f_inverse(0.5, p) == pytest.approx(p.k, abs=1e-15)
        assert model.h_inverse(0.5, p) == pytest.approx(p.kk, abs=1e-15)

    def test_f_inverse_at_mortality_ratio(self, table1):
        # oracle: bisection on f(N) = lam/mu, independent of the closed form
        p = table1()
        target = p.lam / p.mu
        oracle = bisect_oracle(lambda n: model.f_uptake(n, p) - target, 0.0, 1.0)
        val = model.f_inverse(target, p)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(2.8897e-3, abs=1e-7)

    def test_h_inverse_at_mortality_ratio(self, table1):
        p = table1()
        target = p.delta / (p.gamma * p.g)
        oracle = bisect_oracle(lambda q: model.h_grazing(q, p) - target, 0.0, 1.0)
        val = model.h_inverse(target, p)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(3.5941e-2, abs=1e-6)

    def test_out_of_range_rejected(self, table1):
        p = table1()
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                model.f_inverse(bad, p)
            with pytest.raises(DomainError):
                model.h_inverse(bad, p)

    @settings(max_examples=80, deadline=None)
    @given(n=st.floats(min_value=1e-6, max_value=100.0))
    def test_roundtrip_property(self, n):
        p = ModelParams()
        assert model.f_inverse(model.f_uptake(n, p), p) == pytest.approx(n, rel=1e-12)
        assert model.h_inverse(model.h_grazing(n, p), p) == pytest.approx(n, rel=1e-12)


class TestDdeRhs:
    def test_zero_at_coexistence_equilibrium(self, table1):
        for delta0 in (0.0, 0.17):
            p = table1(delta0=delta0, m=5.0, n_total=1.0)
            eq = equilibria.solve_e2(p)
            p = equilibria.resolve_r_star(p)
            st_eq = StateNPZ(eq.n_star, eq.p_star, eq.z_star)
            tau = p.m / model.r_growth(eq.p_star, p)
            rate = model.dde_rhs(st_eq, st_eq, tau, p)
            assert max(abs(r) for r in rate) <= 1e-12 * max(1.0, p.n_total)

    def test_zero_predator_decouples(self, table1):
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=5.0, n_total=1.0))
        cur = StateNPZ(0.4, 0.2, 0.0)
        rate = model.dde_rhs(cur, cur, p.m / model.r_growth(0.2, p), p)
        assert rate.z == 0.0
        pref = p.r_star / model.r_growth(0.2, p)
        expect_p = pref * (p.mu * 0.2 * model.f_uptake(0.4, p) - p.lam * 0.2)
        assert rate.p == pytest.approx(expect_p, rel=1e-14)

    def test_singular_rate_guard(self, table1):
        p = equilibria.resolve_r_star(table1(m=5.0, n_total=1.0))
        tiny = StateNPZ(0.5, 1e-16, 0.1)
        with pytest.raises(SingularRateError):
            model.dde_rhs(tiny, tiny, 1.0, p)

    def test_nonpositive_phytoplankton_rejected(self, table1):
        p = equilibria.resolve_r_star(table1(m=5.0, n_total=1.0))
        bad = StateNPZ(0.5, 0.0, 0.1)
        with pytest.raises(DomainError):
            model.dde_rhs(bad, bad, 1.0, p)


def _rhs_reference(cur, dl, tau, p):
    """The fixed-delay right-hand side spelled out with the public responses."""
    pref = p.r_star / model.r_growth(cur.p, p)
    growth = p.mu * cur.p * model.f_uptake(cur.n, p)
    graze = p.g * cur.z * model.h_grazing(cur.p, p)
    recycle = (
        p.lam * cur.p + p.delta * cur.z + (1.0 - p.gamma) * graze
        + p.delta0 * (p.n_total - cur.n - cur.p - cur.z)
    )
    birth = (
        p.gamma * p.g * math.exp(-p.delta0 * tau) * (p.r_star / model.r_growth(dl.p, p))
        * dl.z * model.h_grazing(dl.p, p)
    )
    return (pref * (-growth + recycle), pref * (growth - p.lam * cur.p - graze),
            birth - pref * p.delta * cur.z)


_pool = st.floats(min_value=1e-6, max_value=10.0)


class TestRhsKernel:
    @settings(max_examples=200, deadline=None)
    @given(state=st.tuples(_pool, _pool, _pool, _pool, _pool),
           tau=st.floats(min_value=0.0, max_value=50.0),
           delta0=st.sampled_from([0.0, 0.17]),
           l=st.sampled_from([None, 0.159]))
    def test_kernel_matches_dde_rhs_bit_for_bit(self, state, tau, delta0, l):
        n, p_cur, z, p_del, z_del = state
        p = ModelParams(delta0=delta0, l=l, m=5.0, n_total=3.0, r_star=0.7)
        cur, dl = StateNPZ(n, p_cur, z), StateNPZ(0.5, p_del, z_del)
        kernel = model.rhs_kernel(p)(n, p_cur, z, p_del, z_del, tau)
        public = model.dde_rhs(cur, dl, tau, p)
        assert kernel == tuple(public)
        assert kernel == _rhs_reference(cur, dl, tau, p)

    def test_kernel_keeps_the_singular_rate_guard(self, table1):
        p = equilibria.resolve_r_star(table1(m=5.0, n_total=1.0))
        with pytest.raises(SingularRateError):
            model.rhs_kernel(p)(0.5, 0.2, 0.1, 1e-16, 0.1, 1.0)

    def test_dde_rhs_keeps_its_errors(self, table1):
        p = equilibria.resolve_r_star(table1(m=5.0, n_total=1.0))
        good = StateNPZ(0.5, 0.2, 0.1)
        with pytest.raises(DomainError):
            model.dde_rhs(good, StateNPZ(0.5, -0.1, 0.1), 1.0, p)
        with pytest.raises(DomainError):
            model.dde_rhs(StateNPZ(-0.5, 0.2, 0.1), good, 1.0, p)
        with pytest.raises(SingularRateError):
            model.dde_rhs(good, StateNPZ(0.5, 1e-16, 0.1), 1.0, p)
        with pytest.raises(ParamError):
            model.dde_rhs(good, good, 1.0, table1(m=5.0, n_total=1.0))


def _pool_loop(t_hat, p, z, lag, params):
    """The juvenile pool of every window of lag + 1 samples, one panel at a time."""
    rs = params.r_star
    out = []
    for k in range(len(t_hat) - lag):
        dt = t_hat[k + 1] - t_hat[k] if lag else 0.0
        tau = acc = 0.0
        for back in range(lag + 1):
            i = k + lag - back
            if back:
                tau += 0.5 * dt * (rs / model.r_growth(p[i], params)
                                   + rs / model.r_growth(p[i + 1], params))
            weight = 0.5 if back in (0, lag) else 1.0
            acc += (weight * math.exp(-params.delta0 * tau) * params.gamma * params.g * z[i]
                    * model.h_grazing(p[i], params) / model.r_growth(p[i], params))
        out.append(rs * dt * acc)
    return np.array(out)


class TestJuvenilePool:
    def _run(self, m, panels):
        p = equilibria.resolve_r_star(ModelParams(delta0=0.17, l=0.159, m=m, n_total=3.0))
        dt = p.m / p.r_star / panels if m else 0.05
        buf = simulate.build_initial(simulate.HistorySpec.at_equilibrium(0.05, -0.05), p, dt)
        traj = simulate.integrate(buf, 3 * p.m / p.r_star if m else 2.0)
        series = [np.concatenate([getattr(buf, k)[:-1], getattr(traj, k)]) for k in ("t_hat", "p", "z")]
        return p, buf.n_delay_panels, series

    def test_no_delay_gives_zeros(self):
        p, lag, (t, pp, z) = self._run(0.0, 0)
        assert lag == 0
        assert model.juvenile_pool(t, pp, z, lag, p).tolist() == [0.0] * t.size

    def test_single_window_matches_a_loop(self, table1):
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=6.0, n_total=3.0))
        rng = np.random.default_rng(5)
        t = np.linspace(-p.m / p.r_star, 0.0, 41)
        pp, z = rng.uniform(0.05, 1.0, t.size), rng.uniform(0.0, 1.0, t.size)
        pool = model.juvenile_pool(t, pp, z, 40, p)
        assert pool.shape == (1,)
        np.testing.assert_allclose(pool, _pool_loop(t, pp, z, 40, p), rtol=1e-13, atol=0)

    def test_run_windows_match_a_loop(self):
        # three delays of windows span several blocks of lag windows
        p, lag, (t, pp, z) = self._run(6.0, 32)
        pool = model.juvenile_pool(t, pp, z, lag, p)
        assert pool.size == t.size - lag and np.ptp(pool) > 0
        np.testing.assert_allclose(pool, _pool_loop(t, pp, z, lag, p), rtol=1e-13, atol=0)

    @staticmethod
    def _random_series(params, lag, size, seed):
        rng = np.random.default_rng(seed)
        t = params.m / params.r_star / lag * (np.arange(size, dtype=float) - lag)
        return t, rng.uniform(0.05, 1.0, size), rng.uniform(0.0, 1.0, size)

    def test_jittered_steps_match_a_loop(self, table1):
        # stored times drift from the grid by about 1e-11 of a step over long
        # runs; each window keeps its own step, in the exponent as well
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=6.0, n_total=3.0))
        t, pp, z = self._random_series(p, 40, 200, 7)
        rng = np.random.default_rng(8)
        t = t[0] + np.concatenate(([0.0], np.cumsum(
            np.diff(t) * (1.0 + 1e-11 * rng.standard_normal(t.size - 1)))))
        pool = model.juvenile_pool(t, pp, z, 40, p)
        np.testing.assert_allclose(pool, _pool_loop(t, pp, z, 40, p), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("delta0", [0.17, 30.0])
    def test_wide_discount_ranges_match_a_loop(self, table1, delta0, monkeypatch):
        # m = 19.7 at delta0 = 0.17 is the coexistence ceiling, the widest
        # discount of the runs; at delta0 = 30 the discount over a delay,
        # more than exp(-delta0*m) as R < 1, passes POOL_EXP_SPAN, so the
        # blocks hold fewer windows than the lag
        p = equilibria.resolve_r_star(table1(delta0=delta0, m=19.7, n_total=3.0))
        assert (delta0 * p.m > model.POOL_EXP_SPAN) == (delta0 > 1)
        lag = 200
        t, pp, z = self._random_series(p, lag, 3 * lag, 9)
        pool = model.juvenile_pool(t, pp, z, lag, p)
        np.testing.assert_allclose(pool, _pool_loop(t, pp, z, lag, p), rtol=1e-13, atol=0)
        # one block per group gives the same floats
        monkeypatch.setattr(model, "POOL_GROUP_ENTRIES", 1)
        assert model.juvenile_pool(t, pp, z, lag, p).tobytes() == pool.tobytes()

    #: Bound on the traced peak of one pool call: a few temporaries of one
    #: group of POOL_GROUP_ENTRIES float64 entries, whatever the rows and lag.
    POOL_PEAK_BOUND = 8 * 8 * model.POOL_GROUP_ENTRIES

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_extinction_run_pool_memory_is_bounded(self, tmp_path, monkeypatch):
        # as P collapses 1/R grows, the blocks shrink to a few windows, and
        # each still spans the lag of 20,000 samples
        calls = []
        pool = model.juvenile_pool

        def traced(*args):
            calls.append((args[3], self._traced_peak(pool, *args)))
            return pool(*args)

        monkeypatch.setattr(model, "juvenile_pool", traced)
        assert cli.main(["simulate", "--preset", "extinction", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "metadata.json").read_text())["termination"] == "extinction"
        assert [lag for lag, _ in calls] == [20_000, 20_000]
        assert max(peak for _, peak in calls) <= self.POOL_PEAK_BOUND

    def test_long_lag_pool_memory_is_bounded(self):
        # a lag of 80,000 samples with P falling a decade per 8,000 steps
        p = equilibria.resolve_r_star(ModelParams(delta0=0.3, l=0.159, m=6.0, n_total=3.0))
        lag, n_out = 80_000, 100
        t, _, _ = self._random_series(p, lag, lag + n_out, 0)
        pp, z = np.geomspace(0.3, 1e-7, t.size), np.full(t.size, 1e-3)
        assert self._traced_peak(model.juvenile_pool, t, pp, z, lag, p) <= self.POOL_PEAK_BOUND


class TestConservationValue:
    def test_equilibrium_window_closes_by_construction(self, table1):
        # the initial-history builder uses the same quadrature, so the
        # functional returns the total biomass bit-for-bit at time zero
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=6.0, n_total=1.0))
        big_t = p.m / p.r_star
        buf = simulate.build_initial(simulate.HistorySpec.at_equilibrium(0, 0), p, big_t / 200)
        val = model.conservation_value(buf.t_hat, buf.n, buf.p, buf.z, p)
        assert val == pytest.approx(p.n_total, rel=1e-10)

    def test_empty_juvenile_pool_reduces_to_sum(self, table1):
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=6.0, n_total=1.0))
        big_t = p.m / p.r_star
        grid = np.linspace(-big_t, 0.0, 201)
        n = np.full(grid.size, 0.3)
        pp = np.full(grid.size, 0.2)
        z = np.zeros(grid.size)
        val = model.conservation_value(grid, n, pp, z, p)
        assert val == pytest.approx(0.5, rel=1e-14)

    def test_short_window_rejected(self, table1):
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=6.0, n_total=1.0))
        big_t = p.m / p.r_star
        grid = np.linspace(-big_t / 2, 0.0, 101)
        ones = np.full(grid.size, 0.1)
        with pytest.raises(InsufficientHistoryError):
            model.conservation_value(grid, ones, ones, ones, p)

    def test_nonuniform_grid_rejected(self, table1):
        p = equilibria.resolve_r_star(table1(delta0=0.17, m=6.0, n_total=1.0))
        big_t = p.m / p.r_star
        grid = np.concatenate([np.linspace(-big_t, -0.5, 150), np.linspace(-0.49, 0, 60)])
        ones = np.full(grid.size, 0.1)
        with pytest.raises(DomainError):
            model.conservation_value(grid, ones, ones, ones, p)
