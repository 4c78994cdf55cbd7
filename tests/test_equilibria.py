import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from tde_plankton import equilibria, model
from tde_plankton.exceptions import (
    DomainError, NoCoexistenceError, NoSignChangeError, NotExistError,
)
from tde_plankton.model import ModelParams

from conftest import bisect_oracle, trapezoid


class TestThresholds:
    def test_nt1_against_bisection_oracle(self, table1):
        p = table1()
        oracle = bisect_oracle(
            lambda n: model.f_uptake(n, p) - p.lam / p.mu, 0.0, 1.0
        )
        assert equilibria.compute_nt1(p) == pytest.approx(oracle, abs=1e-12)
        assert equilibria.compute_nt1(p) == pytest.approx(2.8897e-3, abs=1e-7)

    def test_nt1_at_half_saturating_mortality(self):
        p = ModelParams(lam=5.9 / 2)
        assert equilibria.compute_nt1(p) == pytest.approx(p.k, rel=1e-14)

    def test_ceiling_matches_quoted_value(self, table1):
        p = table1(delta0=0.17)
        assert equilibria.m_ceiling(p) == pytest.approx(19.77, abs=0.01)

    def test_ceiling_infinite_without_juvenile_mortality(self, table1):
        assert math.isinf(equilibria.m_ceiling(table1(delta0=0.0)))

    def test_ceiling_unit_case(self):
        # gamma*g = delta*e with unit juvenile mortality gives a ceiling of 1
        p = ModelParams(gamma=1.0, g=math.e, delta=1.0, delta0=1.0)
        assert equilibria.m_ceiling(p) == pytest.approx(1.0, rel=1e-14)


class TestP2Star:
    def test_no_delay_closed_form(self, table1):
        for delta0 in (0.0, 0.17):
            p = table1(delta0=delta0, m=0.0)
            expect = model.h_inverse(p.delta / (p.gamma * p.g), p)
            assert equilibria.solve_p2star(p) == pytest.approx(expect, rel=1e-14)
            assert equilibria.solve_p2star(p) == pytest.approx(3.5941e-2, abs=1e-6)

    def test_maturity_six_against_oracle(self, table1):
        p = table1(delta0=0.17, m=6.0)

        def residual(q):
            return (
                model.r_growth(q, p)
                * math.log(p.gamma * p.g * model.h_grazing(q, p) / p.delta)
                - p.delta0 * p.m
            )

        oracle = bisect_oracle(residual, 0.04, 10.0, tol=1e-13)
        val = equilibria.solve_p2star(p)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(0.236, abs=1e-3)

    def test_blows_up_toward_ceiling(self, table1):
        vals = [
            equilibria.solve_p2star(table1(delta0=0.17, m=m))
            for m in (19.0, 19.5, 19.7)
        ]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 100.0 and math.isfinite(vals[2])

    def test_beyond_ceiling_rejected(self, table1):
        with pytest.raises(NoCoexistenceError):
            equilibria.solve_p2star(table1(delta0=0.17, m=19.8))

    def test_monotone_in_maturity(self, table1):
        grid = np.linspace(0.0, 17.0, 9)
        vals = [equilibria.solve_p2star(table1(delta0=0.17, m=float(m))) for m in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestNt2:
    def test_no_delay_value(self, table1):
        p = table1(delta0=0.17, m=0.0)
        expect = equilibria.compute_nt1(p) + equilibria.solve_p2star(p)
        assert equilibria.compute_nt2(p) == pytest.approx(expect, rel=1e-14)
        assert equilibria.compute_nt2(p) == pytest.approx(3.8831e-2, abs=1e-6)

    def test_independent_of_maturity_without_juvenile_mortality(self, table1):
        a = equilibria.compute_nt2(table1(delta0=0.0, m=0.0))
        b = equilibria.compute_nt2(table1(delta0=0.0, m=12.0))
        assert a == b

    def test_increases_with_maturity_under_mortality(self, table1):
        a = equilibria.compute_nt2(table1(delta0=0.17, m=0.0))
        b = equilibria.compute_nt2(table1(delta0=0.17, m=6.0))
        assert b > a

    def test_exceeds_nt1(self, table1):
        p = table1(delta0=0.17, m=6.0)
        assert equilibria.compute_nt2(p) > equilibria.compute_nt1(p)


def _independent_e2_oracle(p):
    """Nested bisection re-derivation of the coexistence state (test-local)."""
    p2 = bisect_oracle(
        lambda q: model.r_growth(q, p)
        * math.log(p.gamma * p.g * model.h_grazing(q, p) / p.delta)
        - p.delta0 * p.m,
        model.h_inverse(p.delta / (p.gamma * p.g), p) * (1 + 1e-10),
        1e3,
        tol=1e-13,
    ) if p.delta0 > 0 and p.m > 0 else model.h_inverse(p.delta / (p.gamma * p.g), p)
    r2 = model.r_growth(p2, p)
    disc = p.m / r2 if p.delta0 == 0 else (1 - math.exp(-p.delta0 * p.m / r2)) / p.delta0
    h2 = model.h_grazing(p2, p)

    def balance(n):
        z = (p.mu * model.f_uptake(n, p) - p.lam) * p2 / (p.g * h2)
        return n + p2 + z * (1 + p.gamma * p.g * h2 * disc) - p.n_total

    n2 = bisect_oracle(balance, equilibria.compute_nt1(p), p.n_total, tol=1e-14)
    z2 = (p.mu * model.f_uptake(n2, p) - p.lam) * p2 / (p.g * h2)
    return n2, p2, z2


class TestSolveE2:
    def test_table_values_against_nested_oracle(self, table1):
        p = table1(delta0=0.0, m=5.0, n_total=1.0)
        eq = equilibria.solve_e2(p)
        n2, p2, z2 = _independent_e2_oracle(p)
        assert eq.residual <= 1e-10 * max(1.0, p.n_total)
        assert eq.n_star == pytest.approx(n2, rel=1e-9)
        assert eq.p_star == pytest.approx(p2, rel=1e-9)
        assert eq.z_star == pytest.approx(z2, rel=1e-9)
        assert all(0 < v < p.n_total for v in (eq.n_star, eq.p_star, eq.z_star))

    def test_collapses_to_threshold_at_onset(self, table1):
        p = table1(delta0=0.17, m=4.0)
        nt2 = equilibria.compute_nt2(p)
        eq = equilibria.solve_e2(table1(delta0=0.17, m=4.0, n_total=nt2 * (1 + 1e-8)))
        assert eq.z_star < 1e-6
        assert eq.n_star == pytest.approx(equilibria.compute_nt1(p), rel=1e-6)

    def test_biomass_moves_nutrient_not_phytoplankton(self, table1):
        eqs = [
            equilibria.solve_e2(table1(delta0=0.17, m=6.0, n_total=nt))
            for nt in (1.0, 2.0, 4.0)
        ]
        assert eqs[0].p_star == eqs[1].p_star == eqs[2].p_star
        assert eqs[0].n_star < eqs[1].n_star < eqs[2].n_star
        assert eqs[0].z_star < eqs[1].z_star < eqs[2].z_star

    def test_below_threshold_rejected(self, table1):
        p = table1(delta0=0.17, m=6.0)
        nt2 = equilibria.compute_nt2(p)
        with pytest.raises(NotExistError):
            equilibria.solve_e2(table1(delta0=0.17, m=6.0, n_total=0.9 * nt2))

    def test_delta0_continuity(self, table1):
        a = equilibria.solve_e2(table1(delta0=1e-8, m=5.0, n_total=1.0))
        b = equilibria.solve_e2(table1(delta0=0.0, m=5.0, n_total=1.0))
        assert a.n_star == pytest.approx(b.n_star, rel=1e-5)
        assert a.z_star == pytest.approx(b.z_star, rel=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        m_frac=st.floats(min_value=0.0, max_value=0.9),
        lg_nt=st.floats(min_value=0.05, max_value=2.0),
        delta0=st.sampled_from([0.0, 0.05, 0.17]),
        l=st.floats(min_value=0.02, max_value=1.0),
    )
    def test_residual_property(self, m_frac, lg_nt, delta0, l):
        p = ModelParams(delta0=delta0, l=l, m=0.0, n_total=1.0)
        ceiling = equilibria.m_ceiling(p)
        m = m_frac * min(ceiling, 30.0)
        p = ModelParams(delta0=delta0, l=l, m=m, n_total=1.0)
        nt2 = equilibria.compute_nt2(p)
        p = ModelParams(delta0=delta0, l=l, m=m, n_total=nt2 * 10 ** lg_nt)
        eq = equilibria.solve_e2(p)
        assert eq.residual <= 1e-10 * max(1.0, p.n_total)
        assert equilibria.compute_nt2(p) > equilibria.compute_nt1(p)
        # coexistence implies the phytoplankton-only state exists too
        assert equilibria.solve_e1(p).exists


def maturity_residual(q, p):
    return (model.r_growth(q, p) * math.log(p.gamma * p.g * model.h_grazing(q, p) / p.delta)
            - p.delta0 * p.m)


def biomass_balance(n, p2, p):
    """solve_e2's balance: total biomass at nutrient level n minus n_total."""
    boost = 1.0 + p.gamma * p.g * model.h_grazing(p2, p) * equilibria.maturity_discount(p2, p)
    return n + p2 + equilibria._z_from_n(n, p2, p) * boost - p.n_total


def sign_change_near(fn, x):
    """fn takes both signs (or zero) on the floats within 4*eps*|x| of x, the
    bracket width at which Brent's method stops (4 to 8 ulp of x)."""
    width, vals = equilibria.BRENT_RTOL * abs(x), [fn(x)]
    for toward in (-math.inf, math.inf):
        t = math.nextafter(x, toward)
        while abs(t - x) <= width:
            vals.append(fn(t))
            t = math.nextafter(t, toward)
    return min(vals) <= 0.0 <= max(vals)


class TestBrentRoots:
    @settings(max_examples=80, deadline=None)
    @given(
        delta0=st.sampled_from([0.0, 0.17]),
        l=st.sampled_from([None, 0.159]),
        m_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        lg_nt=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_roots_sit_on_a_sign_change(self, delta0, l, m_frac, lg_nt):
        base = ModelParams(delta0=delta0, l=l)
        m = m_frac * min(0.98 * equilibria.m_ceiling(base), 19.7)
        p = ModelParams(delta0=delta0, l=l, m=m)
        p2 = equilibria.solve_p2star(p)
        p_base = model.h_inverse(p.delta / (p.gamma * p.g), p)
        if p2 == p_base * (1.0 + 1e-12):  # the shortcut for a tiny delta0*m
            assert maturity_residual(p_base, p) <= 0.0 <= maturity_residual(p2, p)
        else:
            assert sign_change_near(lambda q: maturity_residual(q, p), p2)
        p = ModelParams(delta0=delta0, l=l, m=m, n_total=equilibria.compute_nt2(p) * 10**lg_nt)
        eq = equilibria.solve_e2(p)
        assert sign_change_near(lambda n: biomass_balance(n, p2, p), eq.n_star)

    @pytest.mark.parametrize("l", [None, 0.159])
    def test_tiny_delay_cost_returns_the_lower_end(self, l):
        # delta0*m so small that the residual is already >= 0 at 1e-12 above
        # the grazing threshold: the root lies in between
        p = ModelParams(delta0=0.17, l=l, m=1e-13)
        p_base = model.h_inverse(p.delta / (p.gamma * p.g), p)
        p2 = equilibria.solve_p2star(p)
        assert p2 == p_base * (1.0 + 1e-12)
        assert maturity_residual(p_base, p) <= 0.0 <= maturity_residual(p2, p)


def _outcome(solve, f, a, b, **kw):
    """The root's repr (which tells -0.0 from 0.0), or the exception's type."""
    try:
        return repr(solve(f, a, b, **kw))
    except (ValueError, RuntimeError) as err:
        return type(err).__name__


class TestBrentSolver:
    """The package's Brent solver returns what scipy.optimize.brentq returns."""

    TOLERANCES = [(1e-300, equilibria.BRENT_RTOL), (2e-12, equilibria.BRENT_RTOL),
                  (1e-300, 1e-10)]
    SHAPES = {
        "linear": lambda x, r: x - r,
        "cubic": lambda x, r: (x - r) ** 3,
        "quintic": lambda x, r: (x - r) ** 5,
        "atan": lambda x, r: math.atan(8.0 * (x - r)) + 0.01 * (x - r),
        "expm1": lambda x, r: math.expm1(x - r),
    }

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        root=st.floats(min_value=-10.0, max_value=10.0),
        below=st.floats(min_value=1e-6, max_value=20.0),
        above=st.floats(min_value=1e-6, max_value=20.0),
        # down to 1e-300, where values and slopes underflow and the `- delta`
        # of the short-step test decides steps
        decade=st.sampled_from([-300, -250, -200, -150, -100, 0, 100, 200]),
        frac=st.floats(min_value=0.0, max_value=1.0),
        sign=st.sampled_from([-1.0, 1.0]),
        swap=st.booleans(),
    )
    def test_bit_equal_to_scipy(self, shape, root, below, above, decade, frac, sign, swap):
        scale = sign * 10.0 ** (decade + frac)
        fn = self.SHAPES[shape]

        def f(x):
            return scale * fn(x, root)

        a, b = root - below, root + above
        if swap:
            a, b = b, a
        for xtol, rtol in self.TOLERANCES:
            ours = _outcome(equilibria.brentq, f, a, b, xtol=xtol, rtol=rtol)
            assert ours == _outcome(scipy_brentq, f, a, b, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize("f, a, b, expect", [
        (lambda x: x - 1.0, 1.0, 3.0, "1.0"),  # exact zero at a
        (lambda x: x - 3.0, 1.0, 3.0, "3.0"),  # exact zero at b
        (lambda x: -0.0 if x == 1.0 else x - 0.5, 1.0, -2.0, "1.0"),  # f(a) = -0.0
        (lambda x: x * x + 1.0, -1.0, 2.0, "ValueError"),  # positive at both ends
        (lambda x: -x * x - 0.1, 1.0, 2.0, "ValueError"),  # negative at both ends
        (lambda x: math.nan if x == 1.0 else x, -1.0, 1.0, "ValueError"),  # NaN at b
        # the first secant step lands at 0.3, where f is NaN
        (lambda x: x - 0.3 if abs(x) > 0.5 else math.nan, -1.0, 1.0, "ValueError"),
        # f takes two values, so every step bisects, and 100 halvings of 2
        # do not reach 1e-300 next to the root at 0
        (lambda x: math.copysign(1.0, x), -1.0, 2.0, "RuntimeError"),
        # slopes underflow to 0: scipy's step divides by zero and bisects
        (lambda x: 3.3e-228 * (x + 2.62) ** 3, -20.9, 6.86, "-2.6200000000000006"),
    ])
    def test_edge_cases_match_scipy(self, f, a, b, expect):
        kw = dict(xtol=1e-300, rtol=equilibria.BRENT_RTOL)
        ours = _outcome(equilibria.brentq, f, a, b, **kw)
        assert ours == _outcome(scipy_brentq, f, a, b, **kw)
        assert ours == expect

    def test_error_from_the_function_propagates(self):
        def lost(x):
            raise NoSignChangeError(f"no root at {x}")

        with pytest.raises(NoSignChangeError, match="no root at 0.0"):
            equilibria.brentq(lost, 0.0, 1.0, xtol=1e-300, rtol=equilibria.BRENT_RTOL)

    def test_roots_are_python_floats(self):
        root = equilibria.brentq(lambda x: np.float64(x) - 0.25, np.float64(0.0), 1,
                                 xtol=1e-300, rtol=equilibria.BRENT_RTOL)
        assert type(root) is float and type(equilibria.BRENT_RTOL) is float


class TestSpectrum:
    def test_zero_for_phytoplankton_only(self, table1):
        p = table1(delta0=0.17, m=5.0, n_total=0.02)
        e1 = equilibria.solve_e1(p)
        s = np.linspace(0, p.m, 7)
        assert np.all(equilibria.equilibrium_spectrum(e1, s, p) == 0.0)

    def test_flat_without_juvenile_mortality(self, table1):
        p = table1(delta0=0.0, m=5.0, n_total=1.0)
        e2 = equilibria.solve_e2(p)
        s = np.linspace(0, p.m, 9)
        rho = equilibria.equilibrium_spectrum(e2, s, p)
        expect = (
            p.gamma * p.g * e2.z_star * model.h_grazing(e2.p_star, p)
            / model.r_growth(e2.p_star, p)
        )
        assert np.all(rho == pytest.approx(expect, rel=1e-14))

    def test_conservation_closure_by_quadrature(self, table1):
        # oracle: 1e4-panel trapezoid of the spectrum closes the biomass budget
        p = table1(delta0=0.17, m=6.0, n_total=1.0)
        e2 = equilibria.solve_e2(p)
        s = np.linspace(0.0, p.m, 10_001)
        pool = trapezoid(equilibria.equilibrium_spectrum(e2, s, p), s)
        total = e2.n_star + e2.p_star + e2.z_star + pool
        assert total == pytest.approx(p.n_total, abs=1e-8)

    def test_outside_maturity_range_rejected(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=1.0)
        e2 = equilibria.solve_e2(p)
        with pytest.raises(DomainError):
            equilibria.equilibrium_spectrum(e2, 6.5, p)


class TestSweep:
    def test_regimes_partition_the_grid(self, table1):
        p = table1(delta0=0.17, m=5.0)
        nt1 = equilibria.compute_nt1(p)
        nt2 = equilibria.compute_nt2(p)
        grid = np.logspace(-4, 2, 200)
        rows = equilibria.classify_and_sweep(p, grid)
        for row in rows:
            if row.kind == "degenerate":
                continue
            if row.n_total < nt1:
                assert row.kind == "e0"
                assert row.n_star == row.n_total and row.p_star == 0.0
            elif row.n_total < nt2:
                assert row.kind == "E1"
                assert row.n_star == pytest.approx(nt1, rel=1e-12)
            else:
                assert row.kind == "E2"
                assert row.z_star > 0

    def test_phytoplankton_linear_in_middle_regime(self, table1):
        p = table1(delta0=0.17, m=5.0)
        nt1 = equilibria.compute_nt1(p)
        nt2 = equilibria.compute_nt2(p)
        grid = np.linspace(nt1 * 1.5, nt2 * 0.9, 20)
        rows = equilibria.classify_and_sweep(p, grid)
        for row in rows:
            assert row.p_star == pytest.approx(row.n_total - nt1, rel=1e-12)

    def test_threshold_point_tagged_degenerate(self, table1):
        p = table1(delta0=0.17, m=5.0)
        nt2 = equilibria.compute_nt2(p)
        rows = equilibria.classify_and_sweep(p, np.array([nt2 * 0.5, nt2, nt2 * 2]))
        assert rows[1].kind == "degenerate"
        assert math.isnan(rows[1].n_star)

    def test_decreasing_grid_rejected(self, table1):
        with pytest.raises(DomainError):
            equilibria.classify_and_sweep(table1(), np.array([1.0, 0.5]))


class TestResolveRStar:
    def test_prefers_coexistence_equilibrium(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=1.0)
        e2 = equilibria.solve_e2(p)
        assert equilibria.resolve_r_star(p).r_star == pytest.approx(
            model.r_growth(e2.p_star, p), rel=1e-14
        )

    def test_falls_back_to_phytoplankton_only(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=0.02)
        e1 = equilibria.solve_e1(p)
        assert equilibria.resolve_r_star(p).r_star == pytest.approx(
            model.r_growth(e1.p_star, p), rel=1e-14
        )

    def test_falls_back_to_total_biomass(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=1e-3)
        assert equilibria.resolve_r_star(p).r_star == pytest.approx(
            model.r_growth(1e-3, p), rel=1e-14
        )

    def test_explicit_value_wins(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=1.0, r_star=0.25)
        assert equilibria.resolve_r_star(p).r_star == 0.25
