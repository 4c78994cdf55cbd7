import cmath
import dataclasses
import importlib.util
import itertools
import math
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import lambertw

from tde_plankton import equilibria, linearize, model
from tde_plankton.exceptions import DomainError, SingularRateError
from tde_plankton.linearize import LinearizationData
from tde_plankton.model import ModelParams


def e1_lin(table1, delta0=0.17, l=None, m=1.5, nt=0.02):
    p = table1(delta0=delta0, l=l, m=m, n_total=nt)
    e1 = equilibria.solve_e1(p)
    return p, e1, linearize.build_linearization(e1, p)


def e2_lin(table1, delta0=0.17, l=0.159, m=6.0, nt=1.0):
    p = table1(delta0=delta0, l=l, m=m, n_total=nt)
    e2 = equilibria.solve_e2(p)
    return p, e2, linearize.build_linearization(e2, p)


def triple_product(s, p, e1, lin):
    return (
        (s + p.mu * e1.p_star * lin.coeff_a)
        * (s + p.delta0)
        * (s + p.delta
           - p.gamma * p.g * lin.coeff_d * np.exp(-(p.delta0 + s) * lin.t_delay))
    )


def product_scale(s, p, e1, lin):
    return (
        (np.abs(s) + p.mu * e1.p_star * lin.coeff_a)
        * (np.abs(s) + p.delta0 + 1.0)
        * (np.abs(s) + p.delta
           + p.gamma * p.g * lin.coeff_d * np.exp(-np.real(s) * lin.t_delay))
    )


class TestBuild:
    def test_limit_point_rejected(self, table1):
        p = table1(n_total=1e-4)
        with pytest.raises(DomainError):
            linearize.build_linearization(equilibria.limit_point(p), p)

    def test_e1_bottom_row_decouples(self, table1):
        p, e1, lin = e1_lin(table1)
        assert np.allclose(lin.a1[2], [0.0, 0.0, -p.delta])
        assert lin.a2[2, 1] == 0.0  # no grazing feedback without grazers

    def test_a3_vanishes_without_juvenile_mortality(self, table1):
        _, _, lin = e2_lin(table1, delta0=0.0, m=5.0)
        assert np.all(lin.a3 == 0.0)
        assert np.all(lin.a2[:2] == 0.0)

    def test_reference_rate_pinned_to_equilibrium(self, table1):
        p, e2, lin = e2_lin(table1)
        assert lin.t_delay == pytest.approx(
            p.m / model.r_growth(e2.p_star, p), rel=1e-14
        )


class TestCharFn:
    def test_e1_triple_factorization(self, table1):
        p, e1, lin = e1_lin(table1)
        rng = np.random.default_rng(3)
        s = rng.uniform(-30, 30, 300) + 1j * rng.uniform(-30, 30, 300)
        gap = np.abs(linearize.char_fn(s, lin) - triple_product(s, p, e1, lin))
        assert np.max(gap / product_scale(s, p, e1, lin)) <= 1e-10

    def test_explicit_root_at_minus_delta0(self, table1):
        p, e1, lin = e1_lin(table1)
        val = linearize.char_fn(complex(-p.delta0), lin)
        assert abs(val) <= 1e-12 * linearize.char_scale(complex(-p.delta0), lin)

    def test_no_delay_matches_dense_eigen_oracle(self, table1):
        p, _, lin = e2_lin(table1, m=0.0)
        assert lin.t_delay == 0.0
        ev = np.linalg.eigvals(lin.a1 + lin.a2)
        for s in (0.3 + 0.2j, -1.0 + 5.0j, 2.0 + 0.0j, -0.05 - 0.7j):
            poly = complex(np.prod(s - ev))
            assert linearize.char_fn(s, lin) == pytest.approx(poly, rel=1e-10)

    @pytest.mark.parametrize("side, dkern_rtol", [
        (1.0 - 1e-9, 1e-8),  # series: drops s^2 T^4 / 8, a relative (sT)^2 / 4 = 2.5e-9
        (1.0 + 1e-9, 1e-7),  # quotient: 1 - exp(-sT) cancels, about 2 eps / (sT)^2 = 2e-8
    ])
    def test_kernel_branches_agree_at_switch(self, table1, side, dkern_rtol):
        """The package's kernels just inside and just outside SERIES_SWITCH
        against the direct quotients K = (1 - e)/s and K' = (T e - K)/s,
        e = exp(-s*T), taken in 40-digit arithmetic."""
        mpmath = pytest.importorskip("mpmath")
        _, _, lin = e2_lin(table1)
        big_t = lin.t_delay
        s = (side * linearize.SERIES_SWITCH / big_t) * np.exp(
            1j * np.linspace(0, 2 * math.pi, 64)
        )
        with mpmath.workdps(40):
            exact = []
            for x in s.tolist():
                x, t = mpmath.mpc(x), mpmath.mpf(big_t)
                e = mpmath.exp(-x * t)
                kern = (1 - e) / x
                exact.append((complex(kern), complex((t * e - kern) / x)))
        kern, dkern = np.array(exact).T
        _, got_kern, got_dkern = linearize._delay_terms(s, big_t)
        scalar = np.array([linearize._delay_terms_scalar(x, big_t)[1] for x in s.tolist()])
        for got in (got_kern, scalar):
            assert np.max(np.abs(got - kern) / np.abs(kern)) <= 1e-10
        assert np.max(np.abs(got_dkern - dkern) / np.abs(dkern)) <= dkern_rtol

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-8, 8), im=st.floats(-8, 8))
    def test_conjugate_symmetry(self, re, im):
        p = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        e2 = equilibria.solve_e2(p)
        lin = linearize.build_linearization(e2, p)
        s = complex(re, im)
        assert linearize.char_fn(np.conj(s), lin) == pytest.approx(
            np.conj(linearize.char_fn(s, lin)), rel=1e-12, abs=1e-300
        )

    def test_periodic_in_delay_without_juvenile_mortality(self, table1):
        _, _, lin = e2_lin(table1, delta0=0.0, m=5.0)
        rng = np.random.default_rng(5)
        for _ in range(30):
            omega = float(10 ** rng.uniform(-1, 1))
            shifted = dataclasses.replace(lin, t_delay=lin.t_delay + 2 * math.pi / omega)
            a = linearize.char_fn(1j * omega, lin)
            b = linearize.char_fn(1j * omega, shifted)
            assert abs(a - b) <= 1e-11 * linearize.char_scale(1j * omega, lin)


def reference_matrix(s: complex, lin: LinearizationData) -> np.ndarray:
    """s*I - A1 - exp(-s*T) A2 - K(s) A3, assembled from the three matrices."""
    big_t = lin.t_delay
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(np.complex128(-s * big_t))
        if abs(s) * big_t < 0.1:
            # K = T * sum_n (-s*T)^n / (n+1)!
            kern = big_t * sum((-s * big_t) ** n / math.factorial(n + 1) for n in range(16))
        else:
            kern = (1.0 - e) / s
        return s * np.eye(3) - lin.a1 - e * lin.a2 - kern * lin.a3


@st.composite
def lin_and_point(draw):
    """A coexistence linearization and a point s of one of five kinds."""
    delta0 = draw(st.sampled_from([0.0, 0.17]))
    l = draw(st.sampled_from([None, 0.159]))
    m = draw(st.one_of(st.just(0.0), st.floats(0.5, 6.0), st.floats(12.0, 19.0)))
    probe = ModelParams(delta0=delta0, l=l, m=m, n_total=1.0)
    nt = equilibria.compute_nt2(probe) * 10 ** draw(st.floats(0.05, 1.2))
    params = ModelParams(delta0=delta0, l=l, m=m, n_total=nt)
    lin = linearize.build_linearization(equilibria.solve_e2(params), params)
    kind = draw(st.sampled_from(["zero", "switch_circle", "near", "far", "far_real"]))
    if kind == "zero" or (kind == "switch_circle" and lin.t_delay == 0.0):
        s = 0j
    elif kind == "switch_circle":
        s = linearize.SERIES_SWITCH / lin.t_delay * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
    elif kind == "near":
        s = complex(draw(st.floats(-2, 2)), draw(st.floats(-20, 20)))
    elif kind == "far":
        s = cmath.rect(draw(st.floats(50, 2000)), draw(st.floats(-math.pi / 2, math.pi / 2)))
    else:
        # the far end of the scan's real-axis seed line
        s = complex(-linearize.default_omega_max(lin))
    return lin, s


class TestClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(case=lin_and_point())
    def test_matches_dense_determinant_and_row_norms(self, case):
        lin, s = case
        ref = reference_matrix(s, lin)
        val, scale = linearize.char_fn(s, lin), linearize.char_scale(s, lin)
        if not np.all(np.isfinite(ref)):
            assert not cmath.isfinite(val)
            return
        with np.errstate(over="ignore"):
            rows = np.linalg.norm(ref, axis=1)
        assert abs(val - np.linalg.det(ref)) <= 1e-12 * float(np.prod(rows))
        if math.isfinite(scale):
            assert scale == pytest.approx(float(np.prod(rows)), rel=1e-12)
        else:
            # the bound squares the entries, so it overflows once their
            # product leaves the float range
            assert scale == math.inf and float(np.prod(rows**2)) > 1e307

    @settings(max_examples=150, deadline=None)
    @given(case=lin_and_point())
    def test_scalar_and_array_calls_agree(self, case):
        lin, s = case
        arr = np.array([s, s + 0.5j])
        val, scale = linearize.char_fn(s, lin), linearize.char_scale(s, lin)
        if not cmath.isfinite(val):
            assert not np.isfinite(linearize.char_fn(arr, lin)[0])
            return
        # exact but for rounding; on the switch circle the two paths may
        # also pick different kernel branches
        assert abs(linearize.char_fn(arr, lin)[0] - val) <= 1e-12 * scale
        assert linearize.char_scale(arr, lin)[0] == pytest.approx(scale, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(case=lin_and_point())
    def test_fused_pass_and_exact_derivative(self, case):
        lin, s = case
        arr = np.array([s])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, df = linearize._char_newton(arr, lin)
        if not np.isfinite(f[0]):
            return
        # the Newton pass's polynomial form is char_fn's cofactor expansion
        # but for rounding, on the scale of the root test's bound
        assert abs(f[0] - linearize.char_fn(arr, lin)[0]) <= 1e-14 * acceptance_bound(arr, lin)[0]
        scale = linearize.char_scale(arr, lin)
        # fourth-order centred difference, its step resolving exp(-s*T)
        h = 1e-3 / (lin.t_delay + 1.0 / max(1.0, abs(s)))
        f_at = [linearize.char_fn(s + k * h, lin) for k in (-2, -1, 1, 2)]
        centred = (8.0 * (f_at[2] - f_at[1]) - (f_at[3] - f_at[0])) / (12.0 * h)
        if not cmath.isfinite(centred):
            return  # a neighbour overflowed
        yard = abs(df[0]) + scale[0] / max(1.0, abs(s))
        assert abs(df[0] - centred) <= 1e-6 * yard

    def test_kernel_derivative_on_both_sides_of_the_switch(self, table1):
        _, _, lin = e2_lin(table1)
        big_t = lin.t_delay
        # the series truncation is (sT)^2/4 relative inside the circle; the
        # direct form loses about 1e-16/(sT)^2 to cancellation outside it
        for radius, tol in ((0.5, 1e-8), (0.99, 1e-8), (1.01, 1e-7), (2.0, 1e-7)):
            s = radius * linearize.SERIES_SWITCH / big_t * np.exp(1j * np.linspace(0, 6.2, 16))
            _, _, dkern = linearize._delay_terms(s, big_t)
            ref = -big_t**2 * sum(
                n * (-s * big_t) ** (n - 1) / math.factorial(n + 1) for n in range(1, 12)
            )
            assert np.max(np.abs(dkern - ref) / np.abs(ref)) <= tol

    @pytest.mark.parametrize("s", [
        complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0),
        complex(math.inf, math.inf), complex(math.nan, 1.0), complex(1.0, math.inf),
    ])
    @pytest.mark.parametrize("m", [0.0, 6.0])
    def test_nonfinite_seed_gives_nonfinite_value(self, table1, s, m):
        _, _, lin = e2_lin(table1, m=m)
        assert not cmath.isfinite(linearize.char_fn(s, lin))
        assert not math.isfinite(linearize.char_scale(s, lin))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(linearize.char_fn(np.array([s]), lin)).any()
            assert not np.isfinite(linearize.char_scale(np.array([s]), lin)).any()

    def test_far_field_overflow_gives_nonfinite_value(self, table1):
        _, _, lin = e2_lin(table1)
        s = complex(-1e5, 0.3)
        assert not cmath.isfinite(linearize.char_fn(s, lin))
        assert not math.isfinite(linearize.char_scale(s, lin))
        assert not np.isfinite(linearize.char_fn(np.array([s]), lin)).any()


#: criterion 4's 24 E1 points (nt = nt1 + frac*(nt2 - nt1), grid_n=128), each
#: checked against the Lambert-W root.  Columns: kind, delta0, l, m, frac.
E1_POINTS = [("E1", *key) for key in itertools.product(
    (0.0, 0.17), (None, 0.159), (2.0, 6.0), (0.25, 0.5, 0.9))]

#: Real part of the rightmost root at 20 E2 points (nt = factor*nt2), from
#: 40-digit Newton (mpmath.findroot) on the dense determinant from the default
#: scan's rightmost root; test_pins_are_the_mpmath_roots re-derives each.
#: Columns: kind, delta0, l, m, factor, verdict.
PINNED_E2 = [
    ("E2", 0.0, None, 0.0, 1.5, -0.10220203715368126),
    ("E2", 0.0, None, 2.0, 2.5, -0.07852416544765586),
    ("E2", 0.0, None, 6.0, 4.0, -0.04291255237547282),
    ("E2", 0.0, None, 10.0, 8.0, 0.001211330887062975),
    ("E2", 0.0, None, 15.0, 20.0, 0.030461077576934125),
    ("E2", 0.0, 0.159, 0.0, 1.5, -0.10220203715368126),
    ("E2", 0.0, 0.159, 2.0, 2.5, -0.08753790851366229),
    ("E2", 0.0, 0.159, 6.0, 4.0, -0.015038861425876668),
    ("E2", 0.0, 0.159, 10.0, 8.0, -0.011696628049796534),
    ("E2", 0.0, 0.159, 15.0, 20.0, -0.0043227936281464525),
    ("E2", 0.17, None, 0.0, 1.5, -0.10220203715368127),
    ("E2", 0.17, None, 2.0, 2.5, -0.11272253779146398),
    ("E2", 0.17, None, 6.0, 4.0, -0.16119840903254498),
    ("E2", 0.17, None, 10.0, 8.0, -0.08753015144176521),
    ("E2", 0.17, None, 15.0, 20.0, 0.5583708559553668),
    ("E2", 0.17, 0.159, 0.0, 1.5, -0.10220203715368127),
    ("E2", 0.17, 0.159, 2.0, 2.5, -0.17),
    ("E2", 0.17, 0.159, 6.0, 4.0, -0.15965759652447997),
    ("E2", 0.17, 0.159, 10.0, 8.0, -0.14108650535667516),
    ("E2", 0.17, 0.159, 15.0, 20.0, 0.8409370670936649),
]


def pinned_lin(kind, delta0, l, m, x):
    base = ModelParams(delta0=delta0, l=l, m=m, n_total=1.0)
    nt2 = equilibria.compute_nt2(base)
    if kind == "E1":
        nt1 = equilibria.compute_nt1(base)
        p = ModelParams(delta0=delta0, l=l, m=m, n_total=nt1 + x * (nt2 - nt1))
        return p, linearize.build_linearization(equilibria.solve_e1(p), p)
    p = ModelParams(delta0=delta0, l=l, m=m, n_total=x * nt2)
    return p, linearize.build_linearization(equilibria.solve_e2(p), p)


def e1_rightmost(p, lin):
    """Rightmost E1 root from the factorization: -mu p* f'(n*), -delta0 (not
    a stability root when zero) and the principal Lambert-W root of
    s + delta = gamma g h(p*) exp(-(delta0 + s) T)."""
    big_t, c = lin.t_delay, p.gamma * p.g * lin.coeff_d
    w = lambertw(c * big_t * math.exp((p.delta - p.delta0) * big_t), 0)
    roots = [lin.a1[0, 0] + p.delta0, w.real / big_t - p.delta]
    return max(roots + ([-p.delta0] if p.delta0 else []))


def mp_root(lin, s0):
    """The root of det(s*I - A1 - exp(-s*T) A2 - K(s) A3) that 40-digit
    Newton (mpmath.findroot) reaches from s0, the matrices taken as exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a1, a2, a3 = (mpmath.matrix(a.tolist()) for a in (lin.a1, lin.a2, lin.a3))
        big_t = mpmath.mpf(lin.t_delay)

        def det(s):
            e = mpmath.exp(-s * big_t)
            kern = (1 - e) / s if s != 0 else big_t
            m = s * mpmath.eye(3) - a1 - e * a2 - kern * a3
            return sum(m[0, j] * (m[1, (j + 1) % 3] * m[2, (j + 2) % 3]
                                  - m[1, (j + 2) % 3] * m[2, (j + 1) % 3]) for j in range(3))

        return complex(mpmath.findroot(det, mpmath.mpc(s0), solver="newton", verify=False))


class TestPinnedVerdicts:
    @pytest.mark.parametrize("case", [(*k, None) for k in E1_POINTS] + PINNED_E2,
                             ids=lambda c: "-".join(map(str, c[:5])))
    def test_closed_form_keeps_the_verdict(self, case):
        key, pinned = case[:5], case[5]
        p, lin = pinned_lin(*key)
        if key[0] == "E1":
            got, want = linearize.rightmost_real_part(lin, grid_n=128), e1_rightmost(p, lin)
            assert got == pytest.approx(want, abs=1e-12)
        else:
            assert linearize.rightmost_real_part(lin) == pytest.approx(pinned, abs=1e-10)

    @pytest.mark.parametrize("case", PINNED_E2, ids=lambda c: "-".join(map(str, c[:5])))
    def test_pins_are_the_mpmath_roots(self, case):
        _, lin = pinned_lin(*case[:5])
        start = linearize._rightmost_root(lin, None, 512)
        assert mp_root(lin, start).real == pytest.approx(case[5], abs=1e-15)

    def test_e1_oracle_matches_the_factorization(self):
        # the oracle itself: its root zeroes the third factor
        p, lin = pinned_lin("E1", 0.17, 0.159, 2.0, 0.9)
        s = e1_rightmost(p, lin)
        third = s + p.delta - p.gamma * p.g * lin.coeff_d * math.exp(-(p.delta0 + s) * lin.t_delay)
        assert abs(third) <= 1e-12
        assert s == pytest.approx(linearize.rightmost_real_part(lin, grid_n=128), abs=1e-12)


class TestRoots:
    def test_refine_from_closed_form_seed(self, table1):
        p, e1, lin = e1_lin(table1)
        seed = -p.mu * e1.p_star * lin.coeff_a
        roots, ok = linearize._newton_batch(np.array([complex(seed * (1 + 1e-6))]), lin)
        assert ok[0]
        assert roots[0].real == pytest.approx(seed, rel=1e-8)
        assert abs(roots[0].imag) <= 1e-8

    def test_hopeless_seed_is_no_root(self, table1):
        _, _, lin = e2_lin(table1)
        _, ok = linearize._newton_batch(np.array([complex(-1e8)]), lin)
        assert not ok[0]

    def test_grid_floor_enforced(self, table1):
        _, _, lin = e2_lin(table1)
        with pytest.raises(DomainError):
            linearize.scan_roots(lin, grid_n=16)

    def test_e1_always_stable_between_thresholds(self, table1):
        for delta0 in (0.0, 0.17):
            for l in (None, 0.159):
                p = table1(delta0=delta0, l=l, m=5.0, n_total=1.0)
                nt1, nt2 = equilibria.compute_nt1(p), equilibria.compute_nt2(p)
                p_mid = table1(delta0=delta0, l=l, m=5.0, n_total=0.5 * (nt1 + nt2))
                lin = linearize.build_linearization(equilibria.solve_e1(p_mid), p_mid)
                assert linearize.rightmost_real_part(lin, grid_n=128) < 0

    def test_e2_stable_just_above_threshold_no_delay(self, table1):
        p = table1(delta0=0.17, m=0.0)
        nt2 = equilibria.compute_nt2(p)
        p = table1(delta0=0.17, m=0.0, n_total=1.5 * nt2)
        lin = linearize.build_linearization(equilibria.solve_e2(p), p)
        assert linearize.rightmost_real_part(lin, grid_n=128) < 0

    def test_e2_unstable_beyond_boundary(self, table1):
        # boundary for these rates sits at log10(n_total) ~ 0.50
        p = table1(delta0=0.17, m=6.0, n_total=10 ** 0.6)
        lin = linearize.build_linearization(equilibria.solve_e2(p), p)
        assert linearize.rightmost_real_part(lin, grid_n=128) > 0

    def test_structural_zero_dropped_only_without_mortality(self, table1):
        p0 = table1(delta0=0.0, m=5.0, n_total=1.0)
        lin0 = linearize.build_linearization(equilibria.solve_e2(p0), p0)
        # the conservation law pins a root at the origin...
        assert abs(linearize.char_fn(0j, lin0)) == 0.0
        # ...and the verdict ignores it
        assert linearize.rightmost_real_part(lin0, grid_n=128) < 0


def dedupe_loop(roots):
    """The one-root-at-a-time dedupe the vectorised one replaced."""
    if roots.size == 0:
        return roots
    roots = roots[np.lexsort((roots.imag, roots.real))]
    keep = [roots[0]]
    for r in roots[1:]:
        if abs(r - keep[-1]) > linearize.DEDUPE_RTOL * max(1.0, abs(r)):
            keep.append(r)
    return np.array(keep)


@st.composite
def root_chains(draw):
    """Clusters of near-duplicate roots: each a chain of steps of 0.2 to 1.5
    radii in random directions, so some chains spread beyond one radius;
    centres may share a real part or sit within a radius of each other."""
    roots = []
    for _ in range(draw(st.integers(1, 12))):
        centre = complex(draw(st.floats(-50, 5)), draw(st.floats(0, 80)))
        if roots and draw(st.booleans()):  # a centre on an earlier root's real part
            centre = complex(roots[-1].real, centre.imag)
        radius = linearize.DEDUPE_RTOL * max(1.0, abs(centre))
        r = centre
        for _ in range(draw(st.integers(1, 12))):
            roots.append(r)
            step = radius * draw(st.floats(0.2, 1.5))
            r += step * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
    perm = draw(st.permutations(range(len(roots))))
    return np.array(roots)[list(perm)]


class TestDedupe:
    @settings(max_examples=300, deadline=None)
    @given(roots=root_chains())
    def test_matches_the_loop_on_chains(self, roots):
        got, want = linearize._dedupe(roots), dedupe_loop(roots)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("delta0, l, m, nt", [
        (0.17, 0.159, 6.0, 3.0), (0.0, 0.159, 6.0, 3.0), (0.17, None, 2.0, 1.0),
    ])
    def test_matches_the_loop_on_scan_iterates(self, table1, delta0, l, m, nt):
        _, _, lin = e2_lin(table1, delta0=delta0, l=l, m=m, nt=nt)
        roots, ok = linearize._newton_batch(scan_seeds(lin, 512), lin)
        kept = np.where(roots[ok].imag < 0, np.conj(roots[ok]), roots[ok])
        assert linearize._dedupe(kept).tobytes() == dedupe_loop(kept).tobytes()

    def test_empty(self):
        assert linearize._dedupe(np.array([], dtype=complex)).size == 0


class TestScanReuse:
    def test_repeat_returns_the_stored_scan(self, table1):
        _, _, lin = e2_lin(table1)
        first = linearize.scan_roots(lin, grid_n=128, disc=True)
        assert linearize.scan_roots(lin, grid_n=128, disc=True) is first
        # the verdicts read the same stored scan
        assert linearize.rightmost_real_part(lin, grid_n=128) == max(first.roots.real)
        assert len(lin.scans) == 1
        other = linearize.scan_roots(lin, grid_n=256, disc=True)
        assert other is not first and len(lin.scans) == 2
        # the full-span scan of a frequency window is kept beside the disc's
        full = linearize.scan_roots(lin, grid_n=128)
        assert full is not first and len(lin.scans) == 3
        assert linearize.rightmost_in_window(lin, (0.0, 100.0), grid_n=128) == max(full.roots.real)

    def test_stored_roots_are_read_only(self, table1):
        _, _, lin = e2_lin(table1)
        scan = linearize.scan_roots(lin, grid_n=128)
        with pytest.raises(ValueError):
            scan.roots[0] = 0.0

    def test_a_replaced_copy_starts_without_scans(self, table1):
        _, _, lin = e2_lin(table1)
        first = linearize.scan_roots(lin, grid_n=128)
        bottom = lin.char_form.bottom
        flipped = lin.char_form._replace(
            bottom=(*bottom[:3], *(-x for x in bottom[3:6]), *bottom[6:]))
        for copy in (dataclasses.replace(lin), dataclasses.replace(lin, char_form=flipped)):
            assert copy.scans == {}
            assert copy.char_poly == linearize._char_poly(copy.char_form)
            assert linearize.scan_roots(copy, grid_n=128) is not first
        again = linearize.scan_roots(dataclasses.replace(lin), grid_n=128)
        assert np.array_equal(again.roots, first.roots)


def full_array_newton(seeds, lin, *, tol=1e-10, max_iter=50, crawl_ratio=1e3, floor=1e-6):
    """Reference sweep: every seed goes through every pass, a stopped seed
    keeping its iterate.  Where the delay terms D = Q - f exceed crawl_ratio
    times the polynomial part Q (taken here by Horner on Python floats) and
    D'/D lies within T of -T, the step is the Newton step of log(Q/D),
    elsewhere f/f'.  A seed stops once it applies a step with
    |step| <= tol*max(|s_new|, floor), or, without applying it, on a
    non-finite step.  crawl_ratio=inf, floor=0 is the plain sweep that the
    crawl rule and the stop floor replaced."""
    q2, q1, q0 = lin.char_poly[:3]
    big_t = lin.t_delay
    s = np.asarray(seeds, dtype=complex).copy()
    alive = np.isfinite(s)
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f, df = linearize._char_newton(s, lin)
            q, dq = ((s + q2) * s + q1) * s + q0, (3.0 * s + 2.0 * q2) * s + q1
            d = q - f
            dlog_d = (dq - df) / d
            crawl = (np.abs(d) > crawl_ratio * np.abs(q)) & (np.abs(dlog_d + big_t) < big_t)
            step = np.where(crawl, np.log(q / d) / (dq / q - dlog_d), f / df)
            new = s - step
            applied = alive & np.isfinite(step)
            alive = applied & ~(np.abs(step) <= tol * np.maximum(np.abs(new), floor))
        s = np.where(applied, new, s)
        if not alive.any():
            break
    f = linearize.char_fn(s, lin)
    bound = acceptance_bound(s, lin)
    ok = (np.isfinite(s) & np.isfinite(f) & np.isfinite(bound)
          & (np.abs(f) <= tol * np.maximum(bound, 1e-300)))
    return s, ok


def plain_newton(seeds, lin):
    """The sweep before the crawl rule and the stop floor."""
    return full_array_newton(seeds, lin, crawl_ratio=math.inf, floor=0.0)


def acceptance_bound(s, lin):
    """The final root test's yardstick: the Hadamard bound whose zooplankton-row
    entries are sums of their terms' magnitudes, with |s| on the diagonal."""
    (a00, a01, a02), (a10, a11, a12) = lin.a1[:2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e, kern, _ = linearize._delay_terms(s, lin.t_delay)
        x0, x1, x2 = (abs(a) + abs(b) * np.abs(e) + abs(c) * np.abs(kern)
                      for a, b, c in zip(lin.a1[2], lin.a2[2], lin.a3[2]))
        x2 = x2 + np.abs(s)
        d0, d1 = np.abs(s - a00), np.abs(s - a11)
        return (np.sqrt(d0 * d0 + a01 * a01 + a02 * a02)
                * np.sqrt(a10 * a10 + d1 * d1 + a12 * a12)
                * np.sqrt(x0 * x0 + x1 * x1 + x2 * x2))


def scan_seeds(lin, grid_n):
    """The seed array scan_roots sweeps."""
    omega_max = linearize.default_omega_max(lin)
    return np.concatenate([1j * np.linspace(0.0, omega_max, grid_n),
                           np.linspace(-omega_max, 0.25 * omega_max, max(grid_n // 8, 17))])


@st.composite
def sweep_lin(draw):
    """A linearization at E2 or E1, either response, delta0 0 or 0.17,
    m from 0.5 up to 19 (or just below the maturity ceiling)."""
    delta0 = draw(st.sampled_from([0.0, 0.17]))
    l = draw(st.sampled_from([None, 0.159]))
    base = ModelParams(delta0=delta0, l=l, n_total=1.0)
    m_hi = min(0.98 * equilibria.m_ceiling(base), 19.0)
    m = 0.5 + draw(st.floats(0.0, 1.0)) * (m_hi - 0.5)
    base = dataclasses.replace(base, m=m)
    nt2 = equilibria.compute_nt2(base)
    if draw(st.booleans()):
        p = dataclasses.replace(base, n_total=nt2 * 10 ** draw(st.floats(0.02, 1.2)))
        return linearize.build_linearization(equilibria.solve_e2(p), p)
    nt1 = equilibria.compute_nt1(base)
    p = dataclasses.replace(base, n_total=nt1 + draw(st.floats(0.05, 0.95)) * (nt2 - nt1))
    return linearize.build_linearization(equilibria.solve_e1(p), p)


def odd_seeds(lin):
    """The origin, both sides of the series circle, non-finite and repeated
    seeds, and far-field seeds where exp(-s*T) overflows."""
    r = linearize.SERIES_SWITCH / lin.t_delay
    return np.array([0j, 0.999 * r, 1.001j * r, -0.999 * r * (1 - 1j) / math.sqrt(2),
                     1.001 * r * (1 + 1j) / math.sqrt(2), complex(math.nan, 0.0),
                     complex(math.inf, 1.0), complex(1.0, -math.inf),
                     complex(math.nan, math.nan), 0.3 + 0.4j, 0.3 + 0.4j, 0j,
                     -1e5 + 0.3j, -5e3, 1e4j])


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.asarray(got).view(float), np.asarray(want).view(float),
                          equal_nan=True)


class TestNewtonSweepCompaction:
    """_newton_batch drops a seed once its step is below tol relative (with
    the floor on |s|) or non-finite; the full-array sweep, crawl rule
    included, is the reference, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(lin=sweep_lin(), grid_n=st.sampled_from([64, 256, 512]))
    def test_matches_the_full_array_sweep(self, lin, grid_n):
        seeds = np.concatenate([scan_seeds(lin, grid_n), odd_seeds(lin)])
        got, ok = linearize._newton_batch(seeds, lin)
        want, want_ok = full_array_newton(seeds, lin)
        assert_bitwise_equal(got, want)
        assert np.array_equal(ok, want_ok)
        # coverage counts the scan's own seeds
        _, scan_ok = full_array_newton(scan_seeds(lin, grid_n), lin)
        assert linearize.scan_roots(lin, grid_n=grid_n).coverage == float(np.mean(scan_ok))

    @settings(max_examples=40, deadline=None)
    @given(lin=sweep_lin(), max_iter=st.integers(0, 6))
    def test_an_early_stop_keeps_every_iterate(self, lin, max_iter):
        seeds = np.concatenate([scan_seeds(lin, 64), odd_seeds(lin)])
        with mock.patch.object(linearize, "NEWTON_MAX_ITER", max_iter):
            got, ok = linearize._newton_batch(seeds, lin)
        want, want_ok = full_array_newton(seeds, lin, max_iter=max_iter)
        assert_bitwise_equal(got, want)
        assert np.array_equal(ok, want_ok)

    @settings(max_examples=30, deadline=None)
    @given(lin=sweep_lin())
    def test_one_seed_matches_the_full_array_sweep(self, lin):
        for seed in [*odd_seeds(lin)[[0, 1, 2, 9, 12]], *scan_seeds(lin, 64)[::9]]:
            got, ok = linearize._newton_batch(np.array([seed]), lin)
            want, want_ok = full_array_newton(np.array([seed]), lin)
            assert_bitwise_equal(got, want)
            assert np.array_equal(ok, want_ok)


class TestCrawl:
    """Seeds where the delay terms dominate take the log-ratio step instead
    of crawling right by about 1/T a pass."""

    def test_a_real_line_seed_at_minus_omega_max_is_accepted(self):
        # at T = 5.4 plain Newton moves it from -70 only to -60.7 in 50 passes
        p = ModelParams(delta0=0.17, l=0.159, m=2.0, n_total=3.0)
        lin = linearize.build_linearization(equilibria.solve_e2(p), p)
        seed = np.array([complex(-linearize.default_omega_max(lin))])
        got, ok = linearize._newton_batch(seed, lin)
        assert ok[0]
        want, want_ok = full_array_newton(seed, lin)
        assert_bitwise_equal(got, want)
        assert want_ok[0]
        assert not plain_newton(seed, lin)[1][0]

    def test_a_root_that_q_and_d_share_is_still_found(self):
        # with a constant response Q has the factor s + delta, so at
        # delta0 = delta Q and D share the root s = -delta0: near it
        # |D| > CRAWL_RATIO |Q| holds, yet log(Q/D) has no root there
        p = ModelParams(delta0=0.17, l=None, m=6.2, n_total=52.6)
        lin = linearize.build_linearization(equilibria.solve_e2(p), p)
        s = np.array([-0.1701 + 0j, -0.17 + 1e-4j])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, _, q, _ = linearize._char_newton(s, lin, parts=True)
        assert (np.abs(q - f) > linearize.CRAWL_RATIO * np.abs(q)).all()
        roots = linearize.scan_roots(lin, grid_n=512).roots
        assert np.min(np.abs(roots + 0.17)) <= 1e-9

    def test_zero_root_seeds_stop_before_the_pass_limit(self):
        # delta0 = 0: seeds converging to the structural zero root hop at
        # rounding level, so only the stop rule's floor on |s| stops them
        m, l, nt = 6.0, 0.159, 3.0  # SWEEP_POINT of scripts/time_layers.py
        p = ModelParams(delta0=0.0, l=l, m=m, n_total=nt)
        lin = linearize.build_linearization(equilibria.solve_e2(p), p)
        seeds = scan_seeds(lin, 512)
        s, ok = linearize._newton_batch(seeds, lin)
        zero = ok & (np.abs(s) <= linearize.ZERO_MODE_TOL)
        assert zero.sum() >= 10
        passes = []
        real_pass = linearize._char_newton

        def counted(x, lin, parts=False):
            passes.append(x.size)
            return real_pass(x, lin, parts)

        with mock.patch.object(linearize, "_char_newton", counted):
            again, again_ok = linearize._newton_batch(seeds[zero], lin)
        # a one-seed pass runs as a pair and counts twice
        assert len(passes) < linearize.NEWTON_MAX_ITER
        assert_bitwise_equal(again, s[zero])
        assert again_ok.all()


#: (l, delta0) classes of the verdict sample: the four responses by the
#: four juvenile mortalities.
VERDICT_CLASSES = list(itertools.product([None, 0.01, 0.159, 1.0], [0.0, 0.05, 0.17, 0.3]))


def verdict_points(seed, per_class):
    """Linearizations at seeded E1 and E2 points, per_class of each (l, delta0)
    class, m from 0.5 up to 19 (or just below the maturity ceiling)."""
    rng = np.random.default_rng(seed)
    for l, delta0 in VERDICT_CLASSES:
        base = ModelParams(delta0=delta0, l=l, n_total=1.0)
        m_hi = min(0.98 * equilibria.m_ceiling(base), 19.0)
        for _ in range(per_class):
            m = float(rng.uniform(0.5, m_hi))
            base = dataclasses.replace(base, m=m)
            nt2 = equilibria.compute_nt2(base)
            if rng.random() < 0.5:
                p = dataclasses.replace(base, n_total=nt2 * 10 ** rng.uniform(0.02, 1.2))
                yield l, delta0, linearize.build_linearization(equilibria.solve_e2(p), p)
            else:
                nt1 = equilibria.compute_nt1(base)
                p = dataclasses.replace(base, n_total=nt1 + rng.uniform(0.05, 0.95) * (nt2 - nt1))
                yield l, delta0, linearize.build_linearization(equilibria.solve_e1(p), p)


class TestCrawlAgainstThePlainSweep:
    """The crawl rule against the plain sweep it replaced, on verdicts."""

    def test_no_verdict_changes_sign(self):
        moved = []
        for l, delta0, lin in verdict_points(seed=24, per_class=12):
            for grid_n in (256, 512):
                got = linearize.rightmost_real_part(dataclasses.replace(lin), grid_n=grid_n)
                with mock.patch.object(linearize, "_newton_batch", plain_newton):
                    want = linearize.rightmost_real_part(dataclasses.replace(lin), grid_n=grid_n)
                assert np.sign(got) == np.sign(want), (l, delta0, grid_n, got, want)
                if not abs(got - want) <= 1e-9:
                    moved.append((l, delta0))
        # long delays, where a dense chain of roots lies just left of the axis
        assert all(l is not None and l >= 0.159 and delta0 <= 0.17 for l, delta0 in moved)


#: verdict_points(2024, 94) indices of two long-delay points (l 1, delta0 0,
#: T 407 and 515) where the full-span grid-512 sweep missed the rightmost
#: root, the chain root of lowest frequency, with that root's real part
#: from 40-digit Newton (mp_root).
LONG_DELAY_VERDICTS = {1205: -5.743594763425851e-05, 1213: -9.005516270711528e-05}


def full_span_verdict(lin, grid_n):
    """The verdict before the disc, the slow reference: the rightmost root,
    structural zero dropped, of the full-span scan that frequency windows
    still use."""
    roots = linearize._drop_structural_zero(linearize.scan_roots(lin, grid_n=grid_n).roots, lin)
    return float(np.max(roots.real, initial=-math.inf))


def stab_map_lins(seed, blocks=20):
    """The linearizations of the benchmark's stab-map tasks, 25 a block."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("stab_map_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # its dataclasses look it up
        spec.loader.exec_module(workloads)
    for block in range(blocks):
        for task in workloads.stab_block(seed, block):
            p = ModelParams(**task.params)
            yield linearize.build_linearization(equilibria.solve_e2(p), p)


def rhp_root_count(lin, indent=1e-7):
    """Roots of char_fn with Re s > 0, by the argument principle: the
    winding number of char_fn along the boundary of the half-disc Re s >= 0,
    |s| <= root_radius(lin), with the imaginary axis indented past s = 0 by
    ``indent`` into the right half-plane when delta0 = 0, so that the
    structural zero lies outside.  The path is sampled at max(64, 8 rho T)
    points a side of the axis and 256 on the arc; a stretch whose phase
    turns by more than pi/2 is halved until none is left."""
    rho = linearize.root_radius(lin)
    eps = indent if lin.delta0 == 0.0 else 0.0

    def point(u):  # u in [0, 4]: the arc, the axis down to eps, the indent, the axis on down
        k = np.minimum(np.floor(u), 3.0)
        t = u - k
        arc = np.where(k == 0, rho, eps) * np.exp(1j * np.pi * np.where(k == 0, t - 0.5, 0.5 - t))
        omega = np.where(k == 1, rho - (rho - eps) * t, -eps - (rho - eps) * t)
        return np.where(k % 2 == 0, arc, 1j * omega)

    n_axis = max(64, math.ceil(8 * rho * lin.t_delay))
    u = np.concatenate([np.linspace(k, k + 1, n, endpoint=False)
                        for k, n in enumerate((256, n_axis, 16, n_axis))] + [[4.0]])
    for _ in range(60):
        f = linearize.char_fn(point(u), lin)
        turn = np.angle(f[1:] / f[:-1])
        wide = np.flatnonzero(~(np.abs(turn) <= np.pi / 2))  # a NaN turn is refined too
        if not wide.size:
            winding = turn.sum() / (2 * np.pi)
            assert abs(winding - round(winding)) <= 1e-6, winding
            return round(winding)
        u = np.insert(u, wide + 1, 0.5 * (u[wide] + u[wide + 1]))
    raise AssertionError("the phase along the path did not resolve")


def quartic_root(lin):
    """The positive root of root_radius's quartic, from numpy's companion
    matrix."""
    q2, q1, q0, r2, r1, r0, w2, w1, w0 = map(abs, lin.char_poly)
    roots = np.roots([1.0, -(q2 + r2), -(q1 + r1 + 2 * w2), -(q0 + r0 + 2 * w1), -2 * w0])
    return max(r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r))


class TestRootCount:
    """The argument-principle count, an independent check of the verdict:
    a root lies right of the axis exactly where the verdict is positive."""

    @pytest.mark.parametrize("case", [(*k, None) for k in E1_POINTS] + PINNED_E2,
                             ids=lambda c: "-".join(map(str, c[:5])))
    def test_agrees_on_the_pinned_points(self, case):
        _, lin = pinned_lin(*case[:5])
        verdict = linearize.rightmost_real_part(lin, grid_n=128 if case[0] == "E1" else 512)
        assert (rhp_root_count(lin) > 0) == (verdict > 0), verdict

    def test_agrees_on_the_verdict_sample(self):
        for k, (l, delta0, lin) in enumerate(verdict_points(seed=2024, per_class=94)):
            verdict = linearize.rightmost_real_part(lin)
            assert (rhp_root_count(lin) > 0) == (verdict > 0), (k, l, delta0, verdict)

    @settings(max_examples=40, deadline=None)
    @given(lin=sweep_lin())
    def test_agrees_on_a_sample(self, lin):
        verdict = linearize.rightmost_real_part(lin)
        assert (rhp_root_count(lin) > 0) == (verdict > 0), verdict

    def test_counts_the_unstable_pair(self):
        # the pinned E2 point at delta0 0.17, l 0.159, m 15 has verdict 0.84
        _, lin = pinned_lin("E2", 0.17, 0.159, 15.0, 20.0)
        count = rhp_root_count(lin)
        assert count >= 2 and count % 2 == 0


class TestRootRadius:
    """The disc rests on this bound: every root with Re s >= 0 lies in
    |s| <= root_radius(lin)."""

    @settings(max_examples=40, deadline=None)
    @given(lin=sweep_lin())
    def test_bounds_every_root_the_full_sweep_finds(self, lin):
        roots, ok = linearize._newton_batch(scan_seeds(lin, 512), lin)
        roots = roots[ok]
        rho = linearize.root_radius(lin)
        # accepted iterates carry the root test's error, 1e-10 relative
        assert (np.abs(roots[roots.real >= 0.0]) <= rho * (1 + 1e-9)).all()
        assert rho == pytest.approx(quartic_root(lin), rel=1e-9)

    def test_bounds_the_unstable_pinned_mpmath_roots(self):
        unstable = [case for case in PINNED_E2 if case[5] >= 0]
        assert len(unstable) == 4
        for case in unstable:
            _, lin = pinned_lin(*case[:5])
            root = mp_root(lin, linearize._rightmost_root(lin, None, 512))
            assert root.real == pytest.approx(case[5], abs=1e-15)
            # the disc the verdict seeds holds the root, not only the bound
            assert abs(root) <= min(linearize.root_radius(lin), linearize.default_omega_max(lin))


class TestDiscAgainstTheFullSweep:
    """The disc verdict against the full-span sweep it replaced: no sign
    changes, and where a verdict moves, it moves right, to a root the full
    sweep missed."""

    @staticmethod
    def assert_same_sign_or_right(lin, grid_n, where):
        got = linearize.rightmost_real_part(lin, grid_n=grid_n)
        want = full_span_verdict(lin, grid_n)
        assert np.sign(got) == np.sign(want), (where, grid_n, got, want)
        assert got >= want - 1e-9, (where, grid_n, got, want)

    def test_no_verdict_changes_sign_on_the_verdict_sample(self):
        for k, (_, _, lin) in enumerate(verdict_points(seed=2024, per_class=94)):
            for grid_n in (128, 256, 512):
                self.assert_same_sign_or_right(lin, grid_n, k)

    @pytest.mark.parametrize("seed", [11, 43])
    def test_no_verdict_changes_sign_on_stab_map_points(self, seed):
        for k, lin in enumerate(stab_map_lins(seed)):
            self.assert_same_sign_or_right(lin, 512, k)

    def test_long_delay_verdicts_settle_on_the_lowest_chain_root(self):
        points = list(verdict_points(seed=2024, per_class=94))
        for k, want in LONG_DELAY_VERDICTS.items():
            lin = points[k][2]
            for grid_n in (128, 256, 512, 2048):
                root = linearize._rightmost_root(lin, None, grid_n)
                assert root.real == pytest.approx(want, abs=1e-15)
                # the chain's first root, below its spacing 2 pi/T
                assert 0 < root.imag < 2 * math.pi / lin.t_delay
            assert full_span_verdict(lin, 512) < want


class TestOneBatch:
    """A disc scan is one Newton batch over the seeds of the disc of
    root_radius, capped at default_omega_max, stable verdict or not."""

    def test_a_fresh_disc_scan_runs_one_batch(self):
        _, lin = pinned_lin("E2", 0.17, 0.159, 6.0, 4.0)
        batches = []
        real_batch = linearize._newton_batch

        def counted(seeds, lin):
            roots, ok = real_batch(seeds, lin)
            batches.append((seeds, ok))
            return roots, ok

        with mock.patch.object(linearize, "_newton_batch", counted):
            scan = linearize.scan_roots(lin, 512, disc=True)
        ((seeds, ok),) = batches
        rho = min(linearize.root_radius(lin), linearize.default_omega_max(lin))
        assert np.abs(seeds).max() <= rho
        assert scan.coverage == np.mean(ok)
        # a stable point: a negative verdict takes no second batch either
        assert linearize.rightmost_real_part(lin) < 0


class TestDiscSeeds:
    """Seeds left of -_EXP_ROOM/T overflow exp(-s*T) on the first pass and
    never move; the disc starts its real line right of there."""

    @pytest.mark.parametrize("where", ["sweep point", "verdict point 1205"])
    def test_every_disc_seed_has_a_finite_first_pass(self, where):
        if where == "sweep point":
            m, l, nt = 6.0, 0.159, 3.0  # SWEEP_POINT of scripts/time_layers.py, T 32.5
            p = ModelParams(delta0=0.0, l=l, m=m, n_total=nt)
            lin = linearize.build_linearization(equilibria.solve_e2(p), p)
        else:
            lin = next(itertools.islice(verdict_points(seed=2024, per_class=94), 1205, None))[2]
        omega_max = linearize.default_omega_max(lin)
        rho = min(linearize.root_radius(lin), omega_max)
        # the disc, and the disc at the cap, the widest a scan can seed
        seeds = np.concatenate([linearize._disc_seeds(lin, 512, rho),
                                linearize._disc_seeds(lin, 512, omega_max)])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, df = linearize._char_newton(seeds, lin)
            old = linearize.char_fn(scan_seeds(lin, 512), lin)
        assert np.isfinite(linearize.char_fn(seeds, lin)).all()
        assert np.isfinite(f).all() and np.isfinite(df).all()
        # the widest disc's real line is cut short of -omega_max, and the
        # full-span sweep's, which reaches it, overflows
        assert seeds.real.min() >= -linearize._EXP_ROOM / lin.t_delay > -omega_max
        assert not np.isfinite(old).all()


class TestRootAcceptance:
    """A point is a root only where the bound is finite: |f| <= tol*inf would
    accept any finite far-field point."""

    @settings(max_examples=40, deadline=None)
    @given(lin=sweep_lin(), max_iter=st.sampled_from([0, 1, 5, 50]))
    def test_no_root_where_the_bound_is_infinite(self, lin, max_iter):
        seeds = np.concatenate([scan_seeds(lin, 256), odd_seeds(lin)])
        with mock.patch.object(linearize, "NEWTON_MAX_ITER", max_iter):
            s, ok = linearize._newton_batch(seeds, lin)
        assert np.isfinite(acceptance_bound(s[ok], lin)).all()
        assert np.isfinite(linearize.char_scale(s[ok], lin)).all()

    def test_unmoved_far_left_seeds_are_rejected(self):
        # this E1 scan once returned an unmoved far-left seed (-6.317) as its
        # verdict, where |char_fn| is finite and char_scale overflows to inf
        _, lin = pinned_lin("E1", 0.0, 0.159, 6.0, 0.5)
        seeds = scan_seeds(lin, 128)
        far = (np.isfinite(linearize.char_fn(seeds, lin))
               & ~np.isfinite(linearize.char_scale(seeds, lin)))
        assert far.any()
        with mock.patch.object(linearize, "NEWTON_MAX_ITER", 0):
            _, ok = linearize._newton_batch(seeds, lin)
        assert not ok[far].any()
        assert linearize.rightmost_real_part(lin, grid_n=128) == pytest.approx(-0.010370, abs=5e-7)


class TestVerdictAccuracy:
    #: points where a seed landing in the sweep's last pass represents the
    #: rightmost root: without the closing Newton step the verdict carries
    #: 1.1e-10 to 3.3e-10 of error
    LAST_PASS_LANDINGS = [("E1", 0.0, None, 5.5, 0.75), ("E1", 0.0, None, 13.5, 0.25),
                          ("E1", 0.0, None, 15.5, 0.25), ("E2", 0.17, 0.159, 3.0, 3.0)]

    @pytest.mark.parametrize("key", LAST_PASS_LANDINGS, ids=lambda k: "-".join(map(str, k)))
    def test_a_last_pass_landing_takes_one_more_step(self, key):
        _, lin = pinned_lin(*key)
        root = linearize._rightmost_root(lin, None, 512)
        assert abs(root.real - mp_root(lin, root).real) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(lin=sweep_lin())
    def test_verdict_root_matches_the_mpmath_root(self, lin):
        root = linearize._rightmost_root(lin, None, 512)
        if root is not None:
            assert abs(root.real - mp_root(lin, root).real) <= 1e-10


class TestElementIndependence:
    """The working set rests on this: a pass over any subset of seeds gives,
    bit for bit, that subset of the pass over the whole array."""

    @settings(max_examples=60, deadline=None)
    @given(lin=sweep_lin(), size=st.integers(1, 576), pick=st.integers(0, 2**32 - 1))
    def test_subset_pass_equals_the_whole_pass_subset(self, lin, size, pick):
        rng = np.random.default_rng(pick)
        pool = np.concatenate([scan_seeds(lin, 512), odd_seeds(lin)])
        s = rng.choice(pool, size) + rng.choice([0.0, 1e-3, 1.0], size) * (
            rng.normal(size=size) + 1j * rng.normal(size=size))
        s[rng.random(size) < 0.05] = 0j
        s[rng.random(size) < 0.05] = -1e5 + 0.3j  # exp(-s*T) overflows
        keep = rng.random(size) < rng.uniform(0.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for whole, part in zip(linearize._char_newton(s, lin),
                                   linearize._char_newton(s[keep], lin)):
                assert_bitwise_equal(part, whole[keep])
            for whole, part in zip(linearize._delay_terms(s, lin.t_delay),
                                   linearize._delay_terms(s[keep], lin.t_delay)):
                assert_bitwise_equal(part, whole[keep])

    def test_single_seed_pass_equals_its_element_of_the_whole_pass(self, table1):
        # a working set shrinks to one seed; numpy multiplies one element in
        # place by another loop than it uses for longer arrays
        _, _, lin = e2_lin(table1)
        s = np.concatenate([scan_seeds(lin, 64), odd_seeds(lin)])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            whole = linearize._char_newton(s, lin)
            for i in range(s.size):
                for w, part in zip(whole, linearize._char_newton(s[i:i + 1], lin)):
                    assert_bitwise_equal(part, w[i:i + 1])


def allocating_delay_terms(s, big_t):
    """The kernel before it ran in place: full-size series temporaries,
    picked by np.where wherever any point lies inside the switch circle."""
    small = np.abs(s) * big_t < linearize.SERIES_SWITCH
    e = np.exp(-s * big_t)
    kern = (1.0 - e) / s
    dkern = (big_t * e - kern) / s
    if small.any():
        kern = np.where(small, big_t - s * big_t**2 / 2.0 + s**2 * big_t**3 / 6.0, kern)
        dkern = np.where(small, -big_t**2 / 2.0 + s * big_t**3 / 3.0, dkern)
    return e, kern, dkern


def allocating_char_newton(s, lin):
    """char_fn and its derivative by Horner on Python-float coefficients,
    each operation allocating its result."""
    q2, q1, q0, r2, r1, r0, w2, w1, w0 = lin.char_poly
    e, kern, dkern = allocating_delay_terms(s, lin.t_delay)
    r = (r2 * s + r1) * s + r0
    w = (w2 * s + w1) * s + w0
    f = ((s + q2) * s + q1) * s + q0 - e * r - kern * w
    df = ((3.0 * s + 2.0 * q2) * s + q1 - e * ((2.0 * r2) * s + r1 - lin.t_delay * r)
          - dkern * w - kern * ((2.0 * w2) * s + w1))
    return f, df


class TestInPlaceKernel:
    """The in-place kernel is the allocating one it replaced, bit for bit:
    every Newton iterate, root and verdict rests on that."""

    @staticmethod
    def assert_matches(s, lin):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for got, want in zip(linearize._delay_terms(s, lin.t_delay),
                                 allocating_delay_terms(s, lin.t_delay)):
                assert_bitwise_equal(got, want)
            for got, want in zip(linearize._char_newton(s, lin), allocating_char_newton(s, lin)):
                assert_bitwise_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(lin=sweep_lin(), pick=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 0.5, 3.0, 1e3, 1e5]))
    def test_matches_the_allocating_kernel(self, lin, pick, scale):
        # odd_seeds holds the origin, both sides of the switch circle and
        # far-field seeds; the perturbation is in units of the circle radius
        rng = np.random.default_rng(pick)
        seeds = np.concatenate([scan_seeds(lin, 512), odd_seeds(lin)])
        radius = linearize.SERIES_SWITCH / lin.t_delay
        moved = seeds + scale * radius * (rng.normal(size=seeds.size)
                                          + 1j * rng.normal(size=seeds.size))
        s = np.concatenate([moved, odd_seeds(lin)])
        assert (np.abs(s) * lin.t_delay < linearize.SERIES_SWITCH).any()
        self.assert_matches(s, lin)
        # a working set with no seed inside the circle skips the series branch
        outside = scan_seeds(lin, 512)[1:]
        assert not (np.abs(outside) * lin.t_delay < linearize.SERIES_SWITCH).any()
        self.assert_matches(outside, lin)

    @pytest.mark.parametrize("seeds", [[], [complex(math.nan, math.nan)] * 3,
                                       [complex(math.nan, 0.0), 0j], [0j, 0j]],
                             ids=["empty", "all-nan", "nan-and-zero", "zeros"])
    def test_edge_arrays(self, table1, seeds):
        _, _, lin = e2_lin(table1)
        self.assert_matches(np.array(seeds, dtype=complex), lin)


def tau_frechet_check(
    p_star: float,
    perturbation,
    eps: float,
    params: ModelParams,
) -> float:
    """Remainder ratio of the linearized threshold-delay functional.

    For a constant base history at ``p_star`` perturbed by eps*perturbation,
    compares the true maturation delay (threshold integral solved
    numerically) against its linear prediction, and returns

        |tau(P*+eps*h) - tau(P*) + (R'(P*)/R(P*)) * int eps*h| / sup|eps*h|.

    The caller asserts that the ratio decays as eps does.
    """
    if params.m <= 0:
        raise DomainError("the check needs a positive maturity requirement")
    r_base = float(model.r_growth(p_star, params))
    if r_base < params.r_floor:
        raise SingularRateError("base growth rate below floor")
    tau_base = params.m / r_base

    def p_of(u: float) -> float:
        return p_star + eps * perturbation(u)

    r_hi = 4.0 * tau_base

    def accumulated(tau: float) -> float:
        val, _ = quad(lambda u: model.r_growth(p_of(u), params), -tau, 0.0, limit=200)
        return val

    lo_grid = np.linspace(-r_hi, 0.0, 4097)
    p_vals = np.array([p_of(u) for u in lo_grid])
    if np.any(p_vals <= 0):
        raise ValueError("perturbation drives the phytoplankton history nonpositive")
    if accumulated(r_hi) < params.m:
        raise ValueError("threshold not reached within the bracket; eps too large")
    tau_pert = brentq(lambda t: accumulated(t) - params.m, 0.0, r_hi, xtol=1e-14)

    sup_norm = float(eps) * float(np.max(np.abs([perturbation(u) for u in lo_grid])))
    if sup_norm == 0.0:
        return 0.0
    integral, _ = quad(lambda u: eps * perturbation(u), -tau_base, 0.0, limit=200)
    rp = float(model.r_growth_prime(p_star, params))
    remainder = abs(tau_pert - tau_base + (rp / r_base) * integral)
    return remainder / sup_norm


class TestTauFrechet:
    def test_zero_perturbation(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=1.0)
        assert tau_frechet_check(0.3, lambda u: 0.0, 1e-3, p) == 0.0

    def test_constant_response_exact(self, table1):
        p = table1(delta0=0.17, l=None, m=4.0, n_total=1.0)
        ratio = tau_frechet_check(0.3, lambda u: math.sin(u), 1e-2, p)
        assert ratio <= 1e-12

    def test_remainder_decays_linearly(self, table1):
        p = table1(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        ratios = [
            tau_frechet_check(0.3, lambda u: 1.0, eps, p)
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[1] <= ratios[0] / 5
        assert ratios[2] <= ratios[1] / 5
        # constant-history delay has the closed form m/R, making the
        # remainder analytic; check against it at the largest step
        r = model.r_growth(0.3, p)
        rp = model.r_growth_prime(0.3, p)
        eps = 1e-2
        analytic = abs(
            p.m / model.r_growth(0.3 + eps, p) - p.m / r + (rp / r) * eps * (p.m / r)
        ) / eps
        assert ratios[0] == pytest.approx(analytic, rel=1e-6)

    def test_overlarge_perturbation_rejected(self, table1):
        p = table1(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        with pytest.raises(ValueError, match="nonpositive"):
            tau_frechet_check(0.3, lambda u: -1.0, 0.31, p)
