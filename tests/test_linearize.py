import cmath
import dataclasses
import itertools
import math
import warnings
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
        first = linearize.scan_roots(lin, grid_n=128)
        assert linearize.scan_roots(lin, grid_n=128) is first
        # the verdicts read the same stored scan
        assert linearize.rightmost_real_part(lin, grid_n=128) == max(first.roots.real)
        assert len(lin.scans) == 1
        other = linearize.scan_roots(lin, grid_n=256)
        assert other is not first and len(lin.scans) == 2

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


def full_array_newton(seeds, lin, *, tol=1e-10, max_iter=50):
    """Reference sweep: every seed goes through every pass, a stopped seed
    keeping its iterate.  A seed stops once it applies a step with
    |step| <= tol*|s_new|, or, without applying it, on a non-finite step."""
    s = np.asarray(seeds, dtype=complex).copy()
    alive = np.isfinite(s)
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f, df = linearize._char_newton(s, lin)
            step = f / df
            new = s - step
            applied = alive & np.isfinite(step)
            alive = applied & ~(np.abs(step) <= tol * np.abs(new))
        s = np.where(applied, new, s)
        if not alive.any():
            break
    f = linearize.char_fn(s, lin)
    bound = acceptance_bound(s, lin)
    ok = (np.isfinite(s) & np.isfinite(f) & np.isfinite(bound)
          & (np.abs(f) <= tol * np.maximum(bound, 1e-300)))
    return s, ok


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
    """_newton_batch drops a seed once its step is below tol relative or
    non-finite; the full-array sweep is the reference, bit for bit."""

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
