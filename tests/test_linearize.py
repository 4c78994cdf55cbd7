import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from tde_plankton import equilibria, linearize, model
from tde_plankton.exceptions import BracketError, DomainError, NoConvergeError
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

    def test_kernel_branches_agree_at_switch(self, table1):
        _, _, lin = e2_lin(table1)
        big_t = lin.t_delay
        s = (linearize.SERIES_SWITCH / big_t) * np.exp(
            1j * np.linspace(0, 2 * math.pi, 64)
        )
        series = big_t - s * big_t ** 2 / 2.0 + s ** 2 * big_t ** 3 / 6.0
        direct = (1.0 - np.exp(-s * big_t)) / s
        assert np.max(np.abs(series - direct) / np.abs(direct)) <= 1e-10

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
            shifted = LinearizationData(
                a1=lin.a1, a2=lin.a2, a3=lin.a3,
                t_delay=lin.t_delay + 2 * math.pi / omega,
                coeff_a=lin.coeff_a, coeff_b=lin.coeff_b,
                coeff_c=lin.coeff_c, coeff_d=lin.coeff_d,
                delta0=lin.delta0, rate_scale=lin.rate_scale,
            )
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
        f, df, scale = linearize._char_newton(arr, lin)
        if not np.isfinite(f[0]):
            return
        # the Newton pass evaluates char_fn and char_scale exactly as they do
        assert f[0] == linearize.char_fn(arr, lin)[0]
        assert scale[0] == linearize.char_scale(arr, lin)[0]
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

    def test_delayed_terms_off_the_zooplankton_row_rejected(self, table1):
        _, _, lin = e2_lin(table1)
        for name in ("a2", "a3"):
            bad = getattr(lin, name).copy()
            bad[1, 2] = 1e-3
            with pytest.raises(DomainError):
                dataclasses.replace(lin, **{name: bad})


#: rightmost_real_part from the cofactor-expansion kernel with its
#: finite-difference Newton, the path the closed form replaced: criterion 4's
#: 24 E1 points (nt = nt1 + frac*(nt2 - nt1), grid_n=128) and 20 E2 points
#: (nt = factor*nt2, default grid).  Columns: kind, delta0, l, m, frac or
#: factor, verdict.
PINNED_VERDICTS = [
    ("E1", 0.0, None, 2.0, 0.25, -0.05270762830201385),
    ("E1", 0.0, None, 2.0, 0.5, -0.07041758553321664),
    ("E1", 0.0, None, 2.0, 0.9, -0.18974746184249303),
    ("E1", 0.0, None, 6.0, 0.25, -0.05270762829270127),
    ("E1", 0.0, None, 6.0, 0.5, -0.05189870790793895),
    ("E1", 0.0, None, 6.0, 0.9, -0.1897474618621907),
    ("E1", 0.0, 0.159, 2.0, 0.25, -0.052707628274543464),
    ("E1", 0.0, 0.159, 2.0, 0.5, -0.10541525656645287),
    ("E1", 0.0, 0.159, 2.0, 0.9, -0.1897474618196089),
    ("E1", 0.0, 0.159, 6.0, 0.25, -0.05270762828296427),
    ("E1", 0.0, 0.159, 6.0, 0.5, -6.3173454259855495),
    ("E1", 0.0, 0.159, 6.0, 0.9, -0.18974746181961524),
    ("E1", 0.17, None, 2.0, 0.25, -0.07514512820729352),
    ("E1", 0.17, None, 2.0, 0.5, -0.0698203230109455),
    ("E1", 0.17, None, 2.0, 0.9, -0.01239233433908521),
    ("E1", 0.17, None, 6.0, 0.25, -0.09094897478858523),
    ("E1", 0.17, None, 6.0, 0.5, -0.17000000008209593),
    ("E1", 0.17, None, 6.0, 0.9, -0.00795814525325897),
    ("E1", 0.17, 0.159, 2.0, 0.25, -0.11876436524086653),
    ("E1", 0.17, 0.159, 2.0, 0.5, -0.07418655479571752),
    ("E1", 0.17, 0.159, 2.0, 0.9, -0.013502336956864175),
    ("E1", 0.17, 0.159, 6.0, 0.25, -0.10509417984235829),
    ("E1", 0.17, 0.159, 6.0, 0.5, -26.25),
    ("E1", 0.17, 0.159, 6.0, 0.9, -0.009811194246282212),
    ("E2", 0.0, None, 0.0, 1.5, -0.10220203715942908),
    ("E2", 0.0, None, 2.0, 2.5, -0.07852416547845893),
    ("E2", 0.0, None, 6.0, 4.0, -0.0429125524075079),
    ("E2", 0.0, None, 10.0, 8.0, 0.0012113308690711727),
    ("E2", 0.0, None, 15.0, 20.0, 0.03046107755467575),
    ("E2", 0.0, 0.159, 0.0, 1.5, -0.10220203715942908),
    ("E2", 0.0, 0.159, 2.0, 2.5, -0.08753790851575986),
    ("E2", 0.0, 0.159, 6.0, 4.0, -0.015038861427293881),
    ("E2", 0.0, 0.159, 10.0, 8.0, -0.011696628050916019),
    ("E2", 0.0, 0.159, 15.0, 20.0, -0.004322793628146538),
    ("E2", 0.17, None, 0.0, 1.5, -0.10220203718327227),
    ("E2", 0.17, None, 2.0, 2.5, -0.11272253783843866),
    ("E2", 0.17, None, 6.0, 4.0, -0.16119840911795644),
    ("E2", 0.17, None, 10.0, 8.0, -0.0875301514914999),
    ("E2", 0.17, None, 15.0, 20.0, 0.5583708548871431),
    ("E2", 0.17, 0.159, 0.0, 1.5, -0.10220203718327227),
    ("E2", 0.17, 0.159, 2.0, 2.5, -0.1700000000280888),
    ("E2", 0.17, 0.159, 6.0, 4.0, -0.1596575965658349),
    ("E2", 0.17, 0.159, 10.0, 8.0, -0.14108650546023915),
    ("E2", 0.17, 0.159, 15.0, 20.0, 0.8409370503750467),
]

#: Pinned points where the seed scan of either kernel misses the rightmost
#: root, and the two kernels' iterates settle on different points.
SCAN_DIFFERS = {
    # both verdicts are roots left of the rightmost one; today's is nearer it
    ("E1", 0.0, 0.159, 6.0, 0.25): "nearer",
    # both verdicts are far-field points accepted where char_scale overflows
    ("E1", 0.0, 0.159, 6.0, 0.5): "far_field",
}


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


class TestPinnedVerdicts:
    @pytest.mark.parametrize("case", PINNED_VERDICTS, ids=lambda c: "-".join(map(str, c[:5])))
    def test_closed_form_keeps_the_verdict(self, case):
        key, pinned = case[:5], case[5]
        p, lin = pinned_lin(*key)
        grid = {"grid_n": 128} if key[0] == "E1" else {}
        got = linearize.rightmost_real_part(lin, **grid)
        how = SCAN_DIFFERS.get(key)
        if how is None:
            assert got == pytest.approx(pinned, abs=1e-9)
        elif how == "nearer":
            assert pinned < got < e1_rightmost(p, lin)
        else:
            assert got < -6.0 and got == pytest.approx(pinned, abs=1e-7)

    def test_e1_oracle_matches_the_factorization(self):
        # the oracle itself: its root zeroes the third factor
        p, lin = pinned_lin("E1", 0.17, 0.159, 2.0, 0.9)
        s = e1_rightmost(p, lin)
        third = s + p.delta - p.gamma * p.g * lin.coeff_d * math.exp(-(p.delta0 + s) * lin.t_delay)
        assert abs(third) <= 1e-12
        assert s == pytest.approx(linearize.rightmost_real_part(lin, grid_n=128), abs=1e-9)


class TestRoots:
    def test_refine_from_closed_form_seed(self, table1):
        p, e1, lin = e1_lin(table1)
        seed = -p.mu * e1.p_star * lin.coeff_a
        root = linearize.refine_root(complex(seed * (1 + 1e-6)), lin)
        assert root.real == pytest.approx(seed, rel=1e-8)
        assert abs(root.imag) <= 1e-8

    def test_hopeless_seed_raises(self, table1):
        _, _, lin = e2_lin(table1)
        with pytest.raises(NoConvergeError):
            linearize.refine_root(complex(-1e8), lin)

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


class TestScanReuse:
    def test_repeat_returns_the_stored_scan(self, table1):
        _, _, lin = e2_lin(table1)
        first = linearize.scan_roots(lin, grid_n=128)
        assert linearize.scan_roots(lin, grid_n=128) is first
        # the verdicts read the same stored scan (default omega_max)
        assert linearize.rightmost_real_part(lin, grid_n=128) == max(first.roots.real)
        assert len(lin.scans) == 1
        other = linearize.scan_roots(lin, grid_n=256)
        assert other is not first and len(lin.scans) == 2
        assert linearize.scan_roots(lin, omega_max=5.0, grid_n=128) is not first

    def test_stored_roots_are_read_only(self, table1):
        _, _, lin = e2_lin(table1)
        scan = linearize.scan_roots(lin, grid_n=128)
        with pytest.raises(ValueError):
            scan.roots[0] = 0.0

    def test_a_replaced_copy_starts_without_scans(self, table1):
        _, _, lin = e2_lin(table1)
        first = linearize.scan_roots(lin, grid_n=128)
        for copy in (dataclasses.replace(lin), dataclasses.replace(lin, a2=-lin.a2)):
            assert copy.scans == {}
            assert linearize.scan_roots(copy, grid_n=128) is not first
        again = linearize.scan_roots(dataclasses.replace(lin), grid_n=128)
        assert np.array_equal(again.roots, first.roots)


class TestTauFrechet:
    def test_zero_perturbation(self, table1):
        p = table1(delta0=0.17, m=6.0, n_total=1.0)
        assert linearize.tau_frechet_check(0.3, lambda u: 0.0, 1e-3, p) == 0.0

    def test_constant_response_exact(self, table1):
        p = table1(delta0=0.17, l=None, m=4.0, n_total=1.0)
        ratio = linearize.tau_frechet_check(0.3, lambda u: math.sin(u), 1e-2, p)
        assert ratio <= 1e-12

    def test_remainder_decays_linearly(self, table1):
        p = table1(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        ratios = [
            linearize.tau_frechet_check(0.3, lambda u: 1.0, eps, p)
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
        with pytest.raises(BracketError):
            linearize.tau_frechet_check(0.3, lambda u: -1.0, 0.31, p)
