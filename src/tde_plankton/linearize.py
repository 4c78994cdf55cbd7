"""Linearization about an equilibrium and the transcendental spectrum.

The linearized dynamics couple the instantaneous state, the state one delay
ago, and a distributed term integrating the phytoplankton history over the
delay window:

    dy/dt = A1 y(t) + A2 y(t-T) + A3 * int_{-T}^{0} y(t+u) du.

Substituting y = v*exp(s*t) turns the window integral into the kernel
K(s) = (1 - exp(-s*T))/s, so stability is read off the roots of

    det(s*I - A1 - A2*exp(-s*T) - A3*K(s)) = 0,

an entire function of s once the removable singularity at s = 0 is handled.
A2 and A3 act on the zooplankton row only, so it is Q(s) - exp(-s*T) R(s)
- K(s) S(s) with polynomials fixed once per linearization.  :func:`char_fn`
evaluates it as that row's entries times their cofactor polynomials (its
rounding in step with the Hadamard yardstick's row norms; at a scalar both
come from one pass, :func:`char_fn_and_scale`), the entries computed once in
plain floats by :func:`linearization_entries`; :func:`linearization_at`, the
only constructor of :class:`LinearizationData`, keeps them in that record,
which rebuilds its matrices from them on demand.

Every root with Re s >= sigma lies in the disc |s| <= rho(sigma) of
:func:`root_radius`, a Rouché-type envelope (Michiels & Niculescu, Stability
and Stabilization of Time-Delay Systems, 2007; Stépán, Retarded Dynamical
Systems, 1989) from the coefficient magnitudes of Q, R and S.  The verdict,
:func:`rightmost_real_part`, which backs every stability claim made elsewhere
in the package, seeds Newton iteration only inside that disc at sigma = 0,
widened once to rho(v) if the verdict v found is negative: imaginary-axis
seeds at most pi/(2T) apart, grid_n setting their density (at most
default_omega_max/(grid_n - 1) apart, at least grid_n // 8), and a real line.
A frequency window's scan keeps the full span of :func:`default_omega_max`.
Each pass takes value and exact derivative by Horner on Q, R and S in place
over the seeds still moving, the kernel's series only at those inside its
switch circle (a seed stops once its step is not above tol relative to the
larger of its new iterate and ZERO_MODE_TOL); each scan is kept on its
linearization.  Where the delay terms D = Q - char_fn outweigh Q by
CRAWL_RATIO, Newton on char_fn crawls right by about 1/T a pass (Bellman &
Cooke, Differential-Difference Equations, 1963, ch. 12), so such a seed
takes the Newton step of log(Q/D), nearly linear there (where D'/D lies
within T of -T).  An iterate is a root where |char_fn| <= tol*B with B
finite: B is the Hadamard bound with each zooplankton-row entry taken as the
sum of its terms' magnitudes, which stays away from zero where that row's
delay factor vanishes (at the phytoplankton-only state the row is (0, 0, x2)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .equilibria import EquilibriumKind, EquilibriumPoint
from .exceptions import DomainError, SingularRateError
from .model import ModelParams

#: |s|*T below which the kernel (1-exp(-s*T))/s switches to its power series.
SERIES_SWITCH = 1e-4

#: Scanned roots closer than this, relative to max(1, |s|), are one root.
DEDUPE_RTOL = 1e-7

#: Newton sweep stop (step relative to the iterate) and root acceptance
#: (|char_fn| relative to its magnitude bound) tolerance, and its pass limit.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50

#: Roots smaller than this (1/day) are treated as the structural zero mode of
#: the conservation law when delta0 = 0 and excluded from stability verdicts;
#: it is also the Newton stop rule's floor on |s|, so seeds converging to
#: that root stop instead of hopping at rounding level.
ZERO_MODE_TOL = 1e-6

#: A Newton seed whose delay terms D exceed this multiple of the polynomial
#: part Q of char_fn = Q - D takes the Newton step of log(Q/D) (the crawl).
CRAWL_RATIO = 1e3

#: Right of Re s = -_EXP_ROOM/T, exp(-s*T) stays below the square root of the
#: float range, so a Newton pass's products with it stay finite.
_EXP_ROOM = 0.5 * math.log(np.finfo(float).max)


class CharForm(NamedTuple):
    """det(s*I - A1 - exp(-s*T) A2 - K(s) A3) expanded along the zooplankton
    row, the only row A2 and A3 touch: the other rows' entries, that row's
    entries, and (p0, v0, p1, v1, u2, v2) of its cofactor polynomials
    C0 = p0 s + v0, C1 = p1 s + v1 and C2 = s^2 + u2 s + v2."""

    top: tuple[float, ...]  # a00, a01, a02, a10, a11, a12
    bottom: tuple[float, ...]  # a20, a21, a22, then row 2 of a2 and of a3
    cofactors: tuple[float, ...]


def _form(top: tuple[float, ...], bottom: tuple[float, ...]) -> CharForm:
    a00, a01, a02, a10, a11, a12 = top
    return CharForm(
        top=top,
        bottom=bottom,
        cofactors=(a02, a01 * a12 - a02 * a11, a12, a02 * a10 - a12 * a00,
                   -(a00 + a11), a00 * a11 - a01 * a10),
    )


_ZERO_ROW = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class LinearizationData:
    """Closed form and scalars of the linearized system at an equilibrium.

    ``char_form`` holds the entries of ``a1`` (instantaneous state), ``a2``
    (the state one delay ``t_delay`` ago) and ``a3`` (the history integral
    over the delay window); the matrices are rebuilt from it on each read.
    The reference growth rate is pinned to R(p_star) so the threshold-delay
    and fixed-delay linearizations coincide.  ``char_poly`` and
    ``horner_terms`` are derived on first use; ``scans`` holds this
    instance's root scans, and a ``dataclasses.replace`` copy starts
    without any of them.
    """

    char_form: CharForm
    t_delay: float
    coeff_a: float  # f'(n_star)
    coeff_d: float  # h(p_star)
    delta0: float
    rate_scale: float

    @cached_property
    def char_poly(self) -> tuple[float, ...]:
        return _char_poly(self.char_form)

    @cached_property
    def horner_terms(self) -> tuple[np.ndarray, ...]:
        """char_poly, 3, 2 q2, 2 r2, 2 w2 and t_delay as 0-d complex arrays,
        which numpy applies faster than Python floats, to the same bits."""
        p = self.char_poly
        return tuple(np.array(c, dtype=complex)
                     for c in (*p, 3.0, 2.0 * p[0], 2.0 * p[3], 2.0 * p[6], self.t_delay))

    @cached_property
    def scans(self) -> dict:  # (grid_n, disc) -> RootScan
        return {}

    @property
    def a1(self) -> np.ndarray:
        top, bottom = self.char_form.top, self.char_form.bottom
        return np.array([top[:3], top[3:], bottom[:3]])

    @property
    def a2(self) -> np.ndarray:
        return np.array([_ZERO_ROW, _ZERO_ROW, self.char_form.bottom[3:6]])

    @property
    def a3(self) -> np.ndarray:
        return np.array([_ZERO_ROW, _ZERO_ROW, self.char_form.bottom[6:]])


def linearization_entries(
    n: float, p: float, z: float, m: float, params: ModelParams
) -> tuple[CharForm, float, float, float]:
    """The closed form at an arbitrary state (n, p, z, m), from plain floats,
    with no record built: (char_form, t_delay, f'(n), h(p)).

    DomainError for p <= 0 or n < 0, SingularRateError for R(p) below the
    floor, OverflowError where exp(-delta0*m/R) leaves the float range.
    """
    if p <= 0:
        raise DomainError("linearization requires p_star > 0")
    el = params.l
    r = 1.0 if el is None else p / (p + el)
    if r < params.r_floor:
        raise SingularRateError("growth rate below floor at the linearization point")
    rp = 0.0 if el is None else el / (p + el) ** 2
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n!r}")
    k, kk = params.k, params.kk
    a, b = k / (n + k) ** 2, kk / (p + kk) ** 2  # f'(n), h'(p)
    c, d = n / (n + k), p / (p + kk)  # f(n), h(p)
    mu, lam, g, gam = params.mu, params.lam, params.g, params.gamma
    delta, delta0 = params.delta, params.delta0
    big_t = m / r
    surv = math.exp(-delta0 * big_t)
    top = (-mu * p * a - delta0, -mu * c + lam + (1 - gam) * g * z * b - delta0,
           delta - delta0 + (1 - gam) * g * d,
           mu * p * a, mu * c - lam - g * z * b, -g * d)
    bottom = (0.0, surv * gam * g * z * d * rp / r, -delta,  # row 2 of a1,
              0.0, surv * gam * g * z * (b - rp / r * d), surv * gam * g * d,  # of a2,
              0.0, delta0 * surv * gam * g * z * d * rp / r, 0.0)  # of a3
    return _form(top, bottom), big_t, a, d


def linearization_at(
    n: float, p: float, z: float, m: float, params: ModelParams
) -> LinearizationData:
    """Linearization at an arbitrary state (n, p, z, m): the record of
    :func:`linearization_entries`, which raises what it raises."""
    return LinearizationData(*linearization_entries(n, p, z, m, params), params.delta0,
                             max(params.mu, params.g, params.delta))


def build_linearization(eq: EquilibriumPoint, params: ModelParams) -> LinearizationData:
    """Linearization about a genuine equilibrium (rejects the limit point)."""
    if eq.kind is EquilibriumKind.LIMIT_E0:
        raise DomainError(
            "the plankton-free limit point is not an equilibrium of the delay system"
        )
    return linearization_at(eq.n_star, eq.p_star, eq.z_star, params.m, params)


def _delay_terms_scalar(s: complex, big_t: float) -> tuple[complex, complex]:
    """exp(-s*T) and the kernel K(s) = (1 - exp(-s*T))/s at one point; raises
    OverflowError or ValueError where cmath leaves the float range."""
    e = cmath.exp(-s * big_t)
    if abs(s) * big_t < SERIES_SWITCH:
        return e, big_t - s * big_t**2 / 2.0 + s**2 * big_t**3 / 6.0
    return e, (1.0 - e) / s


def _delay_terms(s: np.ndarray, big_t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-s*T), K(s) and K'(s) at an array of points, the kernel switching to
    its power series across the removable zero.  Far-field seeds overflow
    exp(); callers mask the non-finite values and hold np.errstate."""
    e = np.exp(-s * big_t)
    kern = 1.0 - e
    kern /= s
    dkern = big_t * e
    dkern -= kern
    dkern /= s
    mag = np.abs(s)
    # is any point inside the circle?  fmin skips the NaN that min would return
    if np.fmin.reduce(mag, axis=None, initial=np.inf) * big_t < SERIES_SWITCH:
        small = mag * big_t < SERIES_SWITCH
        z = s[small]
        kern[small] = big_t - z * big_t**2 / 2.0 + z**2 * big_t**3 / 6.0
        dkern[small] = -big_t**2 / 2.0 + z * big_t**3 / 3.0
    return e, kern, dkern


def _bottom_row(s, e, kern, form: CharForm) -> tuple:
    a20, a21, a22, b20, b21, b22, c20, c21, c22 = form.bottom
    return (-a20 - b20 * e - c20 * kern,
            -a21 - b21 * e - c21 * kern,
            -a22 - b22 * e - c22 * kern + s)


def _expand(s, row, form: CharForm):
    """The zooplankton row times its cofactor polynomials."""
    x0, x1, x2 = row
    p0, v0, p1, v1, u2, v2 = form.cofactors
    return x0 * (p0 * s + v0) + x1 * (p1 * s + v1) + x2 * ((s + u2) * s + v2)


def _hadamard(s, row, form: CharForm):
    """Product of the three row norms, given the zooplankton row."""
    sqrt = np.sqrt if isinstance(s, np.ndarray) else math.sqrt
    a00, a01, a02, a10, a11, a12 = form.top
    # h * h, not h**2, which raises OverflowError on Python floats
    h0, h1, x0, x1, x2 = abs(s - a00), abs(s - a11), abs(row[0]), abs(row[1]), abs(row[2])
    return (sqrt(h0 * h0 + a01 * a01 + a02 * a02)
            * sqrt(a10 * a10 + h1 * h1 + a12 * a12)
            * sqrt(x0 * x0 + x1 * x1 + x2 * x2))


def char_fn_and_scale(s: complex, form: CharForm, t_delay: float) -> tuple[complex, float]:
    """char_fn and char_scale at one complex point, from one pass on a
    linearization's closed form and delay: exp(-s*T), K(s) and the
    zooplankton row serve both.  Each is NaN where its own arithmetic leaves
    the float range (cmath.exp, or abs() in a row norm)."""
    try:
        e, kern = _delay_terms_scalar(s, t_delay)
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan), math.nan
    row = _bottom_row(s, e, kern, form)
    try:
        scale = _hadamard(s, row, form)
    except OverflowError:
        scale = math.nan
    return _expand(s, row, form), scale


def _evaluate(s, lin: LinearizationData, fn, pick: int):
    """The ``pick`` part of char_fn_and_scale at a scalar; fn(s, zooplankton
    row, form) in numpy at an array."""
    if isinstance(s, (complex, float, int)) or np.ndim(s) == 0:
        return char_fn_and_scale(complex(s), lin.char_form, lin.t_delay)[pick]
    s = np.asarray(s, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e, kern, _ = _delay_terms(s, lin.t_delay)
        return fn(s, _bottom_row(s, e, kern, lin.char_form), lin.char_form)


def char_fn(s, lin: LinearizationData):
    """Characteristic function at a complex scalar or an ndarray of seeds.

    Far-field points, where exp(-s*T) overflows, give non-finite values.
    """
    return _evaluate(s, lin, _expand, 0)


def char_scale(s, lin: LinearizationData):
    """Hadamard bound on |char_fn|: product of row norms. Relative-error yardstick."""
    return _evaluate(s, lin, _hadamard, 1)


def _bound(s, e, kern, form: CharForm):
    """The Hadamard bound with each zooplankton-row entry replaced by the sum
    of its terms' magnitudes, which does not vanish with the delay factor."""
    a20, a21, a22, b20, b21, b22, c20, c21, c22 = form.bottom
    ae, ak = abs(e), abs(kern)
    row = (abs(a20) + abs(b20) * ae + abs(c20) * ak,
           abs(a21) + abs(b21) * ae + abs(c21) * ak,
           abs(a22) + abs(b22) * ae + abs(c22) * ak + abs(s))
    return _hadamard(s, row, form)


def _char_poly(form: CharForm) -> tuple[float, ...]:
    """(q2, q1, q0, r2, r1, r0, w2, w1, w0): char_fn = Q - exp(-s*T) R - K(s) S
    with Q = s^3 + q2 s^2 + q1 s + q0, R = r2 s^2 + r1 s + r0, S = w2 s^2 + w1 s + w0."""
    a20, a21, a22, b20, b21, b22, c20, c21, c22 = form.bottom
    p0, v0, p1, v1, u2, v2 = form.cofactors

    def along_row(x0, x1, x2):  # x0 C0 + x1 C1 + x2 C2
        return x2, x0 * p0 + x1 * p1 + x2 * u2, x0 * v0 + x1 * v1 + x2 * v2

    q2, q1, q0 = along_row(-a20, -a21, -a22)
    return (q2 + u2, q1 + v2, q0, *along_row(b20, b21, b22), *along_row(c20, c21, c22))


def _horner(t, s, *coeffs):
    """(((t + c0) s + c1) s + ...) in place in t, which holds the leading term."""
    t += coeffs[0]
    for c in coeffs[1:]:
        t *= s
        t += c
    return t


def _char_newton(s: np.ndarray, lin: LinearizationData, parts: bool = False) -> tuple:
    """char_fn and its exact derivative at an array of points, by Horner on
    Q, R and S; non-finite where exp(-s*T) overflows (callers hold np.errstate).
    Runs in place, each product keeping its operands in the order of
    f = Q - e R - K S and f' = Q' - e (R' - T R) - K' S - K S': complex
    products are not bitwise commutative.  With ``parts`` it also returns
    copies of Q and Q', taken before the delay terms are subtracted."""
    if s.size == 1:
        # numpy's in-place complex product on a single element runs another
        # loop, which rounds differently from every longer array: pass a pair
        return tuple(a[:1] for a in _char_newton(np.repeat(s, 2), lin, parts))
    q2, q1, q0, r2, r1, r0, w2, w1, w0, three, q2x2, r2x2, w2x2, big_t = lin.horner_terms
    e, kern, dkern = _delay_terms(s, lin.t_delay)
    mul = np.multiply
    r = _horner(mul(r2, s), s, r1, r0)
    w = _horner(mul(w2, s), s, w1, w0)
    f = _horner(s.copy(), s, q2, q1, q0)
    q = f.copy() if parts else None
    t = mul(e, r)
    f -= t
    f -= mul(kern, w, out=t)
    df = _horner(mul(three, s), s, q2x2, q1)
    dq = df.copy() if parts else None
    _horner(mul(r2x2, s, out=t), s, r1)
    t -= mul(big_t, r, out=r)
    df -= mul(e, t, out=t)
    df -= mul(dkern, w, out=t)
    df -= mul(kern, _horner(mul(w2x2, s, out=w), s, w1), out=w)
    return (f, df, q, dq) if parts else (f, df)


def _newton_batch(seeds: np.ndarray, lin: LinearizationData) -> tuple[np.ndarray, np.ndarray]:
    """Undamped Newton on char_fn from every finite seed at once.

    Each of up to NEWTON_MAX_ITER passes evaluates char_fn = Q - D and its
    exact derivative on the working set, the seeds still moving.  A seed
    whose delay terms outweigh the polynomial, |D| > CRAWL_RATIO*|Q|, where
    plain Newton crawls right by about 1/T a pass, takes the Newton step of
    log(Q/D) instead, which is nearly linear there, unless D'/D lies T or
    more from -T.  A seed leaves the working set once it applies a step
    with |step| <= NEWTON_TOL*max(|s_new|, ZERO_MODE_TOL), and, keeping its
    iterate, once its step is not finite (non-finite f, df = 0).  An
    iterate is converged where |char_fn| <= NEWTON_TOL times a finite
    magnitude bound.  Returns (iterates, converged mask).
    """
    big_t = lin.t_delay
    s = np.asarray(seeds, dtype=complex).copy()
    moving = np.flatnonzero(np.isfinite(s))
    x = s[moving]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            if not moving.size:
                break
            f, df, q, dq = _char_newton(x, lin, parts=True)
            step = f / df
            d = q - f
            crawl = np.flatnonzero(np.abs(d) > CRAWL_RATIO * np.abs(q))
            if crawl.size:
                q, dq, d = q[crawl], dq[crawl], d[crawl]
                dlog_d = (dq - df[crawl]) / d
                # log(Q/D) is nearly linear only where D'/D is near -T, not
                # near a root that D shares with Q (s = -delta0 = -delta
                # with a constant response)
                step[crawl] = np.where(np.abs(dlog_d + big_t) < big_t,
                                       np.log(q / d) / (dq / q - dlog_d), step[crawl])
            x_new = x - step
            s[moving] = np.where(np.isfinite(step), x_new, x)
            # a non-finite step fails this test too
            go = np.abs(step) > NEWTON_TOL * np.maximum(np.abs(x_new), ZERO_MODE_TOL)
            moving, x = moving[go], x_new[go]
    f = char_fn(s, lin)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = _bound(s, *_delay_terms(s, lin.t_delay)[:2], lin.char_form)
    ok = (np.isfinite(s) & np.isfinite(f) & np.isfinite(bound)
          & (np.abs(f) <= NEWTON_TOL * np.maximum(bound, 1e-300)))
    return s, ok


def _dedupe(roots: np.ndarray) -> np.ndarray:
    """Finite roots sorted by (real, imag), each kept when it lies farther
    than DEDUPE_RTOL*max(1, |r|) from the last root kept before it.

    A root whose real part clears its predecessor's by more than that
    radius is kept whatever came before, so it heads a run; a run whose
    members all lie within their radius of its head keeps the head alone,
    and only the other runs are walked root by root.
    """
    if roots.size == 0:
        return roots
    roots = roots[np.lexsort((roots.imag, roots.real))]
    radius = DEDUPE_RTOL * np.maximum(1.0, np.abs(roots))
    keep = np.empty(roots.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(roots.real) > radius[1:]
    heads = np.flatnonzero(keep)
    run = np.cumsum(keep) - 1
    stops = np.append(heads[1:], roots.size)
    for k in np.unique(run[np.abs(roots - roots[heads[run]]) > radius]).tolist():
        last = roots[heads[k]]
        for i in range(heads[k] + 1, stops[k]):
            if abs(roots[i] - last) > radius[i]:
                keep[i] = True
                last = roots[i]
    return roots[keep]


@dataclass(frozen=True)
class RootScan:
    """Converged roots from a seed sweep, plus the fraction of seeds that landed."""

    roots: np.ndarray
    coverage: float


def default_omega_max(lin: LinearizationData) -> float:
    rates = [lin.rate_scale, 1.0]
    if lin.t_delay > 0:
        rates.append(1.0 / lin.t_delay)
    return 10.0 * max(rates)


def root_radius(lin: LinearizationData, sigma: float = 0.0) -> float:
    """Radius rho of a disc |s| <= rho holding every root with Re s >= sigma:
    there |exp(-s*T)| <= E = exp(-sigma*T) and |K(s)| <= (1 + E)/|s|, so
    |Q| <= E|R| + (1 + E)|S|/|s|, and with char_poly's coefficient magnitudes
    p(|s|) <= 0 for p(r) = r^4 - c3 r^3 - c2 r^2 - c1 r - c0.  rho is its one
    positive root; p is convex right of rho, so Newton from Fujiwara's bound
    stays above it."""
    try:
        big_e = math.exp(-sigma * lin.t_delay) if lin.t_delay else 1.0
    except OverflowError:
        return math.inf
    q2, q1, q0, r2, r1, r0, w2, w1, w0 = map(abs, lin.char_poly)
    c3, c2 = q2 + big_e * r2, q1 + big_e * r1 + (1 + big_e) * w2
    c1, c0 = q0 + big_e * r0 + (1 + big_e) * w1, (1 + big_e) * w0
    r = 2.0 * max(c3, c2 ** 0.5, c1 ** (1 / 3), (c0 / 2) ** 0.25)
    while 0.0 < r < math.inf:
        step = ((((r - c3) * r - c2) * r - c1) * r - c0) / (
            ((4.0 * r - 3.0 * c3) * r - 2.0 * c2) * r - c1)
        r -= step
        if not step > NEWTON_TOL * r:
            break
    return r


def _disc_seeds(lin: LinearizationData, grid_n: int, rho: float) -> np.ndarray:
    """Seeds of the disc |s| <= rho: imaginary-axis seeds at most pi/(2T)
    and omega_max/(grid_n - 1) apart, never fewer than grid_n // 8, and
    max(grid_n // 8, 17) on [-rho, rho], none left of -_EXP_ROOM/T."""
    big_t = lin.t_delay
    step = min(default_omega_max(lin) / (grid_n - 1),
               math.pi / (2.0 * big_t) if big_t else math.inf)
    im = np.linspace(0.0, rho, max(grid_n // 8, math.ceil(rho / step) + 1))
    re = np.linspace(-rho, rho, max(grid_n // 8, 17))
    return np.concatenate([1j * im, re[re * big_t >= -_EXP_ROOM]])


def scan_roots(lin: LinearizationData, grid_n: int = 512, disc: bool = False) -> RootScan:
    """Newton root sweep from imaginary-axis seeds up to
    :func:`default_omega_max` plus a real-axis line, or, with ``disc``, from
    seeds in the disc of :func:`root_radius` at 0; where the rightmost root
    v found (structural zero dropped) gives a larger radius at min(v, 0),
    the seeds of that disc outside the first are swept too, once, since
    merging moves v right only.  Both radii are capped at
    :func:`default_omega_max`.

    Kept on ``lin``: a repeat returns the same scan, with read-only roots.
    """
    if grid_n < 64:
        raise DomainError("grid_n must be at least 64")
    scan = lin.scans.get((grid_n, disc))
    if scan is not None:
        return scan
    omega_max = default_omega_max(lin)
    if disc:
        rho = min(root_radius(lin), omega_max)
        seeds = _disc_seeds(lin, grid_n, rho)
    else:
        seeds = np.concatenate(
            [
                1j * np.linspace(0.0, omega_max, grid_n),
                np.linspace(-omega_max, 0.25 * omega_max, max(grid_n // 8, 17)),
            ]
        )
    roots, ok = _newton_batch(seeds, lin)
    if disc:
        found = _drop_structural_zero(roots[ok], lin).real
        wide = min(root_radius(lin, min(float(np.max(found, initial=-math.inf)), 0.0)), omega_max)
        if wide > rho:
            more = _disc_seeds(lin, grid_n, wide)
            more = _newton_batch(more[np.abs(more) > rho], lin)
            roots, ok = np.concatenate([roots, more[0]]), np.concatenate([ok, more[1]])
    coverage = float(np.mean(ok))
    kept = roots[ok]
    # conjugate symmetry: fold onto the upper half plane
    kept = _dedupe(np.where(kept.imag < 0, np.conj(kept), kept))
    # one more Newton step within the dedupe radius: a seed that landed in
    # the last pass carries the root test's error, not the stop rule's
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, df = _char_newton(kept, lin)
        step = f / df
    kept = np.where(np.abs(step) <= DEDUPE_RTOL * np.maximum(1.0, np.abs(kept)), kept - step, kept)
    kept = np.where(kept.imag < 0, np.conj(kept), kept)
    kept.flags.writeable = False
    scan = lin.scans[grid_n, disc] = RootScan(roots=kept, coverage=coverage)
    return scan


def _drop_structural_zero(roots: np.ndarray, lin: LinearizationData) -> np.ndarray:
    """With delta0 = 0 the conservation law pins a root at s = 0 for every
    equilibrium; it says nothing about stability on the conserved manifold."""
    if lin.delta0 != 0.0:
        return roots
    return roots[np.abs(roots) > ZERO_MODE_TOL]


def _rightmost_root(
    lin: LinearizationData, omega_window: tuple[float, float] | None, grid_n: int
) -> complex | None:
    """Rightmost scanned root, structural zero dropped, frequency optionally
    windowed to [lo, hi); None when no root is left."""
    scan = scan_roots(lin, grid_n=grid_n, disc=omega_window is None)
    roots = _drop_structural_zero(scan.roots, lin)
    if omega_window is not None:
        roots = roots[(roots.imag >= omega_window[0]) & (roots.imag < omega_window[1])]
    if roots.size == 0:
        return None
    return complex(roots[np.argmax(roots.real)])


def rightmost_real_part(lin: LinearizationData, grid_n: int = 512) -> float:
    """Largest real part among the roots found by the disc scan.

    Best-effort by construction: the verdict is only as good as the seed
    coverage (grid_n controls it).  Returns -inf if nothing converged.
    """
    root = _rightmost_root(lin, None, grid_n)
    return -math.inf if root is None else root.real


def rightmost_in_window(
    lin: LinearizationData, omega_window: tuple[float, float], grid_n: int = 256
) -> float | None:
    """Largest real part among roots whose frequency lies in the given window.

    Windowing isolates one crossing pair at a time, which is what lets the
    boundary seeding find curves beyond the first loss of stability.
    Returns None when no root lands in the window.
    """
    root = _rightmost_root(lin, omega_window, grid_n)
    return None if root is None else root.real

