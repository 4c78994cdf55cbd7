"""Linearization about an equilibrium and the transcendental spectrum.

The linearized dynamics couple the instantaneous state, the state one delay
ago, and a distributed term integrating the phytoplankton history over the
delay window:

    dy/dt = A1 y(t) + A2 y(t-T) + A3 * int_{-T}^{0} y(t+u) du.

Substituting y = v*exp(s*t) turns the window integral into the kernel
K(s) = (1 - exp(-s*T))/s, so stability is read off the roots of

    det(s*I - A1 - A2*exp(-s*T) - A3*K(s)) = 0,

an entire function of s once the removable singularity at s = 0 is handled.
A2 and A3 act on the zooplankton row only, so it is Q(s) + exp(-s*T) R(s)
+ K(s) S(s) with polynomials fixed once per linearization, evaluated as that
row's entries times their cofactor polynomials (so its rounding error stays
in step with the row norms of the Hadamard yardstick) and with an exact
derivative; its entries come from one float-only kernel, :func:`char_point`.
Root location is grid-seeded damped-free Newton iteration on that
derivative, each pass over the working set of seeds still moving (a seed
stops once its step is zero or non-finite), each scan kept on its
linearization.  An iterate is a root where |char_fn| <= tol*B with B finite:
B is the Hadamard bound with each zooplankton-row entry taken as the sum of
its terms' magnitudes, which stays away from zero where that row's delay
factor vanishes (at the phytoplankton-only state the row is (0, 0, x2)).
The verdict helper returns the largest real part found, which backs every
stability claim made elsewhere in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import model
from .equilibria import EquilibriumKind, EquilibriumPoint
from .exceptions import BracketError, DomainError, NoConvergeError, SingularRateError
from .model import ModelParams

#: |s|*T below which the kernel (1-exp(-s*T))/s switches to its power series.
SERIES_SWITCH = 1e-4

#: Roots smaller than this (1/day) are treated as the structural zero mode of
#: the conservation law when delta0 = 0 and excluded from stability verdicts.
ZERO_MODE_TOL = 1e-6


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


def _char_form(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> CharForm:
    if np.any(a2[:2] != 0) or np.any(a3[:2] != 0):
        raise DomainError("delayed and distributed terms must act on the zooplankton row only")
    return _form(tuple(a1[:2].ravel().tolist()),
                 (*a1[2].tolist(), *a2[2].tolist(), *a3[2].tolist()))


class CharPoint(NamedTuple):
    """All that char_fn and char_scale read of a linearization."""

    char_form: CharForm
    t_delay: float


def char_point(n: float, p: float, z: float, m: float, params: ModelParams) -> CharPoint:
    """Closed form of the linearization at (n, p, z, m), from plain floats.

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
    return CharPoint(_form(top, bottom), big_t)


@dataclass(frozen=True)
class LinearizationData:
    """Matrices and scalars of the linearized system at an equilibrium.

    ``a1`` acts on the instantaneous state, ``a2`` on the state one delay
    ``t_delay`` ago, and ``a3`` on the history integral over the delay
    window.  The reference growth rate is pinned to R(p_star) here so the
    threshold-delay and fixed-delay linearizations coincide.  The closed
    form is derived on construction; ``scans`` holds this instance's root scans.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    t_delay: float
    coeff_a: float  # f'(n_star)
    coeff_b: float  # h'(p_star)
    coeff_c: float  # f(n_star)
    coeff_d: float  # h(p_star)
    delta0: float
    rate_scale: float
    char_form: CharForm = field(init=False, repr=False, compare=False)
    scans: dict = field(init=False, repr=False, compare=False)  # (omega_max, grid_n) -> RootScan

    def __post_init__(self) -> None:
        object.__setattr__(self, "char_form", _char_form(self.a1, self.a2, self.a3))
        object.__setattr__(self, "scans", {})


def linearization_at(
    n_star: float, p_star: float, z_star: float, m: float, params: ModelParams
) -> LinearizationData:
    """Linearization matrices at an arbitrary state, from :func:`char_point`."""
    point = char_point(n_star, p_star, z_star, m, params)
    top, bottom = point.char_form.top, point.char_form.bottom
    a2, a3 = np.zeros((3, 3)), np.zeros((3, 3))
    a2[2], a3[2] = bottom[3:6], bottom[6:]
    return LinearizationData(
        a1=np.array([top[:3], top[3:], bottom[:3]]),
        a2=a2,
        a3=a3,
        t_delay=point.t_delay,
        coeff_a=float(model.f_uptake_prime(n_star, params)),
        coeff_b=float(model.h_grazing_prime(p_star, params)),
        coeff_c=float(model.f_uptake(n_star, params)),
        coeff_d=float(model.h_grazing(p_star, params)),
        delta0=params.delta0,
        rate_scale=max(params.mu, params.g, params.delta),
    )


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
    exp(); callers mask the non-finite values, so the flags are silenced."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        small = np.abs(s) * big_t < SERIES_SWITCH
        e = np.exp(-s * big_t)
        kern = (1.0 - e) / s
        dkern = (big_t * e - kern) / s
        if small.any():
            kern = np.where(small, big_t - s * big_t**2 / 2.0 + s**2 * big_t**3 / 6.0, kern)
            dkern = np.where(small, -big_t**2 / 2.0 + s * big_t**3 / 3.0, dkern)
    return e, kern, dkern


def _bottom_row(s, e, kern, form: CharForm) -> tuple:
    a20, a21, a22, b20, b21, b22, c20, c21, c22 = form.bottom
    return (-a20 - b20 * e - c20 * kern,
            -a21 - b21 * e - c21 * kern,
            -a22 - b22 * e - c22 * kern + s)


def _cofactors(s, form: CharForm) -> tuple:
    p0, v0, p1, v1, u2, v2 = form.cofactors
    return p0 * s + v0, p1 * s + v1, (s + u2) * s + v2


def _expand(s, e, kern, form: CharForm):
    x0, x1, x2 = _bottom_row(s, e, kern, form)
    c0, c1, c2 = _cofactors(s, form)
    return x0 * c0 + x1 * c1 + x2 * c2


def _sq_abs(z):
    h = abs(z)
    return h * h  # not h**2, which raises OverflowError on Python floats


def _hadamard(s, row, form: CharForm):
    """Product of the three row norms, given the zooplankton row."""
    sqrt = np.sqrt if isinstance(s, np.ndarray) else math.sqrt
    a00, a01, a02, a10, a11, a12 = form.top
    return (sqrt(_sq_abs(s - a00) + a01 * a01 + a02 * a02)
            * sqrt(a10 * a10 + _sq_abs(s - a11) + a12 * a12)
            * sqrt(_sq_abs(row[0]) + _sq_abs(row[1]) + _sq_abs(row[2])))


def _evaluate(s, lin: LinearizationData | CharPoint, fn, nan):
    """fn(s, exp(-s*T), K(s), form) in plain complex arithmetic at a scalar
    (``nan`` where cmath leaves the float range), in numpy at an array."""
    if isinstance(s, (complex, float, int)) or np.ndim(s) == 0:
        s = complex(s)
        try:
            return fn(s, *_delay_terms_scalar(s, lin.t_delay), lin.char_form)
        except (OverflowError, ValueError):
            return nan
    s = np.asarray(s, dtype=complex)
    e, kern, _ = _delay_terms(s, lin.t_delay)
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(s, e, kern, lin.char_form)


def char_fn(s, lin: LinearizationData | CharPoint):
    """Characteristic function at a complex scalar or an ndarray of seeds.

    Far-field points, where exp(-s*T) overflows, give non-finite values.
    """
    return _evaluate(s, lin, _expand, complex(math.nan, math.nan))


def _scale(s, e, kern, form: CharForm):
    return _hadamard(s, _bottom_row(s, e, kern, form), form)


def char_scale(s, lin: LinearizationData | CharPoint):
    """Hadamard bound on |char_fn|: product of row norms. Relative-error yardstick."""
    return _evaluate(s, lin, _scale, math.nan)


def _bound(s, e, kern, form: CharForm):
    """The Hadamard bound with each zooplankton-row entry replaced by the sum
    of its terms' magnitudes, which does not vanish with the delay factor."""
    a20, a21, a22, b20, b21, b22, c20, c21, c22 = form.bottom
    ae, ak = abs(e), abs(kern)
    row = (abs(a20) + abs(b20) * ae + abs(c20) * ak,
           abs(a21) + abs(b21) * ae + abs(c21) * ak,
           abs(a22) + abs(b22) * ae + abs(c22) * ak + abs(s))
    return _hadamard(s, row, form)


def _char_newton(s: np.ndarray, lin: LinearizationData):
    """char_fn, its exact derivative and char_scale at an array of points, in one pass."""
    form = lin.char_form
    _, _, _, b20, b21, b22, c20, c21, c22 = form.bottom
    p0, _, p1, _, u2, _ = form.cofactors
    e, kern, dkern = _delay_terms(s, lin.t_delay)
    with np.errstate(over="ignore", invalid="ignore"):
        x0, x1, x2 = row = _bottom_row(s, e, kern, form)
        c0, c1, c2 = _cofactors(s, form)
        de = -lin.t_delay * e
        df = ((-b20 * de - c20 * dkern) * c0 + x0 * p0
              + (-b21 * de - c21 * dkern) * c1 + x1 * p1
              + (1.0 - b22 * de - c22 * dkern) * c2 + x2 * (2.0 * s + u2))
        return x0 * c0 + x1 * c1 + x2 * c2, df, _hadamard(s, row, form)


def _newton_batch(
    seeds: np.ndarray,
    lin: LinearizationData,
    *,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped-free Newton on char_fn from every finite seed at once.

    One fused pass per iteration gives char_fn, its exact derivative and the
    scale on the working set, the seeds that moved on the last iteration.  A
    seed whose step is zero or non-finite (converged, non-finite f, df = 0)
    leaves it and keeps its iterate: every later pass would give it the same
    step, as the pass is elementwise.  Stops when no seed moves; an iterate
    is converged where |char_fn| <= tol times a finite magnitude bound.
    Returns (iterates, converged mask).
    """
    s = np.asarray(seeds, dtype=complex).copy()
    moving = np.flatnonzero(np.isfinite(s))
    for _ in range(max_iter):
        x = s[moving]
        f, df, scale = _char_newton(x, lin)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / df
        go = (~(np.abs(f) <= tol * np.maximum(scale, 1e-300)) & np.isfinite(f) & (df != 0)
              & np.isfinite(step) & (step != 0))
        if not go.any():
            break
        moving = moving[go]
        s[moving] = x[go] - step[go]
    f = char_fn(s, lin)
    bound = _evaluate(s, lin, _bound, math.nan)
    ok = (np.isfinite(s) & np.isfinite(f) & np.isfinite(bound)
          & (np.abs(f) <= tol * np.maximum(bound, 1e-300)))
    return s, ok


def refine_root(
    s0: complex,
    lin: LinearizationData,
    *,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> complex:
    """Newton-refine a single root seed; NoConvergeError after max_iter."""
    roots, ok = _newton_batch(np.array([s0]), lin, tol=tol, max_iter=max_iter)
    if not ok[0]:
        raise NoConvergeError(f"no root near {s0!r} after {max_iter} iterations")
    return complex(roots[0])


def _dedupe(roots: np.ndarray) -> np.ndarray:
    if roots.size == 0:
        return roots
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    keep = [roots[0]]
    for r in roots[1:]:
        if abs(r - keep[-1]) > 1e-7 * max(1.0, abs(r)):
            keep.append(r)
    return np.array(keep)


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


def scan_roots(
    lin: LinearizationData,
    omega_max: float | None = None,
    grid_n: int = 512,
) -> RootScan:
    """Newton root sweep from imaginary-axis seeds plus a real-axis line.

    Kept on ``lin``: a repeat returns the same scan, with read-only roots.
    """
    if grid_n < 64:
        raise DomainError("grid_n must be at least 64")
    if omega_max is None:
        omega_max = default_omega_max(lin)
    scan = lin.scans.get((omega_max, grid_n))
    if scan is not None:
        return scan
    seeds = np.concatenate(
        [
            1j * np.linspace(0.0, omega_max, grid_n),
            np.linspace(-omega_max, 0.25 * omega_max, max(grid_n // 8, 17)),
        ]
    )
    roots, ok = _newton_batch(seeds, lin)
    coverage = float(np.mean(ok)) if seeds.size else 0.0
    kept = roots[ok]
    # conjugate symmetry: fold onto the upper half plane
    kept = _dedupe(np.where(kept.imag < 0, np.conj(kept), kept))
    kept.flags.writeable = False
    scan = lin.scans[omega_max, grid_n] = RootScan(roots=kept, coverage=coverage)
    return scan


def _drop_structural_zero(roots: np.ndarray, lin: LinearizationData) -> np.ndarray:
    """With delta0 = 0 the conservation law pins a root at s = 0 for every
    equilibrium; it says nothing about stability on the conserved manifold."""
    if lin.delta0 != 0.0:
        return roots
    return roots[np.abs(roots) > ZERO_MODE_TOL]


def _rightmost_root(
    lin: LinearizationData,
    omega_window: tuple[float, float] | None,
    omega_max: float | None,
    grid_n: int,
) -> complex | None:
    """Rightmost scanned root, structural zero dropped, frequency optionally
    windowed to [lo, hi); None when no root is left."""
    roots = _drop_structural_zero(scan_roots(lin, omega_max=omega_max, grid_n=grid_n).roots, lin)
    if omega_window is not None:
        roots = roots[(roots.imag >= omega_window[0]) & (roots.imag < omega_window[1])]
    if roots.size == 0:
        return None
    return complex(roots[np.argmax(roots.real)])


def rightmost_real_part(
    lin: LinearizationData,
    omega_max: float | None = None,
    grid_n: int = 512,
) -> float:
    """Largest real part among the roots found by the seed sweep.

    Best-effort by construction: the verdict is only as good as the seed
    coverage (grid_n controls it).  Returns -inf if nothing converged.
    """
    root = _rightmost_root(lin, None, omega_max, grid_n)
    return -math.inf if root is None else root.real


def rightmost_in_window(
    lin: LinearizationData,
    omega_window: tuple[float, float],
    omega_max: float | None = None,
    grid_n: int = 256,
) -> float | None:
    """Largest real part among roots whose frequency lies in the given window.

    Windowing isolates one crossing pair at a time, which is what lets the
    boundary seeding find curves beyond the first loss of stability.
    Returns None when no root lands in the window.
    """
    root = _rightmost_root(lin, omega_window, omega_max, grid_n)
    return None if root is None else root.real


def tau_frechet_check(
    p_star: float,
    perturbation: Callable[[float], float],
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
        raise BracketError("perturbation drives the phytoplankton history nonpositive")
    if accumulated(r_hi) < params.m:
        raise BracketError("threshold not reached within the bracket; eps too large")
    tau_pert = brentq(lambda t: accumulated(t) - params.m, 0.0, r_hi, xtol=1e-14)

    sup_norm = float(eps) * float(np.max(np.abs([perturbation(u) for u in lo_grid])))
    if sup_norm == 0.0:
        return 0.0
    integral, _ = quad(lambda u: eps * perturbation(u), -tau_base, 0.0, limit=200)
    rp = float(model.r_growth_prime(p_star, params))
    remainder = abs(tau_pert - tau_base + (rp / r_base) * integral)
    return remainder / sup_norm
