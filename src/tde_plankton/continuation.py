"""Tracing loci of zero-real-part roots in the (maturity, biomass) plane.

A point on such a locus packs six unknowns: the coexistence state
(n_star, p_star, z_star), the maturity requirement m, the total biomass
n_total, and the crossing frequency omega.  Five equations constrain them:
the three steady-state residuals plus the real and imaginary parts of the
characteristic function at s = i*omega, leaving one-dimensional solution
curves.  These are followed by pseudo-arclength continuation: a tangent
predictor from the nullspace of the finite-difference Jacobian and a Newton
corrector on the residuals augmented with the arclength hyperplane.  The
same corrector polishes a start point, its hyperplane the unit vector along
m so that m stays fixed.  The residual reads the characteristic function
off the float-only closed form (:func:`linearize.char_point`), with no
matrices built.

Working coordinates are scaled so arclength is meaningful across the decades
the curves span: pools by n_total, n_total by log10, m by the maturity
ceiling (or by 20 when juveniles do not die), omega as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from . import equilibria, linearize
from .exceptions import (
    DomainError,
    NoConvergeError,
    NoSignChangeError,
    TdePlanktonError,
)
from .model import ModelParams

#: Frequencies below this (1/day) terminate a trace as a collapse to zero.
OMEGA_FLOOR = 1e-4

#: Forward finite-difference step per scaled working variable.
FD_STEP = 1e-7


class CurveEnd(Enum):
    DOMAIN_BOUND = "domain_bound"
    CLOSED_LOOP = "closed_loop"
    OMEGA_COLLAPSE = "omega_collapse"
    STEP_FAILURE = "step_failure"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class BoundaryPoint:
    """One six-component point on a zero-real-part locus."""

    n_star: float
    p_star: float
    z_star: float
    m: float
    n_total: float
    omega: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.n_star, self.p_star, self.z_star, self.m, self.n_total, self.omega]
        )


@dataclass(frozen=True)
class BoundaryCurve:
    points: list[BoundaryPoint]
    termination: CurveEnd

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TraceOptions:
    h_init: float = 1e-2
    h_min: float = 1e-6
    h_max: float = 1e-1
    corrector_tol: float = 1e-9
    max_newton: int = 25
    max_steps: int = 2000
    nt_min: float = 1e-4
    nt_max: float = 1e2
    m_min: float = 0.0
    m_max: float = math.inf
    orientation: int = 1
    closed_loop_min_steps: int = 10
    #: optional scaled-coordinate direction that orients the first tangent;
    #: needed to retrace a curve from a point just past a fold, where the
    #: default axis-based orientation rule is ambiguous
    initial_direction: tuple[float, ...] | None = None


def hopf_residual(
    u, params: ModelParams, lin: linearize.LinearizationData | linearize.CharPoint | None = None
) -> np.ndarray:
    """Raw five-component residual at u = (n, p, z, m, n_total, omega).

    Components 1-3 are the steady-state residuals; 4-5 the real and
    imaginary parts of the characteristic function at s = i*omega for the
    linearization built at (n, p, z, m).  A caller that already holds that
    linearization, or its :class:`linearize.CharPoint`, passes it as ``lin``.
    """
    n, p, z, m, nt, omega = (float(v) for v in u)
    if p <= 0:
        raise DomainError("hopf_residual requires p_star > 0")
    eq_res = equilibria.residuals_at(n, p, z, m, nt, params)
    if lin is None:
        lin = linearize.linearization_at(n, p, z, m, params)
    val = linearize.char_fn(1j * omega, lin)
    return np.array([eq_res[0], eq_res[1], eq_res[2], val.real, val.imag])


def _m_scale(params: ModelParams) -> float:
    ceiling = equilibria.m_ceiling(params)
    return ceiling if math.isfinite(ceiling) else 20.0


def _pack(u: np.ndarray, m_scale: float) -> np.ndarray:
    n, p, z, m, nt, omega = u
    return np.array([n / nt, p / nt, z / nt, m / m_scale, math.log10(nt), omega])


def _unpack(x: np.ndarray, m_scale: float) -> np.ndarray:
    nt = 10.0 ** float(x[4])  # a float power raises OverflowError instead of giving inf
    return np.array([x[0] * nt, x[1] * nt, x[2] * nt, x[3] * m_scale, nt, x[5]])


def _scaled_residual(x: np.ndarray, params: ModelParams, m_scale: float) -> np.ndarray:
    u = _unpack(x, m_scale)
    n, p, z, m, nt, omega = u.tolist()
    # one closed form, with no matrices built, serves the residual and its scale
    point = linearize.char_point(n, p, z, m, params)
    raw = hopf_residual(u, params, point)
    eq_scale = max(1.0, nt)
    ch_scale = max(1.0, linearize.char_scale(1j * omega, point))
    return np.array(
        [raw[0] / eq_scale, raw[1] / eq_scale, raw[2] / eq_scale,
         raw[3] / ch_scale, raw[4] / ch_scale]
    )


def _fd_jacobian(
    x: np.ndarray, params: ModelParams, m_scale: float, base: np.ndarray
) -> np.ndarray:
    """Forward-difference Jacobian; ``base`` is the scaled residual at x."""
    jac = np.empty((5, x.size))
    for j in range(x.size):
        xs = x.copy()
        xs[j] += FD_STEP
        jac[:, j] = (_scaled_residual(xs, params, m_scale) - base) / FD_STEP
    return jac


def _tangent(jac: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(jac)
    return vh[-1]


def _newton_corrector(
    x0: np.ndarray,
    plane_point: np.ndarray,
    tangent: np.ndarray,
    params: ModelParams,
    m_scale: float,
    opts: TraceOptions,
) -> tuple[np.ndarray, int, np.ndarray] | None:
    """Newton on [scaled residual; tangent . (x - plane_point)] from x0.

    Returns (solution, iterations, scaled residual there) or None on
    failure.  An iterate whose residual leaves the floating-point range
    (``math.exp`` or ``10**x`` overflowing far outside the domain) counts as
    a failure too.
    """
    x = x0.copy()
    for it in range(1, opts.max_newton + 1):
        try:
            res = _scaled_residual(x, params, m_scale)
        except (TdePlanktonError, OverflowError):
            return None
        arc = float(tangent @ (x - plane_point))
        f = np.concatenate([res, [arc]])
        if np.max(np.abs(f)) <= opts.corrector_tol:
            return x, it, res
        try:
            jac = _fd_jacobian(x, params, m_scale, res)
        except (TdePlanktonError, OverflowError):
            return None
        full = np.vstack([jac, tangent])
        try:
            step = np.linalg.solve(full, f)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        if not np.all(np.isfinite(x)):
            return None
    return None


def project_onto_curve(
    x_guess: np.ndarray,
    anchor: np.ndarray,
    tangent: np.ndarray,
    params: ModelParams,
    m_scale: float,
    opts: TraceOptions,
) -> np.ndarray | None:
    """Corrector constrained to the hyperplane through ``anchor`` normal to ``tangent``.

    Used to test whether the locus passes through a specific point (loop
    closure, reversibility): if it does, Newton lands on that point.
    """
    got = _newton_corrector(x_guess, anchor, tangent, params, m_scale, opts)
    return None if got is None else got[0]


def _point_from_scaled(x: np.ndarray, m_scale: float) -> BoundaryPoint:
    n, p, z, m, nt, omega = _unpack(x, m_scale)
    return BoundaryPoint(n_star=n, p_star=p, z_star=z, m=m, n_total=nt, omega=omega)


def _in_domain(pt: BoundaryPoint, ceiling: float, opts: TraceOptions) -> bool:
    """Inside the trace box, below the maturity ceiling, with zooplankton.

    On a steady state n_total - nt2(m) = (n - nt1) + z*(1 + gamma*g*h*disc)
    and n - nt1 has the sign of z, so z_star > 0 already means n_total > nt2.
    """
    return (
        max(0.0, opts.m_min) <= pt.m < min(ceiling, opts.m_max)
        and opts.nt_min <= pt.n_total <= opts.nt_max
        and pt.z_star > 0
    )


def find_start(
    params: ModelParams,
    m_fixed: float,
    nt_bracket: tuple[float, float],
    *,
    omega_window: tuple[float, float] | None = None,
    grid_n: int = 256,
    bisect_rtol: float = 1e-3,
    lins: dict | None = None,
) -> BoundaryPoint:
    """Locate one boundary point at fixed maturity by a root solve in total biomass.

    Brent's method finds where the (optionally frequency-windowed) rightmost
    real part crosses zero, to ``bisect_rtol`` relative; the stepping
    corrector then polishes the remaining five unknowns, its arclength row
    pinning m.  Any failure is a NoConvergeError.
    ``lins`` maps (m, n_total) to the equilibrium and linearization there;
    calls with the same ``params`` sharing one dict reuse each other's scans.
    """
    work = replace(params, m=m_fixed)
    lins = {} if lins is None else lins

    def linearized(nt: float) -> tuple:  # (EquilibriumPoint, LinearizationData)
        got = lins.get((m_fixed, nt))
        if got is None:
            p_run = replace(work, n_total=nt)
            eq = equilibria.solve_e2(p_run)
            got = lins[m_fixed, nt] = (eq, linearize.build_linearization(eq, p_run))
        return got

    def signal(nt: float) -> float | None:
        lin = linearized(nt)[1]
        if omega_window is None:
            return linearize.rightmost_real_part(lin, grid_n=grid_n)
        return linearize.rightmost_in_window(lin, omega_window, grid_n=grid_n)

    def inner_signal(nt: float) -> float:
        f = signal(nt)
        if f is None:
            raise NoSignChangeError("frequency window lost the root inside the bracket")
        return f

    lo, hi = nt_bracket
    f_lo, f_hi = signal(lo), signal(hi)
    if f_lo is None or f_hi is None or f_lo * f_hi > 0:
        raise NoSignChangeError(
            f"no stability flip over n_total in ({lo:g}, {hi:g}) at m={m_fixed:g}"
        )
    # the relative width alone ends the solve
    nt_mid = brentq(inner_signal, lo, hi, xtol=1e-300, rtol=bisect_rtol)

    eq, lin = linearized(nt_mid)
    s_near = linearize._rightmost_root(lin, omega_window, None, grid_n)
    if s_near is None:
        raise NoConvergeError("no candidate root near the solved crossing")
    omega0 = abs(s_near.imag)
    if omega0 < OMEGA_FLOOR:
        raise NoConvergeError("crossing root has no oscillatory part (not a boundary point)")

    # the stepping corrector, its arclength row pinning m
    m_scale = _m_scale(params)
    x0 = _pack(np.array([eq.n_star, eq.p_star, eq.z_star, m_fixed, nt_mid, omega0]), m_scale)
    got = _newton_corrector(x0, x0, np.eye(6)[3], params, m_scale, TraceOptions())
    if got is None:
        raise NoConvergeError("start-point corrector did not converge")
    n, p, z, _, nt, omega = _unpack(got[0], m_scale)
    pt = BoundaryPoint(n_star=n, p_star=p, z_star=z, m=m_fixed, n_total=nt, omega=abs(omega))
    check = np.max(np.abs(_scaled_residual(_pack(pt.as_array(), m_scale), params, m_scale)))
    if check > 1e-9:
        raise NoConvergeError(f"polished start point residual {check:g} exceeds 1e-9")
    return pt


def trace_curve(
    start: BoundaryPoint,
    params: ModelParams,
    opts: TraceOptions | None = None,
) -> BoundaryCurve:
    """Follow the locus through ``start`` until it leaves the domain or closes.

    Each accepted point is re-checked against the scaled residual tolerance;
    the step length adapts within [h_min, h_max].
    """
    opts = opts or TraceOptions()
    ceiling = equilibria.m_ceiling(params)
    m_scale = _m_scale(params)
    x = _pack(start.as_array(), m_scale)
    res = _scaled_residual(x, params, m_scale)
    res0 = np.max(np.abs(res))
    if res0 > 10 * opts.corrector_tol:
        raise DomainError(f"start point residual {res0:g} is too large to trace from")

    points = [_point_from_scaled(x, m_scale)]
    x_start = x.copy()
    tangent = _tangent(_fd_jacobian(x, params, m_scale, res))
    if opts.initial_direction is not None:
        if float(tangent @ np.asarray(opts.initial_direction)) < 0:
            tangent = -tangent
    else:
        # deterministic initial orientation: increasing m, tie-broken by biomass
        ref = tangent[3] if abs(tangent[3]) > 1e-8 else (
            tangent[4] if abs(tangent[4]) > 1e-8 else tangent[5]
        )
        if ref < 0:
            tangent = -tangent
        if opts.orientation < 0:
            tangent = -tangent
    tangent_start = tangent.copy()

    h = opts.h_init
    steps = 0
    while steps < opts.max_steps:
        predictor = x + h * tangent
        got = _newton_corrector(predictor, predictor, tangent, params, m_scale, opts)
        if got is None:
            h *= 0.5
            if h < opts.h_min:
                return BoundaryCurve(points, CurveEnd.STEP_FAILURE)
            continue
        x_new, iters, res = got
        pt = _point_from_scaled(x_new, m_scale)
        if pt.omega < OMEGA_FLOOR:
            return BoundaryCurve(points, CurveEnd.OMEGA_COLLAPSE)
        if not _in_domain(pt, ceiling, opts):
            return BoundaryCurve(points, CurveEnd.DOMAIN_BOUND)

        if steps + 1 >= opts.closed_loop_min_steps:
            if np.linalg.norm(x_new - x_start) < max(h, 10 * opts.corrector_tol):
                proj = project_onto_curve(
                    x_new, x_start, tangent_start, params, m_scale, opts
                )
                if proj is not None and np.linalg.norm(proj - x_start) <= 10 * opts.corrector_tol:
                    points.append(_point_from_scaled(proj, m_scale))
                    return BoundaryCurve(points, CurveEnd.CLOSED_LOOP)

        points.append(pt)
        steps += 1
        new_tangent = _tangent(_fd_jacobian(x_new, params, m_scale, res))
        if float(new_tangent @ tangent) < 0:
            new_tangent = -new_tangent
        x, tangent = x_new, new_tangent
        if iters <= 3:
            h = min(h * 1.3, opts.h_max)
    return BoundaryCurve(points, CurveEnd.MAX_STEPS)


def emit_frequency_profile(curve: BoundaryCurve) -> list[tuple[float, float, float]]:
    """(m, n_total, omega) triples along a curve, for frequency-profile plots."""
    if not curve.points:
        raise DomainError("cannot profile an empty curve")
    return [(p.m, p.n_total, p.omega) for p in curve.points]


def _share_near_polyline(q: np.ndarray, line: np.ndarray, tol: float) -> float:
    """Fraction of the points ``q`` within ``tol`` of the polyline through ``line``."""
    if len(line) < 2:
        line = np.vstack([line, line])
    a, ab = line[:-1], np.diff(line, axis=0)
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0, np.inf, denom)  # a zero-length segment is its start point
    near = np.empty(len(q), dtype=bool)
    block = max(1, 1024 // len(a))  # bounds the (points, segments, 3) temporaries
    for i in range(0, len(q), block):
        rel = q[i:i + block, None, :] - a  # (points, segments, 3)
        t = np.clip(np.einsum("pkj,kj->pk", rel, ab) / denom, 0.0, 1.0)
        dist = np.linalg.norm(rel - t[..., None] * ab, axis=2)
        near[i:i + block] = dist.min(axis=1) <= tol
    return float(np.mean(near))


def _profile_coords(points: list[BoundaryPoint], m_scale: float) -> np.ndarray:
    return np.array([[p.m / m_scale, math.log10(p.n_total), p.omega] for p in points])


def lies_on_curve(
    pt: BoundaryPoint, curve: BoundaryCurve, params: ModelParams, tol: float = 5e-3
) -> bool:
    """True when ``pt`` lies within ``tol`` of the polyline through ``curve``,
    in the coordinates :func:`curves_interleave` compares."""
    m_scale = _m_scale(params)
    line = _profile_coords(curve.points, m_scale)
    return _share_near_polyline(_profile_coords([pt], m_scale), line, tol) == 1.0


def curves_interleave(
    a: BoundaryCurve,
    b: BoundaryCurve,
    params: ModelParams,
    tol: float = 5e-3,
    fraction: float = 0.9,
) -> bool:
    """True when most points of either curve hug the other's polyline.

    Both directions are tried: where one sampling takes long chords around a
    bend, the other's points on the bend miss those chords, while its own
    polyline still carries every point of the first.
    """
    m_scale = _m_scale(params)
    pa, pb = _profile_coords(a.points, m_scale), _profile_coords(b.points, m_scale)
    return (
        _share_near_polyline(pa, pb, tol) >= fraction
        or _share_near_polyline(pb, pa, tol) >= fraction
    )


def deduplicate_curves(
    curves: list[BoundaryCurve],
    params: ModelParams,
    tol: float = 5e-3,
) -> list[BoundaryCurve]:
    """Drop curves that re-trace an already collected locus.

    The CLI traces no start that lies on a curve it already holds, so here
    only partial overlaps remain to merge: curves from distinct starts that
    run onto one locus.  Deterministic: curves are considered in order of
    their starting point and the longest representative of each group is
    kept (the earliest on a tie); a curve that interleaves with several kept
    curves merges them.
    """
    order = sorted(
        range(len(curves)),
        key=lambda i: (
            curves[i].points[0].m,
            curves[i].points[0].n_total,
            curves[i].points[0].omega,
        ),
    )
    kept: list[BoundaryCurve] = []
    for idx in order:
        cand = curves[idx]
        matched = [
            j for j, existing in enumerate(kept)
            if curves_interleave(cand, existing, params, tol=tol)
        ]
        if not matched:
            kept.append(cand)
            continue
        group = [kept[j] for j in matched] + [cand]
        kept[matched[0]] = max(group, key=len)
        for j in reversed(matched[1:]):
            del kept[j]
    return kept
