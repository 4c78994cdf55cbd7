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
m so that m stays fixed; a stepping corrector may move at most MAX_MOVE
steps from its predictor.  The residual and its Jacobian columns run on
plain floats, the characteristic function and its scale read in one pass
off the closed form that :func:`linearize.linearization_entries` computes,
with no matrices built.

Working coordinates are scaled so arclength is meaningful across the decades
the curves span: pools by n_total, n_total by log10, m by the maturity
ceiling (or by 20 when juveniles do not die), omega as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

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

#: Width in ln n_total, so relative width in n_total, at which the start
#: search's root solve stops.
BISECT_RTOL = 1e-3

#: Accepted steps before a trace may end by closing on its start.
CLOSED_LOOP_MIN_STEPS = 10

#: Share of one curve's points near the other's polyline that makes two
#: curves one locus.
INTERLEAVE_FRACTION = 0.9

#: Distance in the compared (m, log10 n_total, omega) coordinates within
#: which a point lies on a curve's polyline.
DEDUPE_TOL = 5e-3

#: First, smallest and largest arclength step, in scaled coordinates.
H_INIT = 1e-2
H_MIN = 1e-6
H_MAX = 1e-1

#: Farthest a stepping corrector's iterate may move from its predictor, in
#: steps h (scaled coordinates); a farther one fails the step, which halves h.
MAX_MOVE = 2.0


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
    """A locus traced both ways from its start: ``points`` run from the
    backward end through the start to the forward end, and each end keeps
    the reason its half stopped."""

    points: list[BoundaryPoint]
    termination: CurveEnd
    termination_backward: CurveEnd

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TraceOptions:
    corrector_tol: float = 1e-9
    max_newton: int = 25
    max_steps: int = 2000
    nt_min: float = 1e-4
    nt_max: float = 1e2
    m_max: float = math.inf


def hopf_residual(
    u, params: ModelParams, lin: linearize.LinearizationData,
    eq_res: tuple | None = None,
) -> tuple[float, ...]:
    """Scaled five-component residual at u = (n, p, z, m, n_total, omega).

    Components 1-3 are the steady-state residuals over max(1, n_total); 4-5
    the real and imaginary parts of the characteristic function at
    s = i*omega over max(1, its Hadamard bound), for ``lin``, the
    linearization at (n, p, z, m).  A caller that already holds components
    1-3 passes them as ``eq_res``.
    """
    return _scaled_residual(*map(float, u), params, lin.char_form, lin.t_delay, eq_res)


def _scaled_residual(
    n: float, p: float, z: float, m: float, nt: float, omega: float,
    params: ModelParams, form: linearize.CharForm, t_delay: float,
    eq_res: tuple | None = None,
) -> tuple[float, ...]:
    """:func:`hopf_residual` on plain floats and the closed form and delay
    of the linearization at (n, p, z, m)."""
    if p <= 0:
        raise DomainError("hopf_residual requires p_star > 0")
    if eq_res is None:
        eq_scale = max(1.0, nt)
        r1, r2, r3 = equilibria.residuals_at(n, p, z, m, nt, params)
        eq_res = (r1 / eq_scale, r2 / eq_scale, r3 / eq_scale)
    val, scale = linearize.char_fn_and_scale(1j * omega, form, t_delay)
    ch_scale = max(1.0, scale)
    return (*eq_res, val.real / ch_scale, val.imag / ch_scale)


def _m_scale(params: ModelParams) -> float:
    ceiling = equilibria.m_ceiling(params)
    return ceiling if math.isfinite(ceiling) else 20.0


def _pack(u: np.ndarray, m_scale: float) -> np.ndarray:
    n, p, z, m, nt, omega = u
    return np.array([n / nt, p / nt, z / nt, m / m_scale, math.log10(nt), omega])


def _unpack(x, m_scale: float) -> tuple:
    nt = 10.0 ** float(x[4])  # a float power raises OverflowError instead of giving inf
    return (x[0] * nt, x[1] * nt, x[2] * nt, x[3] * m_scale, nt, x[5])


def _residual(x: list, params: ModelParams, m_scale: float) -> tuple:
    """Scaled residual at the scaled point ``x`` and the linearization it used."""
    u = _unpack(x, m_scale)
    lin = linearize.linearization_at(*u[:4], params)
    return hopf_residual(u, params, lin), lin


def point_residual(pt: BoundaryPoint, params: ModelParams) -> float:
    """Largest magnitude of the scaled residual at ``pt``; NaN propagates."""
    m_scale = _m_scale(params)
    res = _residual(_pack(pt.as_array(), m_scale).tolist(), params, m_scale)[0]
    return float(np.max(np.abs(res)))


def _fd_jacobian(
    x: np.ndarray, params: ModelParams, m_scale: float, base: tuple,
    lin: linearize.LinearizationData,
) -> np.ndarray:
    """Forward-difference Jacobian; ``base`` and ``lin`` are the scaled
    residual at x and its linearization.  The state columns take the closed
    form from :func:`linearize.linearization_entries` and build no record.
    A step in omega moves neither the linearization nor the steady-state
    residuals, so that column reuses both."""
    xl = x.tolist()
    cols = []
    for j in range(5):
        xs = xl.copy()
        xs[j] += FD_STEP
        u = _unpack(xs, m_scale)
        form, t_delay = linearize.linearization_entries(*u[:4], params)[:2]
        r = _scaled_residual(*u, params, form, t_delay)
        cols.append([(a - b) / FD_STEP for a, b in zip(r, base)])
    u = _unpack(xl, m_scale)
    r = _scaled_residual(*u[:5], xl[5] + FD_STEP, params, lin.char_form, lin.t_delay, base[:3])
    cols.append([(a - b) / FD_STEP for a, b in zip(r, base)])
    return np.array(cols).T


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
    max_move: float = math.inf,
) -> tuple[np.ndarray, int, tuple] | None:
    """Newton on [scaled residual; tangent . (x - plane_point)] from x0.

    Returns (solution, iterations, (scaled residual there, its
    linearization)) or None on failure.  An iterate whose residual leaves
    the floating-point range (``math.exp`` or ``10**x`` overflowing far
    outside the domain) counts as a failure too, and so does one farther
    than ``max_move`` from x0: a stepping corrector that drifts that far is
    heading for another stretch of the locus, or for none.
    """
    x = x0.copy()
    xl = start = x0.tolist()
    for it in range(1, opts.max_newton + 1):
        try:
            res, lin = _residual(xl, params, m_scale)
        except (TdePlanktonError, OverflowError):
            return None
        f = (*res, float(tangent @ (x - plane_point)))
        if all(abs(v) <= opts.corrector_tol for v in f):  # False at a NaN
            return x, it, (res, lin)
        try:
            jac = _fd_jacobian(x, params, m_scale, res, lin)
        except (TdePlanktonError, OverflowError):
            return None
        full = np.vstack([jac, tangent])
        try:
            step = np.linalg.solve(full, np.array(f))
        except np.linalg.LinAlgError:
            return None
        x = x - step
        xl = x.tolist()
        move = math.dist(xl, start)  # NaN or inf where x is not finite
        if not move <= max_move or move == math.inf:
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
        0.0 <= pt.m < min(ceiling, opts.m_max)
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
    opts: TraceOptions | None = None,
    lins: dict | None = None,
) -> BoundaryPoint:
    """Locate one boundary point at fixed maturity by a root solve in total biomass.

    Brent's method finds where the (optionally frequency-windowed) rightmost
    real part crosses zero, solving in ln n_total to a width of BISECT_RTOL,
    so to BISECT_RTOL relative in n_total; the stepping corrector
    (``opts``' tolerance and iteration cap) then polishes the remaining five
    unknowns, its arclength row pinning m, to a point :func:`trace_curve`
    accepts with the same ``opts``.  Any failure is a NoConvergeError.
    ``lins`` maps (m, n_total) to the equilibrium and linearization there;
    calls with the same ``params`` sharing one dict reuse each other's scans.
    """
    opts = opts or TraceOptions()
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
    u_lo, u_hi = math.log(lo), math.log(hi)
    # the ends Brent evaluates again, so the verdicts there come from ``lins``
    f_lo, f_hi = signal(math.exp(u_lo)), signal(math.exp(u_hi))
    if f_lo is None or f_hi is None or f_lo * f_hi > 0:
        raise NoSignChangeError(
            f"no stability flip over n_total in ({lo:g}, {hi:g}) at m={m_fixed:g}"
        )
    nt_mid = math.exp(equilibria.brentq(
        lambda u: inner_signal(math.exp(u)), u_lo, u_hi,
        xtol=BISECT_RTOL, rtol=equilibria.BRENT_RTOL,
    ))

    eq, lin = linearized(nt_mid)
    s_near = linearize._rightmost_root(lin, omega_window, grid_n)
    if s_near is None:
        raise NoConvergeError("no candidate root near the solved crossing")
    omega0 = abs(s_near.imag)
    if omega0 < OMEGA_FLOOR:
        raise NoConvergeError("crossing root has no oscillatory part (not a boundary point)")

    # the stepping corrector, its arclength row pinning m
    m_scale = _m_scale(params)
    x0 = _pack(np.array([eq.n_star, eq.p_star, eq.z_star, m_fixed, nt_mid, omega0]), m_scale)
    got = _newton_corrector(x0, x0, np.eye(6)[3], params, m_scale, opts)
    if got is None:
        raise NoConvergeError("start-point corrector did not converge")
    n, p, z, _, nt, omega = _unpack(got[0], m_scale)
    pt = BoundaryPoint(n_star=n, p_star=p, z_star=z, m=m_fixed, n_total=nt, omega=abs(omega))
    check, bound = point_residual(pt, params), 10 * opts.corrector_tol
    if not check <= bound:  # a NaN fails too
        raise NoConvergeError(f"polished start point residual {check:g} exceeds {bound:g}")
    return pt


def trace_curve(
    start: BoundaryPoint,
    params: ModelParams,
    opts: TraceOptions | None = None,
) -> BoundaryCurve:
    """Follow the locus through ``start`` both ways until each half leaves
    the domain, closes, collapses, fails or takes ``opts.max_steps`` steps.

    The forward half leaves the start towards increasing m (tie-broken by
    biomass, then frequency).  Each accepted point is re-checked against the
    scaled residual tolerance; the step length adapts within [H_MIN, H_MAX].
    """
    opts = opts or TraceOptions()
    ceiling = equilibria.m_ceiling(params)
    m_scale = _m_scale(params)
    x = _pack(start.as_array(), m_scale)
    res, lin = _residual(x.tolist(), params, m_scale)
    res0 = np.max(np.abs(res))
    if not res0 <= 10 * opts.corrector_tol:  # a NaN fails too
        raise DomainError(f"start point residual {res0:g} is too large to trace from")

    tangent = _tangent(_fd_jacobian(x, params, m_scale, res, lin))
    # deterministic orientation: increasing m, tie-broken by biomass
    ref = tangent[3] if abs(tangent[3]) > 1e-8 else (
        tangent[4] if abs(tangent[4]) > 1e-8 else tangent[5]
    )
    if ref < 0:
        tangent = -tangent
    back, end_back = _trace_half(x, -tangent, params, m_scale, ceiling, opts)
    ahead, end_ahead = _trace_half(x, tangent, params, m_scale, ceiling, opts)
    points = back[::-1] + [_point_from_scaled(x, m_scale)] + ahead
    return BoundaryCurve(points, end_ahead, end_back)


def _trace_half(
    x_start: np.ndarray, tangent_start: np.ndarray, params: ModelParams,
    m_scale: float, ceiling: float, opts: TraceOptions,
) -> tuple[list[BoundaryPoint], CurveEnd]:
    """Step from the scaled start along ``tangent_start``: the points after
    the start, in order, and why the half stopped."""
    points: list[BoundaryPoint] = []
    x, tangent = x_start, tangent_start
    h = H_INIT
    steps = 0
    while steps < opts.max_steps:
        predictor = x + h * tangent
        got = _newton_corrector(
            predictor, predictor, tangent, params, m_scale, opts, MAX_MOVE * h
        )
        if got is None:
            h *= 0.5
            if h < H_MIN:
                return points, CurveEnd.STEP_FAILURE
            continue
        x_new, iters, (res, lin) = got
        pt = _point_from_scaled(x_new, m_scale)
        if pt.omega < OMEGA_FLOOR:
            return points, CurveEnd.OMEGA_COLLAPSE
        if not _in_domain(pt, ceiling, opts):
            return points, CurveEnd.DOMAIN_BOUND

        if steps + 1 >= CLOSED_LOOP_MIN_STEPS:
            if np.linalg.norm(x_new - x_start) < max(h, 10 * opts.corrector_tol):
                proj = project_onto_curve(
                    x_new, x_start, tangent_start, params, m_scale, opts
                )
                if proj is not None and np.linalg.norm(proj - x_start) <= 10 * opts.corrector_tol:
                    points.append(_point_from_scaled(proj, m_scale))
                    return points, CurveEnd.CLOSED_LOOP

        points.append(pt)
        steps += 1
        new_tangent = _tangent(_fd_jacobian(x_new, params, m_scale, res, lin))
        if float(new_tangent @ tangent) < 0:
            new_tangent = -new_tangent
        x, tangent = x_new, new_tangent
        if iters <= 3:
            h = min(h * 1.3, H_MAX)
    return points, CurveEnd.MAX_STEPS


def _share_near_polyline(q: np.ndarray, line: np.ndarray, tol) -> float:
    """Fraction of the points ``q`` within ``tol`` of the polyline through
    ``line``; ``tol`` is one distance or one per segment."""
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
        near[i:i + block] = np.any(dist <= tol, axis=1)
    return float(np.mean(near))


def _chord_sagitta(line: np.ndarray) -> np.ndarray | float:
    """Per segment of the polyline through ``line``, how far the sampled
    curve may bow away from it: a chord of length L that turns by theta at
    its ends spans an arc of angle about theta, whose sagitta is L*theta/8.
    A line of fewer than three points does not turn: 0."""
    if len(line) < 3:
        return 0.0
    ab = np.diff(line, axis=0)
    length = np.linalg.norm(ab, axis=1)
    unit = ab / np.where(length == 0, 1.0, length)[:, None]
    turn = np.arccos(np.clip(np.einsum("ij,ij->i", unit[:-1], unit[1:]), -1.0, 1.0))
    at_ends = np.maximum(np.append(turn, 0.0), np.insert(turn, 0, 0.0))
    return length * at_ends / 8


def _profile_coords(points: list[BoundaryPoint], m_scale: float) -> np.ndarray:
    return np.array([[p.m / m_scale, math.log10(p.n_total), p.omega] for p in points])


def lies_on_curve(
    pt: BoundaryPoint, curve: BoundaryCurve, params: ModelParams, tol: float = DEDUPE_TOL
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
    tol: float = DEDUPE_TOL,
) -> bool:
    """True when most points of either curve hug the other's polyline.

    Where one sampling takes long chords around a bend, the other's points
    on the bend lie off those chords by up to their sagitta, so each chord
    gets ``tol`` plus its sagitta.  Both directions are tried: a short
    re-trace hugs a long curve's polyline, not the other way round.
    """
    m_scale = _m_scale(params)
    pa, pb = _profile_coords(a.points, m_scale), _profile_coords(b.points, m_scale)
    return (
        _share_near_polyline(pa, pb, tol + _chord_sagitta(pb)) >= INTERLEAVE_FRACTION
        or _share_near_polyline(pb, pa, tol + _chord_sagitta(pa)) >= INTERLEAVE_FRACTION
    )


def deduplicate_curves(
    curves: list[BoundaryCurve],
    params: ModelParams,
    tol: float = DEDUPE_TOL,
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
