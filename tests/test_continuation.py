import math

import numpy as np
import pytest

from tde_plankton import continuation, equilibria, linearize
from tde_plankton.continuation import BoundaryPoint, CurveEnd, TraceOptions
from tde_plankton.exceptions import DomainError, NoSignChangeError
from tde_plankton.model import ModelParams

from conftest import bisect_oracle


@pytest.fixture(scope="module")
def loop_family():
    """Saturating response with juvenile mortality: the loop-forming family."""
    params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
    start = continuation.find_start(params, 6.0, (10 ** 0.4, 10 ** 0.6))
    return params, start


class TestHopfResidual:
    def test_definition_at_found_point(self, loop_family):
        params, start = loop_family
        m_scale = continuation._m_scale(params)
        scaled = continuation._scaled_residual(
            continuation._pack(start.as_array(), m_scale), params, m_scale
        )
        assert np.max(np.abs(scaled)) <= 1e-9

    def test_frequency_sign_flip(self, loop_family):
        params, start = loop_family
        u = start.as_array()
        res_pos = continuation.hopf_residual(u, params)
        u_neg = u.copy()
        u_neg[5] = -u_neg[5]
        res_neg = continuation.hopf_residual(u_neg, params)
        assert res_neg[4] == pytest.approx(-res_pos[4], rel=1e-12, abs=1e-300)
        for i in (0, 1, 2, 3):
            assert res_neg[i] == res_pos[i]

    def test_nonpositive_phytoplankton_rejected(self, loop_family):
        params, start = loop_family
        u = start.as_array()
        u[1] = -0.1
        with pytest.raises(DomainError):
            continuation.hopf_residual(u, params)


class TestNewtonCorrector:
    @pytest.mark.parametrize("axis, value", [
        (3, -1000.0),  # scaled m: exp(-delta0*m/R) overflows in the residual
        (4, 400.0),  # log10 n_total: 10**400 overflows while unpacking
    ])
    def test_iterate_out_of_float_range_fails_the_step(self, loop_family, axis, value):
        params, start = loop_family
        m_scale = continuation._m_scale(params)
        x0 = continuation._pack(start.as_array(), m_scale)
        x0[axis] = value
        tangent = np.zeros(6)
        tangent[axis] = 1.0
        got = continuation._newton_corrector(
            x0, x0, tangent, params, m_scale, TraceOptions()
        )
        assert got is None


class TestFindStart:
    def test_no_delay_point_matches_eigen_oracle(self):
        # oracle: bisect the biomass on the sign of the largest eigenvalue
        # real part of the dense no-delay Jacobian
        params = ModelParams(delta0=0.0, l=None, m=0.0, n_total=1.0)

        def ode_rightmost(nt):
            p = ModelParams(delta0=0.0, l=None, m=0.0, n_total=nt)
            lin = linearize.build_linearization(equilibria.solve_e2(p), p)
            ev = np.linalg.eigvals(lin.a1 + lin.a2)
            ev = ev[np.abs(ev) > 1e-8]  # conservation pins one eigenvalue at 0
            return float(np.max(ev.real))

        nt3 = bisect_oracle(ode_rightmost, 0.1, 2.0, tol=1e-11)
        found = continuation.find_start(params, 0.0, (0.1, 2.0))
        assert found.n_total == pytest.approx(nt3, rel=1e-6)
        # the crossing pair of the dense Jacobian is purely imaginary there
        p3 = ModelParams(delta0=0.0, l=None, m=0.0, n_total=found.n_total)
        lin = linearize.build_linearization(equilibria.solve_e2(p3), p3)
        ev = np.linalg.eigvals(lin.a1 + lin.a2)
        ev = ev[np.abs(ev) > 1e-8]
        pair = ev[np.argmax(ev.real)]
        assert abs(pair.real) <= 1e-6
        assert found.omega == pytest.approx(abs(pair.imag), rel=1e-6)

    def test_stable_bracket_raises(self):
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        with pytest.raises(NoSignChangeError):
            continuation.find_start(params, 6.0, (0.5, 1.5))

    def test_quoted_crossing_location(self, loop_family):
        _, start = loop_family
        assert math.log10(start.n_total) == pytest.approx(0.50, abs=0.02)
        assert start.omega > 0


class TestTraceCurve:
    def test_points_satisfy_residual_and_domain(self, loop_family):
        params, start = loop_family
        opts = TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=40)
        curve = continuation.trace_curve(start, params, opts)
        assert len(curve.points) > 10
        m_scale = continuation._m_scale(params)
        for pt in curve.points:
            scaled = continuation._scaled_residual(
                continuation._pack(pt.as_array(), m_scale), params, m_scale
            )
            assert np.max(np.abs(scaled)) <= 1e-9
            assert pt.z_star > 0
            nt2 = equilibria.compute_nt2(
                ModelParams(delta0=0.17, l=0.159, m=pt.m, n_total=1.0)
            )
            assert pt.n_total > nt2

    def test_tangent_continuity_along_polyline(self, loop_family):
        params, start = loop_family
        opts = TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=30)
        curve = continuation.trace_curve(start, params, opts)
        m_scale = continuation._m_scale(params)
        xs = np.array([
            continuation._pack(p.as_array(), m_scale) for p in curve.points
        ])
        secants = np.diff(xs, axis=0)
        secants /= np.linalg.norm(secants, axis=1, keepdims=True)
        dots = np.sum(secants[:-1] * secants[1:], axis=1)
        assert np.all(dots > 0)

    def test_orientation_reverses(self, loop_family):
        params, start = loop_family
        fwd = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=8)
        )
        bwd = continuation.trace_curve(
            start, params,
            TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=8, orientation=-1),
        )
        assert fwd.points[1].m > start.m
        assert bwd.points[1].m < start.m

    def test_reversibility_returns_to_start(self, loop_family):
        # retrace backwards past the start, then project the nearest point
        # onto the hyperplane through the start: the corrector must land on
        # the start itself if the reverse branch follows the same locus
        params, start = loop_family
        opts = TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=12)
        fwd = continuation.trace_curve(start, params, opts)
        end = fwd.points[-1]
        m_scale = continuation._m_scale(params)
        incoming = continuation._pack(
            fwd.points[-2].as_array(), m_scale
        ) - continuation._pack(end.as_array(), m_scale)
        back = continuation.trace_curve(
            end, params,
            TraceOptions(
                nt_min=1.0, nt_max=30.0, max_steps=40,
                initial_direction=tuple(incoming),
            ),
        )
        x_start = continuation._pack(start.as_array(), m_scale)
        xs = np.array([continuation._pack(p.as_array(), m_scale) for p in back.points])
        # seed from the foot of the nearest polyline segment
        best, best_d = None, np.inf
        for a, b in zip(xs[:-1], xs[1:]):
            ab = b - a
            t = float(np.clip((x_start - a) @ ab / (ab @ ab), 0.0, 1.0))
            foot = a + t * ab
            d = float(np.linalg.norm(foot - x_start))
            if d < best_d:
                best, best_d = foot, d
        assert best_d <= opts.h_max  # the reverse branch passes by the start
        tangent = continuation._tangent(
            continuation._fd_jacobian(x_start, params, m_scale)
        )
        proj = continuation.project_onto_curve(
            best, x_start, tangent, params, m_scale, opts
        )
        assert proj is not None
        assert np.linalg.norm(proj - x_start) <= 10 * opts.corrector_tol

    def test_loop_structure_self_approach(self, loop_family):
        # the curve revisits the seed maturity at a different biomass and
        # frequency: the signature of its loop structure
        params, start = loop_family
        opts = TraceOptions(nt_min=10 ** 0.25, nt_max=90.0, max_steps=250)
        bwd = continuation.trace_curve(start, params, TraceOptions(
            nt_min=10 ** 0.25, nt_max=90.0, max_steps=250, orientation=-1))
        pts = list(reversed(bwd.points)) + continuation.trace_curve(
            start, params, opts).points[1:]
        ms = np.array([p.m for p in pts])
        crossings = np.where((ms[:-1] - 6.0) * (ms[1:] - 6.0) < 0)[0]
        assert crossings.size >= 2
        nts = [0.5 * (pts[i].n_total + pts[i + 1].n_total) for i in crossings]
        oms = [0.5 * (pts[i].omega + pts[i + 1].omega) for i in crossings]
        assert max(nts) / min(nts) > 1.5
        assert max(oms) / min(oms) > 1.05

    def test_domain_bound_termination(self, loop_family):
        params, start = loop_family
        curve = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=4.0, max_steps=500)
        )
        assert curve.termination is CurveEnd.DOMAIN_BOUND
        assert all(p.n_total <= 4.0 for p in curve.points)

    def test_bad_start_rejected(self, loop_family):
        params, start = loop_family
        off = BoundaryPoint(
            n_star=start.n_star * 1.2, p_star=start.p_star, z_star=start.z_star,
            m=start.m, n_total=start.n_total, omega=start.omega,
        )
        with pytest.raises(DomainError):
            continuation.trace_curve(off, params)


class TestFrequencyProfile:
    def test_rows_mirror_points(self, loop_family):
        params, start = loop_family
        curve = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=6)
        )
        rows = continuation.emit_frequency_profile(curve)
        assert len(rows) == len(curve.points)
        for row, pt in zip(rows, curve.points):
            assert row == (pt.m, pt.n_total, pt.omega)

    def test_empty_curve_rejected(self):
        with pytest.raises(DomainError):
            continuation.emit_frequency_profile(
                continuation.BoundaryCurve([], CurveEnd.DOMAIN_BOUND)
            )


def _windowed_rightmost_at(params, m, nt, window, grid_n=256):
    from dataclasses import replace

    p = replace(params, m=m, n_total=nt)
    lin = linearize.build_linearization(equilibria.solve_e2(p), p)
    return linearize.rightmost_in_window(lin, window, grid_n=grid_n)


@pytest.fixture(scope="module")
def successive_crossings():
    """First two crossings in m at fixed biomass 0.6, constant response."""
    params = ModelParams(delta0=0.0, l=None, m=1.0, n_total=0.6)
    lo, hi = 0.2, 0.5
    for _ in range(35):
        mid = 0.5 * (lo + hi)
        if _windowed_rightmost_at(params, mid, 0.6, (0.3, 0.9)) < 0:
            lo = mid
        else:
            hi = mid
    m1 = 0.5 * (lo + hi)
    window = (0.3, 0.65)
    prev = m1 + 8.0
    m2 = None
    for m in np.arange(prev + 1.0, prev + 20.0, 1.0):
        val = _windowed_rightmost_at(params, m, 0.6, window)
        if val is not None and val > 0:
            lo, hi = m - 1.0, m
            for _ in range(35):
                mid = 0.5 * (lo + hi)
                if _windowed_rightmost_at(params, mid, 0.6, window) < 0:
                    lo = mid
                else:
                    hi = mid
            m2 = 0.5 * (lo + hi)
            break
    assert m2 is not None
    p1 = continuation.find_start(params, m1, (0.55, 0.66), omega_window=(0.3, 0.9))
    p2 = continuation.find_start(params, m2, (0.55, 0.66), omega_window=window)
    return params, p1, p2


class TestPeriodicSiblings:
    def test_successive_curves_spaced_by_one_period(self, successive_crossings):
        # the frozen-equilibrium phase advances by 2*pi between curves; the
        # equilibrium itself drifts with maturity through the juvenile pool,
        # so the spacing prediction is first-order, not exact
        _, p1, p2 = successive_crossings
        spacing = p2.m - p1.m
        predicted = 2 * math.pi * 1.0 / p2.omega  # R(P*) = 1
        assert spacing == pytest.approx(predicted, rel=0.2)


class TestDeduplication:
    def test_same_locus_from_two_seeds(self, loop_family):
        params, start = loop_family
        c1 = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=30)
        )
        mid = c1.points[len(c1.points) // 2]
        # shorter re-trace stays inside the span already covered by c1
        c2 = continuation.trace_curve(
            mid, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=8)
        )
        kept = continuation.deduplicate_curves([c1, c2], params)
        assert len(kept) == 1
        assert len(kept[0].points) == max(len(c1.points), len(c2.points))

    def test_distinct_curves_kept(self, successive_crossings):
        params, p1, p2 = successive_crossings
        opts = TraceOptions(nt_min=0.05, nt_max=3.0, max_steps=10)
        c1 = continuation.trace_curve(p1, params, opts)
        c2 = continuation.trace_curve(p2, params, opts)
        assert len(continuation.deduplicate_curves([c1, c2], params)) == 2
