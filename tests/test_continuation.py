import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tde_plankton import cli, continuation, equilibria, linearize, model
from tde_plankton.config import build_config
from tde_plankton.continuation import BoundaryCurve, BoundaryPoint, CurveEnd, TraceOptions
from tde_plankton.exceptions import (
    DomainError,
    NoConvergeError,
    NoSignChangeError,
    SingularRateError,
    TdePlanktonError,
)
from tde_plankton.model import ModelParams
from tde_plankton.presets import preset_values

from conftest import bisect_oracle


@pytest.fixture(scope="module")
def loop_family():
    """Saturating response with juvenile mortality: the loop-forming family."""
    params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
    start = continuation.find_start(params, 6.0, (10 ** 0.4, 10 ** 0.6))
    return params, start


def _start_lin(start, params):
    return linearize.linearization_at(start.n_star, start.p_star, start.z_star, start.m, params)


class TestHopfResidual:
    def test_definition_at_found_point(self, loop_family):
        params, start = loop_family
        assert continuation.point_residual(start, params) <= 1e-9

    def test_frequency_sign_flip(self, loop_family):
        params, start = loop_family
        u, lin = start.as_array(), _start_lin(start, params)
        res_pos = continuation.hopf_residual(u, params, lin)
        u_neg = u.copy()
        u_neg[5] = -u_neg[5]
        res_neg = continuation.hopf_residual(u_neg, params, lin)
        assert res_neg[4] == pytest.approx(-res_pos[4], rel=1e-12, abs=1e-300)
        for i in (0, 1, 2, 3):
            assert res_neg[i] == res_pos[i]

    def test_nonpositive_phytoplankton_rejected(self, loop_family):
        params, start = loop_family
        u = start.as_array()
        u[1] = -0.1
        with pytest.raises(DomainError):
            continuation.hopf_residual(u, params, _start_lin(start, params))

    def test_point_residual_is_the_largest_scaled_component(self, loop_family):
        params, start = loop_family
        m_scale = continuation._m_scale(params)
        x = continuation._pack(start.as_array(), m_scale)
        want = float(np.max(np.abs(_matrix_scaled_residual(x, params, m_scale))))
        assert continuation.point_residual(start, params) == want
        assert math.isnan(continuation.point_residual(replace(start, omega=math.nan), params))


#: Traced boundary points (n_star, p_star, z_star, m, n_total, omega), two
#: per preset, covering both responses and delta0 in {0, 0.17}; the second
#: fig4-l0.159-dd point is the m = 6 crossing between fig6-stable and
#: fig6-unstable.
BOUNDARY_POINTS = {
    "fig4-l0.159-dd": [
        (20.467574336941396, 0.2762178974085852, 1.0224632813857135,
         6.834700142960657, 27.122340755789068, 0.45411368398355845),
        (0.6595510534361235, 0.236286571992287, 0.41112209023762486,
         6.0, 3.1606793698568847, 0.8443190121567277),
    ],
    "fig4-l0.159-d0": [
        (1.5985189159189352, 0.03594080338266331, 0.5346158736346655,
         2.6004527452748194, 3.450977247560826, 0.8499945336030269),
        (4.0508484073159075, 0.035940803382663616, 0.69776228118123,
         4.042517284681119, 7.385449169861865, 0.6861033895134405),
    ],
    "fig2-right": [
        (0.7075551030690089, 0.1618068173772381, 0.4029423936935051,
         8.175667719666327, 2.4868944227987724, 0.3456295782319922),
        (3.8171348179548272, 3.788663165644834, 3.1866539036314228,
         18.393847019403626, 80.27556412614862, 0.24089064087360818),
    ],
    "fig2-left": [
        (0.1947875574700428, 0.03594080338266336, 0.1398347862119508,
         0.9555367893532661, 0.39327808511632456, 0.4662860342692912),
        (0.10495308024026023, 0.03594080338266252, 0.08041960477506267,
         3.97840975542256, 0.27570365222592247, 0.3083211905399638),
    ],
}
BOUNDARY_CASES = [(name, pt) for name, pts in BOUNDARY_POINTS.items() for pt in pts]


def _preset_params(name):
    return build_config(preset_values(name), None, {}).params


def _count_traces(monkeypatch) -> list:
    """Record the start of every ``continuation.trace_curve`` call."""
    calls = []
    trace = continuation.trace_curve

    def counted(start, *args, **kwargs):
        calls.append(start)
        return trace(start, *args, **kwargs)

    monkeypatch.setattr(continuation, "trace_curve", counted)
    return calls


def _matrix_linearization(n_star, p_star, z_star, m, params):
    """The matrix construction the closed-form residual replaced, through the
    public model responses, with its closed form gathered from its own
    matrices."""
    if p_star <= 0:
        raise DomainError("linearization requires p_star > 0")
    r = float(model.r_growth(p_star, params))
    if r < params.r_floor:
        raise SingularRateError("growth rate below floor at the linearization point")
    rp = float(model.r_growth_prime(p_star, params))
    a = float(model.f_uptake_prime(n_star, params))
    b = float(model.h_grazing_prime(p_star, params))
    c = float(model.f_uptake(n_star, params))
    d = float(model.h_grazing(p_star, params))
    mu, lam, g, gam = params.mu, params.lam, params.g, params.gamma
    delta, delta0 = params.delta, params.delta0
    big_t = m / r
    surv = math.exp(-delta0 * big_t)
    a1 = np.array([
        [-mu * p_star * a - delta0, -mu * c + lam + (1 - gam) * g * z_star * b - delta0,
         delta - delta0 + (1 - gam) * g * d],
        [mu * p_star * a, mu * c - lam - g * z_star * b, -g * d],
        [0.0, surv * gam * g * z_star * d * rp / r, -delta],
    ])
    a2 = np.zeros((3, 3))
    a2[2, 1] = surv * gam * g * z_star * (b - rp / r * d)
    a2[2, 2] = surv * gam * g * d
    a3 = np.zeros((3, 3))
    a3[2, 1] = delta0 * surv * gam * g * z_star * d * rp / r
    assert not (a2[:2].any() or a3[:2].any())  # delayed terms on the zooplankton row only
    form = linearize._form(tuple(a1[:2].ravel().tolist()),
                           (*a1[2].tolist(), *a2[2].tolist(), *a3[2].tolist()))
    return linearize.LinearizationData(form, big_t, a, d, delta0, max(mu, g, delta))


def _matrix_scaled_residual(x, params, m_scale):
    """The ndarray residual the float core replaced: the unpacked point as an
    array, the steady-state residuals through the public model responses,
    and char_fn and char_scale each from its own scalar pass."""
    nt = 10.0 ** float(x[4])
    u = np.array([x[0] * nt, x[1] * nt, x[2] * nt, x[3] * m_scale, nt, x[5]])
    n, p, z, m, nt, omega = u.tolist()
    lin = _matrix_linearization(n, p, z, m, params)
    f, h, r = (float(fn(v, params)) for fn, v in ((model.f_uptake, n),
                                                    (model.h_grazing, p),
                                                    (model.r_growth, p)))
    surv = math.exp(-params.delta0 * m / r)
    disc = m / r if params.delta0 == 0.0 else (1.0 - surv) / params.delta0
    gg = params.gamma * params.g
    eq_res = np.array([n + p + z + gg * z * h * disc - nt,
                       params.mu * p * f - params.lam * p - params.g * z * h,
                       gg * surv * z * h - params.delta * z])

    def scalar_pass(fn, nan):
        s, form = 1j * omega, lin.char_form
        try:
            e, kern = linearize._delay_terms_scalar(s, lin.t_delay)
            return fn(s, linearize._bottom_row(s, e, kern, form), form)
        except (OverflowError, ValueError):
            return nan

    val = scalar_pass(linearize._expand, complex(math.nan, math.nan))
    eq_scale = max(1.0, nt)
    ch_scale = max(1.0, scalar_pass(linearize._hadamard, math.nan))
    return np.array([eq_res[0] / eq_scale, eq_res[1] / eq_scale, eq_res[2] / eq_scale,
                     val.real / ch_scale, val.imag / ch_scale])


def _matrix_fd_jacobian(x, params, m_scale, base):
    """The column-by-column ndarray Jacobian the list-built one replaced."""
    jac = np.empty((5, x.size))
    for j in range(x.size):
        xs = x.copy()
        xs[j] += continuation.FD_STEP
        jac[:, j] = (_matrix_scaled_residual(xs, params, m_scale) - base) / continuation.FD_STEP
    return jac


def _float_residual(x, params, m_scale):
    """The float residual core as an array, at the scaled point ``x``."""
    return np.array(continuation._residual(x.tolist(), params, m_scale)[0])


def _fast_fd_jacobian(x, params, m_scale):
    base, lin = continuation._residual(x.tolist(), params, m_scale)
    return continuation._fd_jacobian(x, params, m_scale, base, lin)


def _slow_fd_jacobian(x, params, m_scale):
    return _matrix_fd_jacobian(x, params, m_scale, _matrix_scaled_residual(x, params, m_scale))


def _outcome(fn, *args):
    """The residual's bytes, or the type of the error it raised."""
    try:
        return fn(*args).tobytes()
    except (TdePlanktonError, OverflowError) as err:
        return type(err)


#: (axis, value, r_floor, error): a fault put into a boundary point, the
#: axis of u set to value (n or p) or of x (scaled log10 n_total), or a
#: raised growth-rate floor, and the error the residual raises there.
ERROR_CASES = [
    (1, 0.0, None, DomainError),  # p = 0
    (1, -0.1, None, DomainError),  # p < 0
    (0, -0.1, None, DomainError),  # n < 0
    (1, 1e-300, None, SingularRateError),  # R(p) below the default floor
    (None, None, 2.0, SingularRateError),  # R(p) below a floor above sup R
    (4, 400.0, None, OverflowError),  # log10 n_total: 10**400 overflows
]


def _faulty_point(point, name, fault):
    """(x, params, m_scale, expected error type or bytes) for ``fault`` put
    into ``point`` of preset ``name``."""
    axis, value, r_floor, error = fault
    params = _preset_params(name)
    if r_floor is not None:
        params = replace(params, r_floor=r_floor)
    m_scale = continuation._m_scale(params)
    u = np.array(point, dtype=float)
    if axis in (0, 1):
        u[axis] = value
    x = continuation._pack(u, m_scale)
    if axis == 4:
        x[4] = value
    if error is SingularRateError and params.l is None and r_floor is None:
        error = bytes  # the constant response R = 1 never drops below the floor
    return x, params, m_scale, error


class TestScaledResidualFastPath:
    """The float residual and its list-built Jacobian against the ndarray
    residual, with the full matrix linearization, and its column-by-column
    Jacobian."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.sampled_from(BOUNDARY_CASES),
        rel=st.lists(st.floats(-0.1, 0.1), min_size=6, max_size=6),
    )
    def test_bit_identical_near_boundary_points(self, case, rel):
        name, point = case
        params = _preset_params(name)
        m_scale = continuation._m_scale(params)
        u = np.array(point) * (1.0 + np.array(rel))
        x = continuation._pack(u, m_scale)
        got = _outcome(_float_residual, x, params, m_scale)
        assert isinstance(got, bytes)
        assert got == _outcome(_matrix_scaled_residual, x, params, m_scale)
        # the matrices built from the kernel's entries are the old ones too
        n, p, z, m = continuation._unpack(x.tolist(), m_scale)[:4]
        new, old = (build(n, p, z, m, params)
                    for build in (linearize.linearization_at, _matrix_linearization))
        for name in ("a1", "a2", "a3"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes()
        scalars = ("t_delay", "coeff_a", "coeff_d", "delta0", "rate_scale")
        assert [getattr(new, f) for f in scalars] == [getattr(old, f) for f in scalars]
        assert new.char_form == old.char_form

    @pytest.mark.parametrize("name", list(BOUNDARY_POINTS))
    @pytest.mark.parametrize("fault", ERROR_CASES)
    def test_same_errors(self, name, fault):
        x, params, m_scale, error = _faulty_point(BOUNDARY_POINTS[name][0], name, fault)
        got = _outcome(_float_residual, x, params, m_scale)
        assert got == _outcome(_matrix_scaled_residual, x, params, m_scale)
        assert (type(got) if isinstance(got, bytes) else got) is error
        if error in (DomainError, SingularRateError):  # raised by the kernel itself
            n, p, z, m = continuation._unpack(x.tolist(), m_scale)[:4]
            with pytest.raises(error):
                linearize.linearization_at(n, p, z, m, params)

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(BOUNDARY_CASES),
        rel=st.lists(st.floats(-0.1, 0.1), min_size=6, max_size=6),
        fault=st.sampled_from([None, *ERROR_CASES]),
    )
    def test_jacobian_bit_identical_or_same_error(self, case, rel, fault):
        name, point = case
        u = np.array(point) * (1.0 + np.array(rel))
        if fault is None:
            params = _preset_params(name)
            m_scale = continuation._m_scale(params)
            x, error = continuation._pack(u, m_scale), bytes
        else:
            x, params, m_scale, error = _faulty_point(u, name, fault)
        got = _outcome(_fast_fd_jacobian, x, params, m_scale)
        assert got == _outcome(_slow_fd_jacobian, x, params, m_scale)
        assert (type(got) if isinstance(got, bytes) else got) is error


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

    def test_window_losing_the_root_inside_the_bracket_raises(self, monkeypatch):
        # the end verdicts flip sign, then the window holds no root
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        verdicts = iter([-0.1, 0.1])
        monkeypatch.setattr(linearize, "rightmost_in_window", lambda *a, **k: next(verdicts, None))
        with pytest.raises(NoSignChangeError, match="lost the root"):
            continuation.find_start(params, 6.0, (1.0, 10.0), omega_window=(0.1, 1.0))

    def test_shared_linearizations_give_the_same_starts(self, monkeypatch):
        # fig4-l0.159-d0 at m = 3: the ten auto windows solve in one bracket
        params = _preset_params("fig4-l0.159-d0")
        tr = build_config(preset_values("fig4-l0.159-d0"), None, {}).trace
        nt2 = equilibria.compute_nt2(replace(params, m=3.0))
        bracket = (max(tr.nt_min, nt2 * 1.001), tr.nt_max)
        batches = []
        newton_batch = linearize._newton_batch
        monkeypatch.setattr(linearize, "_newton_batch",
                            lambda *a, **k: batches.append(1) or newton_batch(*a, **k))

        def starts(lins_for_window):
            out = []
            for window in cli._auto_windows():
                try:
                    out.append(continuation.find_start(
                        params, 3.0, bracket, omega_window=window, grid_n=tr.grid_n,
                        lins=lins_for_window(),
                    ))
                except TdePlanktonError as err:
                    out.append(type(err))
            return out

        fresh = starts(dict)
        fresh_batches = len(batches)
        batches.clear()
        one_dict: dict = {}
        assert starts(lambda: one_dict) == fresh
        assert any(isinstance(s, BoundaryPoint) for s in fresh)
        assert len(batches) < fresh_batches

    def test_nan_start_residual_raises_no_converge(self, monkeypatch):
        monkeypatch.setattr(continuation, "point_residual", lambda *a, **k: math.nan)
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        with pytest.raises(NoConvergeError, match="nan exceeds"):
            continuation.find_start(params, 6.0, (10 ** 0.4, 10 ** 0.6))

    def test_polish_follows_the_trace_options(self, loop_family):
        # a start polished to a tighter tolerance is one the trace accepts
        params, start = loop_family
        tight = TraceOptions(corrector_tol=1e-12, max_steps=2)
        found = continuation.find_start(params, 6.0, (10 ** 0.4, 10 ** 0.6), opts=tight)
        assert continuation.point_residual(found, params) <= 10 * tight.corrector_tol
        assert len(continuation.trace_curve(found, params, tight)) == 5
        assert found.n_total == pytest.approx(start.n_total, rel=1e-6)

    def test_corrector_failure_raises_no_converge(self, monkeypatch):
        monkeypatch.setattr(continuation, "_newton_corrector", lambda *a, **k: None)
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        with pytest.raises(NoConvergeError):
            continuation.find_start(params, 6.0, (10 ** 0.4, 10 ** 0.6))

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
        for pt in curve.points:
            assert continuation.point_residual(pt, params) <= 1e-9
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
        # the backward half lowers m, the forward half raises it, so m rises
        # along the whole curve through the start
        params, start = loop_family
        curve = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=3)
        )
        assert curve.points[3] == start
        ms = [p.m for p in curve.points]
        assert all(a < b for a, b in zip(ms[:-1], ms[1:]))

    def test_reversibility_returns_to_start(self, loop_family):
        # retrace from the forward end past the start, then project the
        # nearest point onto the hyperplane through the start: the corrector
        # must land on the start itself if the retrace follows the same locus
        params, start = loop_family
        opts = TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=12)
        end = continuation.trace_curve(start, params, opts).points[-1]
        m_scale = continuation._m_scale(params)
        retrace = continuation.trace_curve(
            end, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=40)
        )
        x_start = continuation._pack(start.as_array(), m_scale)
        xs = np.array([continuation._pack(p.as_array(), m_scale) for p in retrace.points])
        # seed from the foot of the nearest polyline segment
        best, best_d = None, np.inf
        for a, b in zip(xs[:-1], xs[1:]):
            ab = b - a
            t = float(np.clip((x_start - a) @ ab / (ab @ ab), 0.0, 1.0))
            foot = a + t * ab
            d = float(np.linalg.norm(foot - x_start))
            if d < best_d:
                best, best_d = foot, d
        assert best_d <= continuation.H_MAX  # the retrace passes by the start
        base, lin = continuation._residual(x_start.tolist(), params, m_scale)
        tangent = continuation._tangent(
            continuation._fd_jacobian(x_start, params, m_scale, base, lin))
        proj = continuation.project_onto_curve(
            best, x_start, tangent, params, m_scale, opts
        )
        assert proj is not None
        assert np.linalg.norm(proj - x_start) <= 10 * opts.corrector_tol

    def test_loop_structure_self_approach(self, loop_family):
        # the curve revisits the seed maturity at a different biomass and
        # frequency: the signature of its loop structure
        params, start = loop_family
        pts = continuation.trace_curve(
            start, params, TraceOptions(nt_min=10 ** 0.25, nt_max=90.0, max_steps=250)
        ).points
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

    def test_max_steps_termination(self, loop_family):
        params, start = loop_family
        curve = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=3)
        )
        assert curve.termination is CurveEnd.MAX_STEPS
        assert curve.termination_backward is CurveEnd.MAX_STEPS
        assert len(curve) == 7  # three steps back, the start, three steps ahead

    def test_step_failure_termination(self, loop_family, monkeypatch):
        # one Newton iteration cannot correct a predictor off the locus, and
        # a single halving already falls below H_MIN, either way
        params, start = loop_family
        monkeypatch.setattr(continuation, "H_MIN", 0.6 * continuation.H_INIT)
        curve = continuation.trace_curve(
            start, params, TraceOptions(nt_min=1.0, nt_max=30.0, max_newton=1)
        )
        assert curve.termination is CurveEnd.STEP_FAILURE
        assert curve.termination_backward is CurveEnd.STEP_FAILURE
        assert curve.points == [start]

    def test_bad_start_rejected(self, loop_family):
        params, start = loop_family
        off = BoundaryPoint(
            n_star=start.n_star * 1.2, p_star=start.p_star, z_star=start.z_star,
            m=start.m, n_total=start.n_total, omega=start.omega,
        )
        with pytest.raises(DomainError):
            continuation.trace_curve(off, params)

    def test_nan_start_rejected(self, loop_family):
        # a NaN residual fails the start check instead of reaching the SVD
        params, start = loop_family
        with pytest.raises(DomainError, match="too large"):
            continuation.trace_curve(replace(start, omega=math.nan), params)


class TestDomainTest:
    """On a steady state z_star > 0 holds exactly when n_total > nt2(m), so
    the trace's domain test reads the sign of z_star instead of solving nt2."""

    @pytest.mark.parametrize("l", [0.159, None])
    @pytest.mark.parametrize("delta0", [0.0, 0.17])
    def test_positive_zooplankton_iff_above_nt2(self, l, delta0):
        base = ModelParams(delta0=delta0, l=l, m=0.0, n_total=1.0)
        ceiling = equilibria.m_ceiling(base)
        opts = TraceOptions(nt_min=-math.inf, nt_max=math.inf)  # only z_star decides
        nt1 = equilibria.compute_nt1(base)
        gg = base.gamma * base.g
        for m in (0.0, 2.0, 6.0, 12.0):
            params = replace(base, m=m)
            p = equilibria.solve_p2star(params)
            h = model.h_grazing(p, params)
            disc = equilibria.maturity_discount(p, params)
            nt2 = equilibria.compute_nt2(params)
            for n in nt1 * np.array([0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 10.0]):
                # z from the P equation, n_total from the biomass equation
                z = (params.mu * model.f_uptake(n, params) - params.lam) * p / (params.g * h)
                nt = n + p + z + gg * z * h * disc
                res = equilibria.residuals_at(n, p, z, m, nt, params)
                assert np.max(np.abs(res)) <= 1e-12 * max(1.0, abs(nt))
                assert (z > 0) == (nt > nt2)
                pt = BoundaryPoint(n_star=n, p_star=p, z_star=z, m=m, n_total=nt, omega=0.5)
                assert continuation._in_domain(pt, ceiling, opts) == (nt > nt2)

    def test_traced_dd_loop_lies_above_nt2(self, tmp_path, monkeypatch):
        # the four preset seeds land on one loop: the first start is traced
        # both ways and the other three lie on its curve
        calls = _count_traces(monkeypatch)
        assert cli.main([
            "trace-boundary", "--preset", "fig4-l0.159-dd", "--out", str(tmp_path),
        ]) == 0
        assert len(calls) == 1
        params = _preset_params("fig4-l0.159-dd")
        data = np.genfromtxt(tmp_path / "curves.csv", delimiter=",", names=True)
        assert data.size > 100 and set(data["curve_id"].tolist()) == {0.0}
        assert np.all(data["residual"] <= 1e-9)
        for m, nt in zip(data["m"].tolist(), data["n_total"].tolist()):
            assert nt > equilibria.compute_nt2(replace(params, m=m))


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
        assert len(c1.points) == 61  # the start is point 30
        # a shorter re-trace from 15 steps past the start stays inside the
        # span already covered by c1, and turns with it around a bend
        c2 = continuation.trace_curve(
            c1.points[45], params, TraceOptions(nt_min=1.0, nt_max=30.0, max_steps=8)
        )
        kept = continuation.deduplicate_curves([c1, c2], params)
        assert len(kept) == 1
        assert len(kept[0].points) == max(len(c1.points), len(c2.points))

    @staticmethod
    def _bent_arc(params, straight_n, bend_n, shift=0.0):
        """Two straight legs joined by a half-turn of radius 0.2, in the scaled
        (m, log10 n_total) profile plane, at fixed omega."""
        m_scale = continuation._m_scale(params)
        leg = np.linspace(0.1, 0.5, straight_n)
        turn = np.linspace(-math.pi / 2, math.pi / 2, bend_n)
        xy = np.concatenate([
            np.column_stack([leg, np.zeros_like(leg)]),
            np.column_stack([0.5 + 0.2 * np.cos(turn), 0.2 + 0.2 * np.sin(turn)])[1:-1],
            np.column_stack([leg[::-1], np.full_like(leg, 0.4)]),
        ])
        return BoundaryCurve(
            points=[
                BoundaryPoint(n_star=1.0, p_star=1.0, z_star=1.0, m=x * m_scale,
                              n_total=10.0 ** (y + shift), omega=0.5)
                for x, y in xy
            ],
            termination=CurveEnd.DOMAIN_BOUND,
            termination_backward=CurveEnd.DOMAIN_BOUND,
        )

    def test_one_bent_arc_sampled_twice_matches_in_both_orders(self):
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        # long chords around the bend (sagitta 0.015 > tol), many points on the legs
        chords = self._bent_arc(params, straight_n=50, bend_n=5)
        # fewer points in all, but dense on the bend
        dense = self._bent_arc(params, straight_n=15, bend_n=62)
        assert len(dense) < len(chords)
        assert continuation.curves_interleave(chords, dense, params)
        assert continuation.curves_interleave(dense, chords, params)
        kept = continuation.deduplicate_curves([dense, chords], params)
        assert kept == [chords]

    def test_two_distinct_bent_arcs_do_not_match(self):
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        a = self._bent_arc(params, straight_n=50, bend_n=5)
        b = self._bent_arc(params, straight_n=15, bend_n=62, shift=0.05)
        assert not continuation.curves_interleave(a, b, params)
        assert not continuation.curves_interleave(b, a, params)
        assert len(continuation.deduplicate_curves([a, b], params)) == 2

    def test_candidate_joining_two_kept_curves_merges_them(self):
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        arc = self._bent_arc(params, straight_n=50, bend_n=62).points
        # the two legs do not interleave; the whole arc, considered after
        # both (it starts where the upper leg does), carries both
        ends = (CurveEnd.DOMAIN_BOUND, CurveEnd.DOMAIN_BOUND)
        lower = BoundaryCurve(arc[:45], *ends)
        upper = BoundaryCurve(arc[:-46:-1], *ends)
        whole = BoundaryCurve(arc[::-1], *ends)
        assert not continuation.curves_interleave(lower, upper, params)
        kept = continuation.deduplicate_curves([lower, upper, whole], params)
        assert kept == [whole]

    def test_polyline_share_matches_a_point_by_point_loop(self):
        def segment_dist(q, a, b):
            ab = b - a
            denom = float(ab @ ab)
            t = 0.0 if denom == 0 else float(np.clip((q - a) @ ab / denom, 0.0, 1.0))
            return float(np.linalg.norm(q - (a + t * ab)))

        rng = np.random.default_rng(17)
        for n_line in (1, 2, 40):
            line = np.cumsum(rng.normal(scale=0.05, size=(n_line, 3)), axis=0)
            if n_line > 2:
                line[n_line // 2] = line[n_line // 2 - 1]  # a zero-length segment
            # 300 x 39 point-segment pairs span several blocks
            q = line[rng.integers(n_line, size=300)] + rng.normal(scale=0.01, size=(300, 3))
            if n_line < 2:
                dists = [float(np.min(np.linalg.norm(line - p, axis=1))) for p in q]
            else:
                dists = [min(segment_dist(p, line[i], line[i + 1]) for i in range(n_line - 1))
                         for p in q]
            for tol in (2e-3, 5e-3, 1e-2):
                expect = float(np.mean(np.asarray(dists) <= tol))
                assert continuation._share_near_polyline(q, line, tol) == expect

    def test_chord_sagitta_of_a_sampled_circle(self):
        radius, step = 0.2, math.pi / 4
        angle = np.arange(7) * step
        line = np.column_stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(7)])
        exact = radius * (1 - math.cos(step / 2))
        assert continuation._chord_sagitta(line) == pytest.approx(np.full(6, exact), rel=0.02)
        assert continuation._chord_sagitta(line[:2]) == 0.0

    def test_one_point_curves_at_one_place_interleave(self):
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        one = self._bent_arc(params, straight_n=2, bend_n=3)
        one = BoundaryCurve(one.points[:1], CurveEnd.STEP_FAILURE, CurveEnd.STEP_FAILURE)
        assert continuation.curves_interleave(one, one, params)
        assert continuation.deduplicate_curves([one, one], params) == [one]

    def test_start_on_a_traced_curve_lies_on_it(self):
        params = ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0)
        # leg samples 0.029 apart and bend samples 0.010 apart, both > tol
        arc = self._bent_arc(params, straight_n=15, bend_n=62)
        tol = 5e-3
        m_scale = continuation._m_scale(params)

        def at(m_scaled, log_nt):
            return BoundaryPoint(n_star=1.0, p_star=1.0, z_star=1.0, m=m_scaled * m_scale,
                                 n_total=10.0 ** log_nt, omega=0.5)

        # halfway between two samples of the lower leg, and of the bend
        mid_leg = 0.1 + 5.5 * 0.4 / 14
        assert continuation.lies_on_curve(at(mid_leg, 0.0), arc, params, tol)
        assert continuation.lies_on_curve(at(0.7, 0.2), arc, params, tol)
        # off either leg, or beyond the end of the arc, by more than tol
        assert not continuation.lies_on_curve(at(mid_leg, -1.5 * tol), arc, params, tol)
        assert not continuation.lies_on_curve(at(mid_leg, 0.4 + 1.5 * tol), arc, params, tol)
        assert not continuation.lies_on_curve(at(0.1 - 1.5 * tol, 0.0), arc, params, tol)
        assert not continuation.lies_on_curve(
            replace(at(mid_leg, 0.0), omega=0.5 + 1.5 * tol), arc, params, tol
        )

    def test_distinct_starts_are_all_traced(self, tmp_path, monkeypatch):
        # the windows at m = 3 and at m = 6 seed one start each, on two
        # distinct curves
        calls = _count_traces(monkeypatch)
        assert cli.main([
            "trace-boundary", "--preset", "fig4-l0.159-d0", "--out", str(tmp_path),
            "--set", "continuation.m_seeds=3.0,6.0",
        ]) == 0
        assert len(calls) == 2 and len({(s.m, s.n_total, s.omega) for s in calls}) == 2
        data = np.genfromtxt(tmp_path / "curves.csv", delimiter=",", names=True)
        assert set(data["curve_id"].tolist()) == {0.0, 1.0}

    def test_distinct_curves_kept(self, successive_crossings):
        params, p1, p2 = successive_crossings
        opts = TraceOptions(nt_min=0.05, nt_max=3.0, max_steps=10)
        c1 = continuation.trace_curve(p1, params, opts)
        c2 = continuation.trace_curve(p2, params, opts)
        assert len(continuation.deduplicate_curves([c1, c2], params)) == 2
