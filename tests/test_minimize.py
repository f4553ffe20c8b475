from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octo_cfs import cfs
from octo_cfs.minimize import (
    ACC,
    FD_STEP,
    MAXITER,
    InfeasibleStart,
    LineSearchFailure,
    MaxIterations,
    MeasureFamily,
    MinimizeOptions,
    _evaluate,
    _sqp,
    _unpack,
    make_family,
    minimize,
    softmax,
)


def diag_action_mirror(q, w1, kappa):
    """Closed-form action of the mirror family on the trace-constraint slice.

    Points diag(1+q, -q) and diag(-q, 1+q) with weights (w1, 1-w1); for
    diagonal matrices the product spectrum is the entrywise product, so the
    Lagrangian needs no eigensolver.
    """
    p = 1.0 + q
    w2 = 1.0 - w1
    # self pairs: spectrum {p^2, q^2}
    l_self = 0.5 * (p * p - q * q) ** 2 + kappa * (p * p + q * q) ** 2
    # cross pair: spectrum {-pq, -pq}, equal moduli
    l_cross = kappa * (2.0 * p * q) ** 2
    return (w1 * w1 + w2 * w2) * l_self + 2.0 * w1 * w2 * l_cross


def test_softmax_simplex():
    z = np.array([0.3, -1.2, 2.0])
    w = softmax(z)
    assert np.all(w > 0) and abs(w.sum() - 1.0) < 1e-15


@pytest.mark.parametrize("kappa", [0.05, 0.2, 0.5])
def test_minimize_mirror_family_matches_grid_oracle(kappa):
    cfg = cfs.SystemConfig(f=2, n=1, kappa=kappa)
    fam, x0 = make_family({"type": "mirror_pair"}, cfg)
    measure, report = minimize(fam, cfg, x0, MinimizeOptions(seed=3))

    qs = np.linspace(0.0, 1.0, 201)
    ws = np.linspace(0.0, 1.0, 201)
    grid = diag_action_mirror(qs[:, None], ws[None, :], kappa)
    oracle = float(grid.min())

    assert abs(report.action - oracle) < 1e-6
    assert abs(report.volume - 1.0) < 1e-8
    assert abs(report.trace - 1.0) < 1e-8
    assert report.ell_spread < 1e-5 * (1.0 + abs(report.action))
    # the optimum is the equal-weight pair diag(1,0), diag(0,1)
    assert abs(oracle - (0.25 + kappa / 2.0)) < 1e-12
    assert len(measure.points) == 2
    assert np.allclose(sorted(measure.weights), [0.5, 0.5], atol=1e-5)
    # ell(0) = -s: a probe that only reached the zero point would read exactly s
    assert report.off_support_max_neg_ell < report.s_posthoc


def test_minimize_single_point_diagonal_family():
    kappa = 0.3
    cfg = cfs.SystemConfig(f=2, n=1, kappa=kappa)
    fam, x0 = make_family({"type": "diagonal", "signs": [[1.0, -1.0]]}, cfg)
    measure, report = minimize(fam, cfg, x0, MinimizeOptions(seed=5))

    # 1D grid oracle on the constraint slice p = 1 + q
    qs = np.linspace(0.0, 2.0, 4001)
    ps = 1.0 + qs
    vals = 0.5 * (ps**2 - qs**2) ** 2 + kappa * (ps**2 + qs**2) ** 2
    oracle = float(vals.min())
    assert abs(report.action - oracle) < 1e-6
    assert abs(report.trace - 1.0) < 1e-8
    assert len(measure.points) == 1


def test_forced_identical_points_merge_to_single_point():
    kappa = 0.3
    cfg = cfs.SystemConfig(f=2, n=1, kappa=kappa)

    fam = MeasureFamily(index=[[0, 1], [0, 1]], signs=[[1, -1], [1, -1]])  # two copies of diag(u^2, -v^2)
    measure, report = minimize(fam, cfg, np.array([1.1, 0.3, 0.0, 0.0]), MinimizeOptions(seed=7))
    assert len(measure.points) == 1
    assert abs(measure.weights[0] - 1.0) < 1e-12

    fam1, x01 = make_family({"type": "diagonal", "signs": [[1.0, -1.0]]}, cfg)
    _, report1 = minimize(fam1, cfg, x01, MinimizeOptions(seed=7))
    assert abs(report.action - report1.action) < 1e-6


def test_report_posthoc_s_equals_action_when_spread_vanishes():
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.15)
    fam, x0 = make_family({"type": "mirror_pair"}, cfg)
    _, report = minimize(fam, cfg, x0)
    assert abs(report.s_posthoc - report.action) < 1e-8
    assert max(abs(e) for e in report.ell_support) <= report.ell_spread + 1e-15


def test_infeasible_start_raises():
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.1)

    fam = MeasureFamily(index=[[0, 1]], signs=[[1, 1]])  # two positive eigenvalues, n = 1
    with pytest.raises(InfeasibleStart):
        minimize(fam, cfg, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(InfeasibleStart):
        fam2, x0 = make_family({"type": "mirror_pair"}, cfg)
        minimize(fam2, cfg, x0[:-1])


def test_traceless_family_cannot_meet_constraint():
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.1)

    fam = MeasureFamily(index=[[0, 0]], signs=[[1, -1]])  # diag(u^2, -u^2)
    with pytest.raises(MaxIterations):
        minimize(fam, cfg, np.array([1.0, 0.0]))


def test_overflowing_start_raises_line_search_failure():
    # theta = 1e40 puts 1e80 on the diagonal: the action overflows and its gradients are not finite
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.2)
    fam, _ = make_family({"type": "mirror_pair"}, cfg)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LineSearchFailure, match="diverged"):
        minimize(fam, cfg, np.array([1e40, 0.4, 0.1, -0.1]))


def test_make_family_sign_template_validated():
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.1)
    with pytest.raises(ValueError):
        make_family({"type": "diagonal", "signs": [[1.0, 1.0]]}, cfg)
    with pytest.raises(ValueError):
        make_family({"type": "unknown"}, cfg)
    with pytest.raises(ValueError, match="mirror_pair family needs f = 2, got f = 3"):
        make_family({"type": "mirror_pair"}, cfs.SystemConfig(f=3, n=1, kappa=0.1))


def test_non_finite_start_raises():
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.2)
    fam, _ = make_family({"type": "mirror_pair"}, cfg)
    for bad in (np.nan, np.inf):
        with pytest.raises(InfeasibleStart, match="x0 must be finite"):
            minimize(fam, cfg, np.array([1.2, 0.4, bad, -0.1]))


def test_point_with_underflowed_weight_is_dropped():
    # logits 800 apart: the softmax weight of the second point is exactly 0
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.2)
    fam, _ = make_family({"type": "mirror_pair"}, cfg)
    x0 = np.array([1.2, 0.4, 800.0, 0.0])
    assert softmax(x0[2:])[1] == 0.0
    measure, report = minimize(fam, cfg, x0)
    assert len(measure.points) == 1 and measure.weights.tolist() == [1.0]
    assert abs(report.trace - 1.0) < 1e-6 and report.volume == 1.0 and report.dropped_support == 1


def _central_gradient(fun, v):
    """Per-coordinate central differences, one call of fun per perturbed vector."""
    g = np.zeros_like(v)
    for i in range(len(v)):
        h = FD_STEP * max(1.0, abs(v[i]))
        vp = v.copy()
        vm = v.copy()
        vp[i] += h
        vm[i] -= h
        g[i] = (fun(vp) - fun(vm)) / (2.0 * h)
    return g


GRADIENT_FAMILIES = {
    "mirror_pair": (cfs.SystemConfig(f=2, n=1, kappa=0.2), {"type": "mirror_pair"}),
    "diagonal": (cfs.SystemConfig(f=4, n=2, kappa=0.2),
                 {"type": "diagonal", "signs": [[1, 1, -1, -1], [-1, -1, 1, 1], [1, -1, 1, -1]]}),
}


def test_point_with_collapsed_weight_is_dropped():
    # the f = 4 diagonal family ends with a third weight of 3.0e-12, inside the zero cut; kept, its
    # point read ell_spread 0.042 while the two points that carry the measure agree to 5e-11
    cfg, spec = GRADIENT_FAMILIES["diagonal"]
    fam, x0 = make_family(spec, cfg)
    measure, report = minimize(fam, cfg, x0, MinimizeOptions(seed=1))
    assert report.dropped_support == 1 and len(measure.points) == 2
    assert report.ell_spread < 1e-9 and abs(report.action - 0.05625) < 1e-9
    cfg, spec = GRADIENT_FAMILIES["mirror_pair"]
    fam, x0 = make_family(spec, cfg)
    measure, report = minimize(fam, cfg, x0)
    assert report.dropped_support == 0 and len(measure.points) == 2


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GRADIENT_FAMILIES)), data=st.data())
def test_batched_gradients_equal_per_coordinate_differences(name, data):
    cfg, spec = GRADIENT_FAMILIES[name]
    fam, x0 = make_family(spec, cfg)
    v = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(x0), max_size=len(x0))))

    def objective(vv):  # one vector, through the single-set calls
        points, w = fam.point_fn(vv[: fam.n_params]), softmax(vv[fam.n_params :])
        return cfs.action(points, w, cfg=cfg), cfs.constraints(points, w)[1] - 1.0

    want_f, want_c = objective(v)
    want_action = _central_gradient(lambda vv: objective(vv)[0], v)
    want_trace = _central_gradient(lambda vv: objective(vv)[1], v)
    f, c, got_action, got_trace = _evaluate(fam, cfg, v)
    assert type(f) is float and type(c) is float
    assert np.float64(f).tobytes() == np.float64(want_f).tobytes()
    assert np.float64(c).tobytes() == np.float64(want_c).tobytes()
    assert got_action.tobytes() == want_action.tobytes()
    assert got_trace.tobytes() == want_trace.tobytes()


def _mirror_pair_oracle(theta):
    """mirror_pair's point_fn before families were index tables.

    It squares with np.square: a scalar ``** 2`` goes through libm pow, which can miss the
    correctly rounded square by one ulp (theta = 4194188258755415.0 does).
    """
    p, q = np.square(theta[0]), np.square(theta[1])
    return [
        np.diag([p, -q]).astype(complex),
        np.diag([-q, p]).astype(complex),
    ]


def _diagonal_oracle(signs):
    """The diagonal family's point_fn before families were index tables."""
    signs = np.asarray(signs, dtype=float)
    n_points, f = signs.shape

    def point_fn(theta):
        t = theta.reshape(n_points, f)
        return [np.diag(signs[i] * t[i] ** 2).astype(complex) for i in range(n_points)]

    return point_fn


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_point_fn_equals_the_closures_it_replaced(data):
    if data.draw(st.booleans(), label="mirror_pair"):
        spec, oracle, f = {"type": "mirror_pair"}, _mirror_pair_oracle, 2
    else:
        f = data.draw(st.integers(1, 4), label="f")
        row = st.lists(st.sampled_from([-1, 0, 1]), min_size=f, max_size=f)
        signs = data.draw(st.lists(row, min_size=1, max_size=3), label="signs")
        spec, oracle = {"type": "diagonal", "signs": signs}, _diagonal_oracle(signs)
    fam, _ = make_family(spec, cfs.SystemConfig(f=f, n=f, kappa=0.2))
    vector = st.lists(st.floats(allow_nan=False), min_size=fam.n_params, max_size=fam.n_params)
    thetas = np.array(data.draw(st.lists(vector, min_size=1, max_size=4), label="thetas"))
    with np.errstate(over="ignore", invalid="ignore"):  # theta^2 may overflow, and 0 * inf is nan
        stack = fam.point_fn(thetas).points
        assert stack.shape == (len(thetas), fam.n_points, f, f)
        for theta, points in zip(thetas, stack):
            want = np.array(oracle(theta))
            assert fam.point_fn(theta).points.tobytes() == want.tobytes()
            assert points.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GRADIENT_FAMILIES)), data=st.data())
def test_unpack_of_a_stack_equals_unpack_of_each_row(name, data):
    cfg, spec = GRADIENT_FAMILIES[name]
    fam, x0 = make_family(spec, cfg)
    vector = st.lists(st.floats(-1e3, 1e3), min_size=len(x0), max_size=len(x0))  # logits far enough apart to underflow
    vs = np.array(data.draw(st.lists(vector, min_size=1, max_size=8)))
    points, weights = _unpack(fam, vs)
    for v, p, w in zip(vs, points.points, weights):
        p1, w1 = _unpack(fam, v)
        assert p.tobytes() == p1.points.tobytes() and w.tobytes() == w1.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_family_eigh_gives_the_engine_the_bits_of_its_raw_points(data):
    """The family's own `cfs.Eigh` (entries, standard basis) stands in for the `eigh` of its points bitwise, on a
    single vector and on a (2p, p) stack as the SQP's gradient passes it."""
    name = data.draw(st.sampled_from([*sorted(GRADIENT_FAMILIES), "random signs"]), label="family")
    if name in GRADIENT_FAMILIES:
        cfg, spec = GRADIENT_FAMILIES[name]
    else:
        f = data.draw(st.integers(1, 4), label="f")
        row = st.lists(st.sampled_from([-1, 0, 1]), min_size=f, max_size=f)
        signs = np.array(data.draw(st.lists(row, min_size=1, max_size=3), label="signs"))
        n = max(1, int(np.sum(signs > 0, axis=1).max()), int(np.sum(signs < 0, axis=1).max()))
        cfg, spec = cfs.SystemConfig(f=f, n=n, kappa=0.2), {"type": "diagonal", "signs": signs.tolist()}
    cfg = replace(cfg, kappa=data.draw(st.sampled_from([0.05, 0.2, 0.5]), label="kappa"))
    fam, x0 = make_family(spec, cfg)
    p = len(x0)
    vector = st.lists(st.floats(-1e3, 1e3), min_size=p, max_size=p)
    rows = data.draw(st.lists(vector, min_size=2 * p, max_size=2 * p), label="stack")
    v = np.array(rows) if data.draw(st.booleans(), label="stacked") else np.array(rows[0])
    points, w = _unpack(fam, v)
    assert isinstance(points, cfs.Eigh)
    for call in (lambda x: cfs.action(x, w, cfg=cfg), lambda x: cfs.constraints(x, w),
                 lambda x: cfs.pair_spectra(x, x, cfg)):
        raw = cfs.Eigh(points.points, *np.linalg.eigh(points.points))  # the points' own eigendecomposition
        assert np.asarray(call(points)).tobytes() == np.asarray(call(raw)).tobytes()


def test_each_evaluation_is_one_stacked_action_call(monkeypatch):
    cfg, spec = GRADIENT_FAMILIES["diagonal"]
    fam, x0 = make_family(spec, cfg)
    calls = []
    action = cfs.action
    monkeypatch.setattr(cfs, "action", lambda *a, **kw: calls.append(np.shape(a[1])) or action(*a, **kw))
    _, report = minimize(fam, cfg, x0, MinimizeOptions(seed=1))
    # the point and its 2p stepped vectors in one call per evaluation, no single-set call
    assert calls == [(2 * len(x0) + 1, fam.n_points)] * report.nfev and report.nfev == 66


def test_sqp_reaches_the_closed_form_of_a_quadratic():
    res = _sqp(lambda x: (float(x @ x), float(x.sum()) - 1.0, 2.0 * x, np.ones(2)), np.array([2.0, -3.0]))
    assert res.success and np.allclose(res.x, [0.5, 0.5], atol=1e-12)


def test_sqp_ends_unconverged_on_a_constraint_with_zero_gradient():
    res = _sqp(lambda x: (float(x @ x), -1.0, 2.0 * x, np.zeros(2)), np.array([1.0, 2.0]))
    assert not res.success and np.all(np.isfinite(res.x))


DIFFERENTIAL_FAMILIES = {
    "mirror_pair": ({"f": 2, "n": 1}, {"type": "mirror_pair"}),
    "diagonal_2x2": ({"f": 2, "n": 1}, {"type": "diagonal", "signs": [[1, -1], [-1, 1]]}),
    "diagonal_3x4": ({"f": 4, "n": 2}, GRADIENT_FAMILIES["diagonal"][1]),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kappa", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FAMILIES))
def test_sqp_reaches_the_action_of_slsqp(name, kappa, seed):
    """A fixed table of starts: a drawn start may send the two solvers to different local optima."""
    import scipy.optimize

    dims, spec = DIFFERENTIAL_FAMILIES[name]
    cfg = cfs.SystemConfig(kappa=kappa, **dims)
    fam, x0 = make_family(spec, cfg)
    v0 = x0 + 0.2 * np.random.default_rng(seed).standard_normal(len(x0))

    def fun(v):
        return _evaluate(fam, cfg, v)

    oracle = scipy.optimize.minimize(
        lambda v: fun(v)[0], v0, method="SLSQP", jac=lambda v: fun(v)[2],
        constraints=[{"type": "eq", "fun": lambda v: fun(v)[1], "jac": lambda v: fun(v)[3]}],
        options={"maxiter": MAXITER, "ftol": ACC},
    )
    action, gap = fun(_sqp(fun, v0).x)[:2]
    assert abs(action - fun(oracle.x)[0]) < 1e-9
    assert abs(gap) < 1e-8


def _two_callable_sqp(fun, grad, x):
    """`_sqp` as it was when `grad` was a second callable, verbatim: the oracle of the one-callable solve."""
    n = len(x)
    (f, c), (g, a) = fun(x), grad(x)
    nfev, B, mu, resets = 1, np.eye(n), 0.0, 1

    def result(success, failure=""):
        message = "Optimization terminated successfully" if success else failure
        return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, success=success, message=message)

    for nit in range(1, MAXITER + 1):
        kkt = np.block([[B, a[:, None]], [a[None, :], np.zeros((1, 1))]])
        if not (np.all(np.isfinite(kkt)) and np.isfinite(f + c)):
            return result(False, "Non-finite iterate")
        sol = np.linalg.lstsq(kkt, -np.append(g, c), rcond=None)[0]
        s, lam = sol[:n], -sol[n]  # B s + g = lam a
        gs = float(g @ s)
        mu = max(abs(lam), (mu + abs(lam)) / 2.0)
        if abs(gs) + abs(lam * c) < ACC and abs(c) < ACC:
            return result(True)
        slope = gs - mu * abs(c)  # directional derivative of the merit along s
        if slope >= 0.0:
            resets += 1
            if resets > 5:  # SLSQP's relaxed test, whose step clause holds here
                return result(abs(c) < 10.0 * ACC, "Positive directional derivative for linesearch")
            B = np.eye(n)
            continue
        x0, f0, t0, alpha = x, f, f + mu * abs(c), 1.0
        for _ in range(11):
            slope, s = alpha * slope, alpha * s
            x = x0 + s
            f, c = fun(x)
            nfev += 1
            drop = f + mu * abs(c) - t0
            if drop <= slope / 10.0:
                break
            alpha = max(slope / (2.0 * (slope - drop)), 0.1)
        if (abs(f - f0) < ACC or np.linalg.norm(s) < ACC) and abs(c) < ACC:
            return result(True)
        lag_grad0 = g - lam * a
        g, a = grad(x)
        u, bs = g - lam * a - lag_grad0, B @ s
        su, sbs = float(s @ u), float(s @ bs)
        if su < 0.2 * sbs:  # Powell's damping keeps B positive definite
            theta = 0.8 * sbs / (sbs - su)
            u, su = theta * u + (1.0 - theta) * bs, 0.2 * sbs
        B = B + np.outer(u, u) / su - np.outer(bs, bs) / sbs
    return result(False, "Iteration limit reached")


def _two_callable_central(fun, v: np.ndarray):
    """The stacked central differences `_sqp`'s `grad` callable took, verbatim."""
    p = len(v)
    h = FD_STEP * np.maximum(1.0, np.abs(v))
    vs = np.tile(v, (2, p, 1))
    diag = np.arange(p)
    vs[0, diag, diag] += h
    vs[1, diag, diag] -= h
    return tuple((out[:p] - out[p:]) / (2.0 * h) for out in fun(vs.reshape(-1, p)))


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("kappa", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FAMILIES))
def test_one_evaluation_per_trial_point_solves_as_the_two_callable_sqp(name, kappa, seed):
    """Iterates, counts and outcome of the solve equal those of the value-then-gradient solve, bitwise; the
    starts include rejected line-search trials (diagonal_2x2 at kappa 0.2, seed 7: 72 evaluations in 28 steps)."""
    dims, spec = DIFFERENTIAL_FAMILIES[name]
    cfg = cfs.SystemConfig(kappa=kappa, **dims)
    fam, x0 = make_family(spec, cfg)
    v0 = x0 + 0.2 * np.random.default_rng(seed).standard_normal(len(x0))

    def action_and_gap(v):  # one vector or a stack of them
        points, w = _unpack(fam, v)
        return cfs.action(points, w, cfg=cfg), cfs.constraints(points, w)[1] - 1.0

    want = _two_callable_sqp(action_and_gap, lambda v: _two_callable_central(action_and_gap, v), v0)
    got = _sqp(lambda v: _evaluate(fam, cfg, v), v0)
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.fun, got.nit, got.nfev, got.success, got.message) == (
        want.fun, want.nit, want.nfev, want.success, want.message)
