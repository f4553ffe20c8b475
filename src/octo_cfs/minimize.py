"""Constrained minimization of the causal action over parametrized discrete measures.

Weights live on the probability simplex through a softmax reparametrization,
so the volume constraint is exact by construction; the trace constraint is
the one equality constraint of an SQP solve (`_sqp`, SLSQP's method for a
single equality, in numpy). Each evaluation (`_evaluate`) returns the action,
the trace gap and their central-difference gradients (the Lagrangian is only
piecewise smooth in the eigenvalue moduli) from one stacked engine call: v and
its 2p stepped vectors, unpacked once for one `cfs.action` and `cfs.constraints`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import cfs

MAXITER = 400  # SQP iteration cap
ACC = 1e-14  # SQP stopping accuracy (SLSQP's acc)
FD_STEP = 1e-6  # relative central-difference step
PROBE_SAMPLES = 200  # random points in the off-support ell probe
PROBE_REL = 0.05  # relative size of the probe's perturbations of a support point


class InfeasibleStart(RuntimeError):
    pass


class LineSearchFailure(RuntimeError):
    pass


class MaxIterations(RuntimeError):
    pass


@dataclass
class MeasureFamily:
    """Diagonal points whose entries are signed squares of shape parameters, plus simplex weights.

    `index` and `signs` are (N, f) tables: entry j of point i is signs[i, j] * theta[index[i, j]] ** 2,
    so entries may share a parameter. The family has N points and max(index) + 1 parameters.
    """

    index: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.index, self.signs = np.asarray(self.index, dtype=int), np.asarray(self.signs, dtype=float)
        self.n_points, self.n_params = len(self.index), int(self.index.max()) + 1

    def point_fn(self, theta: np.ndarray) -> cfs.Eigh:
        """The `cfs.Eigh` of the diagonal points at theta (..., n_params): their entries and the standard basis."""
        entries = self.signs * theta[..., self.index] ** 2
        f = entries.shape[-1]
        points = np.zeros(entries.shape + (f,), dtype=complex)
        points[..., np.arange(f), np.arange(f)] = entries
        return cfs.Eigh(points, entries, np.broadcast_to(np.eye(f), points.shape))


@dataclass
class MinimizeOptions:
    seed: int = 0


@dataclass
class MinimizeReport:
    action: float
    volume: float
    trace: float
    s_posthoc: float
    ell_support: list
    ell_spread: float
    off_support_max_neg_ell: float
    dropped_support: int
    nit: int
    nfev: int
    converged: bool


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _unpack(family: MeasureFamily, v: np.ndarray):
    """(points as their `cfs.Eigh`, weights) of one vector v or of each row of a stack of them."""
    return family.point_fn(v[..., : family.n_params]), softmax(v[..., family.n_params :])


def _evaluate(family: MeasureFamily, cfg: cfs.SystemConfig, v: np.ndarray):
    """(S, T - 1, dS, dT) at v: the action and trace gap, as Python floats, and their central-difference gradients.

    Coordinate i steps by h_i = FD_STEP * max(1, |v_i|) both ways. The stack [v; v + h_i e_i; v - h_i e_i]
    (2p + 1, p) is unpacked once for one `cfs.action` and one `cfs.constraints`, which give each set in it
    bitwise the result it has alone; each gradient is bitwise that of per-coordinate differences.
    """
    p = len(v)
    h = FD_STEP * np.maximum(1.0, np.abs(v))
    vs = np.tile(v, (2 * p + 1, 1))
    diag = np.arange(p)
    vs[1 + diag, diag] += h
    vs[1 + p + diag, diag] -= h
    points, w = _unpack(family, vs)
    action, gap = cfs.action(points, w, cfg=cfg), cfs.constraints(points, w)[1] - 1.0
    return float(action[0]), float(gap[0]), *((out[1 : p + 1] - out[p + 1 :]) / (2.0 * h) for out in (action, gap))


def minimize(
    family: MeasureFamily,
    cfg: cfs.SystemConfig,
    x0: np.ndarray,
    options: MinimizeOptions | None = None,
):
    """Minimize the causal action within the family at unit volume and trace.

    One `_sqp` solve over (shape parameters, softmax logits) keeps the trace
    T = 1 as an exact equality constraint; the softmax makes the volume
    exact. Raises InfeasibleStart for an invalid or non-finite x0,
    LineSearchFailure if the solve diverges and MaxIterations if
    |T - 1| > 1e-6 at its end.

    Returns (DiscreteMeasure, MinimizeReport). Points whose weight lies
    inside `cfs.zero_cut` are dropped, and the report counts them. It carries
    the Euler-Lagrange residuals on the support (with the post-hoc Lagrange
    parameter that makes their weighted mean vanish) and the largest
    violation of ell >= 0 over a random probe set; the latter is reported,
    not asserted, since family-restricted optima need not satisfy the
    global inequality.
    """
    opt = options or MinimizeOptions()
    v = np.asarray(x0, dtype=float)
    if v.shape != (family.n_params + family.n_points,):
        raise InfeasibleStart(
            f"x0 must have length n_params + n_points = {family.n_params + family.n_points}"
        )
    if not np.all(np.isfinite(v)):
        raise InfeasibleStart(f"x0 must be finite, got {v.tolist()}")
    try:
        cfs.validate_points(_unpack(family, v)[0].points, cfg)
    except (cfs.NotHermitian, cfs.SignatureViolation) as exc:
        raise InfeasibleStart(f"initial family point invalid: {exc}") from exc

    res = _sqp(lambda vv: _evaluate(family, cfg, vv), v)
    if not np.all(np.isfinite(np.append(res.x, res.fun))):
        raise LineSearchFailure(f"SQP diverged: {res.message}")
    points, w = _unpack(family, res.x)
    trace = cfs.constraints(points, w)[1]
    if abs(trace - 1.0) > 1e-6:
        raise MaxIterations(f"trace constraint not met ({res.message}): trace={trace}")

    kept = w > cfs.zero_cut(w)  # a weight inside the zero cut has collapsed: its point carries no measure
    merged_pts, merged_w = cfs.merge_duplicates(points.points[kept], w[kept])
    measure = cfs.DiscreteMeasure(points=cfs.validate_points(merged_pts, cfg), weights=merged_w / merged_w.sum())

    volume, trace = cfs.constraints(measure)
    # support row ell(x_i) at s = 0, sum_j w_j L(x_i, x_j); the action is its weighted mean
    row = cfs.ell(measure.eigh, measure, replace(cfg, s=0.0))
    s_posthoc = float(np.dot(measure.weights, row))
    ell_support = (row - s_posthoc).tolist()
    ell_spread = float(row.max() - row.min())
    off_max = _probe_off_support(measure, cfg, s_posthoc, opt.seed)

    report = MinimizeReport(
        action=s_posthoc,
        volume=volume,
        trace=trace,
        s_posthoc=s_posthoc,
        ell_support=ell_support,
        ell_spread=ell_spread,
        off_support_max_neg_ell=off_max,
        dropped_support=int(np.sum(~kept)),
        nit=res.nit,
        nfev=res.nfev,
        converged=res.success,
    )
    return measure, report


def _sqp(fun, x):
    """min f(x) subject to the one equality c(x) = 0 by SLSQP's method, in numpy.

    `fun(x)` returns (f, c) and their gradients (g, a) from one evaluation, at the start and at each
    line-search trial; the BFGS update reads those of the last trial, the point the search returns.
    B is a damped (Powell) BFGS approximation of the Hessian of the Lagrangian f - lam c, starting
    from the identity and reset to it when the step is not a descent direction of the L1 merit
    f + mu |c|. Each step solves the KKT system [[B, a], [a^T, 0]] by least squares, so a vanishing
    a ends unconverged, not in a LinAlgError. The line search, the penalty update
    mu = max(|lam|, (mu + |lam|) / 2) and the stopping tests are SLSQP's with acc = ACC. Returns x,
    fun, nit, nfev, success and message.
    """
    n = len(x)
    f, c, g, a = fun(x)
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
        lag_grad0 = g - lam * a
        for _ in range(11):
            slope, s = alpha * slope, alpha * s
            x = x0 + s
            f, c, g, a = fun(x)
            nfev += 1
            drop = f + mu * abs(c) - t0
            if drop <= slope / 10.0:
                break
            alpha = max(slope / (2.0 * (slope - drop)), 0.1)
        if (abs(f - f0) < ACC or np.linalg.norm(s) < ACC) and abs(c) < ACC:
            return result(True)
        u, bs = g - lam * a - lag_grad0, B @ s
        su, sbs = float(s @ u), float(s @ bs)
        if su < 0.2 * sbs:  # Powell's damping keeps B positive definite
            theta = 0.8 * sbs / (sbs - su)
            u, su = theta * u + (1.0 - theta) * bs, 0.2 * sbs
        B = B + np.outer(u, u) / su - np.outer(bs, bs) / sbs
    return result(False, "Iteration limit reached")


def _perturbed_point(rng, w: np.ndarray, vecs: np.ndarray, cfg) -> np.ndarray:
    """Signature-preserving random perturbation of the support point with spectrum w and eigenvectors vecs."""
    keep = np.abs(w) > cfs.zero_cut(w)
    w2 = w.copy()
    w2[keep] *= 1.0 + PROBE_REL * rng.standard_normal(int(keep.sum()))
    g = rng.standard_normal((cfg.f, cfg.f)) + 1j * rng.standard_normal((cfg.f, cfg.f))
    e, v = np.linalg.eigh(PROBE_REL * 0.5 * (g + g.conj().T) / np.sqrt(cfg.f))
    u = (v * np.exp(1j * e)) @ v.conj().T  # exp(ih) of the Hermitian h
    return (u @ (vecs * w2)) @ vecs.conj().T @ u.conj().T


def _probe_off_support(measure, cfg, s_posthoc, seed: int) -> float:
    """max(-ell) over random perturbations of the support plus random points, validated as one stack."""
    rng = np.random.default_rng(seed)
    probes = []
    for i in range(PROBE_SAMPLES):
        if i % 2 == 0:
            k = int(rng.integers(len(measure.points)))
            z = _perturbed_point(rng, measure.eigh.eigenvalues[k], measure.eigh.eigenvectors[k], cfg)
        else:
            z = cfs._random_matrix(rng, cfg)
            while not z.any():  # ell(0) = -s: the zero point probes nothing
                z = cfs._random_matrix(rng, cfg)
        probes.append(z)
    return float(np.max(-cfs.ell(cfs.validate_points(np.array(probes), cfg), measure, replace(cfg, s=s_posthoc))))


def make_family(spec: dict, cfg: cfs.SystemConfig) -> tuple:
    """Built-in families for the CLI. Returns (MeasureFamily, default_x0).

    type 'diagonal': entry (i, j) of point i is signs[i][j] * theta^2 with its own parameter.
    `signs` is a non-empty 2-D table of the JSON numbers -1, 0 and 1.
    type 'mirror_pair': the diagonal family with signs [[1, -1], [-1, 1]] and its two parameters
    tied, i.e. points diag(p, -q) and diag(-q, p) with p = u^2, q = v^2.
    Both validate against f and the spin dimension.
    """
    kind = cfs.json_object("family", spec).get("type")
    if kind == "mirror_pair":
        signs, index, default = np.array([[1.0, -1.0], [-1.0, 1.0]]), [[0, 1], [1, 0]], [1.2, 0.4, 0.1, -0.1]
    elif kind == "diagonal":
        try:
            signs = cfs.json_array("family signs", spec["signs"])
        except TypeError:  # ragged rows
            signs = np.zeros(0)
        if signs.ndim != 2 or signs.size == 0 or not np.isin(signs, (-1, 0, 1)).all():
            raise ValueError(f"signs must be a non-empty 2-D table of -1, 0 and 1, got {spec['signs']!r}")
        index = np.arange(signs.size).reshape(signs.shape)
        default = np.concatenate([np.full(signs.size, 0.8), np.zeros(len(signs))])
    else:
        raise ValueError(f"unknown family type: {kind!r}")
    if signs.shape[1] != cfg.f:
        raise ValueError(f"{kind} family needs f = {signs.shape[1]}, got f = {cfg.f}")
    if (np.sum(signs > 0, axis=1) > cfg.n).any() or (np.sum(signs < 0, axis=1) > cfg.n).any():
        raise ValueError("sign template violates the signature bound")
    init = cfs.json_array("family init", spec["init"]) if "init" in spec else default
    return MeasureFamily(index, signs), np.array(init, dtype=float)
