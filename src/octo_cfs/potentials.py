"""Left-right symmetric scalar potentials: tree-level and one-loop vacuum analysis.

The multiplet structure enters only through the gauge-invariant radii
sL = |Phi_L|^2 and sR = |Phi_R|^2, so stationary points are enumerated and
classified over the quadrant sL, sR >= 0 ("radial stationary" means
stationary in field space, projected to the radii; boundary points use the
one-sided Karush-Kuhn-Tucker test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import require_finite


@dataclass(frozen=True)
class TreeParams:
    """V = -mu2 (sL + sR) + lambda1 (sL^2 + sR^2) + lambda2 sL sR."""

    mu2: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        require_finite(self, "mu2", "lambda1", "lambda2")
        if self.lambda1 <= 0:
            raise ValueError("lambda1 must be positive (boundedness below)")


@dataclass(frozen=True)
class LoopParams:
    """One-loop Coleman-Weinberg-type potential parameters (Landau gauge)."""

    lambda1: float
    lambda2: float
    g: float
    M: float

    def __post_init__(self):
        require_finite(self, "lambda1", "lambda2", "g", "M")
        if self.g <= 0 or self.M <= 0:
            raise ValueError("g and M must be positive")

    @property
    def loop_coeff(self) -> float:
        return 3.0 * self.g**4 / (64.0 * np.pi**2)


@dataclass
class StationaryPoint:
    sL: float
    sR: float
    value: float
    kind: str  # 'origin' | 'axis' | 'symmetric'
    classification: str  # 'minimum' | 'saddle' | 'maximum' | 'marginal'
    is_global: bool = False


def tree_potential(sL, sR, p: TreeParams):
    """Tree-level potential on the radial quadrant (vectorized)."""
    sL = np.asarray(sL, dtype=float)
    sR = np.asarray(sR, dtype=float)
    if np.any(sL < 0) or np.any(sR < 0):
        raise ValueError("radial variables must be non-negative")
    out = -p.mu2 * (sL + sR) + p.lambda1 * (sL**2 + sR**2) + p.lambda2 * (sL * sR)
    return float(out) if out.ndim == 0 else out


def tree_gradient(sL: float, sR: float, p: TreeParams):
    """Analytic radial gradient (dV/dsL, dV/dsR)."""
    return (
        -p.mu2 + 2.0 * p.lambda1 * sL + p.lambda2 * sR,
        -p.mu2 + 2.0 * p.lambda1 * sR + p.lambda2 * sL,
    )


def _classify_quadrant_point(sL, sR, grad, hess, marginal) -> str:
    """Classification over the quadrant: active coordinates use the KKT sign."""
    if marginal:
        return "marginal"
    active = [i for i, s in enumerate((sL, sR)) if s == 0.0]
    free = [i for i in (0, 1) if i not in active]
    g_active = np.array([grad[i] for i in active])
    if len(free) == 0:
        # origin: sign of the field-space mass term decides
        if np.all(g_active > 0):
            return "minimum"
        if np.all(g_active < 0):
            return "maximum"
        return "saddle"
    free_eigs = np.linalg.eigvalsh(hess[np.ix_(free, free)])
    if np.all(free_eigs > 0) and np.all(g_active > 0):
        return "minimum"
    if np.all(free_eigs < 0) and len(active) == 0:
        return "maximum"
    return "saddle"


def tree_stationary_points(p: TreeParams) -> list:
    """Enumerate and classify {origin, (u^2, 0), (0, u^2), (v, v)}.

    Asymmetric points exist for mu2 > 0 with u_R^2 = mu2 / (2 lambda1);
    the degenerate Hessian case lambda2 = 2 lambda1 is flagged marginal.
    """
    hess = np.array([[2.0 * p.lambda1, p.lambda2], [p.lambda2, 2.0 * p.lambda1]])
    marginal = abs(p.lambda2 - 2.0 * p.lambda1) < 1e-12 * max(1.0, abs(p.lambda1))
    bounded = 2.0 * p.lambda1 + p.lambda2 > 0
    pts: list = []

    def add(sL, sR, kind):
        grad = tree_gradient(sL, sR, p)
        pts.append(
            StationaryPoint(
                sL=sL,
                sR=sR,
                value=tree_potential(sL, sR, p),
                kind=kind,
                classification=_classify_quadrant_point(sL, sR, grad, hess, marginal and kind != "origin"),
            )
        )

    add(0.0, 0.0, "origin")
    if p.mu2 > 0:
        u2 = p.mu2 / (2.0 * p.lambda1)
        add(u2, 0.0, "axis")
        add(0.0, u2, "axis")
        if bounded:
            v = p.mu2 / (2.0 * p.lambda1 + p.lambda2)
            if v > 0:
                add(v, v, "symmetric")
    if bounded:
        best = min(pt.value for pt in pts)
        for pt in pts:
            pt.is_global = abs(pt.value - best) < 1e-12 * max(1.0, abs(best))
    return pts


def one_loop_potential(sL, sR, p: LoopParams):
    """One-loop potential (vectorized over broadcastable radii); the s^2 ln(s) terms extend by their 0 limit."""
    sL = np.asarray(sL, dtype=float)
    sR = np.asarray(sR, dtype=float)
    if np.any(sL < 0) or np.any(sR < 0):
        raise ValueError("radial variables must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) and 0 * -inf, in the branch np.where drops
        cw = [np.where(s > 0, s**2 * (np.log(s / p.M**2) - 25.0 / 6.0), 0.0) for s in (sL, sR)]
    out = p.lambda1 * (sL**2 + sR**2) + p.lambda2 * (sL * sR) + p.loop_coeff * (cw[0] + cw[1])
    return float(out) if out.ndim == 0 else out


def _loop_radius(p: LoopParams, lam: float, formula: str) -> float:
    """M^2 exp(25/6 - 1/2 - lam / loop_coeff); raises FloatingPointError outside the positive floats."""
    s = np.square(p.M) * np.exp(25.0 / 6.0 - 0.5 - np.divide(lam, p.loop_coeff))
    if not 0.0 < s < np.inf:
        raise FloatingPointError(f"{formula} = {s} is not a positive finite float")
    return s


def one_loop_vr_squared(p: LoopParams) -> float:
    """Closed-form stationary radius on the sR axis.

    v_R^2 = M^2 exp(25/6 - 1/2 - 64 pi^2 lambda1 / (3 g^4)), equivalent to
    ln(v_R^2/M^2) - 25/6 = -1/2 - (64 pi^2 / 3 g^4) lambda1. Raises
    FloatingPointError when v_R^2 over- or underflows the positive floats.
    """
    return _loop_radius(p, p.lambda1, "v_R^2 = M^2 exp(11/3 - lambda1 / loop_coeff)")


def one_loop_symmetric_stationary(p: LoopParams) -> float:
    """Stationary radius on the diagonal sL = sR: the closed form of v_R^2 with lambda1 + lambda2 / 2."""
    return _loop_radius(p, p.lambda1 + 0.5 * p.lambda2, "s_sym = M^2 exp(11/3 - (lambda1 + lambda2 / 2) / loop_coeff)")


def one_loop_vacuum(p: LoopParams) -> dict:
    """Asymmetric vacuum report: closed form, stationarity, and minimum ordering.

    The regime inequality lambda2 > 3 g^2 / 64 pi^2 is evaluated literally
    and recorded alongside the measured ordering of the stationary values.
    Raises FloatingPointError when a stationary radius or a reported value
    leaves the finite floats.
    """
    vr2 = one_loop_vr_squared(p)
    s_sym = one_loop_symmetric_stationary(p)
    h = 1e-6 * vr2
    v_asym = one_loop_potential(0.0, vr2, p)
    up, down = one_loop_potential(0.0, vr2 + h, p), one_loop_potential(0.0, vr2 - h, p)
    grad_fd = (up - down) / (2.0 * h)
    hess_fd = (up - 2.0 * v_asym + down) / h**2
    v_sym = one_loop_potential(s_sym, s_sym, p)
    regime = p.lambda2 > 3.0 * p.g**2 / (64.0 * np.pi**2)
    report = {
        "vR_squared": float(vr2),
        "value_asymmetric": float(v_asym),
        "gradient_residual": float(abs(grad_fd)),
        "gradient_scale": float(max(1.0, abs(hess_fd) * vr2)),
        "radial_hessian": float(hess_fd),
        "is_local_minimum": bool(hess_fd > 0),
        "symmetric_stationary_s": float(s_sym),
        "value_symmetric": float(v_sym),
        "asymmetric_is_global": bool(v_asym < v_sym),
        "regime_lambda2_gt_3g2_over_64pi2": bool(regime),
    }
    bad = [k for k, v in report.items() if not np.isfinite(v)]
    if bad:
        raise FloatingPointError(f"{', '.join(bad)} not finite at v_R^2 = {vr2}, s_sym = {s_sym}")
    return report


def grid_search_tree(p: TreeParams, bound: float, n: int = 400):
    """Dense-grid global minimum of the tree potential over [0, bound]^2."""
    s = np.linspace(0.0, bound, n)
    grid = tree_potential(s[:, None], s[None, :], p)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    return float(s[i]), float(s[j]), float(grid[i, j])
