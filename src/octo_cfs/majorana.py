"""Majorana-representation reality checks and the two-point distribution p_m.

The Dirac operator with scalar mass m and pseudo-scalar mass n is
i d-slash + i gamma5 n - m; in the Majorana representation all its matrix
entries are real, so it admits real-valued solutions. Two conventions for
the pseudo-scalar term of the p_m momentum factor are carried ('paper':
gamma5 n, 'derived': i gamma5 n); only the latter cancels against the
operator on shell, so both residuals are measured and reported.
"""

from __future__ import annotations

import numpy as np

from .gammas import GammaSet, clifford_residual, dirac_rep, majorana_rep
from .lattice import LatticeSpec, SectorKernel, dirac_residual_single, mode_sum

VARIANTS = ("paper", "derived")
N_RANDOM = 1000  # random momenta in the derived-variant factorization check


def reality_check(m: float, n: float, gammas: GammaSet) -> dict:
    """Entrywise imaginary parts of i gamma^mu and i gamma5.

    All vanish in the Majorana representation, so the operator of the
    generalized Dirac equation (with real m, n) maps real 4-vectors to
    real 4-vectors.
    """
    per_matrix = {}
    for mu in range(4):
        per_matrix[f"i_gamma{mu}"] = float(np.abs((1j * gammas.gamma[mu]).imag).max())
    per_matrix["i_gamma5"] = float(np.abs((1j * gammas.gamma5).imag).max())
    worst = max(per_matrix.values())
    op_real = worst == 0.0 and float(m) == float(m) and float(n) == float(n)
    return {
        "representation": gammas.name,
        "max_imag": per_matrix,
        "max_imag_overall": worst,
        "operator_real": bool(op_real and worst == 0.0),
    }


def _factor(k, m, n, variant: str, gs: GammaSet) -> np.ndarray:
    kslash = gs.slash(k)
    if variant == "paper":
        return kslash + n * gs.gamma5 + m * np.eye(4)
    if variant == "derived":
        return kslash + 1j * n * gs.gamma5 + m * np.eye(4)
    raise ValueError(f"variant must be one of {VARIANTS}")


def momentum_residual(k, m, n, variant: str, gammas: GammaSet) -> np.ndarray:
    """Op(k) F(k) with Op(k) = kslash + i gamma5 n - m.

    k has shape (..., 4); m and n are scalars or hold one value per k.
    For the derived variant the product is (k^2 - n^2 - m^2) * identity
    exactly; for the paper variant it generally is not, even on shell.
    """
    m, n = np.asarray(m)[..., None, None], np.asarray(n)[..., None, None]
    op = gammas.slash(k) + 1j * n * gammas.gamma5 - m * np.eye(4)
    return op @ _factor(k, m, n, variant, gammas)


def factorization_residual(k, m, n, variant: str, gammas: GammaSet):
    """Max-norm distance of Op(k) F(k) from (k^2 - n^2 - m^2) * identity, one value per k."""
    k = np.asarray(k, dtype=float)
    k2 = k[..., 0] ** 2 - np.sum(k[..., 1:] ** 2, axis=-1)
    target = (k2 - n * n - m * m)[..., None, None] * np.eye(4)
    return np.abs(momentum_residual(k, m, n, variant, gammas) - target).max(axis=(-2, -1))


def p_m_kernel(spec: LatticeSpec, m: float, n: float, variant: str):
    """Two-point distribution over the full shell k^2 = n^2 + m^2 (both k0 signs).

    Returns (SectorKernel, report). The report carries the lattice residual
    of the generalized Dirac operator applied to the kernel, the per-mode
    momentum-space residual, and the measured maximum imaginary fraction of
    the position-space kernel (reported, no threshold asserted).
    """
    if m * m + n * n <= 0.0:
        raise ValueError("p_m needs m^2 + n^2 > 0")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    gs = majorana_rep()
    kvecs = spec.momenta()
    omegas = np.sqrt(np.sum(kvecs * kvecs, axis=1) + m * m + n * n)
    weights = np.exp(-spec.epsilon * omegas) / (2.0 * omegas)
    dts = np.arange(-(spec.T - 1), spec.T) * spec.a

    rel = 0.0
    mode_resid = 0.0
    for sign in (+1.0, -1.0):
        k4s = np.column_stack([sign * omegas, kvecs])
        resid = np.abs(momentum_residual(k4s, m, n, variant, gs)).max(axis=(1, 2))
        mode_resid = max(mode_resid, float((resid * weights).max()))
        fs = weights[:, None, None] * _factor(k4s, m, n, variant, gs)
        rel = rel + mode_sum(np.exp(-1j * np.outer(dts, k4s[:, 0])), fs, spec)  # e^{-i k0 dt}
    kernel = SectorKernel(spec, rel, gammas=gs)

    position_resid = dirac_residual_single(kernel, m, pseudo=n)
    scale = float(np.abs(rel).max())
    max_imag = float(np.abs(rel.imag).max()) / scale if scale > 0 else 0.0
    report = {
        "variant": variant,
        "mode_residual_max": mode_resid,
        "position_residual_max": position_resid,
        "max_imag_fraction": max_imag,
        "kernel_scale": scale,
    }
    return kernel, report


def check_report(seed: int = 0, variant: str = "both") -> dict:
    """Full module report: Clifford relations, reality, factorization, and p_m residuals."""
    rng = np.random.default_rng(seed)
    gs = majorana_rep()
    out = {
        "clifford_residual_majorana": clifford_residual(gs),
        "clifford_residual_dirac": clifford_residual(dirac_rep()),
        "reality_majorana": reality_check(1.0, 0.5, gs),
        "reality_dirac_control": reality_check(1.0, 0.5, dirac_rep()),
    }
    # k, m and n interleave in the stream, so each sample is drawn whole and the samples are stacked after
    draws = [(rng.standard_normal(4), rng.random() + 0.1, rng.random()) for _ in range(N_RANDOM)]
    k, m, n = map(np.array, zip(*draws))
    out["derived_factorization_max_residual"] = float(factorization_residual(k, m, n, "derived", gs).max())
    draws = [(rng.random() + 0.1, rng.random() + 0.1, rng.standard_normal(3)) for _ in range(16)]
    m, n, kvec = map(np.array, zip(*draws))
    k = np.column_stack([np.sqrt(np.sum(kvec**2, axis=-1) + m * m + n * n), kvec])
    paper_onshell = np.abs(momentum_residual(k, m, n, "paper", gs)).max(axis=(1, 2))
    out["paper_variant_onshell_residuals"] = {
        "max": float(paper_onshell.max()),
        "min": float(paper_onshell.min()),
    }
    spec = LatticeSpec(L=8, T=6, a=0.5, epsilon=1.0)
    variants = VARIANTS if variant == "both" else (variant,)
    out["p_m"] = {}
    for v in variants:
        _, rep = p_m_kernel(spec, m=0.8, n=0.4, variant=v)
        out["p_m"][v] = rep
    return out
