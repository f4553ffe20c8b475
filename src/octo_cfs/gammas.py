"""Gamma-matrix representations with metric signature (+, -, -, -)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def _blocks(a, b, c, d):
    return np.block([[a, b], [c, d]])


@dataclass(frozen=True)
class GammaSet:
    """Four gamma matrices and the pseudo-scalar; the metric is METRIC."""

    gamma: tuple
    gamma5: np.ndarray
    name: str

    def slash(self, k) -> np.ndarray:
        """k-slash = gamma^mu k_mu for contravariant vectors k = (k0, k1, ...): (..., d+1) -> (..., 4, 4)."""
        k = np.asarray(k, dtype=float)
        n = k.shape[-1]
        # one contraction against the flattened gamma stack; cheaper than
        # tensordot for the single vectors the momentum-space checks pass
        flat = (k * np.diag(METRIC)[:n]) @ np.reshape(self.gamma[:n], (n, 16))
        return flat.reshape(k.shape[:-1] + (4, 4))

    def chiral_right(self) -> np.ndarray:
        return 0.5 * (np.eye(4, dtype=complex) + self.gamma5)

    def chiral_left(self) -> np.ndarray:
        return 0.5 * (np.eye(4, dtype=complex) - self.gamma5)


def majorana_rep() -> GammaSet:
    """The Majorana representation: i*gamma^mu and i*gamma^5 are entrywise real."""
    g0 = _blocks(Z2, -SIGMA2, -SIGMA2, Z2)
    g1 = _blocks(Z2, 1j * SIGMA3, 1j * SIGMA3, Z2)
    g2 = _blocks(1j * I2, Z2, Z2, -1j * I2)
    g3 = _blocks(Z2, -1j * SIGMA1, -1j * SIGMA1, Z2)
    g5 = _blocks(Z2, 1j * I2, -1j * I2, Z2)
    return GammaSet(gamma=(g0, g1, g2, g3), gamma5=g5, name="majorana")


def dirac_rep() -> GammaSet:
    """The standard Dirac representation (used as a non-real negative control)."""
    g0 = _blocks(I2, Z2, Z2, -I2)
    gs = [_blocks(Z2, s, -s, Z2) for s in (SIGMA1, SIGMA2, SIGMA3)]
    g5 = _blocks(Z2, I2, I2, Z2)
    return GammaSet(gamma=(g0, *gs), gamma5=g5, name="dirac")


def clifford_residual(gs: GammaSet) -> float:
    """Max-norm residual of {gamma^mu, gamma^nu} = 2 eta^{mu nu} I."""
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = gs.gamma[mu] @ gs.gamma[nu] + gs.gamma[nu] @ gs.gamma[mu]
            worst = max(
                worst, float(np.abs(anti - 2.0 * METRIC[mu, nu] * np.eye(4)).max())
            )
    g5sq = gs.gamma5 @ gs.gamma5
    worst = max(worst, float(np.abs(g5sq - np.eye(4)).max()))
    for mu in range(4):
        anti = gs.gamma5 @ gs.gamma[mu] + gs.gamma[mu] @ gs.gamma5
        worst = max(worst, float(np.abs(anti).max()))
    return worst
