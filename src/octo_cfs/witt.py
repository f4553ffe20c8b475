"""Witt basis of the left multiplication algebra, minimal ideals, and SU(3)xU(1) generators.

The raising operators are alpha_i^dag = (L_{e_i} + i L_{e_{i+4}})/2 for
i = 1, 2, 3; together with their adjoints they satisfy fermionic
anticommutation relations inside the complexified multiplication algebra.
The two minimal left ideals seeded by the primitive idempotents
omega omega^dag and omega^dag omega carry one generation of electrocolor
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mult_algebra import left_unit


class ConsistencyError(RuntimeError):
    """A structural check (eigenvector property, block-diagonality) failed."""


@dataclass
class WittBasis:
    alpha: list  # lowering operators alpha_1..alpha_3
    alpha_dagger: list  # raising operators


@dataclass
class IdealState:
    label: str
    matrix: np.ndarray
    ideal: str  # 'u' or 'd'
    grade: int  # number of raising (u) / lowering (d) operators applied


@dataclass
class SU3Generators:
    Lambda: list  # the eight generators Lambda_1..Lambda_8
    Q: np.ndarray  # the U(1) charge operator


def witt_basis() -> WittBasis:
    """alpha_i = (-L_{e_i} + i L_{e_{i+4}})/2 and alpha_i^dag = (L_{e_i} + i L_{e_{i+4}})/2."""
    alpha = []
    alpha_dag = []
    for i in (1, 2, 3):
        li = left_unit(i).astype(complex)
        li4 = left_unit(i + 4).astype(complex)
        alpha.append(0.5 * (-li + 1j * li4))
        alpha_dag.append(0.5 * (li + 1j * li4))
    return WittBasis(alpha=alpha, alpha_dagger=alpha_dag)


def nilpotents(wb: WittBasis):
    """omega = a1 a2 a3 and omega^dag = a3^dag a2^dag a1^dag."""
    a1, a2, a3 = wb.alpha
    d1, d2, d3 = wb.alpha_dagger
    omega = a1 @ a2 @ a3
    omega_dag = d3 @ d2 @ d1
    return omega, omega_dag


def idempotents(wb: WittBasis):
    """The primitive idempotents (omega omega^dag, omega^dag omega)."""
    omega, omega_dag = nilpotents(wb)
    return omega @ omega_dag, omega_dag @ omega


#: (S^u label, S^d label, word): a state is its word's raising (S^u) or
#: lowering (S^d) operators, by index, applied to the ideal's idempotent.
_LABELS = (
    ("nu", "nubar", ()),
    ("dbar_r", "d_r", (0,)),
    ("dbar_g", "d_g", (1,)),
    ("dbar_b", "d_b", (2,)),
    ("u_r", "ubar_r", (2, 1)),
    ("u_g", "ubar_g", (0, 2)),
    ("u_b", "ubar_b", (1, 0)),
    ("e+", "e-", (2, 1, 0)),
)


def ideal_basis(which: str) -> list:
    """The eight labeled basis states of the minimal ideal S^u or S^d."""
    if which not in ("u", "d"):
        raise ValueError("ideal must be 'u' or 'd'")
    wb = witt_basis()
    P_u, P_d = idempotents(wb)
    ops, seed, side = (wb.alpha_dagger, P_u, 0) if which == "u" else (wb.alpha, P_d, 1)
    states = []
    for *labels, word in _LABELS:
        m = seed
        for idx in reversed(word):
            m = ops[idx] @ m
        states.append(IdealState(label=labels[side], matrix=m, ideal=which, grade=len(word)))
    return states


def su3_generators() -> SU3Generators:
    """The eight symmetry generators Lambda_1..Lambda_8 and Q = (N1 + N2 + N3)/3."""
    wb = witt_basis()
    a1, a2, a3 = wb.alpha
    d1, d2, d3 = wb.alpha_dagger
    lam = [
        -(d2 @ a1) - (d1 @ a2),
        1j * (d2 @ a1) - 1j * (d1 @ a2),
        d2 @ a2 - d1 @ a1,
        -(d1 @ a3) - (d3 @ a1),
        -1j * (d1 @ a3) + 1j * (d3 @ a1),
        -(d3 @ a2) - (d2 @ a3),
        1j * (d3 @ a2) - 1j * (d2 @ a3),
        -(d1 @ a1 + d2 @ a2 - 2.0 * (d3 @ a3)) / np.sqrt(3.0),
    ]
    q = (d1 @ a1 + d2 @ a2 + d3 @ a3) / 3.0
    return SU3Generators(Lambda=lam, Q=q)


def _coordinates(basis, images):
    """pinv coordinates (..., k) of images (..., n, n) in the span of k basis matrices.

    Also returns the norm (...) of each image's part outside the span.
    """
    basis, images = np.asarray(basis), np.asarray(images)
    b = basis.reshape(len(basis), -1).T
    w = images.reshape(-1, b.shape[0]).T
    coef = np.linalg.pinv(b) @ w
    resid = np.linalg.norm(b @ coef - w, axis=0)
    lead = images.shape[: images.ndim - basis.ndim + 1]
    return coef.T.reshape(*lead, len(basis)), resid.reshape(lead)


def _eigenvalue_on_state(op: np.ndarray, state: np.ndarray) -> complex:
    coef, resid = _coordinates([state], op @ state)
    lam = coef[0]
    if resid > 1e-10 * np.linalg.norm(state) * max(1.0, abs(lam)):
        raise ConsistencyError("state is not an eigenvector of the operator")
    return lam


def charges(states) -> dict:
    """Electric charge of each state: Q-eigenvalue on S^u, (-Q*)-eigenvalue on S^d."""
    gens = su3_generators()
    out = {}
    for s in states:
        op = gens.Q if s.ideal == "u" else -np.conj(gens.Q)
        lam = _eigenvalue_on_state(op, s.matrix)
        if abs(lam.imag) > 1e-10:
            raise ConsistencyError("charge eigenvalue is not real")
        out[s.label] = Fraction(round(3.0 * lam.real), 3)
    return out


def structure_constants(gens: SU3Generators) -> np.ndarray:
    """f[a,b,c] with [Lambda_a, Lambda_b] = 2i sum_c f[a,b,c] Lambda_c."""
    lam = np.array(gens.Lambda)
    comm = lam[:, None] @ lam[None] - lam[None] @ lam[:, None]  # comm[a, b] = [Lambda_a, Lambda_b]
    coef, resid = _coordinates(lam, comm)
    if np.max(resid) > 1e-10:
        raise ConsistencyError("commutator does not lie in the generator span")
    f = coef / 2j
    if np.max(np.abs(f.imag)) > 1e-10:
        raise ConsistencyError("structure constants are not real")
    return f.real


def casimir(gens: SU3Generators) -> np.ndarray:
    """Quadratic Casimir sum_a (Lambda_a / 2)^2."""
    return sum((lam / 2.0) @ (lam / 2.0) for lam in gens.Lambda)


def _restrict(op: np.ndarray, states) -> np.ndarray:
    """Matrix of left multiplication by op on the span of the given states."""
    images = np.array([op @ s.matrix for s in states])
    coef, resid = _coordinates([s.matrix for s in states], images)
    if np.any(resid > 1e-9 * np.maximum(1.0, np.linalg.norm(images, axis=(1, 2)))):
        raise ConsistencyError("operator does not preserve the state span")
    return coef.T


def gell_mann_weight_sets():
    """Reference (lambda3, lambda8) weight multisets of 3 and 3bar.

    Computed from the diagonal Gell-Mann matrices lambda3 = diag(1,-1,0)
    and lambda8 = diag(1,1,-2)/sqrt(3).
    """
    lam3 = np.array([1.0, -1.0, 0.0])
    lam8 = np.array([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return sorted(zip(lam3, lam8)), sorted(zip(-lam3, -lam8))


def _match_weight_set(weights, reference) -> bool:
    ws = sorted(weights)
    return all(
        abs(w[0] - r[0]) < 1e-9 and abs(w[1] - r[1]) < 1e-9 for w, r in zip(ws, reference)
    )


def classify_representation(states) -> dict:
    """Decompose the ideal states into SU(3) irreducibles per grade subspace.

    The quadratic Casimir restricted to each grade subspace identifies
    singlets (0) versus (anti)fundamentals (4/3); the (Lambda3, Lambda8)
    weight multisets distinguish 3 from 3bar.
    """
    gens = su3_generators()
    cas = casimir(gens)
    fund, anti = gell_mann_weight_sets()
    report = {"ideal": states[0].ideal, "grades": []}
    for grade in range(4):
        sub = [s for s in states if s.grade == grade]
        block = _restrict(cas, sub)
        eigs = np.linalg.eigvals(block)
        if np.max(np.abs(eigs.imag)) > 1e-9:
            raise ConsistencyError("Casimir block has non-real spectrum")
        eigs = sorted(eigs.real)
        if len(sub) == 1:
            rep = "1" if abs(eigs[0]) < 1e-9 else "?"
        else:
            w3 = np.diag(_restrict(gens.Lambda[2], sub))
            w8 = np.diag(_restrict(gens.Lambda[7], sub))
            weights = list(zip(w3.real, w8.real))
            rep = next((name for name, ref in (("3", fund), ("3bar", anti)) if _match_weight_set(weights, ref)), "?")
        report["grades"].append(
            {
                "grade": grade,
                "dim": len(sub),
                "casimir": [round(v, 12) for v in eigs],
                "rep": rep,
                "labels": [s.label for s in sub],
            }
        )
    report["decomposition"] = "+".join(g["rep"] for g in report["grades"])
    return report
