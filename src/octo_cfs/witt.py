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


def nilpotents(wb: WittBasis | None = None):
    """omega = a1 a2 a3 and omega^dag = a3^dag a2^dag a1^dag."""
    wb = wb or witt_basis()
    a1, a2, a3 = wb.alpha
    d1, d2, d3 = wb.alpha_dagger
    omega = a1 @ a2 @ a3
    omega_dag = d3 @ d2 @ d1
    return omega, omega_dag


def idempotents(wb: WittBasis | None = None):
    """The primitive idempotents (omega omega^dag, omega^dag omega)."""
    omega, omega_dag = nilpotents(wb)
    return omega @ omega_dag, omega_dag @ omega


_U_LABELS = (
    ("nu", ()),
    ("dbar_r", (0,)),
    ("dbar_g", (1,)),
    ("dbar_b", (2,)),
    ("u_r", (2, 1)),
    ("u_g", (0, 2)),
    ("u_b", (1, 0)),
    ("e+", (2, 1, 0)),
)

_D_LABELS = (
    ("nubar", ()),
    ("d_r", (0,)),
    ("d_g", (1,)),
    ("d_b", (2,)),
    ("ubar_r", (2, 1)),
    ("ubar_g", (0, 2)),
    ("ubar_b", (1, 0)),
    ("e-", (2, 1, 0)),
)


def ideal_basis(which: str) -> list:
    """The eight labeled basis states of the minimal ideal S^u or S^d."""
    if which not in ("u", "d"):
        raise ValueError("ideal must be 'u' or 'd'")
    wb = witt_basis()
    P_u, P_d = idempotents(wb)
    if which == "u":
        ops, seed, labels = wb.alpha_dagger, P_u, _U_LABELS
    else:
        ops, seed, labels = wb.alpha, P_d, _D_LABELS
    states = []
    for label, word in labels:
        m = seed
        for idx in reversed(word):
            m = ops[idx] @ m
        states.append(IdealState(label=label, matrix=m, ideal=which, grade=len(word)))
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


def _eigenvalue_on_state(op: np.ndarray, state: np.ndarray, tol=1e-10) -> complex:
    v = state.ravel()
    w = (op @ state).ravel()
    denom = np.vdot(v, v)
    lam = np.vdot(v, w) / denom
    if np.linalg.norm(w - lam * v) > tol * np.linalg.norm(v) * max(1.0, abs(lam)):
        raise ConsistencyError("state is not an eigenvector of the operator")
    return lam


def charges(states, gens: SU3Generators | None = None) -> dict:
    """Electric charge of each state: Q-eigenvalue on S^u, (-Q*)-eigenvalue on S^d."""
    gens = gens or su3_generators()
    out = {}
    for s in states:
        op = gens.Q if s.ideal == "u" else -np.conj(gens.Q)
        lam = _eigenvalue_on_state(op, s.matrix)
        if abs(lam.imag) > 1e-10:
            raise ConsistencyError("charge eigenvalue is not real")
        out[s.label] = Fraction(round(3.0 * lam.real), 3)
    return out


def ideal_orthonormal_basis(states) -> np.ndarray:
    """Orthonormal columns (64 x k) spanning the vectorized ideal states."""
    cols = np.array([s.matrix.ravel() for s in states]).T
    q, _ = np.linalg.qr(cols)
    return q


def in_ideal(m: np.ndarray, ortho_cols: np.ndarray) -> float:
    """Absolute residual of m after least-squares projection onto the ideal span."""
    v = m.ravel().astype(complex)
    r = v - ortho_cols @ (ortho_cols.conj().T @ v)
    return float(np.linalg.norm(r))


def structure_constants(gens: SU3Generators | None = None, tol=1e-10) -> np.ndarray:
    """f[a,b,c] with [Lambda_a, Lambda_b] = 2i sum_c f[a,b,c] Lambda_c."""
    gens = gens or su3_generators()
    lam = gens.Lambda
    basis = np.array([m.ravel() for m in lam]).T  # 64 x 8
    pinv = np.linalg.pinv(basis)
    f = np.zeros((8, 8, 8))
    for a in range(8):
        for b in range(8):
            comm = lam[a] @ lam[b] - lam[b] @ lam[a]
            coef = pinv @ comm.ravel()
            resid = np.linalg.norm(basis @ coef - comm.ravel())
            if resid > tol:
                raise ConsistencyError("commutator does not lie in the generator span")
            c = coef / 2j
            if np.max(np.abs(c.imag)) > tol:
                raise ConsistencyError("structure constants are not real")
            f[a, b, :] = c.real
    return f


def casimir(gens: SU3Generators | None = None) -> np.ndarray:
    """Quadratic Casimir sum_a (Lambda_a / 2)^2."""
    gens = gens or su3_generators()
    c = np.zeros((8, 8), dtype=complex)
    for lam in gens.Lambda:
        c += (lam / 2.0) @ (lam / 2.0)
    return c


def _restrict(op: np.ndarray, states, tol=1e-9) -> np.ndarray:
    """Matrix of left multiplication by op on the span of the given states."""
    rows = np.array([s.matrix.ravel() for s in states]).T  # 64 x k
    pinv = np.linalg.pinv(rows)
    k = len(states)
    out = np.zeros((k, k), dtype=complex)
    for b, s in enumerate(states):
        w = (op @ s.matrix).ravel()
        coef = pinv @ w
        if np.linalg.norm(rows @ coef - w) > tol * max(1.0, np.linalg.norm(w)):
            raise ConsistencyError("operator does not preserve the state span")
        out[:, b] = coef
    return out


def gell_mann_weight_sets():
    """Reference (lambda3, lambda8) weight multisets of 3 and 3bar.

    Computed from the diagonal Gell-Mann matrices lambda3 = diag(1,-1,0)
    and lambda8 = diag(1,1,-2)/sqrt(3).
    """
    lam3 = np.diag([1.0, -1.0, 0.0])
    lam8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    fund = sorted((lam3[i, i], lam8[i, i]) for i in range(3))
    anti = sorted((-lam3[i, i], -lam8[i, i]) for i in range(3))
    return fund, anti


def _match_weight_set(weights, reference, tol=1e-9) -> bool:
    ws = sorted(weights)
    return all(
        abs(w[0] - r[0]) < tol and abs(w[1] - r[1]) < tol for w, r in zip(ws, reference)
    )


def classify_representation(gens: SU3Generators | None = None, states=None) -> dict:
    """Decompose the ideal states into SU(3) irreducibles per grade subspace.

    The quadratic Casimir restricted to each grade subspace identifies
    singlets (0) versus (anti)fundamentals (4/3); the (Lambda3, Lambda8)
    weight multisets distinguish 3 from 3bar.
    """
    gens = gens or su3_generators()
    states = states if states is not None else ideal_basis("u")
    cas = casimir(gens)
    fund, anti = gell_mann_weight_sets()
    report = {"ideal": states[0].ideal, "grades": []}
    pieces = []
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
            weights = [(w3[i].real, w8[i].real) for i in range(len(sub))]
            if _match_weight_set(weights, fund):
                rep = "3"
            elif _match_weight_set(weights, anti):
                rep = "3bar"
            else:
                rep = "?"
        report["grades"].append(
            {
                "grade": grade,
                "dim": len(sub),
                "casimir": [round(v, 12) for v in eigs],
                "rep": rep,
                "labels": [s.label for s in sub],
            }
        )
        pieces.append(rep)
    report["decomposition"] = "+".join(pieces)
    return report
