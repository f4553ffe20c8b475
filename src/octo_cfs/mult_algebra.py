"""Left/right multiplication endomorphisms of the octonions and their generated algebras.

Octonions are written as column vectors of coefficients over e0..e7, so a
left (right) multiplication is an 8x8 matrix. Composing these matrices
generates the associative multiplication algebras O_L and O_R, each found as
a double commutant. The per-octonion functions also take stacks, coefficients
of shape (..., 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octonion import STRUCTURE, ComplexOctonion, Octonion

#: Relative tolerance used for span independence and null-space decisions.
SPAN_TOL = 1e-9


def _coeffs(a):
    if isinstance(a, (Octonion, ComplexOctonion)):
        return a.coeffs
    c = np.asarray(a)
    if c.shape[-1:] != (8,):
        raise ValueError("expected an octonion or coefficients of shape (..., 8)")
    return c


def left_matrix(a) -> np.ndarray:
    """Matrix of L_a: x -> a x acting on coefficient column vectors; (..., 8) -> (..., 8, 8)."""
    c = _coeffs(a)
    return np.einsum("...i,ijk->...kj", c, STRUCTURE.astype(c.dtype))


def right_matrix(a) -> np.ndarray:
    """Matrix of R_a: x -> x a acting on coefficient column vectors; (..., 8) -> (..., 8, 8)."""
    c = _coeffs(a)
    return np.einsum("...i,jik->...kj", c, STRUCTURE.astype(c.dtype))


def left_unit(i) -> np.ndarray:
    """L_{e_i} as a real 8x8 matrix."""
    return left_matrix(Octonion.e(i))


def right_unit(i) -> np.ndarray:
    return right_matrix(Octonion.e(i))


def chain(word) -> np.ndarray:
    """Product of the letters' left multiplication matrices, leftmost letter outermost.

    `word` is a sequence of basis indices 0..7.
    """
    if len(word) == 0:
        raise ValueError("chain needs a non-empty word")
    out = left_unit(word[0])
    for letter in word[1:]:
        out = out @ left_unit(letter)
    return out


@dataclass
class AlgebraSpan:
    """Multiplicatively generated matrix span, held as orthonormal rows of vectorized matrices."""

    orthonormal: np.ndarray  # dimension x n^2, rows orthonormal under the conjugate inner product

    @property
    def dimension(self) -> int:
        return len(self.orthonormal)


def _matrices(generators) -> np.ndarray:
    """The generators as one (count, n, n) array, float64 when every entry is real (a zero imaginary part too),
    complex otherwise; ValueError unless there are some, all square."""
    gens = np.array(generators)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:  # no generator at all has shape (0,)
        raise ValueError("needs one or more square n x n generators")
    return gens.real.astype(float) if np.all(gens.imag == 0) else gens.astype(complex)


def commutant(generators) -> np.ndarray:
    """Orthonormal basis, as row-major vectorized rows, of {X : g X = X g for every generator g}.

    It is the null space of one eigh of sum_g K_g^H K_g, K_g = g (x) I - I (x) g^T, built in closed form as
    (sum g^H g) (x) I + I (x) (sum conj(g) g^T) - C - C^H with C = sum g^H (x) g^T. The cut is relative to the
    bound 4 sum_g |g|_F^2 of its eigenvalues, not to the largest, which is 0 or rounding for scalar generators.
    Real generators solve a real Gram; their complex commutant is the complex span of the real basis.
    """
    gens = _matrices(generators)
    n = gens.shape[1]
    eye, conj = np.eye(n), gens.conj()
    cross = np.einsum("gji,glk->ikjl", conj, gens).reshape(n * n, n * n)
    gram = np.kron(np.einsum("gji,gjk->ik", conj, gens), eye) + np.kron(eye, np.einsum("gij,gkj->ik", conj, gens))
    gram -= cross + cross.conj().T
    values, vectors = np.linalg.eigh(gram)
    return vectors[:, values <= SPAN_TOL * 4 * np.vdot(gens, gens).real].T


def span_dimension(generators, field="real") -> AlgebraSpan:
    """Unital algebra generated by n x n matrices closed under the adjoint: their double commutant.

    Such an algebra is semisimple and equals its double commutant (von Neumann; Wedderburn-Artin), which is
    the closure under products and span whenever that holds the identity, as for the units (L_i^2 = -1).
    The field only types the result: real generators are solved over R also for "complex", since the complex
    algebra is the complexification of the real one, of the same dimension. Raises ValueError for "real" with
    complex entries, and unless the adjoint of each generator lies in the generators' span.
    """
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    gens = _matrices(generators)
    if field == "real" and np.iscomplexobj(gens):
        raise ValueError("field 'real' needs generators with real entries")
    n = gens.shape[1]
    both = np.concatenate([gens, gens.conj().swapaxes(1, 2)]).reshape(2 * len(gens), n * n)
    tol = SPAN_TOL * np.linalg.norm(both, axis=1).max()
    if np.linalg.matrix_rank(both, tol=tol) > np.linalg.matrix_rank(both[: len(gens)], tol=tol):
        raise ValueError("span_dimension needs generators closed under the adjoint")
    rows = commutant(commutant(gens).reshape(-1, n, n))
    return AlgebraSpan(orthonormal=rows.astype(float if field == "real" else complex))


def octonion_inner(x: Octonion, y: Octonion):
    """<x, y> = (x conj(y) + y conj(x)) / 2, read off the e0 component; one value per row."""
    s = x * y.conj() + y * x.conj()
    return 0.5 * s.coeffs[..., 0]


def quadratic_relation_check(x: Octonion, y: Octonion):
    """Residual norm of L_x L_{conj(y)} 1 + L_y L_{conj(x)} 1 - 2 <x,y> 1; one value per row."""
    one = np.eye(8)[0]
    lhs = np.matvec(left_matrix(x), np.matvec(left_matrix(y.conj()), one)) + np.matvec(
        left_matrix(y), np.matvec(left_matrix(x.conj()), one)
    )
    d = lhs - 2.0 * octonion_inner(x, y)[..., None] * one
    return np.sqrt(np.vecdot(d, d))


def left_right_equality() -> dict:
    """Span comparison of the generated left and right multiplication algebras."""
    left_span = span_dimension([left_unit(i) for i in range(1, 8)], field="real")
    right_span = span_dimension([right_unit(i) for i in range(1, 8)], field="real")
    union_rank = int(
        np.linalg.matrix_rank(np.vstack([left_span.orthonormal, right_span.orthonormal]), tol=SPAN_TOL)
    )
    return {
        "left_dim": left_span.dimension,
        "right_dim": right_span.dimension,
        "union_rank": union_rank,
        "equal": union_rank == left_span.dimension == right_span.dimension,
    }
