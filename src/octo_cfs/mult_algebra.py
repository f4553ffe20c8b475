"""Left/right multiplication endomorphisms of the octonions and their generated algebras.

Octonions are written as column vectors of coefficients over e0..e7, so a
left (right) multiplication is an 8x8 matrix. Composing these matrices
generates the associative multiplication algebras O_L and O_R. The
per-octonion functions also take stacks, coefficients of shape (..., 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octonion import STRUCTURE, ComplexOctonion, Octonion

#: Relative singular-value tolerance used for span independence decisions.
SPAN_TOL = 1e-9


class SpanClosureError(RuntimeError):
    """Rounding grew the generated span past the n^2 dimensions of its n x n matrices."""


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


def _extend(q, rows, tol):
    """Grow q by the directions of `rows` outside its span; return (q, new directions)."""
    for _ in range(2):  # the second projection restores orthogonality lost to rounding
        rows = rows - (rows @ q.conj().T) @ q
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    new = vh[sv > tol]
    return np.vstack([q, new]), new


def span_dimension(generators, field="real") -> AlgebraSpan:
    """Associative algebra generated by the given n x n matrices under product and span.

    Breadth-first closure: each pass multiplies the previous pass's new
    directions by every generator and keeps what lies outside the span so
    far. Closure needs only the span, so the new orthonormal directions serve
    as the next frontier. Each pass that does not end the closure adds a
    direction, so it stops at its fixed point within n^2 passes; raises
    SpanClosureError if rounding grows the span past n^2 directions.
    """
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    if len(generators) == 0:
        raise ValueError("span_dimension needs at least one generator")
    gens = np.array(generators, dtype=float if field == "real" else complex)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError("span_dimension takes square n x n matrices")
    n = gens.shape[1]
    tol = SPAN_TOL * np.linalg.norm(gens, axis=(1, 2)).max()
    q, frontier = _extend(np.zeros((0, n * n), gens.dtype), gens.reshape(-1, n * n), tol)
    while len(frontier) and len(q) <= n * n:
        products = frontier.reshape(-1, 1, n, n) @ gens
        q, frontier = _extend(q, products.reshape(-1, n * n), tol)
    if len(q) > n * n:
        raise SpanClosureError(f"span of {n}x{n} matrices grew to {len(q)} directions")
    return AlgebraSpan(orthonormal=q)


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
