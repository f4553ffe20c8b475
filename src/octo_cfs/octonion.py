"""Octonion and complex-octonion arithmetic over the Fano-plane multiplication table.

The seven imaginary units multiply according to the oriented Fano lines
123, 145, 176, 246, 257, 347, 365; each line is cyclic and together with
e0 closes into a quaternion subalgebra. O and C (x) O share one
implementation, parametrized by the coefficient field.
"""

from __future__ import annotations

import numbers

import numpy as np

#: Oriented quaternionic triples (a, b, c): e_a e_b = e_c cyclically.
FANO_LINES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def _structure_tensor():
    # C[i, j, k]: coefficient of e_k in e_i e_j.
    C = np.zeros((8, 8, 8))
    r = np.arange(8)
    C[0, r, r] = C[r, 0, r] = 1.0
    C[r[1:], r[1:], 0] = -1.0
    for line in FANO_LINES:
        for i, j, k in (line, line[1:] + line[:1], line[2:] + line[:2]):
            C[i, j, k], C[j, i, k] = 1.0, -1.0
    return C


#: Structure tensor of the algebra: (x y)_k = sum_ij C[i,j,k] x_i y_j.
STRUCTURE = _structure_tensor()


class _OctonionBase:
    """x = x0 e0 + ... + x7 e7 with coefficients in the field `_field` (float or complex).

    The coefficients may carry leading batch axes, shape (..., 8): then the
    object is a stack of octonions and every operation acts row by row,
    broadcasting as numpy does. Sums, differences and products need both
    operands over the same field; scalars of that field multiply from either side.
    """

    __slots__ = ("coeffs",)
    _field = float
    _scalar = numbers.Real

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=self._field)
        if c.shape[-1:] != (8,) or not np.all(np.isfinite(c)):
            raise ValueError(f"{type(self).__name__} needs 8 finite coefficients on its last axis")
        self.coeffs = c

    @classmethod
    def e(cls, i):
        return cls(np.eye(8)[i])

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + -other if isinstance(other, type(self)) else NotImplemented

    def __neg__(self):
        return type(self)(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return type(self)(np.einsum("ijk,...i,...j->...k", STRUCTURE, self.coeffs, other.coeffs))
        return self.__rmul__(other)

    def __rmul__(self, other):
        if isinstance(other, self._scalar):
            return type(self)(self.coeffs * self._field(other))
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, type(self)) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs.tolist()})"

    def conj_octonion(self):
        """Octonion conjugate: flips the sign of e1..e7."""
        c = self.coeffs.copy()
        c[..., 1:] = -c[..., 1:]
        return type(self)(c)


class Octonion(_OctonionBase):
    """Real octonion x = x0 e0 + ... + x7 e7."""

    __slots__ = ()
    conj = _OctonionBase.conj_octonion

    def norm(self):
        # np.vecdot rounds each row as np.dot does; einsum sums in another order
        return np.sqrt(np.vecdot(self.coeffs, self.coeffs))

    def inv(self):
        n2 = np.vecdot(self.coeffs, self.coeffs)
        if np.any(n2 == 0.0):
            raise ZeroDivisionError("the zero octonion has no inverse")
        return Octonion(self.conj().coeffs / n2[..., None])


class ComplexOctonion(_OctonionBase):
    """Element of C (x) O: eight complex coefficients over e0..e7.

    `conj_octonion` flips e1..e7; the adjoint a^dag of the Witt construction is
    ComplexOctonion(np.conj(conj(a).coeffs)), with L_a^dag = L_{a^dag}.
    """

    __slots__ = ()
    _field = complex
    _scalar = numbers.Complex


def mul(a, b):
    """Product a*b; both operands must share the coefficient field."""
    if not (isinstance(a, _OctonionBase) and type(a) is type(b)):
        raise TypeError("mul requires two octonions over the same field")
    return a * b


def conj(a):
    """Octonion conjugate (flips the sign of e1..e7)."""
    if not isinstance(a, _OctonionBase):
        raise TypeError("conj expects an Octonion or ComplexOctonion")
    return a.conj_octonion()


def norm(a: Octonion) -> float:
    return a.norm()


def inv(a: Octonion) -> Octonion:
    return a.inv()


def associator(a, b, c):
    """a*(b*c) - (a*b)*c; vanishes whenever two arguments coincide."""
    return mul(a, mul(b, c)) - mul(mul(a, b), c)


def projector(sign) -> ComplexOctonion:
    """rho_+- = (1 +- i e4)/2, the mutually annihilating projectors of C (x) O."""
    s = 1.0 if sign in (1, "+", "plus") else -1.0 if sign in (-1, "-", "minus") else None
    if s is None:
        raise ValueError("sign must be +1 or -1")
    c = np.zeros(8, dtype=complex)
    c[0] = 0.5
    c[4] = 0.5j * s
    return ComplexOctonion(c)


def split(a):
    """Four complex components (z0, z1, z2, z3) of the e4-splitting, on the last axis.

    z0 = x0 + i x4, z1 = x1 - i x5, z2 = x2 - i x6, z3 = x3 - i x7.
    Defined on real-coefficient octonions (the splitting is an R-linear
    bijection O ~ C^4 realizing the lepton-quark decomposition C + C^3).
    """
    if isinstance(a, Octonion):
        c = a.coeffs
    elif isinstance(a, ComplexOctonion):
        c = a.coeffs
        if np.any(np.abs(c.imag).max(axis=-1) > 1e-12 * np.maximum(1.0, np.abs(c).max(axis=-1))):
            raise ValueError("split is defined on real-coefficient octonions")
        c = c.real
    else:
        raise TypeError("split expects an Octonion or ComplexOctonion")
    return c[..., :4] + 1j * np.array([1.0, -1.0, -1.0, -1.0]) * c[..., 4:]


def unsplit(z) -> ComplexOctonion:
    """Inverse of `split`: reassemble the octonion from its four complex slots on the last axis."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (4,):
        raise ValueError("unsplit expects four complex numbers on the last axis")
    return ComplexOctonion(np.concatenate([z.real, np.array([1.0, -1.0, -1.0, -1.0]) * z.imag], axis=-1))


def basis_product(i, j):
    """(k, sign) with e_i e_j = sign * e_k."""
    col = STRUCTURE[i, j]
    k = int(np.argmax(np.abs(col)))
    return k, float(col[k])


def table_rows():
    """Rows of the 8x8 basis multiplication table as signed unit names."""
    rows = []
    for i in range(8):
        row = []
        for j in range(8):
            k, s = basis_product(i, j)
            row.append(("-" if s < 0 else "") + f"e{k}")
        rows.append(row)
    return rows
