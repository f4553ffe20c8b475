import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octo_cfs.octonion import (
    FANO_LINES,
    STRUCTURE,
    ComplexOctonion,
    Octonion,
    associator,
    basis_product,
    conj,
    inv,
    mul,
    norm,
    projector,
    split,
    table_rows,
    unsplit,
)

rng = np.random.default_rng(7)


def e(i):
    return Octonion.e(i)


def rand_octonion():
    return Octonion(rng.standard_normal(8))


def test_fano_lines_cyclic():
    for a, b, c in FANO_LINES:
        assert e(a) * e(b) == e(c)
        assert e(b) * e(c) == e(a)
        assert e(c) * e(a) == e(b)


def test_identity_element():
    x = rand_octonion()
    assert e(0) * x == x
    assert x * e(0) == x


def test_nonassociative_pair():
    # e4 (e7 e6) = -e5 while (e4 e7) e6 = e5
    assert e(4) * (e(7) * e(6)) == -e(5)
    assert (e(4) * e(7)) * e(6) == e(5)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        assert e(i) * e(i) == -e(0)


def test_anticommutation():
    for i in range(1, 8):
        for j in range(i + 1, 8):
            lhs = e(i) * e(j)
            rhs = e(j) * e(i)
            assert np.array_equal(lhs.coeffs, -rhs.coeffs)


def test_epsilon_antisymmetric_and_zero_on_repeats():
    # epsilon_ijk on the imaginary units is STRUCTURE[i, j, k], the coefficient of e_k in e_i e_j
    assert STRUCTURE[1, 2, 3] == 1.0
    assert STRUCTURE[2, 1, 3] == -1.0
    assert STRUCTURE[3, 1, 2] == 1.0
    assert STRUCTURE[1, 1, 3] == 0.0
    assert STRUCTURE[2, 5, 7] == 1.0
    assert STRUCTURE[7, 5, 2] == -1.0


def test_conjugate():
    assert conj(e(1)) == -e(1)
    assert conj(e(0)) == e(0)
    x = rand_octonion()
    assert np.allclose(conj(x).coeffs[1:], -x.coeffs[1:])


def test_norm_from_conjugate_product():
    # norm(x)^2 equals the e0 coefficient of x * conj(x)
    for _ in range(50):
        x = rand_octonion()
        prod = x * conj(x)
        assert abs(norm(x) ** 2 - prod.coeffs[0]) < 1e-12 * max(1.0, norm(x) ** 2)
        assert np.max(np.abs(prod.coeffs[1:])) < 1e-12 * max(1.0, norm(x) ** 2)


def test_norm_example():
    x = e(0) + e(1) + e(2) + e(3)
    assert norm(x) == 2.0


def test_inverse():
    assert inv(e(1)) == -e(1)
    for _ in range(20):
        x = rand_octonion()
        assert np.allclose((inv(x) * x).coeffs, e(0).coeffs, atol=1e-12)
        assert np.allclose((x * inv(x)).coeffs, e(0).coeffs, atol=1e-12)
    with pytest.raises(ZeroDivisionError):
        inv(Octonion(np.zeros(8)))


def test_norm_multiplicative():
    for _ in range(1000):
        x = rand_octonion()
        y = rand_octonion()
        lhs = norm(x * y)
        rhs = norm(x) * norm(y)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_alternativity():
    zero = np.zeros(8)
    for _ in range(1000):
        x = rand_octonion()
        y = rand_octonion()
        scale = norm(x) ** 2 * norm(y)
        assert np.allclose(associator(x, x, y).coeffs, zero, atol=1e-12 * max(1.0, scale))
        assert np.allclose(associator(y, x, x).coeffs, zero, atol=1e-12 * max(1.0, scale))


def test_associator_examples():
    assert associator(e(4), e(7), e(6)) == -2.0 * e(5)
    assert associator(e(1), e(2), e(3)) == Octonion(np.zeros(8))


def test_conj_antiautomorphism():
    for _ in range(100):
        x = rand_octonion()
        y = rand_octonion()
        lhs = conj(x * y)
        rhs = conj(y) * conj(x)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * max(1.0, norm(x) * norm(y)))


def test_fano_lines_close_quaternion_subalgebras():
    for line in FANO_LINES:
        idx = {0, *line}
        for i in idx:
            for j in idx:
                k, _ = basis_product(i, j)
                assert k in idx


def test_projectors():
    rp = projector(+1)
    rm = projector(-1)
    assert mul(rp, rp) == rp
    assert mul(rm, rm) == rm
    assert mul(rp, rm) == ComplexOctonion(np.zeros(8))
    assert mul(rm, rp) == ComplexOctonion(np.zeros(8))
    assert rp + rm == ComplexOctonion.e(0)


def test_complex_scalars_commute():
    x = ComplexOctonion(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    y = ComplexOctonion(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    z = 0.3 - 1.7j
    assert np.allclose((z * mul(x, y)).coeffs, mul(z * x, y).coeffs, atol=1e-12)
    assert np.allclose(mul(z * x, y).coeffs, mul(x, z * y).coeffs, atol=1e-12)


def test_mixed_field_mul_rejected():
    with pytest.raises(TypeError):
        mul(e(1), ComplexOctonion.e(2))


def test_split_basis_cases():
    assert np.allclose(split(e(0)), [1, 0, 0, 0])
    assert np.allclose(split(e(4)), [1j, 0, 0, 0])
    assert np.allclose(split(e(5)), [0, -1j, 0, 0])
    assert np.allclose(split(e(1)), [0, 1, 0, 0])


def test_split_round_trip():
    for _ in range(100):
        x = rand_octonion()
        back = unsplit(split(x))
        assert np.array_equal(back.coeffs, x.coeffs.astype(complex))


def test_split_rejects_truly_complex():
    x = ComplexOctonion(np.ones(8) + 1j)
    with pytest.raises(ValueError):
        split(x)


def test_table_rows():
    rows = table_rows()
    assert rows[0][3] == "e3"
    assert rows[1][2] == "e3"
    assert rows[2][1] == "-e3"
    assert rows[1][1] == "-e0"


def _oracle_epsilon():
    """The sign tensor filled from FANO_LINES one permutation at a time, as the table was first built."""
    eps = np.zeros((8, 8, 8))
    for a, b, c in FANO_LINES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
            eps[i, k, j] = -1.0
            eps[k, j, i] = -1.0
            eps[k, i, j] = 1.0
            eps[j, k, i] = 1.0
    return eps


def _oracle_structure(eps):
    C = np.zeros((8, 8, 8))
    C[0, :, :] = np.eye(8)
    C[:, 0, :] = np.eye(8)
    for i in range(1, 8):
        C[i, i, :] = 0.0
        C[i, i, 0] = -1.0
        for j in range(1, 8):
            if i != j:
                C[i, j, :] = eps[i, j, :]
    return C


def test_structure_and_epsilon_match_two_step_oracle():
    eps = _oracle_epsilon()
    oracle = _oracle_structure(eps)
    assert np.array_equal(STRUCTURE, oracle)  # all 512 entries
    assert not np.signbit(STRUCTURE[STRUCTURE == 0]).any()
    for i, j, k in itertools.product(range(1, 8), repeat=3):  # all 343 triples
        assert STRUCTURE[i, j, k] == eps[i, j, k]


def test_mixed_field_add_and_sub_rejected():
    x = e(1)
    z = ComplexOctonion(1j * np.ones(8))
    for a, b in ((x, z), (z, x)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    with pytest.raises(TypeError):
        x * 1j
    with pytest.raises(TypeError):
        1j * x


def test_operations_keep_class_and_dtype():
    x, y = rand_octonion(), rand_octonion()
    z = ComplexOctonion(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    w = ComplexOctonion(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    real = [x * 2.0, 2.0 * x, x * 3, x + y, x - y, -x, x * y, mul(x, y), conj(x), x.conj(),
            x.conj_octonion(), inv(x), associator(x, y, x), Octonion.e(3), Octonion(np.zeros(8))]
    cplx = [z * 1j, 1j * z, z * 2.0, 2.0 * z, z + w, z - w, -z, z * w, mul(z, w), conj(z),
            z.conj_octonion(), associator(z, w, z),
            ComplexOctonion.e(3), ComplexOctonion(np.zeros(8)), projector(+1)]
    for v in real:
        assert type(v) is Octonion and v.coeffs.dtype == np.float64
    for v in cplx:
        assert type(v) is ComplexOctonion and v.coeffs.dtype == np.complex128
    assert np.array_equal((2.0 * x).coeffs, 2.0 * x.coeffs)
    assert np.array_equal((x * 2.0).coeffs, 2.0 * x.coeffs)
    assert np.array_equal((z * 1j).coeffs, 1j * z.coeffs)
    assert np.array_equal((x - y).coeffs, x.coeffs - y.coeffs)
    assert repr(e(1)) == "Octonion([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])"
    assert repr(ComplexOctonion.e(0)).startswith("ComplexOctonion([(1+0j), 0j")


#: Leading batch shapes: one or two axes, each 1 to 4 long.
BATCH_SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def coefficient_stacks(shape, width=8, elements=st.floats(-1e3, 1e3)):
    return arrays(np.float64, (*shape, width), elements=elements)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=BATCH_SHAPES)
def test_batched_operations_equal_the_one_sample_calls_bitwise(data, shape):
    x, y, zr, zi, wr, wi = (data.draw(coefficient_stacks(shape)) for _ in range(6))
    X, Y, Z, W = Octonion(x), Octonion(y), ComplexOctonion(zr + 1j * zi), ComplexOctonion(wr + 1j * wi)

    def results(a, b, z, w):
        return [mul(a, b), a * b, a + b, a - b, -a, 2.5 * a, conj(a), a.conj(), associator(a, b, a),
                norm(a), a.norm(), split(a), unsplit(split(a)), split(ComplexOctonion(a.coeffs)),
                mul(z, w), z - w, (0.5 - 2j) * z, conj(z), associator(z, w, z)]

    batched = results(X, Y, Z, W)
    for idx in np.ndindex(shape):
        single = results(Octonion(x[idx]), Octonion(y[idx]), ComplexOctonion(Z.coeffs[idx]),
                         ComplexOctonion(W.coeffs[idx]))
        for got, want in zip(batched, single, strict=True):
            got, want = (getattr(v, "coeffs", v) for v in (got, want))
            assert same_bits(got[idx], want)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=BATCH_SHAPES)
def test_batched_inverse_equals_the_one_sample_inverses_bitwise(data, shape):
    x = data.draw(coefficient_stacks(shape, elements=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)))
    batched = inv(Octonion(x)).coeffs
    for idx in np.ndindex(shape):
        assert same_bits(batched[idx], inv(Octonion(x[idx])).coeffs)
    x[(0,) * len(shape)] = 0.0
    with pytest.raises(ZeroDivisionError):
        inv(Octonion(x))


def test_split_of_a_stack_rejects_any_complex_row():
    z = np.ones((3, 8), dtype=complex)
    z[1, 5] += 1j
    with pytest.raises(ValueError):
        split(ComplexOctonion(z))
    assert np.array_equal(split(ComplexOctonion(z[::2])), split(Octonion(z[::2].real)))


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(0, 9), max_size=3).map(tuple))
def test_a_last_axis_other_than_8_or_4_is_rejected(shape):
    c = np.ones(shape)
    for make in (Octonion, ComplexOctonion):
        if shape[-1:] == (8,):
            assert make(c).coeffs.shape == shape
        else:
            with pytest.raises(ValueError):
                make(c)
    if shape[-1:] == (4,):
        assert unsplit(c).coeffs.shape == shape[:-1] + (8,)
    else:
        with pytest.raises(ValueError):
            unsplit(c)
