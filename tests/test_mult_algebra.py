import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octo_cfs.mult_algebra import (
    SPAN_TOL,
    chain,
    commutant,
    left_matrix,
    left_right_equality,
    left_unit,
    octonion_inner,
    quadratic_relation_check,
    right_matrix,
    right_unit,
    span_dimension,
)
from octo_cfs.octonion import ComplexOctonion, Octonion, conj, mul

rng = np.random.default_rng(11)

I8 = np.eye(8)


def in_span(m: np.ndarray, span) -> float:
    """Relative residual of m after projection onto the span (0 means member)."""
    v = np.ravel(m)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return 0.0
    q = span.orthonormal
    coef = q.conj() @ v
    if np.isrealobj(q):
        coef = coef.real  # a real span has real coefficients: all of Im m is residual
    return float(np.linalg.norm(v - coef @ q) / nrm)


def rand_octonion():
    return Octonion(rng.standard_normal(8))


def test_left_identity_is_identity_matrix():
    assert np.array_equal(left_unit(0), I8)
    assert np.array_equal(right_unit(0), I8)


def test_left_matrix_represents_multiplication():
    e2 = np.zeros(8)
    e2[2] = 1.0
    e3 = np.zeros(8)
    e3[3] = 1.0
    assert np.array_equal(left_unit(1) @ e2, e3)
    for _ in range(1000):
        a = rand_octonion()
        x = rand_octonion()
        scale = a.norm() * x.norm()
        assert np.allclose(left_matrix(a) @ x.coeffs, (a * x).coeffs, atol=1e-12 * max(1.0, scale))
        assert np.allclose(right_matrix(a) @ x.coeffs, (x * a).coeffs, atol=1e-12 * max(1.0, scale))


def test_left_matrix_linear_in_argument():
    a, b = rand_octonion(), rand_octonion()
    assert np.allclose(left_matrix(a + b), left_matrix(a) + left_matrix(b), atol=1e-14)
    assert np.allclose(right_matrix(a + b), right_matrix(a) + right_matrix(b), atol=1e-14)


def test_imaginary_left_units_square_to_minus_identity():
    for i in range(1, 8):
        assert np.array_equal(left_unit(i) @ left_unit(i), -I8)


def test_imaginary_left_units_antisymmetric():
    for i in range(1, 8):
        assert np.array_equal(left_unit(i).T, -left_unit(i))


def test_chain_identity_l1_to_l6_equals_l7():
    assert np.array_equal(chain([1, 2, 3, 4, 5, 6]), left_unit(7))


def test_chain_squares_and_anticommutation():
    for a in range(1, 8):
        assert np.array_equal(chain([a, a]), -I8)
    for a in range(1, 8):
        for b in range(1, 8):
            if a != b:
                assert np.array_equal(chain([a, b]) + chain([b, a]), np.zeros((8, 8)))


def test_clifford_generation_relations():
    # {L_i, L_j} = -2 delta_ij on the first six generators (Cl(0,6))
    for i in range(1, 7):
        for j in range(1, 7):
            anti = left_unit(i) @ left_unit(j) + left_unit(j) @ left_unit(i)
            expect = -2.0 * I8 if i == j else np.zeros((8, 8))
            assert np.array_equal(anti, expect)


def test_not_an_algebra_homomorphism():
    # explicit witness: L_{e1} L_{e2} differs from L_{e1 e2} = L_{e3}
    lhs = left_unit(1) @ left_unit(2)
    rhs = left_matrix(mul(Octonion.e(1), Octonion.e(2)))
    assert not np.allclose(lhs, rhs)
    e4 = np.zeros(8)
    e4[4] = 1.0
    assert np.array_equal(lhs @ e4, -(rhs @ e4))


def test_span_dimension_real_64():
    span = span_dimension([left_unit(i) for i in range(1, 8)], field="real")
    assert span.dimension == 64


def test_span_dimension_complex_64():
    gens = [left_unit(i).astype(complex) for i in range(1, 8)]
    span = span_dimension(gens, field="complex")
    assert span.dimension == 64


def test_span_dimension_rejects_complex_entries_over_the_reals():
    # a real cast would drop the imaginary parts and answer for other generators
    with pytest.raises(ValueError, match="field 'real'"):
        span_dimension([1j * left_unit(1), -1j * left_unit(1).T], field="real")


def test_complex_request_of_real_units_solves_only_real_grams(monkeypatch):
    # the complex algebra of real generators is the complexification of the real one: no complex eigh needed
    dtypes, eigh = [], np.linalg.eigh

    def recording(a):
        dtypes.append(a.dtype)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    span = span_dimension([left_unit(i).astype(complex) for i in range(1, 8)], field="complex")
    assert dtypes == [np.dtype(np.float64)] * 2
    assert span.orthonormal.dtype == complex and span.dimension == 64


def test_span_dimension_identity():
    span = span_dimension([I8], field="real")
    assert span.dimension == 1


def basis(span) -> np.ndarray:
    """The span's orthonormal rows as n x n matrices."""
    n = int(np.sqrt(span.orthonormal.shape[1]))
    return span.orthonormal.reshape(-1, n, n)


def test_span_basis_rank_equals_dimension():
    span = span_dimension([left_unit(i) for i in range(1, 8)], field="real")
    rows = np.array([b.ravel() for b in basis(span)])
    assert np.linalg.matrix_rank(rows, tol=1e-9) == span.dimension


def test_span_closure_products_stay_inside():
    span = span_dimension([left_unit(i) for i in range(1, 8)], field="real")
    mats = basis(span)
    for _ in range(20):
        a = mats[rng.integers(len(mats))]
        b = mats[rng.integers(len(mats))]
        assert in_span(a @ b, span) < 1e-9


def test_span_dimension_rejects_non_square_generators():
    with pytest.raises(ValueError, match="square"):
        span_dimension([np.ones((4, 3))] * 2, field="real")
    with pytest.raises(ValueError, match="square"):
        span_dimension([np.ones(4)], field="real")


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(["real", "complex"]), count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_span_dimension_rejects_generators_not_closed_under_the_adjoint(field, count, seed):
    # dense matrices: the double commutant of {A} would be the unital algebra of {A, A^H}, not that of A
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((count, 8, 8)) + (1j * rng.standard_normal((count, 8, 8)) if field == "complex" else 0)
    with pytest.raises(ValueError, match="closed under the adjoint"):
        span_dimension(list(dense), field=field)


def quaternion_left_units():
    """L_1, L_2, L_3 of the quaternions span(e0, e1, e2, e3) on R^4 (Fano line 123)."""
    return [left_unit(i)[:4, :4] for i in range(1, 4)]


def test_span_dimension_of_a_single_generic_16x16_generator():
    # a generic orthogonal Q with its adjoint Q^T = Q^-1: the algebra is the 16 polynomials in Q
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 16)))[0]
    assert span_dimension([q, q.T], field="real").dimension == 16
    assert len(oracle_span([q, q.T], "real")[0]) == 16


def test_span_dimension_of_the_quaternion_left_units():
    assert span_dimension(quaternion_left_units(), field="real").dimension == 4


def h_tensor_o():
    """L_q (x) 1 and 1 (x) L_j on R^4 (x) R^8."""
    return [np.kron(q, I8) for q in quaternion_left_units()] + [np.kron(np.eye(4), left_unit(j)) for j in range(1, 8)]


def test_span_dimension_of_h_tensor_o():
    # H (x) M_8(R) = H(8), of real dimension 4 * 64
    assert span_dimension(h_tensor_o(), field="real").dimension == 256


def test_span_dimension_of_c_tensor_h_tensor_o():
    # over C: C (x) H (x) O generates C (x) H(8) = M_16(C), of complex dimension 256
    assert span_dimension([g.astype(complex) for g in h_tensor_o()], field="complex").dimension == 256


def h_from_both_sides_tensor_o():
    """h_tensor_o() and the quaternion right units R_q (x) 1."""
    return h_tensor_o() + [np.kron(right_unit(i)[:4, :4], I8) for i in range(1, 4)]


def test_span_dimension_of_h_from_both_sides_tensor_o():
    # H (x) H^op (x) M_8(R) = M_4(R) (x) M_8(R) = M_32(R)
    assert span_dimension(h_from_both_sides_tensor_o(), field="real").dimension == 1024


@pytest.mark.parametrize("generators, dim", [
    ([left_unit(i) for i in range(1, 8)], 1),
    (quaternion_left_units(), 4),
    (h_tensor_o(), 4),
    ([g.astype(complex) for g in h_tensor_o()], 4),
    (h_from_both_sides_tensor_o(), 1),
], ids=("O_L", "H_L", "HxO", "CxHxO", "HxHopxO"))
def test_commutant_dimension_names_the_division_algebra(generators, dim):
    # Wedderburn-Artin: A = M_k(D) has commutant D^op (R: 1, H: 4); over C, C (x) H(8) = M_16(C) acts on C^32
    # with multiplicity 2, so its commutant is M_2(C), of complex dimension 4
    basis = commutant(generators)
    assert len(basis) == dim
    n = len(generators[0])
    x = basis.reshape(-1, n, n)
    for g in generators:
        assert np.abs(g @ x - x @ g).max() < 1e-12


def oracle_span(generators, field):
    """Per-candidate Gram-Schmidt closure under products and span: (orthonormal rows, accepted products at unit norm).

    A test oracle only. Each accepted product is scaled to unit norm before it is multiplied again, so the
    powers of a generator cannot overflow.
    """
    gens = [np.asarray(g, dtype=float if field == "real" else complex) for g in generators]
    n = len(gens[0])
    tol = SPAN_TOL * max(np.linalg.norm(g) for g in gens)
    ortho, words = [], []

    def accepted(m):
        """m / |m| when m adds a direction, else None."""
        v = m.ravel().copy()
        for _ in range(2):  # the second pass guards against loss of orthogonality
            for q in ortho:
                v -= (np.conj(q) @ v) * q
        nrm = np.linalg.norm(v)
        if nrm > tol:
            ortho.append(v / nrm)
            words.append(m / np.linalg.norm(m))
            return words[-1]

    frontier = [w for w in map(accepted, gens) if w is not None]
    while frontier:
        frontier = [w for w in (accepted(b @ g) for b in frontier for g in gens) if w is not None]
    return np.array(ortho).reshape(-1, n * n), np.array(words)


@st.composite
def generator_sets(draw):
    """Adjoint-closed generators in one field: scaled units I, L_1..L_7, R_1..R_7, or {A, A^H} of 1-3 dense A."""
    field = draw(st.sampled_from(["real", "complex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        units = [I8] + [left_unit(i) for i in range(1, 8)] + [right_unit(i) for i in range(1, 8)]
        picks = sorted(draw(st.sets(st.integers(0, 14), min_size=1, max_size=6)))
        phase = np.exp(2j * np.pi * rng.random(len(picks))) if field == "complex" else rng.choice([-1, 1], len(picks))
        scale = rng.uniform(0.5, 2.0, len(picks)) * phase
        return field, [s * units[i] for s, i in zip(scale, picks)]
    count = draw(st.integers(1, 3))
    dense = rng.standard_normal((count, 8, 8))
    if field == "complex":
        dense = dense + 1j * rng.standard_normal((count, 8, 8))
    return field, [*dense, *dense.conj().swapaxes(1, 2)]


@settings(max_examples=40, deadline=None)
@given(case=generator_sets(), seed=st.integers(0, 2**32 - 1))
def test_span_dimension_matches_per_candidate_oracle(case, seed):
    field, gens = case
    rows, words = oracle_span(gens, field)
    span = span_dimension(gens, field=field)
    assert span.dimension == len(rows)
    # The oracle's projector is as sensitive as its accepted products are ill-conditioned.
    # Over 300 single dense real matrices A, the powers A..A^8 reached a condition number
    # of 5e5, and the closure differed from a 40-digit reference by up to 4e-12.
    tol = max(1e-12, 10 * np.finfo(float).eps * np.linalg.cond(words.reshape(len(words), -1)))

    def projector(q):
        return q.T @ q.conj()

    assert np.abs(projector(span.orthonormal) - projector(rows)).max() <= tol
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((2, 8, 8)) + (1j * rng.standard_normal((2, 8, 8)) if field == "complex" else 0)
    probes = [*probes, np.tensordot(rng.standard_normal(span.dimension), basis(span), 1)]
    for m in probes:
        v = m.ravel()
        oracle_residual = np.linalg.norm(v - projector(rows) @ v) / np.linalg.norm(v)
        assert abs(in_span(m, span) - oracle_residual) <= tol


def test_left_right_equality():
    report = left_right_equality()
    assert report["left_dim"] == 64
    assert report["right_dim"] == 64
    assert report["union_rank"] == 64
    assert report["equal"]


def test_right_unit_in_left_span_but_not_among_single_letters():
    left_span = span_dimension([left_unit(i) for i in range(1, 8)], field="real")
    assert in_span(right_unit(1), left_span) < 1e-9
    # L_{e1} is not in the span of the eight single-letter right maps
    singles = np.array([right_unit(i).ravel() for i in range(8)])
    stacked = np.vstack([singles, left_unit(1).ravel()[None, :]])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 9


def test_quadratic_relation_basis_cases():
    e1 = Octonion.e(1)
    e2 = Octonion.e(2)
    assert quadratic_relation_check(e1, e1) < 1e-14
    assert octonion_inner(e1, e1) == 1.0
    assert quadratic_relation_check(e1, e2) < 1e-14
    assert octonion_inner(e1, e2) == 0.0


def test_quadratic_relation_random():
    for _ in range(1000):
        x = rand_octonion()
        y = rand_octonion()
        scale = max(1.0, x.norm() * y.norm())
        assert quadratic_relation_check(x, y) < 1e-12 * scale


def test_dagger_matches_algebraic_adjoint_on_units():
    # conj-transpose of L_a equals L over the algebraic dagger of a: its octonion conjugate, complex-conjugated
    for i in range(1, 8):
        a = ComplexOctonion.e(i)
        assert np.array_equal(left_matrix(a).conj().T, left_matrix(ComplexOctonion(np.conj(conj(a).coeffs))))
    z = ComplexOctonion(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    assert np.allclose(left_matrix(z).conj().T, left_matrix(ComplexOctonion(np.conj(conj(z).coeffs))), atol=1e-14)


def test_complex_left_matrix_on_projector_idempotent():
    from octo_cfs.octonion import projector

    rp = projector(+1)
    m = left_matrix(rp)
    assert np.allclose(m @ m, m, atol=1e-14)


def test_in_span_counts_imaginary_part_against_real_span():
    real_span = span_dimension([I8], field="real")
    assert in_span(1j * I8, real_span) == 1.0
    assert abs(in_span(I8 + 1j * I8, real_span) - 1 / np.sqrt(2)) < 1e-15
    assert in_span(I8 + 0j, real_span) < 1e-15
    assert in_span(1j * I8, span_dimension([I8], field="complex")) < 1e-15


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple))
def test_batched_maps_equal_the_one_sample_calls_bitwise(data, shape):
    x, y, zr, zi = (data.draw(arrays(np.float64, (*shape, 8), elements=st.floats(-1e3, 1e3))) for _ in range(4))
    z = zr + 1j * zi

    def results(a, b, c):
        return [left_matrix(a), right_matrix(a), left_matrix(c), right_matrix(ComplexOctonion(c)),
                left_matrix(a.coeffs), octonion_inner(a, b), quadratic_relation_check(a, b)]

    batched = results(Octonion(x), Octonion(y), z)
    for idx in np.ndindex(shape):
        single = results(Octonion(x[idx]), Octonion(y[idx]), z[idx])
        for got, want in zip(batched, single, strict=True):
            got, want = np.asarray(got[idx]), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(0, 9), max_size=3).map(tuple).filter(lambda s: s[-1:] != (8,)))
def test_multiplication_matrices_reject_a_last_axis_other_than_8(shape):
    for make in (left_matrix, right_matrix):
        with pytest.raises(ValueError):
            make(np.ones(shape))
