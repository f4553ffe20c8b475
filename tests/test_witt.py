from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from octo_cfs.mult_algebra import span_dimension, left_unit
from octo_cfs.witt import (
    ConsistencyError,
    SU3Generators,
    _coordinates,
    _eigenvalue_on_state,
    _restrict,
    charges,
    casimir,
    classify_representation,
    gell_mann_weight_sets,
    ideal_basis,
    idempotents,
    nilpotents,
    structure_constants,
    su3_generators,
    witt_basis,
)

rng = np.random.default_rng(23)

I8 = np.eye(8)


def anticomm(a, b):
    return a @ b + b @ a


def test_witt_anticommutation_relations():
    wb = witt_basis()
    for i in range(3):
        for j in range(3):
            assert np.allclose(anticomm(wb.alpha[i], wb.alpha[j]), 0.0, atol=1e-12)
            assert np.allclose(
                anticomm(wb.alpha_dagger[i], wb.alpha_dagger[j]), 0.0, atol=1e-12
            )
            expect = I8 if i == j else np.zeros((8, 8))
            assert np.allclose(
                anticomm(wb.alpha[i], wb.alpha_dagger[j]), expect, atol=1e-12
            )


def test_alpha_dagger_is_matrix_adjoint():
    wb = witt_basis()
    for a, d in zip(wb.alpha, wb.alpha_dagger):
        assert np.allclose(np.conj(a).T, d, atol=1e-14)


def test_nilpotents_and_idempotents():
    wb = witt_basis()
    omega, omega_dag = nilpotents(wb)
    assert np.allclose(omega @ omega, 0.0, atol=1e-14)
    assert np.allclose(omega_dag @ omega_dag, 0.0, atol=1e-14)
    P_u, P_d = idempotents(wb)
    assert np.allclose(P_u @ P_u, P_u, atol=1e-13)
    assert np.allclose(P_d @ P_d, P_d, atol=1e-13)
    assert np.allclose(P_u @ P_d, 0.0, atol=1e-13)
    assert abs(np.trace(P_u) - 1.0) < 1e-12
    assert abs(np.trace(P_d) - 1.0) < 1e-12
    assert np.linalg.matrix_rank(P_u, tol=1e-9) == 1


def test_ideal_states_labels_and_grades():
    states = ideal_basis("u")
    assert [s.label for s in states] == [
        "nu",
        "dbar_r",
        "dbar_g",
        "dbar_b",
        "u_r",
        "u_g",
        "u_b",
        "e+",
    ]
    assert [s.grade for s in states] == [0, 1, 1, 1, 2, 2, 2, 3]
    wb = witt_basis()
    P_u, _ = idempotents(wb)
    assert np.allclose(states[0].matrix, P_u, atol=1e-14)
    d1, d2, d3 = wb.alpha_dagger
    assert np.allclose(states[-1].matrix, d3 @ d2 @ d1 @ P_u, atol=1e-13)


def test_ideal_states_independent():
    for which in ("u", "d"):
        states = ideal_basis(which)
        rows = np.array([s.matrix.ravel() for s in states])
        assert np.linalg.matrix_rank(rows, tol=1e-9) == 8


def test_ideal_closure_under_algebra():
    span = span_dimension([left_unit(i).astype(complex) for i in range(1, 8)], field="complex")
    basis_mats = span.orthonormal.reshape(-1, 8, 8)
    for which in ("u", "d"):
        states = ideal_basis(which)
        prods = []
        for _ in range(200):
            coef = rng.standard_normal(len(basis_mats)) + 1j * rng.standard_normal(
                len(basis_mats)
            )
            g = sum(c * m for c, m in zip(coef, basis_mats))
            s = states[rng.integers(8)]
            prods.append(g @ s.matrix)
        _, resid = _coordinates([s.matrix for s in states], prods)
        assert np.all(resid < 1e-10 * np.maximum(1.0, np.linalg.norm(prods, axis=(1, 2))))


def test_su3_generator_basic_relations():
    gens = su3_generators()
    lam = gens.Lambda
    # Hermitian generators and charge operator
    for m in lam:
        assert np.allclose(np.conj(m).T, m, atol=1e-13)
    assert np.allclose(np.conj(gens.Q).T, gens.Q, atol=1e-13)
    # [Lambda_1, Lambda_2] = 2i Lambda_3
    comm = lam[0] @ lam[1] - lam[1] @ lam[0]
    assert np.allclose(comm, 2j * lam[2], atol=1e-12)
    # [Lambda_a, Q] = 0
    for m in lam:
        assert np.allclose(m @ gens.Q - gens.Q @ m, 0.0, atol=1e-12)


def test_lambda8_annihilates_nu():
    gens = su3_generators()
    nu = ideal_basis("u")[0]
    assert np.allclose(gens.Lambda[7] @ nu.matrix, 0.0, atol=1e-13)


def test_generators_preserve_ideals():
    gens = su3_generators()
    for which in ("u", "d"):
        states = ideal_basis(which)
        images = [m @ s.matrix for m in gens.Lambda + [gens.Q] for s in states]
        _, resid = _coordinates([s.matrix for s in states], images)
        assert np.all(resid < 1e-10 * np.maximum(1.0, np.linalg.norm(images, axis=(1, 2))))


def test_structure_constants_antisymmetric_and_jacobi():
    gens = su3_generators()
    f = structure_constants(gens)
    assert np.allclose(f, -np.swapaxes(f, 0, 1), atol=1e-12)
    lam = gens.Lambda
    for _ in range(20):
        a, b, c = rng.integers(8, size=3)
        ja = lam[a] @ lam[b] - lam[b] @ lam[a]
        jac = (
            (ja @ lam[c] - lam[c] @ ja)
            + ((lam[b] @ lam[c] - lam[c] @ lam[b]) @ lam[a]
               - lam[a] @ (lam[b] @ lam[c] - lam[c] @ lam[b]))
            + ((lam[c] @ lam[a] - lam[a] @ lam[c]) @ lam[b]
               - lam[b] @ (lam[c] @ lam[a] - lam[a] @ lam[c]))
        )
        assert np.max(np.abs(jac)) < 1e-12


def test_exp_flow_preserves_raising_span():
    gens = su3_generators()
    wb = witt_basis()
    raising = np.array([d.ravel() for d in wb.alpha_dagger]).T  # 64 x 3
    pinv = np.linalg.pinv(raising)
    for t in (0.3, -1.1, 2.4):
        for a in range(8):
            u = expm(1j * t * gens.Lambda[a])
            uinv = expm(-1j * t * gens.Lambda[a])
            for d in wb.alpha_dagger:
                w = (u @ d @ uinv).ravel()
                resid = np.linalg.norm(raising @ (pinv @ w) - w)
                assert resid < 1e-9 * max(1.0, np.linalg.norm(w))


def test_charges_u_ideal():
    ch = charges(ideal_basis("u"))
    assert ch["nu"] == Fraction(0)
    for c in ("r", "g", "b"):
        assert ch[f"dbar_{c}"] == Fraction(1, 3)
        assert ch[f"u_{c}"] == Fraction(2, 3)
    assert ch["e+"] == Fraction(1)


def test_charges_d_ideal_are_negatives():
    up = charges(ideal_basis("u"))
    down = charges(ideal_basis("d"))
    pairs = [
        ("nu", "nubar"),
        ("dbar_r", "d_r"),
        ("dbar_g", "d_g"),
        ("dbar_b", "d_b"),
        ("u_r", "ubar_r"),
        ("u_g", "ubar_g"),
        ("u_b", "ubar_b"),
        ("e+", "e-"),
    ]
    for u_label, d_label in pairs:
        assert down[d_label] == -up[u_label]


def test_charge_consistency_error():
    states = ideal_basis("u")
    bad = states[1]
    bad.matrix = states[1].matrix + states[4].matrix  # mixes charge sectors
    with pytest.raises(ConsistencyError):
        charges([bad])


def test_classify_representation_u():
    report = classify_representation(states=ideal_basis("u"))
    assert report["decomposition"] == "1+3bar+3+1"
    grades = {g["grade"]: g for g in report["grades"]}
    assert grades[0]["casimir"] == [0.0]
    assert grades[3]["casimir"] == [0.0]
    for g in (1, 2):
        assert np.allclose(grades[g]["casimir"], 4.0 / 3.0, atol=1e-9)
    assert grades[1]["rep"] == "3bar"
    assert grades[2]["rep"] == "3"


def test_classify_representation_d():
    report = classify_representation(states=ideal_basis("d"))
    assert report["grades"][1]["rep"] == "3"
    assert report["grades"][2]["rep"] == "3bar"


def test_weight_oracle_sets():
    fund, anti = gell_mann_weight_sets()
    assert np.allclose(sorted(fund), sorted([(1, 1 / np.sqrt(3)), (-1, 1 / np.sqrt(3)), (0, -2 / np.sqrt(3))]))
    assert np.allclose(np.array(sorted(anti)), -np.array(sorted(fund, reverse=True)))


def test_casimir_matches_trace_normalization():
    # On the full u-ideal the Casimir spectrum is {0, 4/3 x6, 0}
    gens = su3_generators()
    cas = casimir(gens)
    states = ideal_basis("u")
    block = _restrict(cas, states)
    eigs = np.sort(np.linalg.eigvals(block).real)
    expect = np.sort([0.0, 0.0] + [4.0 / 3.0] * 6)
    assert np.allclose(eigs, expect, atol=1e-9)


# Oracles: the per-pair and per-state pinv loops that the batched span solve replaced.

def loop_structure_constants(lam):
    basis = np.array([m.ravel() for m in lam]).T
    pinv = np.linalg.pinv(basis)
    f = np.zeros((8, 8, 8))
    for a in range(8):
        for b in range(8):
            comm = lam[a] @ lam[b] - lam[b] @ lam[a]
            f[a, b, :] = (pinv @ comm.ravel() / 2j).real
    return f


def loop_restrict(op, states):
    rows = np.array([s.matrix.ravel() for s in states]).T
    pinv = np.linalg.pinv(rows)
    return np.array([pinv @ (op @ s.matrix).ravel() for s in states]).T


def rayleigh_eigenvalue(op, state):
    v = state.ravel()
    return np.vdot(v, (op @ state).ravel()) / np.vdot(v, v)


def test_structure_constants_match_per_pair_loop():
    gens = su3_generators()
    assert np.max(np.abs(structure_constants(gens) - loop_structure_constants(gens.Lambda))) <= 1e-12


def test_restrict_matches_per_state_loop_on_every_grade():
    gens = su3_generators()
    for which in ("u", "d"):
        states = ideal_basis(which)
        for grade in range(4):
            sub = [s for s in states if s.grade == grade]
            for op in [casimir(gens)] + gens.Lambda + [gens.Q]:
                assert np.max(np.abs(_restrict(op, sub) - loop_restrict(op, sub))) <= 1e-12


def test_charges_match_rayleigh_quotient():
    gens = su3_generators()
    states = ideal_basis("u") + ideal_basis("d")
    expect = {}
    for s in states:
        op = gens.Q if s.ideal == "u" else -np.conj(gens.Q)
        lam = rayleigh_eigenvalue(op, s.matrix)
        assert abs(_eigenvalue_on_state(op, s.matrix) - lam) <= 1e-12
        expect[s.label] = Fraction(round(3.0 * lam.real), 3)
    assert charges(states) == expect


def test_restrict_rejects_operator_leaving_the_span():
    grade1 = [s for s in ideal_basis("u") if s.grade == 1]
    raise_color = witt_basis().alpha_dagger[0]  # maps grade 1 into grade 2
    with pytest.raises(ConsistencyError, match="does not preserve the state span"):
        _restrict(raise_color, grade1)


def test_structure_constants_reject_non_closed_or_non_real_sets():
    units = [left_unit(i).astype(complex) for i in range(1, 8)] + [I8.astype(complex)]
    with pytest.raises(ConsistencyError, match="does not lie in the generator span"):
        structure_constants(SU3Generators(Lambda=units, Q=I8))
    # i Lambda_a closes, but with structure constants i f
    gens = su3_generators()
    rotated = SU3Generators(Lambda=[1j * m for m in gens.Lambda], Q=gens.Q)
    with pytest.raises(ConsistencyError, match="structure constants are not real"):
        structure_constants(rotated)
