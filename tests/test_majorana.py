import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octo_cfs.gammas import clifford_residual, dirac_rep, majorana_rep
from octo_cfs.lattice import LatticeSpec
from octo_cfs.majorana import (
    N_RANDOM,
    check_report,
    factorization_residual,
    momentum_residual,
    p_m_kernel,
    reality_check,
)

rng = np.random.default_rng(31)


def test_clifford_relations_exact():
    assert clifford_residual(majorana_rep()) == 0.0
    assert clifford_residual(dirac_rep()) == 0.0


def test_gamma_matrix_squares():
    gs = majorana_rep()
    assert np.array_equal(gs.gamma[0] @ gs.gamma[0], np.eye(4))
    assert np.array_equal(gs.gamma[1] @ gs.gamma[1], -np.eye(4))
    assert np.array_equal(gs.gamma5 @ gs.gamma[0] + gs.gamma[0] @ gs.gamma5, np.zeros((4, 4)))


def test_reality_majorana_exact():
    rep = reality_check(1.0, 0.7, majorana_rep())
    assert rep["max_imag_overall"] == 0.0
    assert rep["operator_real"]
    assert rep["max_imag"]["i_gamma0"] == 0.0


def test_reality_dirac_negative_control():
    rep = reality_check(1.0, 0.7, dirac_rep())
    assert rep["max_imag_overall"] > 0.5
    assert not rep["operator_real"]


def test_derived_variant_factorizes_exactly():
    gs = majorana_rep()
    for _ in range(1000):
        k = rng.standard_normal(4)
        m = rng.random() + 0.1
        n = rng.random()
        assert factorization_residual(k, m, n, "derived", gs) < 1e-12


def test_derived_variant_onshell_zero():
    gs = majorana_rep()
    for _ in range(50):
        m, n = rng.random() + 0.1, rng.random()
        kvec = rng.standard_normal(3)
        k0 = np.sqrt(np.sum(kvec**2) + m * m + n * n)
        res = momentum_residual(np.concatenate([[k0], kvec]), m, n, "derived", gs)
        assert np.abs(res).max() < 1e-12


def test_paper_variant_does_not_cancel_with_pseudoscalar_mass():
    gs = majorana_rep()
    worst = 0.0
    for _ in range(50):
        m, n = rng.random() + 0.1, rng.random() + 0.5
        kvec = rng.standard_normal(3)
        k0 = np.sqrt(np.sum(kvec**2) + m * m + n * n)
        res = momentum_residual(np.concatenate([[k0], kvec]), m, n, "paper", gs)
        worst = max(worst, float(np.abs(res).max()))
    assert worst > 1e-3  # measured, clearly non-zero


def test_paper_variant_reduces_to_derived_at_n_zero():
    gs = majorana_rep()
    k = rng.standard_normal(4)
    a = momentum_residual(k, 0.7, 0.0, "paper", gs)
    b = momentum_residual(k, 0.7, 0.0, "derived", gs)
    assert np.array_equal(a, b)


def test_p_m_kernel_residuals():
    spec = LatticeSpec(L=8, T=6, a=0.5, epsilon=1.0)
    _, rep_derived = p_m_kernel(spec, m=0.8, n=0.4, variant="derived")
    assert rep_derived["mode_residual_max"] < 1e-12
    _, rep_paper = p_m_kernel(spec, m=0.8, n=0.4, variant="paper")
    assert rep_paper["mode_residual_max"] > rep_derived["mode_residual_max"]
    # the derived-variant position-space kernel is essentially real in the
    # Majorana representation; the paper variant carries an imaginary
    # gamma5 n part (measured, not asserted against a fixed threshold)
    assert rep_derived["max_imag_fraction"] < rep_paper["max_imag_fraction"]


def test_p_m_reduces_to_symmetric_sea_at_n_zero():
    # with n = 0 the integrand matches the Theta-free counterpart of the
    # sea kernel: both k0 signs of (kslash + m)/(2 omega)
    from octo_cfs.lattice import _mode_matrices, mode_sum

    for spec in (LatticeSpec(L=6, T=4, a=0.5, epsilon=1.0),
                 LatticeSpec(L=4, T=4, a=0.5, epsilon=1.0, dims="1+3")):
        m = 0.9
        gs = majorana_rep()
        pm, _ = p_m_kernel(spec, m=m, n=0.0, variant="paper")
        # the negative-energy half as `sea_kernel` sums it, in the Majorana representation
        omegas, _, mats = _mode_matrices(m, spec, gs)
        dts = np.arange(-(spec.T - 1), spec.T) * spec.a
        sea_neg = mode_sum(np.exp(1j * np.outer(dts, omegas)), mats, spec)
        # rebuild the positive-energy half directly from modes
        kvecs = spec.momenta()
        dxs = np.arange(spec.L) * spec.a
        d = spec.spatial_dims
        xs = np.stack(np.meshgrid(*([dxs] * d), indexing="ij"), axis=-1).reshape(-1, d)
        mats = np.array(
            [
                (gs.slash(np.concatenate([[w], k])) + m * np.eye(4))
                * np.exp(-spec.epsilon * w)
                / (2.0 * w)
                for k, w in zip(kvecs, omegas)
            ]
        )
        tp = np.exp(-1j * np.outer(dts, omegas))
        sp = np.exp(1j * xs @ kvecs.T)
        pos = np.einsum("tk,xk,kab->txab", tp, sp, mats) / (spec.L * spec.a) ** d
        assert np.allclose(pm.rel, sea_neg + pos.reshape(pm.rel.shape), atol=1e-12)


def test_p_m_requires_positive_shell():
    spec = LatticeSpec(L=4, T=4, a=0.5, epsilon=1.0)
    with pytest.raises(ValueError):
        p_m_kernel(spec, m=0.0, n=0.0, variant="derived")


def test_check_report_structure():
    rep = check_report(seed=1)
    assert rep["clifford_residual_majorana"] == 0.0
    assert rep["derived_factorization_max_residual"] < 1e-12
    assert rep["paper_variant_onshell_residuals"]["max"] > 0.0
    assert set(rep["p_m"].keys()) == {"paper", "derived"}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
       variant=st.sampled_from(["paper", "derived"]))
def test_batched_residuals_equal_the_one_sample_calls_bitwise(data, shape, variant):
    k = data.draw(arrays(np.float64, (*shape, 4), elements=st.floats(-1e3, 1e3)))
    m, n = (data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1e3))) for _ in range(2))
    gs = majorana_rep()
    batched = momentum_residual(k, m, n, variant, gs), factorization_residual(k, m, n, variant, gs)
    for idx in np.ndindex(shape):
        single = momentum_residual(k[idx], m[idx], n[idx], variant, gs), factorization_residual(
            k[idx], m[idx], n[idx], variant, gs)
        for got, want in zip(batched, single, strict=True):
            got, want = np.asarray(got[idx]), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_report_oracle(seed: int) -> dict:
    """The random part of `check_report`, one sample at a time as it was first written."""
    rng = np.random.default_rng(seed)
    gs = majorana_rep()
    worst_derived = 0.0
    paper_onshell = []
    for _ in range(N_RANDOM):
        k = rng.standard_normal(4)
        m, n = rng.random() + 0.1, rng.random()
        worst_derived = max(worst_derived, float(factorization_residual(k, m, n, "derived", gs)))
    for _ in range(16):
        m, n = rng.random() + 0.1, rng.random() + 0.1
        kvec = rng.standard_normal(3)
        k0 = np.sqrt(np.sum(kvec**2) + m * m + n * n)
        k = np.concatenate([[k0], kvec])
        paper_onshell.append(float(np.abs(momentum_residual(k, m, n, "paper", gs)).max()))
    return {"derived_factorization_max_residual": worst_derived,
            "paper_variant_onshell_residuals": {"max": max(paper_onshell), "min": min(paper_onshell)}}


def test_check_report_equals_the_per_sample_oracle():
    for seed in range(21):
        rep = check_report(seed=seed, variant="derived")
        oracle = _check_report_oracle(seed)
        assert {key: rep[key] for key in oracle} == oracle
