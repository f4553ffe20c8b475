import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octo_cfs import cfs
from octo_cfs.gammas import dirac_rep, majorana_rep
from octo_cfs import lattice
from octo_cfs.lattice import (
    AUX_SUMMANDS,
    SEA_LABELS,
    VACUUM_COEFFICIENTS,
    LatticeSpec,
    MassData,
    SectorKernel,
    _mode_matrices,
    build_vacuum_direct,
    chiral_sandwich,
    dirac_residual,
    dirac_residual_single,
    left_algebra_action,
    load_header,
    local_correlation,
    local_spectra,
    materialize,
    mode_onshell_residuals,
    mode_sum,
    occupied_modes,
    read_seas,
    save_kernels,
    sea_kernel,
    sector_bases,
    sector_norms,
    to_direct,
    to_octonionic,
    vacuum_local_correlation,
    vacuum_seas,
)
from octo_cfs.mult_algebra import chain, left_unit
from octo_cfs.octonion import basis_product

rng = np.random.default_rng(53)

SPEC = LatticeSpec(L=8, T=6, a=0.5, epsilon=1.0)
MD = MassData(charged_masses=(0.5, 0.7, 0.9), neutrino_masses=(0.1, 0.2, 0.3), tau_reg=0.7)
#: The masses the mode tables, and so MassData, accept: 0, or from 1e-150, where the square is a normal float.
VACUUM_MASSES = st.one_of(st.just(0.0), st.floats(1e-150, 2.0))


def at(kernel, x, y) -> np.ndarray:
    """K(x, y) for lattice points x = (t, x1, ...), y likewise: the entry of `rel` at their displacement."""
    dt = int(x[0]) - int(y[0])
    space = tuple((int(x[1 + j]) - int(y[1 + j])) % kernel.spec.L for j in range(kernel.spec.spatial_dims))
    return kernel.rel[(dt + kernel.spec.T - 1,) + space]


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(L=7, T=6, a=0.5, epsilon=1.0)
    with pytest.raises(ValueError):
        LatticeSpec(L=8, T=6, a=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        LatticeSpec(L=8, T=6, a=0.5, epsilon=1.0, dims="2+1")
    assert SPEC.momenta().shape == (8, 1)
    s3 = LatticeSpec(L=4, T=4, a=1.0, epsilon=2.0, dims="1+3")
    assert s3.momenta().shape == (64, 3)


def test_lattice_and_mass_data_reject_non_finite_or_mistyped_values():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"a": nan}, {"a": inf}, {"epsilon": nan}, {"epsilon": inf}, {"a": "0.5"}, {"T": inf}):
        with pytest.raises(ValueError, match="must be a finite real number"):
            LatticeSpec(**{"L": 8, "T": 6, "a": 0.5, "epsilon": 1.0, **kwargs})
    ok = {"charged_masses": (0.5, 0.7, 0.9), "neutrino_masses": (0.1, 0.2, 0.3)}
    # a nonzero mass below 1e-150 has a subnormal or zero square, which loses the k = 0 mode's omega
    for kwargs in ({"charged_masses": (nan, 0.7, 0.9)}, {"neutrino_masses": (0.1, inf, 0.3)},
                   {"charged_masses": (-0.5, 0.7, 0.9)}, {"neutrino_masses": (0.1, 1e-160, 0.3)}):
        with pytest.raises(ValueError, match="masses must be finite and non-negative"):
            MassData(**{**ok, **kwargs})
    with pytest.raises(ValueError, match="tau_reg must be a finite real number"):
        MassData(**ok, tau_reg=nan)


def test_every_mass_entry_point_takes_the_mass_data_bound():
    # at 1.19e-159 the kernel and mode paths disagreed by 0.17 on the k = 0 mode's spectrum; above 1e150 the
    # square of the mass overflows and the seas are NaN
    spec = LatticeSpec(L=2, T=3, a=0.25, epsilon=2.0)
    entry_points = (lambda m: MassData(charged_masses=(m, 0.5, 0.7), neutrino_masses=(0.1, 0.2, 0.3)),
                    lambda m: sea_kernel(m, spec),
                    lambda m: mode_onshell_residuals(m, spec),
                    lambda m: occupied_modes([m], spec, 0.7),
                    lambda m: local_correlation([m, 0.5, 0.7], spec, (1, 0)))
    for call in entry_points:
        for mass in (1.19e-159, -0.5, float("nan"), 1.01e150, float("inf")):
            with pytest.raises(ValueError, match="masses must be finite and non-negative, 0 or >= 1e-150"):
                call(mass)
        for mass in (0.0, 1e-150, 1e150):
            call(mass)


def test_mode_onshell_factorization_exact():
    for m in (0.0, 0.5, 1.3):
        assert mode_onshell_residuals(m, SPEC).max() < 1e-12


def direct_sea_kernel(mass, spec):
    """Per-mode matrices and the direct 1+1 / 1+3 einsum mode sum: the oracle for the FFT path."""
    gammas = dirac_rep()
    kvecs = spec.momenta()
    omegas = np.sqrt(np.sum(kvecs * kvecs, axis=1) + mass * mass)
    mats = np.zeros((len(kvecs), 4, 4), dtype=complex)
    for i, (k, w) in enumerate(zip(kvecs, omegas)):
        if w != 0.0:
            mats[i] = (gammas.slash(np.concatenate([[-w], k])) + mass * np.eye(4)) / (2.0 * w)
    mats *= np.exp(-spec.epsilon * omegas)[:, None, None]
    dts = np.arange(-(spec.T - 1), spec.T) * spec.a
    time_phase = np.exp(1j * np.outer(dts, omegas))
    dxs = np.arange(spec.L) * spec.a
    if spec.spatial_dims == 1:
        space_phase = np.exp(1j * np.outer(dxs, kvecs[:, 0]))
        rel = np.einsum("tk,xk,kab->txab", time_phase, space_phase, mats)
    else:
        phases = [np.exp(1j * np.outer(dxs, kvecs[:, j])) for j in range(3)]
        rel = np.einsum(
            "tk,xk,yk,zk,kab->txyzab", time_phase, phases[0], phases[1], phases[2], mats
        )
    return rel / (spec.L * spec.a) ** spec.spatial_dims


@st.composite
def lattice_specs(draw):
    dims = draw(st.sampled_from(["1+1", "1+3"]))
    L = 2 * draw(st.integers(1, 8 if dims == "1+1" else 3))
    a = draw(st.floats(0.25, 1.0))
    eps = draw(st.floats(a, 3.0))
    return LatticeSpec(L=L, T=draw(st.integers(3, 6)), a=a, epsilon=eps, dims=dims)


@settings(max_examples=40, deadline=None)
@given(
    spec=lattice_specs(),
    mass=VACUUM_MASSES,
)
def test_sea_kernel_matches_direct_mode_sum(spec, mass):
    oracle = direct_sea_kernel(mass, spec)
    rel = sea_kernel(mass, spec).rel
    assert np.abs(rel - oracle).max() <= 1e-12 * np.abs(oracle).max()


def ifftshift_mode_sum(time_phase, mats, spec):
    """The grid of terms shifted by ifftshift, transformed and scaled into new arrays: the oracle for mode_sum."""
    d = spec.spatial_dims
    grid = (len(time_phase),) + (spec.L,) * d + (4, 4)
    terms = (time_phase[:, :, None, None] * mats).reshape(grid)
    axes = tuple(range(1, 1 + d))
    rel = np.fft.ifftn(np.fft.ifftshift(terms, axes=axes), axes=axes)
    return rel * (spec.L**d / (spec.L * spec.a) ** d)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(["1+1", "1+3"]),
    L=st.sampled_from([2, 4, 6, 8]),
    T=st.integers(3, 6),
    a=st.floats(0.25, 1.0),
    mass=VACUUM_MASSES,
)
def test_sea_kernel_matches_ifftshift_oracle_bitwise(dims, L, T, a, mass):
    spec = LatticeSpec(L=L, T=T, a=a, epsilon=a, dims=dims)
    omegas, _, mats = _mode_matrices(mass, spec, dirac_rep())
    dts = np.arange(-(spec.T - 1), spec.T) * spec.a
    oracle = ifftshift_mode_sum(np.exp(1j * np.outer(dts, omegas)), mats, spec)
    assert sea_kernel(mass, spec).rel.tobytes() == oracle.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    ks=st.lists(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4), min_size=1, max_size=6),
    n=st.sampled_from([2, 4]),
    majorana=st.booleans(),
)
def test_batched_slash_matches_per_vector(ks, n, majorana):
    gs = majorana_rep() if majorana else dirac_rep()
    ks = np.array(ks)[:, :n]
    batched = gs.slash(ks)
    assert batched.shape == (len(ks), 4, 4)
    for k, s in zip(ks, batched):
        assert np.array_equal(s, gs.slash(k))
        direct = k[0] * gs.gamma[0] - sum(k[j] * gs.gamma[j] for j in range(1, n))
        assert np.allclose(s, direct, rtol=0.0, atol=1e-14 * max(1.0, np.abs(k).max()))


def einsum_dirac_apply(kernel, mass, pseudo=0.0):
    """(i d-slash + i gamma5 n - m) K by rolls and one einsum per term: the oracle for _dirac_rows's stacked matmul."""
    spec, g = kernel.spec, kernel.gammas
    rel = kernel.rel
    dt = (rel[2:] - rel[:-2]) / (2.0 * spec.a)
    out = 1j * np.einsum("ab,...bc->...ac", g.gamma[0], dt)
    inner = rel[1:-1]
    for j in range(spec.spatial_dims):
        ax = 1 + j
        dj = (np.roll(inner, -1, axis=ax) - np.roll(inner, 1, axis=ax)) / (2.0 * spec.a)
        out += 1j * np.einsum("ab,...bc->...ac", g.gamma[1 + j], dj)
    mass_term = mass * np.eye(4) - 1j * pseudo * g.gamma5
    out -= np.einsum("ab,...bc->...ac", mass_term, inner)
    return out


def einsum_mirror(kernel):
    """gamma0 K(-d)^dag gamma0 by flip, roll and einsum: the oracle for hermiticity_residual's reflection."""
    g0 = kernel.gammas.gamma[0]
    flipped = kernel.rel[::-1]
    for ax in range(1, 1 + kernel.spec.spatial_dims):
        flipped = np.flip(flipped, axis=ax)
        flipped = np.roll(flipped, 1, axis=ax)
    return np.einsum("ab,...cb,cd->...ad", g0, np.conj(flipped), g0)


def whole_kernel_hermiticity_residual(kernel):
    """hermiticity_residual's reflection applied to the whole kernel at once: the oracle for its per-offset loop."""
    g0, L = kernel.gammas.gamma[0], kernel.spec.L
    mirrored = kernel.rel[::-1]
    for ax in range(1, 1 + kernel.spec.spatial_dims):
        mirrored = np.take(mirrored, -np.arange(L) % L, axis=ax)
    mirrored = g0 @ np.conj(mirrored).swapaxes(-1, -2) @ g0
    return float(np.abs(mirrored - kernel.rel).max())


def einsum_occupied_spinors(masses, spec, tau_reg):
    """The spinor column of occupied_modes with the chiral projectors applied by einsum, one at a time."""
    gammas = dirac_rep()
    n_sites = spec.T * spec.n_spatial
    spinor = [np.zeros((0, 4), complex)]
    for mass in masses:
        _, _, kslash = lattice.mode_table(mass, spec, gammas)
        vals, vecs = np.linalg.eigh((kslash + mass * np.eye(4)) @ gammas.gamma[0])
        u = np.einsum("ab,kbr->kra", gammas.chiral_left(), vecs)
        u += tau_reg * np.einsum("ab,kbr->kra", gammas.chiral_right(), vecs)
        nrm = np.linalg.norm(u, axis=2)
        keep = (np.abs(vals) > 1e-9 * np.abs(vals).max(axis=1, keepdims=True)) & (nrm >= 1e-14)
        k, r = np.nonzero(keep)
        spinor.append(u[k, r] / (nrm[k, r, None] * np.sqrt(n_sites)))
    return np.concatenate(spinor)


@st.composite
def random_kernels(draw, count=1):
    """`count` random complex kernels on one small 1+1 or 1+3 lattice; none is gamma0-Hermitian."""
    dims = draw(st.sampled_from(["1+1", "1+3"]))
    L, T = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([3, 4, 5]))
    a = draw(st.floats(0.25, 1.0))
    spec = LatticeSpec(L=L, T=T, a=a, epsilon=a, dims=dims)
    gs = majorana_rep() if draw(st.booleans()) else dirac_rep()
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2 * T - 1,) + (L,) * spec.spatial_dims + (4, 4)
    return [SectorKernel(spec, r.normal(size=shape) + 1j * r.normal(size=shape), gammas=gs) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(
    kernels=random_kernels(),
    mass=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    pseudo=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
)
def test_dirac_apply_matches_einsum_oracle(kernels, mass, pseudo):
    (k,) = kernels
    out, oracle = lattice._dirac_rows(k, k.rel, mass, pseudo), einsum_dirac_apply(k, mass, pseudo=pseudo)
    assert out.shape == oracle.shape == k.rel[1:-1].shape
    # every entry sums 4(d+2) products, each below max|K| (1/a + m + |n|)
    scale = np.abs(k.rel).max() * (1.0 / k.spec.a + mass + abs(pseudo))
    assert np.abs(out - oracle).max() <= 1e-14 * scale
    # the residual, taken one time offset at a time, is the max over the whole application, bit for bit
    assert dirac_residual_single(k, mass, pseudo) == float(np.abs(out).max())


@settings(max_examples=60, deadline=None)
@given(kernels=random_kernels())
def test_hermiticity_residual_matches_einsum_oracle(kernels):
    (k,) = kernels
    mirrored = einsum_mirror(k)
    oracle = float(np.abs(mirrored - k.rel).max())
    assert oracle > 0.1  # a random kernel is far from gamma0-Hermitian, so a residual of 0 fails here
    assert abs(k.hermiticity_residual() - oracle) <= 1e-15 * np.abs(k.rel).max()
    assert k.hermiticity_residual() == whole_kernel_hermiticity_residual(k)
    # its gamma0-Hermitian part has a vanishing residual
    part = SectorKernel(k.spec, 0.5 * (k.rel + mirrored), gammas=k.gammas)
    assert part.hermiticity_residual() <= 1e-15 * np.abs(k.rel).max()


@settings(max_examples=40, deadline=None)
@given(kernels=random_kernels(count=6), tau_reg=st.floats(0.0, 1.0, exclude_min=True))
def test_sector_bases_match_einsum_sandwich(kernels, tau_reg):
    a, b = chiral_sandwich(tau_reg, kernels[0].gammas)
    nu_sum = kernels[0].rel + kernels[1].rel + kernels[2].rel
    before = [k.rel.copy() for k in kernels]
    nu, charged = sector_bases(kernels, tau_reg)
    # the sandwich factors have unit absolute row sums, so each entry rounds at the scale of max|sum|
    assert np.abs(nu.rel - np.einsum("ab,...bc,cd->...ad", a, nu_sum, b)).max() <= 4e-15 * np.abs(nu_sum).max()
    assert np.array_equal(charged.rel, kernels[3].rel + kernels[4].rel + kernels[5].rel)
    # the fold over a list or a one-pass iterator is the list form (s0 + s1) + s2 bit for bit, inputs untouched
    for folded in ((nu, charged), sector_bases(iter(kernels), tau_reg)):
        assert folded[0].rel.tobytes() == (a @ nu_sum @ b).tobytes()
        assert folded[1].rel.tobytes() == (kernels[3].rel + kernels[4].rel + kernels[5].rel).tobytes()
    assert all(np.array_equal(k.rel, old) for k, old in zip(kernels, before))


@settings(max_examples=30, deadline=None)
@given(spec=lattice_specs(), tau_reg=st.floats(0.0, 1.0, exclude_min=True),
       masses=st.lists(VACUUM_MASSES, min_size=1, max_size=3))
@example(spec=LatticeSpec(L=2, T=3, a=1.0, epsilon=1.0, dims="1+3"), tau_reg=1e-9, masses=[0.0])
def test_occupied_modes_match_einsum_oracle(spec, tau_reg, masses):
    spinor = occupied_modes(masses, spec, tau_reg).spinor
    oracle = einsum_occupied_spinors(masses, spec, tau_reg)
    assert spinor.shape == oracle.shape
    # unit spinors scaled by 1/sqrt(sites), each entry a sum of four products
    assert np.abs(spinor - oracle).max() <= 4e-15 / np.sqrt(spec.T * spec.n_spatial)


def test_kernel_hermiticity_identity():
    k = sea_kernel(0.7, SPEC)
    assert k.hermiticity_residual() < 1e-10
    # spot-check through the (x, y) accessor
    g0 = k.gammas.gamma[0]
    for _ in range(20):
        x = (int(rng.integers(SPEC.T)), int(rng.integers(SPEC.L)))
        y = (int(rng.integers(SPEC.T)), int(rng.integers(SPEC.L)))
        lhs = g0 @ at(k, y, x).conj().T @ g0
        assert np.abs(lhs - at(k, x, y)).max() < 1e-10


def test_neutrino_sector_hermiticity_with_chiral_breaking():
    nu, _ = sector_bases(vacuum_seas(MD, SPEC), 0.6)
    assert nu.hermiticity_residual() < 1e-10


def test_massless_trace_oracle():
    # analytically summed mode expression for tr(gamma0 K(0)) at m = 0
    k = sea_kernel(0.0, SPEC)
    x = (2, 3)
    val = np.trace(k.gammas.gamma[0] @ at(k, x, x))
    ks = SPEC.momenta()[:, 0]
    oracle = -2.0 * sum(
        np.exp(-SPEC.epsilon * abs(kv)) for kv in ks if kv != 0.0
    ) / (SPEC.L * SPEC.a)
    assert abs(val - oracle) < 1e-12 * max(1.0, abs(oracle))
    # and the plain spinor trace vanishes (tr kslash = 0)
    assert abs(np.trace(at(k, x, x))) < 1e-12


def test_massless_1p1_sea_solves_lattice_dirac_exactly():
    # in 1+1 the null mode structure makes the central-difference residual
    # vanish identically: (ktilde-slash - kslash) and kslash/2w are
    # proportional null projectors with zero product
    k = sea_kernel(0.0, SPEC)
    assert dirac_residual_single(k, 0.0) < 1e-14


def test_dirac_residual_second_order_convergence():
    m = 0.7
    res = []
    for L, T, a in [(8, 8, 1.0), (16, 16, 0.5), (32, 32, 0.25)]:
        spec = LatticeSpec(L=L, T=T, a=a, epsilon=2.0)
        res.append(dirac_residual_single(sea_kernel(m, spec), m))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_generation_sum_linearity():
    m = 0.6
    single = sea_kernel(m, SPEC)
    summed = sea_kernel(m, SPEC).rel + sea_kernel(m, SPEC).rel + sea_kernel(m, SPEC).rel
    assert np.allclose(summed, 3.0 * single.rel, atol=1e-14)


def test_build_vacuum_direct_sector_structure():
    direct = build_vacuum_direct(MD, SPEC)
    assert len(direct) == 8
    for s in direct[2:]:
        assert np.array_equal(direct[1].rel, s.rel)
    # chiral breaking witness: neutrino kernel differs from charged kernel
    # even at equal masses when tau_reg < 1
    md_eq = MassData(charged_masses=(0.5, 0.7, 0.9), neutrino_masses=(0.5, 0.7, 0.9), tau_reg=0.7)
    d_eq = build_vacuum_direct(md_eq, SPEC)
    assert np.abs(d_eq[0].rel - d_eq[1].rel).max() > 1e-6
    # symmetric degenerate case: tau_reg = 1 and equal masses
    md_sym = MassData(charged_masses=(0.5, 0.7, 0.9), neutrino_masses=(0.5, 0.7, 0.9), tau_reg=1.0)
    d_sym = build_vacuum_direct(md_sym, SPEC)
    assert np.array_equal(d_sym[0].rel, d_sym[1].rel)


def test_aux_block_structure():
    labels = ["nu_1", "nu_2", "nu_3", "nu_he"] + [f"c{a}_{b}" for a in range(1, 8) for b in (1, 2, 3)]
    assert list(AUX_SUMMANDS) == labels
    assert AUX_SUMMANDS["nu_he"] is None  # the zero right-handed high-energy slot
    for label, i in AUX_SUMMANDS.items():
        if label.startswith("c"):
            assert SEA_LABELS[i] == "c_" + label.split("_")[1]
        elif label != "nu_he":
            assert SEA_LABELS[i] == label


def test_dirac_residual_aux_summands():
    res = dirac_residual(vacuum_seas(MD, SPEC), MD)
    assert list(res) == list(AUX_SUMMANDS)
    assert res["nu_he"] == 0.0
    assert all(r < 0.05 for r in res.values())
    # summands of one sea share its residual
    assert res["c1_1"] == res["c4_1"] != res["c1_2"]


def test_dirac_residual_evaluates_each_sea_once(monkeypatch):
    seas = list(vacuum_seas(MD, SPEC))
    masses = MD.neutrino_masses + MD.charged_masses
    calls = []
    single = lattice.dirac_residual_single
    monkeypatch.setattr(lattice, "dirac_residual_single", lambda k, m: calls.append((k, m)) or single(k, m))
    res = dirac_residual(seas, MD)
    assert calls == list(zip(seas, masses))
    for label, i in AUX_SUMMANDS.items():
        assert res[label] == (0.0 if i is None else single(seas[i], masses[i]))


def test_octonionic_round_trip_bit_exact():
    direct = build_vacuum_direct(MD, SPEC)
    ok = to_octonionic(direct)
    back = to_direct(ok)
    assert len(back) == 8
    for a, b in zip(direct, back):
        assert a.rel is b.rel  # pure relabeling
    assert ok.neutrino is direct[0]
    assert np.array_equal(ok.coefficient(0).rel, direct[0].rel)
    for i in range(1, 8):
        assert np.array_equal(ok.coefficient(i).rel, direct[i].rel)


def test_left_algebra_action_identity_and_fano_row():
    direct = build_vacuum_direct(MD, SPEC)
    ok = to_octonionic(direct)
    same = left_algebra_action(np.eye(8), ok)
    for i in range(8):
        assert np.array_equal(same.coefficient(i).rel, ok.coefficient(i).rel)

    # action of L_{e1} on a kernel supported in sector j lands in sector k
    # with the sign from the Fano table row of e1
    zero = np.zeros_like(direct[0].rel)
    for j in range(8):
        sectors = [SectorKernel(SPEC, zero.copy()) for _ in range(8)]
        sectors[j] = SectorKernel(SPEC, direct[1].rel.copy())
        okj = to_octonionic(sectors)
        acted = left_algebra_action(left_unit(1), okj)
        k, sign = basis_product(1, j)
        for i in range(8):
            if i == k:
                assert np.allclose(acted.coefficient(i).rel, sign * direct[1].rel)
            else:
                assert np.abs(acted.coefficient(i).rel).max() == 0.0


def test_left_algebra_action_composition():
    direct = build_vacuum_direct(MD, SPEC)
    ok = to_octonionic(direct)
    for _ in range(5):
        op1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = left_algebra_action(op1 @ op2, ok)
        rhs = left_algebra_action(op1, left_algebra_action(op2, ok))
        for i in range(8):
            d = np.abs(lhs.coefficient(i).rel - rhs.coefficient(i).rel).max()
            assert d < 1e-12 * max(1.0, np.abs(lhs.coefficient(i).rel).max())


def test_local_correlation_rank_and_signature():
    f = local_correlation([0.7], SPEC, (2, 3))
    assert f.matrix.shape == (16, 16)
    cut = 1e-9 * np.abs(f.eigenvalues).max()
    assert np.sum(f.eigenvalues > cut) <= 2
    assert np.sum(f.eigenvalues < -cut) <= 2
    assert np.linalg.matrix_rank(f.matrix, tol=cut) <= 4


def test_local_correlation_translation_invariance():
    pts = [(0, 0), (2, 5), (5, 1), (3, 7)]
    spectra = []
    for x in pts:
        f = local_correlation(list(MD.charged_masses), SPEC, x)
        spectra.append(np.sort(f.eigenvalues))
    for s in spectra[1:]:
        assert np.allclose(s, spectra[0], atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    dims_l=st.one_of(st.tuples(st.just("1+1"), st.sampled_from([2, 4, 6, 8, 10])), st.just(("1+3", 4))),
    T=st.integers(3, 5),
    masses=st.lists(VACUUM_MASSES, min_size=1, max_size=3),
    tau_reg=st.floats(-8.0, 0.0).map(lambda e: 10.0**e),  # log-uniform in (0, 1]
    x=st.lists(st.integers(-10, 10), min_size=4, max_size=4),
)
def test_local_correlation_matches_dense_spectrum(dims_l, T, masses, tau_reg, x):
    dims, L = dims_l
    spec = LatticeSpec(L=L, T=T, a=0.5, epsilon=1.0, dims=dims)
    f = local_correlation(masses, spec, x[: 1 + spec.spatial_dims], tau_reg=tau_reg)
    m = f.psi.shape[1]
    oracle = cfs.validate_point(f.matrix, cfs.SystemConfig(f=m, n=2, kappa=1.0)).eigenvalues
    top = np.abs(oracle).max()
    cut = cfs.RANK_TOL * max(1.0, top)

    def signature(w):
        return int(np.sum(w > cut)), int(np.sum(w < -cut)), int(np.sum(np.abs(w) > cut))

    assert f.matrix.shape == (m, m) and len(f.eigenvalues) == m
    assert np.all(np.diff(f.eigenvalues) >= 0.0)
    assert signature(f.eigenvalues) == signature(oracle)
    assert np.count_nonzero(f.eigenvalues) == signature(oracle)[2]  # exact zeros outside the rank
    # both paths round at the scale |psi|^2 of the terms of psi^dag gamma0 psi;
    # it equals max|w| at tau_reg = 1 and exceeds it where chiral
    # regularization makes F a cancellation of larger terms
    scale = max(top, np.linalg.norm(f.psi, 2) ** 2)
    assert np.abs(f.eigenvalues - np.where(np.abs(oracle) > cut, oracle, 0.0)).max() <= 1e-12 * scale


def signature(w, cut):
    return int(np.sum(w > cut)), int(np.sum(w < -cut)), int(np.sum(np.abs(w) > cut))


@settings(max_examples=40, deadline=None)
@given(
    spec=lattice_specs(),
    neutrino=st.lists(VACUUM_MASSES, min_size=3, max_size=3).filter(any),
    charged=st.lists(VACUUM_MASSES, min_size=3, max_size=3),
    x=st.lists(st.integers(-10, 10), min_size=4, max_size=4),
)
def test_local_spectra_match_local_correlation_at_tau_one(spec, neutrino, charged, x):
    md = MassData(charged_masses=charged, neutrino_masses=neutrino)
    spectra = local_spectra([(1, 0), (0, 1)], vacuum_seas(md, spec), md.tau_reg)
    for w, masses in zip(spectra, (neutrino, charged)):
        oracle = local_correlation(masses, spec, x[: 1 + spec.spatial_dims]).eigenvalues
        assert len(w) == 4 and np.all(np.diff(w) >= 0.0)
        cut = cfs.RANK_TOL * max(1.0, np.abs(oracle).max())
        assert signature(w, cut) == signature(oracle, cut)
        assert np.abs(w[w != 0] - oracle[oracle != 0]).max(initial=0.0) <= 1e-12 * np.abs(oracle).max()


def test_local_spectra_are_the_materialized_sectors_at_zero_displacement():
    # the convention below tau_reg = 1: the stored E_nu = a (sum of the seas) b defines the neutrino sector
    bases = sector_bases(vacuum_seas(MD, SPEC), MD.tau_reg)
    rows = np.vstack([chain([1, 2]).astype(complex) @ VACUUM_COEFFICIENTS, [[0.3, 0.5], [0.0, 0.0]]])
    spectra = local_spectra(rows, vacuum_seas(MD, SPEC), MD.tau_reg)
    for row, w in zip(rows, spectra):
        block = materialize([row], bases)[0].rel[SPEC.T - 1, 0]
        oracle = np.sort(np.linalg.eigvals(block).real) * SPEC.a / SPEC.T
        cut = cfs.RANK_TOL * max(1.0, np.abs(oracle).max())
        assert np.abs(w - np.where(np.abs(oracle) > cut, oracle, 0.0)).max() <= 1e-14 * np.abs(oracle).max()
    assert not spectra[-1].any()
    # the right-handed parts shrink by tau_reg: the spectrum is not the mode path's, which normalizes each mode again
    mode = local_correlation(MD.neutrino_masses, SPEC, (0, 0), MD.tau_reg).eigenvalues
    assert np.abs(spectra[0] - mode[mode != 0]).max() > 0.3 * np.abs(spectra[0]).max()  # 0.34 on this lattice
    with pytest.raises(cfs.SignatureViolation, match="non-real spectrum"):
        local_spectra([(1j, 0)], vacuum_seas(MD, SPEC), MD.tau_reg)


def test_local_correlation_empty_sea_is_zero():
    f = local_correlation([], SPEC, (1, 1))
    assert f.matrix.shape == (0, 0)


def test_mode_weights_monotone_in_epsilon():
    spec_tight = LatticeSpec(L=8, T=6, a=0.5, epsilon=0.5)
    w_tight = occupied_modes([0.7], spec_tight, 1.0).weight
    w_loose = occupied_modes([0.7], SPEC, 1.0).weight
    assert np.all(w_tight > w_loose)


def test_octonionic_and_direct_scalars_agree():
    direct = build_vacuum_direct(MD, SPEC)
    ok = to_octonionic(direct)
    back = to_direct(ok)
    # Dirac residuals of the charged sector, local correlation spectra, and
    # causal classification computed through either representation agree
    r1 = dirac_residual_single(direct[1], 0.0)
    r2 = dirac_residual_single(back[1], 0.0)
    assert r1 == r2
    f_direct = vacuum_local_correlation(MD, SPEC, (1, 2))
    f_ok = vacuum_local_correlation(MD, SPEC, (1, 2))
    assert np.allclose(np.sort(f_direct.eigenvalues), np.sort(f_ok.eigenvalues), atol=1e-12)
    cfg = cfs.SystemConfig(f=f_direct.matrix.shape[0], n=16, kappa=1.0)
    g = vacuum_local_correlation(MD, SPEC, (3, 4))
    assert cfs.causal_class(f_direct, g, cfg) == cfs.causal_class(f_ok, g, cfg)


def test_vacuum_local_correlation_signature():
    f = vacuum_local_correlation(MD, SPEC, (0, 0))
    cut = 1e-9 * np.abs(f.eigenvalues).max()
    assert np.sum(f.eigenvalues > cut) <= 16
    assert np.sum(f.eigenvalues < -cut) <= 16


def test_vacuum_local_correlation_three_spatial_dimensions():
    # the 8M x 8M block-diagonal matrix (24576^2, 9 GiB) is never built
    spec3 = LatticeSpec(L=8, T=8, a=0.5, epsilon=2.0, dims="1+3")
    f = vacuum_local_correlation(MD, spec3, (2, 3, 1, 0))
    w = f.eigenvalues
    assert len(w) == 8 * 3072
    assert (np.sum(w > 0), np.sum(w < 0), np.count_nonzero(w)) == (16, 16, 32)
    assert "matrix" not in vars(f)


def test_three_spatial_dimensions():
    spec3 = LatticeSpec(L=4, T=4, a=1.0, epsilon=2.0, dims="1+3")
    assert mode_onshell_residuals(0.6, spec3).max() < 1e-12
    k = sea_kernel(0.6, spec3)
    assert k.rel.shape == (7, 4, 4, 4, 4, 4)
    assert k.hermiticity_residual() < 1e-10
    x = (1, 2, 3, 0)
    y = (2, 0, 1, 3)
    g0 = k.gammas.gamma[0]
    assert np.abs(g0 @ at(k, y, x).conj().T @ g0 - at(k, x, y)).max() < 1e-10
    f1 = local_correlation([0.6], spec3, (0, 0, 0, 0))
    f2 = local_correlation([0.6], spec3, (2, 1, 3, 2))
    assert np.allclose(np.sort(f1.eigenvalues), np.sort(f2.eigenvalues), atol=1e-10)
    cut = 1e-9 * np.abs(f1.eigenvalues).max()
    assert np.sum(f1.eigenvalues > cut) <= 2
    assert np.sum(f1.eigenvalues < -cut) <= 2


def test_minimal_time_window():
    spec = LatticeSpec(L=4, T=3, a=0.5, epsilon=1.0)
    k = sea_kernel(0.8, spec)
    assert k.rel.shape[0] == 5
    assert np.isfinite(dirac_residual_single(k, 0.8))


def load_kernels(path):
    """A whole container at once: (header, the six seas, the 8 x 2 sector coefficients)."""
    header = load_header(path)
    seas = list(read_seas(path, LatticeSpec.from_json(header["lattice"])))
    return header, seas, cfs.complex_matrix_from_json(header["coefficients"])


def test_container_round_trip_and_determinism(tmp_path):
    seas = list(vacuum_seas(MD, SPEC))
    coefficients = left_unit(3) @ VACUUM_COEFFICIENTS * (0.5 - 0.25j)
    p1 = tmp_path / "vac1.okn"
    p2 = tmp_path / "vac2.okn"
    bases = save_kernels(p1, SPEC, MD, seas, coefficients)
    save_kernels(p2, SPEC, MD, iter(seas), coefficients)
    assert p1.read_bytes() == p2.read_bytes()
    assert sorted(tmp_path.iterdir()) == [p1, p2]  # no temporary file is left beside them
    for k, oracle in zip(bases, sector_bases(seas, MD.tau_reg)):
        assert np.array_equal(k.rel, oracle.rel)
    header, loaded, loaded_coefficients = load_kernels(p1)
    assert load_header(p1) == header
    assert header["format"] == 2
    assert header["seas"] == list(SEA_LABELS)
    assert header["lattice"]["L"] == SPEC.L
    assert header["masses"]["tau_reg"] == MD.tau_reg
    assert "epsilon" not in header and "tau_reg" not in header  # each value is written once, in its own object
    assert "local_correlation_convention" in header
    assert np.array_equal(loaded_coefficients, coefficients)
    for k, sea in zip(loaded, seas):
        assert np.array_equal(k.rel, sea.rel)
    with zipfile.ZipFile(p1) as zf:
        names = zf.namelist()
        assert names == ["header.json"] + [f"{label}.npy" for label in SEA_LABELS]
        assert all(info.compress_type == zipfile.ZIP_STORED for info in zf.infolist())


@settings(max_examples=30, deadline=None)
@given(
    spec=lattice_specs(),
    tau_reg=st.floats(0.0, 1.0, exclude_min=True),
    neutrino=st.lists(VACUUM_MASSES, min_size=3, max_size=3).filter(any),
    charged=st.lists(VACUUM_MASSES, min_size=3, max_size=3),
)
@example(spec=LatticeSpec(L=6, T=3, a=0.375, epsilon=3.0, dims="1+3"), tau_reg=0.5,
         neutrino=[0.0, 0.0, 0.0625], charged=[0.0, 0.0, 0.0])
@example(spec=LatticeSpec(L=6, T=3, a=0.296875, epsilon=2.65625, dims="1+3"), tau_reg=0.96875,
         neutrino=[0.0, 0.8125, 0.0], charged=[0.0, 0.0, 0.0])
def test_materialized_sectors_match_tau_regularized_seas(spec, tau_reg, neutrino, charged):
    md = MassData(charged_masses=charged, neutrino_masses=neutrino, tau_reg=tau_reg)
    gs = dirac_rep()
    # oracle: each neutrino sea carries the chiral sandwich inside its own mode sum; from the program's
    # float64 mode matrices on it runs in long double, so its own rounding stays far below the bound
    a, b = (np.asarray(f, dtype=np.clongdouble) for f in chiral_sandwich(tau_reg, gs))
    dts = (np.arange(-(spec.T - 1), spec.T) * spec.a).astype(np.longdouble)  # the program's time grid, widened
    e0 = 0.0
    for m in neutrino:
        omegas, _, mats = _mode_matrices(m, spec, gs)
        e0 = e0 + mode_sum(np.exp(1j * np.outer(dts, omegas)), np.einsum("ab,kbc,cd->kad", a, mats, b), spec)
    charged_sum = sum(sea_kernel(m, spec).rel for m in charged)
    seas = list(vacuum_seas(md, spec))
    for k, m in zip(seas, md.neutrino_masses + md.charged_masses, strict=True):
        assert np.array_equal(k.rel, sea_kernel(m, spec).rel)
    sectors = materialize(VACUUM_COEFFICIENTS, sector_bases(seas, tau_reg))
    direct = build_vacuum_direct(md, spec)
    # both paths round in the FFT at the scale of the unsandwiched sum; the
    # sandwich (operator norm 1) then shrinks the right-handed part by tau_reg
    scale = np.abs(seas[0].rel + seas[1].rel + seas[2].rel).max()
    assert np.abs(sectors[0].rel - e0).max() <= 1e-15 * scale
    for k in sectors[1:]:
        assert np.array_equal(k.rel, charged_sum)
    for k, d in zip(sectors, direct):
        assert np.array_equal(k.rel, d.rel)


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(st.floats(-10.0, 10.0), min_size=160, max_size=160),
)
def test_coefficient_action_matches_left_algebra_action(parts):
    parts = np.array(parts)
    op = (parts[:64] + 1j * parts[64:128]).reshape(8, 8)
    c = (parts[128:144] + 1j * parts[144:]).reshape(8, 2)
    bases = sector_bases(vacuum_seas(MD, SPEC), MD.tau_reg)
    sectors = materialize(c, bases)
    oracle = left_algebra_action(op, to_octonionic(sectors))
    # both paths round at the scale sum_j |op_ij| max|e_j| of the sum the oracle forms
    scales = np.abs(op) @ np.array([np.abs(k.rel).max() for k in sectors])
    for i, k in enumerate(materialize(op @ c, bases)):
        assert np.abs(k.rel - oracle.coefficient(i).rel).max() <= 1e-15 * scales[i]


def test_sector_norms_equal_per_row_materialize(monkeypatch):
    bases = sector_bases(vacuum_seas(MD, SPEC), MD.tau_reg)
    acted = chain([1, 2]).astype(complex) @ VACUUM_COEFFICIENTS
    c = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    c[5], c[7] = c[2], c[2]
    for coefficients, distinct in ((VACUUM_COEFFICIENTS, 2), (acted, 3), (c, 6)):
        calls = []
        single = lattice.materialize
        monkeypatch.setattr(lattice, "materialize", lambda rows, b: calls.append(rows) or single(rows, b))
        norms = sector_norms(coefficients, bases)
        monkeypatch.undo()
        assert len(calls) == distinct and all(len(rows) == 1 for rows in calls)
        assert norms == [float(np.abs(k.rel).max()) for k in materialize(coefficients, bases)]
        assert all(type(v) is float for v in norms)
