import json

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from octo_cfs import cfs
from octo_cfs.cfs import (
    LIGHTLIKE,
    RANK_TOL,
    SPACELIKE,
    TIMELIKE,
    DiscreteMeasure,
    NotHermitian,
    NotSpinConnectable,
    SignatureViolation,
    SystemConfig,
    action,
    causal_class,
    causal_classes,
    chain_spectra,
    check_signature,
    closed_chain,
    completeness_check,
    config_from_json,
    constraints,
    ell,
    json_array,
    kernel,
    kernel_residuals,
    lagrangian,
    lagrangian_first_term,
    lagrangians,
    measure_from_json,
    measure_to_json,
    merge_duplicates,
    pair_spectra,
    points_from_json,
    product_spectrum,
    random_point,
    spin_connections,
    spin_frames,
    spin_space,
    validate_point,
    validate_points,
)
from octo_cfs.cli import main

rng = np.random.default_rng(41)


def diag_point(cfg, *vals):
    m = np.zeros((cfg.f, cfg.f), dtype=complex)
    for i, v in enumerate(vals):
        m[i, i] = v
    return validate_point(m, cfg)


def stack_of(points, cfg):
    """The `Eigh` of a list of points, validated as one stack (N, f, f)."""
    return validate_points(np.array([p.matrix for p in points], dtype=complex).reshape(-1, cfg.f, cfg.f), cfg)


def eigh_of(a):
    """The `Eigh` of a stack (..., f, f) of matrices as it is, unvalidated, as a family's `point_fn` builds one."""
    return cfs.Eigh(a, *np.linalg.eigh(a))


def lag(x, y, cfg):
    """L(x, y) of one pair of points."""
    return lagrangians(stack_of([x], cfg), stack_of([y], cfg), cfg)[0, 0]


def multiset_distance(a, b):
    """Optimal-assignment distance between two complex multisets."""
    if len(a) != len(b):
        return np.inf
    if len(a) == 0:
        return 0.0
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].max()


CFG21 = SystemConfig(f=2, n=1, kappa=0.1)


def test_validate_point():
    assert np.trace(diag_point(CFG21, 1.0, -1.0).matrix) == 0.0
    with pytest.raises(SignatureViolation):
        diag_point(CFG21, 1.0, 1.0)
    zero = validate_point(np.zeros((2, 2)), CFG21)
    assert np.trace(zero.matrix) == 0.0
    with pytest.raises(NotHermitian):
        validate_point(np.array([[0.0, 1.0], [0.0, 0.0]]), CFG21)


def test_product_spectrum_examples():
    x = diag_point(CFG21, 1.0, -1.0)
    assert np.allclose(sorted(np.abs(product_spectrum(x, x, CFG21))), [1.0, 1.0])
    x2 = diag_point(CFG21, 2.0, -1.0)
    y = diag_point(CFG21, 1.0, -1.0)
    lam = product_spectrum(x2, y, CFG21)
    assert np.allclose(sorted(lam.real), [1.0, 2.0])
    assert np.allclose(lam.imag, 0.0)

    cfg42 = SystemConfig(f=4, n=2, kappa=0.1)
    xb = np.zeros((4, 4), dtype=complex)
    xb[0, 0], xb[1, 1] = 1.0, -1.0
    yb = np.zeros((4, 4), dtype=complex)
    yb[0, 1] = yb[1, 0] = 1.0
    lam = product_spectrum(validate_point(xb, cfg42), validate_point(yb, cfg42), cfg42)
    assert multiset_distance(lam, [1j, -1j, 0.0, 0.0]) < 1e-12


def test_product_spectrum_symmetric_in_arguments():
    cfg = SystemConfig(f=6, n=2, kappa=0.05)
    for _ in range(100):
        x = random_point(rng, cfg)
        y = random_point(rng, cfg)
        a = product_spectrum(x, y, cfg)
        b = product_spectrum(y, x, cfg)
        scale = max(1.0, np.abs(a).max())
        assert multiset_distance(a, b) < 1e-8 * scale


def test_scale_covariance():
    cfg = SystemConfig(f=5, n=2, kappa=0.05)
    for _ in range(20):
        x = random_point(rng, cfg)
        y = random_point(rng, cfg)
        c = float(rng.random() + 0.2)
        a = product_spectrum(x, y, cfg)
        b = product_spectrum(validate_point(c * x.matrix, cfg), y, cfg)
        assert multiset_distance(c * a, b) < 1e-8 * max(1.0, np.abs(b).max())


def test_lagrangian_worked_examples():
    kappa = 0.3
    cfg = SystemConfig(f=2, n=1, kappa=kappa)
    x = diag_point(cfg, 1.0, -1.0)
    assert abs(lag(x, x, cfg) - 4 * kappa) < 1e-14
    x2 = diag_point(cfg, 2.0, -1.0)
    assert abs(lag(x2, x, cfg) - (0.5 + 9 * kappa)) < 1e-14
    assert abs(lag(x2, x, cfg) - lag(x, x2, cfg)) < 1e-14


def test_lagrangian_spacelike_spectrum():
    # commuting full-rank pair with equal-moduli product spectrum
    cfg = SystemConfig(f=4, n=2, kappa=0.25)
    x = validate_point(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), cfg)
    y = validate_point(np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex), cfg)
    assert causal_class(x, y, cfg) == SPACELIKE
    assert lagrangian_first_term(x, y, cfg) < 1e-12
    assert abs(lag(x, y, cfg) - cfg.kappa * 4.0) < 1e-14  # kappa (4 * 0.5)^2


def test_product_spectrum_nonzero_count_matches_rank():
    cfg = SystemConfig(f=6, n=2, kappa=0.1)
    for _ in range(100):
        x = random_point(rng, cfg)
        y = random_point(rng, cfg)
        lam = product_spectrum(x, y, cfg)
        prod = x.matrix @ y.matrix
        scale = max(np.linalg.norm(x.matrix, 2) * np.linalg.norm(y.matrix, 2), 1e-300)
        rank = np.linalg.matrix_rank(prod, tol=1e-9 * scale)
        assert int(np.sum(lam != 0.0)) == rank


def test_causal_class_worked_examples():
    cfg = CFG21
    x = diag_point(cfg, 1.0, -1.0)
    assert causal_class(x, x, cfg) == SPACELIKE
    x2 = diag_point(cfg, 2.0, -1.0)
    assert causal_class(x2, x, cfg) == TIMELIKE
    cfg42 = SystemConfig(f=4, n=2, kappa=0.1)
    xb = np.zeros((4, 4), dtype=complex)
    xb[0, 0], xb[1, 1] = 1.0, -1.0
    yb = np.zeros((4, 4), dtype=complex)
    yb[0, 1] = yb[1, 0] = 1.0
    assert causal_class(validate_point(xb, cfg42), validate_point(yb, cfg42), cfg42) == LIGHTLIKE


def test_zero_product_is_spacelike():
    cfg = SystemConfig(f=4, n=1, kappa=0.1)
    x = diag_point(cfg, 1.0)
    yb = np.zeros((4, 4), dtype=complex)
    yb[2, 2] = 1.0
    y = validate_point(yb, cfg)
    assert causal_class(x, y, cfg) == SPACELIKE
    assert lag(x, y, cfg) == 0.0


def test_action_and_constraints():
    cfg = SystemConfig(f=3, n=1, kappa=0.2)
    x = diag_point(cfg, 1.0)
    volume, trace = constraints(stack_of([x], cfg), [1.0])
    assert volume == 1.0 and abs(trace - 1.0) < 1e-14

    # two equal points with weight 1/2 each: action reduces to L(x, x)
    a = action(stack_of([x, x], cfg), [0.5, 0.5], cfg=cfg)
    assert abs(a - lag(x, x, cfg)) < 1e-14

    y = diag_point(cfg, 1.0, -1.0)
    _, tr = constraints(stack_of([y], cfg), [1.0])
    assert tr == 0.0  # trace constraint violated, flagged by the caller


def test_discrete_measure_validation():
    cfg = CFG21
    x = diag_point(cfg, 1.0, 0.0)
    y = diag_point(cfg, 0.0, 1.0)
    m = DiscreteMeasure(points=stack_of([x, y], cfg), weights=[0.5, 0.5])
    assert constraints(m) == (1.0, 1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(points=stack_of([x, x], cfg), weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(points=stack_of([x, y], cfg), weights=[0.7, 0.7])
    # duplicates are points within operator-norm distance 1e-12
    with pytest.raises(ValueError):
        DiscreteMeasure(points=stack_of([x, y, diag_point(cfg, 1.0, 5e-13)], cfg), weights=[0.25, 0.25, 0.5])
    # operator norm 0.9e-12, Frobenius norm 0.9e-12 sqrt(2) > 1e-12: only the eigvalsh fallback rejects it
    with pytest.raises(ValueError):
        DiscreteMeasure(points=stack_of([x, validate_point(x.matrix + 0.9e-12 * np.eye(2), cfg)], cfg),
                        weights=[0.5, 0.5])
    DiscreteMeasure(points=stack_of([x, y, diag_point(cfg, 1.0, 1e-11)], cfg), weights=[0.25, 0.25, 0.5])
    pts, w = merge_duplicates(np.array([x.matrix, x.matrix, y.matrix]), [0.25, 0.25, 0.5])
    assert len(pts) == 2 and np.allclose(w, [0.5, 0.5])
    near = validate_point(x.matrix + 5e-10 * np.eye(2), cfg)  # within 1e-9 of x: x merges into it, the first
    pts, w = merge_duplicates(np.array([near.matrix, y.matrix, x.matrix]), [0.25, 0.5, 0.25])
    assert np.array_equal(pts, [near.matrix, y.matrix]) and w.tolist() == [0.5, 0.5]


def test_ell_single_point():
    kappa = 0.4
    x_m = np.diag([1.0, 0.0]).astype(complex)
    cfg0 = SystemConfig(f=2, n=1, kappa=kappa)
    x = validate_point(x_m, cfg0)
    s_val = lag(x, x, cfg0)
    cfg = SystemConfig(f=2, n=1, kappa=kappa, s=s_val)
    measure = DiscreteMeasure(points=stack_of([x], cfg), weights=[1.0])
    assert abs(ell(stack_of([x], cfg), measure, cfg)[0]) < 1e-14

    # disjoint support: only zero spectra contribute, ell = -s = 0 for s=0
    y = validate_point(np.diag([0.0, -1.0]).astype(complex), cfg0)
    assert ell(stack_of([y], cfg0), measure, cfg0)[0] == lag(y, x, cfg0)


def gram(s) -> np.ndarray:
    """Matrix of the spin product -<u|x v> in the basis of S_x."""
    return -np.diag(s.eigenvalues)


def signature(s) -> tuple:
    """(p, q) of the spin product: as many positive directions as x has negative eigenvalues."""
    return int(np.sum(s.eigenvalues < 0)), int(np.sum(s.eigenvalues > 0))


def test_spin_space_signatures():
    x = diag_point(CFG21, 1.0, -1.0)
    sx = spin_space(x)
    assert len(sx.eigenvalues) == 2 and signature(sx) == (1, 1)
    y = diag_point(CFG21, 1.0, 0.0)
    sy = spin_space(y)
    assert len(sy.eigenvalues) == 1 and signature(sy) == (0, 1)


def test_kernel_trace_identity():
    cfg = SystemConfig(f=6, n=2, kappa=0.1)
    for _ in range(50):
        x = random_point(rng, cfg)
        sx = spin_space(x)
        p_xx = kernel(sx, sx)
        assert abs(np.trace(p_xx) - np.trace(x.matrix)) < 1e-10
        # the spin product -<u, x v> in the basis of S_x is its gram matrix, real and diagonal
        assert np.abs(-sx.eigenvectors.conj().T @ x.matrix @ sx.eigenvectors - gram(sx)).max(initial=0.0) < 1e-10


def test_closed_chain_spectrum_matches_product():
    cfg = SystemConfig(f=8, n=2, kappa=0.1)
    for _ in range(100):
        x = random_point(rng, cfg)
        y = random_point(rng, cfg)
        sx, sy = spin_space(x), spin_space(y)
        a_xy = closed_chain(sx, sy)
        lam_chain = np.linalg.eigvals(a_xy)
        lam_prod = np.linalg.eigvals(x.matrix @ y.matrix)
        scale = max(1.0, np.abs(lam_prod).max())
        keep_c = lam_chain[np.abs(lam_chain) > 1e-9 * scale]
        keep_p = lam_prod[np.abs(lam_prod) > 1e-9 * scale]
        assert multiset_distance(keep_c, keep_p) < 1e-8 * scale


def test_orthogonal_supports_zero_chain():
    cfg = SystemConfig(f=4, n=1, kappa=0.1)
    x = validate_point(np.diag([1.0, 0, 0, 0]).astype(complex), cfg)
    y = validate_point(np.diag([0, 0, 1.0, 0]).astype(complex), cfg)
    sx, sy = spin_space(x), spin_space(y)
    assert np.allclose(closed_chain(sx, sy), 0.0)


def test_physical_wavefunction_and_completeness():
    cfg = SystemConfig(f=6, n=2, kappa=0.1)
    for _ in range(100):
        x = random_point(rng, cfg)
        y = random_point(rng, cfg)
        phi = rng.standard_normal(cfg.f) + 1j * rng.standard_normal(cfg.f)
        assert completeness_check(x, y, phi) < 1e-10

    # u orthogonal to image(x) has vanishing physical wave function
    x = validate_point(np.diag([1.0, 0.0, 0, 0, 0, 0]).astype(complex), cfg)
    u = np.zeros(6, dtype=complex)
    u[3] = 1.0
    sx = spin_space(x)
    assert np.allclose(sx.eigenvectors @ (sx.eigenvectors.conj().T @ u), 0.0)  # psi^u(x) = pi_x u


def test_single_point_projector_acts_as_x():
    cfg = SystemConfig(f=4, n=2, kappa=0.1)
    x = random_point(rng, cfg)
    sx = spin_space(x)
    phi = sx.eigenvectors @ (rng.standard_normal(len(sx.eigenvalues)) + 1j * rng.standard_normal(len(sx.eigenvalues)))
    p_xx = kernel(sx, sx)
    lhs = sx.eigenvectors @ (p_xx @ (sx.eigenvectors.conj().T @ phi))
    assert np.allclose(lhs, x.matrix @ phi, atol=1e-10)


def _timelike_pair(cfg):
    """Pair with positive-spectrum closed chain (safely spin-connectable)."""
    f = cfg.f
    g = rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f))
    q, _ = np.linalg.qr(g)
    pos = 1.0 + rng.random(cfg.n)
    neg = -(1.0 + rng.random(cfg.n))
    vals = np.concatenate([pos, neg, np.zeros(f - 2 * cfg.n)])
    x = validate_point((q * vals) @ q.conj().T, cfg)
    # small Hermitian perturbation of x keeps the chain spectrum near positive
    h = rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f))
    h = 0.05 * (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(x.matrix + h)
    keep = np.argsort(-np.abs(w))[: 2 * cfg.n]
    m = (v[:, keep] * w[keep]) @ v[:, keep].conj().T
    y = validate_point(m, cfg)
    return x, y


def connections(points, pairs, cfg):
    """`spin_connections` of the pairs (i, j) of `points`."""
    i, j = np.array(pairs).reshape(-1, 2).T
    return spin_connections(spin_frames(stack_of(points, cfg), cfg), i, j)


def test_spin_connection_identity_at_coincidence():
    cfg = SystemConfig(f=4, n=2, kappa=0.1)
    x = random_point(rng, cfg)
    (d,), resid = connections([x], [(0, 0)], cfg)
    assert np.array_equal(d, np.eye(len(spin_space(x).eigenvalues))) and resid[0] == 0.0


def test_spin_connection_unitary():
    cfg = SystemConfig(f=6, n=2, kappa=0.1)
    done = 0
    for _ in range(50):
        x, y = _timelike_pair(cfg)
        (d,), _ = connections([x, y], [(0, 1)], cfg)
        if isinstance(d, NotSpinConnectable):
            continue
        sx, sy = spin_space(x), spin_space(y)
        resid = np.linalg.norm(d.conj().T @ gram(sx) @ d - gram(sy))
        assert resid < 1e-8 * max(1.0, np.linalg.norm(gram(sy)))
        done += 1
    assert done >= 10


def test_holonomy_reversed_loop_inverts():
    cfg = SystemConfig(f=6, n=2, kappa=0.1)
    done = 0
    for _ in range(50):
        x, y = _timelike_pair(cfg)
        w, v = np.linalg.eigh(0.5 * (x.matrix + y.matrix))
        keep = np.argsort(-np.abs(w))[: 2 * cfg.n]
        z = validate_point((v[:, keep] * w[keep]) @ v[:, keep].conj().T, cfg)
        d, _ = connections([x, y, z], [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)], cfg)
        if any(isinstance(c, NotSpinConnectable) for c in d):
            continue
        # R(x, y, z) = D_xy D_yz D_zx and R(x, z, y) are inverse loops: their product is I
        assert np.allclose(d[0] @ d[1] @ d[2] @ d[3] @ d[4] @ d[5], np.eye(len(d[0])), atol=1e-7)
        done += 1
    assert done >= 10


def sqrtm_spin_connection(sx, sy, tol=1e-8):
    """Reference for `spin_connections`: the per-pair `scipy.linalg.sqrtm` path it replaced."""
    if len(sx.eigenvalues) != len(sy.eigenvalues):
        raise NotSpinConnectable("spin spaces have different dimensions")
    if np.array_equal(sx.points, sy.points):
        return np.eye(len(sx.eigenvalues), dtype=complex)
    p_xy = kernel(sx, sy)
    a_yx = kernel(sy, sx) @ p_xy  # closed chain on S_y
    try:
        d = p_xy @ np.linalg.inv(scipy.linalg.sqrtm(a_yx))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotSpinConnectable(f"polar factor does not exist: {exc}") from exc
    if not np.all(np.isfinite(d)):
        raise NotSpinConnectable("polar factor is singular")
    if np.linalg.norm(d.conj().T @ gram(sx) @ d - gram(sy)) > tol * max(1.0, np.linalg.norm(gram(sy))):
        raise NotSpinConnectable("unitarity residual exceeds tolerance")
    return d


def scaled_point(r, cfg, scale):
    """A `random_point` with its eigenvalues scaled by `scale`."""
    return validate_point(scale * random_point(r, cfg).matrix, cfg)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(0, 6), count=st.integers(2, 6),
       scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_spin_connections_match_sqrtm_oracle(n, extra, count, scale, seed):
    """Random points of random rank (so also mismatched dimensions and zero points), f <= 12."""
    cfg = SystemConfig(f=min(2 * n + extra, 12), n=n, kappa=0.1)
    r = np.random.default_rng(seed)
    pts = [scaled_point(r, cfg, scale) for _ in range(count)]
    pairs = [(i, j) for i in range(count) for j in range(count)]
    conns, resid = connections(pts, pairs, cfg)
    spaces = [spin_space(p) for p in pts]
    for (i, j), d, res in zip(pairs, conns, resid):
        sx, sy = spaces[i], spaces[j]
        try:
            ref = sqrtm_spin_connection(sx, sy)
        except NotSpinConnectable:
            assert isinstance(d, NotSpinConnectable)
            assert np.isnan(res)
            continue
        assert not isinstance(d, NotSpinConnectable), (i, j, d)
        # U_x D U_y* does not depend on the order or the phases of either basis; both paths lose
        # about eps * cond(A) of D to rounding, so a near-singular chain A widens the 1e-12
        amb, amb_ref = sx.eigenvectors @ d @ sy.eigenvectors.conj().T, sx.eigenvectors @ ref @ sy.eigenvectors.conj().T
        rtol = 1e-12 + 1e-15 * np.linalg.cond(kernel(sy, sx) @ kernel(sx, sy)) if len(sx.eigenvalues) else 0.0
        assert np.linalg.norm(amb - amb_ref) <= rtol * np.linalg.norm(amb_ref)
        unitarity = np.linalg.norm(d.conj().T @ gram(sx) @ d - gram(sy))
        assert unitarity <= 1e-8 * max(1.0, np.linalg.norm(gram(sy)))
        assert abs(unitarity - res) <= 1e-12 * max(1.0, np.linalg.norm(gram(sy)))
        if i == j:
            assert np.array_equal(d, np.eye(len(sx.eigenvalues))) and res == 0.0


def test_spin_connection_dimension_mismatch():
    cfg = SystemConfig(f=4, n=2, kappa=0.1)
    x = validate_point(np.diag([1.0, -1.0, 0.5, 0]).astype(complex), cfg)
    y = validate_point(np.diag([1.0, 0, 0, 0]).astype(complex), cfg)
    (d,), resid = connections([x, y], [(0, 1)], cfg)
    assert isinstance(d, NotSpinConnectable) and np.isnan(resid[0])


def test_measure_json_round_trip():
    cfg = SystemConfig(f=2, n=1, kappa=0.1, s=0.25)
    x = diag_point(cfg, 1.0, 0.0)
    y = diag_point(cfg, 0.0, 1.0)
    m = DiscreteMeasure(points=stack_of([x, y], cfg), weights=[0.5, 0.5])
    obj = measure_to_json(m, cfg)
    m2, cfg2 = measure_from_json(obj)
    assert cfg2 == cfg
    assert config_from_json({"f": 2, "n": 1, "kappa": 0.1}) == SystemConfig(f=2, n=1, kappa=0.1, s=0.0)
    assert np.allclose(m2.points[0], x.matrix)
    assert np.allclose(m2.weights, m.weights)


# ---------------------------------------------------------------- pair engine


def dense_product_spectrum(x, y, cfg, digits=None):
    """Reference for the pair engine: the per-pair f x f path it replaced.

    eigvals of xy, zero cut at RANK_TOL * ||x||_2 ||y||_2 (SVD norms), at most 2n
    non-zero eigenvalues, sorted by descending modulus, then by phase. With `digits`,
    the eigenvalues of the exact product from an mpmath eigensolve at that precision.
    """
    a = np.asarray(getattr(x, "matrix", x), dtype=complex)
    b = np.asarray(getattr(y, "matrix", y), dtype=complex)
    if digits is None:
        lam = np.linalg.eigvals(a @ b)
    else:
        with mpmath.workdps(digits):
            prod = mpmath.matrix(a.tolist()) * mpmath.matrix(b.tolist())
            lam = np.array([complex(z) for z in mpmath.eig(prod, left=False, right=False)])
    scale = float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
    lam = np.where(np.abs(lam) > RANK_TOL * max(scale, 1e-300), lam, 0.0)
    nonzero = lam[lam != 0.0]
    if len(nonzero) > 2 * cfg.n:
        order = np.argsort(-np.abs(nonzero))
        if np.abs(nonzero[order[2 * cfg.n :]]).max() > 1e-5 * scale:
            raise AssertionError("product has more than 2n significant eigenvalues")
        nonzero = nonzero[order[: 2 * cfg.n]]
    out = np.zeros(2 * cfg.n, dtype=complex)
    out[: len(nonzero)] = nonzero
    return out[np.lexsort((np.angle(out), -np.abs(out)))]


def dense_lagrangian(x, y, cfg):
    m = np.abs(dense_product_spectrum(x, y, cfg))
    d = m[:, None] - m[None, :]
    return float(np.sum(d * d) / (4.0 * cfg.n) + cfg.kappa * np.sum(m) ** 2)


def _opnorm(p):
    return float(np.linalg.norm(p.matrix, 2))


@st.composite
def point_sets(draw):
    """(cfg, xs, ys, kind) with f <= 16, n <= 4.

    kind "random": `random_point`s at a drawn scale (rank-deficient whenever
    the rank is below f), plus zero points. "orthogonal": xs and ys live on
    orthogonal subspaces, so every cross product vanishes. "commuting": xs
    are c(1,..,1,-1,..,-1) and ys c'(1,-1,1,-1,..) in one shared basis of
    2n vectors, so every cross product has 2n equal moduli.
    """
    n = draw(st.integers(1, 4))
    f = draw(st.integers(2 * n, 16))
    cfg = SystemConfig(f=f, n=n, kappa=draw(st.floats(0.01, 1.0)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "orthogonal", "commuting"]))
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    q, _ = np.linalg.qr(r.standard_normal((f, f)) + 1j * r.standard_normal((f, f)))

    def on(cols, vals):
        u, _ = np.linalg.qr(r.standard_normal((len(cols),) * 2) + 1j * r.standard_normal((len(cols),) * 2))
        b = q[:, cols] @ u
        return validate_point((b * vals) @ b.conj().T, cfg)

    def alternating(size):
        return (0.2 + r.random(size)) * np.where(np.arange(size) % 2 == 0, 1.0, -1.0)

    if kind == "random":
        scale = draw(st.floats(0.1, 10.0))
        zeros = draw(st.integers(0, 1))
        xs = [scaled_point(r, cfg, scale) for _ in range(nx)] + [validate_point(np.zeros((f, f)), cfg)] * zeros
        ys = [scaled_point(r, cfg, scale) for _ in range(ny)]
    elif kind == "orthogonal":
        ka = min(2 * n, f // 2)
        kb = min(2 * n, f - ka)
        xs = [on(list(range(ka)), alternating(ka)) for _ in range(nx)]
        ys = [on(list(range(ka, ka + kb)), alternating(kb)) for _ in range(ny)]
    else:
        b = q[:, : 2 * n]
        sx = np.repeat([1.0, -1.0], n)
        sy = np.tile([1.0, -1.0], n)
        xs = [validate_point(((0.3 + r.random()) * b * sx) @ b.conj().T, cfg) for _ in range(nx)]
        ys = [validate_point(((0.3 + r.random()) * b * sy) @ b.conj().T, cfg) for _ in range(ny)]
    return cfg, xs, ys, kind


def assert_pair_spectra_match_dense_oracle(left, right, cfg):
    """pair_spectra(left, right) within 1e-12 ||x|| ||y|| of the dense spectrum of each pair, in descending modulus.

    Where the float64 oracle misses the bound, the pair is judged against the 50-digit one: the f x f eigvals
    of xy can be further off than the engine (6.2e-13 against 8.5e-14 in
    `test_pair_spectra_match_the_50_digit_oracle_where_the_dense_one_misses`).
    """
    lam = pair_spectra(stack_of(left, cfg), stack_of(right, cfg), cfg)
    assert lam.shape == (len(left), len(right), 2 * cfg.n)
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            bound = 1e-12 * _opnorm(x) * _opnorm(y)
            ref = dense_product_spectrum(x, y, cfg)
            if multiset_distance(lam[i, j], ref) > bound:
                ref = dense_product_spectrum(x, y, cfg, digits=50)
            assert multiset_distance(lam[i, j], ref) <= bound
            m = np.abs(lam[i, j])
            assert np.all(m[:-1] >= m[1:])  # descending modulus
    return lam


@settings(max_examples=60, deadline=None)
@given(case=point_sets())
def test_pair_spectra_match_dense_oracle(case):
    cfg, xs, ys, kind = case
    for left, right in ((xs, ys), (xs, xs)):
        lam = assert_pair_spectra_match_dense_oracle(left, right, cfg)
        if kind == "orthogonal" and right is ys:
            assert not lam.any()


def test_pair_spectra_match_the_50_digit_oracle_where_the_dense_one_misses():
    # a point_sets draw (f = 16, n = 3, "random" at scale 0.59375) whose pair (3, 2) of xs x xs the float64
    # oracle put 5.35e-13 from the engine, above the bound 4.07e-13
    cfg = SystemConfig(f=16, n=3, kappa=1.0)
    r = np.random.default_rng(885)
    r.standard_normal((2, cfg.f, cfg.f))  # the two normals of point_sets' basis q
    xs = [scaled_point(r, cfg, 0.59375) for _ in range(4)]
    assert_pair_spectra_match_dense_oracle(xs, xs, cfg)


@settings(max_examples=60, deadline=None)
@given(case=point_sets(), c=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_pair_engine_invariants(case, c, seed):
    cfg, xs, ys, kind = case
    big = max(_opnorm(p) for p in xs + ys) ** 2
    ex, ey = stack_of(xs, cfg), stack_of(ys, cfg)
    sym = lagrangians(ex, ex, cfg)
    tol_l = 1e-12 * big**2 * (1.0 + cfg.kappa * 4 * cfg.n**2)
    # L(x, y) = L(y, x)
    assert np.abs(sym - sym.T).max() <= tol_l
    # invariance under a common unitary x -> U x U*
    r = np.random.default_rng(seed)
    u, _ = np.linalg.qr(r.standard_normal((cfg.f, cfg.f)) + 1j * r.standard_normal((cfg.f, cfg.f)))
    rot = stack_of([validate_point(u @ p.matrix @ u.conj().T, cfg) for p in xs], cfg)
    assert np.abs(lagrangians(rot, rot, cfg) - sym).max() <= tol_l
    # homogeneity of the spectrum under x -> c x, and sum of eigenvalues = tr(xy)
    lam = pair_spectra(ex, ey, cfg)
    scaled = pair_spectra(stack_of([validate_point(c * p.matrix, cfg) for p in xs], cfg), ey, cfg)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            unit = _opnorm(x) * _opnorm(y)
            assert multiset_distance(scaled[i, j], c * lam[i, j]) <= 1e-12 * c * unit
            assert abs(lam[i, j].sum() - np.sum(x.matrix * y.matrix.T)) <= 1e-12 * unit
    cross = lagrangians(ex, ey, cfg)
    if kind == "orthogonal":
        assert np.all(cross == 0.0)  # spacelike with the all-zero spectrum: exactly 0
    if kind == "commuting":
        for x in xs:
            for y in ys:
                assert causal_class(x, y, cfg) == SPACELIKE
                assert lagrangian_first_term(x, y, cfg) < 1e-12


@settings(max_examples=60, deadline=None)
@given(case=point_sets(), data=st.data())
def test_one_pair_functions_equal_the_engine_path_they_replaced(case, data):
    """Each one-pair function, which reads the eigenpairs its two points' validations solved, equals bitwise the path
    it replaced: `pair_spectra` of the two points validated again, and the frames of one stacked `eigh` of the raw
    matrices, x == y included."""
    cfg, xs, ys, _ = case
    pts = xs + ys
    x, y = (pts[data.draw(st.integers(0, len(pts) - 1))] for _ in range(2))
    full = SystemConfig(cfg.f, cfg.f, 1.0)  # the n = f config of spin_space and completeness_check
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phi = r.standard_normal(cfg.f) + 1j * r.standard_normal(cfg.f)
    for a, b in ((x, y), (x, x), (y, x)):
        lam = pair_spectra(validate_points(a.matrix[None], cfg), validate_points(b.matrix[None], cfg), cfg)[0, 0]
        assert product_spectrum(a, b, cfg).tobytes() == lam.tobytes()
        assert causal_class(a, b, cfg) == str(causal_classes(lam))
        assert lagrangian_first_term(a, b, cfg) == float(lagrangian(lam, 0.0))
        frames = spin_frames(eigh_of(np.array([a.matrix, b.matrix])), full)
        assert completeness_check(a, b, phi) == float(kernel_residuals(frames, [0], [1], [phi])[1][0])
        k = np.count_nonzero(frames.eigenvalues[0])
        space = spin_space(a)
        assert space.eigenvectors.tobytes() == frames.eigenvectors[0, :, :k].tobytes()
        assert space.eigenvalues.tobytes() == frames.eigenvalues[0, :k].tobytes()


def test_one_pair_functions_decompose_nothing(monkeypatch):
    """The five one-pair functions read the eigenpairs `validate_point` solved: no `eigh` or `eigvalsh` runs."""
    cfg = SystemConfig(f=6, n=2, kappa=0.1)
    r = np.random.default_rng(17)
    x, y = random_point(r, cfg), random_point(r, cfg)
    phi = r.standard_normal(cfg.f) + 1j * r.standard_normal(cfg.f)
    calls = []
    for name, solver in [(name, getattr(np.linalg, name)) for name in ("eigh", "eigvalsh")]:
        def spy(a, solver=solver, name=name):
            calls.append(name)
            return solver(a)

        monkeypatch.setattr(np.linalg, name, spy)
    product_spectrum(x, y, cfg), causal_class(x, y, cfg), lagrangian_first_term(x, y, cfg)
    spin_space(x), completeness_check(x, y, phi)
    assert calls == []


def chain_spectra_of_stored_norms(w, u, top, i, j, cfg):
    """`chain_spectra` as it was when the frames stored ||x||_2 = max|eigenvalue| as `top`, beside the frame."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys, back = np.unique(lo * len(w) + hi, return_inverse=True)
    a, b = np.divmod(keys, len(w))
    g = u[a].conj().swapaxes(1, 2) @ u[b]
    lam = np.linalg.eigvals((w[a, :, None] * g * w[b, None, :]) @ g.conj().swapaxes(1, 2))
    scale = np.maximum(top[a] * top[b], 1e-300)[:, None]
    out = np.zeros((len(keys), 2 * cfg.n), dtype=complex)
    out[:, : lam.shape[1]] = np.where(np.abs(lam) > RANK_TOL * scale, lam, 0.0)
    return np.take_along_axis(out, np.lexsort((np.angle(out), -np.abs(out))), axis=-1)[back]


def test_a_point_wholly_inside_the_zero_cut_has_exact_zero_spectra():
    """The one point whose ||x||_2, read off its frame, differs from max|eigenvalue|: 0 against 1e-12. Its chain
    is the zero matrix, so its spectra are exact zeros under either norm, and every spectrum of the set is
    bitwise the one computed with the stored norms."""
    cfg = SystemConfig(f=4, n=2, kappa=0.1)
    r = np.random.default_rng(23)
    tiny = validate_point(np.diag([1e-12, -1e-13, 0.0, 0.0]), cfg)
    pts = stack_of([random_point(r, cfg) for _ in range(3)] + [tiny], cfg)
    frames = spin_frames(pts, cfg)
    assert np.all(frames.eigenvalues[3] == 0.0) and np.abs(pts.eigenvalues[3]).max() == 1e-12
    i, j = np.indices((4, 4)).reshape(2, -1)
    lam = chain_spectra(frames, i, j, cfg)
    assert np.all(lam[(i == 3) | (j == 3)] == 0.0)
    stored = chain_spectra_of_stored_norms(frames.eigenvalues, frames.eigenvectors, np.abs(pts.eigenvalues).max(-1),
                                           i, j, cfg)
    assert lam.tobytes() == stored.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=point_sets())
def test_spin_frames_are_the_top_2n_eigenpairs_with_the_cut_ones_zeroed(case):
    cfg, xs, ys, _ = case
    pts = stack_of(xs + ys, cfg)
    frames = spin_frames(pts, cfg)
    assert isinstance(frames, cfs.Eigh) and frames.points.tobytes() == pts.points.tobytes()
    w, v = pts.eigenvalues, pts.eigenvectors
    assert frames.eigenvalues.shape == (len(w), 2 * cfg.n)
    beyond = np.abs(w) > cfs.zero_cut(w)[:, None]
    for k, (fw, fv) in enumerate(zip(frames.eigenvalues, frames.eigenvectors)):
        assert np.all(np.diff(np.abs(fw)) <= 0.0)
        # each column is a distinct eigenpair of the input, every one beyond the cut among them, the rest zeroed
        cols = [next(m for m in range(cfg.f) if np.array_equal(fv[:, c], v[k, :, m])) for c in range(len(fw))]
        assert len(set(cols)) == len(cols) and set(np.flatnonzero(beyond[k])) <= set(cols)
        assert fw.tobytes() == np.where(beyond[k, cols], w[k, cols], 0.0).tobytes()
    top = np.abs(w).max(axis=-1)
    big = beyond.any(axis=-1)
    assert np.abs(frames.eigenvalues[big, 0]).tobytes() == top[big].tobytes()
    assert np.all(frames.eigenvalues[~big] == 0.0)


def test_pair_engine_matches_dense_lagrangian_across_blocks(monkeypatch):
    cfg = SystemConfig(f=8, n=2, kappa=0.3)
    r = np.random.default_rng(7)
    xs = [random_point(r, cfg) for _ in range(7)]
    ys = [random_point(r, cfg) for _ in range(4)]
    ref = np.array([[dense_lagrangian(x, y, cfg) for y in ys] for x in xs])
    ex, ey = stack_of(xs, cfg), stack_of(ys, cfg)
    whole = lagrangians(ex, ey, cfg)
    monkeypatch.setattr(cfs, "PAIR_BLOCK", 3)
    blocked = lagrangians(ex, ey, cfg)
    assert np.abs(whole - ref).max() <= 1e-13 * max(1.0, ref.max())
    assert np.abs(blocked - whole).max() <= 1e-14 * max(1.0, ref.max())
    # xs against itself: each unordered pair is solved once (in blocks of 3 pairs) for both orders
    sym = lagrangians(ex, ex, cfg)
    assert np.array_equal(sym, sym.T)
    ref_sym = np.array([[dense_lagrangian(x, y, cfg) for y in xs] for x in xs])
    assert np.abs(sym - ref_sym).max() <= 1e-13 * max(1.0, ref_sym.max())
    # two distinct sets: each order is its own solve, so L(x, y) = L(y, x) holds to rounding
    assert np.abs(whole - lagrangians(ey, ex, cfg).T).max() <= 1e-12 * max(1.0, ref.max())


@settings(max_examples=60, deadline=None)
@given(case=point_sets(), data=st.data())
def test_chain_spectra_of_a_pair_list_are_the_triangle_entries(case, data):
    """Random pair lists with repeated and reversed pairs, over random, zero and rank-deficient points."""
    cfg, xs, ys, _ = case
    pts = stack_of(xs + ys, cfg)
    index = st.integers(0, len(pts.points) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=12))
    pairs += [(j, i) for i, j in pairs[: len(pairs) // 2]]
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    want = pair_spectra(pts, pts, cfg)[i, j]
    for block in (cfs.PAIR_BLOCK, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cfs, "PAIR_BLOCK", block)
            got = chain_spectra(spin_frames(pts, cfg), i, j, cfg)
        assert got.shape == (len(pairs), 2 * cfg.n)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(causal_classes(got), causal_classes(want))


def _any_rank_point(r, cfg):
    """Point of random rank k <= min(f, 2n) with at most n eigenvalues of each sign; unlike
    `random_point` it also covers f < 2n."""
    k = int(r.integers(0, min(cfg.f, 2 * cfg.n) + 1))
    n_pos = int(r.integers(max(0, k - cfg.n), min(cfg.n, k) + 1))
    q, _ = np.linalg.qr(r.standard_normal((cfg.f, k)) + 1j * r.standard_normal((cfg.f, k)))
    vals = (0.2 + r.random(k)) * np.where(np.arange(k) < n_pos, 1.0, -1.0)
    return validate_point((q * vals) @ q.conj().T, cfg).matrix


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(2, 1), (3, 2), (4, 2), (6, 2), (5, 1)]), batch=st.integers(1, 6),
       count=st.integers(1, 5), c=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_batched_action_matches_each_measure_alone(dims, batch, count, c, seed):
    # (3, 2): f < 2n leaves fewer than 2n product eigenvalues
    cfg = SystemConfig(f=dims[0], n=dims[1], kappa=0.25)
    r = np.random.default_rng(seed)
    stack = np.array([[_any_rank_point(r, cfg) for _ in range(count)] for _ in range(batch)])
    sets = eigh_of(stack)
    w = r.dirichlet(np.ones(count), size=batch)
    got = action(sets, w, cfg=cfg)
    assert got.shape == (batch,)
    alone = [action(eigh_of(stack[b]), w[b], cfg=cfg) for b in range(batch)]
    assert got.tobytes() == np.array(alone).tobytes()
    integrals_alone = [constraints(eigh_of(stack[b]), w[b]) for b in range(batch)]  # (volume, trace) per set
    assert np.array(constraints(sets, w)).tobytes() == np.array(integrals_alone).T.tobytes()
    with pytest.MonkeyPatch.context() as mp:  # blocks that split the stack mid-set
        mp.setattr(cfs, "PAIR_BLOCK", 4)
        assert action(sets, w, cfg=cfg).tobytes() == got.tobytes()
    tol = 1e-12 * np.maximum(1.0, np.abs(got))
    scale = np.linspace(1.0, c, batch)
    scaled = eigh_of(scale[:, None, None, None] * stack)
    assert np.all(np.abs(action(scaled, w, cfg=cfg) - scale**4 * got) <= scale**4 * tol)
    lag_sets = lagrangians(sets, sets, cfg)
    ys = eigh_of(np.array([_any_rank_point(r, cfg) for _ in range(count + 1)]))  # distinct from each of the stack
    for b in range(batch):
        one = eigh_of(stack[b])
        alone = lagrangians(one, one, cfg)
        assert lag_sets[b].tobytes() == alone.tobytes() and np.array_equal(alone, alone.T)
        cross = lagrangians(one, ys, cfg)  # L(x, y) = L(y, x) across two sets, each order its own solve
        assert np.all(np.abs(cross - lagrangians(ys, one, cfg).T) <= 1e-12 * np.maximum(1.0, np.abs(cross)))
    spectra = pair_spectra(sets, sets, cfg)
    assert spectra.shape == (batch, count, count, 2 * cfg.n)
    if cfg.f < 2 * cfg.n:
        assert np.all(spectra[..., cfg.f:] == 0.0)


def test_pairs_are_keyed_by_value_not_by_object():
    cfg = SystemConfig(f=16, n=2, kappa=0.2)
    r = np.random.default_rng(3)
    xs = stack_of([random_point(r, cfg) for _ in range(12)], cfg)
    sym = lagrangians(xs, xs, cfg)
    copies = lagrangians(xs, validate_points(xs.points.copy(), cfg), cfg)
    assert copies.tobytes() == sym.tobytes() and np.array_equal(copies, copies.T)
    measure = DiscreteMeasure(points=xs, weights=np.full(12, 1 / 12))
    on_support = ell(validate_points(measure.points.copy(), cfg), measure, cfg)
    assert on_support.tobytes() == ell(measure.eigh, measure, cfg).tobytes()


def test_pair_spectra_of_two_stacks_equal_each_pair_of_sets_alone():
    cfg = SystemConfig(f=6, n=2, kappa=0.2)
    r = np.random.default_rng(5)
    xs = np.array([[random_point(r, cfg).matrix for _ in range(4)] for _ in range(3)])
    ys = np.array([[random_point(r, cfg).matrix for _ in range(5)] for _ in range(3)])
    got = pair_spectra(eigh_of(xs), eigh_of(ys), cfg)
    assert got.shape == (3, 4, 5, 2 * cfg.n)
    for b in range(3):
        assert got[b].tobytes() == pair_spectra(eigh_of(xs[b]), eigh_of(ys[b]), cfg).tobytes()


def test_pair_engine_rejects_point_beyond_spin_dimension():
    cfg = SystemConfig(f=4, n=1, kappa=0.1)
    x = np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)  # three eigenvalues beyond the cut, 2n = 2
    y = np.eye(4, dtype=complex)
    with pytest.raises(SignatureViolation):
        pair_spectra(eigh_of(x[None]), eigh_of(y[None]), cfg)


def test_pair_engine_rejects_rank_2n_point_with_more_than_n_of_one_sign():
    cfg = SystemConfig(f=4, n=1, kappa=0.1)
    x = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)  # rank 2 = 2n, but two positive eigenvalues
    with pytest.raises(SignatureViolation, match="^2 positive and 0 negative eigenvalues exceed spin dimension 1$"):
        pair_spectra(eigh_of(x[None]), eigh_of(x[None]), cfg)
    with pytest.raises(SignatureViolation):
        pair_spectra(eigh_of(x[None]), eigh_of(np.eye(4, dtype=complex)[None]), cfg)


def test_ell_batch_matches_single_points():
    cfg = SystemConfig(f=6, n=2, kappa=0.2, s=0.1)
    r = np.random.default_rng(12)
    pts = [random_point(r, cfg) for _ in range(5)]
    while any(not p.matrix.any() for p in pts):
        pts = [random_point(r, cfg) for _ in range(5)]
    measure = DiscreteMeasure(points=stack_of(pts, cfg), weights=np.full(5, 0.2))
    batch = ell(stack_of(pts, cfg), measure, cfg)
    single = np.array([ell(stack_of([p], cfg), measure, cfg)[0] for p in pts])
    assert batch.shape == (5,)
    assert np.abs(batch - single).max() <= 1e-14
    a = action(measure, cfg=cfg)
    assert abs(float(measure.weights @ batch) - (a - cfg.s)) <= 1e-14


def test_action_without_cfg_fails_at_the_call():
    x = diag_point(CFG21, 1.0, -1.0)
    with pytest.raises(TypeError, match="cfg"):
        action(stack_of([x], CFG21), [1.0])
    with pytest.raises(TypeError, match="cfg"):
        action(DiscreteMeasure(points=stack_of([x], CFG21), weights=[1.0]))


def test_system_config_rejects_non_finite_or_out_of_range_parameters():
    for bad in ({"kappa": 0.0}, {"kappa": -1.0}, {"kappa": np.nan}, {"kappa": np.inf},
                {"kappa": 0.1, "s": -1.0}, {"kappa": 0.1, "s": np.nan}, {"kappa": 0.1, "s": np.inf}):
        with pytest.raises(ValueError):
            SystemConfig(f=2, n=1, **bad)
    assert SystemConfig(f=2, n=1, kappa=0.1, s=0.0).s == 0.0


# ---------------------------------------------------------------- file reader


def _json_numbers(key, obj):
    """The reader `json_array` replaced: obj, if it is a JSON number or nested lists of them."""
    for item in obj if type(obj) is list else [obj]:
        if type(item) is list:
            _json_numbers(key, item)
        elif type(item) not in (int, float):
            raise ValueError(f"{key} must be a JSON number, got {item!r}")
    return obj


def _validate_point_alone(m, cfg):
    """(Hermitian part, spectrum, eigenvectors) of one point, checked by the code `validate_points` stacks, as written
    for one."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian("point must be a square matrix")
    if a.shape[0] != cfg.f:
        raise NotHermitian(f"point must be {cfg.f} x {cfg.f}")
    if not np.isfinite(a).all():
        raise NotHermitian("point entries must be finite")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise NotHermitian("point is not Hermitian")
    a = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(a)
    cut = RANK_TOL * max(1.0, np.abs(w).max(initial=0.0))
    n_pos, n_neg = int(np.sum(w > cut)), int(np.sum(w < -cut))
    if n_pos > cfg.n or n_neg > cfg.n:
        raise SignatureViolation(f"{n_pos} positive and {n_neg} negative eigenvalues exceed spin dimension {cfg.n}")
    return a, w, v


def oracle_points(obj):
    """The per-point path `points_from_json` replaced: `_json_numbers`, complex() per entry, then each point's
    validation alone."""
    cfg = config_from_json(obj["config"])
    return [_validate_point_alone(np.array([[complex(re, im) for re, im in row]
                                            for row in _json_numbers("point entry", p)]), cfg) for p in obj["points"]]


def _points_json(points):
    return [np.stack([m.real, m.imag], -1).tolist() for m in points]


@st.composite
def point_files(draw):
    """A valid pairs file: f < 2n drawn too, zero points (written as JSON integers) and no points at all."""
    f, n = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    cfg = SystemConfig(f=f, n=n, kappa=0.2)
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "zero", "jitter"]), max_size=6))
    points = []
    for kind in kinds:
        m = np.zeros((f, f), dtype=complex) if kind == "zero" else _any_rank_point(r, cfg)
        if kind == "jitter":  # Hermitian within the tolerance, so the reader's symmetrization shows
            m[0, -1] += 1e-14 * (1 + 1j)
        points.append(m)
    pts = _points_json(points)
    for m, p in zip(points, pts):
        if not m.any():
            p[:] = [[[0, 0]] * f] * f
    return {"config": {"f": f, "n": n, "kappa": 0.2}, "points": pts}, cfg


@settings(max_examples=80, deadline=None)
@given(case=point_files())
def test_points_from_json_equals_the_per_point_path_bitwise(case):
    obj, cfg = case
    want = oracle_points(obj)
    got, got_cfg = points_from_json(obj)
    stack = validate_points(json_array("point entry", obj["points"]).reshape(-1, cfg.f, cfg.f, 2)
                            .view(complex)[..., 0], cfg)
    assert got_cfg == cfg and got.points.shape == stack.points.shape == (len(want), cfg.f, cfg.f)
    for k in range(3):  # the Hermitian parts, their spectra and their eigenvectors
        assert got[k].tobytes() == stack[k].tobytes() == b"".join(one[k].tobytes() for one in want)
    for m, (a, w, _) in zip(stack.points, want):  # the one-point view is the stack of one
        point = validate_point(m, cfg)
        assert point.matrix.tobytes() == a.tobytes() and point.eigenvalues.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=point_files(), defect=st.sampled_from(["hermitian", "finite", "signature", "size"]),
       where=st.integers(0, 5))
def test_a_file_with_one_bad_point_raises_as_the_per_point_path(case, defect, where):
    obj, cfg = case
    pts = obj["points"]
    if defect == "signature" and cfg.f <= cfg.n:
        return  # no f x f point has more than n eigenvalues of one sign
    bad = np.zeros((cfg.f + (defect == "size"),) * 2, dtype=complex)
    if defect == "signature":
        bad[np.arange(cfg.n + 1), np.arange(cfg.n + 1)] = 1.0
    bad[0, 0] += {"hermitian": 4e-12j, "finite": np.nan}.get(defect, 0.0)  # 8e-12 off: within 1e-11, beyond 1e-12
    pts.insert(where % (len(pts) + 1), _points_json([bad])[0])
    with pytest.raises(ValueError) as want:
        oracle_points(obj)
    with pytest.raises(ValueError) as got:
        points_from_json(obj)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_check_signature_reports_the_first_spectrum_beyond_the_bound():
    w = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(SignatureViolation, match="^2 positive and 1 negative eigenvalues exceed spin dimension 1$"):
        check_signature(w, 1)
    assert check_signature(w[0], 1) == RANK_TOL and check_signature(w, 3).tolist() == [RANK_TOL] * 3


def _file_of_64_points(tmp_path):
    cfg = SystemConfig(f=16, n=2, kappa=0.2)
    r = np.random.default_rng(9)
    path = tmp_path / "measure.json"
    points = _points_json([m for m in (random_point(r, cfg).matrix for _ in range(100)) if m.any()][:64])
    path.write_text(json.dumps({"config": {"f": 16, "n": 2, "kappa": 0.2}, "points": points,
                                "weights": np.full(64, 1 / 64).tolist()}))
    return path


@pytest.mark.parametrize("argv", [["action", "--measure"], ["el-residual", "--measure"], ["classify", "--pairs"]],
                         ids=lambda argv: argv[0])
def test_a_point_file_is_decomposed_by_one_eigh(tmp_path, monkeypatch, argv):
    """Validation and the engines read one stacked `eigh` of the file's points; no `eigvalsh` solves them again."""
    path = _file_of_64_points(tmp_path)
    calls = {"eigh": [], "eigvalsh": []}
    for name, solver in [(name, getattr(np.linalg, name)) for name in calls]:
        def spy(a, solver=solver, name=name):
            calls[name].append(np.shape(a))
            return solver(a)

        monkeypatch.setattr(np.linalg, name, spy)
    assert main(["cfs", *argv, str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert calls == {"eigh": [(64, 16, 16)], "eigvalsh": []}


def test_minimize_decomposes_each_point_set_it_builds_once(monkeypatch):
    """The family hands its points' `Eigh` to the engine, and the probe set is validated as one stack whose `eigh`
    the engine reads: no family stack and no single probe reaches `eigh`."""
    from octo_cfs.minimize import PROBE_SAMPLES, MinimizeOptions, make_family, minimize

    cfg = SystemConfig(f=4, n=2, kappa=0.2)
    family, x0 = make_family({"type": "diagonal", "signs": [[1, 1, -1, -1], [-1, -1, 1, 1], [1, -1, 1, -1]]}, cfg)
    shapes, solver = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or solver(a))
    minimize(family, cfg, x0, MinimizeOptions(seed=1))
    assert (1, 4, 4) not in shapes and not [s for s in shapes if len(s) == 4]  # one point; the (2p + 1, N, f, f) stack
    assert shapes.count((PROBE_SAMPLES, 4, 4)) == 1 and len(shapes) <= 103
