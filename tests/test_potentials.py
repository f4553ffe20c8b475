import numpy as np
import pytest

from octo_cfs.potentials import (
    LoopParams,
    TreeParams,
    grid_search_tree,
    one_loop_potential,
    one_loop_symmetric_stationary,
    one_loop_vacuum,
    one_loop_vr_squared,
    tree_gradient,
    tree_potential,
    tree_stationary_points,
)

rng = np.random.default_rng(61)


def one_loop_gradient_sR(sL: float, sR: float, p: LoopParams) -> float:
    """Analytic dV/dsR of the one-loop potential (the sL derivative follows by exchange symmetry)."""
    cw = 0.0
    if sR > 0:
        cw = p.loop_coeff * (2.0 * sR * (np.log(sR / p.M**2) - 25.0 / 6.0) + sR)
    return 2.0 * p.lambda1 * sR + p.lambda2 * sL + cw


def test_tree_potential_values():
    p = TreeParams(mu2=2.0, lambda1=1.0, lambda2=3.0)
    assert tree_potential(0.0, 0.0, p) == 0.0
    u2 = p.mu2 / (2.0 * p.lambda1)
    assert abs(tree_potential(0.0, u2, p) - (-(p.mu2**2) / (4.0 * p.lambda1))) < 1e-14
    with pytest.raises(ValueError):
        tree_potential(-0.1, 0.0, p)
    with pytest.raises(ValueError):
        TreeParams(mu2=1.0, lambda1=0.0, lambda2=0.0)


def test_tree_symmetric_degenerate_direction():
    # at lambda2 = 2 lambda1 the potential on the diagonal is a single-field quartic
    p = TreeParams(mu2=1.5, lambda1=0.8, lambda2=1.6)
    s = np.linspace(0, 2, 50)
    lhs = tree_potential(s, s, p)
    rhs = -2.0 * p.mu2 * s + 4.0 * p.lambda1 * s**2
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tree_stationary_points_parity_violating_regime():
    p = TreeParams(mu2=2.0, lambda1=1.0, lambda2=3.0)
    pts = tree_stationary_points(p)
    axis = [q for q in pts if q.kind == "axis"]
    assert len(axis) == 2  # mirror pair reported
    assert all(abs(q.sL + q.sR - 1.0) < 1e-14 for q in axis)  # u_R^2 = 1
    assert all(q.classification == "minimum" for q in axis)
    assert all(q.is_global for q in axis)
    sym = [q for q in pts if q.kind == "symmetric"][0]
    assert sym.classification == "saddle"
    assert not sym.is_global
    origin = [q for q in pts if q.kind == "origin"][0]
    assert origin.classification == "maximum"


def test_tree_stationary_points_symmetric_regime():
    p = TreeParams(mu2=2.0, lambda1=1.0, lambda2=1.0)
    pts = tree_stationary_points(p)
    sym = [q for q in pts if q.kind == "symmetric"][0]
    assert sym.classification == "minimum"
    assert sym.is_global
    axis = [q for q in pts if q.kind == "axis"]
    assert all(q.classification == "saddle" for q in axis)


def test_tree_negative_mu2_origin_only_minimum():
    p = TreeParams(mu2=-1.0, lambda1=1.0, lambda2=0.5)
    pts = tree_stationary_points(p)
    assert len(pts) == 1
    assert pts[0].kind == "origin"
    assert pts[0].classification == "minimum"
    assert pts[0].is_global


def test_tree_marginal_flag():
    p = TreeParams(mu2=1.0, lambda1=1.0, lambda2=2.0)
    pts = tree_stationary_points(p)
    assert any(q.classification == "marginal" for q in pts if q.kind != "origin")


def test_tree_global_minimum_matches_grid_oracle():
    for _ in range(50):
        mu2 = 0.5 + 2.0 * rng.random()
        lam1 = 0.3 + rng.random()
        lam2 = 2.0 * lam1 + 0.2 + rng.random()  # parity-violating regime
        p = TreeParams(mu2=mu2, lambda1=lam1, lambda2=lam2)
        pts = tree_stationary_points(p)
        best = min(pts, key=lambda q: q.value)
        u2 = mu2 / (2.0 * lam1)
        bound = 3.0 * u2
        gl, gr, gv = grid_search_tree(p, bound, n=400)
        step = bound / 399.0
        assert abs(best.value - gv) < 4.0 * lam1 * step**2 + 1e-9
        assert min(abs(gl - best.sL), abs(gl - best.sR)) < 2 * step
        assert abs(best.value - (-(mu2**2) / (4.0 * lam1))) < 1e-12


def test_tree_gradient_matches_finite_differences():
    for _ in range(100):
        p = TreeParams(
            mu2=rng.standard_normal(),
            lambda1=0.2 + rng.random(),
            lambda2=rng.standard_normal(),
        )
        sL, sR = rng.random() * 3, rng.random() * 3
        gL, gR = tree_gradient(sL, sR, p)
        h = 1e-6 * max(1.0, sL, sR)
        fdL = (tree_potential(sL + h, sR, p) - tree_potential(max(sL - h, 0), sR, p)) / (sL + h - max(sL - h, 0))
        fdR = (tree_potential(sL, sR + h, p) - tree_potential(sL, max(sR - h, 0), p)) / (sR + h - max(sR - h, 0))
        assert abs(gL - fdL) < 1e-6 * max(1.0, abs(gL))
        assert abs(gR - fdR) < 1e-6 * max(1.0, abs(gR))


def test_exchange_symmetry():
    p = TreeParams(mu2=1.3, lambda1=0.7, lambda2=-0.4)
    lp = LoopParams(lambda1=0.01, lambda2=0.3, g=1.0, M=1.0)
    for _ in range(50):
        a, b = rng.random() * 4, rng.random() * 4
        assert tree_potential(a, b, p) == tree_potential(b, a, p)
        assert one_loop_potential(a, b, lp) == one_loop_potential(b, a, lp)


def test_one_loop_zero_limit():
    lp = LoopParams(lambda1=0.01, lambda2=0.3, g=1.0, M=1.0)
    assert one_loop_potential(0.0, 0.0, lp) == 0.0
    with pytest.raises(ValueError):
        one_loop_potential(-0.1, 0.0, lp)
    # s^2 ln s -> 0: tiny arguments stay finite and small
    assert abs(one_loop_potential(0.0, 1e-12, lp)) < 1e-20


def one_loop_potential_oracle(sL: float, sR: float, p: LoopParams) -> float:
    """The one-loop potential at one pair of radii, each s^2 ln(s) term masked by hand."""
    def cw(s):
        return s**2 * (np.log(s / p.M**2) - 25.0 / 6.0) if s > 0 else 0.0

    return p.lambda1 * (sL**2 + sR**2) + p.lambda2 * (sL * sR) + p.loop_coeff * (cw(sL) + cw(sR))


def test_one_loop_potential_broadcasts_the_radii_as_the_pointwise_oracle():
    lp = LoopParams(lambda1=0.01, lambda2=0.3, g=1.3, M=0.7)
    s = np.concatenate([[0.0], rng.random(5) * 4])
    grid = one_loop_potential(s[:, None], s, lp)
    assert grid.shape == (6, 6)
    for i, j in np.ndindex(grid.shape):
        value = one_loop_potential(s[i], s[j], lp)
        assert type(value) is float and value == grid[i, j] == one_loop_potential_oracle(s[i], s[j], lp)
    assert np.array_equal(one_loop_potential(0.0, s, lp), grid[0])


def test_one_loop_gradient_matches_finite_differences():
    for _ in range(100):
        lp = LoopParams(
            lambda1=0.001 + 0.05 * rng.random(),
            lambda2=rng.standard_normal() * 0.5,
            g=0.5 + rng.random(),
            M=0.5 + rng.random(),
        )
        sL, sR = rng.random() * 2, 0.1 + rng.random() * 2
        g_an = one_loop_gradient_sR(sL, sR, lp)
        h = 1e-6 * max(1.0, sR)
        g_fd = (one_loop_potential(sL, sR + h, lp) - one_loop_potential(sL, sR - h, lp)) / (2 * h)
        assert abs(g_an - g_fd) < 1e-6 * max(1.0, abs(g_an))


def test_one_loop_vacuum_closed_form():
    lp = LoopParams(lambda1=1.0 / (16.0 * np.pi**2), lambda2=1.0, g=1.0, M=1.0)
    rep = one_loop_vacuum(lp)
    vr2 = rep["vR_squared"]
    # closed form satisfies ln(vR^2/M^2) - 25/6 = -1/2 - (64 pi^2 / 3 g^4) lambda1
    constraint = np.log(vr2 / lp.M**2) - 25.0 / 6.0 + 0.5 + lp.lambda1 / lp.loop_coeff
    assert abs(constraint) < 1e-12
    assert abs(one_loop_gradient_sR(0.0, vr2, lp)) < 1e-12
    assert rep["gradient_residual"] < 1e-8 * rep["gradient_scale"]
    assert rep["is_local_minimum"]
    # lambda2 large: asymmetric vacuum beats the symmetric stationary point
    assert rep["asymmetric_is_global"]
    assert rep["regime_lambda2_gt_3g2_over_64pi2"]


def test_one_loop_vacuum_scale_covariance():
    lp1 = LoopParams(lambda1=0.008, lambda2=0.4, g=1.0, M=1.0)
    lp2 = LoopParams(lambda1=0.008, lambda2=0.4, g=1.0, M=np.sqrt(2.5))
    assert abs(one_loop_vr_squared(lp2) / one_loop_vr_squared(lp1) - 2.5) < 1e-12


def test_one_loop_low_lambda2_ordering_reported():
    lp = LoopParams(lambda1=0.008, lambda2=0.001, g=1.0, M=1.0)
    rep = one_loop_vacuum(lp)
    assert not rep["regime_lambda2_gt_3g2_over_64pi2"]
    assert isinstance(rep["asymmetric_is_global"], bool)
    # recomputation consistency
    assert abs(
        rep["value_symmetric"]
        - one_loop_potential(rep["symmetric_stationary_s"], rep["symmetric_stationary_s"], lp)
    ) < 1e-12


def test_symmetric_stationary_is_stationary_on_diagonal():
    lp = LoopParams(lambda1=0.02, lambda2=0.05, g=1.2, M=0.8)
    s = one_loop_symmetric_stationary(lp)
    h = 1e-6 * s
    fd = (one_loop_potential(s + h, s + h, lp) - one_loop_potential(s - h, s - h, lp)) / (2 * h)
    assert abs(fd) < 1e-7 * max(1.0, abs(one_loop_potential(s, s, lp) / s))


def test_params_reject_non_finite_or_mistyped_values():
    for kwargs in ({"mu2": float("nan")}, {"lambda2": float("inf")}, {"mu2": "1.0"}, {"lambda1": None}):
        with pytest.raises(ValueError, match="must be a finite real number"):
            TreeParams(**{"mu2": 2.0, "lambda1": 1.0, "lambda2": 3.0, **kwargs})
    for kwargs in ({"M": float("nan")}, {"g": float("inf")}, {"lambda1": "x"}):
        with pytest.raises(ValueError, match="must be a finite real number"):
            LoopParams(**{"lambda1": 0.0063, "lambda2": 1.0, "g": 1.0, "M": 1.0, **kwargs})


def test_vr_squared_outside_the_float_range_raises():
    # g = 1e-3 underflows the exponential to 0, g = 1e-100 underflows g^4 to 0, M = 1e200 overflows M^2
    for g, M in ((1e-3, 1.0), (1e-100, 1.0), (1e-3, 1e200), (1.0, 1e200)):
        with pytest.raises(FloatingPointError, match="not a positive finite float"):
            one_loop_vacuum(LoopParams(lambda1=0.0063, lambda2=1.0, g=g, M=M))
