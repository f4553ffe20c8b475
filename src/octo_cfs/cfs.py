"""Finite causal fermion systems: operator points, causal structure, and spin geometry.

Points are Hermitian f x f matrices with at most n positive and at most n
negative eigenvalues. The kappa-Lagrangian of a pair is built from the
moduli of the (generally complex) eigenvalues of the operator product xy,
and the causal action is its double integral against a weighted discrete
measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

#: Relative eigenvalue threshold below which a product eigenvalue counts as zero.
RANK_TOL = 1e-9
#: Relative tolerance for the "all moduli equal" test of the causal classification.
CAUSAL_TOL = 1e-8

SPACELIKE = "spacelike"
TIMELIKE = "timelike"
LIGHTLIKE = "lightlike"


class NotHermitian(ValueError):
    pass


class SignatureViolation(ValueError):
    pass


class NotSpinConnectable(RuntimeError):
    pass


class EigensolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SystemConfig:
    """Hilbert-space dimension f, spin dimension n, kappa, and the Lagrange parameter s."""

    f: int
    n: int
    kappa: float
    s: float = 0.0

    def __post_init__(self):
        if self.f < 1 or self.n < 1:
            raise ValueError("f and n must be positive integers")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.s < 0:
            raise ValueError("s must be non-negative")


@dataclass
class OperatorPoint:
    """A validated point of the operator manifold."""

    matrix: np.ndarray
    eigenvalues: np.ndarray  # real spectrum from validation

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def _asmat(x) -> np.ndarray:
    if isinstance(x, OperatorPoint):
        return x.matrix
    return np.asarray(x, dtype=complex)


def validate_point(m, cfg: SystemConfig, tol: float = RANK_TOL) -> OperatorPoint:
    """Check Hermiticity and the signature bound (<= n positive, <= n negative eigenvalues)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian("point must be a square matrix")
    if a.shape[0] != cfg.f:
        raise NotHermitian(f"point must be {cfg.f} x {cfg.f}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise NotHermitian("point is not Hermitian")
    a = 0.5 * (a + a.conj().T)
    w = np.linalg.eigvalsh(a) if a.size else np.zeros(0)
    check_signature(w, cfg.n, tol)
    return OperatorPoint(matrix=a, eigenvalues=w)


def check_signature(w, n: int, tol: float = RANK_TOL) -> float:
    """Zero cut tol * max(1, max|w|) of a real spectrum; raises if more than n lie beyond it on either side."""
    cut = tol * max(1.0, np.abs(w).max(initial=0.0))
    n_pos = int(np.sum(w > cut))
    n_neg = int(np.sum(w < -cut))
    if n_pos > n or n_neg > n:
        raise SignatureViolation(
            f"{n_pos} positive and {n_neg} negative eigenvalues exceed spin dimension {n}"
        )
    return cut


def random_point(rng, cfg: SystemConfig, scale: float = 1.0) -> OperatorPoint:
    """Random rank <= 2n point with at most n positive and n negative eigenvalues."""
    f, n = cfg.f, cfg.n
    n_pos = int(rng.integers(0, n + 1))
    n_neg = int(rng.integers(0, n + 1))
    k = n_pos + n_neg
    m = np.zeros((f, f), dtype=complex)
    if k:
        g = rng.standard_normal((f, k)) + 1j * rng.standard_normal((f, k))
        q, _ = np.linalg.qr(g)
        vals = np.concatenate(
            [scale * (0.2 + rng.random(n_pos)), -scale * (0.2 + rng.random(n_neg))]
        )
        m = (q * vals) @ q.conj().T
    return validate_point(m, cfg)


#: Rows of `xs` per batched closed-chain eigensolve in `pair_spectra`.
PAIR_BLOCK = 64


def _frames(points, cfg: SystemConfig):
    """Per point: the top min(2n, f) eigenpairs by modulus with sub-cut eigenvalues zeroed, and ||x||_2.

    One stacked `eigh`; the zero cut is the spin-space cut. Raises
    EigensolverError for a point with more than 2n eigenvalues beyond it.
    """
    a = np.array([_asmat(p) for p in points], dtype=complex).reshape(len(points), cfg.f, cfg.f)
    w, v = np.linalg.eigh(a)
    top = np.abs(w).max(axis=1, initial=0.0)
    w = np.where(np.abs(w) > RANK_TOL * np.maximum(1.0, top)[:, None], w, 0.0)
    if np.any(np.count_nonzero(w, axis=1) > 2 * cfg.n):
        raise EigensolverError("point has more than 2n eigenvalues beyond the zero cut")
    order = np.argsort(-np.abs(w), axis=1, kind="stable")[:, : 2 * cfg.n]
    return np.take_along_axis(w, order, axis=1), np.take_along_axis(v, order[:, None, :], axis=2), top


def pair_spectra(xs, ys, cfg: SystemConfig) -> np.ndarray:
    """The 2n eigenvalues of xy for every pair of xs x ys: (len(xs), len(ys), 2n).

    They are those of the closed chain Lambda_x G Lambda_y G*, G = U_x* U_y, on the
    spin spaces: one batched 2n x 2n `eigvals` per block of rows. Eigenvalues below
    RANK_TOL * ||x|| ||y|| are exact zeros (a vanishing product yields the all-zero
    spectrum, not dust); each spectrum is sorted by descending modulus, then phase.
    """
    wx, ux, nx = _frames(xs, cfg)
    wy, uy, ny = (wx, ux, nx) if ys is xs else _frames(ys, cfg)
    out = np.zeros((len(wx), len(wy), 2 * cfg.n), dtype=complex)
    for r in range(0, len(wx), PAIR_BLOCK):
        sl = slice(r, r + PAIR_BLOCK)
        g = ux[sl].conj().swapaxes(1, 2)[:, None] @ uy[None]
        lam = np.linalg.eigvals((wx[sl, None, :, None] * g * wy[None, :, None, :]) @ g.conj().swapaxes(2, 3))
        scale = np.maximum(nx[sl, None, None] * ny[None, :, None], 1e-300)
        out[sl, :, : lam.shape[2]] = np.where(np.abs(lam) > RANK_TOL * scale, lam, 0.0)
    return np.take_along_axis(out, np.lexsort((np.angle(out), -np.abs(out))), axis=2)


def lagrangians(xs, ys, cfg: SystemConfig) -> np.ndarray:
    """kappa-Lagrangian sum_ij (|l_i|-|l_j|)^2 / 4n + kappa (sum_j |l_j|)^2 of every pair of xs x ys."""
    m = np.abs(pair_spectra(xs, ys, cfg))  # first term as its equal sum_i (m_i - mean m)^2
    return np.sum((m - m.mean(axis=-1, keepdims=True)) ** 2, axis=-1) + cfg.kappa * np.sum(m, axis=-1) ** 2


def causal_classes(lam: np.ndarray, rtol: float = CAUSAL_TOL) -> np.ndarray:
    """Causal class of each spectrum along the last axis of `lam`.

    Spacelike: all 2n moduli equal (the all-zero spectrum counts as equal).
    Timelike: all eigenvalues real, moduli not all equal. Lightlike: the rest.
    """
    m = np.abs(lam)
    top = m.max(axis=-1, initial=0.0)
    spacelike = top - m.min(axis=-1) <= rtol * top  # includes the all-zero spectrum
    timelike = np.abs(lam.imag).max(axis=-1, initial=0.0) <= rtol * top
    return np.where(spacelike, SPACELIKE, np.where(timelike, TIMELIKE, LIGHTLIKE))


def product_spectrum(x, y, cfg: SystemConfig) -> np.ndarray:
    """All 2n eigenvalues of xy (one pair of `pair_spectra`)."""
    return pair_spectra([x], [y], cfg)[0, 0]


def lagrangian(x, y, cfg: SystemConfig) -> float:
    """kappa-Lagrangian of one pair (see `lagrangians`)."""
    return float(lagrangians([x], [y], cfg)[0, 0])


def causal_class(x, y, cfg: SystemConfig, rtol: float = CAUSAL_TOL) -> str:
    """Spacelike, timelike, or lightlike separation of the pair (x, y) (see `causal_classes`)."""
    return str(causal_classes(product_spectrum(x, y, cfg), rtol))


def lagrangian_first_term(x, y, cfg: SystemConfig) -> float:
    """The (1/4n) sum (|l_i|-|l_j|)^2 part alone (vanishes on spacelike pairs)."""
    m = np.abs(product_spectrum(x, y, cfg))
    return float(np.sum((m - m.mean()) ** 2))


@dataclass
class DiscreteMeasure:
    """Weighted finite collection of operator points (weights sum to one)."""

    points: list
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to one (volume constraint)")
        # operator-norm distances to all later points: max|eigvalsh| of the Hermitian differences
        mats = np.array([_asmat(p) for p in self.points])
        for i in range(len(mats) - 1):
            if np.abs(np.linalg.eigvalsh(mats[i + 1 :] - mats[i])).max(axis=-1).min() <= 1e-12:
                raise ValueError("duplicate points in the measure support")


def merge_duplicates(points, weights, tol: float = 1e-9):
    """Sum the weights of points that coincide up to operator-norm distance tol."""
    out_pts: list = []
    out_w: list = []
    for p, w in zip(points, weights):
        for i, q in enumerate(out_pts):
            if np.linalg.norm(_asmat(p) - _asmat(q), 2) <= tol:
                out_w[i] += w
                break
        else:
            out_pts.append(p)
            out_w.append(w)
    return out_pts, np.asarray(out_w)


def action(measure_or_points, weights=None, cfg: SystemConfig = None) -> float:
    """Causal action: the full double sum sum_ij w_i w_j L(x_i, x_j), diagonal included."""
    if isinstance(measure_or_points, DiscreteMeasure):
        points, w = measure_or_points.points, measure_or_points.weights
    else:
        points, w = measure_or_points, np.asarray(weights, dtype=float)
    return float(w @ (lagrangians(points, points, cfg) @ w))


def constraints(measure_or_points, weights=None):
    """(volume, trace) integrals of the measure."""
    if isinstance(measure_or_points, DiscreteMeasure):
        points, w = measure_or_points.points, measure_or_points.weights
    else:
        points, w = measure_or_points, np.asarray(weights, dtype=float)
    volume = float(np.sum(w))
    trace = float(sum(wi * np.real(np.trace(_asmat(p))) for wi, p in zip(w, points)))
    return volume, trace


def ell(x, measure: DiscreteMeasure, cfg: SystemConfig):
    """Euler-Lagrange function ell(x) = sum_j w_j L(x, x_j) - s.

    x is one point (returns a float) or a list of points (one `lagrangians` call, an array).
    """
    single = isinstance(x, OperatorPoint) or np.ndim(x) == 2
    row = lagrangians([x] if single else x, measure.points, cfg) @ measure.weights - cfg.s
    return float(row[0]) if single else row


@dataclass
class SpinSpace:
    """Image of a point with its orthonormal basis and indefinite spin product."""

    point: np.ndarray
    basis: np.ndarray  # f x d, orthonormal columns spanning image(x)
    eigenvalues: np.ndarray  # the d non-zero eigenvalues of x (basis order)
    signature: tuple  # (p, q) of the spin product -<u|x v>
    gram: np.ndarray = field(init=False)  # matrix of the spin product in `basis`

    def __post_init__(self):
        self.gram = -np.diag(self.eigenvalues).astype(complex)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def spin_space(x, tol: float = RANK_TOL) -> SpinSpace:
    """Spin space S_x = image(x) with the spin product  <u|v>_x = -<u, x v>."""
    a = _asmat(x)
    w, v = np.linalg.eigh(a)
    cut = tol * max(1.0, np.abs(w).max(initial=0.0))
    keep = np.abs(w) > cut
    w_kept = w[keep]
    basis = v[:, keep]
    # signature of the form -x restricted to the image
    p = int(np.sum(w_kept < 0))
    q = int(np.sum(w_kept > 0))
    return SpinSpace(point=a, basis=basis, eigenvalues=w_kept, signature=(p, q))


def spin_product(x, u, v) -> complex:
    """ <u|v>_x = -<u, x v>;  u, v are projected to the image of x if necessary."""
    a = _asmat(x)
    sx = spin_space(a)
    pu = sx.basis @ (sx.basis.conj().T @ u)
    pv = sx.basis @ (sx.basis.conj().T @ v)
    if np.linalg.norm(pu - u) > 1e-8 * max(1.0, np.linalg.norm(u)) or np.linalg.norm(
        pv - v
    ) > 1e-8 * max(1.0, np.linalg.norm(v)):
        warnings.warn("vector outside the spin space was projected", stacklevel=2)
    return complex(-(pu.conj() @ (a @ pv)))


def kernel(sx: SpinSpace, sy: SpinSpace) -> np.ndarray:
    """Kernel of the fermionic projector P(x,y) = pi_x y|_{S_y} as a matrix S_y -> S_x."""
    return sx.basis.conj().T @ (sy.point @ sy.basis)


def closed_chain(sx: SpinSpace, sy: SpinSpace) -> np.ndarray:
    """A_xy = P(x,y) P(y,x): an endomorphism of S_x."""
    return kernel(sx, sy) @ kernel(sy, sx)


def physical_wavefunction(u, points) -> list:
    """psi^u(x) = pi_x u for each point x (ambient f-vectors)."""
    out = []
    for x in points:
        sx = spin_space(x)
        out.append(sx.basis @ (sx.basis.conj().T @ np.asarray(u, dtype=complex)))
    return out


def completeness_check(x, y, phi) -> float:
    """Residual of P(x,y) phi = -sum_i psi^{b_i}(x) <psi^{b_i}(y)| phi>_y.

    The basis b_i is the canonical orthonormal basis of C^f, so the sum is
    pi_x pi_y (y phi); phi is projected to S_y first. x and y are points or
    their already built SpinSpace.
    """
    sx = x if isinstance(x, SpinSpace) else spin_space(x)
    sy = y if isinstance(y, SpinSpace) else spin_space(y)
    phi = sy.basis @ (sy.basis.conj().T @ np.asarray(phi, dtype=complex))
    y_phi = sy.point @ phi
    lhs = sx.basis @ (sx.basis.conj().T @ y_phi)
    rhs = sx.basis @ (sx.basis.conj().T @ (sy.basis @ (sy.basis.conj().T @ y_phi)))
    return float(np.linalg.norm(lhs - rhs))


def spin_connection(sx: SpinSpace, sy: SpinSpace, tol: float = 1e-8) -> np.ndarray:
    """Unitary factor of the polar decomposition of P(x,y) w.r.t. the spin products.

    D = P(x,y) (P(y,x)P(x,y))^{-1/2}: S_y -> S_x preserves the spin
    products: conj(D).T @ G_x @ D = G_y. For x == y the connection is
    normalized to the identity. Raises NotSpinConnectable when the kernel
    is singular, the spin spaces have different dimension, or the
    unitarity residual exceeds tol.
    """
    if sx.dim != sy.dim:
        raise NotSpinConnectable("spin spaces have different dimensions")
    if np.array_equal(sx.point, sy.point):
        return np.eye(sx.dim, dtype=complex)
    import scipy.linalg  # sqrtm only; kept out of the CLI's import time
    p_xy = kernel(sx, sy)
    a_yx = kernel(sy, sx) @ p_xy  # closed chain on S_y
    try:
        h = scipy.linalg.sqrtm(a_yx)
        d = p_xy @ np.linalg.inv(h)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotSpinConnectable(f"polar factor does not exist: {exc}") from exc
    if not np.all(np.isfinite(d)):
        raise NotSpinConnectable("polar factor is singular")
    resid = np.linalg.norm(d.conj().T @ sx.gram @ d - sy.gram)
    if resid > tol * max(1.0, np.linalg.norm(sy.gram)):
        raise NotSpinConnectable(f"unitarity residual {resid:.3e} exceeds tolerance")
    return d


def holonomy(sx: SpinSpace, sy: SpinSpace, sz: SpinSpace) -> np.ndarray:
    """Loop curvature R(x,y,z) = D_{x,y} D_{y,z} D_{z,x}: S_x -> S_x."""
    return spin_connection(sx, sy) @ spin_connection(sy, sz) @ spin_connection(sz, sx)


def measure_to_json(measure: DiscreteMeasure, cfg: SystemConfig) -> dict:
    return {
        "config": {"f": cfg.f, "n": cfg.n, "kappa": cfg.kappa, "s": cfg.s},
        "points": [complex_matrix_to_json(_asmat(p)) for p in measure.points],
        "weights": measure.weights.tolist(),
    }


def measure_from_json(obj: dict):
    c = obj["config"]
    cfg = SystemConfig(f=int(c["f"]), n=int(c["n"]), kappa=float(c["kappa"]), s=float(c.get("s", 0.0)))
    points = [validate_point(complex_matrix_from_json(p), cfg) for p in obj["points"]]
    measure = DiscreteMeasure(points=points, weights=np.asarray(obj["weights"], dtype=float))
    return measure, cfg


def complex_matrix_to_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def complex_matrix_from_json(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])
