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
import scipy.linalg

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


def product_spectrum(x, y, cfg: SystemConfig, tol: float = RANK_TOL) -> np.ndarray:
    """All 2n eigenvalues of xy: the non-zero ones padded with zeros.

    Sorted by descending modulus, then by phase, so equal inputs give a
    deterministic ordering.
    """
    a = _asmat(x)
    b = _asmat(y)
    try:
        lam = np.linalg.eigvals(a @ b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(f"eigensolver failed on product: {exc}") from exc
    # zero threshold relative to ||x|| ||y||: a vanishing product must yield
    # the all-zero spectrum, not relatively-ordered eigenvalue dust
    scale = float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
    lam = np.where(np.abs(lam) > tol * max(scale, 1e-300), lam, 0.0)
    nonzero = lam[lam != 0.0]
    if len(nonzero) > 2 * cfg.n:
        # keep the 2n largest; anything beyond the bound is numerical dust
        order = np.argsort(-np.abs(nonzero))
        extra = np.abs(nonzero[order[2 * cfg.n :]])
        if extra.max(initial=0.0) > 1e-5 * scale:
            raise EigensolverError("product has more than 2n significant eigenvalues")
        nonzero = nonzero[order[: 2 * cfg.n]]
    out = np.zeros(2 * cfg.n, dtype=complex)
    out[: len(nonzero)] = nonzero
    order = np.lexsort((np.angle(out), -np.abs(out)))
    return out[order]


def lagrangian(x, y, cfg: SystemConfig) -> float:
    """kappa-Lagrangian: sum_ij (|l_i|-|l_j|)^2 / 4n + kappa (sum_j |l_j|)^2."""
    m = np.abs(product_spectrum(x, y, cfg))
    d = m[:, None] - m[None, :]
    return float(np.sum(d * d) / (4.0 * cfg.n) + cfg.kappa * np.sum(m) ** 2)


def causal_class(x, y, cfg: SystemConfig, rtol: float = CAUSAL_TOL) -> str:
    """Spacelike, timelike, or lightlike separation of the pair (x, y).

    Spacelike: all 2n moduli equal (the all-zero spectrum counts as equal).
    Timelike: all eigenvalues real, moduli not all equal. Lightlike: the rest.
    """
    lam = product_spectrum(x, y, cfg)
    m = np.abs(lam)
    top = m.max(initial=0.0)
    if top == 0.0 or (top - m.min()) <= rtol * top:
        return SPACELIKE
    if np.abs(lam.imag).max(initial=0.0) <= rtol * top:
        return TIMELIKE
    return LIGHTLIKE


def lagrangian_first_term(x, y, cfg: SystemConfig) -> float:
    """The (1/4n) sum (|l_i|-|l_j|)^2 part alone (vanishes on spacelike pairs)."""
    m = np.abs(product_spectrum(x, y, cfg))
    d = m[:, None] - m[None, :]
    return float(np.sum(d * d) / (4.0 * cfg.n))


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
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                d = np.linalg.norm(_asmat(self.points[i]) - _asmat(self.points[j]), 2)
                if d <= 1e-12:
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
    total = 0.0
    for i, xi in enumerate(points):
        for j, xj in enumerate(points):
            total += w[i] * w[j] * lagrangian(xi, xj, cfg)
    return total


def constraints(measure_or_points, weights=None):
    """(volume, trace) integrals of the measure."""
    if isinstance(measure_or_points, DiscreteMeasure):
        points, w = measure_or_points.points, measure_or_points.weights
    else:
        points, w = measure_or_points, np.asarray(weights, dtype=float)
    volume = float(np.sum(w))
    trace = float(sum(wi * np.real(np.trace(_asmat(p))) for wi, p in zip(w, points)))
    return volume, trace


def ell(x, measure: DiscreteMeasure, cfg: SystemConfig) -> float:
    """Euler-Lagrange function ell(x) = sum_j w_j L(x, x_j) - s."""
    return (
        sum(
            wj * lagrangian(x, xj, cfg)
            for wj, xj in zip(measure.weights, measure.points)
        )
        - cfg.s
    )


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

    The basis b_i is the canonical orthonormal basis of C^f; phi is
    projected to S_y first.
    """
    a = _asmat(x)
    b = _asmat(y)
    f = a.shape[0]
    sx = spin_space(a)
    sy = spin_space(b)
    phi = sy.basis @ (sy.basis.conj().T @ np.asarray(phi, dtype=complex))
    lhs = sx.basis @ (sx.basis.conj().T @ (b @ phi))
    rhs = np.zeros(f, dtype=complex)
    for i in range(f):
        e = np.zeros(f, dtype=complex)
        e[i] = 1.0
        psi_x = sx.basis @ (sx.basis.conj().T @ e)
        psi_y = sy.basis @ (sy.basis.conj().T @ e)
        rhs -= psi_x * (-(psi_y.conj() @ (b @ phi)))
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
