"""Finite causal fermion systems: operator points, causal structure, and spin geometry.

Points are Hermitian f x f matrices with at most n positive and at most n
negative eigenvalues. The kappa-Lagrangian of a pair is built from the
moduli of the (generally complex) eigenvalues of the operator product xy,
and the causal action is its double integral against a weighted discrete
measure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

#: Relative eigenvalue threshold below which a product eigenvalue counts as zero.
RANK_TOL = 1e-9
#: Relative tolerance for the "all moduli equal" test of the causal classification.
CAUSAL_TOL = 1e-8
#: The engine's one point-set type: a Hermitian stack (..., N, f, f), its spectra (..., N, f) and eigenvectors.
Eigh = namedtuple("Eigh", "points eigenvalues eigenvectors")

SPACELIKE = "spacelike"
TIMELIKE = "timelike"
LIGHTLIKE = "lightlike"


class NotHermitian(ValueError):
    pass


class SignatureViolation(ValueError):
    pass


class NotSpinConnectable(RuntimeError):
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
        if not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not 0 <= self.s < np.inf:
            raise ValueError(f"s must be non-negative and finite, got {self.s}")


class OperatorPoint(Eigh):
    """A validated point of the operator manifold: the one-point `Eigh` (f, f), (f,), (f, f) its validation solved."""

    __slots__ = ()

    @property
    def matrix(self) -> np.ndarray:
        return self.points


def validate_point(m, cfg: SystemConfig) -> OperatorPoint:
    """Check Hermiticity and the signature bound (<= n positive, <= n negative eigenvalues) of one point."""
    return OperatorPoint(*(x[0] for x in validate_points(np.asarray(m, dtype=complex)[None], cfg)))


def validate_points(a, cfg: SystemConfig) -> Eigh:
    """The `Eigh` of the Hermitian parts of a stack (N, f, f) of points, checked as `validate_point` checks one: one
    stacked check of each kind in turn, each raising at the first point that fails it, the last on the `eigh`."""
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NotHermitian("point must be a square matrix")
    if a.shape[1] != cfg.f:
        raise NotHermitian(f"point must be {cfg.f} x {cfg.f}")
    if not np.isfinite(a).all():
        raise NotHermitian("point entries must be finite")
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0) > 1e-12 * scale):
        raise NotHermitian("point is not Hermitian")
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    w, v = np.linalg.eigh(a)
    check_signature(w, cfg.n)
    return Eigh(a, w, v)


def zero_cut(w):
    """The zero cut RANK_TOL * max(1, max|w|) of each real spectrum along the last axis of `w`."""
    return RANK_TOL * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))


def check_signature(w, n: int):
    """The zero cut of each real spectrum along the last axis of `w`; raises at the first spectrum with more
    than n eigenvalues beyond it on either side."""
    cut = zero_cut(w)
    n_pos, n_neg = (np.ravel(np.sum(side, axis=-1)) for side in (w > cut[..., None], w < -cut[..., None]))
    bad = np.flatnonzero((n_pos > n) | (n_neg > n))
    if bad.size:
        raise SignatureViolation(
            f"{n_pos[bad[0]]} positive and {n_neg[bad[0]]} negative eigenvalues exceed spin dimension {n}"
        )
    return cut


def random_point(rng, cfg: SystemConfig) -> OperatorPoint:
    """Random rank <= min(2n, f) point with at most n positive and n negative eigenvalues."""
    return validate_point(_random_matrix(rng, cfg), cfg)


def _random_matrix(rng, cfg: SystemConfig) -> np.ndarray:
    """The matrix of a `random_point`, before validation."""
    f, n = cfg.f, cfg.n
    n_pos = int(rng.integers(0, min(n, f) + 1))
    n_neg = int(rng.integers(0, min(n, f - n_pos) + 1))
    k = n_pos + n_neg
    if not k:
        return np.zeros((f, f), dtype=complex)
    g = rng.standard_normal((f, k)) + 1j * rng.standard_normal((f, k))
    q, _ = np.linalg.qr(g)
    vals = np.concatenate([0.2 + rng.random(n_pos), -(0.2 + rng.random(n_neg))])
    return (q * vals) @ q.conj().T


#: Pairs per batched closed-chain eigensolve in `chain_spectra`.
PAIR_BLOCK = 256


def spin_frames(points: Eigh, cfg: SystemConfig) -> Eigh:
    """The `Eigh` of the spin spaces: per point its matrix and its top min(2n, f) eigenpairs by modulus, the
    eigenvalues inside the zero cut set to exactly 0, in descending modulus.

    `points` is the `Eigh` of a stack (..., f, f), such as a stack (B, N, f, f) of B point sets; the frames keep its
    leading axes. The zero cut is that of `check_signature`, which raises SignatureViolation for a point with more
    than n eigenvalues beyond it on either side.
    """
    a, w, v = points
    w = np.where(np.abs(w) > check_signature(w, cfg.n)[..., None], w, 0.0)
    order = np.argsort(-np.abs(w), axis=-1, kind="stable")[..., : 2 * cfg.n]
    return Eigh(a, np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[..., None, :], axis=-1))


def chain_spectra(frames, i, j, cfg: SystemConfig) -> np.ndarray:
    """The 2n eigenvalues of xy of each pair (x, y) = (points[i[k]], points[j[k]]): (len(i), 2n).

    `frames` is `spin_frames(points, cfg)` of points (N, f, f). The eigenvalues are those of the closed
    chain Lambda_x G Lambda_y G*, G = U_x* U_y, on the spin spaces: one batched 2n x 2n `eigvals` per
    PAIR_BLOCK pairs, each unordered pair solved once, as (min(i, j), max(i, j)) (yx has the spectrum of
    xy). Eigenvalues below RANK_TOL * ||x|| ||y|| are exact zeros (a vanishing product yields the
    all-zero spectrum, not dust); each spectrum is sorted by descending modulus, then phase. ||x||_2 is
    the frame's first |eigenvalue|, 0 where the whole spectrum lies inside the zero cut.
    """
    w, u = frames.eigenvalues, frames.eigenvectors
    top = np.abs(w[:, 0])
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys, back = np.unique(lo * len(w) + hi, return_inverse=True)
    lo, hi = np.divmod(keys, len(w))
    out = np.zeros((len(keys), 2 * cfg.n), dtype=complex)
    for s in range(0, len(keys), PAIR_BLOCK):
        a, b = lo[s : s + PAIR_BLOCK], hi[s : s + PAIR_BLOCK]
        g = u[a].conj().swapaxes(1, 2) @ u[b]
        lam = np.linalg.eigvals((w[a, :, None] * g * w[b, None, :]) @ g.conj().swapaxes(1, 2))
        scale = np.maximum(top[a] * top[b], 1e-300)[:, None]
        out[s : s + PAIR_BLOCK, : lam.shape[1]] = np.where(np.abs(lam) > RANK_TOL * scale, lam, 0.0)
    return np.take_along_axis(out, np.lexsort((np.angle(out), -np.abs(out))), axis=-1)[back]


def pair_spectra(xs: Eigh, ys: Eigh, cfg: SystemConfig) -> np.ndarray:
    """The 2n eigenvalues of xy for every pair of xs x ys (see `chain_spectra`): (..., N_x, N_y, 2n).

    xs and ys are the `Eigh`s of stacks (..., N, f, f) with equal leading axes, such as stacks (B, N, f, f) of B point
    sets; each set's spectra are bitwise those it has alone. When xs and ys hold equal matrices, the frames are those
    of ys, so the spectra of (x, y) and (y, x) are one solve and L(x, y) = L(y, x) bitwise. Otherwise the frames are
    those of the two `Eigh`s joined, and each pair (i, j) is their pair (i, N_x + j).
    """
    a, b = xs.points, ys.points
    same = a.shape == b.shape and np.array_equal(a, b)
    frames = spin_frames(ys if same else Eigh(*(np.concatenate(x, axis=a.ndim - 3) for x in zip(xs, ys))), cfg)
    lead, nx, ny, size = a.shape[:-3], a.shape[-3], b.shape[-3], frames.points.shape[-3]
    s, i, j = np.indices((math.prod(lead), nx, ny)).reshape(3, -1)
    frames = Eigh(*(x.reshape(-1, *x.shape[len(lead) + 1 :]) for x in frames))  # the sets one after another
    lam = chain_spectra(frames, s * size + i, s * size + j + (0 if same else nx), cfg)
    return lam.reshape(*lead, nx, ny, 2 * cfg.n)


def lagrangian(lam, kappa: float) -> np.ndarray:
    """kappa-Lagrangian sum_ij (|l_i|-|l_j|)^2 / 4n + kappa (sum_j |l_j|)^2 of each spectrum along the last axis."""
    m = np.abs(lam)  # first term as its equal sum_i (m_i - mean m)^2
    return np.sum((m - m.mean(axis=-1, keepdims=True)) ** 2, axis=-1) + kappa * np.sum(m, axis=-1) ** 2


def lagrangians(xs, ys, cfg: SystemConfig) -> np.ndarray:
    """The kappa-Lagrangian (`lagrangian`) of every pair of xs x ys (see `pair_spectra`)."""
    return lagrangian(pair_spectra(xs, ys, cfg), cfg.kappa)


def causal_classes(lam: np.ndarray) -> np.ndarray:
    """Causal class of each spectrum along the last axis of `lam`.

    Spacelike: all 2n moduli equal (the all-zero spectrum counts as equal).
    Timelike: all eigenvalues real, moduli not all equal. Lightlike: the rest.
    """
    m = np.abs(lam)
    top = m.max(axis=-1, initial=0.0)
    spacelike = top - m.min(axis=-1) <= CAUSAL_TOL * top  # includes the all-zero spectrum
    timelike = np.abs(lam.imag).max(axis=-1, initial=0.0) <= CAUSAL_TOL * top
    return np.where(spacelike, SPACELIKE, np.where(timelike, TIMELIKE, LIGHTLIKE))


def _pair(x: OperatorPoint, y: OperatorPoint) -> Eigh:
    """The `Eigh` (2, f, f) of two validated points: their stored eigenpairs, stacked."""
    return Eigh(*map(np.stack, zip(x, y)))


def product_spectrum(x: OperatorPoint, y: OperatorPoint, cfg: SystemConfig) -> np.ndarray:
    """All 2n eigenvalues of xy (see `chain_spectra`), from the eigenpairs the two validations solved."""
    return chain_spectra(spin_frames(_pair(x, y), cfg), [0], [1], cfg)[0]


def causal_class(x, y, cfg: SystemConfig) -> str:
    """Spacelike, timelike, or lightlike separation of the pair (x, y) (see `causal_classes`)."""
    return str(causal_classes(product_spectrum(x, y, cfg)))


def lagrangian_first_term(x, y, cfg: SystemConfig) -> float:
    """The (1/4n) sum (|l_i|-|l_j|)^2 part alone (vanishes on spacelike pairs)."""
    return float(lagrangian(product_spectrum(x, y, cfg), 0.0))


def _within(d, tol: float) -> np.ndarray:
    """Indices of the Hermitian differences of points d (K, f, f) with operator norm max|eigvalsh| <= tol, solved only
    where ||d||_2 >= ||d||_F / sqrt(f) admits it (factor 2 for rounding)."""
    near = np.flatnonzero(np.linalg.norm(d, axis=(1, 2)) <= 2 * tol * np.sqrt(d.shape[-1]))
    return near[np.abs(np.linalg.eigvalsh(d[near])).max(axis=-1) <= tol] if near.size else near


@dataclass
class DiscreteMeasure:
    """Weighted finite collection of operator points (weights sum to one): `points`, an `Eigh`, is kept as `eigh`."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.eigh, self.points = self.points, self.points.points
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.points),):
            raise ValueError(f"weights must be a list of {len(self.points)} numbers, one per point")
        if not np.all((self.weights > 0.0) & (self.weights < np.inf)):
            raise ValueError("weights must be positive and finite")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to one (volume constraint)")
        for i in range(len(self.points) - 1):  # operator-norm distances to all later points
            if _within(self.points[i + 1 :] - self.points[i], 1e-12).size:
                raise ValueError("duplicate points in the measure support")


def merge_duplicates(points: np.ndarray, weights):
    """(points, weights) with the weight of each point within 1e-9 (`_within`) of a kept one added to the first such."""
    keep, out_w = [], []
    for k, w in enumerate(weights):
        hit = _within(points[keep] - points[k], 1e-9)
        if hit.size:
            out_w[hit[0]] += w
        else:
            keep.append(k)
            out_w.append(w)
    return points[keep], np.asarray(out_w)


def _support(measure_or_points, weights):
    """(`Eigh`, weights) of a DiscreteMeasure, or the `Eigh` and weights given."""
    if isinstance(measure_or_points, DiscreteMeasure):
        return measure_or_points.eigh, measure_or_points.weights
    return measure_or_points, np.asarray(weights, dtype=float)


def action(measure_or_points, weights=None, *, cfg: SystemConfig):
    """Causal action: the full double sum sum_ij w_i w_j L(x_i, x_j), diagonal included.

    A stack (B, N, f, f) of B point sets with weights (B, N) gives the array of their B actions from
    one `lagrangians` call; each equals the action of its set alone, bitwise.
    """
    points, w = _support(measure_or_points, weights)
    lag = lagrangians(points, points, cfg)
    if w.ndim == 2:
        return np.array([float(wb @ (lb @ wb)) for wb, lb in zip(w, lag)])
    return float(w @ (lag @ w))


def constraints(measure_or_points, weights=None):
    """(volume, trace) integrals of the measure, the trace summed point by point in support order.

    A stack (B, N, f, f) of B point sets with weights (B, N) gives two arrays (B,); each entry equals
    the integral of its set alone, bitwise.
    """
    points, w = _support(measure_or_points, weights)
    tr = np.real(np.trace(points.points, axis1=-2, axis2=-1))
    volume, trace = np.sum(w, axis=-1), sum(w[..., k] * tr[..., k] for k in range(w.shape[-1]))
    return (volume, trace) if w.ndim == 2 else (float(volume), float(trace))


def ell(xs: Eigh, measure: DiscreteMeasure, cfg: SystemConfig) -> np.ndarray:
    """Euler-Lagrange function ell(x) = sum_j w_j L(x, x_j) - s of each point of xs, the `Eigh` of a stack (N, f, f)."""
    return lagrangians(xs, measure.eigh, cfg) @ measure.weights - cfg.s


def spin_space(x: OperatorPoint) -> Eigh:
    """Spin space S_x = image(x) with the spin product  <u|v>_x = -<u, x v>: the one-point `Eigh` of x, its d
    eigenvalues beyond the zero cut and their eigenvectors (f, d), an orthonormal basis of S_x.

    The eigenpairs are those of x's frame (`spin_frames` with n = f, which bounds no rank), in its order.
    """
    f = len(x.points)
    a, w, v = spin_frames(x, SystemConfig(f, f, 1.0))
    k = np.count_nonzero(w)
    return Eigh(a, w[:k], v[:, :k])


def kernel(sx: Eigh, sy: Eigh) -> np.ndarray:
    """Kernel of the fermionic projector P(x,y) = pi_x y|_{S_y} as a matrix S_y -> S_x."""
    return sx.eigenvectors.conj().T @ (sy.points @ sy.eigenvectors)


def closed_chain(sx: Eigh, sy: Eigh) -> np.ndarray:
    """A_xy = P(x,y) P(y,x): an endomorphism of S_x."""
    return kernel(sx, sy) @ kernel(sy, sx)


def kernel_residuals(frames, i, j, phi):
    """|tr(A_xy) - tr(xy)| and the completeness residual of each pair (x, y) of `chain_spectra`.

    tr(A_xy) = sum_ab |G_ab|^2 lambda_x,a lambda_y,b in the spin-space bases (G = U_x* U_y), tr(xy)
    is summed entrywise per pair. Completeness: P(x,y) phi = -sum_i psi^{b_i}(x) <psi^{b_i}(y)|phi>_y for
    the probe phi[k] projected to S_y; with b_i the canonical basis of C^f the sum is pi_x pi_y (y phi).
    """
    mats, w, u = frames.points, frames.eigenvalues, frames.eigenvectors
    tr_chain = np.einsum("ka,kab,kb->k", w[i], np.abs(u[i].conj().swapaxes(1, 2) @ u[j]) ** 2, w[j])
    pi = (u * (w != 0)[:, None, :]) @ u.conj().swapaxes(1, 2)  # projectors onto the spin spaces
    y_phi = mats[j] @ (pi[j] @ np.reshape(phi, (len(i), mats.shape[-1], 1)))
    return (np.abs(tr_chain - np.einsum("kab,kba->k", mats[i], mats[j])),
            np.linalg.norm((pi[i] @ y_phi - pi[i] @ (pi[j] @ y_phi))[..., 0], axis=1))


def completeness_check(x: OperatorPoint, y: OperatorPoint, phi) -> float:
    """Completeness residual of one pair of validated points (see `kernel_residuals`)."""
    f = len(x.points)
    return float(kernel_residuals(spin_frames(_pair(x, y), SystemConfig(f, f, 1.0)), [0], [1], [phi])[1][0])


def spin_connections(frames, i, j):
    """Spin connection D_{x,y}: S_y -> S_x of each pair (x, y) of `chain_spectra`, and its unitarity residual.

    D = P(x,y) A^{-1/2}, A = P(y,x) P(x,y) on S_y, is the unitary factor of the polar decomposition of
    P(x,y) w.r.t. the spin products (gram matrices -Lambda). In the bases of `spin_space`, P(x,y) =
    G Lambda_y with G = U_x* U_y; A^{-1/2} = V diag(mu^{-1/2}) V^{-1} (principal branch, as `sqrtm`)
    comes from one batched `eig` per spin dimension. A pair gets D (I for x == y) or the
    NotSpinConnectable that stops it: unequal dimensions, a singular A or V, or a residual
    ||D* gram_x D - gram_y|| (NaN for a non-finite D) above 1e-8 * max(1, ||gram_y||).
    """
    mats, w, u = frames.points, frames.eigenvalues, frames.eigenvectors
    dim, same = np.count_nonzero(w, axis=1), np.all(mats[i] == mats[j], axis=(1, 2))
    out = [NotSpinConnectable("spin spaces have different dimensions") for _ in i]
    resid = np.full(len(i), np.nan)
    for k in set(dim[i].tolist()):  # not np.unique, which imports numpy.ma
        sel = np.flatnonzero((dim[i] == k) & (dim[j] == k))
        lx, ly = w[i[sel], :k], w[j[sel], :k]
        g = u[i[sel], :, :k].conj().swapaxes(1, 2) @ u[j[sel], :, :k]
        p_xy = g * ly[:, None, :]
        mu, v = np.linalg.eig((g.conj().swapaxes(1, 2) * lx[:, None, :]) @ p_xy)
        ok = np.all(mu != 0, axis=1) & (np.linalg.det(v) != 0)
        v_inv = np.linalg.inv(np.where(ok[:, None, None], v, np.eye(k)))
        d = p_xy @ (v / np.sqrt(np.where(ok[:, None], mu, 1.0))[:, None, :]) @ v_inv
        r = np.linalg.norm(ly[:, None, :] * np.eye(k) - d.conj().swapaxes(1, 2) @ (lx[:, :, None] * d), axis=(1, 2))
        bound = 1e-8 * np.maximum(1.0, np.linalg.norm(ly, axis=1))
        for s, p in enumerate(sel):
            if same[p]:
                out[p], resid[p] = np.eye(k, dtype=complex), 0.0
            elif not ok[s]:
                out[p] = NotSpinConnectable("polar factor does not exist: singular closed chain or eigenbasis")
            elif not r[s] <= bound[s]:  # also a D that is not finite
                out[p] = NotSpinConnectable(f"unitarity residual {r[s]:.3e} exceeds tolerance")
            else:
                out[p], resid[p] = d[s], r[s]
    return out, resid


def measure_to_json(measure: DiscreteMeasure, cfg: SystemConfig) -> dict:
    return {
        "config": {"f": cfg.f, "n": cfg.n, "kappa": cfg.kappa, "s": cfg.s},
        "points": np.stack([measure.points.real, measure.points.imag], -1).tolist(),
        "weights": measure.weights.tolist(),
    }


def json_array(key: str, obj) -> np.ndarray:
    """obj, a JSON number or a rectangular table of them, as floats. A bool, string, null or integer beyond the float
    range raises ValueError naming key; a list where a number belongs (a ragged table) raises TypeError."""
    a = np.array(obj, dtype=object)
    for item in a.flat:
        if type(item) not in (int, float):
            if type(item) is list:
                raise TypeError(f"{key} table is not rectangular")
            raise ValueError(f"{key} must be a JSON number, got {item!r}")
    try:
        return a.astype(float)
    except OverflowError:
        raise ValueError(f"{key} must be a finite real number, got an integer beyond the float range") from None


def json_object(key: str, obj) -> dict:
    """obj if it is a JSON object; any other JSON value raises ValueError naming key and the value's type."""
    if type(obj) is not dict:
        raise ValueError(f"{key} must be a JSON object, got {type(obj).__name__}")
    return obj


def config_from_json(c: dict) -> SystemConfig:
    """SystemConfig from a file's "config" object: JSON integers f and n, JSON numbers kappa and an optional s."""
    json_object("config", c)
    for key in ("f", "n"):
        if type(c[key]) is not int:
            raise ValueError(f"config {key} must be a JSON integer, got {c[key]!r}")
    kappa, s = json_array("config kappa", c["kappa"]), json_array("config s", c.get("s", 0.0))
    if kappa.ndim or s.ndim:
        raise ValueError("config kappa and s must be JSON numbers, not lists")
    return SystemConfig(f=c["f"], n=c["n"], kappa=float(kappa), s=float(s))


def points_from_json(obj: dict):
    """(`Eigh` of the points (N, f, f), SystemConfig) of a measure or pairs file: its N x f x f table of [re, im] pairs,
    validated as one stack (`validate_points`). A ragged table raises as its first point that is bad alone would."""
    cfg, pts = config_from_json(json_object("top level", obj)["config"]), obj["points"]
    try:
        a = json_array("point entry", pts) if pts != [] else np.zeros((0, cfg.f, cfg.f, 2))
    except TypeError:  # ragged: each point alone, in order, until one raises as it would by itself
        for p in pts if len(pts) > 1 else []:  # a single point alone is this same table
            points_from_json({"config": obj["config"], "points": [p]})
        a = np.zeros(0)  # no table of [re, im] pairs
    if a.ndim != 4 or a.shape[3] != 2:
        raise ValueError(f"points must be a list of {cfg.f} x {cfg.f} tables of [re, im] pairs")
    return validate_points(a.view(complex)[..., 0], cfg), cfg


def measure_from_json(obj: dict):
    """(DiscreteMeasure, SystemConfig) of a measure file: `points_from_json` and a list of weights, one per point."""
    points, cfg = points_from_json(obj)
    try:
        weights = json_array("weight", obj["weights"])
    except TypeError:
        raise ValueError(f"weights must be a list of {len(points.points)} numbers, one per point") from None
    return DiscreteMeasure(points=points, weights=weights), cfg
