"""Lattice-regularized Dirac-sea kernels and the eight-sector octonionic vacuum.

Spatial momenta live on the discrete Brillouin zone of a periodic spatial
grid; the on-shell frequencies omega = sqrt(k^2 + m^2) are kept in the
continuum, so kernels are stored over signed time displacements on a
finite window (no time wrap; see the hermiticity identity below). Each
momentum mode is damped by the soft ultraviolet cutoff exp(-eps * omega).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from . import __version__, cfs, require_finite
from .gammas import GammaSet, dirac_rep

#: Recorded convention for the local correlation operators (see `local_spectra`).
LOCAL_CORRELATION_CONVENTION = (
    "F(x) of sector e_i has the nonzero spectrum (a^d/T) eig(C[i,0] E_nu(0) + C[i,1] E_c(0)) of the stored kernel at "
    "zero displacement, E_nu = a (sum of the neutrino seas) b: tau_reg acts on the summed kernel, not on each mode"
)


@dataclass(frozen=True)
class LatticeSpec:
    """Sites per spatial dimension L, time slices T, spacing a, cutoff eps, dims tag."""

    L: int
    T: int
    a: float
    epsilon: float
    dims: str = "1+1"

    def __post_init__(self):
        require_finite(self, "L", "T", "a", "epsilon")
        if self.L < 2 or self.L % 2:
            raise ValueError("L must be an even positive integer")
        if self.T < 3:
            raise ValueError("T must be at least 3")
        if self.a <= 0:
            raise ValueError("lattice spacing must be positive")
        if self.epsilon < self.a:
            raise ValueError("cutoff scale epsilon must be >= the lattice spacing")
        if self.dims not in ("1+1", "1+3"):
            raise ValueError("dims must be '1+1' or '1+3'")

    @property
    def spatial_dims(self) -> int:
        return 1 if self.dims == "1+1" else 3

    @property
    def n_spatial(self) -> int:
        return self.L**self.spatial_dims

    def momenta(self) -> np.ndarray:
        """All spatial grid momenta, shape (n_spatial, spatial_dims)."""
        ns = np.arange(-self.L // 2, self.L // 2)
        axes = np.meshgrid(*([ns] * self.spatial_dims), indexing="ij")
        grid = np.stack([ax.ravel() for ax in axes], axis=1)
        return 2.0 * np.pi * grid / (self.L * self.a)

    def to_json(self) -> dict:
        return {"L": self.L, "T": self.T, "a": self.a, "epsilon": self.epsilon, "dims": self.dims}

    @classmethod
    def from_json(cls, obj: dict) -> "LatticeSpec":
        return cls(L=int(obj["L"]), T=int(obj["T"]), a=float(obj["a"]),
                   epsilon=float(obj["epsilon"]), dims=str(obj["dims"]))


def chiral_sandwich(tau: float, gammas: GammaSet):
    """Left/right factors scaling the right-handed mode components by tau."""
    a = gammas.chiral_left() + tau * gammas.chiral_right()
    b = gammas.gamma[0] @ a @ gammas.gamma[0]
    return a, b


def _require_mass(mass: float) -> None:
    """A mass is 0 or a value in [1e-150, 1e150]: a smaller one has a subnormal or zero square, with which
    sqrt(m^2) differs from m, so the k = 0 mode's omega is lost and the kernel and mode paths disagree;
    a larger one has an infinite square."""
    if not (mass == 0.0 or 1e-150 <= mass <= 1e150):
        raise ValueError("masses must be finite and non-negative, 0 or >= 1e-150 (a smaller square underflows) "
                         "and <= 1e150 (a larger square overflows)")


def mode_table(mass: float, spec: LatticeSpec, gammas: GammaSet):
    """Grid momenta (K, d), on-shell frequencies (K,) and k-slash stack (K, 4, 4) with k0 = -omega."""
    _require_mass(mass)
    kvecs = spec.momenta()
    omegas = np.sqrt(np.sum(kvecs * kvecs, axis=1) + mass * mass)
    return kvecs, omegas, gammas.slash(np.column_stack([-omegas, kvecs]))


def _mode_matrices(mass: float, spec: LatticeSpec, gammas: GammaSet):
    """Per-mode (omegas, kslash, matrices (kslash+m)/(2 omega) * exp(-eps omega))."""
    _, omegas, kslash = mode_table(mass, spec, gammas)
    # the exactly null mode of the massless sea has measure zero in the
    # continuum integral and is dropped on the lattice
    live = omegas > 0.0
    mats = np.zeros_like(kslash)
    mats[live] = (kslash[live] + mass * np.eye(4)) / (2.0 * omegas[live, None, None])
    return omegas, kslash, mats * np.exp(-spec.epsilon * omegas)[:, None, None]


def mode_sum(time_phase: np.ndarray, mats: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """Kernel over displacements: sum_k time_phase[t, k] e^{+i k dx} mats[k] / (L a)^d.

    The grid momenta 2 pi n/(L a), n = -L/2..L/2-1, are the DFT frequencies
    of the periodic spatial grid, so the spatial sum is one inverse FFT over
    the (shifted) momentum axes and equals the direct sum to rounding.
    """
    d = spec.spatial_dims
    grid = (len(time_phase),) + (spec.L,) * d + (4, 4)
    # taking the modes in ifftshift order lays the terms out shifted, so the
    # grid is formed once and transformed and scaled in place
    order = np.fft.ifftshift(np.arange(spec.n_spatial).reshape((spec.L,) * d)).ravel()
    rel = (time_phase[:, order, None, None] * mats[order]).reshape(grid)
    axes = tuple(range(1, 1 + d))
    np.fft.ifftn(rel, axes=axes, out=rel)
    # (dk / 2 pi)^d per mode: the kernel approximates the continuum integral
    # and stays put when the grid is refined at fixed physical box size
    rel *= spec.L**d / (spec.L * spec.a) ** d
    return rel


class SectorKernel:
    """Octonion-sector two-point kernel stored over lattice displacements.

    `rel` has shape (2T-1, L, ..., 4, 4); time index it encodes the signed
    displacement dt = it - (T-1), spatial axes are periodic. The kernel
    satisfies gamma0 K(y,x)^dag gamma0 = K(x,y).
    """

    def __init__(self, spec: LatticeSpec, rel: np.ndarray, gammas: GammaSet = None):
        self.spec = spec
        self.rel = rel
        self.gammas = gammas or dirac_rep()
        expect = (2 * spec.T - 1,) + (spec.L,) * spec.spatial_dims + (4, 4)
        if rel.shape != expect:
            raise ValueError(f"rel must have shape {expect}")

    def hermiticity_residual(self) -> float:
        """Max-norm residual of gamma0 K(-d)^dag gamma0 = K(d), one time offset at a time."""
        g0, rel = self.gammas.gamma[0], self.rel
        flip = np.ix_(*[-np.arange(self.spec.L) % self.spec.L] * self.spec.spatial_dims)
        worst = []
        for t in range(len(rel)):
            mirrored = rel[-1 - t][flip]  # K(-d): time offset reversed, each spatial offset x taken at -x mod L
            mirrored = g0 @ np.conj(mirrored).swapaxes(-1, -2) @ g0
            worst.append(np.abs(mirrored - rel[t]).max())
        return float(np.max(worst))


def sea_kernel(mass: float, spec: LatticeSpec) -> SectorKernel:
    """Negative-energy mode sum (kslash + m)/(2 omega) e^{-ik(x-y)} with k0 = -omega.

    Every mode carries the regularization factor exp(-eps * omega); the
    chiral neutrino regularization is applied to the summed seas (sector_bases).
    """
    omegas, _, mats = _mode_matrices(mass, spec, dirac_rep())
    dts = np.arange(-(spec.T - 1), spec.T) * spec.a
    rel = mode_sum(np.exp(1j * np.outer(dts, omegas)), mats, spec)  # e^{+i omega dt}
    return SectorKernel(spec, rel)


def mode_onshell_residuals(mass: float, spec: LatticeSpec) -> np.ndarray:
    """Per-mode max-norm of (kslash - m)(kslash + m), zero on the mass shell."""
    _, _, kslash = mode_table(mass, spec, dirac_rep())
    m = mass * np.eye(4)
    return np.abs((kslash - m) @ (kslash + m)).max(axis=(1, 2))


def _dirac_rows(kernel: SectorKernel, rel: np.ndarray, mass: float, pseudo: float) -> np.ndarray:
    """(i d-slash + i gamma5 n - m) K on the interior time offsets of `rel`, a run of consecutive offsets of K.

    One matmul of the row [i gamma_mu / 2a ..., i n gamma5 - m] with a buffer stacking dt K, the d dx_j K and K.
    """
    g, d = kernel.gammas, kernel.spec.spatial_dims
    inner = rel[1:-1]
    buf = np.empty(inner.shape[:-2] + (d + 2, 4, 4), dtype=rel.dtype)
    np.subtract(rel[2:], rel[:-2], out=buf[..., 0, :, :])
    for j in range(1, d + 1):
        src, dst = np.moveaxis(inner, j, 0), np.moveaxis(buf[..., j, :, :], j, 0)
        np.subtract(src[2:], src[:-2], out=dst[1:-1])  # K(x+1) - K(x-1), wrapping at both ends
        np.subtract(src[1:2], src[-1:], out=dst[:1])
        np.subtract(src[:1], src[-2:-1], out=dst[-1:])
    buf[..., d + 1, :, :] = inner
    row = np.hstack([1j * gm / (2.0 * kernel.spec.a) for gm in g.gamma[: d + 1]]
                    + [1j * pseudo * g.gamma5 - mass * np.eye(4)])
    return row @ buf.reshape(inner.shape[:-2] + (4 * (d + 2), 4))


def dirac_residual_single(kernel: SectorKernel, mass: float, pseudo: float = 0.0) -> float:
    """Max-norm of (i d-slash + i gamma5 pseudo - m) K by central differences, one interior time offset at a time."""
    rel = kernel.rel
    worst = [np.abs(_dirac_rows(kernel, rel[t - 1:t + 2], mass, pseudo)).max() for t in range(1, len(rel) - 1)]
    return float(np.max(worst))


@dataclass(frozen=True)
class MassData:
    """Three charged masses, three neutrino masses, and tau_reg."""

    charged_masses: tuple
    neutrino_masses: tuple
    tau_reg: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "charged_masses", tuple(float(m) for m in self.charged_masses))
        object.__setattr__(self, "neutrino_masses", tuple(float(m) for m in self.neutrino_masses))
        if len(self.charged_masses) != 3 or len(self.neutrino_masses) != 3:
            raise ValueError("exactly three masses per sector")
        for m in self.charged_masses + self.neutrino_masses:
            _require_mass(m)
        require_finite(self, "tau_reg")
        if sum(1 for m in self.neutrino_masses if m == 0.0) > 2:
            raise ValueError("at most two of the neutrino masses may vanish")
        if not 0.0 < self.tau_reg <= 1.0:
            raise ValueError("tau_reg must lie in (0, 1]")

    def to_json(self) -> dict:
        return {
            "charged_masses": list(self.charged_masses),
            "neutrino_masses": list(self.neutrino_masses),
            "tau_reg": self.tau_reg,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MassData":
        return cls(
            charged_masses=obj["charged_masses"],
            neutrino_masses=obj["neutrino_masses"],
            tau_reg=float(obj["tau_reg"]),
        )


#: Labels of the six tau = 1 seas a vacuum is built from, in storage order.
SEA_LABELS = ("nu_1", "nu_2", "nu_3", "c_1", "c_2", "c_3")

#: Sector coefficients of the built vacuum over the bases (E_nu, E_c): e0 = E_nu, e1..e7 = E_c.
VACUUM_COEFFICIENTS = np.array([[1, 0]] + [[0, 1]] * 7, dtype=complex)

#: The 25 summands of the auxiliary vacuum, each mapped to the SEA_LABELS index of its sea:
#: nu_1..3, the zero right-handed high-energy slot nu_he (None), then c_1..3 for each charged sector a.
AUX_SUMMANDS = {"nu_1": 0, "nu_2": 1, "nu_3": 2, "nu_he": None,
                **{f"c{a}_{b}": 2 + b for a in range(1, 8) for b in (1, 2, 3)}}


def vacuum_seas(md: MassData, spec: LatticeSpec):
    """The six tau = 1 Dirac seas, one per mass, in SEA_LABELS order; each is computed when it is asked for."""
    for m in md.neutrino_masses + md.charged_masses:
        yield sea_kernel(m, spec)


def dirac_residual(seas, md: MassData) -> dict:
    """{aux label: lattice Dirac residual of its summand}; each sea is evaluated once, at its own mass.

    `seas` may be an iterator such as `read_seas`; map holds no sea past its residual, so one is live at a time.
    """
    per_sea = list(map(dirac_residual_single, seas, md.neutrino_masses + md.charged_masses))
    return {label: 0.0 if i is None else per_sea[i] for label, i in AUX_SUMMANDS.items()}


def _sector_sums(seas, tau_reg: float, part) -> tuple:
    """(spec, gammas, [a (sum of part(nu rel)) b, sum of part(charged rel)]) of the six seas in SEA_LABELS order.

    A fold that drops each sea before it asks for the next, so a stream has one sea live; each sum has the
    rounding of (s0 + s1) + s2. The chiral sandwich (a, b) of tau_reg commutes with the mode sum.
    """
    sums, n = [], 0
    for sea in seas:  # not enumerate or zip: both hold the previous item while they fetch the next
        block = part(sea.rel)
        if n % 3:
            sums[-1] += block
        else:
            sums.append(block.copy())
        spec, gammas, n = sea.spec, sea.gammas, n + 1
        del sea, block
        if n == 3:
            a, b = chiral_sandwich(tau_reg, gammas)
            sums[0] = a @ sums[0] @ b
    return spec, gammas, sums


def sector_bases(seas, tau_reg: float) -> tuple:
    """(E_nu, E_c) = (a (sum of the neutrino seas) b, sum of the charged seas), folded by `_sector_sums`."""
    spec, gammas, (nu, charged) = _sector_sums(seas, tau_reg, lambda rel: rel)
    return SectorKernel(spec, nu, gammas=gammas), SectorKernel(spec, charged, gammas=gammas)


def local_spectra(rows, seas, tau_reg: float) -> list:
    """Spectrum of F(x) for each row (c0, c1): (a^d/T) eig(c0 E_nu(0) + c1 E_c(0)), cut by `_cut` with n = 2.

    E(0) is the zero-displacement block of the `sector_bases`, folded from the seas' blocks; each distinct row is
    solved once. At tau_reg = 1 the modes psi of `local_correlation` have psi psi^dag gamma0 = -(a^d/T) K(0).
    """
    spec, _, (nu, charged) = _sector_sums(seas, tau_reg, lambda rel: rel[(len(rel) // 2,) + (0,) * (rel.ndim - 3)])
    scale, spectra = spec.a**spec.spatial_dims / spec.T, {}
    for row in map(tuple, rows):
        if row not in spectra:
            w = scale * np.linalg.eigvals(row[0] * nu + row[1] * charged)
            if np.abs(w.imag).max() > cfs.zero_cut(w):
                raise cfs.SignatureViolation(f"the sector {row[0]} E_nu + {row[1]} E_c has a non-real spectrum")
            spectra[row] = _cut(w.real, n=2)
    return [spectra[tuple(row)] for row in rows]


def materialize(coefficients: np.ndarray, bases) -> list:
    """The eight sector kernels e_i = C[i, 0] E_nu + C[i, 1] E_c of an 8 x 2 coefficient matrix C."""
    nu, charged = bases
    return [SectorKernel(nu.spec, c0 * nu.rel + c1 * charged.rel, gammas=nu.gammas) for c0, c1 in coefficients]


def sector_norms(coefficients: np.ndarray, bases) -> list:
    """Max-norm of each sector e_i of `materialize`; each distinct row of C is materialized once, one at a time."""
    rows = [tuple(row) for row in coefficients]
    norms = {row: float(np.abs(materialize([row], bases)[0].rel).max()) for row in dict.fromkeys(rows)}
    return [norms[row] for row in rows]


def build_vacuum_direct(md: MassData, spec: LatticeSpec) -> list:
    """The eight sector kernels of the built vacuum: VACUUM_COEFFICIENTS materialized over the sector bases."""
    return materialize(VACUUM_COEFFICIENTS, sector_bases(vacuum_seas(md, spec), md.tau_reg))


@dataclass
class OctonionKernel:
    """Octonion-valued kernel: e0 carries the neutrino sector, e1..e7 the charged ones."""

    neutrino: SectorKernel
    charged: tuple  # the 7 charged sectors; `to_octonionic` checks the count

    def coefficient(self, i: int) -> SectorKernel:
        return self.neutrino if i == 0 else self.charged[i - 1]


def to_octonionic(direct) -> OctonionKernel:
    """Relabel the 8 direct summands as octonion coefficients (sector a -> e_a)."""
    if len(direct) != 8:
        raise ValueError("expected 8 sector kernels")
    return OctonionKernel(neutrino=direct[0], charged=tuple(direct[1:]))


def to_direct(ok: OctonionKernel) -> list:
    """Inverse relabeling; the round trip is the identity."""
    return [ok.neutrino, *ok.charged]


def left_algebra_action(op: np.ndarray, ok: OctonionKernel) -> OctonionKernel:
    """Apply an element of the left multiplication algebra to the coefficient vector.

    The new coefficient vector at every (x, y) is op @ (old coefficients).
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (8, 8):
        raise ValueError("op must be an 8x8 matrix")
    new = np.einsum("ij,j...->i...", op, np.stack([k.rel for k in to_direct(ok)]))
    spec, gammas = ok.neutrino.spec, ok.neutrino.gammas
    return to_octonionic([SectorKernel(spec, rel, gammas=gammas) for rel in new])


@dataclass(frozen=True)
class SeaModes:
    """Occupied sea modes as parallel arrays, one row per spinor mode."""

    omega: np.ndarray  # (M,)
    kvec: np.ndarray  # (M, spatial_dims)
    spinor: np.ndarray  # (M, 4), unit-normalized over the spacetime lattice
    weight: np.ndarray  # (M,), exp(-eps * omega)


def occupied_modes(masses, spec: LatticeSpec, tau_reg: float) -> SeaModes:
    """Negative-energy mode family of the seas with the given masses.

    Two spinor modes per grid momentum per mass: the non-null eigendirections v of the Hermitian matrix
    (kslash + m) gamma0, each taken as P_L v + tau_reg (P_R v) and normalized again.
    """
    gammas = dirac_rep()
    n_sites = spec.T * spec.n_spatial
    omega, kvec, spinor = [np.zeros(0)], [np.zeros((0, spec.spatial_dims))], [np.zeros((0, 4), complex)]
    for mass in masses:
        kvecs, omegas, kslash = mode_table(mass, spec, gammas)
        vals, vecs = np.linalg.eigh((kslash + mass * np.eye(4)) @ gammas.gamma[0])
        # one projector at a time: entries 0 and +-1/2 round P v alike in any summation order, unlike the
        # (1 +- tau)/2 of P_L + tau P_R, whose rounding a nearly right-handed mode's norm ~tau magnifies
        u = (gammas.chiral_left() @ vecs + tau_reg * (gammas.chiral_right() @ vecs)).swapaxes(1, 2)
        nrm = np.linalg.norm(u, axis=2)
        keep = (np.abs(vals) > 1e-9 * np.abs(vals).max(axis=1, keepdims=True)) & (nrm >= 1e-14)
        k, r = np.nonzero(keep)
        omega.append(omegas[k])
        kvec.append(kvecs[k])
        spinor.append(u[k, r] / (nrm[k, r, None] * np.sqrt(n_sites)))
    omega = np.concatenate(omega)
    return SeaModes(omega=omega, kvec=np.concatenate(kvec), spinor=np.concatenate(spinor),
                    weight=np.exp(-spec.epsilon * omega))


class LocalCorrelation(cfs.OperatorPoint):
    """F = -psi^dag metric psi kept as its factor psi; the dense `matrix` is built on first access.

    `eigenvalues` is the full ascending spectrum, one entry per column of psi,
    with exact zeros outside the rank.
    """

    def __init__(self, psi: np.ndarray, metric: np.ndarray, eigenvalues: np.ndarray):
        self.psi = psi
        self.metric = metric
        self.eigenvalues = eigenvalues

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        f = -self.psi.conj().T @ self.metric @ self.psi
        return 0.5 * (f + f.conj().T)


def _cut(w: np.ndarray, n: int) -> np.ndarray:
    """Ascending spectrum with the entries inside the cfs.validate_point zero cut set to exactly 0."""
    cut = cfs.check_signature(w, n)
    return np.sort(np.where(np.abs(w) > cut, w, 0.0))


def local_correlation(masses, spec: LatticeSpec, x, tau_reg: float = 1.0) -> LocalCorrelation:
    """Local correlation operator F(x): Gram matrix of the occupied modes at x.

    F_ij = - <psi_i(x) | gamma0 psi_j(x)> with sqrt(exp(-eps omega)) weights
    on each side, where psi is the 4 x M matrix of the M weighted mode
    spinors at x. F has rank <= 4 and at most 2 positive and 2 negative
    eigenvalues. With the thin QR psi^dag = Q r, F = Q (-r gamma0 r^dag) Q^dag,
    so F's nonzero spectrum is that of the 4 x 4 Hermitian matrix
    -r gamma0 r^dag (r^dag r = psi psi^dag); the M x M matrix is only built
    when `matrix` is read. It is the test oracle of `local_spectra` at tau_reg = 1.
    """
    modes = occupied_modes(masses, spec, tau_reg)
    phase = modes.omega * x[0] + modes.kvec @ np.asarray(x[1:], dtype=float)
    psi = (np.sqrt(modes.weight)[:, None] * modes.spinor * np.exp(1j * phase * spec.a)[:, None]).T
    g0 = dirac_rep().gamma[0]
    r = np.linalg.qr(psi.conj().T, mode="r")  # min(M, 4) x 4
    w = np.zeros(psi.shape[1])
    w[: len(r)] = np.linalg.eigvalsh(-r @ g0 @ r.conj().T)
    return LocalCorrelation(psi, g0, _cut(w, n=2))


def vacuum_local_correlation(md: MassData, spec: LatticeSpec, x) -> LocalCorrelation:
    """F(x) over the eight sectors, block-diagonal in them (n = 2 per Dirac sector, 16 in all).

    The spectrum is the neutrino spectrum plus 7 copies of the charged one;
    the 8M x 8M matrix is only built when `matrix` is read.
    """
    nu = local_correlation(md.neutrino_masses, spec, x, tau_reg=md.tau_reg)
    ch = local_correlation(md.charged_masses, spec, x)
    m_nu, m_ch = nu.psi.shape[1], ch.psi.shape[1]
    psi = np.block([[nu.psi, np.zeros((4, 7 * m_ch))],
                    [np.zeros((28, m_nu)), np.kron(np.eye(7), ch.psi)]])
    w = np.concatenate([nu.eigenvalues] + [ch.eigenvalues] * 7)
    return LocalCorrelation(psi, np.kron(np.eye(8), dirac_rep().gamma[0]), _cut(w, n=16))


#: Kernel-container layout: one chunk per sea, the sector coefficients in the header.
CONTAINER_FORMAT = 2


def build_peak_bytes(spec: LatticeSpec) -> int:
    """Bytes `vacuum build` and `vacuum act` hold at their peak: 5 kernels.

    Tracemalloc puts both at about 4 (two sector bases or sums, plus a sea or a sector and its transients);
    the fifth covers the allocations that do not scale with the kernel.
    """
    return 5 * (2 * spec.T - 1) * spec.n_spatial * 16 * 16


def _stored(zf: zipfile.ZipFile, seas):
    """`seas` passed on, each after its chunk is written to zf; like `sector_bases`, it holds one sea at a time.

    A sea that is not finite raises FloatingPointError, so `save_kernels` leaves no container.
    """
    names = iter(SEA_LABELS)
    for sea in seas:
        rel, name = np.ascontiguousarray(sea.rel), next(names)
        if not np.isfinite(rel).all():
            raise FloatingPointError(f"sea {name} is not finite")
        head = io.BytesIO()
        np.lib.format.write_array_header_1_0(head, np.lib.format.header_data_from_array_1_0(rel))
        info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
        info.file_size = head.tell() + rel.nbytes  # known before the write, so zip64 is decided as by writestr
        with zf.open(info, "w") as fh:
            fh.write(head.getbuffer())
            fh.write(rel)  # the .npy bytes as np.save writes them, with no copy of the sea
        del rel
        yield sea
        del sea


def save_kernels(path, spec: LatticeSpec, md: MassData, seas, coefficients: np.ndarray) -> tuple:
    """Write the container at `path` from the six seas (SEA_LABELS order); return `sector_bases` of them.

    A JSON header with the 8 x 2 sector coefficients plus one chunk per sea, written as the sea arrives, so a
    stream has one sea live. The archive is renamed onto `path` only when complete: a failed write leaves an
    existing container as it was, and `seas` may stream from `path` itself.
    Chunks are stored: deflate shrinks a sea chunk about 5x but writes it about 10x slower.
    """
    header = {
        "format": CONTAINER_FORMAT,
        "version": __version__,
        "lattice": spec.to_json(),
        "masses": md.to_json(),
        "seas": list(SEA_LABELS),
        "coefficients": cfs.complex_matrix_to_json(coefficients),
        "local_correlation_convention": LOCAL_CORRELATION_CONVENTION,
    }
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            # fixed timestamps keep the container byte-identical across runs
            info = zipfile.ZipInfo("header.json", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, json.dumps(header, indent=2, sort_keys=True))
            bases = sector_bases(_stored(zf, seas), md.tau_reg)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return bases


def load_header(path) -> dict:
    """The JSON header of a kernel container, without reading its kernel chunks."""
    with zipfile.ZipFile(path, "r") as zf:
        header = json.loads(zf.read("header.json"))
    if not isinstance(header, dict) or header.get("format") != CONTAINER_FORMAT:
        raise ValueError(f"not a format {CONTAINER_FORMAT} kernel container; rebuild it with `vacuum build`")
    return header


def read_seas(path, spec: LatticeSpec):
    """The six seas of the container at `path`, on its lattice `spec`, in SEA_LABELS order, each read as asked for."""
    with zipfile.ZipFile(path, "r") as zf:
        for name in SEA_LABELS:
            with zf.open(f"{name}.npy") as fh:  # streamed into the array, with no copy of the chunk's bytes
                yield SectorKernel(spec, np.load(fh))
