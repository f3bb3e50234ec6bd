"""Eigen-decomposition of truncated blocks and the stiff/soft spectral checks.

All spectral statements are finite-N surrogates: one logarithmically stiff
eigenvalue per sector with slope Gamma = ||d~||^2 against L(zeta) =
log(1/(1 - zeta^2/zeta_c^2)), a bounded soft remainder converging to the
compressed limit, and the Toeplitz/rank-one bookkeeping behind both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, FitError, AccuracyError
from .gram import DEFAULT_TOL, WeightedBlock, spike_vector, weighted_block
from .maps import thresholds
from .raney import _at_least

#: relative gap below which the top eigenvalue is reported as degenerate
DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns, matching order


def sym_eig(matrix: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigen-decomposition, eigenvalues descending.

    Validates symmetry on input and the residual / orthonormality contract on
    output; eigenvector signs are fixed so the first component above
    1e-12 * max|component| is positive.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("sym_eig needs a square matrix")
    scale = float(np.max(np.abs(a))) or 1.0
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric to 1e-12 relative")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    mag = np.abs(v)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    v *= np.where(v[first, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    norm = scale * max(1.0, float(np.max(np.abs(w))) / scale)
    resid = np.max(np.abs(a @ v - v * w[np.newaxis, :]))
    if resid > 1e-9 * norm:
        raise AccuracyError(f"eigen residual {resid:.2e} exceeds 1e-9 * ||A||")
    ortho = np.max(np.abs(v.T @ v - np.eye(v.shape[1])))
    if ortho > 1e-10:
        raise AccuracyError(f"eigenvector orthonormality defect {ortho:.2e}")
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def block_spectrum(
    s: int, q: int, beta: float, n: int, zeta: float
) -> tuple[WeightedBlock, EigenDecomposition]:
    """The weighted block at (s, q, beta, N, zeta) and its decomposition.

    Memoized: every spectral quantity at one point shares one block build and
    one eigen-decomposition.  The cached arrays are read-only, because every
    caller receives the same objects.  All arguments reach the cache
    positionally, so keyword and positional calls share one entry.  The
    series are summed to gram.DEFAULT_TOL.
    """
    return _block_spectrum(s, q, beta, n, zeta)


@lru_cache(maxsize=256)
def _block_spectrum(s, q, beta, n, zeta):
    blk = weighted_block(s, zeta, q, beta, n, DEFAULT_TOL)
    dec = sym_eig(blk.matrix)
    for arr in (blk.matrix, blk.weights, dec.eigenvalues, dec.eigenvectors):
        arr.flags.writeable = False
    return blk, dec


def log_scale(zeta: float, zeta_c) -> float:
    """L(zeta) = log(1/(1 - eta^2)), eta = zeta/zeta_c, the stiff eigenvalue scale.

    zeta_c is a float or the exact Fraction of maps.thresholds.  The domain
    check and eta are exact, so L is good to a few ulps on all of 0 < eta < 1.
    """
    if not (0 < zeta < zeta_c and math.isfinite(zeta_c)):
        raise DomainError(f"log_scale needs 0 < zeta < zeta_c, got {zeta}")
    eta2 = (Fraction(zeta) / Fraction(zeta_c)) ** 2
    return -math.log1p(-float(eta2)) if eta2 <= 0.5 else -math.log(1 - eta2)


@dataclass(frozen=True)
class StiffFit:
    slope: float
    intercept: float
    residual: float  # RMS of fit residuals / range of mu1 over fit window
    L_values: np.ndarray
    mu1_values: np.ndarray
    gamma_truncated: float


def stiff_trajectory(s, q, beta, n, zeta_grid) -> StiffFit:
    """Affine fit of mu_1 against L(zeta) over the tail half of the grid.

    The slope targets the truncated Gamma = sum_{j<N} d~_j^2 (truncation caps
    the reachable slope).  Needs at least two grid points in the fit window.
    """
    if n < 10:
        raise DomainError(f"N must be >= 10, got {n}")
    zetas = np.sort(np.asarray(zeta_grid, dtype=np.float64))
    if zetas.size < 2:
        raise FitError("stiff_trajectory needs at least 2 grid points")
    zc = thresholds(s).zeta_c
    ls = np.array([log_scale(z, zc) for z in zetas])
    mu1 = np.array(
        [block_spectrum(s, q, beta, n, z)[1].eigenvalues[0] for z in zetas]
    )
    cut = 0.5 * (ls.min() + ls.max())
    mask = ls >= cut
    if mask.sum() < 2:
        mask[-2:] = True
    slope, intercept = np.polyfit(ls[mask], mu1[mask], 1)
    pred = slope * ls[mask] + intercept
    span = float(mu1[mask].max() - mu1[mask].min()) or 1.0
    residual = float(np.sqrt(np.mean((pred - mu1[mask]) ** 2)) / span)
    return StiffFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        L_values=ls,
        mu1_values=mu1,
        gamma_truncated=spike_vector(s, q, beta, n).gamma_truncated,
    )


@dataclass(frozen=True)
class AlignmentResult:
    value: float  # |<psi_1, d-hat>|
    degenerate: bool
    mu1: float
    mu2: float


def eigvec_alignment(s, q, beta, n, zeta) -> AlignmentResult:
    """|<psi_1, d-hat>| with the phase convention <psi_1, d~> >= 0.

    Flags degeneracy when mu_1 - mu_2 < 1e-10 mu_1 (alignment is then
    basis-dependent and should not be trusted).
    """
    _, dec = block_spectrum(s, q, beta, n, zeta)
    d = spike_vector(s, q, beta, n).entries
    dhat = d / np.linalg.norm(d)
    val = abs(float(dec.eigenvectors[:, 0] @ dhat))
    mu1, mu2 = float(dec.eigenvalues[0]), float(dec.eigenvalues[1])
    return AlignmentResult(
        value=val, degenerate=(mu1 - mu2) < DEGENERACY_GAP * abs(mu1), mu1=mu1, mu2=mu2
    )


def _complement_basis(dhat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of dhat (N x (N-1) columns)."""
    n = dhat.size
    full = np.eye(n)
    full[:, 0] = dhat
    qmat, _ = np.linalg.qr(full)
    # First column of Q spans dhat (up to sign); the rest span the complement.
    return qmat[:, 1:]


@dataclass(frozen=True)
class SoftSpectrum:
    s: int
    q: int
    beta: float
    zeta: float
    values: np.ndarray  # mu_2 .. mu_k of the weighted block
    compressed_limit: np.ndarray  # spectrum of Q C~ Q on the complement


def soft_spectrum(s, q, beta, n, zeta, k) -> SoftSpectrum:
    """mu_2..mu_k plus the compressed-remainder spectrum (finite-N surrogate
    of the limiting soft operator)."""
    k = _at_least("k", k, 2)  # the soft spectrum starts at mu_2
    if k > n:
        raise DomainError(f"k = {k} exceeds truncation N = {n}")
    _, dec = block_spectrum(s, q, beta, n, zeta)
    _, comp = compressed_remainder(s, q, beta, n, zeta)
    return SoftSpectrum(
        s=s,
        q=q,
        beta=float(beta),
        zeta=zeta,
        values=dec.eigenvalues[1:k],
        compressed_limit=comp.eigenvalues,
    )


def rank_one_remainder(s, q, beta, n, zeta) -> np.ndarray:
    """C~(zeta) = G~(zeta) - L(zeta) d~ d~^T, truncated to N."""
    blk, _ = block_spectrum(s, q, beta, n, zeta)
    d = spike_vector(s, q, beta, n).entries
    return blk.matrix - log_scale(zeta, thresholds(s).zeta_c) * np.outer(d, d)


def compressed_remainder(s, q, beta, n, zeta):
    """Q C~ Q on the complement of d-hat: (basis, decomposition).

    basis is the N x (N-1) orthonormal complement of d-hat, and the
    decomposition is that of basis^T C~ basis; basis @ eigenvector gives a
    soft mode in block coordinates.
    """
    d = spike_vector(s, q, beta, n).entries
    basis = _complement_basis(d / np.linalg.norm(d))
    compressed = basis.T @ rank_one_remainder(s, q, beta, n, zeta) @ basis
    return basis, sym_eig(0.5 * (compressed + compressed.T))


def toeplitz_hs_norm(s, q, beta, n, eta) -> float:
    """||K_eta - K_1||_HS for (K_eta)_{j1 j2} = eta^|j1-j2| d~_j1 d~_j2."""
    if not 0 < eta <= 1:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    d = spike_vector(s, q, beta, n).entries
    idx = np.arange(n)
    damp = eta ** np.abs(idx[:, None] - idx[None, :])
    diff = (damp - 1.0) * np.outer(d, d)
    return float(np.linalg.norm(diff))


def toeplitz_removal_check(s, q, beta, n, eta_grid) -> list:
    """L * ||K_eta - K_1||_HS for each eta; tends to 0 as eta -> 1."""
    return [log_scale(eta, 1) * toeplitz_hs_norm(s, q, beta, n, eta) for eta in eta_grid]


def nodal_count(vector) -> int:
    """Strict sign changes along the vector, ignoring entries below
    1e-12 * max|entry|; DomainError for an entry that is not finite."""
    v = np.asarray(vector, dtype=np.float64)
    if v.size == 0 or not np.any(v):
        raise DomainError("nodal_count needs a nonzero vector")
    if not np.all(np.isfinite(v)):
        raise DomainError("nodal_count needs finite entries")
    thresh = 1e-12 * float(np.max(np.abs(v)))
    signs = [x for x in np.sign(v[np.abs(v) > thresh]) if x]
    return int(sum(1 for a, b in zip(signs, signs[1:]) if a != b))
