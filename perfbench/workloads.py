"""The benchmark's three workloads: seeded inputs, timed operations, checks.

A workload is an ordered list of `Op`s.  `Op.run` is what the benchmark
times; it calls only the public API of `todahess`.  `Op.check` runs after the
timed pass and returns None when the result meets its stated tolerance, or a
message saying how it missed.  The seed only moves grid and epsilon points
inside fixed narrow bins, so the work of a pass barely depends on it.

The sizes are slices of the paper's figures and acceptance criteria, cut
down so that one pass takes a few seconds on the numpy kernel path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from todahess import continuation, gram, maps, spectra, stieltjes

#: relative half-width of the bin each seeded point is drawn from
JITTER = 0.02
#: lambda_min >= -PSD_TOL * mu_1 for a block to count as PSD
PSD_TOL = 1e-12
BETA = 1.0

# stiff_sweep: fig1 / criterion 6, near-threshold series length
STIFF_S = (3, 5)
STIFF_Q = 1
STIFF_N = 16
#: bin centres of 1 - eta, log-spaced over [1e-4, 1e-2]
STIFF_GAPS = tuple(np.geomspace(1e-4, 1e-2, 5))
STIFF_SLOPE_TOL = 0.15
ENTRY_XCHECK_TOL = 1e-9

# soft_sweep: fig2 / fig4 / criteria 7-8, short series and many entries
SOFT_S = 3
SOFT_Q = (1, 2, 3)
SOFT_N = (16, 32)
SOFT_ETA = (0.9, 0.99)
SOFT_K = 6
#: eta bin at which the synthesis factor V~ is checked against the block
SYNTH_ETA = 0.9
SYNTH_EXTRA_ROWS = 300
SYNTH_TOL = 1e-12
SOFT_CONSISTENCY_TOL = 1e-9

# analytic: criteria 11-18, continuation and exact arithmetic, no blocks
FIT_SP = (3, 2)
FIT_EPS = tuple(np.geomspace(3e-3, 6e-2, 8))
FIT_TOL = 0.05
RHO_SP = (3, 2)
RHO_EPS = (0.004, 0.008, 0.016, 0.032)
EDGE_TOL = 0.03
PERRON_SP = (3, 1)
PERRON_DELTA = 1e-12
PERRON_TOL = 0.02
WEYL_SP = (3, 1)
JACOBI_N = 30
#: u bins: two inside the disk (in units of zeta_c^2) and one on the negative axis
WEYL_U_ZC2 = (0.1, 0.3)
WEYL_U_NEG = -0.5
WEYL_TOL = 1e-8


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _zeta_c(s: int) -> float:
    return float(maps.thresholds(s).zeta_c)


def _jitter(rng: random.Random, centre: float) -> float:
    return centre * (1.0 + rng.uniform(-JITTER, JITTER))


def _note_max(diag: dict, key: str, value: float) -> None:
    diag[key] = max(diag[key], value)


def _block_error(mat: np.ndarray, eigenvalues_desc: np.ndarray) -> "str | None":
    """Symmetric to 1e-12 relative and PSD to PSD_TOL * mu_1."""
    if not np.all(np.isfinite(mat)):
        return "block has non-finite entries"
    scale = float(np.max(np.abs(mat)))
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > 1e-12 * scale:
        return f"block asymmetry {asym:.2e} exceeds 1e-12 * max|G|"
    lo, hi = float(eigenvalues_desc[-1]), float(eigenvalues_desc[0])
    if lo < -PSD_TOL * hi:
        return f"block not PSD: lambda_min / mu_1 = {lo / hi:.2e}"
    return None


# ---------------------------------------------------------------------------
# stiff_sweep


def _stiff_ops(rng: random.Random, diag: dict) -> list:
    ops = []
    for s in STIFF_S:
        zc = _zeta_c(s)
        mu1_at = {}  # zeta -> mu_1, filled by the point ops of this s
        for gap in STIFF_GAPS:
            zeta = (1.0 - _jitter(rng, gap)) * zc
            ops.append(_stiff_point(s, zeta, mu1_at, diag))
        ops.append(_stiff_slope(s, zc, mu1_at, diag))
    return ops


def _stiff_point(s: int, zeta: float, mu1_at: dict, diag: dict) -> Op:
    def run():
        blk = gram.weighted_block(s, zeta, STIFF_Q, BETA, STIFF_N)
        dec = spectra.sym_eig(blk.matrix)
        mu1_at[zeta] = dec.eigenvalues[0]
        return blk, dec

    def check(res):
        blk, dec = res
        err = _block_error(blk.matrix, dec.eigenvalues)
        if err:
            return err
        # Independent path: ODE-continued sigma_q at u = zeta^2.
        sigma = continuation.sigma_cont(s, STIFF_Q, zeta * zeta).real
        ref = sigma / gram.weight(s, STIFF_Q, BETA, 0) ** 2
        rel = abs(blk.matrix[0, 0] - ref) / abs(ref)
        _note_max(diag, "gram.xcheck_rel_max", rel)
        if not rel <= ENTRY_XCHECK_TOL:
            return f"entry (0,0) differs from sigma_cont / w0^2 by {rel:.2e}"
        return None

    return Op(f"block+eig s={s} 1-eta={1 - zeta / _zeta_c(s):.3e}", run, check)


def _stiff_slope(s: int, zc: float, mu1_at: dict, diag: dict) -> Op:
    """Criterion 6: affine fit of mu_1 against L over the tail half."""

    def run():
        if len(mu1_at) != len(STIFF_GAPS):
            return None
        zetas = sorted(mu1_at)
        ls = np.array([spectra.log_scale(z, zc) for z in zetas])
        mu1 = np.array([mu1_at[z] for z in zetas])
        mask = ls >= 0.5 * (ls.min() + ls.max())
        return float(np.polyfit(ls[mask], mu1[mask], 1)[0])

    def check(slope):
        if slope is None:
            return "a point of the sweep is missing"
        gamma = gram.spike_vector(s, STIFF_Q, BETA, STIFF_N).gamma_truncated
        rel = abs(slope - gamma) / gamma
        _note_max(diag, "spectra.slope_rel_dev", rel)
        if not rel <= STIFF_SLOPE_TOL:
            return f"tail slope {slope:.4g} is {rel:.1%} off Gamma_N = {gamma:.4g}"
        return None

    return Op(f"stiff slope s={s}", run, check)


# ---------------------------------------------------------------------------
# soft_sweep


def _soft_ops(rng: random.Random, diag: dict) -> list:
    zc = _zeta_c(SOFT_S)
    ops = []
    for q in SOFT_Q:
        for n in SOFT_N:
            for eta in SOFT_ETA:
                zeta = (1.0 - _jitter(rng, 1.0 - eta)) * zc
                ops.extend(_soft_point(q, n, zeta, eta == SYNTH_ETA, diag))
    return ops


def _soft_point(q: int, n: int, zeta: float, synth: bool, diag: dict) -> list:
    """soft_spectrum, eigvec_alignment and rank_one_remainder at one point.

    Each call rebuilds the same block, as a user assembling fig2, fig4 and
    criterion 8 does.  The remainder's check rebuilds G = C + L d d^T and
    holds the other two results to it.
    """
    tag = f"q={q} N={n} eta={zeta / _zeta_c(SOFT_S):.5f}"
    seen = {}

    def run_soft():
        return spectra.soft_spectrum(SOFT_S, q, BETA, n, zeta, SOFT_K)

    def check_soft(res):
        seen["soft"] = res
        vals = res.values
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(res.compressed_limit))):
            return "soft spectrum has non-finite values"
        if np.any(np.diff(vals) > 0) or vals[-1] <= 0:
            return "mu_2..mu_k are not positive and descending"
        return None

    def run_align():
        return spectra.eigvec_alignment(SOFT_S, q, BETA, n, zeta)

    def check_align(res):
        seen["align"] = res
        if res.degenerate or not 0.0 <= res.value <= 1.0 + 1e-12:
            return f"alignment {res.value!r} degenerate or outside [0, 1]"
        return None

    def run_remainder():
        return spectra.rank_one_remainder(SOFT_S, q, BETA, n, zeta)

    def check_remainder(rem):
        if "soft" not in seen or "align" not in seen:
            return "soft or alignment result missing at this point"
        zc = _zeta_c(SOFT_S)
        d = gram.spike_vector(SOFT_S, q, BETA, n).entries
        g = rem + spectra.log_scale(zeta, zc) * np.outer(d, d)
        ev = np.linalg.eigvalsh(g)[::-1]
        err = _block_error(g, ev)
        if err:
            return err
        soft_gap = float(np.max(np.abs(ev[1:SOFT_K] - seen["soft"].values)))
        mu1_gap = abs(ev[0] - seen["align"].mu1)
        if max(soft_gap, mu1_gap) > SOFT_CONSISTENCY_TOL * ev[0]:
            return "soft / alignment / remainder disagree on the block spectrum"
        if synth:
            v = gram.synthesis_matrix(SOFT_S, q, BETA, zeta, n, n + SYNTH_EXTRA_ROWS)
            rel = float(np.max(np.abs(v.T @ v - g)) / np.max(np.abs(g)))
            _note_max(diag, "gram.xcheck_rel_max", rel)
            if not rel <= SYNTH_TOL:
                return f"V~^T V~ differs from the block by {rel:.2e}"
        return None

    return [
        Op(f"soft_spectrum {tag}", run_soft, check_soft),
        Op(f"eigvec_alignment {tag}", run_align, check_align),
        Op(f"rank_one_remainder {tag}", run_remainder, check_remainder),
    ]


# ---------------------------------------------------------------------------
# analytic


def _analytic_ops(rng: random.Random, diag: dict) -> list:
    return (
        [_fit_op(rng, diag)]
        + _rho_ops(rng)
        + [_perron_op()]
        + _weyl_ops(rng)
    )


def _fit_op(rng: random.Random, diag: dict) -> Op:
    eps_grid = [_jitter(rng, e) for e in FIT_EPS]

    def run():
        return continuation.resonant_fit(*FIT_SP, eps_grid=eps_grid)

    def check(fit):
        closed = continuation.B_closed_form(*FIT_SP).value
        rel = abs(fit.B_fit - closed) / abs(closed)
        diag["continuation.fit_rel_err"] = rel
        if not (fit.B_fit < 0 and rel < FIT_TOL):
            return f"B_fit = {fit.B_fit:.6g} is {rel:.2%} off B = {closed:.6g}"
        return None

    return Op(f"resonant_fit {FIT_SP}", run, check)


def _rho_ops(rng: random.Random) -> list:
    """rho_p at four epsilon, then its quadratic extrapolation to the edge."""
    zc2 = _zeta_c(RHO_SP[0]) ** 2
    rho_at = {}
    ops = []
    for centre in RHO_EPS:
        eps = _jitter(rng, centre)

        def run(eps=eps):
            rho_at[eps] = continuation.disc_density_rho(*RHO_SP, zc2 * (1.0 + eps))
            return rho_at[eps]

        def check(rho):
            return None if np.isfinite(rho) and rho > 0 else f"rho = {rho!r}"

        ops.append(Op(f"disc_density_rho {RHO_SP} eps={eps:.5f}", run, check))

    def run_edge():
        if len(rho_at) != len(RHO_EPS):
            return None
        eps = sorted(rho_at)
        return float(np.polyfit(eps, [rho_at[e] for e in eps], 2)[-1])

    def check_edge(edge):
        if edge is None:
            return "a density point is missing"
        closed = continuation.edge_density_closed(*RHO_SP)
        rel = abs(edge - closed) / closed
        return None if rel < EDGE_TOL else f"edge density {rel:.2%} off closed form"

    ops.append(Op(f"edge extrapolation {RHO_SP}", run_edge, check_edge))
    return ops


def _perron_op() -> Op:
    def run():
        return stieltjes.perron_integrals(*PERRON_SP, delta_rel=PERRON_DELTA)[0]

    def check(mass):
        return None if abs(mass - 1.0) < PERRON_TOL else f"Perron mass {mass!r}"

    return Op(f"perron_integrals {PERRON_SP}", run, check)


def _weyl_ops(rng: random.Random) -> list:
    """Exact moments -> Jacobi coefficients -> Weyl function against G_p."""
    s, p = WEYL_SP
    zc2 = _zeta_c(s) ** 2
    state = {}

    def run_moments():
        state["moments"] = stieltjes.moments(s, p, 2 * JACOBI_N + 5)
        return state["moments"]

    def run_jacobi():
        if "moments" not in state:
            return None
        state["jacobi"] = stieltjes.jacobi_coefficients(state["moments"], JACOBI_N)
        return state["jacobi"]

    def check_present(res):
        return None if res is not None else "input missing"

    ops = [
        Op(f"moments {WEYL_SP}", run_moments, check_present),
        Op(f"jacobi_coefficients n={JACOBI_N}", run_jacobi, check_present),
    ]
    us = [_jitter(rng, r) * zc2 for r in WEYL_U_ZC2] + [_jitter(rng, WEYL_U_NEG)]
    for u in us:

        def run(u=u):
            jac = state.get("jacobi")
            return None if jac is None else stieltjes.weyl_function(jac, u)

        def check(w, u=u):
            if w is None:
                return "Jacobi data missing"
            if u > 0:
                g = continuation.gp_series(s, p, u)
            else:
                g = continuation.gp_continue(s, p, u, "none").value
            diff = abs(complex(w) - complex(g))
            return None if diff < WEYL_TOL else f"|weyl - G_p| = {diff:.2e}"

        ops.append(Op(f"weyl_function u={u:.6g}", run, check))
    return ops


WORKLOADS = {
    "stiff_sweep": _stiff_ops,
    "soft_sweep": _soft_ops,
    "analytic": _analytic_ops,
}

#: accuracy diagnostics filled in by the checks (reported, not gated)
DIAGNOSTICS = ("gram.xcheck_rel_max", "spectra.slope_rel_dev", "continuation.fit_rel_err")


def build(name: str, seed: int):
    """Ops of workload `name` for `seed`, and the diagnostics their checks fill."""
    diag = dict.fromkeys(DIAGNOSTICS, 0.0)
    return WORKLOADS[name](random.Random(seed), diag), diag
