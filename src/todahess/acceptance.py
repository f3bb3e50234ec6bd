"""Acceptance criteria: one function per criterion, shared by the pytest
suite and the CLI selftest.

Each criterion pins its tolerance here, carries its measured values in the
result record, and never recomputes what a sibling criterion already built
(block eigen-decompositions come from the memoized spectra.block_spectrum).

Criterion 7's two-point Cauchy sub-check on the raw soft eigenvalues is
known to be unattainable (the soft branches converge like 1/L, so any two
reachable grid points differ by ~10-20%); it is implemented exactly as
stated, reported honestly, and flagged expected_fail.  The convergence
content is demonstrated alongside on the compressed-remainder spectrum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import continuation as cont
from . import gram, maps, raney, spectra, stieltjes


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    elapsed: float
    warn_only: bool = False
    expected_fail: bool = False
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        if self.warn_only:
            return "WARN"
        if self.expected_fail:
            return "FAIL (expected: documented spec defect)"
        return "FAIL"

    def line(self) -> str:
        return f"criterion {self.cid:02d} [{self.status}] {self.title} ({self.elapsed:.1f}s)"


# --------------------------------------------------------------------------


def crit_01_thresholds():
    """Threshold exactness for s in [2, 12], zero tolerance, and the
    square-root branch point at zeta_c: the residual of U_c - kappa sqrt(eps)
    is O(eps) (residual/eps within a factor 2) for s in {2, 3, 5}."""
    ok = True
    rows = {}
    for s in range(2, 13):
        th = maps.thresholds(s)
        ok &= th.zeta_c == Fraction((s - 1) ** (s - 1), s**s)
        ok &= th.zeta_univ == Fraction(1, s - 1)
        ok &= th.ratio == Fraction((s - 1) ** s, s**s)
        ok &= th.zeta_c < th.zeta_univ
        ok &= th.ratio == th.zeta_c / th.zeta_univ
        rows[s] = (str(th.zeta_c), str(th.zeta_univ), str(th.ratio))
    spread = {}
    for s in (2, 3, 5):
        ratios = [maps.local_expansion_check(s, e) / e for e in (1e-2, 1e-3, 1e-4)]
        spread[s] = max(ratios) / min(ratios)
        ok &= spread[s] < 2.0
    return ok, {"values": rows, "branch_residual_over_eps_spread": spread,
                "spread_tolerance": 2.0}


def _u_power_series(s: int, n_max: int):
    """Exact coefficients of U = 1 + t U^s up to degree n_max (the
    polynomial-functional-equation oracle, independent of the closed form)."""
    u = [1] + [0] * n_max

    def mul(a, b):
        out = [0] * (n_max + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(0, n_max + 1 - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return out

    for _ in range(n_max + 1):
        power = u
        for _ in range(s - 1):
            power = mul(power, u)
        u = [1] + power[: n_max]
    return u, mul


def crit_02_raney_exact():
    """Closed form equals the functional-equation oracle, s<=6, p<=12, n<=60."""
    ok = True
    checked = 0
    for s in range(2, 7):
        u, mul = _u_power_series(s, 60)
        upow = u
        for p in range(1, 13):
            if p > 1:
                upow = mul(upow, u)
            tbl = raney.raney_table(s, p, 60)
            for n in range(61):
                ok &= upow[n] == tbl[n]
                checked += 1
    return ok, {"values_checked": checked}


def crit_03_convolution():
    """Convolution identity, exhaustive for k<=3, p_i<=5, m<=15, s in {2,3,5}."""
    ok = True
    checked = 0
    for s in (2, 3, 5):
        for m in range(16):
            for p1 in range(1, 6):
                ok &= raney.convolution_check(s, [p1], m)
                checked += 1
                for p2 in range(1, 6):
                    ok &= raney.convolution_check(s, [p1, p2], m)
                    checked += 1
                    for p3 in range(1, 6):
                        ok &= raney.convolution_check(s, [p1, p2, p3], m)
                        checked += 1
    return ok, {"cases": checked}


def crit_04_asymptotic():
    """|R zeta_c^m m^{3/2} / A - 1| <= 5/m for m in [50, 2000]."""
    ok = True
    worst = 0.0
    for s in (2, 3, 5):
        for p in {1, 2, s}:
            amp = raney.amplitude(s, p)
            seq = raney.scaled_raney_seq(s, p, 2000)
            for m in range(50, 2001):
                dev = abs(seq[m - 1] / amp - 1.0) * m
                worst = max(worst, dev)
                ok &= dev <= 5.0
    return ok, {"max_m_times_deviation": worst, "tolerance": 5.0}


def crit_05_gram_hessian():
    """Gram representation equals Hessian entries to 1e-12 relative, and
    H_{mn} vanishes exactly when m != n (mod s)."""
    ok = True
    worst = 0.0
    for s in (2, 3):
        zeta = 0.5 * float(maps.thresholds(s).zeta_c)
        for m in range(1, 31):
            for n in range(m, 31):
                rel = gram.gram_consistency(s, zeta, m, n)
                worst = max(worst, rel)
                ok &= rel <= 1e-12
                ok &= (gram.hessian_entry(s, zeta, m, n) == 0.0) == bool((m - n) % s)
    return ok, {"max_rel_error": worst, "tolerance": 1e-12}


STIFF_GRID = tuple(1.0 - np.geomspace(1e-2, 1e-5, 10))


def crit_06_stiff_slope():
    """Tail affine fit of mu_1 vs L within 15% of truncated Gamma, N=30.

    The untruncated Gamma is recorded beside Gamma_N, not gated: the slope
    of a finite block can only reach Gamma_N.
    """
    ok = True
    info = {}
    for s in (3, 5):
        zc = float(maps.thresholds(s).zeta_c)
        fit = spectra.stiff_trajectory(s, 1, 1.0, 30, [r * zc for r in STIFF_GRID])
        gamma = fit.gamma_truncated
        rel = abs(fit.slope - gamma) / gamma
        info[s] = {"slope": fit.slope, "gamma_truncated": gamma,
                   "gamma_analytic": gram.spike_vector(s, 1, 1.0, 30).gamma_analytic,
                   "rel_dev": rel, "fit_residual": fit.residual}
        ok &= rel <= 0.15 and fit.residual <= 0.02
    return ok, info


SOFT_GRID = (0.9, 0.99, 0.999, 0.9999)


def crit_07_soft():
    """Soft boundedness and convergence at (3,1,1,40), as stated.

    Sub-checks: (a) max over the grid finite; (b) raw two-point Cauchy
    |mu_k(0.9999 zc) - mu_k(0.999 zc)| < 5% mu_k for k=2..6; (c) mu_2/L <
    0.05 mu_1/L at the last grid point.  (b) fails structurally (soft
    convergence is O(1/L)); the compressed-remainder trend is reported
    alongside, converging as the proposition states.
    """
    s, q, beta, n = 3, 1, 1.0, 40
    zc = float(maps.thresholds(s).zeta_c)
    raw = {}
    comp = {}
    for ratio in SOFT_GRID:
        _, dec = spectra.block_spectrum(s, q, beta, n, ratio * zc)
        raw[ratio] = dec.eigenvalues[1:6]
        _, cdec = spectra.compressed_remainder(s, q, beta, n, ratio * zc)
        comp[ratio] = cdec.eigenvalues[:5]
    finite = all(np.all(np.isfinite(v)) for v in raw.values())
    raw_trend = np.abs(raw[0.9999] - raw[0.999]) / np.abs(raw[0.9999])
    cauchy_ok = bool(np.all(raw_trend < 0.05))
    _, dec_last = spectra.block_spectrum(s, q, beta, n, SOFT_GRID[-1] * zc)
    ratio_gap = dec_last.eigenvalues[1] / dec_last.eigenvalues[0]
    gap_ok = ratio_gap < 0.05
    comp_trend = np.abs(comp[0.9999] - comp[0.999]) / np.abs(comp[0.9999])
    ok = finite and cauchy_ok and gap_ok
    details = {
        "finite": finite,
        "raw_mu": {r: list(map(float, v)) for r, v in raw.items()},
        "raw_two_point_rel_change": list(map(float, raw_trend)),
        "raw_cauchy_5pct": cauchy_ok,
        "compressed_two_point_rel_change": list(map(float, comp_trend)),
        "mu2_over_mu1_last": float(ratio_gap),
        "gap_ok": gap_ok,
    }
    return ok, details, (not cauchy_ok) and finite and gap_ok


ALIGN_GRID = tuple(1.0 - np.geomspace(1e-2, 1e-4, 8))


def crit_08_alignment():
    """(1 - |<psi_1, d-hat>|) * L has coefficient of variation < 30%."""
    s, q, beta, n = 3, 1, 1.0, 40
    zc = float(maps.thresholds(s).zeta_c)
    vals = []
    for ratio in ALIGN_GRID:
        align = spectra.eigvec_alignment(s, q, beta, n, ratio * zc).value
        vals.append((1.0 - align) * spectra.log_scale(ratio * zc, maps.thresholds(s).zeta_c))
    vals = np.array(vals)
    cv = float(vals.std() / vals.mean())
    return cv < 0.30, {"values": list(map(float, vals)), "cv": cv, "tolerance": 0.30}


def crit_09_toeplitz():
    """L ||K_eta - K_1||_HS < 0.05 at eta = 0.999 (beta=1) and HS exponents."""
    s, q, n = 3, 1, 400
    etas = np.array([0.9, 0.99, 0.999])
    ok = True
    info = {}
    for beta in (0.25, 1.0):
        hs = np.array([spectra.toeplitz_hs_norm(s, q, beta, n, e) for e in etas])
        lh = spectra.toeplitz_removal_check(s, q, beta, n, etas)
        slope = float(np.polyfit(np.log(1.0 - etas), np.log(hs), 1)[0])
        target = min(1.0, 0.5 + beta)
        info[beta] = {"L_times_HS": list(map(float, lh)), "slope": slope,
                      "target": target}
        ok &= abs(slope - target) <= 0.15
        if beta == 1.0:
            ok &= lh[-1] < 0.05 and lh[0] > lh[1] > lh[2]
    return ok, info


def crit_10_excess():
    """Parametric excess = 2 exactly for s in [2,8], p in [1,8]."""
    ok = True
    cancels = {}
    for s in range(2, 9):
        for p in range(1, 9):
            hp = cont.hyp_params(s, p)
            ok &= hp.excess == 2
            cancels[f"{s},{p}"] = hp.cancelled
    return ok, {"cancelled_counts": cancels}


RESONANT_PAIRS = ((2, 1), (3, 1), (3, 2), (5, 1))


def crit_11_resonant(pairs=RESONANT_PAIRS):
    """|B_fit - closed form| / |closed| < 5%, extended precision.

    The fit takes its node values from the basis at xi = 1, matched at
    extended precision to the power series at 0, so it checks the basis's
    values; the 40-digit Taylor walk is their oracle in the tests.  Each pair
    also records B_basis, the log entry of that extended connection, and its
    distance to the closed form, not gated."""
    ok = True
    info = {}
    for s, p in pairs:
        fit = cont._cached_fit(s, p)
        closed = cont.B_closed_form(s, p).value
        rel = abs(fit.B_fit - closed) / abs(closed)
        info[f"{s},{p}"] = {
            "B_fit": fit.B_fit, "B_closed": closed, "rel": rel,
            "max_rel_residual": fit.max_rel_residual,
            "steps": fit.steps, "terms": fit.terms, "dps": fit.dps,
        }
        b = float(cont._one_connection(s, p, cont._ONE_DPS).coeffs[-1])
        info[f"{s},{p}"].update(B_basis=b, B_basis_rel=abs(b - closed) / abs(closed))
        ok &= rel < 0.05 and fit.B_fit < 0
    return ok, info


def crit_12_edge_density():
    """rho extrapolated to the edge within 3% of the closed form; the four
    values come from the basis at xi = 1 where its estimate serves them,
    else from the Taylor walk."""
    ok = True
    info = {}
    eps = np.array([0.004, 0.008, 0.016, 0.032])
    for s, p in ((2, 1), (3, 1), (3, 2)):
        zc2 = float(maps.thresholds(s).zeta_c) ** 2
        rho = np.array(
            [cont.disc_density_rho(s, p, zc2 * (1.0 + e)) for e in eps]
        )
        extrap = float(np.polyfit(eps, rho, 2)[-1])
        target = cont.edge_density_closed(s, p)
        rel = abs(extrap - target) / target
        info[f"{s},{p}"] = {"extrapolated": extrap, "closed": target, "rel": rel}
        ok &= rel < 0.03
    return ok, info


def crit_13_euler_consistency():
    """sigma_cont(u = zeta^2, side=none) equals sigma_p to 1e-8 relative."""
    ok = True
    info = {}
    for s, p in ((2, 1), (3, 2)):
        zeta = 0.5 * float(maps.thresholds(s).zeta_c)
        a = cont.sigma_cont(s, p, zeta * zeta, "none")
        b = gram.sigma_p(s, p, zeta)
        rel = abs(a - b) / abs(b)
        info[f"{s},{p}"] = {"sigma_cont": complex(a).real, "sigma_p": b, "rel": rel}
        ok &= rel < 1e-8
    return ok, info


DIVERGENCE_PAIRS = ((3, 1), (5, 1))


def crit_14_divergence_law():
    """sigma_p + (2s^2/p) B L has range < 10% of |mean| on [0.99, 0.9999].

    (s,p) = (3,1) and (5,1), the sectors shown in the figures; for small
    (s,p) like (2,1) the o(1) remainder is still sizable at 0.99 relative to
    the small limit constant (recorded, not asserted).
    """
    ok = True
    info = {}
    ratios = 1.0 - np.geomspace(1e-2, 1e-4, 7)
    for s, p in DIVERGENCE_PAIRS:
        zc = float(maps.thresholds(s).zeta_c)
        bval = cont.B_closed_form(s, p).value
        combo = np.array(
            [
                gram.sigma_p(s, p, r * zc)
                + (2.0 * s * s / p) * bval * spectra.log_scale(r * zc, maps.thresholds(s).zeta_c)
                for r in ratios
            ]
        )
        spread = float(np.ptp(combo) / abs(combo.mean()))
        info[f"{s},{p}"] = {"combo": list(map(float, combo)), "range_over_mean": spread}
        ok &= spread < 0.10
    return ok, info


def crit_15_univ_regularity():
    """Lateral G_p and sigma_cont finite at u = zeta_univ^2, s in {2,3}."""
    ok = True
    cap = 1e6
    info = {}
    for s in (2, 3):
        uu = float(maps.thresholds(s).zeta_univ) ** 2
        for p in (1, 2):
            st = cont.gp_continue(s, p, uu, "above")
            sc = cont.sigma_from_state(st)
            info[f"{s},{p}"] = {
                "abs_G": abs(st.value), "abs_sigma": abs(sc),
                "dps": st.dps, "steps": st.steps, "rel_est": st.rel_est,
            }
            ok &= abs(st.value) < cap and abs(sc) < cap
    return ok, info


def crit_16_hankel_jacobi():
    """Hankel minors > 0 to depth 8, a_k^2 > 0, spectrum in [0, 1/zc^2]+1e-8."""
    ok = True
    info = {}
    for s in (2, 3, 5):
        tmax = 1.0 / float(maps.thresholds(s).zeta_c) ** 2
        for p in range(1, s + 1):
            mseq = stieltjes.moments(s, p, 25)
            hpos = stieltjes.hankel_positivity(mseq, 8)
            jac = stieltjes.jacobi_coefficients(mseq, 12)
            apos = all(a > 0 for a in jac.a_sq_exact)
            ev = np.linalg.eigvalsh(jac.tridiagonal())
            inside = ev.min() >= -1e-8 and ev.max() <= tmax + 1e-8
            info[f"{s},{p}"] = {
                "hankel_positive": hpos,
                "a_sq_positive": apos,
                "spec_min": float(ev.min()),
                "spec_max": float(ev.max()),
                "t_max": tmax,
            }
            ok &= hpos and apos and inside
    return ok, info


def crit_17_weyl():
    """|weyl(n=40) - G_p| < 1e-8 at u in {0.1, 0.3} zc^2 and u = -1."""
    ok = True
    info = {}
    for s, p in ((2, 1), (3, 1)):
        zc2 = float(maps.thresholds(s).zeta_c) ** 2
        jac = stieltjes.jacobi_coefficients(stieltjes.moments(s, p, 85), 40)
        for tag, u in (("0.1zc2", 0.1 * zc2), ("0.3zc2", 0.3 * zc2), ("-1", -1.0)):
            w = stieltjes.weyl_function(jac, u)
            g = cont.gp_continue(s, p, u, "none").value
            diff = abs(complex(w) - complex(g))
            info[f"{s},{p}:{tag}"] = diff
            ok &= diff < 1e-8
    return ok, info


def crit_18_perron():
    """Mass = 1 +/- 2% and right-endpoint log-log slope 2 +/- 0.2.

    The mass is integrated over [delta, T - delta] with delta = 1e-12 T; at
    the spec example's delta = 1e-3 T the left endpoint still holds 20% of
    the mass at (2, 1) and 50% at (3, 1) (masses 0.803 and 0.498, recorded
    but not gated), so that delta cannot meet the 2% gate.  The first two
    moments of the density are recorded against their exact values
    R_{s,p}(n)^2, not gated.
    """
    ok = True
    info = {}
    for s, p in ((2, 1), (3, 1)):
        ints = stieltjes.perron_integrals(s, p, delta_rel=1e-12, powers=(0, 1, 2),
                                          n_panels=120)
        mass = ints[0]
        mass_coarse = stieltjes.perron_integrals(s, p, delta_rel=1e-3)[0]
        slope = stieltjes.perron_endpoint_exponent(s, p)
        info[f"{s},{p}"] = {
            "mass_delta_1e-12": mass,
            "mass_delta_1e-3": mass_coarse,
            "endpoint_slope": slope,
        }
        for n in (1, 2):
            exact = raney.raney(s, p, n) ** 2
            info[f"{s},{p}"][f"moment_{n}"] = {
                "perron": ints[n], "exact": exact, "rel": abs(ints[n] - exact) / exact}
        ok &= abs(mass - 1.0) < 0.02 and abs(slope - 2.0) <= 0.2
    return ok, info


def crit_19_univalence():
    """is_univalent agrees with the sampled boundary margin sign."""
    ok = True
    cases = 0
    for s in range(2, 7):
        zu = 1.0 / (s - 1)
        for frac in np.linspace(0.05, 1.95, 39):
            zeta = frac * zu
            if abs(zeta - zu) < 1e-6:
                continue
            cfg = maps.MapConfig(s=s, zeta=zeta)
            res = maps.is_univalent(cfg)
            margin = maps.boundary_injectivity_margin(cfg, 4096)
            ok &= res.univalent == (margin > 0)
            cases += 1
    return ok, {"cases": cases}


def crit_20_nodal():
    """Sign-change counts of the first soft modes follow the k-1 law
    (observational; failure downgrades to warning)."""
    ok = True
    info = {}
    for s in (3, 5):
        zc = float(maps.thresholds(s).zeta_c)
        basis, dec = spectra.compressed_remainder(s, 1, 1.0, 40, 0.9999 * zc)
        counts = [
            spectra.nodal_count(basis @ dec.eigenvectors[:, k]) for k in range(4)
        ]
        # phi_k (k = 2..5 in the paper's labeling) should show k-1 changes.
        expected = [k - 1 for k in range(2, 6)]
        info[s] = {"counts_phi2_to_phi5": counts, "paper_k_minus_1": expected,
                   "zero_based_alternative": [k - 2 for k in range(2, 6)]}
        ok &= counts == expected
    return ok, info


# --------------------------------------------------------------------------

_REGISTRY = {
    1: ("threshold exactness", crit_01_thresholds),
    2: ("Raney closed form vs functional-equation oracle", crit_02_raney_exact),
    3: ("convolution identity", crit_03_convolution),
    4: ("asymptotic amplitude", crit_04_asymptotic),
    5: ("Gram/Hessian coefficient identity", crit_05_gram_hessian),
    6: ("stiff slope vs truncated Gamma", crit_06_stiff_slope),
    7: ("soft boundedness and convergence", crit_07_soft),
    8: ("alignment law", crit_08_alignment),
    9: ("Toeplitz removal", crit_09_toeplitz),
    10: ("parametric excess", crit_10_excess),
    11: ("resonant coefficient", crit_11_resonant),
    12: ("edge density", crit_12_edge_density),
    13: ("subcritical/continuation consistency", crit_13_euler_consistency),
    14: ("Gram-weight divergence law", crit_14_divergence_law),
    15: ("regularity at zeta_univ", crit_15_univ_regularity),
    16: ("Hankel positivity and Jacobi", crit_16_hankel_jacobi),
    17: ("Weyl identity", crit_17_weyl),
    18: ("Perron mass and endpoint exponent", crit_18_perron),
    19: ("univalence criterion", crit_19_univalence),
    20: ("nodal observation", crit_20_nodal),
}

WARN_ONLY = {20}
QUICK_IDS = (1, 2, 3, 5, 10, 13)


def all_criterion_ids():
    return tuple(sorted(_REGISTRY))


def run_criterion(cid: int) -> CriterionResult:
    title, func = _REGISTRY[cid]
    t0 = time.time()
    out = func()
    elapsed = time.time() - t0
    expected_fail = False
    if len(out) == 3:
        passed, details, expected_fail = out
    else:
        passed, details = out
    return CriterionResult(
        cid=cid,
        title=title,
        passed=bool(passed),
        elapsed=elapsed,
        warn_only=cid in WARN_ONLY,
        expected_fail=bool(expected_fail),
        details=details,
    )


def run_quick():
    """Quick selftest: exact checks plus the s=2 resonant fit (< 60 s)."""
    results = [run_criterion(cid) for cid in QUICK_IDS]
    t0 = time.time()
    passed, details = crit_11_resonant(pairs=((2, 1),))
    results.append(
        CriterionResult(
            cid=11,
            title="resonant coefficient (quick: s=2 only)",
            passed=bool(passed),
            elapsed=time.time() - t0,
            details=details,
        )
    )
    return results


def run_full():
    return [run_criterion(cid) for cid in all_criterion_ids()]


#: (s, q, beta) and zeta/zeta_c of the convergence-in-N companion data
CONVERGENCE_SECTOR = (3, 1, 1.0)
CONVERGENCE_RATIO = 0.999


def convergence_in_n(n_values=(20, 40, 80)):
    """Convergence-in-N companion data for the spectral surrogates."""
    s, q, beta = CONVERGENCE_SECTOR
    zc = float(maps.thresholds(s).zeta_c)
    # entries do not depend on N: each block is a leading submatrix of the largest
    blk, _ = spectra.block_spectrum(s, q, beta, max(n_values), CONVERGENCE_RATIO * zc)
    out = {}
    for n in n_values:
        dec = spectra.sym_eig(blk.matrix[:n, :n])
        gamma = gram.spike_vector(s, q, beta, n).gamma_truncated
        out[n] = {
            "mu1": float(dec.eigenvalues[0]),
            "mu2": float(dec.eigenvalues[1]),
            "gamma_truncated": gamma,
            "L": spectra.log_scale(CONVERGENCE_RATIO * zc, maps.thresholds(s).zeta_c),
        }
    return out
