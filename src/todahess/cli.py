"""Command-line surface.

Commands: thresholds, raney, sigma, hessian, block, spectrum, stiff-fit,
soft, align, continue, rho, resonant-fit, jacobi, weyl, density, figure,
selftest.  Parameter precedence is flags > config file (key=value lines) >
defaults, where the defaults mirror the figure captions.

Exit codes: 0 success, 1 computation failure, 2 usage error, 3 acceptance
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from . import continuation as cont
from . import figures, gram, maps, raney, spectra, stieltjes
from .errors import DomainError, TodaHessError
from .tables import Table


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'a:b:n[,log|log1m]' into a grid array.

    log is geometric in the values; log1m is geometric in 1 - x (for grids
    of zeta/zeta_c ratios accumulating at 1).
    """
    parts = spec.split(",")
    mode = parts[1].strip() if len(parts) > 1 else "lin"
    abn = parts[0].split(":")
    if len(abn) != 3:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}")
    a, b, n = float(abn[0]), float(abn[1]), int(abn[2])
    if n < 1:
        raise argparse.ArgumentTypeError("grid needs n >= 1")
    if mode == "lin":
        return np.linspace(a, b, n)
    if mode == "log":
        return np.geomspace(a, b, n)
    if mode == "log1m":
        return 1.0 - np.geomspace(1.0 - a, 1.0 - b, n)
    raise argparse.ArgumentTypeError(f"unknown grid mode {mode!r}")


def _read_config(path: str) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Resolver:
    """flags > config > defaults."""

    def __init__(self, args, config):
        self.args = args
        self.config = config

    def get(self, key, default=None, cast=None):
        val = getattr(self.args, key, None)
        if val is None:
            raw = self.config.get(key)
            if raw is None:
                val = default
            elif cast is np.ndarray:
                val = _parse_grid(raw)
            elif cast is bool:
                val = raw.lower() in ("1", "true", "yes", "on")
            else:
                val = (cast or str)(raw)
        return val

    def require(self, key, default=None, cast=None):
        val = self.get(key, default, cast)
        if val is None:
            raise SystemExit(
                f"error: missing required parameter --{key.replace('_', '-')}"
            )
        return val


def _zeta_from(res: _Resolver, s: int, default_ratio=None) -> float:
    zeta = res.get("zeta", cast=float)
    if zeta is not None:
        return zeta
    ratio = res.get("zeta_ratio", default_ratio, cast=float)
    if ratio is None:
        raise SystemExit("error: pass --zeta or --zeta-ratio")
    return ratio * float(maps.thresholds(s).zeta_c)


def _emit(tabs, svgs, res: _Resolver) -> None:
    out = res.get("out")
    fmt = res.get("format", "csv")
    if out is None:
        for name, tab in tabs.items():
            if len(tabs) > 1:
                sys.stdout.write(f"== {name}\n")
            sys.stdout.write(tab.to_text())
        return
    base = Path(out)
    base.parent.mkdir(parents=True, exist_ok=True)
    stem = base.stem if base.suffix else base.name

    def path_for(name, ext, single):
        if single:
            return base.parent / f"{stem}.{ext}"
        return base.parent / f"{stem}_{name}.{ext}"

    if fmt in ("csv", "svg"):
        for name, tab in tabs.items():
            path_for(name, "csv", len(tabs) == 1).write_text(
                tab.to_csv(), encoding="utf-8"
            )
    if fmt == "json":
        for name, tab in tabs.items():
            path_for(name, "json", len(tabs) == 1).write_text(
                tab.to_json(), encoding="utf-8"
            )
    if fmt == "svg":
        for name, svg_text in (svgs or {}).items():
            path_for(name, "svg", len(svgs) == 1).write_text(
                svg_text, encoding="utf-8"
            )


# --------------------------------------------------------------------------
# command implementations


def _cmd_thresholds(res):
    spec = str(res.require("s", 3))
    svals = (
        list(range(int(spec.split("..")[0]), int(spec.split("..")[1]) + 1))
        if ".." in spec
        else [int(spec)]
    )
    tab = Table(
        "todahess.thresholds.v1",
        ["s", "zeta_c", "zeta_univ", "ratio", "zeta_c_float", "zeta_univ_float"],
    )
    for s in svals:
        th = maps.thresholds(s)
        tab.add(s, str(th.zeta_c), str(th.zeta_univ), str(th.ratio),
                float(th.zeta_c), float(th.zeta_univ))
    return {"thresholds": tab}, {}


def _cmd_raney(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    n = int(res.get("n", 10))
    tbl = raney.raney_table(s, p, n)
    tab = Table("todahess.raney.v1", ["s", "p", "n", "R"])
    for i in range(n + 1):
        tab.add(s, p, i, str(tbl[i]))
    return {"raney": tab}, {}


def _cmd_sigma(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    tol = res.get("tol", 1e-12, cast=float)
    zc = float(maps.thresholds(s).zeta_c)
    grid = res.get("grid", cast=np.ndarray)
    ratios = grid if grid is not None else [_zeta_from(res, s) / zc]
    tab = Table("todahess.sigma.v1", ["s", "p", "zeta_ratio", "zeta", "sigma"])
    for r in ratios:
        z = float(r) * zc
        tab.add(s, p, float(r), z, gram.sigma_p(s, p, z, tol))
    return {"sigma": tab}, {}


def _cmd_hessian(res):
    s = int(res.require("s"))
    zeta = _zeta_from(res, s, 0.5)
    n = int(res.get("n", 12))
    tab = Table("todahess.hessian.v1", ["s", "zeta", "m", "n", "H"])
    for m in range(1, n + 1):
        for nn in range(m, n + 1):
            h = gram.hessian_entry(s, zeta, m, nn)
            if h:
                tab.add(s, zeta, m, nn, h)
    return {"hessian": tab}, {}


def _cmd_block(res):
    s = int(res.require("s"))
    q = int(res.get("q", 1))
    beta = res.get("beta", 1.0, cast=float)
    n = int(res.get("n", 10))
    tol = res.get("tol", 1e-12, cast=float)
    zeta = _zeta_from(res, s, 0.999)
    blk = gram.weighted_block(s, zeta, q, beta, n, tol)
    tab = Table(
        "todahess.block.v1",
        ["s", "q", "beta", "N", "zeta", "j1", "j2", "value"],
    )
    for j1 in range(n):
        for j2 in range(j1, n):
            tab.add(s, q, beta, n, zeta, j1, j2, float(blk.matrix[j1, j2]))
    return {"block": tab}, {}


def _cmd_spectrum(res):
    s = int(res.require("s"))
    q = int(res.get("q", 1))
    beta = res.get("beta", 1.0, cast=float)
    n = int(res.get("n", 30))
    k = int(res.get("k", 6))
    zeta = _zeta_from(res, s, 0.999)
    _, dec = spectra.block_spectrum(s, q, beta, n, zeta)
    tab = Table(
        "todahess.spectrum.v1", ["s", "q", "beta", "N", "zeta", "k", "mu_k"]
    )
    for i in range(min(k, n)):
        tab.add(s, q, beta, n, zeta, i + 1, float(dec.eigenvalues[i]))
    return {"spectrum": tab}, {}


def _cmd_stiff_fit(res):
    s = int(res.require("s"))
    q = int(res.get("q", 1))
    beta = res.get("beta", 1.0, cast=float)
    n = int(res.get("n", 30))
    grid = res.get("grid", cast=np.ndarray)
    if grid is None:
        grid = 1.0 - np.geomspace(1e-2, 1e-5, 10)
    zc = float(maps.thresholds(s).zeta_c)
    fit = spectra.stiff_trajectory(s, q, beta, n, [r * zc for r in grid])
    summary = Table(
        "todahess.stiff-fit.v1",
        ["s", "q", "beta", "N", "slope", "gamma_truncated", "rel_dev",
         "intercept", "residual"],
    )
    summary.add(
        s, q, beta, n, fit.slope, fit.gamma_truncated,
        abs(fit.slope - fit.gamma_truncated) / fit.gamma_truncated,
        fit.intercept, fit.residual,
    )
    points = Table("todahess.stiff-fit-points.v1", ["zeta_ratio", "L", "mu1"])
    for r, lval, mu in zip(sorted(grid), fit.L_values, fit.mu1_values):
        points.add(float(r), float(lval), float(mu))
    svgs = {
        "stiff_fit": _line_svg(fit.L_values, fit.mu1_values, "L", "mu1",
                               f"stiff fit s={s}")
    }
    return {"summary": summary, "points": points}, svgs


def _line_svg(x, y, xlabel, ylabel, title):
    from . import svg

    return svg.polyline_plot(
        [{"label": ylabel, "x": list(map(float, x)), "y": list(map(float, y))}],
        title=title, xlabel=xlabel, ylabel=ylabel,
    )


def _cmd_soft(res):
    s = int(res.require("s"))
    q = int(res.get("q", 1))
    beta = res.get("beta", 1.0, cast=float)
    n = int(res.get("n", 40))
    k = int(res.get("k", 6))
    zeta = _zeta_from(res, s, 0.9999)
    soft = spectra.soft_spectrum(s, q, beta, n, zeta, k)
    tab = Table(
        "todahess.soft.v1",
        ["s", "q", "beta", "N", "zeta", "k", "mu_k", "compressed_mu_k"],
    )
    for i, val in enumerate(soft.values):
        tab.add(s, q, beta, n, zeta, i + 2, float(val),
                float(soft.compressed_limit[i]))
    return {"soft": tab}, {}


def _cmd_align(res):
    s = int(res.require("s"))
    q = int(res.get("q", 1))
    beta = res.get("beta", 1.0, cast=float)
    n = int(res.get("n", 40))
    grid = res.get("grid", cast=np.ndarray)
    if grid is None:
        grid = 1.0 - np.geomspace(1e-2, 1e-4, 8)
    zc = float(maps.thresholds(s).zeta_c)
    tab = Table(
        "todahess.align.v1",
        ["s", "q", "beta", "N", "zeta_ratio", "L", "alignment",
         "one_minus_align_times_L", "degenerate"],
    )
    for r in grid:
        z = float(r) * zc
        al = spectra.eigvec_alignment(s, q, beta, n, z)
        lval = spectra.log_scale(z, zc)
        tab.add(s, q, beta, n, float(r), lval, al.value,
                (1.0 - al.value) * lval, al.degenerate)
    return {"align": tab}, {}


def _cmd_continue(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    side = res.get("side", "none")
    tol = res.get("tol", 1e-12, cast=float)
    u_ratio = res.require("u_ratio", cast=float)
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, u_ratio * zc2, side, tol)
    sc = cont.sigma_from_state(st)
    hp = cont.hyp_params(s, p)
    tab = Table(
        "todahess.continue.v1",
        ["s", "p", "u_ratio", "u", "side", "reduced_order", "cancelled",
         "re_G", "im_G", "re_G1", "im_G1", "re_G2", "im_G2",
         "re_sigma", "im_sigma"],
    )
    tab.add(
        s, p, u_ratio, complex(st.u).real, st.side, len(hp.reduced_upper),
        hp.cancelled,
        st.derivs[0].real, st.derivs[0].imag,
        st.derivs[1].real, st.derivs[1].imag,
        st.derivs[2].real, st.derivs[2].imag,
        complex(sc).real, complex(sc).imag,
    )
    return {"continue": tab}, {}


def _cmd_rho(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    grid = res.get("grid", cast=np.ndarray)
    if grid is None:
        grid = np.geomspace(1.002, 4.0, 40)
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    states = cont.cut_trace(s, p, grid, side="above")
    tab = Table(
        "todahess.rho.v1", ["s", "p", "u_ratio", "u", "rho", "edge_value"]
    )
    edge = cont.edge_density_closed(s, p)
    for x, st in zip(sorted(map(float, grid)), states):
        rho = cont.sigma_from_state(st).imag / math.pi
        tab.add(s, p, x, x * zc2, rho, edge)
    svgs = {
        "rho": _line_svg(tab.column("u_ratio"), tab.column("rho"),
                         "u/zeta_c^2", "rho", f"jump density s={s} p={p}")
    }
    return {"rho": tab}, svgs


def _cmd_resonant_fit(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    precision = res.get("precision", "extended")
    dps = 40 if precision == "extended" else 17
    fit = cont.resonant_fit(s, p, dps=dps)
    closed = cont.B_closed_form(s, p)
    tab = Table(
        "todahess.resonant-fit.v1",
        ["s", "p", "B_fit", "B_closed", "rel_error", "pi_times_B_closed",
         "a0", "a1", "a2", "a3", "b3", "max_rel_residual"],
    )
    tab.add(
        s, p, fit.B_fit, closed.value,
        abs(fit.B_fit - closed.value) / abs(closed.value),
        str(closed.rational), *fit.coeffs[:4], fit.coeffs[5],
        fit.max_rel_residual,
    )
    return {"resonant_fit": tab}, {}


def _cmd_jacobi(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    n = int(res.get("n", 12))
    mseq = stieltjes.moments(s, p, 2 * n + 1)
    jac = stieltjes.jacobi_coefficients(mseq, n)
    tab = Table(
        "todahess.jacobi.v1",
        ["s", "p", "k", "b_k", "a_k_sq", "b_k_float", "a_k_float"],
    )
    for k in range(jac.n):
        asq = jac.a_sq_exact[k - 1] if k >= 1 else None
        tab.add(
            s, p, k, str(jac.b_exact[k]),
            str(asq) if asq is not None else "",
            float(jac.b_exact[k]),
            math.sqrt(float(asq)) if asq is not None else None,
        )
    return {"jacobi": tab}, {}


def _cmd_weyl(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    n = int(res.get("n", 40))
    u_ratio = res.require("u_ratio", cast=float)
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    u = u_ratio * zc2
    jac = stieltjes.jacobi_coefficients(stieltjes.moments(s, p, 2 * n + 5), n)
    w = stieltjes.weyl_function(jac, u)
    if 0 < u <= 0.98 * zc2:
        g = complex(cont.gp_series(s, p, u))
    else:
        g = cont.gp_continue(s, p, u, "none").value
    tab = Table(
        "todahess.weyl.v1",
        ["s", "p", "n", "u_ratio", "u", "weyl", "G_p", "abs_diff"],
    )
    tab.add(s, p, n, u_ratio, u, complex(w).real, complex(g).real,
            abs(complex(w) - complex(g)))
    return {"weyl": tab}, {}


def _cmd_density(res):
    s = int(res.require("s"))
    p = int(res.get("p", 1))
    grid = res.get("grid", cast=np.ndarray)
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    tmax = 1.0 / zc2
    if grid is None:
        grid = np.linspace(0.02, 0.98, 40)
    tab = Table(
        "todahess.density.v1", ["s", "p", "t_ratio", "t", "varrho"]
    )
    xi_nodes = sorted(1.0 / float(r) for r in grid)
    states = cont.cut_trace(s, p, xi_nodes, side="above")
    for xi, st in zip(xi_nodes, states):
        t = tmax / xi
        tab.add(s, p, t / tmax, t, st.value.imag / (math.pi * t))
    mass = stieltjes.perron_integrals(s, p, delta_rel=1e-12, n_panels=120)[0]
    summary = Table("todahess.density-mass.v1", ["s", "p", "delta_rel", "mass"])
    summary.add(s, p, 1e-12, mass)
    svgs = {
        "density": _line_svg(tab.column("t"), tab.column("varrho"), "t",
                             "varrho", f"Perron density s={s} p={p}")
    }
    return {"density": tab, "mass": summary}, svgs


def _cmd_figure(res):
    fid = res.require("id")
    tabs, svgs = figures.build_figure(fid)
    return tabs, svgs


def _cmd_selftest(res):
    level = res.get("level", "quick")
    if level not in ("quick", "full"):
        raise SystemExit(f"error: selftest level must be quick or full, got {level}")
    results = acceptance.run_quick() if level == "quick" else acceptance.run_full()
    report = {
        "version": __version__,
        "level": level,
        "criteria": [
            {
                "id": r.cid,
                "title": r.title,
                "status": r.status,
                "passed": r.passed,
                "warn_only": r.warn_only,
                "expected_fail": r.expected_fail,
                "elapsed_s": round(r.elapsed, 2),
                "details": _jsonable(r.details),
            }
            for r in results
        ],
    }
    if level == "full":
        report["convergence_in_N"] = _jsonable(acceptance.convergence_in_n())
    for r in results:
        print(r.line())
    out = res.get("out")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True),
                             encoding="utf-8")
    hard_failures = [r for r in results if not r.passed and not r.warn_only]
    n_expected = sum(1 for r in hard_failures if r.expected_fail)
    n_warn = sum(1 for r in results if not r.passed and r.warn_only)
    print(
        f"selftest {level}: {sum(r.passed for r in results)}/{len(results)} passed,"
        f" {n_warn} warnings, {len(hard_failures)} failures"
        + (f" ({n_expected} expected/documented)" if n_expected else "")
    )
    return 3 if hard_failures else 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


_COMMANDS = {
    "thresholds": _cmd_thresholds,
    "raney": _cmd_raney,
    "sigma": _cmd_sigma,
    "hessian": _cmd_hessian,
    "block": _cmd_block,
    "spectrum": _cmd_spectrum,
    "stiff-fit": _cmd_stiff_fit,
    "soft": _cmd_soft,
    "align": _cmd_align,
    "continue": _cmd_continue,
    "rho": _cmd_rho,
    "resonant-fit": _cmd_resonant_fit,
    "jacobi": _cmd_jacobi,
    "weyl": _cmd_weyl,
    "density": _cmd_density,
    "figure": _cmd_figure,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todahess",
        description="Mixed Toda-Hessian spectra for s-fold symmetric "
        "one-harmonic conformal maps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value parameter file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--s", help="symmetry order (or a..b range for thresholds)")
        sp.add_argument("--p", type=int)
        sp.add_argument("--q", type=int)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--n", type=int, help="truncation / depth / max index")
        sp.add_argument("--k", type=int)
        sp.add_argument("--zeta", type=float)
        sp.add_argument("--zeta-ratio", dest="zeta_ratio", type=float)
        sp.add_argument("--u-ratio", dest="u_ratio", type=float,
                        help="u / zeta_c^2")
        sp.add_argument("--side", choices=("above", "below", "none"))
        sp.add_argument("--grid", type=_parse_grid,
                        help='"a:b:n[,log|log1m]"')
        sp.add_argument("--tol", type=float)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "svg", "json"))
        sp.add_argument("--precision", choices=("double", "extended"))
        if name == "figure":
            sp.add_argument("--id", choices=figures.FIGURE_IDS)
        if name == "selftest":
            sp.add_argument("--level", choices=("quick", "full"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _read_config(args.config) if args.config else {}
    res = _Resolver(args, config)
    try:
        handler = _COMMANDS[args.command]
        if args.command == "selftest":
            return handler(res)
        tabs, svgs = handler(res)
        _emit(tabs, svgs, res)
        return 0
    except SystemExit:
        raise
    except DomainError as exc:  # parameter outside its domain = usage error
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TodaHessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # computation failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
