"""Command-line surface.

Commands: thresholds, raney, sigma, hessian, block, spectrum, stiff-fit,
soft, align, continue, rho, resonant-fit, jacobi, weyl, density, figure,
selftest.  Each command accepts only the flags it reads (the _COMMANDS
table).  Parameter precedence is flags > config file (key=value lines) >
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


def _parse_orders(spec: str) -> list:
    """Parse a symmetry order 's' or an inclusive range 'a..b'."""
    lo, sep, hi = spec.partition("..")
    try:
        return list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad symmetry order {spec!r}") from None


def _zeta_from(args) -> float:
    if args.zeta is not None:
        return args.zeta
    if args.zeta_ratio is None:
        raise DomainError("pass --zeta, --zeta-ratio or --grid")
    return args.zeta_ratio * float(maps.thresholds(args.s).zeta_c)


def _emit(tabs, svgs, args) -> None:
    """Write the tables to --out (csv unless --format says otherwise) or to
    stdout (the text table unless --format is csv or json)."""
    out, fmt = args.out, args.format
    if out is None:
        render = {None: Table.to_text, "csv": Table.to_csv, "json": Table.to_json}[fmt]
        for name, tab in tabs.items():
            if len(tabs) > 1:
                sys.stdout.write(f"== {name}\n")
            sys.stdout.write(render(tab))
        return
    base = Path(out)
    base.parent.mkdir(parents=True, exist_ok=True)
    stem = base.stem if base.suffix else base.name

    def path_for(name, ext, single):
        if single:
            return base.parent / f"{stem}.{ext}"
        return base.parent / f"{stem}_{name}.{ext}"

    if fmt in (None, "csv", "svg"):
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


def _cmd_thresholds(args):
    tab = Table(
        "todahess.thresholds.v1",
        ["s", "zeta_c", "zeta_univ", "ratio", "zeta_c_float", "zeta_univ_float"],
    )
    for s in args.s:
        th = maps.thresholds(s)
        tab.add(s, str(th.zeta_c), str(th.zeta_univ), str(th.ratio),
                float(th.zeta_c), float(th.zeta_univ))
    return {"thresholds": tab}, {}


#: digits per chunk of _int_str, under Python's default limit of 4300 on
#: int -> str conversion
_STR_DIGITS = 4000
_STR_CHUNK = 10**_STR_DIGITS


def _int_str(n: int) -> str:
    """str(n) for an int of any size: the exact a_k^2 at s = 8, n = 40 have
    over 6000 digits, and R_{8,16}(n) passes 4300 at n = 3300."""
    if n < 0:
        return "-" + _int_str(-n)
    if n < _STR_CHUNK:
        return str(n)
    hi, lo = divmod(n, _STR_CHUNK)
    return _int_str(hi) + str(lo).zfill(_STR_DIGITS)


def _fraction_str(x) -> str:
    """str(x) for a Fraction x of any size."""
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"


def _cmd_raney(args):
    s, p, n = args.s, args.p, args.n
    tbl = raney.raney_table(s, p, n)
    tab = Table("todahess.raney.v1", ["s", "p", "n", "R"])
    for i in range(n + 1):
        tab.add(s, p, i, _int_str(tbl[i]))
    return {"raney": tab}, {}


def _cmd_sigma(args):
    s, p = args.s, args.p
    zc = float(maps.thresholds(s).zeta_c)
    ratios = args.grid if args.grid is not None else [_zeta_from(args) / zc]
    tab = Table("todahess.sigma.v1", ["s", "p", "zeta_ratio", "zeta", "sigma"])
    for r in ratios:
        z = float(r) * zc
        tab.add(s, p, float(r), z, gram.sigma_p(s, p, z, args.tol))
    return {"sigma": tab}, {}


def _cmd_hessian(args):
    s, n = args.s, args.n
    zeta = _zeta_from(args)
    tab = Table("todahess.hessian.v1", ["s", "zeta", "m", "n", "H"])
    for m in range(1, n + 1):
        for nn in range(m, n + 1):
            h = gram.hessian_entry(s, zeta, m, nn)
            if h:
                tab.add(s, zeta, m, nn, h)
    return {"hessian": tab}, {}


def _cmd_block(args):
    s, q, beta, n = args.s, args.q, args.beta, args.n
    zeta = _zeta_from(args)
    blk = gram.weighted_block(s, zeta, q, beta, n, args.tol)
    tab = Table(
        "todahess.block.v1",
        ["s", "q", "beta", "N", "zeta", "j1", "j2", "value"],
    )
    for j1 in range(n):
        for j2 in range(j1, n):
            tab.add(s, q, beta, n, zeta, j1, j2, float(blk.matrix[j1, j2]))
    return {"block": tab}, {}


def _cmd_spectrum(args):
    s, q, beta, n, k = args.s, args.q, args.beta, args.n, args.k
    zeta = _zeta_from(args)
    _, dec = spectra.block_spectrum(s, q, beta, n, zeta)
    tab = Table(
        "todahess.spectrum.v1", ["s", "q", "beta", "N", "zeta", "k", "mu_k"]
    )
    for i in range(min(k, n)):
        tab.add(s, q, beta, n, zeta, i + 1, float(dec.eigenvalues[i]))
    return {"spectrum": tab}, {}


def _cmd_stiff_fit(args):
    s, q, beta, n, grid = args.s, args.q, args.beta, args.n, args.grid
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


def _cmd_soft(args):
    s, q, beta, n, k = args.s, args.q, args.beta, args.n, args.k
    zeta = _zeta_from(args)
    soft = spectra.soft_spectrum(s, q, beta, n, zeta, k)
    tab = Table(
        "todahess.soft.v1",
        ["s", "q", "beta", "N", "zeta", "k", "mu_k", "compressed_mu_k"],
    )
    for i, val in enumerate(soft.values):
        tab.add(s, q, beta, n, zeta, i + 2, float(val),
                float(soft.compressed_limit[i]))
    return {"soft": tab}, {}


def _cmd_align(args):
    s, q, beta, n, grid = args.s, args.q, args.beta, args.n, args.grid
    zc = float(maps.thresholds(s).zeta_c)
    tab = Table(
        "todahess.align.v1",
        ["s", "q", "beta", "N", "zeta_ratio", "L", "alignment",
         "one_minus_align_times_L", "degenerate"],
    )
    for r in grid:
        z = float(r) * zc
        al = spectra.eigvec_alignment(s, q, beta, n, z)
        lval = spectra.log_scale(z, maps.thresholds(s).zeta_c)
        tab.add(s, q, beta, n, float(r), lval, al.value,
                (1.0 - al.value) * lval, al.degenerate)
    return {"align": tab}, {}


def _cmd_continue(args):
    s, p, u_ratio = args.s, args.p, args.u_ratio
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, u_ratio * zc2, args.side, args.tol)
    sc = cont.sigma_from_state(st)
    hp = cont.hyp_params(s, p)
    tab = Table(
        "todahess.continue.v2",
        ["s", "p", "u_ratio", "u", "side", "reduced_order", "cancelled",
         "re_G", "im_G", "re_G1", "im_G1", "re_G2", "im_G2",
         "re_sigma", "im_sigma", "dps", "steps", "rel_est"],
    )
    tab.add(
        s, p, u_ratio, complex(st.u).real, st.side, len(hp.reduced_upper),
        hp.cancelled,
        st.derivs[0].real, st.derivs[0].imag,
        st.derivs[1].real, st.derivs[1].imag,
        st.derivs[2].real, st.derivs[2].imag,
        complex(sc).real, complex(sc).imag,
        st.dps, st.steps, st.rel_est,
    )
    return {"continue": tab}, {}


def _cmd_rho(args):
    s, p, grid = args.s, args.p, sorted(map(float, args.grid))
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    states = cont.cut_trace(s, p, grid, side="above")
    tab = Table(
        "todahess.rho.v1", ["s", "p", "u_ratio", "u", "rho", "edge_value"]
    )
    edge = cont.edge_density_closed(s, p)
    for x, st in zip(grid, states):
        rho = cont.sigma_from_state(st).imag / math.pi
        tab.add(s, p, x, x * zc2, rho, edge)
    svgs = {
        "rho": _line_svg(tab.column("u_ratio"), tab.column("rho"),
                         "u/zeta_c^2", "rho", f"jump density s={s} p={p}")
    }
    return {"rho": tab}, svgs


def _cmd_resonant_fit(args):
    s, p = args.s, args.p
    dps = 40 if args.precision == "extended" else 17
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


def _cmd_jacobi(args):
    s, p, n = args.s, args.p, args.n
    mseq = stieltjes.moments(s, p, 2 * n + 1)
    jac = stieltjes.jacobi_coefficients(mseq, n)
    tab = Table(
        "todahess.jacobi.v1",
        ["s", "p", "k", "b_k", "a_k_sq", "b_k_float", "a_k_float"],
    )
    for k in range(jac.n):
        asq = jac.a_sq_exact[k - 1] if k >= 1 else None
        tab.add(
            s, p, k, _fraction_str(jac.b_exact[k]),
            _fraction_str(asq) if asq is not None else "",
            float(jac.b_exact[k]),
            math.sqrt(float(asq)) if asq is not None else None,
        )
    return {"jacobi": tab}, {}


def _cmd_weyl(args):
    s, p, n, u_ratio = args.s, args.p, args.n, args.u_ratio
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    u = u_ratio * zc2
    jac = stieltjes.jacobi_coefficients(stieltjes.moments(s, p, 2 * n + 5), n)
    w = stieltjes.weyl_function(jac, u)
    g = cont.gp_continue(s, p, u, "none").value
    tab = Table(
        "todahess.weyl.v1",
        ["s", "p", "n", "u_ratio", "u", "weyl", "G_p", "abs_diff"],
    )
    tab.add(s, p, n, u_ratio, u, complex(w).real, complex(g).real,
            abs(complex(w) - complex(g)))
    return {"weyl": tab}, {}


def _cmd_density(args):
    s, p = args.s, args.p
    zc2 = float(maps.thresholds(s).zeta_c) ** 2
    tmax = 1.0 / zc2
    tab = Table(
        "todahess.density.v1", ["s", "p", "t_ratio", "t", "varrho"]
    )
    ratios = sorted(map(float, args.grid), reverse=True)  # ascending xi = 1/t_ratio
    for r, rho in zip(ratios, stieltjes.perron_density(s, p, ratios)):
        t = tmax / (1.0 / r)
        tab.add(s, p, t / tmax, t, float(rho))
    mass = stieltjes.perron_integrals(s, p, delta_rel=1e-12, n_panels=120)[0]
    summary = Table("todahess.density-mass.v1", ["s", "p", "delta_rel", "mass"])
    summary.add(s, p, 1e-12, mass)
    svgs = {
        "density": _line_svg(tab.column("t"), tab.column("varrho"), "t",
                             "varrho", f"Perron density s={s} p={p}")
    }
    return {"density": tab, "mass": summary}, svgs


def _cmd_figure(args):
    return figures.build_figure(args.id)


def _cmd_selftest(args):
    level = args.level
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
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True),
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


#: flag -> add_argument keywords, shared by every command that reads the flag
_FLAGS = {
    "s": dict(type=int, help="symmetry order"),
    "p": dict(type=int, help="index p of the Raney family / G_p"),
    "q": dict(type=int, help="sector, 1 <= q <= s"),
    "beta": dict(type=float, help="weight exponent"),
    "n": dict(type=int, help="truncation / depth / max index"),
    "k": dict(type=int, help="number of eigenvalues"),
    "zeta": dict(type=float, help="map parameter; wins over --zeta-ratio"),
    "zeta_ratio": dict(type=float, help="zeta / zeta_c"),
    "u_ratio": dict(type=float, help="u / zeta_c^2"),
    "side": dict(choices=("above", "below", "none"), help="side of the cut"),
    "grid": dict(type=_parse_grid, help='"a:b:n[,log|log1m]"'),
    "tol": dict(type=float, help="series tolerance"),
    "precision": dict(choices=("double", "extended")),
    "id": dict(choices=figures.FIGURE_IDS),
    "level": dict(choices=("quick", "full")),
    "out": dict(help="output path; stdout when absent"),
    "format": dict(choices=("csv", "svg", "json"),
                   help="csv under --out and text on stdout when absent"),
}
#: thresholds --s also takes a range a..b
_THRESHOLD_ORDERS = dict(type=_parse_orders, help="symmetry order or range a..b")

_OUT = {"out": None, "format": None}
#: command -> (handler, {flag: default}); a ... default marks a required value
_COMMANDS = {
    "thresholds": (_cmd_thresholds, {"s": "3", **_OUT}),
    "raney": (_cmd_raney, {"s": ..., "p": 1, "n": 10, **_OUT}),
    "sigma": (_cmd_sigma, {
        "s": ..., "p": 1, "zeta": None, "zeta_ratio": None, "grid": None,
        "tol": gram.DEFAULT_TOL, **_OUT}),
    "hessian": (_cmd_hessian, {
        "s": ..., "zeta": None, "zeta_ratio": 0.5, "n": 12, **_OUT}),
    "block": (_cmd_block, {
        "s": ..., "q": 1, "beta": 1.0, "n": 10, "zeta": None, "zeta_ratio": 0.999,
        "tol": gram.DEFAULT_TOL, **_OUT}),
    "spectrum": (_cmd_spectrum, {
        "s": ..., "q": 1, "beta": 1.0, "n": 30, "k": 6, "zeta": None,
        "zeta_ratio": 0.999, **_OUT}),
    "stiff-fit": (_cmd_stiff_fit, {
        "s": ..., "q": 1, "beta": 1.0, "n": 30,
        "grid": 1.0 - np.geomspace(1e-2, 1e-5, 10), **_OUT}),
    "soft": (_cmd_soft, {
        "s": ..., "q": 1, "beta": 1.0, "n": 40, "k": 6, "zeta": None,
        "zeta_ratio": 0.9999, **_OUT}),
    "align": (_cmd_align, {
        "s": ..., "q": 1, "beta": 1.0, "n": 40,
        "grid": 1.0 - np.geomspace(1e-2, 1e-4, 8), **_OUT}),
    "continue": (_cmd_continue, {
        "s": ..., "p": 1, "u_ratio": ..., "side": "none", "tol": gram.DEFAULT_TOL,
        **_OUT}),
    "rho": (_cmd_rho, {
        "s": ..., "p": 1, "grid": np.geomspace(1.002, 4.0, 40), **_OUT}),
    "resonant-fit": (_cmd_resonant_fit, {
        "s": ..., "p": 1, "precision": "extended", **_OUT}),
    "jacobi": (_cmd_jacobi, {"s": ..., "p": 1, "n": 12, **_OUT}),
    "weyl": (_cmd_weyl, {"s": ..., "p": 1, "n": 40, "u_ratio": ..., **_OUT}),
    "density": (_cmd_density, {
        "s": ..., "p": 1, "grid": np.linspace(0.02, 0.98, 40), **_OUT}),
    "figure": (_cmd_figure, {"id": ..., **_OUT}),
    "selftest": (_cmd_selftest, {"level": "quick", "out": None}),
}


def _build_parser(config=None) -> argparse.ArgumentParser:
    """The CLI parser; config (key -> string) overrides the table defaults.

    argparse casts string defaults with the flag's type, so config values
    are checked like flags.  A required flag that the config supplies is no
    longer required on the command line.
    """
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="todahess",
        description="Mixed Toda-Hessian spectra for s-fold symmetric "
        "one-harmonic conformal maps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value parameter file")
    for key, value in config.items():
        if key not in _FLAGS:
            parser.error(f"config key {key!r} names no flag")
        choices = _FLAGS[key].get("choices")
        if choices and value not in choices:
            parser.error(f"config {key} = {value!r}: choose from {', '.join(choices)}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, default in flags.items():
            spec = _FLAGS[flag]
            if (name, flag) == ("thresholds", "s"):
                spec = _THRESHOLD_ORDERS
            default = config.get(flag, default)
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            default=None if default is ... else default,
                            required=default is ..., **spec)
    return parser


def main(argv=None) -> int:
    pre = argparse.ArgumentParser(prog="todahess", add_help=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    try:
        config = _read_config(config_path) if config_path else {}
    except (OSError, ValueError) as exc:
        pre.error(f"config: {exc}")
    parser = _build_parser(config)
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "svg" and args.out is None:
        parser.error("--format svg writes files: pass --out")
    try:
        handler = _COMMANDS[args.command][0]
        if args.command == "selftest":
            return handler(args)
        tabs, svgs = handler(args)
        _emit(tabs, svgs, args)
        return 0
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
