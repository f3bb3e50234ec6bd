"""Figure-reproduction recipes: parameter sets bound to the four figures.

Each recipe returns named Tables plus the SVG renderings derived from them.
Defaults mirror the figure captions: fig1 (beta=1, N=30, q=1, s in {3,5}),
fig2 (beta=1, N=40, snapshot at zeta/zeta_c = 0.9999), fig3 (sigma and rho
across the threshold), fig4 (q=1, beta=1, N=40, first soft modes).  The zeta
grids approach zeta_c geometrically in 1 - zeta/zeta_c and are recorded in
the CSV metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import svg
from .continuation import cut_trace, edge_density_closed, sigma_from_state
from .errors import DomainError
from .gram import sigma_p
from .maps import thresholds
from .raney import zeta_c_value
from .spectra import block_spectrum, compressed_remainder, log_scale
from .tables import Table

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4")


@dataclass(frozen=True)
class FigureRecipe:
    figure_id: str
    s_values: tuple = (3, 5)
    q: int = 1
    beta: float = 1.0
    n: int = 30
    snapshot_ratio: float = 0.9999
    ratio_grid: tuple = ()
    p_values: dict = field(default_factory=dict)


def recipe(figure_id: str) -> FigureRecipe:
    if figure_id == "fig1":
        return FigureRecipe(
            "fig1", n=30, ratio_grid=tuple(1.0 - np.geomspace(1e-2, 1e-5, 12))
        )
    if figure_id == "fig2":
        return FigureRecipe(
            "fig2", n=40, ratio_grid=tuple(1.0 - np.geomspace(1e-2, 1e-5, 10))
        )
    if figure_id == "fig3":
        return FigureRecipe("fig3", p_values={3: (1, 2, 3, 6), 5: (1, 2, 5, 10)})
    if figure_id == "fig4":
        return FigureRecipe("fig4", n=40)
    raise DomainError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")


def build_fig1(rec: FigureRecipe):
    """Stiff eigenvalue trajectories: mu_1..mu_6 against L(zeta)."""
    tab = Table(
        "todahess.fig1.v1",
        ["s", "q", "beta", "N", "zeta_ratio", "L"] + [f"mu{k}" for k in range(1, 7)],
        meta={"grid": "1 - zeta/zeta_c geomspace(1e-2, 1e-5, 12)"},
    )
    for s in rec.s_values:
        zc = float(thresholds(s).zeta_c)
        for ratio in rec.ratio_grid:
            _, dec = block_spectrum(s, rec.q, rec.beta, rec.n, ratio * zc)
            lval = log_scale(ratio * zc, thresholds(s).zeta_c)
            tab.add(
                s, rec.q, rec.beta, rec.n, float(ratio), lval,
                *[float(dec.eigenvalues[k]) for k in range(6)],
            )
    figs = {}
    series_top, series_bot = [], []
    for s in rec.s_values:
        rows = [r for r in tab.rows if r[0] == s]
        ls = [r[5] for r in rows]
        series_top.append({"label": f"s={s} mu1", "x": ls, "y": [r[6] for r in rows]})
        for k in range(1, 7):
            series_bot.append(
                {"label": f"s={s} mu{k}/L", "x": ls,
                 "y": [r[5 + k] / r[5] for r in rows]}
            )
    figs["fig1_top"] = svg.polyline_plot(
        series_top, title="stiff eigenvalue vs L", xlabel="L", ylabel="mu1"
    )
    figs["fig1_bottom"] = svg.polyline_plot(
        series_bot, title="normalized eigenvalues", xlabel="L", ylabel="mu_k/L",
        logy=True,
    )
    return {"fig1": tab}, figs


def build_fig2(rec: FigureRecipe):
    """Soft branches vs 1/L plus the near-critical sector snapshot."""
    top = Table(
        "todahess.fig2-top.v1",
        ["s", "q", "beta", "N", "zeta_ratio", "inv_L"]
        + [f"mu{k}" for k in range(2, 7)],
        meta={"grid": "1 - zeta/zeta_c geomspace(1e-2, 1e-5, 10)"},
    )
    bottom = Table(
        "todahess.fig2-bottom.v1",
        ["s", "q", "beta", "N", "zeta_ratio", "k", "mu_k"],
        meta={"snapshot": "zeta/zeta_c = 0.9999, sectors q = 1..s"},
    )
    for s in rec.s_values:
        zc = float(thresholds(s).zeta_c)
        for ratio in rec.ratio_grid:
            _, dec = block_spectrum(s, rec.q, rec.beta, rec.n, ratio * zc)
            lval = log_scale(ratio * zc, thresholds(s).zeta_c)
            top.add(
                s, rec.q, rec.beta, rec.n, float(ratio), 1.0 / lval,
                *[float(dec.eigenvalues[k]) for k in range(1, 6)],
            )
        for q in range(1, s + 1):
            _, dec = block_spectrum(s, q, rec.beta, rec.n, rec.snapshot_ratio * zc)
            for k in range(2, 7):
                bottom.add(
                    s, q, rec.beta, rec.n, rec.snapshot_ratio, k,
                    float(dec.eigenvalues[k - 1]),
                )
    figs = {}
    series = []
    for s in rec.s_values:
        rows = [r for r in top.rows if r[0] == s]
        for k in range(2, 7):
            series.append(
                {"label": f"s={s} mu{k}", "x": [r[5] for r in rows],
                 "y": [r[4 + k] for r in rows]}
            )
    figs["fig2_top"] = svg.polyline_plot(
        series, title="soft branches vs 1/L", xlabel="1/L", ylabel="mu_k",
        logy=True,
    )
    series_b = []
    for s in rec.s_values:
        for q in range(1, s + 1):
            rows = [r for r in bottom.rows if r[0] == s and r[1] == q]
            series_b.append(
                {"label": f"s={s} q={q}", "x": [r[5] for r in rows],
                 "y": [r[6] for r in rows]}
            )
    figs["fig2_bottom"] = svg.polyline_plot(
        series_b, title="soft snapshot at 0.9999 zeta_c", xlabel="k",
        ylabel="mu_k", logy=True,
    )
    return {"fig2_top": top, "fig2_bottom": bottom}, figs


def build_fig3(rec: FigureRecipe):
    """Continued Gram weight below the threshold, jump density above it."""
    tab = Table(
        "todahess.fig3.v1",
        ["s", "p", "u_ratio", "u", "branch", "sigma_cont", "rho", "edge_value"],
        meta={
            "sub_grid": "u/zeta_c^2 linspace(0.30, 0.96, 12)",
            "super_grid": "u/zeta_c^2 geomspace(1.002, 4.0, 40)",
        },
    )
    sub = np.linspace(0.30, 0.96, 12)
    sup = np.geomspace(1.002, 4.0, 40)
    for s in rec.s_values:
        zc2 = zeta_c_value(s) ** 2
        for p in rec.p_values.get(s, (1, 2, s)):
            edge = edge_density_closed(s, p)
            for xr in sub:
                u = xr * zc2
                tab.add(s, p, float(xr), u, "sub",
                        sigma_p(s, p, math.sqrt(u)), None, edge)
            states = cut_trace(s, p, sup, side="above")
            for xr, st in zip(sup, states):
                rho = sigma_from_state(st).imag / math.pi
                tab.add(s, p, float(xr), float(xr) * zc2, "super",
                        None, rho, edge)
    figs = {}
    for s in rec.s_values:
        series_sub, series_sup = [], []
        for p in rec.p_values.get(s, (1, 2, s)):
            rows = [r for r in tab.rows if r[0] == s and r[1] == p]
            series_sub.append(
                {"label": f"p={p}", "x": [r[2] for r in rows if r[4] == "sub"],
                 "y": [r[5] for r in rows if r[4] == "sub"]}
            )
            series_sup.append(
                {"label": f"p={p}", "x": [r[2] for r in rows if r[4] == "super"],
                 "y": [r[6] for r in rows if r[4] == "super"]}
            )
        figs[f"fig3_sigma_s{s}"] = svg.polyline_plot(
            series_sub, title=f"continued Gram weight, s={s}",
            xlabel="u/zeta_c^2", ylabel="sigma",
        )
        figs[f"fig3_rho_s{s}"] = svg.polyline_plot(
            series_sup, title=f"jump density, s={s}", xlabel="u/zeta_c^2",
            ylabel="rho", logx=True,
        )
    return {"fig3": tab}, figs


def build_fig4(rec: FigureRecipe):
    """Signed components of the first soft modes of the compressed remainder."""
    tab = Table(
        "todahess.fig4.v1",
        ["s", "q", "beta", "N", "zeta_ratio", "k", "j", "p_j", "component"],
        meta={"snapshot": "zeta/zeta_c = 0.9999"},
    )
    for s in rec.s_values:
        zc = float(thresholds(s).zeta_c)
        basis, dec = compressed_remainder(
            s, rec.q, rec.beta, rec.n, rec.snapshot_ratio * zc
        )
        for k in range(2, 6):
            vec = basis @ dec.eigenvectors[:, k - 2]
            # Sign convention: largest-v-magnitude component positive.
            if vec[np.argmax(np.abs(vec))] < 0:
                vec = -vec
            for j in range(rec.n):
                tab.add(
                    s, rec.q, rec.beta, rec.n, rec.snapshot_ratio, k, j,
                    rec.q + j * s, float(vec[j]),
                )
    figs = {}
    for s in rec.s_values:
        series = []
        for k in range(2, 6):
            rows = [r for r in tab.rows if r[0] == s and r[5] == k]
            series.append(
                {"label": f"phi_{k}", "x": [r[6] for r in rows],
                 "y": [r[8] for r in rows]}
            )
        figs[f"fig4_s{s}"] = svg.polyline_plot(
            series, title=f"soft modes, s={s}", xlabel="j",
            ylabel="component",
        )
    return {"fig4": tab}, figs


_BUILDERS = {
    "fig1": build_fig1,
    "fig2": build_fig2,
    "fig3": build_fig3,
    "fig4": build_fig4,
}


def build_figure(figure_id: str):
    """Tables and SVGs for one figure id, from its caption recipe."""
    return _BUILDERS[figure_id](recipe(figure_id))
