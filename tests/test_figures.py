import numpy as np
import pytest

from todahess import figures
from todahess.errors import DomainError


def test_recipe_defaults_match_captions():
    r1 = figures.recipe("fig1")
    assert r1.beta == 1.0 and r1.n == 30 and r1.q == 1 and r1.s_values == (3, 5)
    r2 = figures.recipe("fig2")
    assert r2.beta == 1.0 and r2.n == 40 and r2.snapshot_ratio == 0.9999
    r4 = figures.recipe("fig4")
    assert (r4.q, r4.beta, r4.n) == (1, 1.0, 40)
    with pytest.raises(DomainError):
        figures.recipe("fig9")


def test_fig1_reduced_build():
    rec = figures.FigureRecipe(
        "fig1", s_values=(3,), n=12, ratio_grid=(0.9, 0.99, 0.999)
    )
    tabs, svgs = figures.build_fig1(rec)
    tab = tabs["fig1"]
    assert tab.columns[:6] == ["s", "q", "beta", "N", "zeta_ratio", "L"]
    assert len(tab.rows) == 3
    mu1 = tab.column("mu1")
    assert mu1[0] < mu1[1] < mu1[2]  # stiff branch grows with L
    for text in svgs.values():
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_fig3_reduced_build_and_sign_change():
    rec = figures.FigureRecipe("fig3", s_values=(3,), p_values={3: (1, 6)})
    tabs, svgs = figures.build_fig3(rec)
    tab = tabs["fig3"]
    rows_p1 = [r for r in tab.rows if r[1] == 1 and r[4] == "super"]
    rho1 = [r[6] for r in rows_p1]
    assert all(v > 0 for v in rho1)  # small p: positive density branch
    # large p: the density starts positive at the edge and crosses zero
    rows_p6 = [r for r in tab.rows if r[1] == 6 and r[4] == "super"]
    rho6 = np.array([r[6] for r in rows_p6])
    assert rho6[0] > 0
    signs = np.sign(rho6)
    crossings = np.nonzero(np.diff(signs))[0]
    assert crossings.size >= 1
    u_cross = rows_p6[crossings[0]][2]
    # location recorded (not asserted): keep it visible in the test log
    print(f"rho sign change for (s,p)=(3,6) near u/zeta_c^2 = {u_cross:.3f}")
    # subcritical branch must carry sigma values and the edge constant
    rows_sub = [r for r in tab.rows if r[1] == 1 and r[4] == "sub"]
    assert all(r[5] is not None and r[5] > 0 for r in rows_sub)
    assert all(abs(r[7] - rows_sub[0][7]) < 1e-15 for r in rows_sub)


def test_fig2_reduced_build():
    rec = figures.FigureRecipe(
        "fig2", s_values=(3,), n=16, ratio_grid=(0.99, 0.999),
        snapshot_ratio=0.999,
    )
    tabs, _ = figures.build_fig2(rec)
    top, bottom = tabs["fig2_top"], tabs["fig2_bottom"]
    assert top.columns[5] == "inv_L"
    assert len(top.rows) == 2
    # bottom: sectors q = 1..3, five soft branches each
    assert len(bottom.rows) == 3 * 5
    assert {r[1] for r in bottom.rows} == {1, 2, 3}


def test_fig4_reduced_build():
    rec = figures.FigureRecipe("fig4", s_values=(3,), n=24, snapshot_ratio=0.999)
    tabs, svgs = figures.build_fig4(rec)
    tab = tabs["fig4"]
    assert len(tab.rows) == 4 * 24  # phi_2..phi_5 on j = 0..23
    assert "fig4_s3" in svgs
    # p_j column is the lattice q + j s
    row = tab.rows[5]
    assert row[7] == 1 + 3 * row[6]
