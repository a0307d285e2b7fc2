from fractions import Fraction

import pytest

from designcodes.decoders import ell_one_step, ell_one_step_3design
from designcodes.designs import derive_params_comb
from designcodes.tables import (
    RowReport,
    TableRowSpec,
    capability,
    comb_design_params,
    format_one_decimal,
    lambda_min,
    table_row,
)

from .oracles import lambda_min_scan
from .reference_tables import ALL_TABLES


def all_reference_rows():
    for mode, q, rows in ALL_TABLES:
        for row in rows:
            yield mode, q, row


@pytest.mark.parametrize("mode,q,row", list(all_reference_rows()))
def test_reproduces_published_row(mode, q, row):
    t, v, k, lam, lam_min, lam_max, n, dim, ell, r, speedup = row
    rep = table_row(TableRowSpec(t=t, v=v, k=k, lam=lam, q=q, mode=mode))
    assert rep.n == n
    assert rep.dim == dim
    assert rep.ell == ell
    assert rep.r == r
    assert rep.lambda_min == lam_min
    assert rep.lambda_max == lam_max
    assert rep.speedup_str() == speedup


def test_row_count():
    assert sum(len(rows) for _, _, rows in ALL_TABLES) == 126


@pytest.mark.parametrize("mode,q,row", list(all_reference_rows()))
def test_lambda_cancellation(mode, q, row):
    # capability at lambda_known equals capability at lambda_max
    t, v, k, lam, _, lam_max, *_ = row
    known = capability(comb_design_params(TableRowSpec(t, v, k, lam, q, mode)))
    maxed = capability(comb_design_params(TableRowSpec(t, v, k, lam_max, q, mode)))
    assert known == maxed


def test_inadmissible_lambda_is_named():
    spec = TableRowSpec(t=2, v=8, k=3, lam=1, q=2, mode="projective")
    with pytest.raises(ValueError, match=r"lambda_0 = 10795/7"):
        table_row(spec)


def test_lambda_exceeding_max_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        table_row(TableRowSpec(t=2, v=3, k=2, lam=2, q=2, mode="projective"))


def test_flats_requires_q2():
    with pytest.raises(ValueError, match="q = 2"):
        table_row(TableRowSpec(t=2, v=7, k=3, lam=21, q=4, mode="flats"))


def test_affine_dim_requires_q2():
    with pytest.raises(ValueError, match="q = 2"):
        table_row(TableRowSpec(t=2, v=7, k=3, lam=21, q=4, mode="affine"))


def test_format_one_decimal():
    assert format_one_decimal(Fraction(31, 3)) == "10.3"
    assert format_one_decimal(Fraction(31, 11)) == "2.8"
    assert format_one_decimal(Fraction(93)) == "93.0"
    assert format_one_decimal(Fraction(341, 21)) == "16.2"
    assert format_one_decimal(Fraction(25, 10)) == "2.5"
    assert format_one_decimal(Fraction(245, 100)) == "2.5"  # half-up at 2.45 -> 2.5
    assert format_one_decimal(Fraction(244, 100)) == "2.4"


def test_lambda_min_examples():
    assert lambda_min(2, 7, 3, 2) == 1
    assert lambda_min(2, 8, 3, 2) == 21
    assert lambda_min(2, 9, 5, 2) == 31
    assert lambda_min(2, 7, 4, 4) == 17
    assert lambda_min(3, 8, 4, 2) == 1


def test_lambda_min_matches_scan():
    # every t <= k <= v with 2 <= v <= 11 at q = 2 and 2 <= v <= 6 at odd
    # and even q up to 9: 840 parameter sets
    sets = [
        (t, v, k, q)
        for q, v_max in [(2, 11), (3, 6), (4, 6), (5, 6), (7, 6), (8, 6), (9, 6)]
        for v in range(2, v_max + 1)
        for k in range(v + 1)
        for t in range(k + 1)
    ]
    assert len(sets) == 840
    for params in sets:
        assert lambda_min(*params) == lambda_min_scan(*params), params


def test_capability_dispatch():
    p2 = derive_params_comb(2, 7, 3, 1)
    assert capability(p2) == ell_one_step(3, 1) == 1
    p3 = derive_params_comb(3, 16, 4, 1)
    assert capability(p3) == ell_one_step_3design(35, 7, 1) == 3


@pytest.mark.parametrize("t, n, k, lam", [(1, 7, 3, 3), (4, 8, 5, 1), (0, 7, 3, 7)])
def test_capability_needs_t2_or_t3(t, n, k, lam):
    with pytest.raises(ValueError, match=rf"no capability formula for t = {t}"):
        capability(derive_params_comb(t, n, k, lam))


@pytest.mark.parametrize("mode", ["projective", "affine", "flats"])
def test_construction_validity_has_one_message(mode):
    # `designs.construction_params` judges a row's t and mode
    spec = TableRowSpec(t=1, v=7, k=3, lam=7, q=2, mode=mode)
    with pytest.raises(ValueError) as err:
        table_row(spec)
    assert str(err.value) == "construction needs a design with t >= 2"


def test_tsv_matches_published_shape():
    rep = table_row(TableRowSpec(2, 13, 3, 1, 2, "projective"))
    assert rep.tsv() == "2-(13,3,1)_2\t1\t2047\t[8191, 91, 682]\t1365\t2047.0"


def test_kv_lines():
    rep = table_row(TableRowSpec(2, 3, 2, 1, 2, "projective"))
    lines = rep.kv_lines()
    assert "n=7" in lines and "dim=3" in lines and "ell=1" in lines and "speedup=" in lines


def test_trivial_rows_have_no_speedup():
    rep = table_row(TableRowSpec(2, 5, 3, 7, 2, "projective"))
    assert rep.speedup is None and rep.speedup_str() == ""


def test_speedup_is_exact_ratio():
    rep = table_row(TableRowSpec(2, 8, 4, 7, 2, "projective"))
    assert rep.speedup == Fraction(651, 7) == 93
