import itertools
import random
from functools import reduce
from operator import mul, xor

import pytest
from hypothesis import example, given, settings, strategies as st

from designcodes.codes import (
    BinaryCode,
    bch_bound,
    binary_rank_formula,
    build_code,
    distance_bounds,
    hamada_rank,
    hamada_rank_terms,
    incidence_matrix,
    min_distance_bruteforce,
    rank_report,
    RankReport,
)
from designcodes.designs import (
    CombinatorialDesign,
    affine_version,
    flats_construction,
    projective_version,
    trivial_design,
)
from designcodes.field import FieldCtx, PrimeMatrix, matrix_rank, rref_gf2

from .oracles import (
    is_codeword_rows,
    naive_min_distance,
    random_codeword_loop,
    reduce_rows,
    rref_masks,
    rref_tuples,
)


def proj_code(v, k, ctx, p=2):
    return build_code(projective_version(trivial_design(2, v, k, ctx)), p, "projective")


def test_incidence_matrix_fano(gf2):
    d = projective_version(trivial_design(2, 3, 2, gf2))
    m = incidence_matrix(d)
    assert (m.nrows, m.ncols) == (7, 7)
    assert all(row.bit_count() == 3 for row in m.rows)


def test_incidence_single_full_block():
    d = CombinatorialDesign(n=5, t=0, k=5, lam=1, masks=(0b11111,))
    m = incidence_matrix(d)
    assert m.rows == (0b11111,)


def test_incidence_35x15(gf2):
    d = projective_version(trivial_design(2, 4, 2, gf2))
    m = incidence_matrix(d)
    assert (m.nrows, m.ncols) == (35, 15)
    assert all(row.bit_count() == 3 for row in m.rows)


def test_build_code_fano(gf2):
    code = proj_code(3, 2, gf2)
    assert (code.n, code.rank, code.dim) == (7, 4, 3)


def test_build_code_63_41(gf2):
    code = proj_code(6, 4, gf2)
    assert (code.n, code.dim) == (63, 41)


def test_build_code_empty_design():
    d = CombinatorialDesign(n=6, t=0, k=2, lam=1, masks=())
    # lambda of an empty design is vacuous; params only used for provenance
    code = build_code(d)
    assert code.rank == 0 and code.dim == 6


def test_check_row_weights_equal_block_size(gf2):
    d = projective_version(trivial_design(2, 5, 3, gf2))
    code = build_code(d)
    assert all(row.bit_count() == d.k for row in code.checks.rows)


def test_hamada_rank_values():
    assert hamada_rank(3, 2, 2, 1) == 4
    assert hamada_rank(7, 3, 2, 2) == 4397
    assert hamada_rank(7, 4, 2, 2) == 2276


def test_hamada_rejects_non_prime_characteristic_and_degree_below_one():
    for p, m in [(4, 1), (1, 1), (6, 2), (2, 0), (3, -1)]:
        with pytest.raises(ValueError):
            hamada_rank_terms(3, 2, p, m)
        with pytest.raises(ValueError):
            hamada_rank(3, 2, p, m)


def test_hamada_terms_sum_to_rank():
    terms = hamada_rank_terms(7, 3, 2, 2)
    assert sum(val for _, val in terms) == 4397
    assert all(len(s) == 2 for s, _ in terms)


def test_hamada_matches_matrix_rank_q4():
    ctx = FieldCtx.of(4)
    code = build_code(projective_version(trivial_design(2, 3, 2, ctx)), 2, "projective")
    assert code.rank == hamada_rank(3, 2, 2, 2) == 10


def test_binary_rank_formula_values():
    assert binary_rank_formula(3, 2) == 4
    for v in range(1, 10):
        assert binary_rank_formula(v, v) == 1
    assert binary_rank_formula(8, 4) == 163
    assert 255 - binary_rank_formula(8, 4) == 92


@pytest.mark.parametrize(
    "v,k", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4), (6, 5)]
)
def test_rank_triple_agreement_small(v, k, gf2):
    code = proj_code(v, k, gf2)
    assert code.rank == binary_rank_formula(v, k) == hamada_rank(v, k, 2, 1)


@pytest.mark.slow
@pytest.mark.parametrize("v", [7, 8])
def test_rank_triple_agreement_large(v, gf2):
    # b <= 250000 rows throughout this range
    for k in range(2, v + 1):
        code = proj_code(v, k, gf2)
        assert code.rank == binary_rank_formula(v, k) == hamada_rank(v, k, 2, 1)


def test_affine_and_flats_rank_formulas(gf2):
    for v, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        aff = build_code(affine_version(trivial_design(2, v, k, gf2)), 2, "affine")
        assert aff.rank == binary_rank_formula(v - 1, k - 1)
        fl = build_code(flats_construction(trivial_design(2, v, k, gf2)), 2, "flats")
        assert fl.rank == binary_rank_formula(v, k)


def test_bch_bound_values():
    assert bch_bound(5, 3, 2) == 8
    for v, q in [(3, 2), (5, 3), (4, 4)]:
        assert bch_bound(v, v, q) == 2
    assert bch_bound(7, 3, 4) == 342


def test_distance_bounds_examples():
    b = distance_bounds(5, 3, 2, "projective")
    assert b.lower == 7 and b.known_exact == 8
    b2 = distance_bounds(4, 3, 2, "affine")
    assert b2.lower == 4 and b2.known_exact == 4
    for v, k, q in [(5, 4, 3), (7, 6, 5)]:
        assert distance_bounds(v, k, q, "projective").known_exact is None
    assert distance_bounds(5, 3, 3, "projective").known_exact is None
    assert distance_bounds(4, 2, 4, "projective").known_exact == 6 * 4
    with pytest.raises(ValueError):
        distance_bounds(4, 2, 2, "spherical")


def test_pg_2_3_line_code_over_gf3_has_distance_six():
    # all 3^6 codewords of the GF(3) code of PG(2,3)'s lines: d = 2p = 6,
    # above the BCH bound q + 2 = 5, so no exact distance is claimed
    ctx = FieldCtx.of(3)
    code = proj_code(3, 2, ctx, p=3)
    checks = list(code.checks.iter_entry_rows())
    rows = rref_tuples(checks, code.n, ctx)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    basis = []
    for f in range(code.n):
        if f not in pivots:
            vec = [0] * code.n
            vec[f] = 1
            for r, pc in zip(rows, pivots):
                vec[pc] = -r[f] % 3
            basis.append(vec)
    assert len(basis) == code.dim == 6
    weights = set()
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        word = [sum(c * b[j] for c, b in zip(coeffs, basis)) % 3 for j in range(code.n)]
        assert all(sum(map(mul, row, word)) % 3 == 0 for row in checks)
        weights.add(sum(map(bool, word)))
    assert min(weights - {0}) == 6
    assert distance_bounds(3, 2, 3, "projective").known_exact in (None, 6)


def test_min_distance_values(gf2):
    fano = proj_code(3, 2, gf2)
    assert min_distance_bruteforce(fano) == 4
    assert naive_min_distance(fano.check_masks(), 7) == 4

    c15 = proj_code(4, 2, gf2)
    assert min_distance_bruteforce(c15) == 8
    assert naive_min_distance(c15.check_masks(), 15) == 8


def test_min_distance_meets_bounds_small_geometries(gf2):
    # affine and flats codes stay above the geometric lower bound; projective
    # q=2 distances hit 2^(v-k+1) exactly (within the enumeration cap)
    for v in range(3, 6):
        for k in range(2, v + 1):
            d = trivial_design(2, v, k, gf2)
            aff = build_code(affine_version(d), 2, "affine")
            if aff.dim <= 24:
                dist = min_distance_bruteforce(aff)
                assert dist >= distance_bounds(v, k, 2, "affine").lower
                assert dist == 2 ** (v - k + 1)
            fl = build_code(flats_construction(d), 2, "flats")
            if fl.dim <= 24:
                # the flats code is the affine geometry code one dimension up
                assert min_distance_bruteforce(fl) >= distance_bounds(v + 1, k + 1, 2, "affine").lower
            if k < v:
                proj = build_code(projective_version(d), 2, "projective")
                if proj.dim <= 24:
                    assert min_distance_bruteforce(proj) == 2 ** (v - k + 1)


def test_min_distance_zero_code():
    d = CombinatorialDesign(n=3, t=1, k=1, lam=1, masks=(0b001, 0b010, 0b100))
    code = build_code(d)
    assert code.dim == 0
    assert min_distance_bruteforce(code) == 4  # n + 1 sentinel


def test_min_distance_cap(gf2):
    code = proj_code(5, 4, gf2)  # dim 25
    with pytest.raises(ValueError, match="refused"):
        min_distance_bruteforce(code, cap=24)


def test_dim_plus_rank_is_n(gf2, gf4):
    for ctx, v, k in [(gf2, 5, 3), (gf2, 6, 2), (gf4, 3, 2)]:
        code = proj_code(v, k, ctx)
        assert code.dim + code.rank == code.n


def test_rank_invariant_under_block_reordering(gf2):
    d = projective_version(trivial_design(2, 4, 2, gf2))
    rev = PrimeMatrix(p=2, ncols=d.n, rows=tuple(reversed(d.masks)))
    assert build_code(d).rank == BinaryCode(n=d.n, p=2, checks=rev).rank


def test_nullspace_basis_spans_codewords(gf2):
    code = proj_code(4, 2, gf2)
    basis = code.nullspace_basis()
    assert len(basis) == code.dim
    for vec in basis:
        assert code.is_codeword(vec)


def test_nullspace_basis_edits_leave_the_code_unchanged(gf2):
    # PG(2, 2)'s code: a caller's edit of the returned list is its own
    code = proj_code(3, 2, gf2)
    basis = code.nullspace_basis()
    want = list(basis)
    basis.append(3)
    basis[0] ^= 1
    assert code.nullspace_basis() == want and code.nullspace_basis() is not basis
    assert len(want) == code.dim == 3
    rng = random.Random(5)
    for _ in range(20):
        assert code.is_codeword(code.random_codeword(rng))
    assert min_distance_bruteforce(code) == 4


def test_random_codeword_is_codeword(gf2):
    code = proj_code(5, 3, gf2)
    rng = random.Random(7)
    for _ in range(20):
        assert code.is_codeword(code.random_codeword(rng))


def test_rank_report_agreement():
    rep = RankReport(matrix_rank=4, hamada_rank=4, binary_simplified=4)
    assert rep.all_agree
    assert not RankReport(matrix_rank=4, hamada_rank=5).all_agree


def test_rank_report_of_designs(gf2):
    rep = rank_report(trivial_design(2, 5, 3, gf2))
    assert rep == RankReport(matrix_rank=16, hamada_rank=16, binary_simplified=16)
    rep4 = rank_report(trivial_design(2, 3, 2, FieldCtx.of(4)))
    assert rep4 == RankReport(matrix_rank=10, hamada_rank=10) and rep4.all_agree


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.lists(st.integers(min_value=0), max_size=40),
    st.randoms(use_true_random=False),
)
def test_reduction_matches_reference_in_any_row_order(ncols, raw, rng):
    masks = [m % (1 << ncols) for m in raw]
    shuffled = masks[:]
    rng.shuffle(shuffled)
    expected = rref_masks(masks, ncols)
    assert rref_gf2(masks) == expected
    assert rref_gf2(shuffled) == expected

    code = BinaryCode(n=ncols, p=2, checks=PrimeMatrix(2, ncols, tuple(shuffled)))
    assert code.rank == len(expected[0])
    words = [rng.getrandbits(ncols) for _ in range(10)]
    words += [code.random_codeword(rng) ^ (1 << rng.randrange(ncols)) for _ in range(5)]
    words += [code.random_codeword(rng) for _ in range(5)]
    for w in words:
        assert code.is_codeword(w) == all((w & row).bit_count() % 2 == 0 for row in shuffled)


@st.composite
def gf2_matrices(draw):
    """(n, rows): n from 0 to 140 columns; tall, wide or empty, with zero
    and repeated rows, and rows spanned by a few others for a low rank."""
    n = draw(st.integers(min_value=0, max_value=140))
    entry = st.integers(min_value=0, max_value=(1 << n) - 1)
    base = draw(st.lists(entry, max_size=6))
    spanned = st.sets(st.sampled_from(base)).map(lambda picked: reduce(xor, picked, 0))
    row = st.one_of(st.just(0), entry, spanned) if base else st.one_of(st.just(0), entry)
    height = draw(st.sampled_from([0, 8, 200]))
    return n, draw(st.lists(row, max_size=height))


@settings(max_examples=150, deadline=None)
@given(gf2_matrices())
@example((0, []))
@example((0, [0, 0]))
@example((5, []))
@example((7, [0, 0, 0]))
@example((3, [5, 5, 5, 6, 3, 0]))
@example((140, [(1 << 140) - 1]))
def test_column_reduction_matches_row_reduction(case):
    # the code reduces its columns; the row reduction it replaced
    # (tests/oracles.py) and the quadratic reference agree on every output
    n, rows = case
    code = BinaryCode(n=n, p=2, checks=PrimeMatrix(2, n, tuple(rows)))
    want_rows, want_pivots, want_basis = reduce_rows(rows, n)
    assert (want_rows, want_pivots) == rref_masks(rows, n)
    assert code.columns == tuple(
        sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(n)
    )
    assert code.nullspace_basis() == want_basis
    assert code.rank == len(want_rows) and code.dim == len(want_basis)


@settings(max_examples=100, deadline=None)
@given(gf2_matrices(), st.randoms(use_true_random=False), st.lists(st.integers(), max_size=6))
@example((0, []), random.Random(0), [-1, 1, 1 << 80])
@example((3, [1, 2, 4]), random.Random(0), [-8, 8, -1])
@example((5, [0b00011, 0b00110]), random.Random(1), [-(1 << 40) | 0b111, (1 << 70) | 0b11])
def test_random_codeword_and_codeword_test_match_the_bit_loops(case, rng, extra):
    # random codewords and the codeword test read `field._xor_select`; the
    # loops they replaced (tests/oracles.py) give the same codewords, leave
    # the generator in the same state, and answer alike on any int: wider
    # than n, or negative
    n, rows = case
    code = BinaryCode(n=n, p=2, checks=PrimeMatrix(2, n, tuple(rows)))
    seed = rng.getrandbits(32)
    mine, former = random.Random(seed), random.Random(seed)
    words = [code.random_codeword(mine) for _ in range(4)]
    assert words == [random_codeword_loop(code, former) for _ in range(4)]
    assert mine.getstate() == former.getstate()
    high = rng.getrandbits(90) << n
    words += [w ^ (1 << rng.randrange(n)) for w in words if n]
    words += [w | high for w in words] + [~w for w in words] + [w - high for w in words]
    for w in words + extra:
        assert code.is_codeword(w) == is_codeword_rows(code, w)


def test_random_codeword_of_dimension_zero_draws_nothing():
    code = BinaryCode(n=3, p=2, checks=PrimeMatrix(2, 3, (0b011, 0b110, 0b001)))
    rng = random.Random(5)
    state = rng.getstate()
    assert code.dim == 0 and code.random_codeword(rng) == 0
    assert rng.getstate() == state
