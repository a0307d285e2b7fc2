import itertools
import random
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from designcodes import designs, field, pspace
from designcodes.codes import BinaryCode, build_code, min_distance_bruteforce
from designcodes.decoders import (
    DECODED,
    DETECTED,
    OneStepDecoder,
    TwoStepDecoder,
    _error_mask,
    as_mask,
    count_table,
    ell_bounds,
    ell_one_step,
    ell_one_step_3design,
    majority_tree,
    measure_decoding_radius,
    popcount_loop,
    simulate,
    slot_lanes,
    two_step_capability,
)
from designcodes.designs import (
    CombinatorialDesign,
    flats_construction,
    load_subspace_design,
    projective_version,
    trivial_design,
    verify_comb_design,
)
from designcodes.field import FieldCtx, _columns

from .oracles import (
    lane_majority_count,
    one_step_scan,
    one_step_tables,
    pack_blocks,
    two_step_mask_scan,
    two_step_scan,
    two_step_tables,
)

SHIPPED_DESIGN = Path(__file__).resolve().parents[1] / "perfbench" / "designs" / "2-7-3-3_2.qdesign"


@pytest.fixture(scope="module")
def gf2m():
    return FieldCtx.of(2)


@pytest.fixture(scope="module")
def fano_pair(gf2m):
    d = projective_version(trivial_design(2, 3, 2, gf2m))
    return build_code(d, 2, "projective"), d


@pytest.fixture(scope="module")
def simplex15_pair(gf2m):
    d = projective_version(trivial_design(2, 4, 2, gf2m))
    return build_code(d, 2, "projective"), d


@pytest.fixture(scope="module")
def twostep31(gf2m):
    code = build_code(projective_version(trivial_design(2, 5, 3, gf2m)), 2, "projective")
    return TwoStepDecoder(code, trivial_design(2, 5, 2, gf2m))


def test_ell_one_step_values():
    assert ell_one_step(31, 3) == 5
    assert ell_one_step(1, 1) == 0
    assert ell_one_step(5733, 21) == 136
    assert ell_one_step(3, 1) == 1
    with pytest.raises(ValueError):
        ell_one_step(2, 3)


def test_ell_one_step_3design_values():
    assert ell_one_step_3design(7, 3, 1) == 1
    assert ell_one_step_3design(35, 7, 1) == 3
    assert ell_one_step_3design(155, 35, 7) == 3
    assert ell_one_step_3design(43435, 5355, 651) == 4
    assert ell_one_step_3design(32385, 3937, 465) == 5


def test_ell_bounds_examples():
    assert ell_bounds(6, 3, 2, 3) == (4, 4)
    assert ell_bounds(3, 2, 2, 1) == (1, 1)


def test_ell_bounds_documented_off_by_one():
    # the printed bracketing expressions evaluate to 4 while the exact
    # capability is 5; kept as an expected discrepancy, not reconciled
    lower, upper = ell_bounds(6, 3, 2, 3)
    exact = ell_one_step(31, 3)
    assert (lower, upper) == (4, 4)
    assert exact == 5
    assert not lower <= exact <= upper


@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=1, max_value=200),
)
def test_ell_bounds_gap_at_most_one(v, k, q, lam):
    if k >= v:
        return
    lower, upper = ell_bounds(v, k, q, lam)
    assert upper - lower in (0, 1)


def test_two_step_capability_values():
    rep = two_step_capability(5, 3, 2, 1)
    assert rep.J == 7
    assert rep.r == 15
    assert rep.ell_one_step == 7
    assert rep.ell_two_step == 3
    # equals (d_BCH - 1) / 2 with d_BCH = 8
    assert rep.ell_two_step == (8 - 1) // 2


def test_two_step_capability_k_v_minus_1():
    from designcodes.pspace import gaussian_coefficient

    for q in (2, 4):
        lam = gaussian_coefficient(3, 1, q)  # makes r integral
        rep = two_step_capability(6, 5, q, lam)
        assert rep.J == q + 1


def test_two_step_capability_rejects_small_k():
    with pytest.raises(ValueError, match="k >= 3"):
        two_step_capability(5, 2, 2, 1)


def test_capability_proof_inequality():
    # the polynomial inequality behind the two-step capability theorem
    for q in (2, 3, 4, 5, 8):
        for v in range(4, 13):
            for k in range(3, v):
                assert 2 * q ** (v - 1) + q <= q**v + q ** (v - k + 1) + q ** (k - 2)


def test_capability_theorem_direction_as_printed_fails():
    # the claimed ordering floor((r+l-1)/2l) <= floor(J/2) does not hold;
    # the proof's inequality (above) supports the opposite relation
    rep = two_step_capability(5, 3, 2, 1)
    assert not rep.ell_one_step <= rep.J // 2


def test_one_step_fano_all_zero(fano_pair):
    code, d = fano_pair
    dec = OneStepDecoder(code, d)
    out = dec.decode("0000000")
    assert out.status == DECODED and out.word == 0 and out.flips == ()


def test_one_step_fano_single_errors(fano_pair):
    code, d = fano_pair
    dec = OneStepDecoder(code, d)
    for j in range(7):
        out = dec.decode(1 << j)
        assert out.status == DECODED and out.word == 0
        assert out.flips == (j,)


def test_one_step_15_4_full_sweep(simplex15_pair):
    code, d = simplex15_pair
    dec = OneStepDecoder(code, d)
    codewords = [0]
    for b in code.nullspace_basis():
        codewords += [c ^ b for c in codewords]
    assert len(codewords) == 16
    for c in codewords:
        for w in (1, 2, 3):
            for pat in itertools.combinations(range(15), w):
                mask = c
                for j in pat:
                    mask ^= 1 << j
                out = dec.decode(mask)
                assert out.status == DECODED and out.word == c


def test_one_step_decoded_satisfies_checks(simplex15_pair):
    code, d = simplex15_pair
    dec = OneStepDecoder(code, d)
    rng = random.Random(5)
    for _ in range(50):
        out = dec.decode(rng.getrandbits(15))
        if out.status == DECODED:
            assert code.is_codeword(out.word)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_step_translation_invariance(rng):
    ctx = FieldCtx.of(2)
    d = projective_version(trivial_design(2, 4, 2, ctx))
    code = build_code(d, 2, "projective")
    dec = OneStepDecoder(code, d)
    c = code.random_codeword(rng)
    e = rng.getrandbits(15)
    out_c = dec.decode(c ^ e)
    out_0 = dec.decode(e)
    assert out_c.status == out_0.status
    if out_c.status == DECODED:
        assert out_c.word == out_0.word ^ c


def test_one_step_input_validation(fano_pair):
    code, d = fano_pair
    dec = OneStepDecoder(code, d)
    with pytest.raises(ValueError, match="length"):
        dec.decode("01")
    with pytest.raises(ValueError, match="non-binary"):
        dec.decode("00200a0"[:7])


def test_one_step_rejects_mismatched_design(fano_pair, gf2m):
    code, _ = fano_pair
    other = projective_version(trivial_design(2, 4, 2, gf2m))
    with pytest.raises(ValueError):
        OneStepDecoder(code, other)


def test_one_step_rejects_a_design_below_t2(fano_pair):
    code, d = fano_pair
    one = CombinatorialDesign(n=7, t=1, k=3, lam=3, masks=d.masks)
    with pytest.raises(ValueError, match=r"one-step decoding needs a design with t >= 2"):
        OneStepDecoder(code, one)


def test_one_step_rejects_checks_that_are_not_the_blocks(fano_pair):
    # the same length and parameters, other blocks: {0, 1, 2} + i mod 7
    code, _ = fano_pair
    cyclic = pack_blocks([(i, (i + 1) % 7, (i + 2) % 7) for i in range(7)])
    other = CombinatorialDesign(n=7, t=2, k=3, lam=1, masks=cyclic)
    with pytest.raises(ValueError, match=r"code checks are not the design's incidence rows"):
        OneStepDecoder(code, other)


def test_vote_stage_refuses_a_code_over_another_field(fano_pair):
    _, d = fano_pair
    with pytest.raises(ValueError, match=r"decoding is implemented for binary codes only"):
        OneStepDecoder(build_code(d, 3, "projective"), d)


def test_one_step_votes_with_each_columns_own_r(fano_pair):
    # the Fano blocks under a lambda = 2 header: the header's r = 6 and
    # lambda_2 = 2 give the threshold U_j > 3, which no single error meets
    # through 3 checks; the threshold of each column's own r_j = 3 is
    # U_j > 2, so every single error is corrected
    code, fano = fano_pair
    dec = OneStepDecoder(code, CombinatorialDesign(n=7, t=2, k=3, lam=2, masks=fano.masks))
    assert (dec.r, dec.lambda2) == (6, 2)
    for j in range(7):
        out = dec.decode(1 << j)
        assert (out.status, out.word, out.flips) == (DECODED, 0, (j,))


def test_two_step_zero_and_codewords(twostep31):
    dec = twostep31
    out = dec.decode(0)
    assert out.status == DECODED and out.word == 0
    rng = random.Random(11)
    for _ in range(10):
        c = dec.code.random_codeword(rng)
        out = dec.decode(c)
        assert out.status == DECODED and out.word == c and out.flips == ()


def test_two_step_weight3_sample(twostep31):
    dec = twostep31
    rng = random.Random(3)
    for _ in range(200):
        pat = rng.sample(range(31), 3)
        mask = sum(1 << j for j in pat)
        out = dec.decode(mask)
        assert out.status == DECODED and out.word == 0


def test_two_step_weight4_never_silently_wrong(twostep31):
    dec = twostep31
    rng = random.Random(9)
    wrong = 0
    for _ in range(300):
        mask = sum(1 << j for j in rng.sample(range(31), 4))
        out = dec.decode(mask)
        if out.status == DECODED:
            assert dec.code.is_codeword(out.word)
            if out.word != 0:
                wrong += 1
        else:
            wrong += 1
    assert wrong > 0  # weight 4 is beyond the certified radius somewhere


@pytest.mark.slow
def test_two_step_q4_geometry():
    # the superspace machinery is not q=2-specific: [85, 68] code over the
    # quaternary geometry, J = 5, certified weight-2 correction
    ctx = FieldCtx.of(4)
    code = build_code(projective_version(trivial_design(2, 4, 3, ctx)), 2, "projective")
    dec = TwoStepDecoder(code, trivial_design(2, 4, 2, ctx))
    cap = two_step_capability(4, 3, 4, 1)
    assert (cap.J, cap.ell_two_step) == (5, 2)
    for w in (1, 2):
        for pat in itertools.combinations(range(code.n), w):
            out = dec.decode(sum(1 << j for j in pat))
            assert out.status == DECODED and out.word == 0


@pytest.fixture(scope="module")
def shipped_two_step(gf2m):
    # the 4-subspace code of PG(6,2) decoded through the shipped 2-(7,3,3)_2
    # design (1143 blocks instead of the 11811 planes of the geometry)
    step2 = load_subspace_design(SHIPPED_DESIGN)
    code = build_code(projective_version(trivial_design(2, 7, 4, gf2m)), 2, "projective")
    return TwoStepDecoder(code, step2), step2


def test_two_step_through_nontrivial_subspace_design(shipped_two_step):
    dec, _ = shipped_two_step
    code = dec.code
    cap = two_step_capability(7, 4, 2, 3)
    assert (dec.J, cap.J, cap.r, cap.ell_two_step) == (15, 15, 63, 7)
    # 63 step-2 blocks pass through every position
    assert {col.bit_count() for col in dec._columns} == {63}
    rng = random.Random(11)
    for _ in range(20):
        sent = code.random_codeword(rng)
        err = sum(1 << j for j in rng.sample(range(code.n), 7))
        out = dec.decode(sent ^ err)
        assert out.status == DECODED and out.word == sent


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=140).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=1, max_value=4).flatmap(
                lambda lanes: st.lists(
                    st.lists(st.integers(0, (1 << n) - 1), min_size=lanes, max_size=lanes),
                    max_size=300,
                )
            ),
        )
    )
)
def test_column_tables_transpose_the_rows(case):
    n, groups = case
    rows = [group[c] for c in range(len(groups[0]) if groups else 0) for group in groups]
    assert _columns(iter(rows), n) == _columns_bit_loop(rows, n)


def _columns_bit_loop(rows, n):
    """Column p of the rows, bit i read from row i one bit at a time."""
    return tuple(
        int("".join(["01"[row >> p & 1] for row in reversed(rows)]) or "0", 2)
        for p in range(n)
    )


# `_columns` transposes whole groups of 8 rows of k = ceil(n / 8) bytes,
# 32 KB // 8 k of them per pass: 262144 / n rows for n = 8, 16, ..., 256.
# The workload shapes take several passes; the others end a pass one row
# early, on the boundary and one row late, at those n and at n = 85, whose
# 11-byte rows fill a pass with 372 groups, 2976 rows.
@pytest.mark.parametrize(
    "nrows, n",
    [(2142, 85), (11811, 127), (18288, 127)]
    + [(262144 // w + d, w) for w in (8, 16, 32, 64, 128, 256) for d in (-1, 0, 1)]
    + [(2976 + d, 85) for d in (-1, 0, 1)],
)
def test_columns_across_passes(nrows, n):
    rng = random.Random(nrows * 1000 + n)
    rows = [rng.getrandbits(n) for _ in range(nrows)]
    assert _columns(iter(rows), n) == _columns_bit_loop(rows, n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=140).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12),
            st.lists(st.integers(0, 11), max_size=400),
        )
    )
)
def test_columns_of_rows_in_an_order(case):
    # each given row packed once and gathered by `order`, repeats and all:
    # the transpose of the gathered rows
    n, rows, order = case
    order = [i % len(rows) for i in order]
    gathered = [rows[i] for i in order]
    assert _columns(rows, n, iter(order)) == _columns_bit_loop(gathered, n)


# Differential tests: the column-syndrome kernels against the scalar scans
# they replaced (tests/oracles.py), on words of every weight near a random
# codeword or zero.  Each case is chosen to reach a tie rule:
#   PG(2,3) lines: one-step r + lambda - 1 = 4 is even (tie at U_j = 2)
#   (q, v, k) = (3, 4, 3): two-step J = 4 is even (step-1 ties)
#   (q, v, k) = (3, 5, 3): two-step r = 40 is even (step-2 ties)
# and the shipped 2-(7,3,3)_2 decoders, the benchmark's sizes.


@pytest.fixture(scope="module", params=[(3, 4), (2, 65)], ids=["PG(2,3) lines", "2-(7,3,3)_2"])
def one_step_case(request):
    q, threshold = request.param
    if q == 3:
        design = projective_version(trivial_design(2, 3, 2, FieldCtx.of(3)))
    else:
        design = projective_version(load_subspace_design(SHIPPED_DESIGN))
    dec = OneStepDecoder(build_code(design, 2, "projective"), design)
    assert dec.r + dec.lambda2 - 1 == threshold
    return dec, one_step_scan(dec, design)


@pytest.fixture(
    scope="module",
    params=[(3, 4, 3, 4, 13), (3, 5, 3, 13, 40), (2, 7, 4, 15, 63)],
    ids=["(3,4,3)", "(3,5,3)", "2-(7,3,3)_2"],
)
def two_step_case(request, shipped_two_step):
    q, v, k, J, r = request.param
    if q == 2:
        dec, step2 = shipped_two_step
    else:
        ctx = FieldCtx.of(q)
        step2 = trivial_design(2, v, k - 1, ctx)
        code = build_code(projective_version(trivial_design(2, v, k, ctx)), 2, "projective")
        dec = TwoStepDecoder(code, step2)
    assert dec.J == J and {col.bit_count() for col in dec._columns} == {r}
    return dec, two_step_scan(dec, step2)


def noisy_word(data, code):
    rng = data.draw(st.randoms(use_true_random=False))
    weight = data.draw(st.integers(min_value=0, max_value=code.n))
    sent = code.random_codeword(rng) if data.draw(st.booleans()) else 0
    return sent ^ sum(1 << j for j in rng.sample(range(code.n), weight))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_step_matches_scalar_scan(one_step_case, data):
    dec, scan = one_step_case
    word = noisy_word(data, dec.code)
    assert dec.decode(word) == scan(word)


def assert_both_statuses_near_the_radius(dec, scan, ell):
    """Words at weights ell to ell + 3 from random codewords decode as the
    scan does and reach both outcomes."""
    rng = random.Random(11)
    statuses = set()
    for weight in range(ell, ell + 4):
        for _ in range(40):
            word = dec.code.random_codeword(rng)
            for j in rng.sample(range(dec.n), weight):
                word ^= 1 << j
            out = dec.decode(word)
            assert out == scan(word)
            statuses.add(out.status)
    assert statuses == {DECODED, DETECTED}


def test_one_step_status_matches_scalar_scan_near_the_radius(one_step_case):
    # the one-step decoder reads codeword-ness off its syndrome, the scan
    # tests every check row
    dec, scan = one_step_case
    assert_both_statuses_near_the_radius(dec, scan, (dec.r + dec.lambda2 - 1) // (2 * dec.lambda2))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_two_step_matches_scalar_scan(two_step_case, data):
    dec, scan = two_step_case
    word = noisy_word(data, dec.code)
    assert dec.decode(word) == scan(word)


def test_two_step_status_matches_scalar_scan_near_the_radius(two_step_case):
    # the two-step decoder asks the code whether its output is a codeword,
    # the scan tests every check row; J // 2 is the radius of all three cases
    dec, scan = two_step_case
    assert_both_statuses_near_the_radius(dec, scan, dec.J // 2)


# Two-step decoding reads n and J off the code and the step-2 blocks' masks
# alone, so it runs in every construction mode: the code of the k-subspaces
# and the step-2 design of the (k-1)-subspaces, both made by `mode`.  Each
# case is checked against the scalar scan over masks; (affine, 3, 4, 3) has
# even J = 4 (step-1 ties).


@pytest.fixture(
    scope="module",
    params=[("affine", 2, 5, 3), ("affine", 3, 4, 3), ("affine", 4, 4, 3), ("flats", 2, 5, 3)],
    ids=["affine q=2", "affine q=3", "affine q=4", "flats q=2"],
)
def mode_two_step_case(request):
    mode, q, v, k = request.param
    ctx = FieldCtx.of(q)
    step2 = designs.construct(trivial_design(2, v, k - 1, ctx), mode)
    code = build_code(designs.construct(trivial_design(2, v, k, ctx), mode), 2, mode)
    dec = TwoStepDecoder(code, step2)
    assert dec.J == pspace.gaussian_coefficient(v - k + 1, 1, q)
    return dec, two_step_mask_scan(dec, step2)


def test_two_step_matches_the_mask_scan_in_every_mode(mode_two_step_case):
    dec, scan = mode_two_step_case
    rng = random.Random(5)
    statuses = set()
    for weight in range(dec.J + 2):
        for _ in range(6):
            word = dec.code.random_codeword(rng) ^ _error_mask(rng, dec.n, weight)
            before = dec.check_evals
            out = dec.decode(word)
            assert (out, dec.check_evals - before) == scan(word)
            statuses.add(out.status)
    assert statuses == {DECODED, DETECTED}


@pytest.fixture(scope="module", params=["2-(7,3,3)_2", "PG(3,4) lines"])
def reordered_two_step(request, shipped_two_step):
    if request.param == "2-(7,3,3)_2":
        dec, step2 = shipped_two_step
    else:
        ctx = FieldCtx.of(4)
        step2 = trivial_design(2, 4, 2, ctx)
        code = build_code(projective_version(trivial_design(2, 4, 3, ctx)), 2, "projective")
        dec = TwoStepDecoder(code, step2)
    return dec, TwoStepDecoder(dec.code, designs.construct(step2, "projective"))


def test_two_step_does_not_depend_on_the_block_order(reordered_two_step):
    # the projective version lists the blocks in its own order, so the
    # tables differ lane by lane, but no outcome or count may
    dec, other = reordered_two_step
    assert other.J == dec.J in (15, 5) and other._members != dec._members
    rng = random.Random(3)
    start = (dec.check_evals, other.check_evals)
    for weight in range(2 * dec.J):
        word = dec.code.random_codeword(rng) ^ _error_mask(rng, dec.n, weight)
        assert dec.decode(word) == other.decode(word)
    assert dec.check_evals - start[0] == other.check_evals - start[1] > 0


# The decoders read their tables off the code's check columns; the tables
# they built before, from the design's blocks and the geometry's outside
# classes (tests/oracles.py), must come out identical.  (q, v, k) names the
# code's k-subspaces of PG(v-1, q); the last case has J = 1, the whole plane
# the one superspace of every line.


@pytest.fixture(
    scope="module",
    params=[(2, 5, 3), (3, 4, 3), (3, 5, 3), (4, 4, 3), (2, 3, 3)],
    ids=["(2,5,3)", "(3,4,3)", "(3,5,3)", "(4,4,3)", "(2,3,3) J=1"],
)
def geometric_case(request):
    q, v, k = request.param
    ctx = FieldCtx.of(q)
    return projective_version(trivial_design(2, v, k, ctx)), trivial_design(2, v, k - 1, ctx)


def test_one_step_tables_match_the_block_transpose(geometric_case):
    design, _ = geometric_case
    dec = OneStepDecoder(build_code(design, 2, "projective"), design)
    assert (dec._columns, dec._halves) == one_step_tables(design)


def test_two_step_tables_match_the_outside_classes(geometric_case):
    design, step2 = geometric_case
    dec = TwoStepDecoder(build_code(design, 2, "projective"), step2)
    assert (dec._members, dec._columns, dec._halves) == two_step_tables(step2)


def test_tables_on_the_shipped_design(shipped_two_step):
    dec, step2 = shipped_two_step
    assert (dec._members, dec._columns, dec._halves) == two_step_tables(step2)
    design = projective_version(step2)
    one = OneStepDecoder(build_code(design, 2, "projective"), design)
    assert (one._columns, one._halves) == one_step_tables(design)


def test_two_step_rejects_checks_that_are_not_the_superspaces(gf2m):
    # the shipped design's planes as checks: each line lies in 3 of them,
    # not in all J = 31 of its planes
    code = build_code(projective_version(load_subspace_design(SHIPPED_DESIGN)), 2, "projective")
    with pytest.raises(ValueError, match="not the 31 superspaces"):
        TwoStepDecoder(code, trivial_design(2, 7, 2, gf2m))


def test_two_step_rejects_a_check_that_misses_a_point_of_the_block(gf2m):
    # PG(3,2)'s planes with one plane through block 0 swapped for a 7-point
    # set that holds the block's row points but not its third point: exactly
    # J = 3 checks hold the row points, and one of them misses the block
    step2 = trivial_design(2, 4, 2, gf2m)
    planes = projective_version(trivial_design(2, 4, 3, gf2m))
    line = step2.blocks[0]
    bmask = pspace.points_mask(line)
    third = bmask ^ sum(1 << i for i in pspace.row_points(4, gf2m)(line))
    plane = next(m for m in planes.masks if m & bmask == bmask)
    outside = next(1 << i for i in range(15) if not plane >> i & 1)
    masks = [m for m in planes.masks if m != plane] + [plane ^ third ^ outside]
    code = build_code(CombinatorialDesign(15, 2, 7, 3, masks), 2, "combinatorial")
    with pytest.raises(ValueError, match="the code's checks are not the 3 superspaces of block 0"):
        TwoStepDecoder(code, step2)


def test_two_step_rejects_superspaces_that_share_a_point_off_the_block(gf2m):
    # PG(3,2)'s planes with plane P through block 0 swapped for P ^ y ^ x:
    # y a point of P off the line, x a point of another plane Q through the
    # line, off P.  Exactly J = 3 checks hold every point of block 0, but
    # the classes of the swapped set and of Q share x, so the three checks
    # are not orthogonal off the block
    step2 = trivial_design(2, 4, 2, gf2m)
    planes = projective_version(trivial_design(2, 4, 3, gf2m))
    bmask = pspace.points_mask(step2.blocks[0])
    plane, other = [m for m in planes.masks if m & bmask == bmask][:2]
    y = next(1 << i for i in range(15) if (plane & ~bmask) >> i & 1)
    x = next(1 << i for i in range(15) if (other & ~plane) >> i & 1)
    masks = [m for m in planes.masks if m != plane] + [plane ^ y ^ x]
    code = build_code(CombinatorialDesign(15, 2, 7, 3, masks), 2, "combinatorial")
    with pytest.raises(ValueError, match="the code's checks are not the 3 superspaces of block 0$"):
        TwoStepDecoder(code, step2)


def test_two_step_ignores_a_check_that_holds_no_block(gf2m):
    # PG(3,2)'s planes plus one more check: 7 points of the complement of a
    # plane H, a cap that holds no line, taken to hold two points a, b of
    # block 0 (their third point a ^ b lies in H).  It holds no whole block,
    # so step 1 reads the same classes as from the planes alone
    step2 = trivial_design(2, 4, 2, gf2m)
    planes = projective_version(trivial_design(2, 4, 3, gf2m))
    a, b = pspace.row_points(4, gf2m)(step2.blocks[0])
    hyper = next(m for m in planes.masks if not (m >> a & 1 or m >> b & 1))
    cap = ((1 << 15) - 1) ^ hyper
    extra = cap ^ next(1 << i for i in range(15) if cap >> i & 1 and i not in (a, b))
    masks = list(planes.masks) + [extra]
    code = build_code(CombinatorialDesign(15, 2, 7, 3, masks), 2, "combinatorial")
    plain = TwoStepDecoder(build_code(planes, 2, "projective"), step2)
    assert TwoStepDecoder(code, step2)._members == plain._members


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["random", "zeros", "ones"]),
    st.randoms(use_true_random=False),
)
def test_lane_majority_matches_a_per_block_count(J, width, fill, rng):
    # J = 1, 4, 5, 7, 13 and 15 are the package's; even J has ties, which
    # give 0; the block lane above the J class lanes holds random bits
    bits = {"random": rng.getrandbits(J * width), "zeros": 0, "ones": (1 << J * width) - 1}[fill]
    lanes = bits | rng.getrandbits(width) << J * width
    majority = majority_tree(J, width, (J // 2,) * width)
    assert majority(lanes) == lane_majority_count(lanes, J, width)


@pytest.mark.parametrize("J", [1, 2, 4, 5, 7, 13, 15, 16, 40])
@pytest.mark.parametrize("width", [1, 7, 8, 29, 30, 31, 300])
def test_lane_majority_at_the_threshold(J, width):
    full = (1 << width) - 1
    majority = majority_tree(J, width, (J // 2,) * width)

    def lanes(ones):
        # the first `ones` class lanes set, and every bit of the block lane
        return sum(full << c * width for c in range(ones)) | full << J * width

    assert majority(lanes(0)) == 0
    assert majority(lanes(J // 2)) == 0  # a tie at even J
    assert majority(lanes(J // 2 + 1)) == full
    assert majority(lanes(J)) == full


def test_two_step_dimension_mismatch(gf2m):
    code = build_code(projective_version(trivial_design(2, 5, 3, gf2m)), 2, "projective")
    with pytest.raises(ValueError, match="length"):
        TwoStepDecoder(code, trivial_design(2, 4, 2, gf2m))


@pytest.mark.parametrize(
    "checks, sizes",
    [("lines", "[3]"), ("points", "[1]"), ("lines and planes", "[3, 7]")],
    ids=["lines", "points", "lines and planes"],
)
def test_two_step_rejects_checks_no_larger_than_the_blocks(gf2m, checks, sizes):
    # J = (n - |B|) / (|K| - |B|) needs checks of one size |K| > |B|
    step2 = trivial_design(2, 4, 2, gf2m)
    planes = projective_version(trivial_design(2, 4, 3, gf2m)).masks
    masks = {
        "lines": step2.masks,
        "points": [1 << i for i in range(15)],
        "lines and planes": step2.masks + planes,
    }[checks]
    rows = [[m >> j & 1 for j in range(15)] for m in masks]
    code = BinaryCode(n=15, p=2, checks=field.PrimeMatrix.from_rows(rows, 2, 15))
    with pytest.raises(ValueError) as exc:
        TwoStepDecoder(code, step2)
    assert str(exc.value) == (
        f"the code's checks, of sizes {sizes}, cannot be the superspaces of step-2 blocks"
        " of 3 points in 15"
    )


@pytest.mark.parametrize(
    "t, k, message",
    [
        (1, 2, "two-step decoding needs a step-2 design with t >= 2, not t = 1"),
        (2, 4, "the step-2 design's blocks (k = 4, v = 4) leave no room for superspaces"),
    ],
)
def test_two_step_rejects_a_step2_design_by_name(gf2m, t, k, message):
    code = build_code(projective_version(trivial_design(2, 4, 3, gf2m)), 2, "projective")
    with pytest.raises(ValueError) as exc:
        TwoStepDecoder(code, trivial_design(t, 4, k, gf2m))
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "t, k, message",
    [
        (1, 3, "two-step decoding needs a step-2 design with t >= 2, not t = 1"),
        (2, 7, "the step-2 design's blocks (k = 7, n = 7) leave no room for superspaces:"
               " two-step decoding needs a step-2 design with k < n"),
    ],
    ids=["t=1", "k=n"],
)
def test_two_step_rejects_a_combinatorial_step2_design_by_name(fano_pair, t, k, message):
    # the same rules as for a subspace design, with n in place of v
    code, fano = fano_pair
    step2 = CombinatorialDesign(7, t, k, 1, fano.masks if k == 3 else [(1 << 7) - 1])
    with pytest.raises(ValueError) as exc:
        TwoStepDecoder(code, step2)
    assert str(exc.value) == message


def test_radius_fano(fano_pair):
    code, d = fano_pair
    rep = measure_decoding_radius(OneStepDecoder(code, d))
    assert rep.certified_radius == 1
    assert rep.first_failure_weight == 2
    assert rep.exhaustive


def test_radius_flats_8_4(gf2m):
    d = flats_construction(trivial_design(2, 3, 2, gf2m))
    code = build_code(d, 2, "flats")
    rep = measure_decoding_radius(OneStepDecoder(code, d))
    assert rep.certified_radius == 1


def test_radius_two_step_31(twostep31):
    rep = measure_decoding_radius(twostep31, max_weight=4)
    assert rep.certified_radius == 3
    assert rep.first_failure_weight == 4


def test_radius_at_least_formula(simplex15_pair, fano_pair):
    for code, d in (simplex15_pair, fano_pair):
        params = d.params()
        dec = OneStepDecoder(code, d)
        rep = measure_decoding_radius(dec)
        assert rep.certified_radius >= ell_one_step(params.r, d.lam)


def test_simulate_deterministic(simplex15_pair):
    code, d = simplex15_pair
    a = simulate(OneStepDecoder(code, d), weight=3, trials=100, seed=42)
    b = simulate(OneStepDecoder(code, d), weight=3, trials=100, seed=42)
    assert a == b
    assert a.successes == 100  # weight 3 is within capability
    assert a.success_rate == 1.0


def test_simulate_two_step_weight3(twostep31):
    rep = simulate(twostep31, weight=3, trials=300, seed=7, zero_codeword=True)
    assert rep.success_rate == 1.0


@pytest.mark.slow
def test_simulate_two_step_weight3_10000_trials(twostep31):
    # weight 3 is within the certified two-step radius, so 10000 seeded
    # trials must all succeed
    rep = simulate(twostep31, weight=3, trials=10_000, seed=1, zero_codeword=True)
    assert rep.success_rate == 1.0
    # per-trial workload: 155 blocks x 7 superspace estimates + 31 x 15 votes
    assert rep.check_evals == 10_000 * (155 * 7 + 31 * 15)


def test_simulate_counts_miscorrections(simplex15_pair):
    code, d = simplex15_pair
    rep = simulate(OneStepDecoder(code, d), weight=7, trials=200, seed=1)
    assert rep.successes + rep.miscorrected + rep.detected == 200
    assert rep.miscorrected + rep.detected > 0


def test_workload_ratio_matches_lambda_ratio(fano_pair):
    # same point set and block size, lambda 1 vs the complete 2-(7,3,5):
    # the parity-evaluation workload scales exactly by lambda_max/lambda
    code_f, fano = fano_pair
    full = CombinatorialDesign(
        n=7, t=2, k=3, lam=5, masks=pack_blocks(itertools.combinations(range(7), 3))
    )
    code_full = build_code(full, 2, "combinatorial")
    dec_f = OneStepDecoder(code_f, fano)
    dec_full = OneStepDecoder(code_full, full)
    a = simulate(dec_f, weight=1, trials=50, seed=2, zero_codeword=True)
    b = simulate(dec_full, weight=1, trials=50, seed=2, zero_codeword=True)
    assert b.check_evals == a.check_evals * 5
    assert b.check_evals // b.trials == 7 * dec_full.r


def test_radius_rejects_a_budget_below_one(fano_pair):
    # a budget of 0 samples nothing and would certify every weight up to n
    code, fano = fano_pair
    dec = OneStepDecoder(code, fano)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            measure_decoding_radius(dec, budget=budget)
    assert measure_decoding_radius(dec, budget=1).certified_radius == 1


def test_radius_rejects_a_max_weight_below_one(fano_pair):
    # a maximum weight below 1 tests nothing and would report an exhaustive sweep
    code, fano = fano_pair
    dec = OneStepDecoder(code, fano)
    for max_weight in (0, -2):
        with pytest.raises(ValueError, match="max_weight"):
            measure_decoding_radius(dec, max_weight=max_weight)
    assert measure_decoding_radius(dec, max_weight=1).certified_radius == 1


def test_simulate_rejects_negative_trials(fano_pair):
    code, fano = fano_pair
    dec = OneStepDecoder(code, fano)
    with pytest.raises(ValueError, match="trials"):
        simulate(dec, weight=1, trials=-5)
    rep = simulate(dec, weight=1, trials=0)
    assert (rep.trials, rep.successes, rep.check_evals) == (0, 0, 0)


@pytest.mark.parametrize("trials", [0, 3])
def test_simulate_rejects_negative_weight(fano_pair, trials):
    code, fano = fano_pair
    dec = OneStepDecoder(code, fano)
    with pytest.raises(ValueError) as err:
        simulate(dec, weight=-1, trials=trials)
    assert str(err.value) == "weight must be non-negative, got -1"
    assert dec.check_evals == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 2**40 + 3])
@pytest.mark.parametrize("n", [1, 2, 7, 21, 22, 85, 86, 127, 128, 255])
def test_error_mask_is_the_mask_of_random_sample(n, seed):
    # both of `random.sample`'s branches: a set of drawn positions for n
    # above its setsize (e.g. n = 127 with w < 22), a pool otherwise; the
    # next draw of both generators shows they end in the same state
    ours, stdlib = random.Random(seed), random.Random(seed)
    for w in range(min(n, 40) + 1):
        mask = sum(1 << j for j in stdlib.sample(range(n), w))
        assert _error_mask(ours, n, w) == mask, (n, w)
        assert ours.getrandbits(64) == stdlib.getrandbits(64), (n, w)


@pytest.mark.parametrize("n, w", [(0, -1), (7, -1), (7, 8), (127, 128)])
def test_error_mask_rejects_a_weight_outside_the_length(n, w):
    with pytest.raises(ValueError, match="outside"):
        _error_mask(random.Random(0), n, w)


def test_as_mask_forms():
    assert as_mask("0110", 4) == 0b0110
    assert as_mask(" 0110\n", 4) == 0b0110
    assert as_mask("", 0) == 0
    assert as_mask(6, 4) == 6
    with pytest.raises(ValueError, match="does not fit length 4"):
        as_mask(16, 4)
    with pytest.raises(ValueError, match="non-binary symbol '2'"):
        as_mask("0120", 4)
    with pytest.raises(ValueError, match="expected 4"):
        as_mask("011", 4)
    # the int and the 0/1 string are the only forms: a bit sequence is refused
    for word in ([0, 1, 1, 0], (0, 1, 1, 0), b"0110", 6.0, None):
        with pytest.raises(ValueError) as err:
            as_mask(word, 4)
        assert str(err.value) == f"word must be an int or a 0/1 string, not {type(word).__name__}"


def test_min_distance_respects_two_step_radius(twostep31):
    # d = 8 so no decoder can certify radius 4
    assert min_distance_bruteforce(twostep31.code) == 8


def test_q2_chain_builds_no_point_tuples(monkeypatch):
    # projective_version -> build_code -> OneStepDecoder read the blocks'
    # point masks end to end: no sorted point tuple is read off a mask
    def forbidden(mask):
        raise AssertionError("point tuple built")

    for module in (field, pspace, designs):
        monkeypatch.setattr(module, "bit_positions", forbidden)
    comb = projective_version(trivial_design(2, 5, 3, FieldCtx.of(2)))
    code = build_code(comb, 2, "projective")
    dec = OneStepDecoder(code, comb)
    assert verify_comb_design(comb).verified
    out = dec.decode(1 << 7)
    assert out.status == DECODED and out.word == 0 and out.flips == (7,)
    with pytest.raises(AssertionError, match="point tuple built"):
        comb.blocks


# ---------------------------------------------------------------------------
# The vote stage's three kernels, each built by its own builder from the
# same rows, columns and thresholds: the count table and the popcount loop
# over a disagreement vector, and the lane tree over the XOR of the slot
# lane vectors that a syndrome decoder XORs in place of its columns.  All
# must give the same flip mask, the rule U_j > half_j read off the columns.


def _rule_mask(columns, halves, disagree):
    votes = enumerate(zip(columns, halves))
    return sum(1 << j for j, (col, half) in votes if (disagree & col).bit_count() > half)


def _assert_table_and_loop_agree(rows, columns, halves, vectors):
    """The count table and the popcount loop built from `rows`, `columns`
    and `halves` give the rule's flip mask on every vector; returns the
    masks."""
    table, loop = count_table(rows, columns, halves), popcount_loop(columns, halves)
    masks = [table(d) for d in vectors]
    assert masks == [loop(d) for d in vectors] == [_rule_mask(columns, halves, d) for d in vectors]
    return masks


def _assert_one_step_kernels_agree(dec, words):
    """Per word, the count table and the popcount loop on the syndrome of
    the one-step decoder `dec`'s columns, and the lane tree on the XOR of
    its slot lane vectors, give the rule's flip mask, and `dec` decodes the
    word by that mask: the flipped word if it is a codeword, at the model
    count of evaluations.  Returns the decoder's flips."""
    checks, columns, halves = dec.code.check_masks(), dec._columns, dec._halves
    column_tables = field._xor_tables(columns)
    syndromes = [field._xor_select(column_tables, word) for word in words]
    masks = _assert_table_and_loop_agree(checks, columns, halves, syndromes)
    lanes, R = slot_lanes(checks, dec.n)
    tree, lane_tables = majority_tree(R, dec.n, halves), field._xor_tables(lanes)
    assert [tree(field._xor_select(lane_tables, word)) for word in words] == masks
    start = dec.check_evals
    flips = []
    for word, mask in zip(words, masks):
        out = dec.decode(word)
        status = DECODED if dec.code.is_codeword(word ^ mask) else DETECTED
        assert (out.status, out.flip_mask) == (status, mask)
        assert out.word == (word ^ mask if status == DECODED else None)
        flips.append(out.flips)
    assert dec.check_evals - start == len(words) * sum(col.bit_count() for col in columns)
    return flips


@pytest.fixture(scope="module")
def benchmark_decoders(shipped_two_step):
    """perfbench's three decoders, each with the rows its columns
    transpose: the code's checks one-step, the step-2 blocks two-step."""
    shipped = projective_version(load_subspace_design(SHIPPED_DESIGN))
    one = OneStepDecoder(build_code(shipped, 2, "projective"), shipped)
    ctx = FieldCtx.of(4)
    lines = trivial_design(2, 4, 2, ctx)
    planes = build_code(projective_version(trivial_design(2, 4, 3, ctx)), 2, "projective")
    two, step2 = shipped_two_step
    return {
        "onestep-subspace": (one, one.code.check_masks()),
        "twostep-subspace": (two, step2.masks),
        "twostep-q4": (TwoStepDecoder(planes, lines), lines.masks),
    }


def _kernel_name(dec):
    """The kernel that votes for `dec`, named after its builder."""
    builder = dec._kernel.__qualname__.split(".")[0]
    return {"count_table": "table", "majority_tree": "lanes", "popcount_loop": "loop"}[builder]


@pytest.mark.parametrize(
    "name,kernel",
    [("onestep-subspace", "lanes"), ("twostep-subspace", "loop"), ("twostep-q4", "table")],
)
def test_the_rule_puts_each_benchmark_decoder_on_its_kernel(benchmark_decoders, name, kernel):
    # b = 1143 checks or blocks at n = 127 is above 6 n, where the one-step
    # decoder votes in slot lanes and the two-step decoder in the loop;
    # 357 blocks at n = 85 is below it
    dec, rows = benchmark_decoders[name]
    assert (len(rows), dec.n) == {"twostep-q4": (357, 85)}.get(name, (1143, 127))
    assert _kernel_name(dec) == kernel


@pytest.mark.parametrize("name", ["onestep-subspace", "twostep-subspace", "twostep-q4"])
def test_both_kernels_flip_alike_on_the_benchmark_decoders(benchmark_decoders, name):
    # uniform vectors put U_j around half_j at every position; sparse ones
    # take `_sum_select`'s per-vector path; the XOR of a few columns flips
    # their positions
    dec, rows = benchmark_decoders[name]
    rng = random.Random(7)
    b = len(rows)
    vectors = [rng.getrandbits(b) for _ in range(60)]
    vectors += [sum(1 << i for i in rng.sample(range(b), rng.randrange(1, 40))) for _ in range(60)]
    for _ in range(60):
        picked = rng.sample(dec._columns, rng.randrange(1, 6))
        vectors.append(reduce(xor, picked))
    masks = _assert_table_and_loop_agree(rows, dec._columns, dec._halves, vectors)
    assert any(masks) and not all(masks)
    if _kernel_name(dec) != "lanes":
        assert [dec._kernel(d) for d in vectors] == masks


@pytest.mark.parametrize("lam", [1, 2])
def test_both_kernels_flip_alike_on_every_fano_vector(fano_pair, lam):
    # every disagreement vector over the 7 checks, a count that fills no
    # whole byte, and every word; under the lambda = 2 header the
    # threshold rises from U_j > 1 to U_j > 2
    code, fano = fano_pair
    dec = OneStepDecoder(code, CombinatorialDesign(n=7, t=2, k=3, lam=lam, masks=fano.masks))
    assert _kernel_name(dec) == "table" and set(dec._halves) == {lam}
    checks = code.check_masks()
    masks = _assert_table_and_loop_agree(checks, dec._columns, dec._halves, range(1 << 7))
    assert max(mask.bit_count() for mask in masks) == 7 and masks[0] == 0
    flips = _assert_one_step_kernels_agree(dec, range(1 << 7))
    assert flips[0] == () and any(flips)


@pytest.mark.parametrize("lam", [1, 2, 5])
@pytest.mark.parametrize(
    "blocks",
    [[(0, 1, 2), (0, 3, 4), (1, 3, 5)], [(0, 1, 2)]],
    ids=["three-blocks", "one-block"],
)
def test_both_kernels_flip_alike_with_uneven_columns(blocks, lam):
    # blocks of a Fano header that are not all of its lines: r_j runs from
    # 0 to 2, so half_j = (r_j + lam - 1) // 2 reaches r_j (a position
    # that can never flip) and, at lam = 5, exceeds it; the last case has
    # a single check.  Every vector over the checks and every word is voted
    design = CombinatorialDesign(n=7, t=2, k=3, lam=lam, masks=pack_blocks(blocks))
    dec = OneStepDecoder(build_code(design), design)
    assert _kernel_name(dec) == "table"
    never = {j for j, (col, half) in enumerate(zip(dec._columns, dec._halves)) if half >= col.bit_count()}
    assert 6 in never and (lam == 1 or 5 in never)
    vectors = range(1 << len(blocks))
    masks = _assert_table_and_loop_agree(design.masks, dec._columns, dec._halves, vectors)
    assert not any(mask >> j & 1 for mask in masks for j in never)
    assert any(masks) == (len(never) < 7)
    flips = _assert_one_step_kernels_agree(dec, range(1 << 7))
    assert never.isdisjoint(j for vote in flips for j in vote)


# ---------------------------------------------------------------------------
# The one-step lane kernel: above 6 checks per position the one-step
# decoder votes in slot lanes.  Its flips must be those of the count table
# and the popcount loop on the syndrome, and its outcomes those of that
# flip mask.


@pytest.fixture(
    scope="module",
    params=[
        ("shipped", "projective", 127, 10),
        ("shipped", "affine", 64, 10),
        ((7, 3), "projective", 127, 10),
        ((6, 2), "projective", 63, 15),
        ((6, 3), "projective", 63, 5),
    ],
    ids=["2-(7,3,3)_2", "2-(7,3,3)_2 affine", "2-(7,3,31)_2", "PG(5,2) lines", "PG(5,2) planes"],
)
def lane_decoder(request):
    source, mode, n, ell = request.param
    if source == "shipped":
        design = load_subspace_design(SHIPPED_DESIGN)
    else:
        design = trivial_design(2, *source, FieldCtx.of(2))
    comb = designs.construct(design, mode)
    dec = OneStepDecoder(build_code(comb, 2, mode), comb)
    assert dec.n == n and ell_one_step(dec.r, dec.lambda2) == ell
    return dec, ell


def test_lane_kernel_matches_the_loop_at_every_weight(lane_decoder):
    # seeded codewords plus errors of every weight from 0 to 2 ell + 2:
    # every word within the radius decodes to its codeword, and some word
    # beyond it does not
    dec, ell = lane_decoder
    assert len(dec.code.check_masks()) > 6 * dec.n and _kernel_name(dec) == "lanes"
    rng = random.Random(ell * 1000 + dec.n)
    sent = []
    for weight in range(2 * ell + 3):
        for _ in range(4):
            codeword = dec.code.random_codeword(rng)
            sent.append((weight, codeword, codeword ^ _error_mask(rng, dec.n, weight)))
    flips = _assert_one_step_kernels_agree(dec, [word for _, _, word in sent])
    assert flips[0] == () and any(flips)
    decoded = [dec.decode(word).word == codeword for _, codeword, word in sent]
    assert all(ok for (weight, _, _), ok in zip(sent, decoded) if weight <= ell)
    assert not all(decoded)


@pytest.mark.parametrize("lam", [1, 2, 5])
def test_lane_kernel_matches_the_loop_with_uneven_columns(lam):
    # every 3-subset of 8 points and one more check {0, 1, 8}: b = 57 > 6 n
    # at n = 9, r_j runs 22, 21 and 1, so R = 22 lanes leave empty slots,
    # and at lam >= 2 position 8's half_j reaches r_j = 1: it can never
    # flip.  Every word of length 9 is voted.
    blocks = list(itertools.combinations(range(8), 3)) + [(0, 1, 8)]
    design = CombinatorialDesign(n=9, t=2, k=3, lam=lam, masks=pack_blocks(blocks))
    dec = OneStepDecoder(build_code(design), design)
    assert _kernel_name(dec) == "lanes"
    assert [col.bit_count() for col in dec._columns] == [22, 22] + [21] * 6 + [1]
    never = {j for j, (col, half) in enumerate(zip(dec._columns, dec._halves)) if half >= col.bit_count()}
    assert never == ({8} if lam > 1 else set())
    flips = _assert_one_step_kernels_agree(dec, range(1 << 9))
    assert never.isdisjoint(j for vote in flips for j in vote)
    assert any(8 in vote for vote in flips) is (lam == 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=70).flatmap(
        lambda J: st.tuples(
            st.just(J),
            st.lists(st.integers(0, J + 70), min_size=1, max_size=130),
            st.sampled_from(["random", "zeros", "ones"]),
            st.randoms(use_true_random=False),
        )
    )
)
def test_lane_majority_per_position_threshold(case):
    # each offset b against its own halves[b], from 0 past J and past the
    # 2^P the final count's planes hold, against a count per offset
    J, halves, fill, rng = case
    width = len(halves)
    bits = {"random": rng.getrandbits(J * width), "zeros": 0, "ones": (1 << J * width) - 1}[fill]
    lanes = bits | rng.getrandbits(width) << J * width
    assert majority_tree(J, width, halves)(lanes) == lane_majority_count(lanes, J, width, halves)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=20).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40),
            st.lists(st.integers(0, 45), min_size=n, max_size=n),
            st.randoms(use_true_random=False),
        )
    )
)
def test_count_table_and_loop_per_position_threshold(case):
    # random row sets over n <= 20 positions, empty rows among them, so
    # r_j runs unevenly from 0 up to the 40 rows; the thresholds run from
    # 0 past every r_j.  Each kernel against U_j > half_j counted row by
    # row, on the empty, the full and random disagreement vectors
    rows, halves, rng = case
    n, b = len(halves), len(rows)
    columns = _columns(iter(rows), n)
    table, loop = count_table(rows, columns, halves), popcount_loop(columns, halves)
    for disagree in [0, (1 << b) - 1] + [rng.getrandbits(b) for _ in range(20)]:
        ones = [i for i in range(b) if disagree >> i & 1]
        through = [sum(rows[i] >> j & 1 for i in ones) for j in range(n)]
        expected = sum(1 << j for j in range(n) if through[j] > halves[j])
        assert table(disagree) == expected == loop(disagree)


def test_slot_lanes_hold_the_checks_through_each_position(fano_pair):
    # the Fano plane's 7 lines, 3 through each point: lane vector p has bit
    # t n + j set when p lies in the t-th line through j
    code, _ = fano_pair
    checks = code.check_masks()
    lanes, R = slot_lanes(checks, 7)
    assert R == 3
    through = [[c for c in checks if c >> j & 1] for j in range(7)]
    for p in range(7):
        assert lanes[p] == sum(
            1 << (t * 7 + j) for j in range(7) for t in range(3) if through[j][t] >> p & 1
        )
