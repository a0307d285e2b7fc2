import itertools
import random
import time
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from designcodes.field import (
    FieldCtx,
    PrimeMatrix,
    _sum_select,
    _xor_select,
    _xor_tables,
    bit_positions,
    default_modulus,
    matrix_rank,
    rref_gf2,
    rref_gf2_lanes,
)

from .oracles import naive_rank, xor_columns

# Lines of the Fano plane (points of the 3-dim binary geometry), as 0/1 rows.
# Rank over F_2 frozen from naive_rank below: 4.
FANO_ROWS = [
    [1, 1, 0, 1, 0, 0, 0],
    [0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 0, 1, 0],
    [0, 0, 0, 1, 1, 0, 1],
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 1],
    [1, 0, 1, 0, 0, 0, 1],
]


def test_default_moduli():
    assert default_modulus(2, 2) == 7  # x^2 + x + 1
    assert default_modulus(2, 3) == 11  # x^3 + x + 1
    assert default_modulus(3, 2) == 10  # x^2 + 1


def test_ctx_of_prime_power():
    c = FieldCtx.of(8)
    assert (c.p, c.m, c.q) == (2, 3, 8)
    assert FieldCtx.of(5).modulus == 5  # x


def test_ctx_rejects_bad_orders():
    with pytest.raises(ValueError):
        FieldCtx.of(6)
    with pytest.raises(ValueError):
        FieldCtx.of(1024)
    with pytest.raises(ValueError):
        FieldCtx.of(4, modulus=5)  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldCtx.of(4, modulus=3)  # not monic of degree 2


def test_ctx_rejects_large_orders_before_factoring():
    # trial division would look for the characteristic of the prime
    # 1000000007 for about 90 s; the size check answers at once
    start = time.perf_counter()
    for q in (513, 10000019, 1000000007, 2**61 - 1):
        with pytest.raises(ValueError, match="q > 512"):
            FieldCtx.of(q)
    assert time.perf_counter() - start < 1.0


def test_tables_are_lazy_and_outside_equality():
    a, b = FieldCtx.of(4), FieldCtx.of(4)
    assert "mul_table" not in vars(a)
    assert a.mul_table[2][2] == 3 and a.add_table[1][a.neg_table[3]] == 2
    assert a.inv_table[3] == 2
    assert "mul_table" in vars(a) and "mul_table" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert FieldCtx.of(8) != FieldCtx.of(8, modulus=13)  # x^3+x+1 vs x^3+x^2+1


def test_mul_examples(gf2, gf4):
    assert gf2.mul_table[1][1] == 1
    # x * x = x + 1 modulo x^2 + x + 1
    assert gf4.mul_table[2][2] == 3
    for ctx in (gf2, gf4, FieldCtx.of(5)):
        for a in range(ctx.q):
            assert ctx.mul_table[a][0] == 0


def test_inv_examples(gf2, gf4):
    assert gf2.inv_table[1] == 1
    assert gf4.inv_table[2] == 3  # x * (x+1) = x^2 + x = 1
    assert FieldCtx.of(5).inv_table[2] == 3
    # zero has no inverse: its entry is a placeholder
    assert gf4.inv_table[0] == 0 and 1 not in gf4.mul_table[0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_field_axioms_exhaustive(q):
    ctx = FieldCtx.of(q)
    add, mul, neg, inv = ctx.add_table, ctx.mul_table, ctx.neg_table, ctx.inv_table
    els = range(q)
    for a, b in itertools.product(els, repeat=2):
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
    for a, b, c in itertools.product(els, repeat=3):
        assert mul[a][mul[b][c]] == mul[mul[a][b]][c]
        assert add[a][add[b][c]] == add[add[a][b]][c]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1


def test_fano_rank_matches_oracle():
    assert naive_rank(FANO_ROWS, 2) == 4
    m = PrimeMatrix.from_rows(FANO_ROWS, p=2, ncols=7)
    assert matrix_rank(m) == 4


def test_rank_trivial_cases():
    ident = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    for p in (2, 3, 5):
        assert matrix_rank(PrimeMatrix.from_rows(ident, p, 6), p) == 6
    zeros = PrimeMatrix.from_rows([[0] * 4] * 3, 3, 4)
    assert matrix_rank(zeros) == 0
    assert matrix_rank(PrimeMatrix(p=2, ncols=5, rows=[])) == 0


def test_rank_bounded_by_shape():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 1, 1]]
    m = PrimeMatrix.from_rows(rows, 2, 3)
    assert matrix_rank(m) <= min(m.nrows, m.ncols)


def test_rank_rejects_large_entries():
    m = PrimeMatrix.from_rows([[0, 2], [1, 1]], p=3, ncols=2)
    with pytest.raises(ValueError, match="prime field"):
        matrix_rank(m, p=2)


def test_rank_of_binary_matrix_over_odd_prime():
    # 0/1 matrix ranked over F_3: the all-ones 2x2 has rank 1, same as F_2.
    m = PrimeMatrix.from_rows([[1, 1], [1, 1]], p=2, ncols=2)
    assert matrix_rank(m, p=3) == 1
    m2 = PrimeMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], p=2, ncols=3)
    # over F_2 the rows sum to zero, over F_3 they do not
    assert matrix_rank(m2, p=2) == 2
    assert matrix_rank(m2, p=3) == 3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_rank_agrees_with_naive_oracle(nrows, ncols, p, rng):
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    m = PrimeMatrix.from_rows(rows, p, ncols)
    assert matrix_rank(m, p) == naive_rank(rows, p)


def _small_matrix(rng, v, k):
    """k random v-bit rows, rank-deficient about half the time: a zero row,
    a repeated row, or a row the sum of two others."""
    rows = [rng.getrandbits(v) for _ in range(k)]
    kind = rng.randrange(4)
    if kind == 1:
        rows[rng.randrange(k)] = 0
    elif kind == 2 and k > 1:
        i, j = rng.sample(range(k), 2)
        rows[i] = rows[j]
    elif kind == 3 and k > 2:
        i, j, h = rng.sample(range(k), 3)
        rows[i] = rows[j] ^ rows[h]
    return rows


@pytest.mark.parametrize("v", range(1, 21))  # lanes of 1, 2 and 3 bytes
def test_lane_reduction_matches_rref_gf2_matrix_by_matrix(v):
    rng = random.Random(v)
    ranks = set()
    for k in range(1, min(v, 8) + 1):
        for count in (1, 2, 300):
            matrices = [_small_matrix(rng, v, k) for _ in range(count)]
            if count > 1:
                matrices[0] = [0] * k
                matrices[1] = [1 << (v - 1 - i) for i in range(k)]  # full rank
            want = [tuple(rref_gf2(m)[0]) for m in matrices]
            assert rref_gf2_lanes([x for m in matrices for x in m], k, v) == want
            ranks |= {(k, len(rows)) for rows in want}
    assert {(k, k) for k in range(1, min(v, 8) + 1)} <= ranks
    assert any(r < k for k, r in ranks)
    assert rref_gf2_lanes([], 3, v) == []


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_rank_invariant_under_row_shuffle(rng):
    nrows, ncols = rng.randrange(1, 30), rng.randrange(1, 30)
    rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    a = matrix_rank(PrimeMatrix.from_rows(rows, 2, ncols))
    b = matrix_rank(PrimeMatrix.from_rows(shuffled, 2, ncols))
    assert a == b


def test_rank_over_another_prime_rereads_rows():
    # over a p other than the matrix's own, every entry is checked again,
    # and p must be prime whatever the matrix
    m3 = PrimeMatrix.from_rows([[1, 2], [2, 1]], p=3, ncols=2)
    assert matrix_rank(m3) == 1
    assert matrix_rank(m3, p=5) == 2
    with pytest.raises(ValueError, match="^entry not in prime field$"):
        matrix_rank(m3, p=2)
    m2 = PrimeMatrix(2, 3, (0b101, 0b011, 0b110))
    assert matrix_rank(m2) == 2 and matrix_rank(m2, p=3) == 3
    for p in (1, 4, 9):
        for m in (m2, m3):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                matrix_rank(m, p)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        matrix_rank(PrimeMatrix(4, 2, ((1, 3),)))


def test_matrix_file_roundtrip(tmp_path):
    m = PrimeMatrix.from_rows(FANO_ROWS, 2, 7)
    path = tmp_path / "fano.pmatrix"
    path.write_text(m.dumps())
    again = PrimeMatrix.load(path)
    assert again.rows == m.rows and again.ncols == m.ncols and again.p == m.p
    assert again.dumps() == path.read_text()


def test_matrix_file_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        PrimeMatrix.loads("not a header\n11\n")
    with pytest.raises(ValueError):
        PrimeMatrix.loads("pmatrix rows=2 cols=2 p=2\n11\n")
    with pytest.raises(ValueError):
        PrimeMatrix.loads("pmatrix rows=1 cols=3 p=2\n11\n")


def test_matrix_file_header_errors_name_the_problem():
    with pytest.raises(ValueError, match="missing cols"):
        PrimeMatrix.loads("pmatrix rows=1 p=2\n101\n")
    with pytest.raises(ValueError, match="'cols' is not key=value"):
        PrimeMatrix.loads("pmatrix rows=1 cols p=2\n101\n")
    with pytest.raises(ValueError, match="'p=x' is not an integer"):
        PrimeMatrix.loads("pmatrix rows=1 cols=3 p=x\n101\n")
    with pytest.raises(ValueError, match="empty"):
        PrimeMatrix.loads("# only a comment\n")
    with pytest.raises(ValueError, match="'rows=-1' is negative"):
        PrimeMatrix.loads("pmatrix rows=-1 cols=3 p=2\n")
    with pytest.raises(ValueError, match="'cols=-3' is negative"):
        PrimeMatrix.loads("pmatrix rows=1 cols=-3 p=2\n101\n")
    with pytest.raises(ValueError, match="line 3: 'x' is not an integer"):
        PrimeMatrix.loads("pmatrix rows=1 cols=2 p=3\n\n2x\n")
    with pytest.raises(ValueError, match="line 2: row has 2 digits, expected 3"):
        PrimeMatrix.loads("pmatrix rows=1 cols=3 p=2\n10\n")


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=12000), max_size=40))
@example(set())
@example({0})
@example({5, 11810})
def test_bit_positions_reads_the_set_bits_ascending(bits):
    # 0, 1 and wide sparse masks such as a check set of 11811 bits
    mask = sum(1 << i for i in bits)
    assert bit_positions(mask) == tuple(sorted(bits))


@st.composite
def xor_cases(draw):
    """(vectors, selector): 0 to 140 vectors of up to 200 bits, so counts
    that fill no whole table or byte, and a selector that is zero, all
    ones, only the top bit, a few bits (the per-bit path) or any subset."""
    count = draw(st.integers(min_value=0, max_value=140))
    width = draw(st.sampled_from([1, 8, 200]))
    vectors = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count))
    everything = (1 << count) - 1
    few = st.sets(st.integers(0, max(count - 1, 0)), max_size=6 if count else 0)
    bits = draw(
        st.one_of(
            st.just(0),
            st.just(everything),
            st.just(everything ^ everything >> 1),
            few.map(lambda positions: sum(1 << i for i in positions)),
            st.integers(min_value=0, max_value=everything),
        )
    )
    return vectors, bits


@settings(max_examples=200, deadline=None)
@given(xor_cases())
@example(([], 0))
@example(([5], 1))
@example(([1, 2, 4], 0b101))
@example(([3] * 8, 0b10000000))
@example(([1 << i for i in range(9)], 0b111111111))
@example(([7] * 140, (1 << 140) - 1))
def test_xor_select_matches_the_bit_loop(case):
    # the one kernel against the per-bit loop it replaced (tests/oracles.py)
    vectors, bits = case
    tables = _xor_tables(iter(vectors))
    assert tables[0] == tuple(vectors) and len(tables[1]) == -(-len(vectors) // 8)
    assert _xor_select(tables, bits) == xor_columns(vectors, bits)


@settings(max_examples=200, deadline=None)
@given(xor_cases())
@example(([], 0))
@example(([5], 1))
@example(([3] * 8, 0b10000000))
@example(([7] * 140, (1 << 140) - 1))
def test_sum_select_matches_the_bit_loop(case):
    # the adding sibling of `_xor_select`, over the same layout of tables
    # built by addition, against a plain sum of the selected vectors
    vectors, bits = case
    tables = _xor_tables(iter(vectors), add)
    assert tables[0] == tuple(vectors) and len(tables[1]) == -(-len(vectors) // 8)
    assert _sum_select(tables, bits) == sum(v for i, v in enumerate(vectors) if bits >> i & 1)
