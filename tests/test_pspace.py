import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from designcodes import pspace
from designcodes.designs import (
    load_subspace_design,
    projective_version,
    trivial_design,
    verify_subspace_design,
)
from designcodes.field import FieldCtx, rref_gfq
from designcodes.pspace import (
    _point_steps,
    enumerate_points,
    enumerate_subspaces,
    gaussian_coefficient,
    point_space,
    points_mask,
    points_of_subspace,
    row_points,
    subspace,
    subspace_masks_gf2,
    superspaces,
)

from .oracles import (
    enumerate_gens,
    normalize_point,
    points_walk,
    rref_tuples,
    subspaces_of,
    superspaces_scan,
    vec_add,
    vec_scale,
)


def contains(s, t):
    """t lies in s, read off their point masks."""
    return points_mask(t) & ~points_mask(s) == 0


def test_gaussian_known_values():
    assert gaussian_coefficient(3, 1, 2) == 7
    assert gaussian_coefficient(7, 1, 4) == 5461
    assert gaussian_coefficient(6, 3, 2) == 1395
    assert gaussian_coefficient(4, 2, 2) == 35
    for v, q in [(0, 2), (5, 3), (9, 4)]:
        assert gaussian_coefficient(v, 0, q) == 1
    assert gaussian_coefficient(3, 4, 2) == 0
    assert gaussian_coefficient(3, -1, 2) == 0


@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([2, 3, 4, 5, 8]),
)
def test_gaussian_symmetry(v, k, q):
    assert gaussian_coefficient(v, k, q) == gaussian_coefficient(v, v - k, q)


def test_points_order_v2(gf2):
    assert enumerate_points(2, gf2) == ((0, 1), (1, 0), (1, 1))


def test_points_counts(gf2, gf4):
    assert len(enumerate_points(1, gf4)) == 1
    assert len(enumerate_points(3, gf2)) == 7
    assert len(enumerate_points(4, gf4)) == gaussian_coefficient(4, 1, 4)


def test_points_are_sorted_and_normalized(gf4):
    pts = enumerate_points(3, gf4)
    assert list(pts) == sorted(pts)
    for p in pts:
        assert next(x for x in p if x) == 1


@pytest.mark.parametrize(
    "v,k,q",
    [(v, k, 2) for v in range(7) for k in range(v + 1)]
    + [(v, k, 4) for v in range(5) for k in range(v + 1)],
)
def test_enumeration_count_matches_gaussian(v, k, q):
    ctx = FieldCtx.of(q)
    assert sum(1 for _ in enumerate_subspaces(v, k, ctx)) == gaussian_coefficient(v, k, q)


@pytest.mark.slow
@pytest.mark.parametrize("v,k", [(7, 3), (8, 2), (8, 3)])
def test_enumeration_count_larger_binary(v, k, gf2):
    assert sum(1 for _ in enumerate_subspaces(v, k, gf2)) == gaussian_coefficient(v, k, 2)


def test_enumerated_subspaces_are_canonical(gf4):
    for s in enumerate_subspaces(4, 2, gf4):
        assert rref_gfq(s.gen, gf4) == s.gen


def test_enumeration_is_duplicate_free(gf2):
    seen = set(s.gen for s in enumerate_subspaces(5, 2, gf2))
    assert len(seen) == gaussian_coefficient(5, 2, 2)


def test_points_of_subspace_examples(gf2, gf4):
    s = subspace([(1, 0, 0)], 3, gf2)
    sp = point_space(3, gf2)
    assert points_of_subspace(s) == (sp.index[(1, 0, 0)],)

    s2 = subspace([(1, 0, 0), (0, 1, 0)], 3, gf2)
    expect = tuple(sorted(sp.index[p] for p in [(0, 1, 0), (1, 0, 0), (1, 1, 0)]))
    assert points_of_subspace(s2) == expect

    for s4 in itertools.islice(enumerate_subspaces(3, 2, gf4), 10):
        assert len(points_of_subspace(s4)) == 5  # [2 1]_4


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 4]))
def test_points_count_is_gaussian(rng, q):
    ctx = FieldCtx.of(q)
    v = rng.randrange(2, 5)
    k = rng.randrange(1, v + 1)
    all_subs = list(enumerate_subspaces(v, k, ctx))
    s = all_subs[rng.randrange(len(all_subs))]
    pts = points_of_subspace(s)
    assert len(pts) == gaussian_coefficient(k, 1, q)
    assert len(set(pts)) == len(pts)


def _packed(vec, m):
    return sum(x << (m * i) for i, x in enumerate(vec))


@pytest.mark.parametrize("q,v", [(2, 1), (2, 5), (4, 1), (4, 4), (8, 3), (16, 2)])
def test_packed_vector_table_finds_every_multiple(q, v):
    ctx = FieldCtx.of(q)
    sp = point_space(v, ctx)
    assert len(sp.vec_index) == q**v
    for vec in itertools.product(range(q), repeat=v):
        if any(vec):
            assert sp.vec_index[_packed(vec, ctx.m)] == sp.index[normalize_point(vec, ctx)]


def test_odd_q_has_no_packed_vector_table(gf4):
    assert point_space(3, FieldCtx.of(3)).vec_index is None
    assert point_space(3, FieldCtx.of(9)).vec_index is None
    assert point_space(3, gf4).vec_index is not None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]), st.integers(min_value=0, max_value=2**32))
def test_points_of_subspace_match_tuple_walk(q, seed):
    ctx = FieldCtx.of(q)
    rng = random.Random(seed)
    # keep the point count of F_q^v near 1365 at most
    v = rng.randrange(1, {2: 10, 3: 7, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4, 16: 3}[q] + 1)
    s = random_subspace(rng, v, rng.randrange(0, v + 1), ctx)
    want = points_walk(s)
    assert points_of_subspace(s) == want
    assert points_mask(s) == sum(1 << i for i in want)


@pytest.mark.parametrize("v", range(9))
def test_hyperplane_product_matches_point_walks(v, gf2):
    # the kernel's masks, in no fixed order, are the walked point masks of
    # every k-subspace, each once
    for k in range(v + 1):
        got = subspace_masks_gf2(v, k, gf2)
        assert Counter(got) == Counter(map(points_mask, enumerate_subspaces(v, k, gf2)))
        assert len(got) == gaussian_coefficient(v, k, 2)
    assert subspace_masks_gf2(v, 0, gf2) == [0]
    assert subspace_masks_gf2(v, v, gf2) == [(1 << 2**v - 1) - 1]
    assert subspace_masks_gf2(v, v + 1, gf2) == []


def test_hyperplane_product_is_q2_only(gf4):
    with pytest.raises(ValueError, match="q = 2"):
        subspace_masks_gf2(3, 2, gf4)


@pytest.mark.parametrize("k", range(8))
def test_point_steps_are_gray_codes_of_gaussian_length(k):
    # at q = 2 the walk is the k-bit Gray code; at every q it takes one
    # step per point of a k-subspace
    assert _point_steps(k, 1, 2) == tuple((i & -i).bit_length() - 1 for i in range(1, 1 << k))
    for q in (3, 4, 5, 7, 8, 9, 16):
        if q**k <= 1 << 16:
            ctx = FieldCtx.of(q)
            assert len(_point_steps(k, ctx.m, ctx.p)) == gaussian_coefficient(k, 1, q)


def test_spaces_without_packed_table_walk_tuples(monkeypatch):
    # above the table's size limit, q = 2^m (m > 1) takes the tuple walks
    # of odd q; shown here by lowering the limit.  q = 2 holds its
    # subspaces as masks and keeps the table at any size.
    # Each context keeps its own point spaces, so the fresh contexts below
    # build theirs under the lowered limit.
    monkeypatch.setattr(pspace, "_VEC_INDEX_LIMIT", 0)
    assert point_space(5, FieldCtx.of(2)).vec_index is not None
    rng = random.Random(5)
    for q, v in [(4, 3), (8, 3)]:
        ctx = FieldCtx.of(q)
        assert point_space(v, ctx).vec_index is None
        for dim in range(v + 1):
            b = random_subspace(rng, v, dim, ctx)
            assert points_of_subspace(b) == points_walk(b)
            if dim < v:
                assert superspaces(b, dim + 1) == superspaces_scan(b, dim + 1)


@pytest.mark.parametrize(
    "q,modulus,top", [(4, None, 5), (8, None, 4), (8, 13, 4), (16, None, 3), (16, 25, 3)]
)
def test_packed_walks_match_tuple_oracle_under_each_modulus(q, modulus, top, monkeypatch):
    # every k-subspace of F_q^v, v <= top: the packed walk's generators come
    # from an xtime that reads the modulus's low bits, so each field is run
    # under a second irreducible modulus too (GF(4) has only one); the tuple
    # walk, forced by lowering the table's size limit, gives the same masks
    packed, tuples = FieldCtx.of(q, modulus), FieldCtx.of(q, modulus)
    with monkeypatch.context() as patch:
        patch.setattr(pspace, "_VEC_INDEX_LIMIT", 0)
        for v in range(1, top + 1):
            assert point_space(v, tuples).vec_index is None
    for v in range(1, top + 1):
        assert point_space(v, packed).vec_index is not None
        for k in range(1, v + 1):
            for s in enumerate_subspaces(v, k, packed):
                want = sum(1 << i for i in points_walk(s))
                assert points_mask(s) == want
                assert points_mask(pspace.Subspace(tuples, v, s.rows)) == want


@pytest.mark.parametrize(
    "q,v,k",
    [(2, v, k) for v in range(8) for k in range(v + 1)]
    + [(q, v, k) for q in (3, 4) for v in range(5) for k in range(v + 1)]
    + [(q, v, k) for q in (5, 8, 9) for v in range(4) for k in range(v + 1)],
)
def test_enumeration_matches_tuple_oracle(q, v, k):
    # against the coordinate-tuple enumeration: same order, same rows, and
    # a sort key ordering like the tuples; q = 2 holds the rows as masks
    ctx = FieldCtx.of(q)
    subs = list(enumerate_subspaces(v, k, ctx))
    assert [s.gen for s in subs] == list(enumerate_gens(v, k, ctx))
    if q == 2:
        for s in subs:
            assert s.rows == tuple(sum(x << i for i, x in enumerate(row)) for row in s.gen)
    assert sorted(subs, key=row_points(v, ctx)) == sorted(subs, key=lambda s: s.gen)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.data())
def test_q2_masks_match_tuple_oracle(v, data):
    # subspace() from random vectors, and the points of its result, against
    # the tuple RREF and the tuple walk
    ctx = FieldCtx.of(2)
    count = data.draw(st.integers(min_value=0, max_value=v + 2))
    vecs = data.draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * v), min_size=count, max_size=count)
    )
    s = subspace(vecs, v, ctx)
    assert s.gen == rref_tuples(vecs, v, ctx)
    assert s == subspace(list(reversed(vecs)), v, ctx)
    if v:
        assert points_of_subspace(s) == points_walk(s)
        assert points_mask(s) == sum(1 << i for i in points_walk(s))


def test_q2_paths_use_no_tuple_arithmetic(monkeypatch, gf2):
    # q = 2 subspaces are masks: neither the GF(q) tuple reduction nor the
    # field's entry check runs on the q = 2 paths
    def forbidden(*args):
        raise AssertionError("tuple arithmetic at q = 2")

    monkeypatch.setattr(pspace, "rref_gfq", forbidden)
    monkeypatch.setattr(FieldCtx, "check", forbidden)
    s = subspace([(1, 1, 0, 0, 1), (0, 1, 1, 0, 0)], 5, gf2)
    assert len(points_of_subspace(s)) == 3
    assert len(superspaces(s, 3)) == 7
    assert all(contains(sup, s) for sup in superspaces(s, 4))
    assert not contains(s, subspace([(0, 0, 0, 1, 0)], 5, gf2))
    assert verify_subspace_design(trivial_design(2, 5, 3, gf2)).verified


def test_q2_subspace_rejects_non_binary_entries(gf2):
    with pytest.raises(ValueError, match="2 is not an element of GF\\(2\\)"):
        subspace([(1, 0, 2)], 3, gf2)
    with pytest.raises(ValueError, match="-1 is not an element"):
        subspace([(0, -1, 0)], 3, gf2)


def test_superspace_counts(gf2):
    b = subspace([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], 5, gf2)
    sup = superspaces(b, 3)
    assert len(sup) == 7  # [3 1]_2
    assert all(contains(s, b) for s in sup)

    b2 = subspace([(1, 0, 0, 0)], 4, gf2)
    assert len(superspaces(b2, 2)) == 7

    b3 = subspace([(1, 0), (0, 1)][:1], 2, gf2)
    assert len(superspaces(b3, 2)) == 1  # only the full space


def test_superspaces_match_full_enumeration():
    # (q, v, dim b, k): k = dim b + 1 and k > dim b + 1, over q in {2, 3, 4, 5, 8}
    cases = [
        (2, 4, 2, 3), (4, 3, 2, 3), (3, 4, 2, 3), (5, 3, 1, 2),
        (2, 5, 1, 3), (2, 6, 2, 5), (3, 4, 1, 3), (3, 5, 2, 4), (5, 4, 1, 3),
        (8, 3, 1, 2), (4, 4, 1, 3),
    ]
    for q, v, dim_b, k in cases:
        ctx = FieldCtx.of(q)
        subs = list(enumerate_subspaces(v, dim_b, ctx))
        b = subs[len(subs) // 2]
        got = superspaces(b, k)
        by_scan = set(s.gen for s in enumerate_subspaces(v, k, ctx) if contains(s, b))
        assert set(s.gen for s in got) == by_scan
        assert len(got) == gaussian_coefficient(v - dim_b, k - dim_b, q)
        assert got == superspaces_scan(b, k)


def random_subspace(rng, v, dim, ctx):
    while True:
        vecs = [tuple(rng.randrange(ctx.q) for _ in range(v)) for _ in range(dim)]
        s = subspace(vecs, v, ctx)
        if s.k == dim:
            return s


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.integers(min_value=0, max_value=2**32))
def test_superspaces_match_superspace_scan(q, seed):
    # one and two dimensions up from a random subspace of each dimension,
    # against the scan over every outside point, as tuples in order
    ctx = FieldCtx.of(q)
    rng = random.Random(seed)
    # keep the point count of F_q^v at most 156
    v = rng.randrange(1, {2: 7, 3: 5, 4: 4, 5: 4, 8: 3, 9: 3}[q] + 1)
    for dim in range(v):
        b = random_subspace(rng, v, dim, ctx)
        for k in range(dim + 1, min(dim + 2, v) + 1):
            assert superspaces(b, k) == superspaces_scan(b, k)
        assert len(superspaces(b, dim + 1)) == gaussian_coefficient(v - dim, 1, q)


def test_superspaces_of_zero_are_the_trivial_design():
    # the zero subspace's k-superspaces are all k-subspaces, in block order;
    # the full space has none
    for q, v in [(2, 4), (2, 5), (3, 3), (4, 3), (5, 2)]:
        ctx = FieldCtx.of(q)
        zero = subspace([], v, ctx)
        for k in range(1, v + 1):
            assert superspaces(zero, k) == trivial_design(0, v, k, ctx).blocks
        with pytest.raises(ValueError, match="proper extension"):
            superspaces(next(enumerate_subspaces(v, v, ctx)), v)


def test_superspaces_rejects_non_extension(gf2):
    b = subspace([(1, 0, 0)], 3, gf2)
    with pytest.raises(ValueError, match="proper extension"):
        superspaces(b, 1)


def test_contains_examples(gf2):
    s = subspace([(1, 0, 0), (0, 1, 0)], 3, gf2)
    assert contains(s, s)
    assert contains(s, subspace([], 3, gf2))
    assert contains(s, subspace([(1, 0, 0)], 3, gf2))
    assert not contains(s, subspace([(0, 0, 1)], 3, gf2))


@pytest.mark.parametrize("q,v", [(2, 4), (3, 3), (4, 3)])
def test_subspace_contains_matches_point_masks(q, v):
    # every pair of subspaces of F_q^v: t lies in s iff t's rows add nothing
    # to the rank of s's (the tuple RREF), iff every point of t is a point
    # of s
    ctx = FieldCtx.of(q)
    subs = [s for k in range(v + 1) for s in enumerate_subspaces(v, k, ctx)]
    for s in subs:
        for t in subs:
            assert contains(s, t) == (len(rref_tuples(s.gen + t.gen, v, ctx)) == s.k)


def test_subspaces_of_counts(gf2, gf4):
    s = subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4, gf2)
    subs = list(subspaces_of(s, 2))
    assert len(subs) == gaussian_coefficient(3, 2, 2)
    assert len(set(x.gen for x in subs)) == len(subs)
    for t in subs:
        assert contains(s, t)

    s4 = next(iter(enumerate_subspaces(3, 2, gf4)))
    assert sum(1 for _ in subspaces_of(s4, 1)) == gaussian_coefficient(2, 1, 4)


def test_rref_canonicalizes_dependent_rows(gf4):
    # second row is 2 * first
    got = rref_gfq([(2, 2, 0), (3, 3, 0)], gf4)
    assert got == ((1, 1, 0),)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_gfq_matches_tuple_oracle(data):
    # zero rows, dependent rows (combinations of earlier rows) and more
    # rows than coordinates
    q = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9, 16]))
    ctx = FieldCtx.of(q)
    v = data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(0, q - 1), min_size=v, max_size=v)
    rows = []
    for _ in range(data.draw(st.integers(0, v + 3))):
        kind = data.draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            rows.append((0,) * v)
        elif kind == "dependent" and rows:
            row = (0,) * v
            for other in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = data.draw(st.integers(0, q - 1))
                row = vec_add(row, vec_scale(c, other, ctx), ctx)
            rows.append(row)
        else:
            rows.append(tuple(data.draw(entries)))
    want = rref_tuples(rows, v, ctx)
    assert rref_gfq(rows, ctx) == want
    assert rref_gfq(reversed(rows), ctx) == want
    assert subspace(rows, v, ctx).rows == want


def test_point_space_lookups_neither_hash_nor_compare_contexts(monkeypatch):
    # Each context keeps its own point spaces.  A loaded design's context and
    # a caller's FieldCtx.of(2) are equal, distinct objects; building the
    # projective version hashes and compares neither of them per block.
    load_subspace_design(
        Path(__file__).resolve().parents[1] / "perfbench" / "designs" / "2-7-3-3_2.qdesign"
    )
    calls = []
    eq, hash_ = FieldCtx.__eq__, FieldCtx.__hash__
    monkeypatch.setattr(FieldCtx, "__eq__", lambda a, b: calls.append("eq") or eq(a, b))
    monkeypatch.setattr(FieldCtx, "__hash__", lambda a: calls.append("hash") or hash_(a))
    counts = []
    for k in (2, 4):  # 2667 and 11811 blocks
        calls.clear()
        projective_version(trivial_design(2, 7, k, FieldCtx.of(2)))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
