import itertools
import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from designcodes import designs
from designcodes.designs import (
    MODES,
    CombinatorialDesign,
    SubspaceDesign,
    VerifyResult,
    affine_version,
    construct,
    construction_params,
    derive_params_comb,
    derive_params_q,
    dumps_comb_design,
    dumps_subspace_design,
    flats_construction,
    load_comb_design,
    load_subspace_design,
    loads_comb_design,
    loads_subspace_design,
    projective_version,
    trivial_design,
    verify_comb_design,
    verify_subspace_design,
)
from designcodes.field import FieldCtx, PrimeMatrix, matrix_rank
from designcodes.pspace import gaussian_coefficient, points_mask
from designcodes.tables import TableRowSpec, comb_design_params

from .oracles import (
    affine_blocks,
    comb_design_blocks,
    flats_blocks,
    naive_comb_design_counts,
    pack_blocks,
    projective_walk,
    verify_scan,
)

FANO_BLOCKS = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)]


def fano():
    return CombinatorialDesign(n=7, t=2, k=3, lam=1, masks=pack_blocks(FANO_BLOCKS))


def test_derive_params_q_examples():
    p = derive_params_q(2, 6, 3, 3, 2)
    assert p.r == 31 and p.b == 279 and p.admissible
    assert derive_params_q(0, 5, 2, 4, 2).b == 4  # lambda_0 = b = lambda when t=0
    assert derive_params_q(2, 7, 3, 21, 4).r == 5733


def test_derive_params_q_inadmissible():
    p = derive_params_q(2, 8, 3, 1, 2)  # lambda_0 = 10795/7, lambda_1 = 127/3
    assert not p.admissible
    assert p.violated_divisibility() == "lambda_0 = 10795/7"
    with pytest.raises(ValueError, match="lambda_1"):
        p.r


def test_derive_params_comb_examples():
    p = derive_params_comb(3, 8, 4, 1)
    assert p.r == 7 and p.b == 14
    p2 = derive_params_comb(2, 7, 3, 1)
    assert p2.r == 3 and p2.b == 7
    for t, n, k, lam in [(2, 10, 4, 3), (3, 8, 4, 1)]:
        assert derive_params_comb(t, n, k, lam).lambda_s(t) == lam


def test_trivial_design_examples(gf2):
    d = trivial_design(2, 3, 2, gf2)
    assert d.lam == 1 and len(d.blocks) == 7
    d2 = trivial_design(2, 6, 3, gf2)
    assert d2.lam == 15 and len(d2.blocks) == 1395
    d3 = trivial_design(3, 5, 3, gf2)
    assert d3.lam == 1  # t = k


def test_verify_trivial_designs(gf2):
    for t, v, k in [(2, 4, 2), (2, 5, 3), (1, 4, 2), (0, 3, 2)]:
        d = trivial_design(t, v, k, gf2)
        res = verify_subspace_design(d)
        assert res.verified
        assert res.observed_lambda == gaussian_coefficient(v - t, k - t, 2)


def test_verify_catches_deleted_block(gf2):
    d = trivial_design(2, 4, 2, gf2)
    broken = SubspaceDesign(
        ctx=gf2, t=2, v=4, k=2, lam=d.lam, blocks=d.blocks[1:]
    )
    res = verify_subspace_design(broken)
    assert not res.verified
    assert res.witness is not None
    t_sub, count = res.witness
    assert count == d.lam - 1
    # the witness really is under-covered
    tmask = points_mask(t_sub)
    assert sum(1 for b in broken.blocks if tmask & ~points_mask(b) == 0) == count


def test_verify_detects_wrong_lambda_but_constant(gf2):
    d = trivial_design(2, 4, 2, gf2)
    wrong = SubspaceDesign(ctx=gf2, t=2, v=4, k=2, lam=5, blocks=d.blocks)
    res = verify_subspace_design(wrong)
    assert not res.verified
    assert res.observed_lambda == 1


def test_duplicate_blocks_rejected(gf2):
    d = trivial_design(2, 3, 2, gf2)
    with pytest.raises(ValueError, match="duplicate"):
        SubspaceDesign(
            ctx=gf2, t=2, v=3, k=2, lam=1, blocks=d.blocks + (d.blocks[0],)
        )
    with pytest.raises(ValueError, match="duplicate"):
        CombinatorialDesign(n=4, t=1, k=2, lam=1, masks=pack_blocks(((0, 1), (1, 0))))


def test_verify_comb_fano():
    d = fano()
    res = verify_comb_design(d)
    assert res.verified and res.observed_lambda == 1
    counts = naive_comb_design_counts(7, 2, FANO_BLOCKS)
    assert set(counts.values()) == {1}


def test_verify_comb_t0():
    d = CombinatorialDesign(n=4, t=0, k=2, lam=6, masks=pack_blocks({
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    }))
    res = verify_comb_design(d)
    assert res.verified and res.observed_lambda == 6  # lambda_0 = b


def test_projective_version_fano(gf2):
    d = trivial_design(2, 3, 2, gf2)
    proj = projective_version(d)
    assert (proj.n, proj.k, proj.lam, proj.t) == (7, 3, 1, 2)
    assert len(proj.blocks) == len(d.blocks)
    assert verify_comb_design(proj).verified


def test_projective_version_parameters(gf2):
    d = trivial_design(2, 5, 3, gf2)
    proj = projective_version(d)
    assert (proj.n, proj.k, proj.lam) == (31, 7, 7)
    assert verify_comb_design(proj).verified


@pytest.mark.parametrize(
    "q, v, k", [(2, 3, 2), (2, 5, 3), (2, 6, 4), (3, 3, 2), (3, 4, 2), (4, 3, 2), (4, 4, 3)]
)
def test_projective_version_matches_walk(q, v, k):
    # q = 2 builds a complete design's masks by the hyperplane product,
    # other q walk each block; both equal the walk-built reference, also
    # for a complete design given as explicit blocks and for one block less
    ctx = FieldCtx.of(q)
    full = loads_subspace_design(dumps_subspace_design(trivial_design(2, v, k, ctx)))
    broken = SubspaceDesign(ctx, 2, v, k, full.lam, full.blocks[:-1])
    assert full.complete and not broken.complete
    for d in (trivial_design(2, v, k, ctx), full):
        assert projective_version(d) == projective_walk(d)
    assert projective_version(broken) == projective_walk(broken)
    assert len(projective_version(broken).masks) == len(full.blocks) - 1


def test_projective_needs_t2(gf2):
    d = trivial_design(1, 3, 2, gf2)
    with pytest.raises(ValueError, match="t >= 2"):
        projective_version(d)


def test_affine_version_examples(gf2):
    d = trivial_design(2, 4, 3, gf2)
    aff = affine_version(d)
    assert (aff.n, aff.k, aff.lam) == (8, 4, 3)
    assert aff.params().r == 7
    assert verify_comb_design(aff).verified

    d2 = trivial_design(2, 3, 2, gf2)
    aff2 = affine_version(d2)
    assert (aff2.n, aff2.k, aff2.lam) == (4, 2, 1)
    assert set(aff2.blocks) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert aff2.params().r == 3


def test_affine_blocks_have_coset_size(gf2, gf4):
    for ctx, v, k in [(gf2, 5, 3), (gf4, 3, 2)]:
        aff = affine_version(trivial_design(2, v, k, ctx))
        q = ctx.q
        assert all(len(b) == q ** (k - 1) for b in aff.blocks)
        assert verify_comb_design(aff).verified


def test_affine_alternative_hyperplane(gf2):
    d = trivial_design(2, 4, 3, gf2)
    default = affine_version(d)
    other = affine_version(d, hyperplane=(0, 1, 1, 0))
    # derived parameters do not depend on the hyperplane
    assert (other.n, other.k, other.lam) == (default.n, default.k, default.lam)
    assert verify_comb_design(other).verified
    with pytest.raises(ValueError, match="nonzero"):
        affine_version(d, hyperplane=(0, 0, 0, 0))


def test_flats_construction_small(gf2):
    d = trivial_design(2, 3, 2, gf2)
    fl = flats_construction(d)
    assert (fl.n, fl.t, fl.k, fl.lam) == (8, 3, 4, 1)
    assert len(fl.blocks) == 14
    assert fl.params().r == 7
    assert verify_comb_design(fl).verified


def test_flats_each_block_contributes_cosets(gf2):
    d = trivial_design(2, 4, 2, gf2)
    fl = flats_construction(d)
    assert len(fl.blocks) == len(d.blocks) * 2 ** (4 - 2)
    assert verify_comb_design(fl).verified


def test_flats_requires_q2(gf4):
    d = trivial_design(2, 3, 2, gf4)
    with pytest.raises(ValueError, match="q = 2"):
        flats_construction(d)


@pytest.mark.parametrize(
    "v,k,q",
    [(v, k, 2) for v in range(2, 6) for k in range(2, v + 1)]
    + [(v, k, 4) for v in range(2, 5) for k in range(2, v + 1)],
)
def test_theorem_constructions_verify(v, k, q):
    ctx = FieldCtx.of(q)
    d = trivial_design(2, v, k, ctx)
    lam2 = d.params().lambda_s(2)

    proj = projective_version(d)
    assert (proj.n, proj.k, proj.lam) == (
        gaussian_coefficient(v, 1, q),
        gaussian_coefficient(k, 1, q),
        lam2,
    )
    assert verify_comb_design(proj).verified

    aff = affine_version(d)
    assert (aff.n, aff.k, aff.lam) == (q ** (v - 1), q ** (k - 1), lam2)
    assert verify_comb_design(aff).verified

    if q == 2:
        fl = flats_construction(d)
        assert (fl.n, fl.t, fl.k, fl.lam) == (2**v, 3, 2**k, lam2)
        assert verify_comb_design(fl).verified


@pytest.mark.parametrize(
    "q,t,mode",
    [(q, t, m) for q in (2, 3, 4) for t in (2, 3) for m in MODES if m != "flats" or q == 2],
)
def test_constructions_yield_the_table_parameters(q, t, mode):
    # the design each construction builds has the parameters the code table
    # reports for it, and is a design with them (flats: q = 2 only)
    v, k = 4, 3
    d = trivial_design(t, v, k, FieldCtx.of(q))
    built = construct(d, mode)
    want = comb_design_params(TableRowSpec(t, v, k, d.lam, q, mode))
    assert (built.n, built.t, built.k, built.lam) == (want.v, want.t, want.k, want.lam)
    assert verify_comb_design(built).verified


@pytest.mark.parametrize("v,k", [(4, 3), (5, 4)])
def test_affine_version_of_t3_design_is_3design(v, k, gf2):
    # a t=3 design's affine blocks also form a 3-design with lambda_3
    d = trivial_design(3, v, k, gf2)
    lam3 = d.params().lambda_s(3)
    aff = affine_version(d)
    as_3design = CombinatorialDesign(
        n=aff.n, t=3, k=aff.k, lam=lam3, masks=aff.masks
    )
    res = verify_comb_design(as_3design)
    assert res.verified and res.observed_lambda == lam3


def test_hamada_divisibility(gf2):
    # p not dividing r(r - lambda) forces full rank; small rank forces p | r - lambda
    designs = [
        fano(),
        projective_version(trivial_design(2, 4, 2, gf2)),
        affine_version(trivial_design(2, 4, 3, gf2)),
    ]
    for d in designs:
        assert verify_comb_design(d).verified
        params = derive_params_comb(2, d.n, d.k, d.lam)
        r, lam = params.r, d.lam
        rows = [[1 if i in blk else 0 for i in range(d.n)] for blk in d.blocks]
        for p in (2, 3, 5):
            rank = matrix_rank(PrimeMatrix.from_rows(rows, max(p, 2), d.n), p)
            if r * (r - lam) % p != 0:
                assert rank == d.n
            if rank < d.n - 1:
                assert (r - lam) % p == 0


def test_qdesign_file_roundtrip(tmp_path, gf2):
    d = trivial_design(2, 4, 2, gf2)
    text = dumps_subspace_design(d)
    again = loads_subspace_design(text)
    assert again == d
    assert dumps_subspace_design(again) == text


def test_qdesign_file_canonicalizes_and_comments(gf2):
    text = (
        "# a comment\n"
        "qdesign t=2 v=3 k=2 lambda=1 q=2 poly=2\n"
        "1 1 0 ; 1 0 1  # non-RREF generators\n"
    )
    d = loads_subspace_design(text)
    assert d.blocks[0].gen == ((1, 0, 1), (0, 1, 1))


def test_qdesign_file_rejects_bad_blocks():
    with pytest.raises(ValueError, match="span"):
        loads_subspace_design("qdesign t=2 v=3 k=2 lambda=1 q=2 poly=2\n1 1 0 ; 1 1 0\n")
    with pytest.raises(ValueError, match="duplicate"):
        loads_subspace_design(
            "qdesign t=2 v=3 k=2 lambda=1 q=2 poly=2\n"
            "1 0 0 ; 0 1 0\n"
            "1 1 0 ; 0 1 0\n"
        )
    with pytest.raises(ValueError, match="header"):
        loads_subspace_design("cdesign t=2 n=3 k=2 lambda=1\n0 1\n")


def test_design_files_name_the_bad_line_and_reject_negative_counts():
    header = "qdesign t=2 v=3 k=2 lambda=1 q=2 poly=2\n"
    with pytest.raises(ValueError, match="line 3: 'y' is not an integer"):
        loads_subspace_design(header + "1 0 0 ; 0 1 0\n1 0 0 ; 0 1 y\n")
    with pytest.raises(ValueError, match="line 2: block has 1 generators, expected 2"):
        loads_subspace_design(header + "1 0 0\n")
    with pytest.raises(ValueError, match="line 4: '1.5' is not an integer"):
        loads_comb_design("cdesign t=2 n=3 k=2 lambda=1\n0 1\n# comment\n1 1.5\n")
    for key in ("t", "v", "k", "lambda"):
        text = header.replace(f" {key}=", f" {key}=-")
        with pytest.raises(ValueError, match=f"'{key}=-[0-9]+' is negative"):
            loads_subspace_design(text)
    for key in ("t", "n", "k", "lambda"):
        text = "cdesign t=2 n=3 k=2 lambda=1\n".replace(f" {key}=", f" {key}=-")
        with pytest.raises(ValueError, match=f"'{key}=-[0-9]+' is negative"):
            loads_comb_design(text)


def test_file_loaders_name_the_file(tmp_path):
    files = {
        "d.qdesign": (
            "qdesign t=2 v=3 k=2 lambda=1 q=2 poly=2\n1 0 0 ; 0 1 y\n",
            load_subspace_design,
        ),
        "d.cdesign": ("cdesign t=2 n=3 k=2 lambda=1\n0 y\n", load_comb_design),
        "m.pmatrix": ("pmatrix rows=1 cols=3 p=2\n1y1\n", PrimeMatrix.load),
    }
    for name, (text, load) in files.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: line 2: 'y' is not an integer"


def test_cdesign_file_roundtrip():
    d = fano()
    text = dumps_comb_design(d)
    again = loads_comb_design(text)
    assert again == d
    assert dumps_comb_design(again) == text


def test_qdesign_q4_roundtrip(gf4):
    d = trivial_design(2, 3, 2, gf4)
    again = loads_subspace_design(dumps_subspace_design(d))
    assert again == d
    assert again.ctx.modulus == 7


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_verify_matches_naive_counts(rng):
    # drop a random subset of Fano blocks; per-pair counts must match oracle
    keep = [b for b in FANO_BLOCKS if rng.random() < 0.7]
    if not keep:
        keep = [FANO_BLOCKS[0]]
    naive = naive_comb_design_counts(7, 2, keep)
    d = CombinatorialDesign(n=7, t=2, k=3, lam=1, masks=pack_blocks(keep))
    res = verify_comb_design(d)
    assert res.verified == (set(naive.values()) == {1})
    if not res.verified and isinstance(res.observed_lambda, int):
        assert set(naive.values()) == {res.observed_lambda}


# Differential tests: verification by point columns against the former
# tallying loop (tests/oracles.py), field for field, witness included.

# (q, t, v, k) of the trivial designs whose block subsets are verified
TRIVIAL_CASES = [
    (q, t, v, k)
    for q, vmax in ((2, 5), (3, 4), (4, 3))
    for v in range(vmax + 1)
    for k in range(v + 1)
    for t in range(min(k, 3) + 1)
]


@lru_cache(maxsize=None)
def _trivial_blocks(q, v, k):
    return trivial_design(0, v, k, FieldCtx.of(q)).blocks


@lru_cache(maxsize=None)
def _constructions():
    out = []
    for q, v, k in ((2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 3), (3, 3, 2), (4, 3, 2)):
        d = trivial_design(2, v, k, FieldCtx.of(q))
        out += [projective_version(d), affine_version(d)]
        if q == 2:
            out.append(flats_construction(d))
    return tuple(out)


def _lambda_and_subset(data, blocks, full_lam):
    """A design lambda and a random subset of `blocks`: all, all but a few,
    about half, or none."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    drop = min(len(blocks), data.draw(st.sampled_from([0, 1, 2, len(blocks) // 2, len(blocks)])))
    lam = data.draw(st.one_of(st.just(full_lam), st.integers(1, full_lam + 1)))
    return lam, tuple(rng.sample(blocks, len(blocks) - drop))


def _assert_same_result(design):
    want = verify_scan(design)
    if isinstance(design, SubspaceDesign):
        got = verify_subspace_design(design)
    else:
        got = verify_comb_design(design)
    assert got.verified == want.verified
    assert got.observed_lambda == want.observed_lambda
    assert got.witness == want.witness


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TRIVIAL_CASES), st.data())
def test_verify_subspace_design_matches_scan(case, data):
    q, t, v, k = case
    blocks = _trivial_blocks(q, v, k)
    lam, kept = _lambda_and_subset(data, blocks, gaussian_coefficient(v - t, k - t, q))
    _assert_same_result(SubspaceDesign(ctx=FieldCtx.of(q), t=t, v=v, k=k, lam=lam, blocks=kept))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_comb_design_matches_scan(data):
    if data.draw(st.booleans()):
        base = data.draw(st.sampled_from(_constructions()))
        n, k, t, blocks, full_lam = base.n, base.k, base.t, base.blocks, base.lam
    else:
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(0, n))
        t = data.draw(st.integers(0, min(k, 3)))
        blocks = tuple(itertools.combinations(range(n), k))
        full_lam = comb(n - t, k - t)
    lam, kept = _lambda_and_subset(data, blocks, full_lam)
    _assert_same_result(CombinatorialDesign(n=n, t=t, k=k, lam=lam, masks=pack_blocks(kept)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cdesign_loader_matches_tuple_oracle(data):
    # point tuples enter through the cdesign loader alone: against the former
    # tuple constructor, on valid and malformed block lines (wrong size,
    # repeated point, point out of range, duplicate block, no blocks, k = 0),
    # the same blocks in the same order, or the same ValueError text, with
    # the file line of a bad block in front
    n = data.draw(st.integers(0, 8), label="n")
    k = data.draw(st.integers(0, n), label="k")
    t = data.draw(st.integers(0, min(k, 3)), label="t")
    malformed = st.lists(st.integers(-2, n + 1), min_size=max(k - 1, 1), max_size=k + 1)
    if k:
        valid = st.permutations(range(n)).map(lambda perm: tuple(perm[:k]))
        block = st.one_of(valid, valid, malformed)
    else:
        block = malformed  # an empty block is a blank line, which a file skips
    blocks = data.draw(st.lists(block, max_size=6), label="blocks")
    if blocks and data.draw(st.booleans(), label="repeat a block"):
        again = tuple(reversed(data.draw(st.sampled_from(blocks))))
        blocks.insert(data.draw(st.integers(0, len(blocks))), again)
    text = f"cdesign t={t} n={n} k={k} lambda=1\n# blocks\n"
    text += "".join(" ".join(map(str, blk)) + "\n" for blk in blocks)
    try:
        want = comb_design_blocks(n, t, k, blocks)
    except ValueError as err:
        expected = str(err)
        if not expected.startswith("duplicate"):
            bad = next(i for i, blk in enumerate(blocks) if _bad_tuple(n, t, k, blk))
            expected = f"line {bad + 3}: {expected}"
        with pytest.raises(ValueError) as got:
            loads_comb_design(text)
        assert str(got.value) == expected
        return
    d = loads_comb_design(text)
    assert d.blocks == want
    assert d.masks == tuple(sum(1 << i for i in blk) for blk in want)
    assert CombinatorialDesign(n, t, k, 1, reversed(d.masks)) == d


def _bad_tuple(n, t, k, blk):
    try:
        comb_design_blocks(n, t, k, [blk])
    except ValueError:
        return True
    return False


def test_cdesign_header_sizes_are_checked_after_the_blocks():
    # the constructor checks (n, t, k) once the loader has read the blocks:
    # with no bad block a bad header is named, else the first bad line is
    with pytest.raises(ValueError, match=r"^need 0 <= t <= k <= n$"):
        loads_comb_design("cdesign t=3 n=4 k=2 lambda=1\n0 1\n")
    with pytest.raises(ValueError, match=r"^need 0 <= t <= k <= n$"):
        loads_comb_design("cdesign t=1 n=2 k=3 lambda=1\n")
    with pytest.raises(ValueError) as err:
        loads_comb_design("cdesign t=1 n=2 k=3 lambda=1\n0 1 2\n")
    assert str(err.value) == "line 2: block (0, 1, 2) has points outside [0, 2)"


# (q, v, k) of the trivial designs whose blocks the construction tests below
# sample: every field size the constructions meet, small spaces
AFFINE_CASES = [
    (2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 3), (3, 3, 2), (3, 4, 3),
    (4, 3, 2), (4, 4, 3), (5, 3, 2), (8, 3, 2),
]


def _sampled_design(data, q, v, k):
    """A 2-(v, k, lambda)_q design value over a random subset of the
    k-subspaces; lambda is the trivial design's, so lambda_2 is integral."""
    lam = gaussian_coefficient(v - 2, k - 2, q)
    _, kept = _lambda_and_subset(data, _trivial_blocks(q, v, k), lam)
    return SubspaceDesign(ctx=FieldCtx.of(q), t=2, v=v, k=k, lam=lam, blocks=kept)


def _assert_affine_matches_oracle(design, normal):
    try:
        want = affine_blocks(design, normal)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            affine_version(design, hyperplane=normal)
        assert str(got.value) == str(err)
        return
    got = affine_version(design, hyperplane=normal)
    n, k, lam = design.q ** (design.v - 1), design.q ** (design.k - 1), design.params().lambda_s(2)
    assert got.blocks == comb_design_blocks(n, 2, k, want)
    expected = CombinatorialDesign(n=n, t=2, k=k, lam=lam, masks=pack_blocks(want))
    assert dumps_comb_design(got) == dumps_comb_design(expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(AFFINE_CASES), st.data())
def test_affine_version_matches_tuple_oracle(case, data):
    # the point-mask chart against the former tuple construction, on random
    # block subsets and random normals (default, nonzero, or malformed:
    # wrong length, zero, entries outside the field): the same design file,
    # or the same ValueError text
    q, v, k = case
    design = _sampled_design(data, q, v, k)
    kind = data.draw(st.sampled_from(["default", "normal", "normal", "bad"]), label="kind")
    normal = None
    if kind == "normal":
        normal = data.draw(st.lists(st.integers(0, q - 1), min_size=v, max_size=v).filter(any))
    elif kind == "bad":
        normal = data.draw(
            st.one_of(
                st.lists(st.integers(0, q - 1), max_size=v + 1).filter(
                    lambda a: len(a) != v or not any(a)
                ),
                st.lists(st.integers(-1, q), min_size=v, max_size=v).filter(
                    lambda a: -1 in a or q in a
                ),
            )
        )
    _assert_affine_matches_oracle(design, normal)


@pytest.mark.parametrize(
    "q,v,k,normal",
    [
        (2, 4, 3, (0, 0, 1, 1)), (3, 3, 2, (0, 2, 1)), (3, 4, 3, (0, 0, 2, 2)),
        (4, 3, 2, (0, 3, 2)), (5, 3, 2, (0, 0, 4)), (8, 3, 2, (0, 5, 7)),
        (4, 4, 3, (3, 1, 0, 2)),
    ],
)
def test_affine_version_matches_tuple_oracle_off_the_default_chart(q, v, k, normal):
    # normals whose first nonzero entry is not 1, most with j0 > 0, on the
    # full trivial design
    _assert_affine_matches_oracle(trivial_design(2, v, k, FieldCtx.of(q)), normal)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([case for case in AFFINE_CASES if case[0] == 2]), st.data())
def test_flats_construction_matches_tuple_oracle(case, data):
    # coset masks against the former sorted tuple cosets: the same file
    design = _sampled_design(data, *case)
    got = flats_construction(design)
    n, k, lam = 1 << design.v, 1 << design.k, design.params().lambda_s(2)
    want = flats_blocks(design)
    assert got.blocks == comb_design_blocks(n, 3, k, want)
    expected = CombinatorialDesign(n=n, t=3, k=k, lam=lam, masks=pack_blocks(want))
    assert dumps_comb_design(got) == dumps_comb_design(expected)


# every q = 2 trivial design with v <= 7 and 2 <= k < v; v = 7 takes seconds
Q2_COMPLETE = [
    pytest.param(v, k, marks=pytest.mark.slow) if v == 7 else (v, k)
    for v in range(3, 8)
    for k in range(2, v)
]


@lru_cache(maxsize=None)
def _listed_constructions(v, k):
    """The three constructions of the trivial 2-(v, k)_2 design, built by the
    oracles from its listed blocks: each block's walked point mask, its
    coordinate-tuple affine chart and its sorted tuple cosets."""
    design = trivial_design(2, v, k, FieldCtx.of(2))
    out = {"projective": projective_walk(design)}
    for mode, blocks in (("affine", affine_blocks(design)), ("flats", flats_blocks(design))):
        p = construction_params(design.params(), mode)
        out[mode] = CombinatorialDesign(p.v, p.t, p.k, p.lam, pack_blocks(blocks))
    return out


@pytest.mark.parametrize("v, k", Q2_COMPLETE)
def test_complete_q2_constructions_match_the_listed_blocks(gf2, v, k):
    # a complete q = 2 design's masks come from the hyperplane product in
    # every mode; the design each mode builds equals the oracles' from the
    # listed blocks, and verification passes with the trivial lambda
    want = _listed_constructions(v, k)
    for mode in MODES:
        assert construct(trivial_design(2, v, k, gf2), mode) == want[mode], mode
    design = trivial_design(2, v, k, gf2)
    assert verify_subspace_design(design) == VerifyResult(True, design.lam, None)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_complete_q2_design_is_never_listed(monkeypatch, gf2, k):
    # no construction and no check lists the blocks of a complete q = 2
    # design: with the enumeration patched to raise, all still succeed
    want = _listed_constructions(6, k)

    def listed(*args):
        raise AssertionError("the blocks of a complete q = 2 design were listed")

    monkeypatch.setattr(designs, "enumerate_subspaces", listed)
    design = trivial_design(2, 6, k, gf2)
    for mode in MODES:
        assert construct(design, mode) == want[mode], mode
    assert verify_subspace_design(design) == VerifyResult(True, design.lam, None)
    with pytest.raises(AssertionError, match="were listed"):
        design.blocks


def test_constructor_rejects_malformed_masks():
    with pytest.raises(ValueError, match=r"need 0 <= t <= k <= n"):
        CombinatorialDesign(n=3, t=2, k=4, lam=1, masks=[])
    for bad, shown in [(0b1001, "0x9"), (0b111, "0x7"), (0b1, "0x1"), (-3, "-0x3")]:
        with pytest.raises(ValueError) as err:
            CombinatorialDesign(n=3, t=1, k=2, lam=1, masks=[0b011, bad, 0b101])
        assert str(err.value) == f"block mask {shown} is not a set of 2 points of [0, 3)"
    with pytest.raises(ValueError, match="duplicate block"):
        CombinatorialDesign(n=3, t=1, k=2, lam=1, masks=[0b011, 0b101, 0b011])
    d = CombinatorialDesign(n=3, t=1, k=2, lam=1, masks=[0b110, 0b011, 0b101])
    assert d.blocks == ((0, 1), (0, 2), (1, 2)) and d.masks == (0b011, 0b101, 0b110)
    assert CombinatorialDesign(n=3, t=0, k=0, lam=1, masks=[0]).blocks == ((),)
