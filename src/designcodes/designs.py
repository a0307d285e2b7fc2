"""Subspace designs and combinatorial designs.

Covers parameter arithmetic (derived lambdas, block count b, repetition
number r), the trivial design of the full subspace lattice, exhaustive
verification, and the three ways a subspace design yields a combinatorial
design (`MODES`): restriction to projective points, restriction to an
affine chart, and (for q = 2) the union of all parallel flats.  This module
owns what each mode yields: `construction_params` is the one table of the
combinatorial parameters per mode, which the constructions build from and
`tables` reports, and `construct` the one dispatch by mode name.  The
derived lambdas of subspace and combinatorial parameters come from one
quotient (`_derive_params`), which `tables.lambda_min` reads too.

A combinatorial design holds each block as its point mask (bit i set for
point i), from the point masks of the subspaces (`pspace.points_mask`) to
the check rows of its code and the columns of its decoder.  It has one
constructor, which takes point masks and checks them once; all three
constructions hand it masks.  Point tuples are read off the masks for
output, and tuple input, which comes only from `cdesign` files, is checked
line by line and packed by `loads_comb_design`.

A subspace design notes whether it is complete, holding every
k-subspace.  `trivial_design` makes the complete design without listing
it: its blocks are enumerated and sorted on the first read of `blocks`
and kept.  One helper, `_block_masks`, decides where a subspace design's
block point masks come from, and every construction and
`verify_subspace_design` reads it: a complete design at q = 2 takes them
from the hyperplane product (`pspace.subspace_masks_gf2`), so no
construction and no check lists its blocks; every other design, and every
design at q > 2, hands over its blocks' point masks.  The flats
construction reads each block's span off its mask, by the point space's
`vec_index`.

Designs are simple: duplicate blocks are a hard error, in files and in
constructors alike.  Verification is a separate explicit step, because it
visits every t-subspace (or t-subset) of the ambient space; its outcome is
the `VerifyResult` it returns, and the design, an immutable value, is left
as it was.  It transposes the block point masks once into point columns
(`field._columns`, bit i of column p set when block i contains point p),
so the blocks containing a set of points are the AND of their columns.
A t-subspace is read as the points of its canonical rows, walked straight
off `pspace._canonical_rows` at every q; only a witness becomes a
`Subspace`.

Both file writers, and the witness lines the command line prints, write
a block's line with one formatter, `block_line`.  A `qdesign` file at
q = 2 whose body is in exactly the layout `dumps_subspace_design` writes
(single `0`/`1` characters, single spaces, ` ; ` between generators) is
read in one pass: its lines are joined once, the layout is checked with
a few strided slices, every generator is packed from the one digit string
(`field.pack_text_rows`), and every block is reduced at once, one lane
per block (`field.rref_gf2_lanes`).  Any other body, a k = 0 body and
every body at q > 2 is read token by token (`field._ints`) and reduced by
`pspace.subspace`, line by line, so both reads give the same design and
the same errors.  A k = 0 design is not written at all: its one block,
the zero subspace, has no generators, and the blank line that would stand
for it reads back as no block.
"""

import itertools
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Sequence

from ._record import Record
from .field import (
    FieldCtx,
    _columns,
    _ints,
    _load_file,
    _parse_file,
    bit_positions,
    pack_text_rows,
    rref_gf2_lanes,
)
from .pspace import (
    Subspace,
    _canonical_rows,
    _row_point,
    enumerate_subspaces,
    gaussian_coefficient,
    point_space,
    points_mask,
    row_points,
    subspace,
    subspace_masks_gf2,
)

MODES = ("projective", "affine", "flats")


class DesignParams(Record):
    """Derived parameters of a (subspace or combinatorial) t-design.

    q is None for combinatorial parameters; lambdas[s] is the derived
    lambda_s for 0 <= s <= t, kept exact as Fractions.  Non-integrality of
    any derived value marks the parameter set inadmissible rather than
    raising.
    """

    _fields = ("t", "v", "k", "lam", "q", "lambdas")

    @property
    def admissible(self) -> bool:
        return all(x.denominator == 1 for x in self.lambdas)

    def lambda_s(self, s: int) -> int:
        val = self.lambdas[s]
        if val.denominator != 1:
            raise ValueError(
                f"lambda_{s} = {val} is not integral for lambda={self.lam}"
            )
        return int(val)

    @property
    def b(self) -> int:
        return self.lambda_s(0)

    @property
    def r(self) -> int:
        if self.t < 1:
            raise ValueError("repetition number needs t >= 1")
        return self.lambda_s(1)

    def violated_divisibility(self) -> str | None:
        for s, val in enumerate(self.lambdas):
            if val.denominator != 1:
                return f"lambda_{s} = {val}"
        return None


def derive_params_q(t: int, v: int, k: int, lam: int, q: int) -> DesignParams:
    """Derived lambdas of a t-(v,k,lam)_q subspace design (exact)."""
    return _derive_params(t, v, k, lam, q, "v")


def derive_params_comb(t: int, n: int, k: int, lam: int) -> DesignParams:
    """Derived lambdas of a combinatorial t-(n,k,lam) design (exact)."""
    return _derive_params(t, n, k, lam, None, "n")


def _derive_params(t: int, v: int, k: int, lam: int, q: int | None, v_name: str) -> DesignParams:
    """lambda_s = lam * N(v - s, t - s) / N(k - s, t - s) for 0 <= s <= t,
    N the Gaussian coefficient at q, or the binomial when q is None; the
    package's one derivation.  `v_name` names v in the range error."""
    if not 0 <= t <= k <= v:
        raise ValueError(f"need 0 <= t <= k <= {v_name}")
    if lam < 1:
        raise ValueError("lambda must be positive")

    def count(m: int, j: int) -> int:
        return comb(m, j) if q is None else gaussian_coefficient(m, j, q)

    lambdas = tuple(
        Fraction(lam * count(v - s, t - s), count(k - s, t - s)) for s in range(t + 1)
    )
    return DesignParams(t=t, v=v, k=k, lam=lam, q=q, lambdas=lambdas)


class SubspaceDesign(Record):
    """A set of k-subspaces of F_q^v, every t-subspace in lam of them.

    The constructor sorts the blocks by `pspace.row_points` and rejects
    duplicates.  `complete` notes whether the design holds every
    k-subspace, which for a simple design means [v, k]_q blocks.  The
    complete designs of `trivial_design` list their blocks on first read
    of `blocks`, in the same order, and keep them; at q = 2 the
    constructions and `verify_subspace_design` take a complete design's
    point masks from the hyperplane product (`pspace.subspace_masks_gf2`)
    and leave its blocks unlisted.
    """

    _fields = ("ctx", "t", "v", "k", "lam", "blocks")

    def __init__(
        self, ctx: FieldCtx, t: int, v: int, k: int, lam: int, blocks: tuple[Subspace, ...]
    ) -> None:
        if not 0 <= t <= k <= v:
            raise ValueError("need 0 <= t <= k <= v")
        for b in blocks:
            # identity first: blocks almost always share the design's context
            if b.v != v or (b.ctx is not ctx and b.ctx != ctx):
                raise ValueError("block lives in a different ambient space")
            if len(b.rows) != k:
                raise ValueError(f"block of dimension {b.k}, expected {k}")
        blocks = tuple(sorted(blocks, key=row_points(v, ctx)))
        for a, b in zip(blocks, blocks[1:]):
            if a.rows == b.rows:
                raise ValueError("duplicate block (designs are simple)")
        complete = len(blocks) == gaussian_coefficient(v, k, ctx.q)
        self.__dict__.update(ctx=ctx, t=t, v=v, k=k, lam=lam, _blocks=blocks, complete=complete)

    @property
    def blocks(self) -> tuple[Subspace, ...]:
        """The blocks, sorted by `row_points`.  A `trivial_design` enumerates
        every k-subspace here on the first read and keeps them."""
        blocks = self.__dict__.get("_blocks")
        if blocks is None:
            v, ctx = self.v, self.ctx
            blocks = tuple(sorted(enumerate_subspaces(v, self.k, ctx), key=row_points(v, ctx)))
            self.__dict__["_blocks"] = blocks
        return blocks

    @property
    def masks(self) -> tuple[int, ...]:
        """The blocks' point masks (`pspace.points_mask`), in block order."""
        return tuple(map(points_mask, self.blocks))

    @property
    def q(self) -> int:
        return self.ctx.q

    def params(self) -> DesignParams:
        return derive_params_q(self.t, self.v, self.k, self.lam, self.q)


# byte b with its 8 bits in reverse order
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class CombinatorialDesign(Record):
    """Blocks of size k on ground set [0, n), every t-subset in lam of them.

    Each block is held as its point mask, an n-bit int with bit i set for
    point i.  The constructor takes the masks in any order and checks them
    once: each must be a set of k points of [0, n), and no block may come
    twice.  `masks` lists them in the lexicographic order of the blocks'
    sorted point tuples, and `blocks` gives those tuples, read off the masks
    on first use.  Point tuples enter only through `loads_comb_design`.
    """

    _fields = ("n", "t", "k", "lam", "masks")

    def __init__(self, n: int, t: int, k: int, lam: int, masks) -> None:
        if not 0 <= t <= k <= n:
            raise ValueError("need 0 <= t <= k <= n")
        masks = list(masks)
        if masks and (min(masks) < 0 or max(masks) >> n or {*map(int.bit_count, masks)} != {k}):
            bad = next(m for m in masks if m < 0 or m >> n or m.bit_count() != k)
            raise ValueError(f"block mask {bad:#x} is not a set of {k} points of [0, {n})")
        # Of two k-sets, the one holding the lowest point where they differ
        # comes first in the lexicographic order of sorted tuples.  With the
        # bits of each byte reversed, a mask's little-endian bytes hold point
        # 0 in the top bit of the first byte, so that set has the larger key.
        width = (n + 7) // 8
        masks.sort(key=lambda m: m.to_bytes(width, "little").translate(_REVERSED), reverse=True)
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate block (designs are simple)")
        self.__dict__.update(n=n, t=t, k=k, lam=lam, masks=tuple(masks))

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as sorted point tuples, in the order of `masks`,
        computed on first use and kept."""
        blocks = self.__dict__.get("_blocks")
        if blocks is None:
            blocks = self.__dict__["_blocks"] = tuple(map(bit_positions, self.masks))
        return blocks

    def params(self) -> DesignParams:
        return derive_params_comb(self.t, self.n, self.k, self.lam)


class VerifyResult(Record):
    """Outcome of a design check.  `observed_lambda` is an int, or
    "non-constant"; on failure `witness` is (t-subspace or t-subset, count)."""

    _fields = ("verified", "observed_lambda", "witness")


def trivial_design(t: int, v: int, k: int, ctx: FieldCtx) -> SubspaceDesign:
    """All k-subspaces of F_q^v: the t-(v, k, [v-t, k-t]_q)_q design.

    The parameters are checked here, but the blocks are enumerated only on
    the first read of `blocks`; the design equals the one the constructor
    makes of every k-subspace.  At q = 2 no construction and no check
    lists them (`_block_masks`).
    """
    if not 0 <= t <= k <= v:
        raise ValueError("need 0 <= t <= k <= v")
    design = SubspaceDesign.__new__(SubspaceDesign)
    lam = gaussian_coefficient(v - t, k - t, ctx.q)
    design.__dict__.update(ctx=ctx, t=t, v=v, k=k, lam=lam, complete=True)
    return design


def _block_masks(design: SubspaceDesign) -> Sequence[int]:
    """The point masks of the design's blocks, the one source every
    construction and check reads: for a complete design at q = 2 the
    hyperplane product (`pspace.subspace_masks_gf2`), in no fixed order
    and with its blocks unlisted; otherwise `design.masks`, in block
    order."""
    if design.q == 2 and design.complete:
        return subspace_masks_gf2(design.v, design.k, design.ctx)
    return design.masks


def verify_subspace_design(design: SubspaceDesign) -> VerifyResult:
    """Count, for every t-subspace, the blocks containing it.

    A block contains a t-subspace T iff it contains the points of T's
    canonical generator rows (`pspace._row_point`), so T's count is the
    popcount of the AND of those points' columns, transposed from the
    masks of `_block_masks`.  The canonical rows of every t-subspace are
    walked as they are enumerated (`pspace._canonical_rows`); only a
    witness becomes a `Subspace`.  On failure the witness is the first
    t-subspace (in canonical enumeration order) with an off count.
    """
    ctx, v = design.ctx, design.v
    n = gaussian_coefficient(v, 1, design.q)
    row_point = _row_point(v, ctx)
    cases = ((rows, map(row_point, rows)) for rows in _canonical_rows(v, design.t, design.q))
    result = _count_containments(design.lam, n, _block_masks(design), cases)
    if result.witness is None:
        return result
    rows, c = result.witness
    return VerifyResult(result.verified, result.observed_lambda, (Subspace(ctx, v, rows), c))


def verify_comb_design(design: CombinatorialDesign) -> VerifyResult:
    """Count, for every t-subset, the blocks containing it: the popcount of
    the AND of its points' columns.  On failure the witness is the first
    t-subset (in lexicographic order) with an off count."""
    cases = ((sub, sub) for sub in itertools.combinations(range(design.n), design.t))
    return _count_containments(design.lam, design.n, design.masks, cases)


def _count_containments(lam: int, n: int, block_masks, cases) -> VerifyResult:
    """Check every case against `lam`.

    `block_masks` are the blocks as n-bit point masks; `cases` yields each
    t-subspace or t-subset, in canonical order, with its point indices.
    """
    columns = _columns(block_masks, n)
    every_block = (1 << len(block_masks)) - 1
    witness = None
    seen = set()
    for case, points in cases:
        common = every_block
        for p in points:
            common &= columns[p]
        c = common.bit_count()
        seen.add(c)
        if c != lam and witness is None:
            witness = (case, c)
    observed = seen.pop() if len(seen) == 1 else "non-constant"
    return VerifyResult(verified=witness is None, observed_lambda=observed, witness=witness)


# ---------------------------------------------------------------------------
# Constructions turning a subspace design into a combinatorial design


def construction_params(params: DesignParams, mode: str) -> DesignParams:
    """Parameters of the combinatorial design that `mode` makes of a
    subspace design with parameters `params`.

    * projective: a 2-([v, 1]_q, [k, 1]_q, lambda_2) design
    * affine: a 3-(q^(v-1), q^(k-1), lambda_3) design when q = 2 and t >= 3
      (three distinct affine points of F_2^v are linearly independent),
      otherwise a 2-design with lambda_2
    * flats (q = 2 only): a 3-(2^v, 2^k, lambda_2) design
    """
    q, v, k = params.q, params.v, params.k
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "flats" and q != 2:
        raise ValueError("flats construction requires q = 2")
    if params.t < 2:
        raise ValueError("construction needs a design with t >= 2")
    if mode == "projective":
        n, k = gaussian_coefficient(v, 1, q), gaussian_coefficient(k, 1, q)
        return derive_params_comb(2, n, k, params.lambda_s(2))
    if mode == "flats":
        return derive_params_comb(3, 2**v, 2**k, params.lambda_s(2))
    t = 3 if q == 2 and params.t >= 3 else 2
    return derive_params_comb(t, q ** (v - 1), q ** (k - 1), params.lambda_s(t))


def construct(design: SubspaceDesign, mode: str, hyperplane=None) -> CombinatorialDesign:
    """The combinatorial design that `mode`, one of `MODES`, makes of
    `design`; `hyperplane` is the affine chart's normal vector."""
    if mode == "projective":
        return projective_version(design)
    if mode == "affine":
        return affine_version(design, hyperplane=hyperplane)
    if mode == "flats":
        return flats_construction(design)
    raise ValueError(f"unknown mode {mode!r}")


def projective_version(design: SubspaceDesign) -> CombinatorialDesign:
    """Blocks as point sets of the projective geometry: a 2-design.

    The blocks are the point masks of `_block_masks`, which the
    constructor sorts into the same design from either source.
    """
    p = construction_params(design.params(), "projective")
    return CombinatorialDesign(p.v, p.t, p.k, p.lam, _block_masks(design))


def affine_version(
    design: SubspaceDesign, hyperplane: Sequence[int] | None = None
) -> CombinatorialDesign:
    """Restrict blocks to the affine points off a fixed hyperplane.

    The hyperplane is {x : a . x = 0} for a normal vector a, by default
    e_0 (so the chart is x_0 = 1).  Blocks inside the hyperplane are
    dropped; every surviving block meets the chart in q^(k-1) points.
    Affine point labels are dense: the chart representative is scaled so
    a . x = 1 and indexed by its remaining coordinates, least-significant
    first, the coordinate matched to a's first nonzero entry being dropped.
    One table, built through the field tables, gives each projective point
    its label bit (0 on the hyperplane); a block's affine mask ORs it over
    the block's point mask.
    """
    p = construction_params(design.params(), "affine")
    ctx, v, q = design.ctx, design.v, design.q
    if hyperplane is None:
        normal = (1,) + (0,) * (v - 1)
    else:
        normal = tuple(ctx.check(x) for x in hyperplane)
        if len(normal) != v or not any(normal):
            raise ValueError("hyperplane normal must be a nonzero length-v vector")
    j0 = next(i for i, x in enumerate(normal) if x)
    weights = [0 if i == j0 else q ** (i - (i > j0)) for i in range(v)]
    at, mt, inv = ctx.add_table, ctx.mul_table, ctx.inv_table
    chart = []
    for pt in point_space(v, ctx).points:
        d = 0
        for a, x in zip(normal, pt):
            d = at[d][mt[a][x]]
        if d:
            scale = mt[inv[d]]
            chart.append(1 << sum([scale[x] * w for x, w in zip(pt, weights)]))
        else:
            chart.append(0)
    masks = []
    for block in _block_masks(design):
        mask = 0
        for i in bit_positions(block):
            mask |= chart[i]
        if mask:  # else the block lies inside the hyperplane
            masks.append(mask)
    return CombinatorialDesign(p.v, p.t, p.k, p.lam, masks)


def flats_construction(design: SubspaceDesign) -> CombinatorialDesign:
    """Union of all cosets of all blocks: a 3-design on the 2^v vectors.

    Only defined for q = 2.  A vector's ground-set index is sum(x_i << i).
    A block's span is read off its point mask: point i is the one nonzero
    vector that the point space's `vec_index` maps to i.  Each block
    contributes its 2^(v-k) parallel flats, as masks over the vectors.
    """
    p = construction_params(design.params(), "flats")
    vectors = [0] * gaussian_coefficient(design.v, 1, 2)
    for x, i in enumerate(point_space(design.v, design.ctx).vec_index[1:], 1):
        vectors[i] = x
    masks = []
    for block in _block_masks(design):
        span = [0] + [vectors[i] for i in bit_positions(block)]
        covered = 0
        for a in range(1 << design.v):
            if covered >> a & 1:
                continue
            coset = sum([1 << (a ^ x) for x in span])
            covered |= coset
            masks.append(coset)
    return CombinatorialDesign(p.v, p.t, p.k, p.lam, masks)


# ---------------------------------------------------------------------------
# Design files


def block_line(block: Subspace | tuple[int, ...]) -> str:
    """The design-file text of one block: a subspace's generator rows, each
    its entries joined by spaces, joined by ` ; ` (a `qdesign` line), or a
    point tuple's points joined by spaces (a `cdesign` line)."""
    if isinstance(block, Subspace):
        return " ; ".join(" ".join(map(str, row)) for row in block.gen)
    return " ".join(map(str, block))


def dumps_subspace_design(design: SubspaceDesign) -> str:
    """The `qdesign` text of `design`: the header, then one line per block,
    its generator rows joined by ` ; `.  A k = 0 design is refused."""
    if design.k == 0:
        raise ValueError("a k = 0 design cannot be written: the zero subspace has no generators")
    hdr = (
        f"qdesign t={design.t} v={design.v} k={design.k} "
        f"lambda={design.lam} q={design.q} poly={design.ctx.modulus}"
    )
    return "\n".join([hdr, *map(block_line, design.blocks)]) + "\n"


def save_subspace_design(design: SubspaceDesign, path: str | Path) -> None:
    Path(path).write_text(dumps_subspace_design(design), encoding="utf-8")


def _written_masks(lines: Sequence[str], v: int, k: int) -> list[int] | None:
    """The generator masks of q = 2 block lines in exactly the layout
    `dumps_subspace_design` writes (k >= 1 generators of v single `0`/`1`
    characters, single spaces within a generator, ` ; ` between them), in
    order, k per line; None for any other lines, and always for v = 0 or
    k = 0.

    The lines are joined by ` ; ` into one run of generators, each 2v - 1
    characters at a stride of 2v + 2, so the layout is a few whole-string
    tests: every line of one length, every odd character a space and a `;`
    at every stride; `field.pack_text_rows` checks and packs the digits.
    """
    if not (v and k):
        return None
    text = " ; ".join(lines)
    stride = 2 * v + 2
    if (
        {*map(len, lines)} != {k * stride - 3}
        or text[1::2].strip(" ")
        or text[2 * v :: stride] != ";" * (len(lines) * k - 1)
    ):
        return None
    digits = text[::2].replace(";", "")
    if len(digits) != len(lines) * k * v:  # a `;` off the stride
        return None
    return pack_text_rows(digits, v)


def loads_subspace_design(text: str) -> SubspaceDesign:
    """The design of a `qdesign` file.  A q = 2 body in its written layout
    (`_written_masks`) has all its blocks reduced in one pass
    (`field.rref_gf2_lanes`); any other body is read line by line, token
    by token.  An error names the first bad line: a block whose generators
    span fewer than k dimensions, and on the token path a bad token or a
    wrong generator count."""
    hdr, body = _parse_file(text, "qdesign", ["t", "v", "k", "lambda", "q", "poly"])
    ctx = FieldCtx.of(hdr["q"], modulus=hdr["poly"])
    v, k = hdr["v"], hdr["k"]
    masks = _written_masks([line for _, line in body], v, k) if ctx.q == 2 else None
    reduced = None if masks is None else rref_gf2_lanes(masks, k, v)
    blocks = []
    for i, (lineno, line) in enumerate(body):
        if reduced is not None:
            blk = Subspace(ctx, v, reduced[i])
        else:
            vectors = [_ints(part.split(), lineno) for part in line.split(";")]
            if len(vectors) != k:
                got = len(vectors)
                raise ValueError(f"line {lineno}: block has {got} generators, expected {k}")
            try:
                blk = subspace(vectors, v, ctx)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if blk.k != k:
            raise ValueError(f"line {lineno}: block generators span only {blk.k} dimensions")
        blocks.append(blk)
    return SubspaceDesign(
        ctx=ctx, t=hdr["t"], v=v, k=k, lam=hdr["lambda"], blocks=tuple(blocks)
    )


def load_subspace_design(path: str | Path) -> SubspaceDesign:
    return _load_file(path, loads_subspace_design)


def dumps_comb_design(design: CombinatorialDesign) -> str:
    hdr = f"cdesign t={design.t} n={design.n} k={design.k} lambda={design.lam}"
    return "\n".join([hdr, *map(block_line, design.blocks)]) + "\n"


def loads_comb_design(text: str) -> CombinatorialDesign:
    """The design of a `cdesign` file: the one place point tuples enter.
    Each block line must hold k distinct points of [0, n), and its errors
    name the line; it is packed into its point mask for the constructor."""
    hdr, body = _parse_file(text, "cdesign", ["t", "n", "k", "lambda"])
    n, k = hdr["n"], hdr["k"]
    masks = []
    for lineno, line in body:
        blk = tuple(sorted(_ints(line.split(), lineno)))
        if len(blk) != k or len(set(blk)) != k:
            raise ValueError(f"line {lineno}: block {blk} does not have {k} distinct points")
        if blk[0] < 0 or blk[-1] >= n:
            raise ValueError(f"line {lineno}: block {blk} has points outside [0, {n})")
        masks.append(sum([1 << i for i in blk]))
    return CombinatorialDesign(n, hdr["t"], k, hdr["lambda"], masks)


def load_comb_design(path: str | Path) -> CombinatorialDesign:
    return _load_file(path, loads_comb_design)
