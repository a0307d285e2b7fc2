"""Points and k-subspaces of F_q^v: canonical forms, enumeration, counting.

Conventions used everywhere downstream:

* A point (1-subspace) is represented by the unique scalar multiple whose
  first nonzero coordinate is 1.  Representatives are sorted
  lexicographically by their coordinate tuples, coordinate 0 most
  significant; the position in that order is the point's index.
* The canonical form of a subspace is the reduced row echelon form of a
  generator matrix: pivots strictly increasing, pivot entries 1, pivot
  columns zero elsewhere.  Two subspaces are equal iff their canonical
  generator matrices are identical.
* Subspace enumeration runs over pivot-column combinations in lexicographic
  order, free entries in odometer order, so block numbering is reproducible.
* The superspaces of a subspace b are read off the quotient by b:
  F_q^v is the direct sum of b and the coordinate subspace C on the
  columns outside b's pivots, so each k-superspace of b is b plus exactly
  one (k - dim b)-subspace of C, and `superspaces` enumerates those and
  reduces each together with b through `subspace`, one path at every q.

The point walk of a k-subspace over GF(p^m) is the same at every q: its
generators are its rows times 1, x, ..., x^(m-1), and one step list per
(k, m, p) (`_point_steps`, a p-ary Gray code) adds one generator per step
and visits each point once.  For q = 2^m a vector is handled packed, as
the int sum(x_i << (m i)) of its m-bit coordinates (for q = 2 the bitmask
of `field.pack_mask`).  Adding two vectors is then XOR of their packed
ints, and one table per (v, ctx), of q^v entries, maps each packed vector
to the index of its point, so a step is one XOR and one lookup.  Each row
is packed once, and its multiples by x, ..., x^(m-1) come from a
bit-parallel xtime on the packed int (`_generators`).  Odd q, and spaces
with q > 2 and q^v > 2^20, walk coordinate tuples through the field's add
table.

At q = 2 a subspace holds its canonical rows as those masks, never as
tuples: `enumerate_subspaces` builds them directly, `subspace` packs
vectors with `field.pack_mask` and reduces them with `field.rref_gf2`
(whose pivot, the lowest set bit, is the first nonzero coordinate, so the
canonical form is the same), and the point walks and design
verification read them.  `Subspace.gen` rebuilds the tuples for output and
for `superspaces`, which hands them back to `subspace`.  At q > 2
`subspace` reduces coordinate tuples with `field.rref_gfq`, the same fold
over the field's tables; this module does no elimination of its own.

At every q the canonical rows are normalized point vectors, so
`row_points` reads a subspace's rows as point indices (by `vec_index` at
q = 2, by the point index otherwise).  Point indices are lexicographic
ranks, so that key orders subspaces of one dimension like their coordinate
tuples: designs and `superspaces` sort by it, and design verification takes
each t-subspace's row points from it.

A subspace's point set is a mask over point indices (bit i = point i),
computed once and kept on the subspace (`points_mask`), so the design
checks, constructions and decoders that each need a block's points share
one walk, which ORs the bit of each point it finds; the sorted tuple of
point indices (`points_of_subspace`) is read off the mask on demand.  Each
field context keeps its own point spaces.  Containment is read off the
masks: t lies in s iff points_mask(t) & ~points_mask(s) == 0.

At q = 2 the point masks of all k-subspaces at once come from a
hyperplane product instead (`subspace_masks_gf2`), in no fixed order and
with no `Subspace` and no walk: the subspaces with one pivot set are the
intersections of one hyperplane per non-pivot column j, whose normal is
e_j plus any subset of the pivots below j, so their masks are the
AND-product of those hyperplanes' masks.  `designs.projective_version`
takes a complete q = 2 design's masks from it.
"""

import itertools
from operator import lshift
from typing import Callable, Iterator, Sequence

from ._record import Record
from .field import FieldCtx, bit_positions, pack_mask, rref_gf2, rref_gfq

Vector = tuple[int, ...]


def gaussian_coefficient(v: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^v, as an exact integer."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if k < 0 or k > v:
        return 0
    g = 1
    for i in range(k):
        g = g * (q ** (v - i) - 1) // (q ** (i + 1) - 1)
    return g


def enumerate_points(v: int, ctx: FieldCtx) -> tuple[Vector, ...]:
    """All normalized point representatives of F_q^v in canonical order."""
    if v < 1:
        raise ValueError("ambient dimension must be >= 1")
    q = ctx.q
    points = []
    for lead in reversed(range(v)):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=v - lead - 1):
            points.append(prefix + tail)
    return tuple(points)


# Largest q^v for which a space over GF(2^m), m > 1, keeps its packed-vector
# table (8 MB of list); larger spaces fall back to the tuple paths.  q = 2
# always keeps it: its subspaces are held as masks.
_VEC_INDEX_LIMIT = 1 << 20


class _PointSpace:
    """Cached canonical point order plus lookup structures for one (v, ctx).

    For q = 2^m, `vec_index` is a list of q^v entries: entry x is the index
    of the point spanned by the nonzero vector packed as x, so each of the
    q - 1 scalar multiples of a point finds it with one lookup (entry 0 is
    unused).  For m > 1 it exists only up to q^v = 2^20; otherwise, and for
    odd q, `vec_index` is None and vectors are coordinate tuples.
    """

    def __init__(self, v: int, ctx: FieldCtx):
        self.v = v
        self.ctx = ctx
        self.points = enumerate_points(v, ctx)
        self.n = len(self.points)
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self.vec_index: list[int] | None = None
        # the point walk's step lists by subspace dimension (`_point_steps`)
        self.steps: dict[int, tuple[int, ...]] = {}
        # the top bit of each coordinate of a packed vector, for the packed
        # generators' xtime (`_generators`)
        self.top = 0
        if ctx.q == 2 or (ctx.p == 2 and ctx.q**v <= _VEC_INDEX_LIMIT):
            self.vec_index = _vec_index(v, ctx)
            self.top = sum(1 << (ctx.m * i + ctx.m - 1) for i in range(v))


def _vec_index(v: int, ctx: FieldCtx) -> list[int]:
    """The packed-vector table of `_PointSpace`, q = 2^m.

    `_one_per_point` over the unit vectors e_0, ..., e_{v-1} lists the
    points in `enumerate_points` order.  Scaling every row and multiple by
    c lists c times each point at the same position, since the walk is
    linear.
    """
    m, q = ctx.m, ctx.q
    table = [0] * q**v
    # one int object per point, shared by its q - 1 multiples
    ids = list(range(gaussian_coefficient(v, 1, q)))
    for mul_c in ctx.mul_table[1:]:
        rows = [[mul_c[d] << (m * j) for d in range(1, q)] for j in range(v)]
        for i, x in zip(ids, _one_per_point(rows)):
            table[x] = i
    return table


def point_space(v: int, ctx: FieldCtx) -> _PointSpace:
    """The point space of F_q^v, built once per field context."""
    spaces = ctx._point_spaces
    sp = spaces.get(v)
    if sp is None:
        sp = spaces[v] = _PointSpace(v, ctx)
    return sp


class Subspace(Record):
    """A subspace of F_q^v held by its canonical (RREF) generator matrix.

    `rows` are the canonical rows, pivots ascending: int masks at q = 2
    (bit i = coordinate i, as `field.pack_mask`), coordinate tuples
    otherwise.  `gen` gives them as coordinate tuples at every q.
    """

    _fields = ("ctx", "v", "rows")

    def __init__(self, ctx: FieldCtx, v: int, rows: tuple) -> None:
        # one subspace per enumerated block: item by item into __dict__ is
        # the cheapest write that keeps the class immutable
        d = self.__dict__
        d["ctx"] = ctx
        d["v"] = v
        d["rows"] = rows

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def gen(self) -> tuple[Vector, ...]:
        if self.ctx.q == 2:
            v = self.v
            return tuple(tuple([(r >> i) & 1 for i in range(v)]) for r in self.rows)
        return self.rows


def _row_point(v: int, ctx: FieldCtx) -> Callable:
    """The point index of a canonical row of a subspace of F_q^v: the row
    mask looked up in `vec_index` at q = 2, the row tuple in the point
    index otherwise.  (F_q^0 has no points, and its subspaces no rows.)"""
    if not v:
        return {}.__getitem__
    sp = point_space(v, ctx)
    return (sp.vec_index if ctx.q == 2 else sp.index).__getitem__


def row_points(v: int, ctx: FieldCtx) -> Callable[[Subspace], tuple[int, ...]]:
    """Key function giving the point indices of a subspace's canonical rows
    (`_row_point`), for subspaces of F_q^v.  Sorting subspaces of one
    dimension by it orders them like their `gen` tuples, coordinate 0
    first."""
    row_point = _row_point(v, ctx)
    return lambda s: tuple(map(row_point, s.rows))


def subspace(vectors: Sequence[Sequence[int]], v: int, ctx: FieldCtx) -> Subspace:
    """Canonical subspace spanned by the given vectors.  At q = 2 they are
    packed into masks and reduced by `field.rref_gf2`, each row's pivot its
    lowest set bit; otherwise their entries are checked and the coordinate
    tuples reduced by `field.rref_gfq`."""
    for r in vectors:
        if len(r) != v:
            raise ValueError(f"vector has {len(r)} coordinates, expected {v}")
    if ctx.q == 2:
        return Subspace(ctx, v, tuple(rref_gf2([pack_mask(r) for r in vectors])[0]))
    for r in vectors:
        for x in r:
            ctx.check(x)
    return Subspace(ctx, v, rref_gfq(vectors, ctx))


def _pivots(s: Subspace) -> tuple[int, ...]:
    if s.ctx.q == 2:
        return tuple([(r & -r).bit_length() - 1 for r in s.rows])
    return tuple([next(i for i, x in enumerate(row) if x) for row in s.rows])


def _canonical_rows(v: int, k: int, q: int) -> Iterator[tuple]:
    """The canonical rows of every k-subspace of F_q^v, in the order of
    `enumerate_subspaces`.  For each pivot set, each row's choices list its
    entries on the non-pivot columns after its pivot, the first of those
    columns slowest; the product over the rows, first row slowest, is the
    odometer over all free entries.  Masks at q = 2, tuples otherwise."""
    for pivots in itertools.combinations(range(v), k):
        choices = []
        for pc in pivots:
            free = [j for j in range(pc + 1, v) if j not in pivots]
            if q == 2:
                row = [1 << pc]
                for j in free:
                    row = [r | b for r in row for b in (0, 1 << j)]
            else:
                row = []
                for entries in itertools.product(range(q), repeat=len(free)):
                    vec = [0] * v
                    vec[pc] = 1
                    for j, x in zip(free, entries):
                        vec[j] = x
                    row.append(tuple(vec))
            choices.append(row)
        yield from itertools.product(*choices)


def enumerate_subspaces(v: int, k: int, ctx: FieldCtx) -> Iterator[Subspace]:
    """Yield every k-subspace of F_q^v exactly once, in canonical RREF form.

    Streaming: gaussian_coefficient(v, k, q) subspaces in a deterministic
    order (`_canonical_rows`), never materialized as a whole.
    """
    if not 0 <= k <= v:
        return
    for rows in _canonical_rows(v, k, ctx.q):
        yield Subspace(ctx, v, rows)


def _one_per_point(rows: Sequence[list[int]]) -> list[int]:
    """One packed vector of each point of the span of the rows (q = 2^m):
    row i plus a vector of the span of the later rows (leading coefficient
    1).  Each row is given by its q - 1 packed nonzero scalar multiples,
    c = 1 first."""
    out = []
    span = [0]
    for i in reversed(range(len(rows))):
        out += [rows[i][0] ^ x for x in span]
        if i:
            span += [x ^ y for y in rows[i] for x in span]
    return out


def points_of_subspace(s: Subspace) -> tuple[int, ...]:
    """Sorted point indices of the 1-subspaces contained in s, read off
    `points_mask(s)`."""
    return bit_positions(points_mask(s))


def points_mask(s: Subspace) -> int:
    """The point set of s as a mask over point indices (bit i = point i),
    computed on first use and kept on s.  (Not a functools.cached_property:
    on Python 3.11 its lock adds about half the cost of a 4-subspace's point
    walk.)"""
    mask = s.__dict__.get("_points_mask")
    if mask is None:
        mask = s.__dict__["_points_mask"] = _points_mask(s)
    return mask


def _point_steps(k: int, m: int, p: int) -> tuple[int, ...]:
    """The generator added at each step of the point walk of a k-subspace
    over GF(p^m).  Its m k generators are its rows times 1, x, ...,
    x^(m-1), highest-pivot row first: generator m t + j is row t of that
    order times x^j.  For each t the walk steps onto row t (generator m t),
    then runs the p-ary modular Gray code over the m t generators before
    it, whose step i adds the generator at the lowest nonzero base-p digit
    of i.  Row t then has coefficient 1, the rows before it every
    combination once and the rows after it 0, so each point's vector with
    leading coefficient 1 is visited once: [k, 1]_q steps.  At p = 2,
    m = 1 this is the k-bit Gray code."""
    steps: list[int] = []
    gray: list[int] = []  # the Gray code's steps over generators 0, ..., g - 1
    for g in range(m * k):
        if g % m == 0:
            steps += [g, *gray]
        gray += [g, *gray] * (p - 1)
    return tuple(steps)


def _generators(s: Subspace, sp: _PointSpace) -> list:
    """The GF(p) generators of the point walk of s (q > 2): each row times
    1, x, ..., x^(m-1), highest-pivot row first.

    With the packed table (q = 2^m) each row is packed once, and each next
    multiple comes from the last by xtime on the packed int, every m-bit
    coordinate at once: shift it up one bit, and where its top bit (`sp.top`)
    carried out add the modulus without its x^m term.  Otherwise they are
    coordinate tuples read off the field's mul table.
    """
    ctx = s.ctx
    m = ctx.m
    if sp.vec_index is None:
        xs = [ctx.mul_table[ctx.p**j] for j in range(m)]
        return [tuple([x[a] for a in r]) for r in reversed(s.rows) for x in xs]
    top, low, up = sp.top, ctx.modulus ^ ctx.q, m - 1
    shifts = range(0, m * s.v, m)
    gens = []
    for r in reversed(s.rows):
        g = sum(map(lshift, r, shifts))
        gens.append(g)
        for _ in range(up):
            hi = g & top
            g = ((g ^ hi) << 1) ^ ((hi >> up) * low)
            gens.append(g)
    return gens


def _points_mask(s: Subspace) -> int:
    """The point mask of s: the walk of `_point_steps` over the generators
    of s visits one vector per point, and the bit of each point is ORed.

    With the packed table (q = 2^m) the generators are packed ints, so each
    step is one XOR and one `vec_index` lookup.  At q = 2 they are the row
    masks in row order: every nonzero vector is a point there, so the walk
    needs no reversed copy.  Otherwise (odd q, and spaces too large for the
    table) they are coordinate tuples, added through the field's add table
    and looked up in the point index; the leading coefficient 1 leaves each
    visited vector normalized.  k = 0 has no points (and F_q^0 no point
    space).
    """
    rows = s.rows
    if not rows:
        return 0
    ctx = s.ctx
    sp = point_space(s.v, ctx)
    k = len(rows)
    steps = sp.steps.get(k)
    if steps is None:
        steps = sp.steps[k] = _point_steps(k, ctx.m, ctx.p)
    idx = sp.vec_index
    gens = rows if ctx.q == 2 else _generators(s, sp)
    mask = 0
    if idx is not None:
        cur = 0
        for j in steps:
            cur ^= gens[j]
            mask |= 1 << idx[cur]
    else:
        at, index = ctx.add_table, sp.index
        cur = (0,) * s.v
        for j in steps:
            cur = tuple([at[a][b] for a, b in zip(cur, gens[j])])
            mask |= 1 << index[cur]
    return mask


def subspace_masks_gf2(v: int, k: int, ctx: FieldCtx) -> list[int]:
    """The point mask of every k-subspace of F_2^v, in no fixed order, with
    no `Subspace` and no point walk.

    The k-subspaces with pivot set P are the intersections of one
    hyperplane per column j outside P: x_j = sum of a_p x_p over the
    pivots p < j, for any choice of the a_p (row p's entry in column j).
    So their masks are the AND-product of one list of hyperplane masks per
    such column, normal e_j plus each subset of the pivots below j, taken
    column by column: about one AND per subspace.  The hyperplane masks
    are indexed by the packed normal, and each is built from one with a
    lower normal by XOR with a coordinate mask (the points whose
    coordinate i is 1).  k = 0 gives the single mask 0.
    """
    if ctx.q != 2:
        raise ValueError("subspace_masks_gf2 needs q = 2")
    if not 0 <= k <= v:
        return []
    points = point_space(v, ctx).points if v else ()
    # hyper[u]: the mask of the hyperplane with packed normal u (u = 0: every
    # point).  Column i of the points, point 0 lowest, is the mask of the
    # points with x_i = 1, and XOR with it adds e_i to the normal.
    hyper = [(1 << len(points)) - 1]
    for column in zip(*reversed(points)):
        coord = int("".join(map(str, column)), 2)
        hyper += [h ^ coord for h in hyper]
    masks = []
    for pivots in itertools.combinations(range(v), k):
        cell = [hyper[0]]
        below = [0]  # the subsets of the pivots below j, as packed normals
        for j in range(v):
            if j in pivots:
                below += [s | 1 << j for s in below]
            else:
                planes = [hyper[1 << j | s] for s in below]
                cell = [m & h for m in cell for h in planes]
        masks += cell
    return masks


def superspaces(b: Subspace, k: int) -> tuple[Subspace, ...]:
    """All k-subspaces containing b, canonical and sorted by `row_points`.

    F_q^v is the direct sum of b and the coordinate subspace C on the
    columns outside b's pivots, so each k-superspace of b is b plus exactly
    one (k - dim b)-subspace of C: those are enumerated in F_q^(v - dim b),
    their rows placed on C's columns, and each is reduced together with b's
    rows, one `subspace` call per superspace.  For k = dim(b) + 1 the count
    is [v - dim(b), 1]_q.
    """
    if k <= b.k:
        raise ValueError("not a proper extension")
    if k > b.v:
        raise ValueError("extension exceeds ambient dimension")
    ctx, v = b.ctx, b.v
    pivots = _pivots(b)
    free = [j for j in range(v) if j not in pivots]
    # column j reads coordinate take[j] of a row of C; pivot columns read
    # the 0 appended to it
    take = [free.index(j) if j in free else -1 for j in range(v)]
    gen = b.gen
    out = []
    for c in enumerate_subspaces(v - b.k, k - b.k, ctx):
        rows = tuple(tuple(map((r + (0,)).__getitem__, take)) for r in c.gen)
        out.append(subspace(gen + rows, v, ctx))
    return tuple(sorted(out, key=row_points(v, ctx)))
