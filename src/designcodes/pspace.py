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
* The superspaces of a subspace b are read off the quotient by b: the
  points outside b fall into classes modulo b, one class (sup minus b) per
  (dim b + 1)-superspace sup (`outside_classes`), and `superspaces` extends
  by one representative point per class.

For q = 2^m a vector is also handled packed, as the int sum(x_i << (m i))
of its m-bit coordinates (for q = 2 the bitmask of `field.pack_mask`).
Adding two vectors is then XOR of their packed ints, and one table per
(v, ctx), of q^v entries, maps each packed vector to the index of its
point.  The span walks of `points_of_subspace` and the cosets of
`outside_classes` run on those ints; odd q, and spaces with q^v > 2^20,
keep coordinate tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import xor
from typing import Callable, Iterator, Sequence

from .field import FieldCtx, pack_mask

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


def vec_scale(c: int, u: Vector, ctx: FieldCtx) -> Vector:
    return tuple(ctx.mul(c, a) for a in u)


def normalize_point(vec: Vector, ctx: FieldCtx) -> Vector:
    """Scale so the first nonzero coordinate equals 1 (vec must be nonzero)."""
    lead = next((x for x in vec if x), None)
    if lead is None:
        raise ValueError("zero vector spans no point")
    if lead == 1:
        return tuple(vec)
    return vec_scale(ctx.inv(lead), vec, ctx)


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


# Largest q^v for which a characteristic-2 space keeps its packed-vector
# table (8 MB of list); larger spaces fall back to the tuple paths.
_VEC_INDEX_LIMIT = 1 << 20


class _PointSpace:
    """Cached canonical point order plus lookup structures for one (v, ctx).

    For q = 2^m (and q^v <= 2^20), `vec_index` is a list of q^v entries:
    entry x is the index of the point spanned by the nonzero vector packed
    as x, so each of the q - 1 scalar multiples of a point finds it with
    one lookup (entry 0 is unused).  Otherwise `vec_index` is None.
    """

    def __init__(self, v: int, ctx: FieldCtx):
        self.v = v
        self.ctx = ctx
        self.points = enumerate_points(v, ctx)
        self.n = len(self.points)
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self.vec_index: list[int] | None = None
        if ctx.p == 2 and ctx.q**v <= _VEC_INDEX_LIMIT:
            self.vec_index = _vec_index(v, ctx)
        self._complements: dict[tuple[int, ...], list[int]] = {}

    def complement_points(self, pivots: tuple[int, ...]) -> list[int]:
        """One packed vector per point of the coordinate subspace on the
        columns outside `pivots` (q = 2^m), computed once per pivot set."""
        out = self._complements.get(pivots)
        if out is None:
            m, q = self.ctx.m, self.ctx.q
            unit = [[c << (m * j) for c in range(1, q)] for j in range(self.v) if j not in pivots]
            out = self._complements[pivots] = _one_per_point(unit, 0, xor)
        return out


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
        for i, x in zip(ids, _one_per_point(rows, 0, xor)):
            table[x] = i
    return table


@lru_cache(maxsize=None)
def point_space(v: int, ctx: FieldCtx) -> _PointSpace:
    return _PointSpace(v, ctx)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^v held by its canonical (RREF) generator matrix."""

    ctx: FieldCtx
    v: int
    gen: tuple[Vector, ...]

    @property
    def k(self) -> int:
        return len(self.gen)

    def sort_key(self) -> tuple:
        return self.gen


def rref(vectors: Sequence[Sequence[int]], v: int, ctx: FieldCtx) -> tuple[Vector, ...]:
    """Reduced row echelon form; dependent and zero rows are dropped."""
    rows = [list(r) for r in vectors]
    piv = 0
    for col in range(v):
        sel = next((i for i in range(piv, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        lead = rows[piv][col]
        if lead != 1:
            inv = ctx.inv(lead)
            rows[piv] = [ctx.mul(inv, x) for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][col]:
                c = rows[i][col]
                rows[i] = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(rows[i], rows[piv])]
        piv += 1
        if piv == len(rows):
            break
    return tuple(tuple(r) for r in rows[:piv])


def subspace(vectors: Sequence[Sequence[int]], v: int, ctx: FieldCtx) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    for r in vectors:
        if len(r) != v:
            raise ValueError(f"vector has {len(r)} coordinates, expected {v}")
        for x in r:
            ctx.check(x)
    return Subspace(ctx=ctx, v=v, gen=rref(vectors, v, ctx))


def _pivots(gen: tuple[Vector, ...]) -> tuple[int, ...]:
    return tuple(next(i for i, x in enumerate(row) if x) for row in gen)


def enumerate_subspaces(v: int, k: int, ctx: FieldCtx) -> Iterator[Subspace]:
    """Yield every k-subspace of F_q^v exactly once, in canonical RREF form.

    Streaming: gaussian_coefficient(v, k, q) subspaces in a deterministic
    order, never materialized as a whole.
    """
    if not 0 <= k <= v:
        return
    if k == 0:
        yield Subspace(ctx=ctx, v=v, gen=())
        return
    q = ctx.q
    for pivots in itertools.combinations(range(v), k):
        pivot_set = set(pivots)
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, v)
            if j not in pivot_set
        ]
        base = [[0] * v for _ in range(k)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        if not free_cells:
            yield Subspace(ctx=ctx, v=v, gen=tuple(tuple(r) for r in base))
            continue
        for assignment in itertools.product(range(q), repeat=len(free_cells)):
            rows = [r[:] for r in base]
            for (i, j), val in zip(free_cells, assignment):
                rows[i][j] = val
            yield Subspace(ctx=ctx, v=v, gen=tuple(tuple(r) for r in rows))


def _packed_multiples(row: Vector, ctx: FieldCtx) -> list[int]:
    """c * row packed, for c = 1, ..., q - 1 (q = 2^m)."""
    if ctx.m == 1:
        return [pack_mask(row)]
    m = ctx.m
    return [
        sum(mul_c[x] << (m * i) for i, x in enumerate(row)) for mul_c in ctx.mul_table[1:]
    ]


def _span(rows: Sequence[list[int]]) -> list[int]:
    """Every packed vector of the span of the rows (q = 2^m); each row is
    given by its q - 1 packed nonzero scalar multiples."""
    span = [0]
    for multiples in rows:
        span += [x ^ y for y in multiples for x in span]
    return span


def _one_per_point(rows: Sequence[list], zero, add: Callable) -> list:
    """One vector of each point of the span of the rows: row i plus a vector
    of the span of the later rows (leading coefficient 1).  Rows are given
    as in `_span`, row i first by itself (c = 1)."""
    out = []
    span = [zero]
    for i in reversed(range(len(rows))):
        out += [add(rows[i][0], x) for x in span]
        if i:
            span += [add(x, y) for y in rows[i] for x in span]
    return out


def points_of_subspace(s: Subspace) -> tuple[int, ...]:
    """Sorted point indices of the 1-subspaces contained in s.

    One vector per point (`_one_per_point`: a row of s plus a combination
    of the later rows) is looked up in the point space.  For q = 2^m the
    walk runs on packed vectors by XOR, from the rows of s and their q - 1
    scalar multiples, and each vector's point is one `vec_index` lookup;
    q = 2 walks the span in Gray code order, one XOR per point.  Odd q (and
    spaces too large for the table) walk coordinate tuples, which the
    leading coefficient 1 leaves normalized.
    """
    if s.k == 0:
        return ()
    sp = point_space(s.v, s.ctx)
    ctx = s.ctx
    idx = sp.vec_index
    if idx is None:
        at = ctx.add_table
        rows = [[tuple([mul_c[x] for x in r]) for mul_c in ctx.mul_table[1:]] for r in s.gen]

        def add(u: Vector, w: Vector) -> Vector:
            return tuple([at[a][b] for a, b in zip(u, w)])

        return tuple(sorted(map(sp.index.__getitem__, _one_per_point(rows, (0,) * s.v, add))))
    if ctx.q == 2:
        row_masks = [pack_mask(r) for r in s.gen]
        cur = 0
        out = []
        for i in range(1, 1 << s.k):
            cur ^= row_masks[(i & -i).bit_length() - 1]
            out.append(idx[cur])
        return tuple(sorted(out))
    rows = [_packed_multiples(r, ctx) for r in s.gen]
    return tuple(sorted(map(idx.__getitem__, _one_per_point(rows, 0, xor))))


def points_mask(s: Subspace) -> int:
    """Point set of a subspace as a bitmask over point indices."""
    m = 0
    for i in points_of_subspace(s):
        m |= 1 << i
    return m


def _reduce(s: Subspace, pivots: tuple[int, ...], vec: Sequence[int]) -> Sequence[int]:
    """vec minus its part in s: the representative of vec + s that is zero on
    the pivot columns of s (pivots = _pivots(s.gen))."""
    ctx = s.ctx
    r = vec
    for row, pc in zip(s.gen, pivots):
        c = r[pc]
        if c:
            r = tuple(ctx.sub(x, ctx.mul(c, y)) for x, y in zip(r, row))
    return r


def contains_vector(s: Subspace, vec: Sequence[int]) -> bool:
    return not any(_reduce(s, _pivots(s.gen), vec))


def subspace_contains(s: Subspace, t: Subspace) -> bool:
    """True iff t is a subspace of s (same ambient space required)."""
    if s.v != t.v or s.ctx != t.ctx:
        raise ValueError("subspaces live in different ambient spaces")
    return all(contains_vector(s, row) for row in t.gen)


def outside_classes(b: Subspace) -> tuple[int, ...]:
    """The classes of the points outside b modulo b, as point-index bitmasks.

    Two points outside b lie in one class iff they span the same
    (dim b + 1)-subspace together with b, so each class is sup minus b for
    exactly one (dim b + 1)-superspace sup of b: there are [v - dim b, 1]_q
    classes of q^(dim b) points each.  Returned sorted as integers.

    For q = 2^m the class of a vector w outside b is the coset w + span(b):
    its q^(dim b) vectors span distinct points.  span(b) is walked on packed
    vectors, from the rows of b and their q - 1 scalar multiples, and one w
    is taken per point of the coordinate subspace on the non-pivot columns
    of b, a complement of b; each class is {vec_index[w ^ s] : s in span(b)},
    so every point outside b costs one XOR and one lookup.  For odd q (and
    spaces too large for the table) each point is reduced against the rows
    of b (zeroing b's pivot columns) and the points are grouped by the
    normalized remainder.
    """
    sp = point_space(b.v, b.ctx)
    ctx = b.ctx
    idx = sp.vec_index
    if idx is not None:
        rows = [_packed_multiples(r, ctx) for r in b.gen]
        m = ctx.m
        # a packed row's lowest set bit lies in its pivot coordinate
        pivots = tuple(((r[0] & -r[0]).bit_length() - 1) // m for r in rows)
        span = _span(rows)
        out = []
        for w in sp.complement_points(pivots):
            cls = 0
            for x in span:
                cls |= 1 << idx[w ^ x]
            out.append(cls)
        return tuple(sorted(out))
    pivots = _pivots(b.gen)
    classes: dict[Vector, int] = {}
    for i, pt in enumerate(sp.points):
        r = _reduce(b, pivots, pt)
        if any(r):
            key = normalize_point(r, ctx)
            classes[key] = classes.get(key, 0) | (1 << i)
    return tuple(sorted(classes.values()))


def superspaces(b: Subspace, k: int) -> tuple[Subspace, ...]:
    """All k-subspaces containing b, canonical, deduplicated and sorted.

    Built one dimension at a time: each subspace s of the frontier is
    extended by one representative point of each class of `outside_classes(s)`,
    one RREF per (dim s + 1)-superspace.  For k = dim(b) + 1 the count is
    [v - dim(b), 1]_q.
    """
    if k <= b.k:
        raise ValueError("not a proper extension")
    if k > b.v:
        raise ValueError("extension exceeds ambient dimension")
    sp = point_space(b.v, b.ctx)
    frontier = {b}
    for _ in range(k - b.k):
        nxt = set()
        for s in frontier:
            for cls in outside_classes(s):
                vec = sp.points[(cls & -cls).bit_length() - 1]
                nxt.add(Subspace(ctx=b.ctx, v=b.v, gen=rref(s.gen + (vec,), b.v, b.ctx)))
        frontier = nxt
    return tuple(sorted(frontier, key=Subspace.sort_key))
