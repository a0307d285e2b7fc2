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

For q = 2 a vector is also handled as the bitmask sum(x_i << i)
(`field.pack_mask`); the hot paths (spanned-point collection, the cosets of
`outside_classes`) use XOR on those masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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


def vec_add(u: Vector, w: Vector, ctx: FieldCtx) -> Vector:
    return tuple(ctx.add(a, b) for a, b in zip(u, w))


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


class _PointSpace:
    """Cached canonical point order plus lookup structures for one (v, ctx)."""

    def __init__(self, v: int, ctx: FieldCtx):
        self.v = v
        self.ctx = ctx
        self.points = enumerate_points(v, ctx)
        self.n = len(self.points)
        self.index = {pt: i for i, pt in enumerate(self.points)}
        if ctx.q == 2:
            # q = 2: every nonzero vector is its own representative
            arr = [0] * (1 << v)
            for i, pt in enumerate(self.points):
                arr[pack_mask(pt)] = i
            self.mask_index: list[int] | None = arr
        else:
            self.mask_index = None

    def index_of(self, vec: Vector) -> int:
        return self.index[normalize_point(vec, self.ctx)]


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


def points_of_subspace(s: Subspace) -> tuple[int, ...]:
    """Sorted point indices of the 1-subspaces contained in s."""
    if s.k == 0:
        return ()
    sp = point_space(s.v, s.ctx)
    q = s.ctx.q
    if q == 2:
        row_masks = [pack_mask(r) for r in s.gen]
        idx = sp.mask_index
        cur = 0
        out = []
        for i in range(1, 1 << s.k):
            cur ^= row_masks[(i & -i).bit_length() - 1]
            out.append(idx[cur])
        return tuple(sorted(out))
    out = []
    # coefficient tuples with leading coefficient 1 hit each point once
    for lead in range(s.k):
        for tail in itertools.product(range(q), repeat=s.k - lead - 1):
            vec = s.gen[lead]
            for c, row in zip(tail, s.gen[lead + 1 :]):
                if c:
                    vec = vec_add(vec, vec_scale(c, row, s.ctx), s.ctx)
            out.append(sp.index_of(vec))
    return tuple(sorted(out))


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

    For q = 2 the class of a vector x is the coset x + span(b), walked by
    XOR over the 2^(dim b) vectors of span(b).  For q > 2 each point is
    reduced against the rows of b (zeroing b's pivot columns) and the points
    are grouped by the normalized remainder.
    """
    sp = point_space(b.v, b.ctx)
    if b.ctx.q == 2:
        span = [0]
        for row in b.gen:
            m = pack_mask(row)
            span += [x ^ m for x in span]
        idx = sp.mask_index
        seen = bytearray(1 << b.v)
        for x in span:
            seen[x] = 1
        out = []
        for x in range(1, 1 << b.v):
            if seen[x]:
                continue
            cls = 0
            for y in span:
                z = x ^ y
                seen[z] = 1
                cls |= 1 << idx[z]
            out.append(cls)
        return tuple(sorted(out))
    pivots = _pivots(b.gen)
    classes: dict[Vector, int] = {}
    for i, pt in enumerate(sp.points):
        r = _reduce(b, pivots, pt)
        if any(r):
            key = normalize_point(r, b.ctx)
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
