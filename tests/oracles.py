"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: dense Gaussian elimination, raw
subset/codeword enumeration.  The oracles share no code with the package so
they can cross-check it, except `superspaces_scan`: the package's former
superspace search, kept as the reference for `pspace.superspaces` and
`pspace.outside_classes`, which still builds on the package's RREF and
point order.
"""

from itertools import combinations

from designcodes.pspace import Subspace, contains_vector, point_space, rref


def naive_rank(rows, p):
    """Dense Gaussian elimination over F_p on a list-of-lists copy."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def rref_masks(masks, ncols):
    """RREF of bitmask rows; returns (rows, pivot columns), pivots ascending.

    Each new row is reduced against the sorted basis and then cleared out of
    every earlier row: the quadratic reference for `field.rref_gf2`.
    """
    rows = []
    pivots = []
    for m in masks:
        for row, pc in zip(rows, pivots):
            if (m >> pc) & 1:
                m ^= row
        if m == 0:
            continue
        pc = (m & -m).bit_length() - 1
        pos = next((i for i, existing in enumerate(pivots) if existing > pc), len(pivots))
        for i in range(len(rows)):
            if (rows[i] >> pc) & 1:
                rows[i] ^= m
        rows.insert(pos, m)
        pivots.insert(pos, pc)
    return rows, pivots


def superspaces_scan(b, k):
    """All k-subspaces containing b, canonical, deduplicated and sorted.

    Extends every frontier subspace by every point outside it, one RREF per
    outside point, and drops the duplicates.
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
            for vec in sp.points:
                if not contains_vector(s, vec):
                    nxt.add(Subspace(ctx=b.ctx, v=b.v, gen=rref(s.gen + (vec,), b.v, b.ctx)))
        frontier = nxt
    return tuple(sorted(frontier, key=Subspace.sort_key))


def naive_min_distance(check_masks, n):
    """Min weight over all 2^n words satisfying every check (n small)."""
    best = n + 1
    for w in range(1, 1 << n):
        if all((w & row).bit_count() % 2 == 0 for row in check_masks):
            best = min(best, w.bit_count())
    return best


def naive_comb_design_counts(n, t, blocks):
    """Map t-subset -> number of blocks containing it, by raw enumeration."""
    out = {}
    for sub in combinations(range(n), t):
        out[sub] = sum(1 for b in blocks if set(sub) <= set(b))
    return out
