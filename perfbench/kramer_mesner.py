#!/usr/bin/env python3
"""Kramer-Mesner search for a 2-(7,3,3)_2 subspace design.

The prescribed group is the normalizer of a Singer cycle of GF(2^7): the
multiplications by powers of the primitive element x (modulus x^7 + x + 1)
together with the Frobenius map a -> a^2, 127 * 7 = 889 elements.  The
group has 3 orbits on the 2-subspaces of F_2^7 and 15 on the 3-subspaces.
A union of 3-subspace orbits is a 2-(7,3,3)_2 design exactly when the
3 x 15 orbit matrix A (A[i][j] = blocks of orbit j through the i-th 2-orbit
representative) satisfies A x = 3 * 1 for the 0/1 vector x of chosen
orbits (Kramer & Mesner 1976; Braun, Kerber & Laue 2005).  The 15 unknowns
are searched exhaustively.

Only the standard library is used, and none of the package: a vector of
F_2^7 is an int with bit i = coordinate i, a subspace the sorted tuple of
its nonzero vectors.

Regenerate the shipped design with

    python3 perfbench/kramer_mesner.py --out perfbench/designs/2-7-3-3_2.qdesign

The first solution in the search order is written.
"""

from __future__ import annotations

import argparse
import sys

V = 7
MODULUS = 0b10000011  # x^7 + x + 1, primitive
LAMBDA = 3


def gf_mul_x(a: int) -> int:
    a <<= 1
    if a >> V:
        a ^= MODULUS
    return a


def gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = gf_mul_x(a)
        b >>= 1
    return out


def set_mask(vecs) -> int:
    m = 0
    for x in vecs:
        m |= 1 << x
    return m


def group_maps() -> list[list[int]]:
    """Each of the 889 group elements as the lookup list vector -> image."""
    frob = [gf_mul(a, a) for a in range(1 << V)]
    maps = []
    mult = list(range(1 << V))
    for _ in range((1 << V) - 1):
        f = mult
        for _ in range(V):
            maps.append(f)
            f = [frob[y] for y in f]
        mult = [gf_mul_x(y) for y in mult]
    return maps


def subspaces(k: int) -> set[tuple[int, ...]]:
    """All k-subspaces of F_2^7 as sorted tuples of their nonzero vectors."""
    level = {()}
    for _ in range(k):
        nxt = set()
        for vecs in level:
            have = set(vecs)
            for g in range(1, 1 << V):
                if g not in have:
                    nxt.add(tuple(sorted(have | {x ^ g for x in have} | {g})))
        level = nxt
    return level


def orbits(k: int, maps) -> list[list[tuple[int, ...]]]:
    """Orbits of the group on k-subspaces, each a list of subspaces."""
    remaining = subspaces(k)
    found = []
    for rep in sorted(remaining):
        if rep not in remaining:
            continue
        orb = {tuple(sorted(f[x] for x in rep)) for f in maps}
        remaining -= orb
        found.append(sorted(orb))
    return found


def orbit_matrix(t_orbits, k_orbits) -> list[list[int]]:
    rows = []
    for t_orb in t_orbits:
        rep = set_mask(t_orb[0])
        rows.append(
            [sum(1 for blk in k_orb if set_mask(blk) & rep == rep) for k_orb in k_orbits]
        )
    return rows


def solve(matrix) -> list[tuple[int, ...]]:
    """All 0/1 vectors x with matrix . x = LAMBDA * 1, by exhaustive search."""
    ncols = len(matrix[0])
    sols = []
    for choice in range(1 << ncols):
        if all(
            sum(row[j] for j in range(ncols) if (choice >> j) & 1) == LAMBDA for row in matrix
        ):
            sols.append(tuple(j for j in range(ncols) if (choice >> j) & 1))
    return sols


def basis_of(vecs) -> list[int]:
    """A basis of the subspace whose nonzero vectors are given."""
    basis: list[int] = []
    spanned = {0}
    for x in sorted(vecs):
        if x not in spanned:
            basis.append(x)
            spanned |= {y ^ x for y in spanned}
    return basis


def qdesign_text(blocks) -> str:
    lines = [f"qdesign t=2 v={V} k=3 lambda={LAMBDA} q=2 poly=2"]
    for blk in sorted(blocks):
        gens = basis_of(blk)
        lines.append(" ; ".join(" ".join(str((g >> i) & 1) for i in range(V)) for g in gens))
    return "\n".join(lines) + "\n"


def search():
    maps = group_maps()
    t_orbits = orbits(2, maps)
    k_orbits = orbits(3, maps)
    matrix = orbit_matrix(t_orbits, k_orbits)
    return t_orbits, k_orbits, matrix, solve(matrix)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the first solution as a qdesign file")
    args = ap.parse_args(argv)
    t_orbits, k_orbits, matrix, sols = search()
    print(
        f"orbits: {len(t_orbits)} on 2-subspaces, {len(k_orbits)} on 3-subspaces; "
        f"orbit matrix {len(matrix)}x{len(matrix[0])}; solutions {sols}",
        file=sys.stderr,
    )
    if not sols:
        print(f"no solution with this group for lambda={LAMBDA}", file=sys.stderr)
        return 1
    if args.out:
        blocks = [blk for j in sols[0] for blk in k_orbits[j]]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# 2-(7,3,{LAMBDA})_2 design: Kramer-Mesner solution {sols[0]} under the\n")
            fh.write("# Singer cycle of x^7+x+1 with the Frobenius map; made by\n")
            fh.write("# python3 perfbench/kramer_mesner.py --out <file>\n")
            fh.write(qdesign_text(blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
