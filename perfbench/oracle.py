"""Reference computations made apart from the package.

Nothing here imports designcodes.  Vectors of F_2^v are ints with bit i =
coordinate i; a code's check row is an int with bit j = point j, where the
points of PG(v-1, q) are numbered as the package documents: normalised
representatives (first nonzero coordinate 1) in lexicographic order,
coordinate 0 most significant.
"""

from __future__ import annotations

import itertools
from math import comb
from pathlib import Path


def gaussian(v: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^v."""
    num = den = 1
    for i in range(k):
        num *= q ** (v - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def binomial_rank(v: int, k: int) -> int:
    """2-rank of points vs k-subspaces of F_2^v: sum of C(v, i), i <= v - k."""
    return sum(comb(v, i) for i in range(v - k + 1))


def hamada_rank(v: int, k: int, p: int, m: int) -> int:
    """Hamada's p-rank of points vs k-subspaces of F_q^v, q = p^m."""
    total = 0
    for s in itertools.product(range(k, v + 1), repeat=m):
        term = 1
        for j in range(m):
            d = s[(j + 1) % m] * p - s[j]
            if not 0 <= d <= v * (p - 1):
                term = 0
                break
            term *= sum(
                (-1) ** i * comb(v, i) * comb(v - 1 + d - i * p, v - 1)
                for i in range(d // p + 1)
            )
        total += term
    return total


def gf2_basis(rows) -> list[int]:
    """A row-echelon basis of the GF(2) span of int rows."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return list(basis.values())


def satisfies(word: int, basis) -> bool:
    return all((word & row).bit_count() % 2 == 0 for row in basis)


# ---------------------------------------------------------------------------
# q = 2


def _q2_index(v: int) -> list[int]:
    """Point index of each nonzero vector of F_2^v."""
    index = [0] * (1 << v)
    for x in range(1, 1 << v):
        lex = sum(((x >> i) & 1) << (v - 1 - i) for i in range(v))
        index[x] = lex - 1
    return index


def _span(gens) -> list[int]:
    vecs = [0]
    for g in gens:
        vecs += [x ^ g for x in vecs]
    return vecs[1:]


def q2_subspace_rows(v: int, k: int) -> list[int]:
    """Check rows of all k-subspaces of F_2^v, enumerated by echelon form."""
    index = _q2_index(v)
    rows = []
    for pivots in itertools.combinations(range(v), k):
        free = [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, v) if j not in pivots
        ]
        for bits in itertools.product((0, 1), repeat=len(free)):
            gens = [1 << pc for pc in pivots]
            for (i, j), b in zip(free, bits):
                if b:
                    gens[i] |= 1 << j
            mask = 0
            for x in _span(gens):
                mask |= 1 << index[x]
            rows.append(mask)
    return rows


def read_qdesign(path: Path) -> list[list[int]]:
    """Each block's generators, from a q = 2 design file."""
    lines = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    blocks = []
    for line in lines[1:]:
        gens = []
        for part in line.split(";"):
            gens.append(sum(int(x) << i for i, x in enumerate(part.split())))
        blocks.append(gens)
    return blocks


def line_counts(blocks) -> dict[tuple[int, int], int]:
    """How many blocks hold each line {a, b, a^b}, keyed by its two smallest
    vectors; a line missing from every block is absent."""
    counts: dict[tuple[int, int], int] = {}
    for gens in blocks:
        vecs = sorted(_span(gens))
        for a, b in itertools.combinations(vecs, 2):
            if a ^ b > b:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def q2_design_rows(v: int, blocks) -> list[int]:
    index = _q2_index(v)
    rows = []
    for gens in blocks:
        mask = 0
        for x in _span(gens):
            mask |= 1 << index[x]
        rows.append(mask)
    return rows


# ---------------------------------------------------------------------------
# q = 4, modulus x^2 + x + 1; elements 0, 1, x = 2, x + 1 = 3, addition XOR

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def q4_hyperplane_rows(v: int) -> list[int]:
    """Check rows of the hyperplanes {x : a . x = 0} of PG(v-1, 4)."""
    points = [
        vec
        for vec in itertools.product(range(4), repeat=v)
        if next((c for c in vec if c), 0) == 1
    ]
    rows = []
    for a in points:
        mask = 0
        for j, x in enumerate(points):
            dot = 0
            for ai, xi in zip(a, x):
                dot ^= _GF4_MUL[ai][xi]
            if dot == 0:
                mask |= 1 << j
        rows.append(mask)
    return rows
