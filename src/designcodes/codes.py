"""Binary codes from design incidence matrices: ranks, dimensions, distances.

The rows of a design's block-point incidence matrix are taken as parity
checks of a linear code over F_p, so the code dimension is n minus the
p-rank of the matrix; over F_2 the rows are the design's block point masks
(`CombinatorialDesign.masks`) as they are.  A binary code transposes its
checks once (`BinaryCode.columns`, by `field._columns`) and reduces the
columns once, the short side of a 2-design's incidence matrix (b >= v,
Fisher): the systematic nullspace basis comes out of that one
`field.rref_gf2` call, the rank and the codeword test are read off the
basis, and the decoders read their tables off the same columns.  Random
codewords and the codeword test XOR basis vectors at a word's set bits by
`field._xor_select`, the package's one such kernel, one 256-entry table
lookup per byte of the word while the code is at most 1024 positions
long and its tables fit `field._xor_tables`' size cap.  For geometric
(full subspace lattice) designs the rank is also available in closed form: the
general Hamada formula for q = p^m, and the binomial-sum shortcut when
p = q = 2.
"""

import itertools
import random
from functools import cached_property
from math import comb

from ._record import Record
from .designs import CombinatorialDesign, SubspaceDesign, projective_version
from .field import (
    PrimeMatrix,
    _columns,
    _xor_select,
    _xor_tables,
    is_prime,
    matrix_rank,
    rref_gf2,
)
from .pspace import gaussian_coefficient


class CodeSource(Record):
    """Where a code's checks came from: the construction mode, one of
    "projective", "affine", "flats" and "combinatorial"."""

    _fields = ("mode",)


class BinaryCode(Record):
    """Linear code given by parity-check rows over F_p (p = 2 throughout
    the built-in tables; the rank machinery is p-generic).

    For p = 2 the checks are transposed once, on first use, into one column
    mask per position (`columns`), and the columns are row-reduced once
    into the systematic nullspace basis; the rank is n minus its size.  The
    tables `field._xor_select` reads for random codewords and the codeword
    test, both over that basis, are built on their first use.
    """

    _fields = ("n", "p", "checks", "source")
    _defaults = {"source": None}

    @cached_property
    def rank(self) -> int:
        if self.p == 2:
            return self.n - len(self._null_basis)
        return matrix_rank(self.checks, self.p)

    @property
    def dim(self) -> int:
        return self.n - self.rank

    def check_masks(self) -> tuple[int, ...]:
        if self.checks.p != 2:
            raise ValueError("bitmask checks require p = 2")
        return self.checks.rows

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Column j of the checks as a mask, bit i set when check i contains
        position j (p = 2): the checks transposed once, by `field._columns`."""
        return _columns(self.check_masks(), self.n)

    @cached_property
    def _codeword_tables(self):
        """`field._xor_tables` of the nullspace basis by position: position j
        holds the basis vector whose top (free) bit is j, a pivot position 0."""
        by_top = {vec.bit_length() - 1: vec for vec in self._null_basis}
        return _xor_tables(by_top.get(j, 0) for j in range(self.n))

    def is_codeword(self, word: int) -> bool:
        """Whether `word` satisfies every check.  A systematic basis vector
        has exactly one free bit, its top bit, so a word is a codeword iff it
        equals the XOR of the basis vectors at its free bits.  Only the
        word's low n bits are read, as the checks' AND would."""
        word &= (1 << self.n) - 1
        return _xor_select(self._codeword_tables, word) == word

    def nullspace_basis(self) -> list[int]:
        """Basis of the codeword space as bitmasks (p = 2 only): a fresh
        list of the cached basis, so a caller's edit leaves the code as it
        was."""
        return list(self._null_basis)

    @cached_property
    def _null_basis(self) -> tuple[int, ...]:
        """The systematic nullspace basis: for each free position f of the
        reduced checks, ascending, the codeword with bit f and pivot bits only.

        A 2-design has at least as many checks as positions (Fisher), so the
        n columns are reduced rather than the checks.  Column j is tagged
        with bit n - 1 - j above its check bits.  `field.rref_gf2` pivots
        on a row's lowest bit, so the reduced rows with a pivot in the tag
        are the relations among the columns in reduced form with the highest
        position as pivot: the systematic basis, highest f first.
        """
        if self.p != 2:
            raise ValueError("nullspace enumeration is implemented for p = 2 only")
        n, nchecks = self.n, self.checks.nrows
        tagged = (col | 1 << (nchecks + n - 1 - j) for j, col in enumerate(self.columns))
        rows, pivots = rref_gf2(tagged)
        basis = [
            int(format(row >> nchecks, f"0{n}b")[::-1], 2)
            for row, pc in zip(rows, pivots)
            if pc >= nchecks
        ]
        return tuple(reversed(basis))

    @cached_property
    def _basis_tables(self):
        """`field._xor_tables` of the nullspace basis."""
        return _xor_tables(self._null_basis)

    def random_codeword(self, rng: random.Random) -> int:
        """The XOR of the basis vectors at the set bits of one
        `rng.getrandbits(dim)` draw; a code of dimension 0 draws nothing."""
        dim = len(self._null_basis)
        return _xor_select(self._basis_tables, rng.getrandbits(dim)) if dim else 0


def incidence_matrix(design: CombinatorialDesign) -> PrimeMatrix:
    """Block-point incidence matrix over GF(2), one 0/1 row per block: the
    blocks' point masks as they are, which the design checked when it was
    built."""
    return PrimeMatrix(p=2, ncols=design.n, rows=design.masks)


def build_code(
    design: CombinatorialDesign, p: int = 2, mode: str = "combinatorial"
) -> BinaryCode:
    """Code whose parity checks are the design's incidence rows."""
    return BinaryCode(n=design.n, p=p, checks=incidence_matrix(design), source=CodeSource(mode))


def _binom(n: int, k: int) -> int:
    if n < 0 or k < 0:
        return 0
    return comb(n, k)


def hamada_rank_terms(v: int, k: int, p: int, m: int):
    """Per-tuple contributions of the geometric p-rank formula.

    Iterates all cyclic tuples (s_0, ..., s_{m-1}) with k <= s_j <= v and
    0 <= s_{j+1} p - s_j <= v (p - 1) (indices mod m); each term is the
    product over j of sum_{i=0}^{L} (-1)^i C(v, i) C(v - 1 + s_{j+1} p -
    s_j - i p, v - 1) with L = floor((s_{j+1} p - s_j) / p).  Exposed so a
    disagreement with a matrix rank can be reported tuple by tuple.
    """
    if not 0 <= k <= v:
        raise ValueError("need 0 <= k <= v")
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    terms = []
    for s in itertools.product(range(k, v + 1), repeat=m):
        diffs = [s[(j + 1) % m] * p - s[j] for j in range(m)]
        if any(d < 0 or d > v * (p - 1) for d in diffs):
            continue
        prod = 1
        for d in diffs:
            upper = d // p
            inner = sum(
                (-1) ** i * _binom(v, i) * _binom(v - 1 + d - i * p, v - 1)
                for i in range(upper + 1)
            )
            prod *= inner
        terms.append((s, prod))
    return terms


def hamada_rank(v: int, k: int, p: int, m: int) -> int:
    """p-rank of the incidence matrix of points vs k-subspaces of F_q^v,
    q = p^m, by the closed formula (exact integer arithmetic)."""
    return sum(val for _, val in hamada_rank_terms(v, k, p, m))


def binary_rank_formula(v: int, k: int) -> int:
    """2-rank of the geometric design for p = q = 2: sum of C(v, i), i <= v-k."""
    return sum(comb(v, i) for i in range(v - k + 1))


def bch_bound(v: int, k: int, q: int) -> int:
    """BCH bound on the geometric code's minimum distance."""
    return gaussian_coefficient(v - k + 1, 1, q) + 1


class DistanceBounds(Record):
    _fields = ("lower", "known_exact")


def distance_bounds(v: int, k: int, q: int, mode: str) -> DistanceBounds:
    """Lower bound and (when known) the exact minimum distance.

    Projective mode: lower bound [v-k+1, 1]_q; the exact value is known for
    k = v, where the one check is the all-ones row and the code is the
    even-weight code (2), for q = 2 (2^(v-k+1)) and for even q > 2
    ((q+2) q^(v-k-1)).  At odd q it is not given, not even for k = v-1:
    there the BCH bound q+2 is short of the distance 2p of PG(2,p)'s line
    code (6 at p = 3).  Affine mode: lower
    bound 2 q^(v-k), exact 2^(v-k+1) for q = 2 via the Reed-Muller
    identification.
    """
    if mode == "projective":
        lower = gaussian_coefficient(v - k + 1, 1, q)
        if k == v:
            exact = 2
        elif q == 2:
            exact = 2 ** (v - k + 1)
        elif q % 2 == 0:
            exact = (q + 2) * q ** (v - k - 1)
        else:
            exact = None
        return DistanceBounds(lower=lower, known_exact=exact)
    if mode == "affine":
        lower = 2 * q ** (v - k)
        exact = 2 ** (v - k + 1) if q == 2 else None
        return DistanceBounds(lower=lower, known_exact=exact)
    raise ValueError(f"unknown mode {mode!r}")


def min_distance_bruteforce(code: BinaryCode, cap: int = 24) -> int:
    """Minimum weight over all nonzero codewords, by Gray-code enumeration.

    Returns n + 1 for the zero code ("no nonzero codeword").  Refuses to
    enumerate more than 2^cap codewords.
    """
    if code.p != 2:
        raise ValueError("minimum distance search is implemented for p = 2 only")
    basis = code.nullspace_basis()
    dim = len(basis)
    if dim == 0:
        return code.n + 1
    if dim > cap:
        raise ValueError(f"exhaustive search refused: dim {dim} exceeds cap {cap}")
    best = code.n + 1
    cur = 0
    for i in range(1, 1 << dim):
        cur ^= basis[(i & -i).bit_length() - 1]
        w = cur.bit_count()
        if w < best:
            best = w
    return best


class RankReport(Record):
    """Matrix rank next to the closed-form ranks, for the rank experiment."""

    _fields = ("matrix_rank", "hamada_rank", "binary_simplified")
    _defaults = {"hamada_rank": None, "binary_simplified": None}

    @property
    def all_agree(self) -> bool:
        others = [x for x in (self.hamada_rank, self.binary_simplified) if x is not None]
        return all(x == self.matrix_rank for x in others)


def rank_report(design: SubspaceDesign) -> RankReport:
    """p-rank of a subspace design's projective incidence matrix next to the
    geometric closed forms (the binomial sum only for q = 2)."""
    ctx = design.ctx
    code = build_code(projective_version(design), ctx.p, "projective")
    return RankReport(
        matrix_rank=code.rank,
        hamada_rank=hamada_rank(design.v, design.k, ctx.p, ctx.m),
        binary_simplified=binary_rank_formula(design.v, design.k) if design.q == 2 else None,
    )
