"""Binary codes from design incidence matrices: ranks, dimensions, distances.

The rows of a design's block-point incidence matrix are taken as parity
checks of a linear code over F_p, so the code dimension is n minus the
p-rank of the matrix; over F_2 the rows are the design's block point masks
(`CombinatorialDesign.masks`) as they are.  For geometric (full subspace
lattice) designs the rank is also available in closed form: the general
Hamada formula for q = p^m, and the binomial-sum shortcut when p = q = 2.
"""

import itertools
import random
from functools import cached_property
from math import comb

from ._record import FrozenRecord, Record
from .designs import CombinatorialDesign, DesignParams, SubspaceDesign, projective_version
from .field import PrimeMatrix, is_prime, matrix_rank, rref_gf2
from .pspace import gaussian_coefficient


class CodeSource(FrozenRecord):
    """Where a code's checks came from: construction mode plus parameters."""

    _fields = ("mode", "params")

    def __init__(self, mode: str, params: DesignParams) -> None:
        # mode: "projective" | "affine" | "flats" | "combinatorial"
        self.__dict__.update(mode=mode, params=params)


class BinaryCode(Record):
    """Linear code given by parity-check rows over F_p (p = 2 throughout
    the built-in tables; the rank machinery is p-generic).

    For p = 2 the check rows are row-reduced once, on first use; the rank,
    the codeword test and the nullspace basis all read that reduced form.
    """

    _fields = ("n", "p", "checks", "source")

    def __init__(
        self, n: int, p: int, checks: PrimeMatrix, source: CodeSource | None = None
    ) -> None:
        self.n, self.p, self.checks, self.source = n, p, checks, source

    @cached_property
    def rank(self) -> int:
        if self.p == 2:
            return len(self._reduced[0])
        return matrix_rank(self.checks, self.p)

    @property
    def dim(self) -> int:
        return self.n - self.rank

    def check_masks(self) -> list[int]:
        if self.checks.p != 2:
            raise ValueError("bitmask checks require p = 2")
        return self.checks.rows

    @cached_property
    def _reduced(self) -> tuple[list[int], list[int]]:
        """The check rows in reduced row echelon form, and their pivots."""
        if self.p != 2:
            raise ValueError("bitmask reduction is implemented for p = 2 only")
        return rref_gf2(self.check_masks())

    def is_codeword(self, word: int) -> bool:
        return all((word & row).bit_count() % 2 == 0 for row in self._reduced[0])

    def nullspace_basis(self) -> list[int]:
        """Basis of the codeword space as bitmasks (p = 2 only), cached."""
        return self._null_basis

    @cached_property
    def _null_basis(self) -> list[int]:
        if self.p != 2:
            raise ValueError("nullspace enumeration is implemented for p = 2 only")
        rows, pivots = self._reduced
        pivot_set = set(pivots)
        basis = []
        for f in range(self.n):
            if f in pivot_set:
                continue
            vec = 1 << f
            for row, pc in zip(rows, pivots):
                if (row >> f) & 1:
                    vec |= 1 << pc
            basis.append(vec)
        return basis

    def random_codeword(self, rng: random.Random) -> int:
        basis = self.nullspace_basis()
        word = 0
        bits = rng.getrandbits(len(basis)) if basis else 0
        for i, vec in enumerate(basis):
            if (bits >> i) & 1:
                word ^= vec
        return word


def incidence_matrix(design: CombinatorialDesign) -> PrimeMatrix:
    """Block-point incidence matrix, one 0/1 row per block: the blocks'
    point masks."""
    return PrimeMatrix.from_masks(design.masks, design.n)


def build_code(
    design: CombinatorialDesign, p: int = 2, mode: str = "combinatorial"
) -> BinaryCode:
    """Code whose parity checks are the design's incidence rows."""
    source = CodeSource(mode=mode, params=design.params())
    return BinaryCode(n=design.n, p=p, checks=incidence_matrix(design), source=source)


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


class DistanceBounds(FrozenRecord):
    _fields = ("lower", "known_exact")

    def __init__(self, lower: int, known_exact: int | None) -> None:
        self.__dict__.update(lower=lower, known_exact=known_exact)


def distance_bounds(v: int, k: int, q: int, mode: str) -> DistanceBounds:
    """Lower bound and (when known) the exact minimum distance.

    Projective mode: lower bound [v-k+1, 1]_q; the exact value is known for
    q = 2 (2^(v-k+1)), even q > 2 ((q+2) q^(v-k-1)), and k = v-1 (the BCH
    bound).  Affine mode: lower bound 2 q^(v-k), exact 2^(v-k+1) for q = 2
    via the Reed-Muller identification.
    """
    if mode == "projective":
        lower = gaussian_coefficient(v - k + 1, 1, q)
        if q == 2:
            exact = 2 ** (v - k + 1)
        elif q % 2 == 0:
            exact = (q + 2) * q ** (v - k - 1)
        elif k == v - 1:
            exact = bch_bound(v, k, q)
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


class RankReport(FrozenRecord):
    """Matrix rank next to the closed-form ranks, for the rank experiment."""

    _fields = ("matrix_rank", "hamada_rank", "binary_simplified")

    def __init__(
        self, matrix_rank: int, hamada_rank: int | None = None, binary_simplified: int | None = None
    ) -> None:
        self.__dict__.update(
            matrix_rank=matrix_rank, hamada_rank=hamada_rank, binary_simplified=binary_simplified
        )

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
