"""One-step and two-step majority-logic decoders and their capabilities.

Decoding is binary (p = 2).  Words, blocks and checks are bitmask ints with
bit j = position j.  Every decision pass reads an immutable snapshot of the
received word and applies all flips at once; a pass that leaves some check
unsatisfied reports detected-uncorrectable rather than iterating.  Decoded
outputs always satisfy every parity check of the code.

Both decoders run column-syndrome kernels on one column mask per position
(bit i = check i contains the position).  The one-step decoder takes the
code's own columns (`BinaryCode.columns`, the checks transposed once by
`field._columns`); the two-step decoder reads each step-2 block's
superspaces off them, from the block's point mask alone, and transposes
its member rows with the same `field._columns`.  Nothing in it is
projective: it reads the step-2 design's t and block masks, in any
construction mode, and takes its length and J from the code.  A decode
XORs the vectors of the received word's 1-bits, computing each check's
parity once per word: the columns into a syndrome, or, where the
one-step decoder votes in slot lanes (below), each position's slot lanes
into R lanes of one bit per position.  That XOR is `field._xor_select`,
the package's one "XOR the vectors at a word's set bits", over tables
each decoder builds from its vectors at construction
(`field._xor_tables`).  The two-step XOR gives J + 1 lanes of one bit per
step-2 block; its step-1 majority adds the J class lanes by a bit-sliced
adder tree that halves them level by level into one count per block
(`majority_tree`).  The scalar loops they replaced, one parity per
(check, point) pair, and the per-block count are kept as test references.

Both decoders end in one vote stage, the base class `_MajorityVote`, which
owns the threshold rule, the decision and the cost model: each decoder
computes its own disagreement vector (the one-step syndrome; the two-step
step-1 estimates XOR the received block parities) and gives the stage its
columns and its lambda (the design's lambda_2 one-step, 1 two-step).  The
stage reads r_j, the popcount of column j, flips j when 2 U_j > r_j +
lambda - 1 for the U_j disagreeing checks or blocks through j, counts the
work and builds the outcome.  It counts the U_j by one kernel, a function
from the disagreement vector to the flip mask, which `_vote_kernel` picks
at build time from the b rows the columns transpose (the code's checks
one-step, the step-2 blocks two-step): a count table that adds the
disagreeing rows into one bit field per position by `field._sum_select`,
the adding sibling of `_xor_select`; one-step, slot lanes counted by the
same adder tree as the two-step step-1 majority; or a popcount loop.
All three give the same flips.  The stage's one tail,
`_MajorityVote._decide`, flips the kernel's mask into the received word,
which is decoded iff the one codeword test, `BinaryCode.is_codeword`,
accepts it, and the outcome keeps the mask.  `check_evals` stays the
paper's cost model, the parity evaluations of the scalar decoder (the sum
of the r_j, n r per word one-step, plus b_2 J step-1 evaluations
two-step), added per call: a model count, not a count of machine
operations, the same whichever kernel votes.

Capability formulas:

* 2-designs: one-step decoding corrects floor((r + lambda - 1) / (2 lambda))
  errors (Rudolph's threshold rule, with the received symbol's own vote
  realized as the threshold 2 U_j > r + lambda - 1 on unsatisfied checks).
* 3-designs: e errors touch at most e lambda_2 - (e-1) lambda_3 of the
  checks through a position (union bound with spanning-tree overlap), which
  yields the largest e with (2e-1) lambda_2 - (2e-3) lambda_3 < r.
* Two-step decoding of the geometric k-subspace code via a design of
  (k-1)-subspaces corrects min(floor(J/2), floor((r + lambda - 1) /
  (2 lambda))) with J = [v-k+1, 1]_q superspaces per block.
"""

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import ceil, comb, log
from operator import add, and_, or_
from typing import Sequence

from ._record import Record
from .codes import BinaryCode
from .designs import CombinatorialDesign, SubspaceDesign, derive_params_q
from .field import (
    _columns,
    _sum_select,
    _xor_select,
    _xor_tables,
    bit_positions,
    pack_mask,
    pack_text_rows,
)
from .pspace import gaussian_coefficient

DECODED = "decoded"
DETECTED = "detected-uncorrectable"


class DecodeOutcome(Record):
    _fields = ("status", "word", "flip_mask", "n")

    def __init__(self, status: str, word: int | None, flip_mask: int, n: int) -> None:
        # one outcome per decoded word: written item by item, like Subspace
        d = self.__dict__
        d["status"] = status
        d["word"] = word
        d["flip_mask"] = flip_mask
        d["n"] = n

    @property
    def flips(self) -> tuple[int, ...]:
        """The flipped positions, ascending: the set bits of `flip_mask`."""
        return bit_positions(self.flip_mask)

    def word_str(self) -> str:
        if self.word is None:
            return ""
        return "".join(str((self.word >> j) & 1) for j in range(self.n))


def as_mask(word, n: int) -> int:
    """A word given as an int bitmask or as a 0/1 string, position 0 first,
    as a bitmask; a string is packed as one row by `field.pack_text_rows`."""
    if isinstance(word, int):
        if word < 0 or word >> n:
            raise ValueError(f"word does not fit length {n}")
        return word
    if not isinstance(word, str):
        raise ValueError(f"word must be an int or a 0/1 string, not {type(word).__name__}")
    bits = word.strip()
    if len(bits) != n:
        raise ValueError(f"word has length {len(bits)}, expected {n}")
    masks = pack_text_rows(bits, n) if n else [0]  # it takes a positive width only
    if masks is None:
        bad = next(ch for ch in bits if ch not in "01")
        raise ValueError(f"non-binary symbol {bad!r}")
    return masks[0]


# ---------------------------------------------------------------------------
# Capability formulas


def ell_one_step(r: int, lam: int) -> int:
    """Errors correctable by one-step decoding of a 2-design."""
    if not 1 <= lam <= r:
        raise ValueError("need r >= lambda >= 1")
    return (r + lam - 1) // (2 * lam)


def ell_one_step_3design(r: int, lambda2: int, lambda3: int) -> int:
    """Errors correctable by one-step decoding of a 3-design.

    Largest e with (2e-1) lambda_2 - (2e-3) lambda_3 < r: with pair and
    triple regularity, e errors can corrupt at most e lambda_2 - (e-1)
    lambda_3 of the r checks through a position.
    """
    if not 1 <= lambda3 < lambda2 <= r:
        raise ValueError("need r >= lambda_2 > lambda_3 >= 1")
    num = r + lambda2 - 3 * lambda3
    if num <= 0:
        return 0
    return max(0, (num - 1) // (2 * (lambda2 - lambda3)))


def ell_bounds(v: int, k: int, q: int, lam: int) -> tuple[int, int]:
    """The bracketing floor expressions for ell in terms of (v, k, q) only.

    Evaluated with exact rationals: Q = (q^(v-1)-1)/(q^(k-1)-1), lower
    floor((Q-1)/2), upper floor((Q-1)/2 + 1/(2 lambda)).  Note these can
    undershoot the exact ell by one; see the capability tests.
    """
    if not 2 <= k < v:
        raise ValueError("need 2 <= k < v")
    quot = Fraction(q ** (v - 1) - 1, q ** (k - 1) - 1)
    lower = (quot - 1) / 2
    upper = lower + Fraction(1, 2 * lam)
    return (int(lower // 1), int(upper // 1))


class CapabilityReport(Record):
    """Two-step capability of the geometric k-subspace code decoded through
    a (k-1)-subspace design with 2-design parameters (r, lambda_2)."""

    _fields = ("ell_one_step", "ell_bounds", "J", "ell_two_step", "r", "lambda2")


def two_step_capability(v: int, k: int, q: int, lam: int) -> CapabilityReport:
    """J, both capability floors, and their min, for a step-2 design with
    (k-1)-dimensional blocks and 2-design lambda `lam`."""
    if k < 3:
        raise ValueError("two-step needs k >= 3")
    if k > v:
        raise ValueError("need k <= v")
    J = gaussian_coefficient(v - k + 1, 1, q)
    r = derive_params_q(2, v, k - 1, lam, q).r
    ell2 = ell_one_step(r, lam)
    return CapabilityReport(
        ell_one_step=ell2,
        ell_bounds=ell_bounds(v, k - 1, q, lam),
        J=J,
        ell_two_step=min(J // 2, ell2),
        r=r,
        lambda2=lam,
    )


# ---------------------------------------------------------------------------
# Decoders


# The count table votes while there are at most this many checks (or
# step-2 blocks) per position, b <= 6 n: at b = 4.2 n (`twostep-q4`) it
# votes in about 70% of the popcount loop's time, at b = 9 n
# (`onestep-subspace`, `twostep-subspace`) in 130-155% (in-process
# timings on both sides in BENCH_count_vote.json).  Above it the one-step
# decoder votes in slot lanes, at b = 9 n (`onestep-subspace`) in about
# 63% of the loop's time (BENCH_lane_vote.json).
_COUNT_TABLE_CHECKS_PER_POSITION = 6


def _vote_kernel(rows, columns, halves, syndrome: bool):
    """The vote stage's kernel, and the vectors a syndrome decoder XORs
    for it: the one rule that picks how the stage counts U_j.

    `rows` are the b check (or step-2 block) masks, in the order of the
    bits of the n `columns` they transpose, and `halves` the positions'
    thresholds.  Every kernel is a function from a disagreement vector to
    its flip mask, bit j set when U_j > half_j, and all give the same
    flips.  While b <= 6 n (`_COUNT_TABLE_CHECKS_PER_POSITION`) the count
    table (`count_table`) votes, on the columns' disagreement vector.
    Above that a `syndrome` decoder, whose disagreement vector is the XOR
    of the columns at the received 1-bits, votes in slot lanes: it XORs
    the slot lane vectors (`slot_lanes`) in place of the columns, and the
    lane tree over their R lanes of n bits (`majority_tree`) counts each
    position's set lane bits.  The two-step decoder, whose disagreement
    vector is not a sum of per-position vectors, keeps the popcount loop
    (`popcount_loop`) there.  The vectors are the columns unless the
    kernel votes in slot lanes.
    """
    n = len(columns)
    if len(rows) <= _COUNT_TABLE_CHECKS_PER_POSITION * n:
        return count_table(rows, columns, halves), columns
    if not syndrome:
        return popcount_loop(columns, halves), columns
    lanes, R = slot_lanes(rows, n)
    return majority_tree(R, n, halves), lanes


def count_table(rows, columns, halves):
    """The count-table kernel for the check (or block) masks `rows`, in the
    order of the bits of the n `columns` they transpose, with r_j =
    popcount(columns[j]) and the thresholds `halves`: a function from a
    disagreement vector over the rows to the mask of the positions j with
    U_j = popcount(disagree & columns[j]) > half_j.

    Position j owns an F-bit field of one int, bits F j to F j + F - 1,
    with F = max over j of max(r_j, half_j), `.bit_length() + 1`.  The
    field starts at the bias 2^(F-1) - 1 - half_j, which that F keeps
    nonnegative, and counts up to U_j <= r_j without overflow, so its top
    bit is set exactly when U_j > half_j.  Each row, bit j spread to bit
    F j, goes into `field._xor_tables(combine=operator.add)`.  A vote is
    one `field._sum_select` of the disagreeing rows onto the bias, through
    the sums of every subset of 4 rows, one AND with the fields' top bits,
    and bit j of the mask for each top bit F j + F - 1 left, read from
    the highest down.
    """
    F = max(max(map(int.bit_count, columns)), max(halves)).bit_length() + 1
    bias = top = 0
    for half in reversed(halves):
        bias = (bias << F) | ((1 << (F - 1)) - 1 - half)
        top = (top << F) | (1 << (F - 1))
    units = [1 << (F * j) for j in range(len(halves))]
    spread = []
    for row in rows:
        wide = 0
        while row:
            low = row & -row
            wide += units[low.bit_length() - 1]
            row ^= low
        spread.append(wide)
    sums = _xor_tables(spread, add)
    flips = [0] + [1 << j for j in range(len(halves))]  # at index j + 1

    def flip_mask(disagree: int) -> int:
        fields = top & (_sum_select(sums, disagree) + bias)
        mask = 0
        while fields:
            high = fields.bit_length()  # F j + F for the top bit of field j
            mask |= flips[high // F]
            fields ^= 1 << (high - 1)
        return mask

    return flip_mask


def popcount_loop(columns, halves):
    """The popcount-loop kernel for the `columns` and thresholds `halves`:
    a function from a disagreement vector to the mask of the positions j
    with popcount(disagree & columns[j]) > half_j, one AND and one
    popcount per position however few the checks."""
    votes = tuple(zip(columns, halves, [1 << j for j in range(len(columns))]))

    def flip_mask(disagree: int) -> int:
        return sum([bit for col, half, bit in votes if (disagree & col).bit_count() > half])

    return flip_mask


class _MajorityVote:
    """The vote stage both decoders end with, and the one owner of their
    threshold rule and cost model.

    Each position j has a column mask (bit i = check or block i through j)
    of r_j = popcount(column j) bits.  j is flipped when U_j, the checks or
    blocks through j that disagree, satisfies 2 U_j > r_j + lam - 1, that
    is U_j > half_j = (r_j + lam - 1) // 2, and all flips are applied at
    once: Rudolph's rule with the decoder's lam, and with lam = 1 a plain
    majority.  Each vote adds the model count of parity evaluations per
    word to `check_evals`: the decoder's `step1_evals` plus one evaluation
    per point of every check or block, the sum of the r_j.

    The stage counts U_j by one kernel, `_kernel`, a function from the
    decoder's disagreement vector to the flip mask, which each decoder
    takes from `_vote_kernel` over the rows its columns transpose and the
    stage's thresholds.  Each decoder's `decode` ends in `_decide`, the one
    tail: the flipped word is decoded only if `BinaryCode.is_codeword`
    accepts it.
    """

    def __init__(self, code: BinaryCode, columns, lam: int, step1_evals: int = 0):
        if code.p != 2:
            raise ValueError("decoding is implemented for binary codes only")
        self.code = code
        self.n = code.n
        self._columns = columns
        counts = [col.bit_count() for col in columns]
        self._halves = tuple([(r + lam - 1) // 2 for r in counts])
        self._evals_per_word = step1_evals + sum(counts)
        self.check_evals = 0

    def _decide(self, received: int, disagree: int) -> DecodeOutcome:
        """The outcome of flipping, in the received word, every position
        that loses its vote on `disagree`: decoded iff the flipped word is
        a codeword."""
        self.check_evals += self._evals_per_word
        mask = self._kernel(disagree)
        out = received ^ mask
        if self.code.is_codeword(out):
            return DecodeOutcome(status=DECODED, word=out, flip_mask=mask, n=self.n)
        return DecodeOutcome(status=DETECTED, word=None, flip_mask=mask, n=self.n)


def slot_lanes(checks, n: int) -> tuple[tuple[int, ...], int]:
    """The one-step lane vote's vectors for the checks `checks`, n-bit
    point masks in the order of the columns' bits, and R = max over j of
    r_j.

    The r_j checks through position j, ascending, fill the slots (0, j) to
    (r_j - 1, j); the slots (t, j) with r_j <= t < R hold no check.  Lane
    vector p has bit t n + j set when p lies in the check in slot (t, j):
    the transpose (`field._columns`) of the R n slot rows in the order of
    t n + j, each check packed once and the empty slots given the zero
    row.
    """
    slots = [[] for _ in range(n)]
    bits = [1 << j for j in range(n)]
    for i, check in enumerate(checks):
        while check:
            top = check.bit_length() - 1
            slots[top].append(i)
            check ^= bits[top]
    R = max(map(len, slots))
    empty = len(checks)
    order = itertools.chain.from_iterable(zip(*[s + [empty] * (R - len(s)) for s in slots]))
    return _columns((*checks, 0), n, order), R


class OneStepDecoder(_MajorityVote):
    """Per-position threshold vote over the design blocks through it.

    Position j is flipped iff 2 U_j > r_j + lambda_2 - 1, where U_j counts
    unsatisfied checks through j and r_j all checks through j, the popcount
    of its column (r at every position of a design).  Ties never flip.  The
    rule is the vote stage's (`_MajorityVote`), given the header's
    lambda_2; `r` and `lambda2` keep the header's values.

    Column-syndrome kernel: each position j takes the code's column mask
    (`BinaryCode.columns`), bit i set when check i contains j; the blocks
    are exactly the code's checks (checked at build time).  A decode XORs
    the columns of the received word's 1-bits into the syndrome (bit i =
    parity of check i), by `field._xor_select` over the columns' tables,
    so each check's parity is computed once per word, and the vote stage
    counts U_j, the 1-bits of the syndrome in column j, with the kernel
    that `_vote_kernel` picks for the code's checks as a syndrome's rows.
    Where that kernel votes in slot lanes, the decoder XORs each received
    1-bit's slot lane vector (`slot_lanes`) in place of its column, so
    lane t holds at bit j the parity of the t-th check through j.  The
    vote stage's tail (`_MajorityVote._decide`) flips the losing positions
    and tests the flipped word with `BinaryCode.is_codeword`, as the
    two-step decoder does.  `check_evals` is the model count of the scalar
    decoder, the sum of the r_j (n r for a design) parity evaluations per
    word, one per point of every block, added per call; it is not a count
    of machine operations.
    """

    def __init__(self, code: BinaryCode, design: CombinatorialDesign):
        if design.n != code.n:
            raise ValueError("design and code disagree on length")
        if design.t < 2:
            raise ValueError("one-step decoding needs a design with t >= 2")
        checks = code.check_masks()
        # the same tuple whenever the code was built from the design
        if checks != design.masks and sorted(checks) != sorted(design.masks):
            raise ValueError("code checks are not the design's incidence rows")
        params = design.params()
        self.r = params.r
        self.lambda2 = params.lambda_s(2)
        super().__init__(code, code.columns, self.lambda2)
        self._kernel, vectors = _vote_kernel(checks, self._columns, self._halves, syndrome=True)
        self._syndrome_tables = _xor_tables(vectors)

    def decode(self, word) -> DecodeOutcome:
        received = as_mask(word, self.n)
        return self._decide(received, _xor_select(self._syndrome_tables, received))


def check_step2_design(step2: SubspaceDesign | CombinatorialDesign) -> None:
    """Raise ValueError unless `step2` can serve as a two-step decoder's
    step-2 design: a 2-design (t >= 2) whose blocks have superspaces (k
    below v, the dimension of a `SubspaceDesign`'s space, or below n, the
    points of a `CombinatorialDesign`)."""
    if step2.t < 2:
        raise ValueError(
            f"two-step decoding needs a step-2 design with t >= 2, not t = {step2.t}"
        )
    name, size = ("v", step2.v) if isinstance(step2, SubspaceDesign) else ("n", step2.n)
    if step2.k >= size:
        raise ValueError(
            f"the step-2 design's blocks (k = {step2.k}, {name} = {size}) leave no room"
            f" for superspaces: two-step decoding needs a step-2 design with k < {name}"
        )


def majority_tree(J: int, width: int, halves: Sequence[int]):
    """The lane-tree kernel over J lanes of `width` bits: a function from
    the lanes to the mask of the offsets b with more than halves[b] of
    their J lane bits set; with every halves[b] = J // 2, a plain
    majority, ties giving 0.  Bits above the J lanes are ignored.  The
    tree is built once per decoder.

    Each level splits the w lanes left into a low half of ceil(w / 2) lanes
    and a high half of floor(w / 2), shifted down onto it; a level is its
    shift, the mask of its low half, and whether the carry out of the top
    plane can be set.  Lane 0 holds the largest count after every level,
    the size of the group of lanes added into it, so a carry is kept only
    when that count needs one more plane; after the last level it is J.
    The tree also holds the mask of the J lanes and, for each of the P =
    J.bit_length() planes of the final count, the mask of the offsets b
    whose constant 2^P - (halves[b] + 1) has that bit set.  An offset with
    halves[b] >= 2^P, whose count can never exceed it, takes the constant
    0.

    A call adds the lanes by that tree, bit-sliced: plane i holds bit i of
    every lane's count.  Each level adds the high half to the low half
    plane by plane, a half adder on plane 0 and full adders above it.  The
    count of the one lane left is compared with halves[b] + 1 at each
    offset as the carry out of adding the constant 2^P - (halves[b] + 1):
    the carry out of each plane is the majority of the plane, the carry in
    and the constant's bit there, which is the plane OR the carry in where
    the bit is set, AND it where it is clear.
    """
    levels = []
    sizes = [1] * J
    while len(sizes) > 1:
        low = (len(sizes) + 1) // 2
        grown = [a + b for a, b in zip(sizes[:low], sizes[low:] + [0])]
        carry = grown[0].bit_length() > sizes[0].bit_length()
        levels.append((low * width, (1 << (low * width)) - 1, carry))
        sizes = grown
    planes = J.bit_length()
    ones = [0] * planes
    for half in set(halves):
        complement = max(0, (1 << planes) - (half + 1))
        offsets = pack_mask([int(h == half) for h in halves])
        for i in range(planes):
            if complement >> i & 1:
                ones[i] |= offsets
    mask, levels, ones = (1 << (J * width)) - 1, tuple(levels), tuple(ones)

    def majority(lanes: int) -> int:
        planes = [lanes & mask]
        for shift, low, keep in levels:
            plane = planes[0]
            high = plane >> shift
            plane &= low
            carry = plane & high
            added = [plane ^ high]
            for plane in planes[1:]:
                high = plane >> shift
                plane &= low
                half = plane ^ high
                added.append(half ^ carry)
                carry = (plane & high) | (half & carry)
            if keep:
                added.append(carry)
            planes = added
        carry = 0
        for plane, one in zip(planes, ones):
            carry = (plane & carry) | ((plane | carry) & one)
        return carry

    return majority


class TwoStepDecoder(_MajorityVote):
    """Recover block parities from superspace checks, then vote per position.

    The decoder reads only the code and the step-2 design's t and block
    masks (`masks`, in block order): a `SubspaceDesign`, or the
    `CombinatorialDesign` that any construction mode makes of one.  Its
    length n is the code's, which the blocks must cover, and J = (n - |B|)
    / (|K| - |B|) for blocks of |B| points and checks of |K| points: the
    number of classes that partition the points off a block, [v-k, 1]_q for
    a step-2 design of k-subspaces in the projective, affine and flats
    modes.  The build raises ValueError unless the blocks cover the n
    positions and the checks have one size, larger than a block's.  The
    block order changes the tables, not an outcome or a count.

    Step 1 estimates the codeword parity over each step-2 block B from its
    J superspaces, the checks K that contain B: each K gives the parity of
    the received word over K minus B, and the majority of the J estimates
    wins (ties give 0).  The superspaces are read off the code's columns,
    once per (code, design) pair: the checks set in the AND of the columns
    of every point of B's mask.  The build raises ValueError unless exactly
    J checks contain B and their classes K minus B are pairwise disjoint,
    which J classes of |K| - |B| points are exactly when the J checks cover
    every position.  The J checks are then orthogonal on the points
    outside B, so at most one estimate reads each error off B.  Step 2 sets
    each position j to the majority, over the step-2 blocks through j, of
    (block parity) - (received parity over the block minus j); ties keep
    the received bit.

    Column-syndrome kernel: with b_2 step-2 blocks, each position gets a
    member mask of J + 1 lanes of b_2 bits.  The classes of block b are the
    sets K minus B, in ascending order as masks.  Bit c b_2 + b is set when
    the position lies in class c of block b (c < J), or in block b itself
    (c = J).  A decode XORs the member masks of the received 1-bits once,
    by `field._xor_select` over the members' tables: lane c holds the
    parity over class c of every block, lane J the received parity over
    every block.  A bit-sliced halving adder tree (`majority_tree`, built
    once) adds the high half of the J class lanes to the low half until
    one lane is left, and compares that count with J // 2 + 1 to give the
    estimated block parities.  Block b's vote at j disagrees with the
    received bit exactly when bit b of D = estimates XOR received block
    parities is set, so j is flipped iff more than half of the blocks
    through j are set in D, counted by the vote stage with the kernel
    that `_vote_kernel` picks for the step-2 block masks as its rows: its
    rule with lambda = 1.  `check_evals` is the model count of the scalar
    decoder, b_2 J + n r parity evaluations per word, added per call.
    """

    def __init__(self, code: BinaryCode, step2: SubspaceDesign | CombinatorialDesign):
        check_step2_design(step2)
        n, blocks, checks = code.n, step2.masks, code.check_masks()
        if reduce(or_, blocks, 0) != (1 << n) - 1:
            raise ValueError("code length does not match the design's geometry")
        # the J classes of a block's superspaces partition the n - |B|
        # points off the block, |K| - |B| in each; where that leaves J
        # fractional, J classes cannot cover them and `_member_rows` rejects
        block, sizes = blocks[0].bit_count(), {check.bit_count() for check in checks}
        if len(sizes) != 1 or max(sizes) <= block:
            raise ValueError(
                f"the code's checks, of sizes {sorted(sizes)}, cannot be the superspaces"
                f" of step-2 blocks of {block} points in {n}"
            )
        self.J = J = (n - block) // (max(sizes) - block)
        rows = (row for lane in zip(*self._member_rows(code, blocks)) for row in lane)
        self._members = _columns(rows, n)
        self._member_tables = _xor_tables(self._members)
        # one bit of the J class lanes, and one step-1 evaluation, per
        # (block, class)
        self._parity_shift = classes = J * len(blocks)
        columns = tuple(member >> classes for member in self._members)
        super().__init__(code, columns, 1, classes)
        self._kernel = _vote_kernel(blocks, columns, self._halves, syndrome=False)[0]
        self._step1 = majority_tree(J, len(blocks), (J // 2,) * len(blocks))

    def _member_rows(self, code: BinaryCode, blocks):
        """Per block: its J superspaces minus the block, sorted, then the
        block itself.

        The superspaces are the code's checks that contain the block: the
        checks set in the AND of the columns of every point of the block's
        mask.  Unless exactly J checks contain the block and together they
        cover every position, which makes their classes pairwise disjoint,
        the code's checks are not the block's superspaces.
        """
        columns, checks, every = code.columns, code.check_masks(), (1 << code.n) - 1
        for b, bmask in enumerate(blocks):
            through = reduce(and_, [columns[j] for j in bit_positions(bmask)])
            sups = [checks[i] for i in bit_positions(through)]
            if len(sups) != self.J or reduce(or_, sups) != every:
                raise ValueError(f"the code's checks are not the {self.J} superspaces of block {b}")
            yield tuple(sorted(check ^ bmask for check in sups)) + (bmask,)

    def decode(self, word) -> DecodeOutcome:
        received = as_mask(word, self.n)
        lanes = _xor_select(self._member_tables, received)
        block_parities = lanes >> self._parity_shift
        return self._decide(received, self._step1(lanes) ^ block_parities)


# ---------------------------------------------------------------------------
# Empirical measurement


def _error_mask(rng: random.Random, n: int, w: int) -> int:
    """The mask of `rng.sample(range(n), w)`, drawn by the same
    `rng.getrandbits` calls in the same order, so the generator ends in the
    same state.

    `random.sample` keeps a set of the positions drawn when n exceeds its
    `setsize`, and redraws each position, by `getrandbits(n.bit_length())`,
    until it lies below n and is not yet set; the mask is that set.
    Otherwise it swaps each draw, below n - i at step i, out of a pool of
    the positions left.  A weight outside 0..n raises ValueError, as
    `sample` does.
    """
    if not 0 <= w <= n:
        raise ValueError(f"error weight {w} is outside 0..{n}")
    setsize = 21
    if w > 5:
        setsize += 4 ** ceil(log(3 * w, 4))
    getrandbits = rng.getrandbits
    mask = 0
    if n > setsize:
        k = n.bit_length()
        for _ in range(w):
            j = getrandbits(k)
            while j >= n or mask >> j & 1:
                j = getrandbits(k)
            mask |= 1 << j
        return mask
    pool = list(range(n))
    for left in range(n, n - w, -1):
        k = left.bit_length()
        j = getrandbits(k)
        while j >= left:
            j = getrandbits(k)
        mask |= 1 << pool[j]
        pool[j] = pool[left - 1]
    return mask


class RadiusReport(Record):
    _fields = ("certified_radius", "first_failure_weight", "trials", "exhaustive")


def measure_decoding_radius(
    decoder,
    budget: int = 200_000,
    max_weight: int | None = None,
    seed: int = 0,
) -> RadiusReport:
    """Largest weight w such that every tested error pattern of weight <= w
    decodes the zero codeword back to zero.

    Each weight is swept exhaustively while C(n, w) fits the budget and by
    uniform sampling beyond that; `exhaustive` reports whether every swept
    weight up to the radius was exhaustive.  A sampled pattern is
    `random.Random(seed).sample(range(n), w)`'s draw, taken as a mask by
    the same `getrandbits` calls (`_error_mask`), so seeded reports depend
    on the generator's `getrandbits` stream, not on how the standard
    library implements `sample`.  A budget or a maximum weight below 1
    tests nothing, so it is rejected.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if max_weight is not None and max_weight < 1:
        raise ValueError(f"max_weight must be at least 1, got {max_weight}")
    n = decoder.n
    rng = random.Random(seed)
    bits = [1 << j for j in range(n)]
    trials = 0
    exhaustive = True
    radius = 0
    w = 1
    limit = max_weight if max_weight is not None else n
    while w <= limit:
        total = comb(n, w)
        if total <= budget:
            masks = map(sum, itertools.combinations(bits, w))
            full = True
        else:
            masks = (_error_mask(rng, n, w) for _ in range(budget))
            full = False
        failed = False
        for mask in masks:
            trials += 1
            out = decoder.decode(mask)
            if out.status != DECODED or out.word != 0:
                failed = True
                break
        if failed:
            return RadiusReport(
                certified_radius=radius,
                first_failure_weight=w,
                trials=trials,
                exhaustive=exhaustive,
            )
        radius = w
        exhaustive = exhaustive and full
        w += 1
    return RadiusReport(
        certified_radius=radius, first_failure_weight=None, trials=trials, exhaustive=exhaustive
    )


class SimReport(Record):
    _fields = ("weight", "trials", "successes", "miscorrected", "detected", "check_evals", "seed")

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def simulate(
    decoder,
    weight: int,
    trials: int,
    seed: int = 0,
    zero_codeword: bool = False,
) -> SimReport:
    """Random-error channel: per trial, a random codeword (or zero, by
    linearity) plus a uniform weight-w error pattern is decoded; outcomes
    and the parity-evaluation workload are tallied.

    The error pattern is `random.sample(range(n), weight)`'s draw from the
    seeded generator, taken as a mask by the same `getrandbits` calls
    (`_error_mask`), so seeded reports depend on the generator's
    `getrandbits` stream, not on how the standard library implements
    `sample`."""
    rng = random.Random(seed)
    n = decoder.n
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if weight < 0:
        raise ValueError(f"weight must be non-negative, got {weight}")
    if weight > n:
        raise ValueError("error weight exceeds code length")
    start_evals = decoder.check_evals
    successes = miscorrected = detected = 0
    for _ in range(trials):
        codeword = 0 if zero_codeword else decoder.code.random_codeword(rng)
        out = decoder.decode(codeword ^ _error_mask(rng, n, weight))
        if out.status == DECODED and out.word == codeword:
            successes += 1
        elif out.status == DECODED:
            miscorrected += 1
        else:
            detected += 1
    return SimReport(
        weight=weight,
        trials=trials,
        successes=successes,
        miscorrected=miscorrected,
        detected=detected,
        check_evals=decoder.check_evals - start_evals,
        seed=seed,
    )
