"""Arithmetic in GF(p^m) and rank computation of matrices over prime fields.

Field elements are plain ints in [0, q): the integer sum(c_i * p**i) encodes
the polynomial residue c_0 + c_1 x + ... + c_{m-1} x^(m-1) modulo the context
modulus.  For m = 1 this degenerates to the ordinary residue mod p, and for
q = 2 to a plain bit.  Arithmetic is read off a `FieldCtx`'s lazy tables
(`add_table`, `mul_table`, `neg_table`, `inv_table`), which every caller
indexes directly; `check` is the context's one per-element method.

Matrices over F_p carry one int bitmask per row (bit j = column j) when
p = 2, and one entry tuple per row otherwise.  Rank is computed by folding
a matrix's rows one at a time into a growing reduced basis.  Over GF(2)
that basis is kept in reduced row echelon form (`rref_gf2`), the package's
one GF(2) elimination of one matrix: a code runs it once, on its check
columns, for its nullspace basis, and reads its rank and codeword test off
that basis.  `rref_gf2_lanes` gives the same rows for many small matrices
at once, each in its own byte lane of k shared ints, eliminated column by
column with per-lane flags: the blocks of a q = 2 design file read in its
written layout.  The two stay apart because their traffic differs: lanes
pay a whole-buffer operation per column and row, which suits thousands of
k-row matrices of a few columns, not one matrix of many wide rows.
`rref_gfq` is the same fold over coordinate tuples in GF(q), read off the
context's add, mul, neg and inv tables: the package's one GF(q)
elimination, which `pspace.subspace` puts every q > 2 subspace through.
The rank over a prime field p > 2 (`_rank_stream_gfp`) folds with `%`
arithmetic instead, which works at primes beyond a context's q <= 512 and
builds no table.

A set of points (a block) is a mask too, bit i set for point i;
`bit_positions` reads its sorted indices back, from the top bit down.
`pack_mask` is the one packer of a 0/1 vector into a mask, and
`pack_text_rows` the one packer of 0/1 text: rows written as literal `0`
and `1` characters, packed at once with one check of every character and
one reversed copy.  It packs a word given to a decoder as a string (one
row) and the generators of a whole q = 2 design file whose body `designs`
found in its written layout.
`_columns` is the package's one GF(2) bit-matrix transpose: it turns row
masks (checks or blocks), in matrix order, into one column mask per
point, bit i set when row i holds the point.  It works on whole buffers:
delta swaps of 8 x 8 bit blocks on 32 KB ints, then one strided byte
slice per column.
A code transposes its checks once, and its reduction and both decoders
read those columns; the two-step decoder also transposes its member
rows, the one-step lane vote its slot rows (each check packed once), and
design verification counts the blocks through a set of points as the
popcount of the AND of their columns.
`_xor_select` is the package's one "XOR the vectors at a word's set bits",
by byte lookups in tables of subset XORs (`_xor_tables`): the decoders'
syndromes and lanes over their columns, and a code's random codewords and
codeword test over its nullspace basis.  One rule sets the tables' layout:
one 256-entry table per selector byte for narrow vectors, a pair of
16-entry tables per byte for wide ones.  A sparse word reads its vectors
one by one instead, below a cut-over set by the layout and the selector's
byte count.  `_sum_select` is its adding sibling, over the same tables
built by addition: the decoders' count-table vote.

The matrix and design file loaders share one opening (`_parse_file`: the
comment rule `_strip_lines`, the refusal of an empty file and the header
parser `_parse_header`) and one body-token parser (`_ints`),
which reads every matrix row and every design file that `pack_text_rows`
does not take; their errors name the file line of a bad row or block, and
the loaders that read a path (`_load_file`) put the path in front.
"""

import itertools
from functools import cached_property
from operator import xor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from ._record import Record

_T = TypeVar("_T")

FieldElement = int


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(enc: int, p: int) -> list[int]:
    """Base-p digit list of enc, constant term first."""
    out = []
    while enc:
        enc, rem = divmod(enc, p)
        out.append(rem)
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    enc = 0
    for c in reversed(digits):
        enc = enc * p + c
    return enc


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo den (den need not be monic)."""
    rem = list(num)
    lead_inv = pow(den[-1], p - 2, p)
    while len(rem) >= len(den) and _poly_trim(rem):
        shift = len(rem) - len(den)
        coef = (rem[-1] * lead_inv) % p
        for i, c in enumerate(den):
            rem[shift + i] = (rem[shift + i] - coef * c) % p
        _poly_trim(rem)
    return rem


def _is_irreducible(digits: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(digits) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_mod(digits, divisor, p):
                return False
    return True


def default_modulus(p: int, m: int) -> int:
    """Smallest-encoding monic irreducible polynomial of degree m over F_p."""
    for enc in range(p**m, 2 * p**m):
        if _is_irreducible(_digits(enc, p), p):
            return enc
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx(Record):
    """GF(p^m) with its modulus polynomial.

    The modulus is encoded like elements are: sum(c_i * p**i) of its
    coefficient sequence, constant term = c_0.
    """

    _fields = ("p", "m", "q", "modulus")

    def __init__(self, p: int, m: int, q: int, modulus: int) -> None:
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if q != p**m:
            raise ValueError(f"q={q} is not {p}^{m}")
        if q > 512:
            raise ValueError("fields with q > 512 are not supported")
        if not (p**m <= modulus < 2 * p**m):
            raise ValueError(f"modulus {modulus} is not monic of degree {m}")
        if not _is_irreducible(_digits(modulus, p), p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.__dict__.update(p=p, m=m, q=q, modulus=modulus)

    @classmethod
    def of(cls, q: int, modulus: int | None = None) -> "FieldCtx":
        """Context for GF(q), with the default modulus unless overridden."""
        if q < 2:
            raise ValueError("field order must be at least 2")
        if q > 512:  # before the trial division, whose cost grows with q
            raise ValueError("fields with q > 512 are not supported")
        p = 2
        while q % p:
            p += 1
        n, m = q, 0
        while n % p == 0:
            n //= p
            m += 1
        if n != 1:
            raise ValueError(f"{q} is not a prime power")
        if modulus is None:
            modulus = default_modulus(p, m)
        return cls(p=p, m=m, q=q, modulus=modulus)

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")
        return a

    # The tables are built on first use and kept on the instance; they are
    # not fields, so equality and hashing ignore them.

    @cached_property
    def _point_spaces(self) -> dict:
        """The point spaces over this field by dimension, filled by
        `pspace.point_space`: finding one neither hashes nor compares the
        context."""
        return {}

    @cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        p, m = self.p, self.m
        digs = [(_digits(a, p) + [0] * m)[:m] for a in range(self.q)]
        return tuple(
            tuple(_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digs)
            for da in digs
        )

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.add_table)

    @cached_property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        p = self.p
        digs = [_digits(a, p) for a in range(self.q)]
        mod = _digits(self.modulus, p)
        return tuple(
            tuple(_undigits(_poly_mod(_poly_mul(da, db, p), mod, p), p) for db in digs)
            for da in digs
        )

    @cached_property
    def inv_table(self) -> tuple[int, ...]:
        """inv_table[a] * a = 1 for a != 0; inv_table[0] = 0 is a placeholder."""
        return (0,) + tuple(row.index(1) for row in self.mul_table[1:])


# ---------------------------------------------------------------------------
# Matrices over the prime field


class PrimeMatrix(Record):
    """0-based matrix over F_p; rows bit-packed for p = 2, entry tuples else."""

    _fields = ("p", "ncols", "rows")

    @classmethod
    def from_rows(cls, entry_rows: Iterable[Sequence[int]], p: int, ncols: int) -> "PrimeMatrix":
        rows = []
        for row in entry_rows:
            if len(row) != ncols:
                raise ValueError(f"row has {len(row)} entries, expected {ncols}")
            for x in row:
                if not 0 <= x < p:
                    raise ValueError("entry not in prime field")
            if p == 2:
                rows.append(pack_mask(row))
            else:
                rows.append(tuple(row))
        return cls(p=p, ncols=ncols, rows=tuple(rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_entries(self, i: int) -> tuple[int, ...]:
        if self.p == 2:
            m = self.rows[i]
            return tuple((m >> j) & 1 for j in range(self.ncols))
        return self.rows[i]

    def iter_entry_rows(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.nrows):
            yield self.row_entries(i)

    def dumps(self) -> str:
        if self.p > 7:
            raise ValueError("matrix file format uses one digit per entry (p <= 7)")
        lines = [f"pmatrix rows={self.nrows} cols={self.ncols} p={self.p}"]
        for i in range(self.nrows):
            lines.append("".join(str(x) for x in self.row_entries(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "PrimeMatrix":
        hdr, body = _parse_file(text, "pmatrix", ["rows", "cols", "p"])
        nrows, ncols, p = hdr["rows"], hdr["cols"], hdr["p"]
        if len(body) != nrows:
            raise ValueError(f"expected {nrows} rows, found {len(body)}")
        entry_rows = []
        for lineno, ln in body:
            if len(ln) != ncols:
                raise ValueError(f"line {lineno}: row has {len(ln)} digits, expected {ncols}")
            entry_rows.append(_ints(ln, lineno))
        return cls.from_rows(entry_rows, p, ncols)

    @classmethod
    def load(cls, path: str | Path) -> "PrimeMatrix":
        return _load_file(path, cls.loads)


def _load_file(path: str | Path, loads: Callable[[str], _T]) -> _T:
    """`loads` applied to the text of the file at `path`; a parse error
    names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _strip_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of the non-blank lines of a text file, with `#`
    comments removed, as they are reached; the comment rule of every file
    format the package reads.  Line numbers count from 1 and include the
    dropped lines."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_file(
    text: str, kind: str, keys: Sequence[str]
) -> tuple[dict[str, int], list[tuple[int, str]]]:
    """The header fields (`_parse_header`) and the numbered body lines
    (`_strip_lines`) of a `kind` file, the opening of every file the
    package reads; a file with no line is refused."""
    lines = list(_strip_lines(text))
    if not lines:
        raise ValueError(f"empty {kind[1:]} file")  # a (p)matrix or (q/c)design file
    return _parse_header(lines[0][1], kind, keys), lines[1:]


# header keys that count something and so cannot be negative
_COUNT_KEYS = ("rows", "cols", "n", "v", "k", "t", "lambda")


def _parse_header(line: str, kind: str, keys: Sequence[str]) -> dict[str, int]:
    """`kind key=value ...` header line with integer values, all `keys`
    present and no key given twice."""
    toks = line.split()
    if not toks or toks[0] != kind:
        raise ValueError(f"expected a {kind} header, got {line!r}")
    fields = {}
    for tok in toks[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"{kind} header token {tok!r} is not key=value")
        if key in fields:
            raise ValueError(f"{kind} header repeats key {key!r}")
        try:
            fields[key] = int(val)
        except ValueError:
            raise ValueError(f"{kind} header value {tok!r} is not an integer") from None
        if key in _COUNT_KEYS and fields[key] < 0:
            raise ValueError(f"{kind} header value {tok!r} is negative")
    missing = [k for k in keys if k not in fields]
    if missing:
        raise ValueError(f"{kind} header is missing {', '.join(missing)}")
    return fields


def _ints(tokens: Iterable[str], lineno: int) -> list[int]:
    """The integers of one body line's tokens; a bad token names the line."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: {tok!r} is not an integer") from None
    return out


def pack_mask(vec: Sequence[int]) -> int:
    """Bitmask sum(x_i << i) of a 0/1 vector (coordinate 0 least
    significant); any other entry is rejected."""
    if not {*vec} <= {0, 1}:
        bad = next(x for x in vec if x not in (0, 1))
        raise ValueError(f"{bad} is not an element of GF(2)")
    return int("".join(["01"[x] for x in reversed(vec)]) or "0", 2)


def pack_text_rows(bits: str, width: int) -> list[int] | None:
    """The mask `pack_mask` gives each row of `bits`, rows of `width`
    literal `0` and `1` characters (coordinate 0 first) written one after
    another, in order: one `strip` checks every character and one reversed
    copy packs every row.  None when a character is not a literal `0` or
    `1`, or the rows are not whole.  `width` must be positive."""
    if len(bits) % width or bits.strip("01"):
        return None
    rev = bits[::-1]  # the last row first, each row's coordinate 0 lowest
    masks = [int(rev[i : i + width], 2) for i in range(0, len(rev), width)]
    masks.reverse()
    return masks


def bit_positions(mask: int) -> tuple[int, ...]:
    """The set bits of a nonnegative mask, ascending: a point mask's sorted
    point indices."""
    out = []
    while mask:  # from the top: no negated copy of a wide, sparse mask
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


def rref_gf2(masks: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of GF(2) bitmask rows, folded in one at a time.

    Returns (rows, pivots), pivots ascending.  A row's pivot is its lowest
    set bit, and no other row has that bit set.  The reduced form of a row
    space is unique, so the result does not depend on the row order.
    """
    basis: dict[int, int] = {}  # pivot bit -> row
    pivot_bits = 0
    for row in masks:
        hit = row & pivot_bits
        while hit:
            low = hit & -hit
            row ^= basis[low]  # clears `low` and touches no other pivot bit
            hit ^= low
        if row:
            low = row & -row
            for bit, other in basis.items():
                if other & low:
                    basis[bit] = other ^ row
            basis[low] = row
            pivot_bits |= low
    order = sorted(basis)
    return [basis[bit] for bit in order], [bit.bit_length() - 1 for bit in order]


def _lane_bytes(values: Sequence[int], width: int) -> bytes:
    """`values` (each below 256**width) as one little-endian byte string,
    `width` bytes each."""
    if width == 1:
        return bytes(values)
    return b"".join([x.to_bytes(width, "little") for x in values])


def _lane_ints(buf: bytes, width: int) -> Sequence[int]:
    """The values `_lane_bytes` packed into `buf`."""
    if width == 1:
        return buf
    return [int.from_bytes(buf[j : j + width], "little") for j in range(0, len(buf), width)]


def rref_gf2_lanes(masks: Sequence[int], k: int, v: int) -> list[tuple[int, ...]]:
    """The reduced rows `rref_gf2` gives each k-row matrix
    `masks[i k : i k + k]` of v-bit masks, all reduced at once.

    Every matrix gets a lane of ceil(v / 8) bytes, and row i of every
    matrix is packed into one int.  Columns are eliminated in ascending
    order with per-lane flags at bit 0 of each lane (the rows with the
    column's bit, the rows not yet a pivot): the first free row with the
    bit becomes the lane's pivot, a flag times 2^lane_bits - 1 covers its
    whole lane, and the pivot is XORed into every other row with the bit.
    The t-th pivot a lane finds is its output row t, so pivots ascend; a
    matrix of rank r gets r rows, its rank read off the lane's pivot
    count.  `k` and `v` must be positive.
    """
    width = -(-v // 8)
    count = len(masks) // k
    size = count * width
    one = int.from_bytes(b"\x01".ljust(width, b"\x00") * count, "little")
    lane = (1 << 8 * width) - 1
    rows = [int.from_bytes(_lane_bytes(masks[i::k], width), "little") for i in range(k)]
    free = [one] * k
    counts = [one] + [0] * k  # counts[t]: the lanes with t pivots so far
    slots = [[0] * k for _ in range(k)]  # slots[i][t]: the lanes whose t-th pivot is row i
    for c in range(v):
        has = [r >> c & one for r in rows]
        taken = pivot = 0
        picks = [0] * k
        for i in range(k):
            p = has[i] & free[i] & ~taken
            if p:
                picks[i] = p
                taken |= p
                pivot |= rows[i] & p * lane
        if not taken:
            continue
        for i, p in enumerate(picks):
            other = has[i] ^ p  # the lanes where row i has the bit but is not the pivot
            if other:
                rows[i] ^= pivot & other * lane
            if p:
                free[i] ^= p
                slots[i] = [s | p & n for s, n in zip(slots[i], counts)]
        for t in range(k - 1, -1, -1):
            move = counts[t] & taken
            counts[t] ^= move
            counts[t + 1] |= move
    outs = []
    for t in range(k):
        out = 0
        for row, slot in zip(rows, slots):
            out |= row & slot[t] * lane
        outs.append(_lane_ints(out.to_bytes(size, "little"), width))
    reduced = list(zip(*outs))
    if counts[k] != one:  # a rank-deficient matrix keeps its rank's rows
        rank = sum([t * counts[t] for t in range(1, k + 1)])
        reduced = [r[:n] for r, n in zip(reduced, _lane_ints(rank.to_bytes(size, "little"), width))]
    return reduced


def rref_gfq(rows: Iterable[Sequence[int]], ctx: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form of coordinate-tuple rows over GF(q), folded
    in one at a time as `rref_gf2` folds masks; the package's one GF(q)
    elimination, read off the field's tables.

    Each row is reduced by the pivots so far, scaled to a leading 1 and
    then cleared out of the other rows.  Returns the reduced rows, pivots
    ascending: a row's pivot is its first nonzero coordinate, which holds
    1, and no other row is nonzero there.  Zero and dependent rows are
    dropped.  Entries must be elements of GF(q); the caller checks them.
    """
    add, mul, neg, inv = ctx.add_table, ctx.mul_table, ctx.neg_table, ctx.inv_table
    basis: dict[int, tuple[int, ...]] = {}  # pivot column -> row

    def minus(r, c, b):  # r - c b
        mc = mul[neg[c]]
        return tuple([add[x][mc[y]] for x, y in zip(r, b)])

    for row in rows:
        r = tuple(row)
        for j, b in basis.items():
            if r[j]:
                r = minus(r, r[j], b)  # clears column j and no other pivot's
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        if r[lead] != 1:
            r = tuple([mul[inv[r[lead]]][x] for x in r])
        for j, b in basis.items():
            if b[lead]:
                basis[j] = minus(b, b[lead], r)
        basis[lead] = r
    return tuple(basis[j] for j in sorted(basis))


# per delta-swap step s, the byte whose bits j have j & s set
_SWAP_BYTES = ((4, b"\xf0"), (2, b"\xcc"), (1, b"\xaa"))


def _columns(
    rows: Iterable[int], n: int, order: Iterable[int] | None = None
) -> tuple[int, ...]:
    """Transpose a bit matrix given as its n-bit row masks, in order: column
    p is returned as a mask with bit i set when row i has bit p.  With
    `order`, row i of the matrix is rows[order[i]] instead, for a matrix
    that repeats a few distinct rows: each of `rows` is packed once, and
    the packed rows are joined in `order`.

    Each row is packed into k = ceil(n / 8) bytes, and the buffer is padded
    to whole groups of 8 rows.  The 8 x 8 bit blocks (8 rows of one byte
    column) are transposed in place 32 KB at a time, each run of groups
    read as one int, by 3 delta swaps: step s = 4, 2, 1 exchanges bit (i,
    j) with bit (i + s, j - s) wherever i has bit s clear and j has it set
    (Hacker's Delight, 7-3).  Byte u of byte column c in a group then holds
    the group's 8 bits of column p = 8 c + u, so column p is one strided
    slice of the buffer, a byte per group.
    """
    k = max(1, -(-n // 8))
    if order is None:
        packed = bytearray()
        for row in rows:  # one at a time: a list of per-row bytes would triple the peak
            packed += row.to_bytes(k, "little")
    else:
        each = [row.to_bytes(k, "little") for row in rows]
        packed = bytearray().join(map(each.__getitem__, order))
    group = 8 * k
    packed += bytes(-len(packed) % group)
    # 32 KB per pass keeps the big-int temporaries small; a smaller matrix
    # takes one pass, with swap masks no longer than itself.
    span = min(max(1, (1 << 15) // group), max(1, len(packed) // group)) * group
    swaps = []
    for s, byte in _SWAP_BYTES:
        # rows i with bit s clear take the byte in every byte column
        block = (byte * (k * s) + bytes(k * s)) * (4 // s)
        swaps.append((s * (group - 1), int.from_bytes(block * (span // group), "little")))
    for start in range(0, len(packed), span):
        x = int.from_bytes(packed[start : start + span], "little")
        for d, mask in swaps:
            t = ((x >> d) ^ x) & mask
            x ^= t ^ (t << d)
        packed[start : start + span] = x.to_bytes(min(span, len(packed) - start), "little")
    return tuple(
        int.from_bytes(packed[(p & 7) * k + (p >> 3) :: group], "little") for p in range(n)
    )


# Byte-wide subset tables, 256 entries per 8 vectors, while every vector is
# at most this many bits wide and the tables take at most this many bytes
# (each entry an int, 24 bytes of header and 4 per 30-bit digit, plus its
# 8-byte tuple slot); otherwise two 16-entry tables per 8 vectors.  Tables
# at the cap (760 vectors of 1024 bits) take about 3 ms to build.  By the
# same estimate, byte-wide tables of the one-step slot lanes (8001 bits)
# and the two-step member vectors (2142 and 18288 bits) of the benchmark
# decoders would take 4.5, 0.9 and 10.1 MB.
_BYTE_TABLE_BITS = 1024
_BYTE_TABLE_BYTES = 4 << 20


def _xor_tables(
    vectors: Iterable[int], combine: Callable[[int, int], int] = xor
) -> tuple[tuple[int, ...], tuple, bool]:
    """The tables `_xor_select` reads for `vectors`: the vectors in order,
    the subset tables of each selector byte, and whether those are
    byte-wide.  With `combine=operator.add` they are the tables of its
    adding sibling, `_sum_select`.

    Each group of consecutive vectors gets a table of the combinations of
    its subsets, entry s combining the vectors at the set bits of s (the
    "Four Russians" table of Arlazarov, Dinic, Kronrod and Faradzev), built
    by doubling: each vector of the group combined with every entry so
    far; the vector list is padded with zeros to whole bytes.  The group
    width follows one rule: 8 vectors, one 256-entry table per selector
    byte, while every vector is at most `_BYTE_TABLE_BITS` wide and the
    tables take at most `_BYTE_TABLE_BYTES`; otherwise 4, a pair of
    16-entry tables per byte, low nibble first, 8 times fewer entries for
    twice the lookups.
    """
    vecs = tuple(vectors)
    padded = vecs + (0,) * (-len(vecs) % 8)
    width = max(map(int.bit_length, vecs), default=0)
    entry_bytes = 32 + 4 * (width // 30 + 1)
    wide = width <= _BYTE_TABLE_BITS and 32 * len(padded) * entry_bytes <= _BYTE_TABLE_BYTES
    group = 8 if wide else 4
    tables = []
    for start in range(0, len(padded), group):
        table = [0]
        for v in padded[start : start + group]:
            size = len(table)
            table += [combine(entry, v) for entry in table]
            table[size] = v  # v itself, not the copy combine(0, v) made
        tables.append(tuple(table))
    return vecs, tuple(tables) if wide else tuple(zip(tables[::2], tables[1::2])), wide


# The sparse cut-over of `_xor_select` and `_sum_select`: a word whose set
# bits number fewer than 4 + its selector bytes // 8 over byte-wide tables,
# or 4 + its selector bytes // 2 over nibble pairs, reads its vectors one
# by one; any other walks its selector bytes.  Fitted to in-process
# crossovers of the two paths on the benchmark decoders' tables and four
# line codes (BENCH_sparse_cut.json), 8 to 101 selector bytes and 1 to 22
# set bits: wherever one path was more than 10% faster, the rule's pick is
# within 10% of it.  A nibble-pair walk pays two lookups per byte, so it
# wins only at denser words; the `twostep-q4` count sums (45 bytes) walk
# from 9 set bits, its member vectors (11 bytes) from 9, and the one-step
# slot lanes (16 bytes) from 12.
_SPARSE_BITS = 4
_SPARSE_SHIFT = (1, 3)  # by `wide`: nibble pairs, byte-wide


def _xor_select(tables, bits: int) -> int:
    """XOR of the vectors at the set bits of `bits` (bit i selects vector
    i), from their `_xor_tables`.

    This is the package's one "XOR the vectors at a word's set bits": the
    decoders' syndromes and lanes, random codewords and the codeword test.
    A word reads one subset-table lookup per nonzero byte from byte-wide
    tables, two from nibble pairs.  A sparse word, such as a low-weight
    error pattern, XORs its vectors one by one instead, while its set bits
    stay below the cut-over of its tables' layout and selector byte count
    (`_SPARSE_BITS`, `_SPARSE_SHIFT`): a walk over every byte would cost
    it more.  `bits` must be nonnegative and select no vector beyond the
    last.
    """
    vectors, per_byte, wide = tables
    acc = 0
    if bits.bit_count() < _SPARSE_BITS + (len(per_byte) >> _SPARSE_SHIFT[wide]):
        while bits:
            low = bits & -bits
            acc ^= vectors[low.bit_length() - 1]
            bits ^= low
        return acc
    selector = bits.to_bytes(len(per_byte), "little")
    if wide:
        for table, b in zip(per_byte, selector):
            if b:
                acc ^= table[b]
        return acc
    for (lo, hi), b in zip(per_byte, selector):
        if b:
            acc ^= lo[b & 15] ^ hi[b >> 4]
    return acc


def _sum_select(tables, bits: int) -> int:
    """Sum of the vectors at the set bits of `bits`, from their
    `_xor_tables(vectors, combine=operator.add)`: `_xor_select` with
    addition, by the same lookups on the same layout the table rule picks
    (one per nonzero byte of byte-wide tables, two of nibble pairs) and
    the same cut-over for a sparse word, which adds its vectors one by
    one.  The decoders' count-table vote adds its spread check rows with
    it."""
    vectors, per_byte, wide = tables
    acc = 0
    if bits.bit_count() < _SPARSE_BITS + (len(per_byte) >> _SPARSE_SHIFT[wide]):
        while bits:
            low = bits & -bits
            acc += vectors[low.bit_length() - 1]
            bits ^= low
        return acc
    selector = bits.to_bytes(len(per_byte), "little")
    if wide:
        for table, b in zip(per_byte, selector):
            if b:
                acc += table[b]
        return acc
    for (lo, hi), b in zip(per_byte, selector):
        if b:
            acc += lo[b & 15] + hi[b >> 4]
    return acc


def _rank_stream_gfp(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank over the prime field F_p of entry rows, by the same fold with
    `%` arithmetic.  It stays apart from `rref_gfq`: `%` works at every
    prime p, including p > 512, where `FieldCtx` refuses, and building a
    field's tables costs O(q^2) (about 60 ms at p = 127 and 0.7 s at
    p = 509) for a matrix read once."""
    basis: dict[int, tuple[int, ...]] = {}
    for row in rows:
        r = list(row)
        while True:
            j = next((i for i, x in enumerate(r) if x), None)
            if j is None:
                break
            b = basis.get(j)
            if b is None:
                c_inv = pow(r[j], p - 2, p)
                basis[j] = tuple((x * c_inv) % p for x in r)
                break
            c = r[j]
            r = [(x - c * y) % p for x, y in zip(r, b)]
    return len(basis)


def matrix_rank(matrix: PrimeMatrix, p: int | None = None) -> int:
    """Rank over F_p, by default the matrix's own p, via streaming row
    reduction.  The result is independent of row order.  Over another p
    the rows are read again through `PrimeMatrix.from_rows`, which raises
    ValueError if an entry is not reduced mod p.
    """
    if p is None:
        p = matrix.p
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p != matrix.p:
        matrix = PrimeMatrix.from_rows(matrix.iter_entry_rows(), p, matrix.ncols)
    if p == 2:
        return len(rref_gf2(matrix.rows)[0])
    return _rank_stream_gfp(matrix.rows, p)
