"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: dense Gaussian elimination, raw
subset/codeword enumeration.  The oracles share no code with the package so
they can cross-check it, except these former package paths kept as
references: `enumerate_gens` and `rref_tuples`, the coordinate-tuple
subspace enumeration that every q used and the RREF that q = 2 used
before q = 2 subspaces were held as row masks (self-contained, apart from
the field's arithmetic);
`superspaces_scan`, the superspace search that `pspace.superspaces` ran
before it read superspaces off the quotient, which still builds on the
package's canonical subspaces, point order and point masks; `points_walk`,
the coordinate-tuple walk that
`pspace.points_of_subspace` used for every q > 2 before characteristic 2
walked packed vectors, which builds on the package's point order and field
tables; `one_step_scan` and `two_step_scan`, the scalar majority-logic
decoders, which read the decoder's check rows, parameters and (two-step)
each step-2 block's outside classes, its (dim + 1)-superspaces
(`pspace.superspaces`) minus the block, and test a decoded word against
every check row; `verify_scan`, the design verification that
tallied the t-subspaces of every block (`subspaces_of`), which builds on
the package's canonical subspaces and subspace enumeration;
`reduce_rows`, the reduction `BinaryCode` ran on its check rows before
it reduced its columns: `field.rref_gf2` on the rows, then one
nullspace vector per free column; `xor_columns`, `random_codeword_loop`
and `is_codeword_rows`, the loops that XORed one vector per set bit of a
word (the decoders' syndromes and lanes, random codewords) and tested a
word's parity on every check row before `field._xor_select` did both,
which read the package's nullspace basis and check rows; `one_step_tables` and
`two_step_tables`, the decoders' column tables as they were built before
the decoders read the code's columns: the design's blocks transposed
(one-step), and the outside classes of every step-2 block
(`outside_member_rows`, on the package's `superspaces` and point masks)
transposed lane by lane (two-step), both through `field._columns`;
`comb_design_blocks`, the `CombinatorialDesign` constructor from before
blocks were held as point masks, which sorted, checked and ordered point
tuples (self-contained), and the reference for the point-tuple checks of
`designs.loads_comb_design`; and `affine_blocks` and `flats_blocks`, the
affine and flats constructions from before they handed point masks over,
which labelled coordinate tuples through the field's per-element
arithmetic (affine) and sorted tuple cosets of the row masks (flats), and
which build on the package's point order and point sets; and
`loads_subspace_design_tokens`, the `qdesign` loader from before q = 2
generators of literal 0/1 tokens were packed from their text (now a body
in its written layout, in one pass, by `field.pack_text_rows`), which
parses every token with `int` and builds on the package's header
parser, `subspace` and design record; and `projective_walk`, the
projective construction from before complete q = 2 designs took their
masks from `pspace.subspace_masks_gf2`, which hands every block's walked
point mask (`pspace.points_mask`) to the `CombinatorialDesign` constructor.
`two_step_mask_scan` is the scalar two-step decoder read off point masks
alone, in every construction mode: a block's superspaces are the checks
that hold it, the decoder's rule since it stopped taking n and J from the
projective geometry (self-contained, apart from the code's check rows and
the design's `masks`).  `lane_majority_count` is the two-step step-1
majority read one block at a time off the packed lanes, the reference for
the decoder's bit-sliced adder tree (self-contained); `majority_tree_loop`
is that tree as a loop over its levels and planes, from before the tree
was generated as straight-line source, on the package's `pack_mask`; and
`spread_rows_loop` is the count table's bit spread from before it spread
whole bytes (self-contained).  `lambda_min_scan`
is the search over lambda = 1, 2, ... that `tables.lambda_min` ran before
it took the lcm of the denominators of the derived parameters at
lambda = 1, which builds on the package's Gaussian coefficients.

`pack_blocks` is a helper, not an oracle: the point masks of blocks given as
point tuples, the form in which tests write small designs for the
constructor.
"""

from functools import lru_cache
from itertools import combinations, product

from designcodes.decoders import DECODED, DETECTED, DecodeOutcome
from designcodes.designs import (
    CombinatorialDesign,
    SubspaceDesign,
    VerifyResult,
    construction_params,
)
from designcodes.field import (
    FieldCtx,
    _columns,
    _ints,
    _parse_header,
    _strip_lines,
    pack_mask,
    rref_gf2,
)
from designcodes.pspace import (
    enumerate_subspaces,
    gaussian_coefficient,
    point_space,
    points_mask,
    points_of_subspace,
    subspace,
    superspaces,
)


def enumerate_gens(v, k, ctx):
    """The canonical generator tuples of every k-subspace of F_q^v, in the
    package's enumeration order: pivot-column combinations in lexicographic
    order, free entries in odometer order (row-major, last entry fastest)."""
    if not 0 <= k <= v:
        return
    for pivots in combinations(range(v), k):
        free_cells = [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, v) if j not in pivots
        ]
        for assignment in product(range(ctx.q), repeat=len(free_cells)):
            rows = [[0] * v for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), val in zip(free_cells, assignment):
                rows[i][j] = val
            yield tuple(tuple(r) for r in rows)


def rref_tuples(vectors, v, ctx):
    """Reduced row echelon form of coordinate tuples, dependent and zero rows
    dropped: pivots strictly increasing, pivot entries 1, pivot columns zero
    elsewhere."""
    rows = [list(r) for r in vectors]
    piv = 0
    for col in range(v):
        sel = next((i for i in range(piv, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        lead = rows[piv][col]
        if lead != 1:
            rows[piv] = list(vec_scale(ctx.inv_table[lead], rows[piv], ctx))
        for i in range(len(rows)):
            if i != piv and rows[i][col]:
                c = ctx.neg_table[rows[i][col]]
                rows[i] = list(vec_add(rows[i], vec_scale(c, rows[piv], ctx), ctx))
        piv += 1
    return tuple(tuple(r) for r in rows[:piv])


def vec_add(u, w, ctx):
    return tuple(ctx.add_table[a][b] for a, b in zip(u, w))


def vec_scale(c, u, ctx):
    return tuple(ctx.mul_table[c][a] for a in u)


def normalize_point(vec, ctx):
    """Scale so the first nonzero coordinate equals 1 (vec must be nonzero)."""
    lead = next((x for x in vec if x), None)
    if lead is None:
        raise ValueError("zero vector spans no point")
    if lead == 1:
        return tuple(vec)
    return vec_scale(ctx.inv_table[lead], vec, ctx)


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


def reduce_rows(masks, n):
    """(reduced rows, pivots, nullspace basis) of the GF(2) check rows
    `masks` on n columns: `field.rref_gf2` on the rows, then for each free
    column f, ascending, the vector with bit f and bit pc of every reduced
    row with pivot pc that has bit f."""
    rows, pivots = rref_gf2(masks)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = 1 << f
        for row, pc in zip(rows, pivots):
            if (row >> f) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return rows, pivots, basis


def xor_columns(columns, word):
    """XOR of the columns at the 1-bits of `word`, lowest bit first."""
    syndrome = 0
    while word:
        low = word & -word
        syndrome ^= columns[low.bit_length() - 1]
        word ^= low
    return syndrome


def random_codeword_loop(code, rng):
    """The XOR of `code`'s basis vectors at the set bits of one
    `rng.getrandbits(dim)` draw, one bit at a time; dimension 0 draws
    nothing."""
    basis = code.nullspace_basis()
    word = 0
    bits = rng.getrandbits(len(basis)) if basis else 0
    for i, vec in enumerate(basis):
        if (bits >> i) & 1:
            word ^= vec
    return word


def is_codeword_rows(code, word):
    """Whether `word` has even parity on every check row of `code`."""
    return all((word & row).bit_count() % 2 == 0 for row in code.check_masks())


def one_step_tables(design):
    """The (columns, halves) of a one-step decoder through `design`: the
    design's block masks transposed, and (r + lambda_2 - 1) // 2 at every
    position."""
    params = design.params()
    half = (params.r + params.lambda_s(2) - 1) // 2
    return _columns(design.masks, design.n), (half,) * design.n


def superspace_classes(blk):
    """The classes of the points outside blk modulo blk, sorted: each
    (dim + 1)-superspace's point mask minus blk's."""
    bmask = points_mask(blk)
    return sorted(points_mask(sup) ^ bmask for sup in superspaces(blk, blk.k + 1))


def outside_member_rows(step2):
    """Per step-2 block: its outside classes, then its point mask."""
    for blk in step2.blocks:
        yield (*superspace_classes(blk), points_mask(blk))


def two_step_tables(step2):
    """The (members, columns, halves) of a two-step decoder through
    `step2`: the member rows of `outside_member_rows` transposed lane by
    lane, the block lane of each member mask, and half its popcount."""
    n = gaussian_coefficient(step2.v, 1, step2.q)
    J = gaussian_coefficient(step2.v - step2.k, 1, step2.q)
    lanes = zip(*outside_member_rows(step2))
    members = _columns([row for lane in lanes for row in lane], n)
    columns = tuple(member >> (J * len(step2.blocks)) for member in members)
    return members, columns, tuple(col.bit_count() // 2 for col in columns)


def points_walk(s):
    """Sorted point indices of s, by coordinate tuples: for every
    coefficient tuple with leading coefficient 1 over s's rows, the
    combination is summed with `vec_add`/`vec_scale`, normalized and looked
    up in the point order.  Any q."""
    if s.k == 0:
        return ()
    sp = point_space(s.v, s.ctx)
    out = []
    for lead in range(s.k):
        for tail in product(range(s.ctx.q), repeat=s.k - lead - 1):
            vec = s.gen[lead]
            for c, row in zip(tail, s.gen[lead + 1 :]):
                if c:
                    vec = vec_add(vec, vec_scale(c, row, s.ctx), s.ctx)
            out.append(sp.index[normalize_point(vec, s.ctx)])
    return tuple(sorted(out))


def projective_walk(design):
    """The projective version of a subspace design from its listed blocks'
    walked point masks, at every q and for every design."""
    p = construction_params(design.params(), "projective")
    return CombinatorialDesign(p.v, p.t, p.k, p.lam, map(points_mask, design.blocks))


def superspaces_scan(b, k):
    """All k-subspaces containing b, canonical, deduplicated and sorted.

    Extends every frontier subspace by every point outside its point mask,
    one RREF per outside point, and drops the duplicates.
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
            inside = points_mask(s)
            for i, vec in enumerate(sp.points):
                if not inside >> i & 1:
                    nxt.add(subspace(s.gen + (vec,), b.v, b.ctx))
        frontier = nxt
    return tuple(sorted(frontier, key=lambda s: s.gen))


@lru_cache(maxsize=None)
def _local_gens(k, t, ctx):
    return tuple(s.gen for s in enumerate_subspaces(k, t, ctx))


def subspaces_of(s, t):
    """All t-subspaces of s, as canonical subspaces of the ambient space:
    the t-subspaces of F_q^k in coordinates over s's generator rows."""
    if not 0 <= t <= s.k:
        return
    ctx = s.ctx
    for lgen in _local_gens(s.k, t, ctx):
        rows = []
        for coeffs in lgen:
            vec = (0,) * s.v
            for c, row in zip(coeffs, s.gen):
                if c == 1:
                    vec = vec_add(vec, row, ctx)
                elif c:
                    vec = vec_add(vec, vec_scale(c, row, ctx), ctx)
            rows.append(vec)
        yield subspace(rows, s.v, ctx)


def verify_scan(design):
    """The VerifyResult of a subspace or combinatorial design, by tallying
    every t-subspace (t-subset) of every block in a dict and then walking
    the ambient ones in canonical order."""
    counts = {}
    if isinstance(design, SubspaceDesign):
        for blk in design.blocks:
            for t_sub in subspaces_of(blk, design.t):
                counts[t_sub.gen] = counts.get(t_sub.gen, 0) + 1
        ambient = enumerate_subspaces(design.v, design.t, design.ctx)
        cases = ((t_sub, t_sub.gen) for t_sub in ambient)
    else:
        for blk in design.blocks:
            for sub in combinations(blk, design.t):
                counts[sub] = counts.get(sub, 0) + 1
        cases = ((sub, sub) for sub in combinations(range(design.n), design.t))
    witness = None
    seen = set()
    for case, key in cases:
        c = counts.get(key, 0)
        seen.add(c)
        if c != design.lam and witness is None:
            witness = (case, c)
    observed = seen.pop() if len(seen) == 1 else "non-constant"
    return VerifyResult(verified=witness is None, observed_lambda=observed, witness=witness)


def pack_blocks(blocks):
    """The point mask of each block, a collection of point indices."""
    return [sum(1 << i for i in blk) for blk in blocks]


def comb_design_blocks(n, t, k, blocks):
    """The blocks a t-(n, k, lambda) design holds, as the former tuple
    constructor of `CombinatorialDesign` checked and ordered them: each
    block sorted into a tuple of k distinct points of [0, n), the blocks in
    lexicographic order, no block twice.  Raises the constructor's
    ValueError otherwise."""
    if not 0 <= t <= k <= n:
        raise ValueError("need 0 <= t <= k <= n")
    out = []
    for blk in blocks:
        blk = tuple(sorted(blk))
        if len(blk) != k or len(set(blk)) != k:
            raise ValueError(f"block {blk} does not have {k} distinct points")
        if blk and (blk[0] < 0 or blk[-1] >= n):
            raise ValueError(f"block {blk} has points outside [0, {n})")
        out.append(blk)
    out.sort()
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError("duplicate block (designs are simple)")
    return tuple(out)


def affine_blocks(design, hyperplane=None):
    """The blocks of `designs.affine_version`, as the former coordinate-tuple
    construction built them: every point of every block is dotted with the
    normal through the field's per-element arithmetic, and the points off
    the hyperplane, scaled so a . x = 1, are labelled by their other
    coordinates (least-significant first, coordinate j0 of a's first
    nonzero entry dropped).  One sorted tuple per block that leaves the
    hyperplane, in block order.  Raises the construction's ValueError for
    a bad normal."""
    ctx, v, q = design.ctx, design.v, design.q
    if hyperplane is None:
        normal = (1,) + (0,) * (v - 1)
    else:
        normal = tuple(ctx.check(x) for x in hyperplane)
        if len(normal) != v or not any(normal):
            raise ValueError("hyperplane normal must be a nonzero length-v vector")
    j0 = next(i for i, x in enumerate(normal) if x)

    def dot(vec):
        acc = 0
        for a, x in zip(normal, vec):
            if a and x:
                acc = ctx.add_table[acc][ctx.mul_table[a][x]]
        return acc

    def affine_index(vec):
        d = dot(vec)
        if d != 1:
            vec = vec_scale(ctx.inv_table[d], vec, ctx)
        idx = 0
        weight = 1
        for i, x in enumerate(vec):
            if i == j0:
                continue
            idx += x * weight
            weight *= q
        return idx

    sp = point_space(v, ctx)
    blocks = []
    for blk in design.blocks:
        pts = [sp.points[i] for i in points_of_subspace(blk)]
        outside = [p for p in pts if dot(p) != 0]
        if outside:
            blocks.append(tuple(sorted(affine_index(p) for p in outside)))
    return blocks


def flats_blocks(design):
    """The blocks of `designs.flats_construction` (q = 2), as the former
    construction built them: every coset a + span of every block, as a
    sorted tuple of the vectors sum(x_i << i), the cosets sorted."""
    v = design.v
    blocks = set()
    for blk in design.blocks:
        span = [0]
        for row in blk.rows:
            span += [x ^ row for x in span]
        covered = set()
        for a in range(1 << v):
            if a in covered:
                continue
            coset = tuple(sorted(a ^ x for x in span))
            covered.update(coset)
            blocks.add(coset)
    return sorted(blocks)


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


def one_step_scan(decoder, design):
    """The scalar one-step decode of `decoder`'s code through `design`, as a
    function of the received bitmask: each check's parity is computed once
    for every point on it, and j is flipped iff 2 U_j > r + lambda_2 - 1."""
    through = [[] for _ in range(decoder.n)]
    for blk in design.blocks:
        mask = sum(1 << i for i in blk)
        for i in blk:
            through[i].append(mask)
    threshold = decoder.r + decoder.lambda2 - 1

    def decode(received):
        flip_mask = 0
        flips = []
        for j, masks in enumerate(through):
            unsat = 0
            for bm in masks:
                unsat += (received & bm).bit_count() & 1
            if 2 * unsat > threshold:
                flip_mask |= 1 << j
                flips.append(j)
        return _outcome(decoder, received ^ flip_mask, tuple(flips))

    return decode


def two_step_scan(decoder, step2):
    """The scalar two-step decode of `decoder`'s code through `step2`, as a
    function of the received bitmask: one popcount per superspace estimate
    and per (block, position) vote; step-1 ties give 0, step-2 ties keep the
    received bit."""
    estimates = [superspace_classes(blk) for blk in step2.blocks]
    votes = [[] for _ in range(decoder.n)]
    for bi, blk in enumerate(step2.blocks):
        bmask = points_mask(blk)
        for j in range(decoder.n):
            if (bmask >> j) & 1:
                votes[j].append((bi, bmask ^ (1 << j)))

    def decode(received):
        parities = []
        for diffs in estimates:
            ones = 0
            for d in diffs:
                ones += (received & d).bit_count() & 1
            parities.append(1 if 2 * ones > decoder.J else 0)
        out = 0
        for j, vs in enumerate(votes):
            ones = 0
            for bi, rest in vs:
                ones += parities[bi] ^ ((received & rest).bit_count() & 1)
            if 2 * ones > len(vs):
                out |= 1 << j
            elif 2 * ones == len(vs):
                out |= received & (1 << j)
        flips = tuple(j for j in range(decoder.n) if ((received ^ out) >> j) & 1)
        return _outcome(decoder, out, flips)

    return decode


def two_step_mask_scan(decoder, step2):
    """The scalar two-step decode of `decoder`'s code through `step2`, read
    off point masks alone (`step2.masks`, any construction mode), as a
    function of the received bitmask that returns the outcome and the
    parity evaluations made: a block's superspaces are the code's checks
    that hold the whole block (check & block == block), each gives one
    estimate of the block's parity and the majority wins (ties give 0);
    then one vote per (block, position) pair, ties keeping the received
    bit."""
    checks = decoder.code.check_masks()
    blocks = step2.masks
    classes = [[check ^ block for check in checks if check & block == block] for block in blocks]
    through = [[b for b, block in enumerate(blocks) if block >> j & 1] for j in range(decoder.n)]

    def decode(received):
        evals = 0
        parities = []
        for diffs in classes:
            ones = sum((received & d).bit_count() & 1 for d in diffs)
            evals += len(diffs)
            parities.append(1 if 2 * ones > len(diffs) else 0)
        out = 0
        for j, bs in enumerate(through):
            rest = received & ~(1 << j)
            ones = sum(parities[b] ^ ((rest & blocks[b]).bit_count() & 1) for b in bs)
            evals += len(bs)
            if 2 * ones > len(bs):
                out |= 1 << j
            elif 2 * ones == len(bs):
                out |= received & (1 << j)
        flips = tuple(j for j in range(decoder.n) if ((received ^ out) >> j) & 1)
        return _outcome(decoder, out, flips), evals

    return decode


def lane_majority_count(lanes, J, width, halves=None):
    """The step-1 majority counted block by block: bit b is set iff more
    than J // 2 of the J lanes of `width` bits (lane c at bits c width to
    (c + 1) width - 1) have bit b set, or more than halves[b] when
    `halves` is given; bits above the J lanes are ignored."""
    out = 0
    for b in range(width):
        ones = sum((lanes >> (c * width + b)) & 1 for c in range(J))
        if ones > (J // 2 if halves is None else halves[b]):
            out |= 1 << b
    return out


def majority_tree_loop(J, width, halves):
    """The lane tree as `decoders.majority_tree` ran it before the tree was
    generated as straight-line source: a closure that walks the tree's
    levels and planes in a loop on every call, and compares the final
    count with halves[b] + 1 by the carry out of adding the constant
    2^P - (halves[b] + 1), four operations per plane whatever its bits."""
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
    mask = (1 << (J * width)) - 1

    def majority(lanes):
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


def spread_rows_loop(rows, F):
    """Each row with bit j moved to bit F j, one set bit at a time: the
    spread that `decoders.count_table` ran before it spread whole bytes."""
    spread = []
    for row in rows:
        wide = 0
        while row:
            low = row & -row
            wide += 1 << (F * (low.bit_length() - 1))
            row ^= low
        spread.append(wide)
    return spread


def _outcome(decoder, out, flips):
    flip_mask = sum(1 << j for j in flips)
    if all((out & row).bit_count() % 2 == 0 for row in decoder.code.check_masks()):
        return DecodeOutcome(status=DECODED, word=out, flip_mask=flip_mask, n=decoder.n)
    return DecodeOutcome(status=DETECTED, word=None, flip_mask=flip_mask, n=decoder.n)


def loads_subspace_design_tokens(text):
    """A `qdesign` text read token by token: every generator through `_ints`
    and `subspace`."""
    lines = list(_strip_lines(text))
    if not lines:
        raise ValueError("empty design file")
    hdr = _parse_header(lines[0][1], "qdesign", ["t", "v", "k", "lambda", "q", "poly"])
    ctx = FieldCtx.of(hdr["q"], modulus=hdr["poly"])
    v, k = hdr["v"], hdr["k"]
    blocks = []
    for lineno, line in lines[1:]:
        vectors = [_ints(part.split(), lineno) for part in line.split(";")]
        if len(vectors) != k:
            raise ValueError(f"line {lineno}: block has {len(vectors)} generators, expected {k}")
        try:
            blk = subspace(vectors, v, ctx)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if blk.k != k:
            raise ValueError(f"line {lineno}: block generators span only {blk.k} dimensions")
        blocks.append(blk)
    return SubspaceDesign(
        ctx=ctx, t=hdr["t"], v=v, k=k, lam=hdr["lambda"], blocks=tuple(blocks)
    )


def lambda_min_scan(t, v, k, q):
    """The smallest lambda whose derived parameters are all integral, found
    by trying lambda = 1, 2, ... against each quotient
    [v - s, t - s]_q / [k - s, t - s]_q."""
    lam_max = gaussian_coefficient(v - t, k - t, q)
    quotients = [
        (gaussian_coefficient(v - s, t - s, q), gaussian_coefficient(k - s, t - s, q))
        for s in range(t + 1)
    ]
    for lam in range(1, lam_max + 1):
        if all(lam * num % den == 0 for num, den in quotients):
            return lam
    raise AssertionError("trivial lambda must be admissible")  # unreachable
