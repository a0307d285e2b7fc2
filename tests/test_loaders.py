"""The `qdesign` loader against the per-token reference of
`tests/oracles.py`: every text, valid or mutated, gives an equal design on
both sides, or the same error text."""

import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from designcodes import designs
from designcodes.designs import (
    SubspaceDesign,
    dumps_subspace_design,
    loads_subspace_design,
    trivial_design,
)
from designcodes.field import FieldCtx, pack_mask, pack_text_rows
from designcodes.pspace import enumerate_subspaces, subspace

from .oracles import loads_subspace_design_tokens

SHIPPED_DESIGN = Path(__file__).resolve().parents[1] / "perfbench/designs/2-7-3-3_2.qdesign"

# tokens that `int` reads but that are not a literal 0 or 1 (`١` is the
# Arabic-Indic digit one), tokens it rejects, and whitespace and `;`
_JUNK = ["0", "1", "01", "+1", "-0", "1_0", "١", "2", "y", ";", "\t", "0\t1", ""]


def _outcome(loads, text):
    try:
        return loads(text)
    except ValueError as exc:
        return f"error: {exc}"


@lru_cache(maxsize=None)
def _subspaces(v, k, q):
    return tuple(enumerate_subspaces(v, k, FieldCtx.of(q)))


@st.composite
def _design_texts(draw):
    """A simple design of up to 8 random blocks at q = 2, 3 or 4 (not
    verified: the loaders do not check lambda): its `dumps` header, and
    each block written as `dumps` writes it, with a random basis in place
    of its canonical rows (shuffled, some rows added to others)."""
    q = draw(st.sampled_from([2, 2, 3, 4]))
    v = draw(st.integers(1, 4 if q == 2 else 3))
    k = draw(st.integers(1, v))
    subs = _subspaces(v, k, q)
    picks = draw(st.lists(st.integers(0, len(subs) - 1), unique=True, max_size=8))
    t = draw(st.integers(0, k))
    ctx = FieldCtx.of(q)
    design = SubspaceDesign(ctx, t, v, k, draw(st.integers(1, 5)), tuple(subs[i] for i in picks))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = dumps_subspace_design(design).splitlines()[:1]
    for blk in design.blocks:
        gens = [list(row) for row in blk.gen]
        for _ in range(rng.randrange(3) if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            gens[i] = [ctx.add_table[a][b] for a, b in zip(gens[i], gens[j])]
        rng.shuffle(gens)
        lines.append(" ; ".join(" ".join(map(str, row)) for row in gens))
    return "\n".join(lines) + "\n"


@st.composite
def _mutated(draw, texts):
    """A text from `texts` with up to three edits.  A line is split into
    tokens at spaces; an edit replaces, inserts or drops a token, turns a
    space into a tab, writes a random 0/1 generator, or duplicates or drops
    a line."""
    lines = draw(texts).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split(" ")
        j = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(["replace", "insert", "drop", "tab", "generator", "line"]))
        if edit == "replace" and j < len(toks):
            toks[j] = draw(st.sampled_from(_JUNK))
        elif edit == "insert":
            toks.insert(j, draw(st.sampled_from(_JUNK)))
        elif edit == "drop" and j < len(toks):
            del toks[j]
        elif edit == "generator":
            seps = [n for n, tok in enumerate(toks) if tok == ";"] or [len(toks), -1]
            toks[seps[-1] + 1 :] = [draw(st.sampled_from("01")) for _ in range(seps[0])]
        elif edit == "tab" and len(toks) > 1:
            j = min(max(j, 1), len(toks) - 1)
            toks[j - 1 : j + 1] = [toks[j - 1] + "\t" + toks[j]]
        elif edit == "line" and i:
            lines[i : i + 1] = [lines[i]] * draw(st.integers(0, 2))
            continue
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_mutated(_design_texts()))
def test_design_loader_matches_token_reference(text):
    assert _outcome(loads_subspace_design, text) == _outcome(loads_subspace_design_tokens, text)


@pytest.mark.parametrize("tok", _JUNK)
@pytest.mark.parametrize("at", [0, 2, 4])
def test_design_loader_matches_token_reference_on_each_token(tok, at):
    # one token of a q = 2 block replaced
    line = "1 0 0 ; 0 1 0".split(" ")
    line[at] = tok
    text = "qdesign t=1 v=3 k=2 lambda=1 q=2 poly=2\n" + " ".join(line) + "\n"
    assert _outcome(loads_subspace_design, text) == _outcome(loads_subspace_design_tokens, text)


def test_written_q2_bodies_are_read_in_one_pass(monkeypatch):
    # the shipped file and every q = 2 trivial design with v <= 6, k >= 1
    # as `dumps` writes it load with the token path disabled, and equal the
    # token reference: a silent fall back to the tokens would fail here
    ctx = FieldCtx.of(2)
    texts = [SHIPPED_DESIGN.read_text(encoding="utf-8")] + [
        dumps_subspace_design(trivial_design(t, v, k, ctx))
        for v in range(1, 7)
        for k in range(1, v + 1)
        for t in range(k + 1)
    ]
    want = [loads_subspace_design_tokens(text) for text in texts]
    _token_path_fails(monkeypatch)
    assert [loads_subspace_design(text) for text in texts] == want


def _token_path_fails(monkeypatch):
    # the token path, and a reduction block by block, fail when called
    def token_path(*args):
        raise AssertionError("a written q = 2 body was read token by token or block by block")

    monkeypatch.setattr(designs, "_ints", token_path)
    monkeypatch.setattr(designs, "subspace", token_path)
    monkeypatch.setattr(designs, "rref_gf2", token_path, raising=False)


@pytest.mark.parametrize("v", [9, 12])  # lanes of 2 bytes
def test_rank_deficient_blocks_in_wide_lanes_name_the_first_line(v, monkeypatch):
    ctx = FieldCtx.of(2)
    rng = random.Random(v)
    blocks = {}
    while len(blocks) < 40:
        blk = subspace([[rng.randrange(2) for _ in range(v)] for _ in range(3)], v, ctx)
        if blk.k == 3:
            blocks[blk.rows] = blk
    lines = dumps_subspace_design(SubspaceDesign(ctx, 1, v, 3, 1, tuple(blocks.values())))
    lines = lines.splitlines()
    lines.insert(1, "# a comment line, counted by the line numbers")
    texts = ["\n".join(lines) + "\n"]
    gens = lines[30].split(" ; ")
    lines[30] = " ; ".join([gens[0], gens[1], gens[0]])  # file line 31: rank 2
    lines[36] = " ; ".join([" ".join("0" * v)] + lines[36].split(" ; ")[1:])  # line 37
    texts.append("\n".join(lines) + "\n")
    want = [_outcome(loads_subspace_design_tokens, text) for text in texts]
    assert isinstance(want[0], SubspaceDesign)
    assert want[1] == "error: line 31: block generators span only 2 dimensions"
    _token_path_fails(monkeypatch)
    assert [_outcome(loads_subspace_design, text) for text in texts] == want


def test_k0_design_is_not_written():
    # its one block, the zero subspace, would be a blank line, which the
    # comment rule drops: the file would read back as a design with no block
    design = trivial_design(0, 3, 0, FieldCtx.of(2))
    assert len(design.blocks) == 1
    with pytest.raises(ValueError, match="k = 0"):
        dumps_subspace_design(design)


def test_pack_text_packs_like_pack_mask():
    # one row of 0/1 text packs to the mask `pack_mask` gives its vector
    for vec in [(0,), (1,), (1, 0, 1, 1), (0, 0, 0, 1, 0, 0, 0)]:
        assert pack_text_rows("".join(map(str, vec)), len(vec)) == [pack_mask(vec)]


def test_pack_text_rows_packs_each_row_like_pack_mask():
    rows = [(1, 0, 1), (0, 0, 0), (0, 1, 1)]
    assert pack_text_rows("101000011", 3) == [pack_mask(row) for row in rows]
    assert pack_text_rows("", 3) == []
    for bad in ["10100001", "10100001١", "1010 0011", "101000012"]:
        assert pack_text_rows(bad, 3) is None


@pytest.mark.parametrize("tokens, width", [("1 0", 3), ("1\t0", 3)])
def test_pack_text_rejects_anything_but_literal_bits(tokens, width):
    assert pack_text_rows(tokens, width) is None
