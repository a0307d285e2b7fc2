"""The three workloads: their set-up through the package's public API, and
the values an independent computation expects of them.

A set-up is a generator taking the imported package: each `yield` ends a
stage, so the caller can time the stages one by one between reference
loops.  It returns the ready decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import oracle

DESIGN_FILE = Path("perfbench/designs/2-7-3-3_2.qdesign")


@dataclass(frozen=True)
class Workload:
    name: str
    two_step: bool
    v: int
    q: int
    k: int  # dimension of the code's blocks
    rank: int  # expected 2-rank of the check rows
    step_lambda: int  # lambda of the design the decoder votes over
    step_blocks: int  # its block count, b (one-step) or b_2 (two-step)
    sim_words: int  # words per simulate chunk
    radius_budget: int  # patterns per weight in one radius sweep
    decode_words: int  # single decode calls per chunk
    setup: Callable
    # (root) -> (the design file's blocks, or None if the workload does not
    # load it; the check rows this benchmark builds itself)
    reference: Callable

    @property
    def n(self) -> int:
        return oracle.gaussian(self.v, 1, self.q)

    @property
    def step_k(self) -> int:
        """Dimension of the blocks the decoder votes over."""
        return self.k - 1 if self.two_step else self.k

    @property
    def r(self) -> int:
        """Blocks of the voting design through one point."""
        num = self.step_lambda * oracle.gaussian(self.v - 1, 1, self.q)
        return num // oracle.gaussian(self.step_k - 1, 1, self.q)

    @property
    def J(self) -> int:
        """k-superspaces of one (k-1)-block (two-step only)."""
        return oracle.gaussian(self.v - self.step_k, 1, self.q)

    @property
    def ell(self) -> int:
        ell_r = (self.r + self.step_lambda - 1) // (2 * self.step_lambda)
        return min(self.J // 2, ell_r) if self.two_step else ell_r

    @property
    def check_evals_per_word(self) -> int:
        evals = self.n * self.r
        return evals + self.step_blocks * self.J if self.two_step else evals

    def radius_patterns(self) -> int:
        """Patterns in one sweep of weights 1..ell at `radius_budget` each."""
        return sum(min(comb(self.n, w), self.radius_budget) for w in range(1, self.ell + 1))


def _load_verified(dc, root: Path):
    design = dc.load_subspace_design(root / DESIGN_FILE)
    if not dc.verify_subspace_design(design).verified:
        raise ValueError(f"{DESIGN_FILE} is not a 2-(7,3,3)_2 design")
    return design


def setup_onestep_subspace(dc, root: Path):
    design = _load_verified(dc, root)
    yield "load_verify"
    comb_design = dc.projective_version(design)
    yield "design"
    code = dc.build_code(comb_design, 2, "projective")
    code.nullspace_basis()
    yield "code"
    return dc.OneStepDecoder(code, comb_design)


def setup_twostep_subspace(dc, root: Path):
    step2 = _load_verified(dc, root)
    yield "load_verify"
    comb_design = dc.projective_version(dc.trivial_design(2, 7, 4, dc.FieldCtx.of(2)))
    yield "design"
    code = dc.build_code(comb_design, 2, "projective")
    code.nullspace_basis()
    yield "code"
    return dc.TwoStepDecoder(code, step2)


def setup_twostep_q4(dc, root: Path):
    ctx = dc.FieldCtx.of(4)
    comb_design = dc.projective_version(dc.trivial_design(2, 4, 3, ctx))
    yield "design"
    code = dc.build_code(comb_design, 2, "projective")
    code.nullspace_basis()
    yield "code"
    step2 = dc.trivial_design(2, 4, 2, ctx)
    yield "step2"
    return dc.TwoStepDecoder(code, step2)


def _onestep_subspace_reference(root: Path):
    blocks = oracle.read_qdesign(root / DESIGN_FILE)
    return blocks, oracle.q2_design_rows(7, blocks)


def _twostep_subspace_reference(root: Path):
    return oracle.read_qdesign(root / DESIGN_FILE), oracle.q2_subspace_rows(7, 4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="onestep-subspace",
            two_step=False,
            v=7,
            q=2,
            k=3,
            rank=99,
            step_lambda=3,
            step_blocks=1143,
            sim_words=50,
            radius_budget=5,
            decode_words=50,
            setup=setup_onestep_subspace,
            reference=_onestep_subspace_reference,
        ),
        Workload(
            name="twostep-subspace",
            two_step=True,
            v=7,
            q=2,
            k=4,
            rank=64,
            step_lambda=3,
            step_blocks=1143,
            sim_words=10,
            radius_budget=2,
            decode_words=10,
            setup=setup_twostep_subspace,
            reference=_twostep_subspace_reference,
        ),
        Workload(
            name="twostep-q4",
            two_step=True,
            v=4,
            q=4,
            k=3,
            rank=17,
            step_lambda=1,
            step_blocks=357,
            sim_words=100,
            radius_budget=50,
            decode_words=100,
            setup=setup_twostep_q4,
            reference=lambda root: (None, oracle.q4_hyperplane_rows(4)),
        ),
    )
}
