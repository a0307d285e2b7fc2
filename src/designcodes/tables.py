"""Code-parameter table rows for designs taken through each construction.

A row is determined by the subspace-design parameters t-(v, k, lambda)_q and
the construction mode.  Everything is closed-form arithmetic: the
combinatorial parameters from `designs.construction_params` (the table the
constructions themselves build from), the code dimension from the geometric
rank formulas, the decoding capability from the one-step formulas,
lambda_min as the lcm of the denominators of the derived parameters at
lambda = 1 (`designs.derive_params_q`), and the decoder speedup as
lambda_max over lambda_known.
"""

from fractions import Fraction
from math import lcm

from ._record import Record
from .codes import binary_rank_formula, hamada_rank
from .decoders import ell_one_step, ell_one_step_3design
from .designs import DesignParams, construction_params, derive_params_q
from .field import FieldCtx
from .pspace import gaussian_coefficient


class TableRowSpec(Record):
    _fields = ("t", "v", "k", "lam", "q", "mode")

    def label(self) -> str:
        return f"{self.t}-({self.v},{self.k},{self.lam})_{self.q}"


class RowReport(Record):
    """One table row: `speedup` is lambda_max / lambda_known as a Fraction,
    or None when lambda_known == lambda_max."""

    _fields = ("spec", "n", "dim", "ell", "r", "lambda_min", "lambda_max", "speedup")

    def speedup_str(self) -> str:
        if self.speedup is None:
            return ""
        return format_one_decimal(self.speedup)

    def tsv(self) -> str:
        return "\t".join(
            [
                self.spec.label(),
                str(self.lambda_min),
                str(self.lambda_max),
                f"[{self.n}, {self.dim}, {self.ell}]",
                str(self.r),
                self.speedup_str(),
            ]
        )

    def kv_lines(self) -> list[str]:
        return [
            f"design={self.spec.label()}",
            f"mode={self.spec.mode}",
            f"lambda_min={self.lambda_min}",
            f"lambda_max={self.lambda_max}",
            f"n={self.n}",
            f"dim={self.dim}",
            f"ell={self.ell}",
            f"r={self.r}",
            f"speedup={self.speedup_str()}",
        ]


def format_one_decimal(value: Fraction) -> str:
    """One decimal place, ties rounded up (half-up)."""
    scaled = int((value * 10 + Fraction(1, 2)) // 1)
    return f"{scaled // 10}.{scaled % 10}"


def comb_design_params(spec: TableRowSpec) -> DesignParams:
    """Parameters of the combinatorial design the row's construction
    yields; `designs.construction_params` judges the mode and t."""
    qp = derive_params_q(spec.t, spec.v, spec.k, spec.lam, spec.q)
    violated = qp.violated_divisibility()
    if violated is not None:
        raise ValueError(
            f"lambda={spec.lam} is inadmissible for {spec.label()}: {violated} is not integral"
        )
    return construction_params(qp, spec.mode)


def predicted_rank(spec: TableRowSpec) -> int:
    """Check-matrix rank from the closed-form geometric rank for the mode."""
    q, v, k = spec.q, spec.v, spec.k
    if spec.mode == "projective":
        if q == 2:
            return binary_rank_formula(v, k)
        ctx = FieldCtx.of(q)
        return hamada_rank(v, k, ctx.p, ctx.m)
    if q != 2:
        raise ValueError(f"{spec.mode} rank formula is available for q = 2 only")
    if spec.mode == "affine":
        # the affine code is a Reed-Muller code: the binomial sum one dimension down
        return binary_rank_formula(v - 1, k - 1)
    return binary_rank_formula(v, k)


def capability(params: DesignParams) -> int:
    """One-step decoding capability of a combinatorial design."""
    if params.t == 2:
        return ell_one_step(params.r, params.lam)
    if params.t == 3:
        return ell_one_step_3design(params.r, params.lambda_s(2), params.lam)
    raise ValueError(f"no capability formula for t = {params.t}")


def lambda_min(t: int, v: int, k: int, q: int) -> int:
    """Smallest lambda whose derived parameters are all integral: the lcm
    of the denominators of the derived parameters at lambda = 1, since each
    lambda_s is lambda times its value there."""
    return lcm(*(x.denominator for x in derive_params_q(t, v, k, 1, q).lambdas))


def table_row(spec: TableRowSpec) -> RowReport:
    params = comb_design_params(spec)
    lam_max = gaussian_coefficient(spec.v - spec.t, spec.k - spec.t, spec.q)
    if spec.lam > lam_max:
        raise ValueError(f"lambda={spec.lam} exceeds the maximum {lam_max}")
    speedup = None if spec.lam == lam_max else Fraction(lam_max, spec.lam)
    return RowReport(
        spec=spec,
        n=params.v,
        dim=params.v - predicted_rank(spec),
        ell=capability(params),
        r=params.r,
        lambda_min=lambda_min(spec.t, spec.v, spec.k, spec.q),
        lambda_max=lam_max,
        speedup=speedup,
    )
