"""Command-line surface: design generation and verification, code building,
rank formulas, decoding, radius measurement, channel simulation, table rows,
and the rank-equality experiment.

Exit codes: 0 on success, 1 on a domain error (bad parameters, failed
verification), 2 on usage errors (argparse).
"""

import argparse
import sys
from pathlib import Path

from .codes import (
    BinaryCode,
    bch_bound,
    binary_rank_formula,
    build_code,
    distance_bounds,
    hamada_rank,
    hamada_rank_terms,
    min_distance_bruteforce,
    rank_report,
)
from .decoders import (
    OneStepDecoder,
    TwoStepDecoder,
    check_step2_design,
    measure_decoding_radius,
    simulate,
)
from .designs import (
    MODES,
    CombinatorialDesign,
    SubspaceDesign,
    block_line,
    construct,
    derive_params_comb,
    derive_params_q,
    dumps_comb_design,
    dumps_subspace_design,
    loads_comb_design,
    loads_subspace_design,
    projective_version,
    save_subspace_design,
    trivial_design,
    verify_comb_design,
    verify_subspace_design,
)
from .field import FieldCtx, PrimeMatrix, _load_file, _strip_lines, matrix_rank
from .pspace import enumerate_points, gaussian_coefficient
from .tables import TableRowSpec, capability, table_row


def _ctx(args) -> FieldCtx:
    return FieldCtx.of(args.q, modulus=getattr(args, "poly", None))


def _parse_hyperplane(arg: str | None):
    if arg is None:
        return None
    return tuple(int(x) for x in arg.replace(",", " ").split())


def _load_design_file(path: str) -> SubspaceDesign | CombinatorialDesign:
    """The design a qdesign or cdesign file holds."""
    return _load_file(path, _loads_design)


def _loads_design(text: str) -> SubspaceDesign | CombinatorialDesign:
    # the header word, read off the first line the comment rule keeps: the
    # chosen loader reads the whole file
    _, first = next(_strip_lines(text), (0, ""))
    head = first.split(None, 1)[0] if first else ""
    if head == "qdesign":
        return loads_subspace_design(text)
    if head == "cdesign":
        return loads_comb_design(text)
    raise ValueError("neither a qdesign nor a cdesign file")


def _verify(design: SubspaceDesign | CombinatorialDesign):
    """Verify a qdesign's subspace design, or a cdesign's blocks against its
    header."""
    if isinstance(design, SubspaceDesign):
        return verify_subspace_design(design)
    return verify_comb_design(design)


def _resolve_design_file(path: str, mode: str | None, hyperplane: str | None = None):
    """(file design, combinatorial design, mode, verification result) of a
    design file whose blocks, or the construction `mode` makes of them,
    are a code's checks.  A cdesign's blocks are the checks as they stand,
    so no `mode` applies to it; `hyperplane` applies only to affine."""
    design = _load_design_file(path)
    is_comb = isinstance(design, CombinatorialDesign)
    if is_comb and mode is not None:
        raise ValueError(
            f"--mode {mode} does not apply to a cdesign file, whose blocks are the code's checks"
        )
    mode = "combinatorial" if is_comb else mode or "projective"
    if hyperplane is not None and mode != "affine":
        raise ValueError(f"--hyperplane applies only to --mode affine, not to {mode}")
    comb = design if is_comb else construct(design, mode, hyperplane=_parse_hyperplane(hyperplane))
    return design, comb, mode, _verify(design)


def _resolve_comb(args) -> tuple[CombinatorialDesign, str]:
    """Combinatorial design for a one-step decoder, from trivial parameters
    or from a file that passes verification: the decoder's threshold reads
    the file's lambda."""
    if not args.designfile:
        mode = args.mode or "projective"
        return construct(trivial_design(2, args.v, args.k, _ctx(args)), mode), mode
    design, comb, mode, res = _resolve_design_file(args.designfile, args.mode)
    if not res.verified:
        raise ValueError(
            f"{args.designfile} fails verification (observed lambda {res.observed_lambda},"
            f" header lambda {design.lam}): one-step decoding needs a design"
        )
    return comb, mode


def _code_report(code: BinaryCode, design, comb: CombinatorialDesign, mode: str, verified: bool):
    """The `code build` lines of the code of a design file.  `ell=` reads
    the header's parameters, so it is printed only for a file that passes
    verification."""
    lines = [f"n={code.n}", f"rank={code.rank}", f"dim={code.dim}"]
    if verified:
        try:
            lines.append(f"ell={capability(comb.params())}")
        except ValueError:
            pass  # no capability formula outside t = 2, 3
    # the bounds are for a qdesign's geometry, over its field's characteristic
    if isinstance(design, SubspaceDesign) and code.p == design.ctx.p:
        lines += _distance_lines(design.v, design.k, design.q, mode)
    return lines


def _distance_lines(v: int, k: int, q: int, mode: str) -> list[str]:
    try:
        b = distance_bounds(v, k, q, mode)
    except ValueError:
        return []  # no distance bounds for the mode (flats)
    exact = b.known_exact if b.known_exact is not None else ""
    return [f"d_bch={bch_bound(v, k, q)}", f"d_lower={b.lower}", f"d_exact={exact}"]


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_points(args) -> int:
    ctx = _ctx(args)
    for i, pt in enumerate(enumerate_points(args.v, ctx)):
        print(f"{i}\t{' '.join(str(x) for x in pt)}")
    return 0


def cmd_design_trivial(args) -> int:
    d = trivial_design(args.t, args.v, args.k, _ctx(args))
    if args.out:
        save_subspace_design(d, args.out)
    else:
        sys.stdout.write(dumps_subspace_design(d))
    return 0


def _print_witness(res) -> None:
    """The witness lines of a failed verification: the first t-subspace
    (generator rows) or t-subset with an off count, and that count."""
    if res.witness is None:
        return
    witness, count = res.witness
    print(f"witness={block_line(witness)}")
    print(f"witness_count={count}")


def cmd_design_verify(args) -> int:
    res = _verify(_load_design_file(args.file))
    print(f"verified={'true' if res.verified else 'false'}")
    print(f"observed_lambda={res.observed_lambda}")
    _print_witness(res)
    return 0 if res.verified else 1


def cmd_design_derive(args) -> int:
    if args.q is not None:
        if args.v is None:
            raise ValueError("need --v for subspace parameters")
        params = derive_params_q(args.t, args.v, args.k, args.lam, args.q)
    else:
        if args.n is None:
            raise ValueError("need --q for subspace parameters or --n for combinatorial")
        params = derive_params_comb(args.t, args.n, args.k, args.lam)
    for s, val in enumerate(params.lambdas):
        print(f"lambda_{s}={val}")
    print(f"b={params.lambdas[0]}")
    if params.t >= 1:
        print(f"r={params.lambdas[1]}")
    print(f"admissible={'true' if params.admissible else 'false'}")
    return 0


def cmd_code_build(args) -> int:
    design, comb, mode, res = _resolve_design_file(args.file, args.mode, args.hyperplane)
    code = build_code(comb, args.p, mode)
    # both files are rendered before either is written, so a matrix the
    # file format cannot hold leaves no design file behind
    outputs = []
    if args.design_out:
        outputs.append((args.design_out, dumps_comb_design(comb)))
    if args.matrix_out:
        # the checks are held as a 0/1 matrix over GF(2); the file is over
        # the code's field
        checks = PrimeMatrix.from_rows(code.checks.iter_entry_rows(), code.p, code.n)
        outputs.append((args.matrix_out, checks.dumps()))
    for path, text in outputs:
        Path(path).write_text(text, encoding="utf-8")
    for line in _code_report(code, design, comb, mode, res.verified):
        print(line)
    return 0


def cmd_code_rank(args) -> int:
    m = PrimeMatrix.load(args.file)
    print(f"rank={matrix_rank(m, args.p)}")
    return 0


def cmd_code_params(args) -> int:
    v, k, q = args.v, args.k, args.q
    lam = args.lam if args.lam is not None else gaussian_coefficient(v - args.t, k - args.t, q)
    row = table_row(TableRowSpec(t=args.t, v=v, k=k, lam=lam, q=q, mode=args.mode))
    lines = [f"n={row.n}", f"rank={row.n - row.dim}", f"dim={row.dim}", f"ell={row.ell}"]
    for line in lines + _distance_lines(v, k, q, args.mode):
        print(line)
    return 0


def cmd_code_mindist(args) -> int:
    m = PrimeMatrix.load(args.file)
    code = BinaryCode(n=m.ncols, p=m.p, checks=m)
    print(f"d={min_distance_bruteforce(code, cap=args.cap)}")
    return 0


def cmd_hamada(args) -> int:
    rank = hamada_rank(args.v, args.k, args.p, args.m)
    print(f"rank={rank}")
    if args.p == 2 and args.m == 1:
        print(f"binary_formula={binary_rank_formula(args.v, args.k)}")
    if args.breakdown:
        for s, val in hamada_rank_terms(args.v, args.k, args.p, args.m):
            print(f"term s={','.join(str(x) for x in s)} value={val}")
    return 0


def _decoder_for(args):
    """The decoder named by --decoder (or the decode subcommand), built from
    a design file or trivial parameters."""
    if args.decoder == "one-step":
        comb, mode = _resolve_comb(args)
        return OneStepDecoder(build_code(comb, 2, mode), comb)
    if args.designfile:
        step2 = _load_design_file(args.designfile)
        if not isinstance(step2, SubspaceDesign):
            raise ValueError(
                f"{args.designfile}: two-step decoding needs a qdesign file, not a cdesign"
            )
    else:
        if args.k < 3:
            raise ValueError(
                f"--k {args.k} is too small for two-step decoding: the step-2 design"
                " is a 2-design of (k - 1)-subspaces, so --k must be at least 3"
            )
        step2 = trivial_design(2, args.v, args.k - 1, _ctx(args))
    # before the code of the step-2 blocks' superspaces is built, which is
    # most of the set-up and fails on k = v without naming the step-2 design
    check_step2_design(step2)
    mode = args.mode or "projective"
    superspaces = trivial_design(2, step2.v, step2.k + 1, step2.ctx)
    code = build_code(construct(superspaces, mode), 2, mode)
    return TwoStepDecoder(code, construct(step2, mode))


def cmd_decode(args) -> int:
    out = _decoder_for(args).decode(args.word)
    print(f"status={out.status}")
    print(f"flips={','.join(str(j) for j in out.flips)}")
    if out.word is not None:
        print(f"word={out.word_str()}")
    return 0


def cmd_radius(args) -> int:
    dec = _decoder_for(args)
    rep = measure_decoding_radius(
        dec, budget=args.budget, max_weight=args.max_weight, seed=args.seed
    )
    print(f"radius={rep.certified_radius}")
    print(f"first_failure={rep.first_failure_weight if rep.first_failure_weight is not None else ''}")
    print(f"trials={rep.trials}")
    print(f"exhaustive={'true' if rep.exhaustive else 'false'}")
    return 0


def cmd_simulate(args) -> int:
    dec = _decoder_for(args)
    rep = simulate(
        dec,
        weight=args.weight,
        trials=args.trials,
        seed=args.seed,
        zero_codeword=args.zero,
    )
    print(f"seed={rep.seed}")
    print(f"weight={rep.weight}")
    print(f"trials={rep.trials}")
    print(f"successes={rep.successes}")
    print(f"miscorrected={rep.miscorrected}")
    print(f"detected={rep.detected}")
    print(f"success_rate={rep.success_rate}")
    print(f"check_evals={rep.check_evals}")
    return 0


def cmd_table(args) -> int:
    spec = TableRowSpec(t=args.t, v=args.v, k=args.k, lam=args.lam, q=args.q, mode=args.mode)
    rep = table_row(spec)
    if args.format == "tsv":
        print(rep.tsv())
    else:
        for line in rep.kv_lines():
            print(line)
    return 0


def cmd_experiment_rank(args) -> int:
    qd = _load_design_file(args.file)
    if not isinstance(qd, SubspaceDesign):
        raise ValueError("the rank experiment needs a subspace-design (qdesign) file")
    res = verify_subspace_design(qd)
    if not res.verified:
        print("verified=false")
        _print_witness(res)
        return 1
    rep = rank_report(qd)
    print(f"matrix_rank={rep.matrix_rank}")
    print(f"hamada_rank={rep.hamada_rank}")
    if rep.binary_simplified is not None:
        print(f"binary_rank={rep.binary_simplified}")
    if args.with_geometric_matrix:
        triv = projective_version(trivial_design(qd.t, qd.v, qd.k, qd.ctx))
        print(f"geometric_matrix_rank={build_code(triv, qd.ctx.p, 'projective').rank}")
    print(f"verdict={'equal' if rep.all_agree else 'unequal'}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_field_args(p, need_k=True, need_t=False):
    p.add_argument("--v", type=int, required=True)
    if need_k:
        p.add_argument("--k", type=int, required=True)
    if need_t:
        p.add_argument("--t", type=int, default=2)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--poly", type=int, default=None, help="modulus polynomial encoding")


def _add_decoder_source_args(p):
    p.add_argument("--designfile", default=None)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=None, help="field order (default 2)")
    p.add_argument("--poly", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    # the source options are checked in `main`, against this parser's usage
    p.set_defaults(usage_error=p.error)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="designcodes",
        description="codes from designs over finite geometries and majority-logic decoding",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("points", help="list the canonical point order")
    _add_field_args(p, need_k=False)
    p.set_defaults(fn=cmd_points)

    pd = sub.add_parser("design", help="generate, verify, derive")
    dsub = pd.add_subparsers(dest="subcmd", required=True)

    p = dsub.add_parser("trivial", help="emit the full k-subspace design")
    _add_field_args(p, need_t=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_design_trivial)

    p = dsub.add_parser("verify", help="brute-force verification of a design file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_design_verify)

    p = dsub.add_parser("derive", help="derived design parameters")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(fn=cmd_design_derive)

    pc = sub.add_parser("code", help="build codes, ranks, parameters, distances")
    csub = pc.add_subparsers(dest="subcmd", required=True)

    p = csub.add_parser("build", help="code from a design file")
    p.add_argument("file")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--hyperplane", default=None, help="normal vector, e.g. '0 1 0 0'")
    p.add_argument("--matrix-out", default=None)
    p.add_argument("--design-out", default=None)
    p.set_defaults(fn=cmd_code_build)

    p = csub.add_parser("rank", help="rank of a pmatrix file")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(fn=cmd_code_rank)

    p = csub.add_parser("params", help="formula-only code report")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default="projective")
    p.set_defaults(fn=cmd_code_params)

    p = csub.add_parser("mindist", help="exhaustive minimum distance of a pmatrix file")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=24)
    p.set_defaults(fn=cmd_code_mindist)

    p = sub.add_parser("hamada", help="geometric p-rank by the closed formula")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--breakdown", action="store_true")
    p.set_defaults(fn=cmd_hamada)

    pdec = sub.add_parser("decode", help="decode a received word")
    decsub = pdec.add_subparsers(dest="subcmd", required=True)

    for name in ("one-step", "two-step"):
        p = decsub.add_parser(name)
        _add_decoder_source_args(p)
        p.add_argument("--word", required=True)
        p.set_defaults(fn=cmd_decode, decoder=name)

    p = sub.add_parser("radius", help="measure the decoding radius empirically")
    p.add_argument("--decoder", choices=["one-step", "two-step"], default="one-step")
    _add_decoder_source_args(p)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_radius)

    # no abbreviations: `--t`, which no decoder command takes, would
    # otherwise be read as `--trials`
    p = sub.add_parser("simulate", help="random-error channel simulation", allow_abbrev=False)
    p.add_argument("--decoder", choices=["one-step", "two-step"], default="one-step")
    _add_decoder_source_args(p)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero", action="store_true", help="send the zero codeword")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("table", help="one code-parameter table row")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="projective")
    p.add_argument("--format", choices=["tsv", "kv"], default="tsv")
    p.set_defaults(fn=cmd_table)

    pe = sub.add_parser("experiment", help="research experiments")
    esub = pe.add_subparsers(dest="subcmd", required=True)
    p = esub.add_parser("rank", help="matrix rank vs geometric rank of a design file")
    p.add_argument("file")
    p.add_argument("--with-geometric-matrix", action="store_true")
    p.set_defaults(fn=cmd_experiment_rank)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd in ("decode", "radius", "simulate"):
        if args.designfile:
            # the file fixes the design, its field and its geometry
            for name in ("v", "k", "q", "poly"):
                if getattr(args, name) is not None:
                    args.usage_error(f"--{name} does not apply with --designfile")
        else:
            for name in ("v", "k"):
                if getattr(args, name) is None:
                    args.usage_error(f"--{name} is required without --designfile")
            if args.q is None:
                args.q = 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
