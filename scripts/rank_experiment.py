#!/usr/bin/env python3
"""Rank-equality experiment: is the p-rank of a subspace design's incidence
matrix always equal to the geometric (full lattice) rank?

Runs over all trivial designs in a small parameter range and over any
design files passed on the command line.  For trivial designs equality is
a theorem check; for ingested designs it is an open experimental question,
so the verdict is reported, never asserted.
"""

import argparse

from designcodes.codes import rank_report
from designcodes.designs import load_subspace_design, trivial_design, verify_subspace_design
from designcodes.field import FieldCtx


def report(design, label):
    res = verify_subspace_design(design)
    if not res.verified:
        print(f"{label}: NOT VERIFIED (observed lambda {res.observed_lambda}), skipped")
        return
    rep = rank_report(design)
    verdict = "equal" if rep.all_agree else "UNEQUAL"
    extra = "" if rep.binary_simplified is None else f" binomial={rep.binary_simplified}"
    print(f"{label}: matrix={rep.matrix_rank} geometric={rep.hamada_rank}{extra} -> {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*", help="qdesign files to include")
    ap.add_argument("--vmax", type=int, default=6)
    ap.add_argument("--q", type=int, default=2)
    args = ap.parse_args()

    ctx = FieldCtx.of(args.q)
    for v in range(2, args.vmax + 1):
        for k in range(2, v + 1):
            d = trivial_design(2, v, k, ctx)
            report(d, f"trivial 2-({v},{k},{d.lam})_{args.q}")
    for path in args.files:
        d = load_subspace_design(path)
        report(d, f"{path} {d.t}-({d.v},{d.k},{d.lam})_{d.q}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
