"""One benchmark process: a cold set-up, then (role "measure") checks and
timed rounds.  perfbench/run.py starts it with PYTHONPATH=src; its last
stdout line is a JSON object.

Each process does one set-up only, because the package's process-wide
caches (`lru_cache` in pspace and field) make a second build cheaper.

Set-up stages are timed with in-call speed sampling (see reference.py).
A measurement round is one `simulate` chunk, one `measure_decoding_radius`
sweep and one chunk of single `decode` calls, each between two reference
samples.  Rounds repeat until --seconds have passed.  With --trace 1 the
set-up is traced and rounds alternate between untraced and traced, so the
tracing overhead is measured in the same process; the per-layer metrics
come from the spans, and no end-to-end metric is reported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
from reference import NOMINAL_S, Clock, StageClock
from tracing import Tracer
from workloads import WORKLOADS

# Short reference samples between two set-up stages.
SETUP_REFS = 20


class Checks:
    """Counts attempted and failed operations with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)


def cold_setup(wl, root: Path, clock: StageClock, tracer: Tracer | None):
    """Import the package and build the workload's decoder, stage by stage."""
    stages = {}
    dc, wall, scale = clock.run(lambda: importlib.import_module("designcodes"))
    stages["import"] = (wall, scale)
    src = (root / "src").resolve()
    if not Path(dc.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"designcodes imported from {dc.__file__}, not from {src}")
    if tracer is not None:
        tracer.install(dc)
    gen = wl.setup(dc, root)

    def step():
        try:
            return next(gen), None
        except StopIteration as stop:
            return "decoder", stop.value

    while True:
        (name, decoder), wall, scale = clock.run(step)
        stages[name] = (wall, scale)
        if decoder is not None:
            break
    if tracer is not None:
        tracer.uninstall()
    return dc, decoder, stages


def independent_checks(wl, root: Path, dc, dec, checks: Checks) -> list[int]:
    """Compare the built code with this benchmark's own computations;
    return a GF(2) basis of the check rows built here."""
    blocks, rows = wl.reference(root)
    if blocks is not None:
        counts = oracle.line_counts(blocks)
        n_lines = oracle.gaussian(wl.v, 2, wl.q)
        checks.expect(
            len(blocks) == wl.step_blocks
            and len(counts) == n_lines
            and set(counts.values()) == {wl.step_lambda},
            f"design file: {len(blocks)} blocks, {len(counts)} of {n_lines} lines covered, "
            f"counts {sorted(set(counts.values()))}",
        )
    checks.expect(
        sorted(dec.code.check_masks()) == sorted(rows), "code's check rows differ from ours"
    )
    basis = oracle.gf2_basis(rows)
    m = {2: 1, 4: 2}[wl.q]
    formulas = {oracle.hamada_rank(wl.v, wl.k, 2, m)}
    if wl.q == 2:
        formulas.add(oracle.binomial_rank(wl.v, wl.k))
    checks.expect(
        len(basis) == wl.rank == dec.code.rank and formulas == {wl.rank},
        f"rank: ours {len(basis)}, code {dec.code.rank}, formulas {formulas}, expected {wl.rank}",
    )
    if wl.two_step:
        cap = dc.two_step_capability(wl.v, wl.k, wl.q, wl.step_lambda)
        got = (dec.J, cap.J, cap.r, cap.ell_two_step)
        want = (wl.J, wl.J, wl.r, wl.ell)
    else:
        got = (dec.r, dec.lambda2, dc.ell_one_step(dec.r, dec.lambda2))
        want = (wl.r, wl.step_lambda, wl.ell)
    checks.expect(got == want, f"decoder parameters {got}, expected {want}")
    return basis


def make_words(wl, dec, rng: random.Random, basis, checks: Checks):
    """The fixed seeded word set: (sent codeword, received word) pairs."""
    words = []
    for _ in range(wl.decode_words):
        sent = dec.code.random_codeword(rng)
        checks.expect(oracle.satisfies(sent, basis), "random_codeword gave a non-codeword")
        err = 0
        for j in rng.sample(range(wl.n), wl.ell):
            err |= 1 << j
        words.append((sent, sent ^ err))
    return words


def decode_each(dec, words):
    out = []
    for _sent, received in words:
        start = perf_counter()
        res = dec.decode(received)
        out.append((perf_counter() - start, res))
    return out


def check_decoded(words, results, basis, checks: Checks) -> None:
    for (sent, _received), (_t, res) in zip(words, results):
        checks.expect(
            res.status == "decoded" and res.word == sent and oracle.satisfies(res.word, basis),
            f"decode: status {res.status}, decoded == sent: {res.word == sent}",
        )


def measure_round(wl, dc, dec, words, clock: Clock, seed: int, basis, checks: Checks):
    """One round; returns the wall seconds of its three chunks, and the
    normalised seconds of each single decode call."""
    sim, sim_wall, _ = clock.run(lambda: dc.simulate(dec, wl.ell, wl.sim_words, seed=seed))
    checks.expect(
        sim.successes == sim.trials == wl.sim_words
        and sim.check_evals == sim.trials * wl.check_evals_per_word,
        f"simulate: {sim.successes}/{sim.trials} decoded, {sim.check_evals} check evals",
        count=wl.sim_words,
    )
    rad, rad_wall, _ = clock.run(
        lambda: dc.measure_decoding_radius(
            dec, budget=wl.radius_budget, max_weight=wl.ell, seed=seed
        )
    )
    patterns = wl.radius_patterns()
    checks.expect(
        rad.certified_radius == wl.ell
        and rad.first_failure_weight is None
        and rad.trials == patterns,
        f"radius: certified {rad.certified_radius} of {wl.ell}, {rad.trials} patterns",
        count=patterns,
    )
    results, decode_wall, scale = clock.run(lambda: decode_each(dec, words))
    check_decoded(words, results, basis, checks)
    return sim_wall, rad_wall, decode_wall, [t * scale for t, _res in results]


def geometric_reference(dc, dec, words, clock: Clock, basis, checks: Checks) -> dict:
    """Decode the same words with the geometric 2-(7,3,31)_2 one-step
    decoder: the paper's check-evaluation ratio and the wall-clock ratio."""
    geo_comb = dc.projective_version(dc.trivial_design(2, 7, 3, dc.FieldCtx.of(2)))
    geo = dc.OneStepDecoder(dc.build_code(geo_comb, 2, "projective"), geo_comb)
    batch = words[:20]
    walls = {dec: 0.0, geo: 0.0}
    evals = {dec: 0, geo: 0}
    for _ in range(5):
        for decoder in (dec, geo):
            before = decoder.check_evals
            results, wall, _ = clock.run(lambda: decode_each(decoder, batch))
            check_decoded(batch, results, basis, checks)
            walls[decoder] += wall
            evals[decoder] += decoder.check_evals - before
    return {
        "reference.check_evals_ratio": evals[geo] / evals[dec],
        "reference.wall_ratio": walls[geo] / walls[dec],
    }


def per_layer(tracer: Tracer, setup_window, setup_scale, rounds_window, n_rounds, evals, scale):
    """Set-up spans are rescaled like the set-up itself, round spans like
    the rounds."""
    calls, total, self_s, durations = tracer.summary(*setup_window)
    out = {
        name + "_s": total[name] * setup_scale
        for name in (
            "field.matrix_rank",
            "pspace.superspaces",
            "pspace.points_of_subspace",
            "designs.load",
            "designs.verify",
            "designs.trivial_design",
            "designs.projective_version",
            "codes.build_code",
            "codes.nullspace_basis",
            "decoders.build",
        )
    }
    out["pspace.superspaces_calls"] = calls["pspace.superspaces"]
    calls, total, self_s, durations = tracer.summary(*rounds_window)
    per_round = scale / n_rounds
    decodes = durations["decoders.decode"]
    p99 = statistics.quantiles(decodes, n=100)[98] if len(decodes) >= 100 else max(decodes)
    out.update(
        {
            "codes.random_codeword_s": total["codes.random_codeword"] * per_round,
            "codes.is_codeword_s": total["codes.is_codeword"] * per_round,
            "decoders.decode_self_s": self_s["decoders.decode"] * per_round,
            "decoders.decode_calls": calls["decoders.decode"],
            "decoders.decode_ms_p99": p99 * 1e3 * scale,
            "decoders.check_evals_per_word": evals / len(decodes),
            "decoders.simulate_self_s": self_s["decoders.simulate"] * per_round,
            "decoders.radius_self_s": self_s["decoders.radius"] * per_round,
        }
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)
    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    checks = Checks()

    setup_start = perf_counter()
    stage_clock = StageClock(SETUP_REFS)
    dc, dec, stages = cold_setup(wl, root, stage_clock, tracer)
    setup_end = perf_counter()
    result = {
        "setup_s": sum(wall * scale for wall, scale in stages.values()),
        "setup_wall_s": sum(wall for wall, _scale in stages.values()),
        "stages_s": {name: wall * scale for name, (wall, scale) in stages.items()},
    }
    checks.expect(dec.code.rank == wl.rank, f"rank {dec.code.rank}, expected {wl.rank}")

    if args.role == "measure":
        rng = random.Random(args.seed)
        basis = independent_checks(wl, root, dc, dec, checks)
        words = make_words(wl, dec, rng, basis, checks)
        walls: dict[bool, list[tuple[float, float, float]]] = {False: [], True: []}
        latencies = []
        evals = 0
        clock = Clock()
        deadline = perf_counter() + args.seconds
        i = 0
        while i < 2 or perf_counter() < deadline:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install(dc)
            before = dec.check_evals
            *chunks, lat = measure_round(
                wl, dc, dec, words, clock, rng.getrandbits(32), basis, checks
            )
            if traced:
                tracer.uninstall()
                evals += dec.check_evals - before
            walls[traced].append(tuple(chunks))
            latencies.extend(lat)
            i += 1
        # Refs and chunks alternate through the whole measurement, so the mean
        # reference sample is the mean speed over the same span of time.
        scale = NOMINAL_S / statistics.fmean(clock.refs)
        result["rounds"] = i
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            sim_s, rad_s, _ = (sum(col) * scale for col in zip(*walls[False]))
            result["sim_words_per_s"] = i * wl.sim_words / sim_s
            result["radius_patterns_per_s"] = i * wl.radius_patterns() / rad_s
            result["decode_ms_p50"] = statistics.median(latencies) * 1e3
        else:
            traced_round, plain_round = (
                statistics.fmean(sum(w) for w in walls[flag]) for flag in (True, False)
            )
            result["per_layer"] = per_layer(
                tracer,
                (setup_start, setup_end),
                # Spans include the in-call sampling, which runs in
                # proportion to time, so it counts as wall time here.
                result["setup_s"] / (result["setup_wall_s"] + stage_clock.sampling_s),
                (setup_end, float("inf")),
                len(walls[True]),
                evals,
                scale,
            )
            result["per_layer"]["trace.round_overhead_pct"] = 100 * (
                traced_round / plain_round - 1
            )
            if wl.name == "onestep-subspace":
                result["per_layer"].update(geometric_reference(dc, dec, words, clock, basis, checks))
            else:
                result["per_layer"].update(
                    {"reference.check_evals_ratio": 0.0, "reference.wall_ratio": 0.0}
                )
            if args.trace_file is not None:
                args.trace_file.parent.mkdir(parents=True, exist_ok=True)
                args.trace_file.write_text(
                    json.dumps({"fields": ["id", "parent", "root", "name", "start", "end"],
                                "spans": tracer.spans}),
                    encoding="utf-8",
                )
    result.update(
        {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
