#!/usr/bin/env python3
"""pairpath benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh interpreter, checks every output, prints a
table of metrics with units and sample counts, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a run with spans (written to .bench_out/spans-NAME-seedN.jsonl) plus
the tracing overhead.  Times and rates are reported at a nominal machine
speed (see measure.Speed); the table also shows them as measured.  Workloads
and metrics are described in README.md next to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("route-uniform", "route-adversarial", "cli-m16")


def _run(args, workdir: str, cpus: set[int]):
    import workloads
    from measure import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "route-uniform":
        result = workloads.route_uniform(args.seed, args.seconds, tracer)
    elif args.workload == "route-adversarial":
        result = workloads.route_adversarial(args.seed, args.seconds, tracer)
    else:
        result = workloads.cli_m16(args.seed, args.seconds, tracer,
                                   str(ROOT), workdir, cpus)
    if tracer is not None:
        result.spans_to_layers(tracer)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(spans))
        result.info.append(f"{len(tracer.spans)} spans written to "
                           f"{spans.relative_to(ROOT)}")
    return result


def _end_to_end(result) -> tuple[dict[str, float], list[str]]:
    from measure import median, percentile

    out = result.outcomes
    p50 = percentile(out.latencies, 0.50)
    p95 = percentile(out.latencies, 0.95)
    values = {
        "setup_s": median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
        "ops_per_s": len(out.latencies) / result.loop_s,
        "op_ms_p50": p50.value * 1000,
        "op_ms_p95": p95.value * 1000,
        "ok_ratio": (out.attempted - out.failed) / out.attempted,
    }
    notes = [
        f"setup_s: median of {len(result.setup_s)} set-ups",
        f"op_ms_p50 / op_ms_p95: over {p95.samples} successful operations, "
        f"{p95.beyond} beyond p95",
        f"ops_per_s: {len(out.latencies)} ok in {result.loop_s:.2f} s",
    ]
    return values, notes


def _layer_notes(result, op_p50_ms: float) -> list[str]:
    layers = result.layers
    notes = []
    if op_p50_ms and layers["routing.phase_two_s"]:
        share = (layers["routing.phase_two_s"]
                 + layers["verify.verify_plan_s"]) * 1000 / op_p50_ms
        notes.append(f"routing.phase_two + verify.verify_plan = "
                     f"{share:.0%} of the untraced op p50")
    if layers["cli.route_s"]:
        notes.append(f"graph.distance_matrix = "
                     f"{layers['graph.distance_matrix_s'] / layers['cli.route_s']:.0%}"
                     f" of cli.route_s")
    if op_p50_ms:
        notes.append(f"tracing overhead {layers['trace.overhead_ms']:.3f} ms "
                     f"per operation (median of {len(result.overhead_s)} "
                     f"traced/untraced pairs), "
                     f"{layers['trace.overhead_ms'] / op_p50_ms:.1%} of the "
                     f"untraced op p50")
    return notes


def _at_nominal_speed(value: float, unit: str, factor: float) -> float:
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "pairpath" / "__init__.py").is_file():
        print(f"error: no pairpath sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One CPU for the benchmark process: in-process work and the speed
    # reference then run on the same CPU.  CLI children get all of `cpus`.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    from measure import REF_NOMINAL_S
    from workloads import END_TO_END, PER_LAYER

    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=outdir)
    try:
        result = _run(args, workdir, cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = result.outcomes
    if not out.latencies:
        print(f"error: no operation succeeded ({out.operations} attempted): "
              f"{out.notes}", file=sys.stderr)
        return 1
    e2e, notes = _end_to_end(result)
    if args.trace:
        values, units = result.layers, PER_LAYER
        notes = _layer_notes(result, e2e["op_ms_p50"])
    else:
        values, units = e2e, END_TO_END
    factor = result.speed.factor()
    # cli.import_s is the set-up of cli-m16
    factors = dict.fromkeys(("setup_s", "cli.import_s"),
                            result.setup_speed.factor())
    reported = {name: _at_nominal_speed(values[name], unit,
                                        factors.get(name, factor))
                for name, unit in units.items()}
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"  reference loop: median {1000 * REF_NOMINAL_S / factor:.4f} ms "
          f"over {len(result.speed.samples)} samples; times scaled by "
          f"{factor:.4f} to a {1000 * REF_NOMINAL_S:g} ms reference "
          f"(as measured on the right); setup_s by "
          f"{factors['setup_s']:.4f}, from {len(result.setup_speed.samples)} "
          f"samples between set-ups")
    for line in result.info + notes:
        print(f"  {line}")
    print(f"  inputs attempted {out.attempted}  failed {out.failed}; "
          f"operations {out.operations}: ok {len(out.latencies)}, "
          f"refused {out.refused}, wrong {out.wrong}; correct {out.correct}")
    for note in out.notes:
        print(f"  WRONG: {note}")
    for name, unit in units.items():
        print(f"  {name:34s} {reported[name]:>14.6g} {unit:6s}"
              f" {values[name]:>14.6g}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
