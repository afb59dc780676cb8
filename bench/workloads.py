"""The three benchmark workloads.

Each workload is a single-client closed loop: the next operation starts only
after the previous one has returned.  Inputs are built before the loop (the
set-up, repeated and reported as a median) and derived from the workload seed
through SplitMix64.

With a Tracer, a workload also runs every operation a second time with
spans: the traced copy and the plain copy of the same input run back to back,
so their latency difference is the tracing overhead.  Spans are recorded
around the calls the benchmark makes into each module, and around calls the
program makes internally by swapping module attributes for the duration of a
traced operation (see measure.Patch).
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from pairpath import blowup, formats, graph, pairability, routing, verify
from pairpath.rng import SplitMix64

import pairings
from measure import (SAMPLE_EVERY_S, Outcomes, Patch, Speed, Tracer, median,
                     run_child)

SETUP_REPS = 10  # set-ups per run; setup_s is their median
UNIFORM_M = 16
UNIFORM_POOL = 128  # distinct uniform pairings, cycled by the loop
ADVERSARIAL_MS = range(4, 13)
ADVERSARIAL_VARIANTS = 3  # seeded variants per (m, kind)
CLI_M = 16
CLI_COMMANDS = ("generate", "route", "verify", "stats", "screen")
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p95": "ms", "ok_ratio": "ratio",
}

PER_LAYER = {
    "blowup.build_s": "s",
    "blowup.free_common_neighbors_s": "s",
    "blowup.min_common_candidates": "ratio",
    "graph.make_graph_s": "s",
    "graph.distance_matrix_s": "s",
    "routing.canonical_labeling_s": "s",
    "routing.phase_one_s": "s",
    "routing.phase_two_s": "s",
    "routing.assign_candidates_s": "s",
    "routing.tasks": "count",
    "routing.max_tasks_per_class": "count",
    "routing.phase_one_complete": "count",
    "routing.max_route_length": "count",
    "routing.edges_used": "count",
    "verify.verify_plan_s": "s",
    "verify.edges_checked": "count",
    "formats.dumps_graph_s": "s",
    "formats.loads_graph_s": "s",
    "formats.dumps_plan_s": "s",
    "formats.loads_plan_s": "s",
    "formats.graph_bytes": "bytes",
    "formats.plan_bytes": "bytes",
    "pairability.screen_s": "s",
    "pairability.roots_checked": "count",
    "pairability.roots_checked_ratio": "ratio",
    "cli.import_s": "s",
    "cli.generate_s": "s",
    "cli.route_s": "s",
    "cli.verify_s": "s",
    "cli.stats_s": "s",
    "cli.screen_s": "s",
    "rng.random_perfect_pairing_s": "s",
    "trace.overhead_ms": "ms",
}

# per-layer metrics read from span durations (median over operations)
_SPAN_METRICS = {
    name[:-2]: name for name, unit in PER_LAYER.items()
    if unit == "s" and not name.startswith("cli.")
}


@dataclass
class Result:
    outcomes: Outcomes = field(default_factory=Outcomes)
    speed: Speed = field(default_factory=Speed)
    # sampled between set-ups only: the machine's speed can differ between
    # the first seconds of a run and the rest of it
    setup_speed: Speed = field(default_factory=Speed)
    setup_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0  # wall time of the loop, less speed sampling
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PER_LAYER, 0.0))
    overhead_s: list[float] = field(default_factory=list)
    info: list[str] = field(default_factory=list)

    def end_loop(self, start: float, spent_before: float) -> None:
        self.loop_s = (time.perf_counter() - start
                       - (self.speed.spent - spent_before))

    def record_own_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    def spans_to_layers(self, tracer: Tracer) -> None:
        for span, metric in _SPAN_METRICS.items():
            self.layers[metric] = median(tracer.per_op(span))
        self.layers["trace.overhead_ms"] = median(self.overhead_s) * 1000


def _timed_setup(result: Result, build: Callable, tracer: Tracer | None):
    """Run the set-up SETUP_REPS times, each from scratch; keep the last."""
    made = None
    with _internal_patches(tracer) if tracer else contextlib.nullcontext():
        for rep in range(SETUP_REPS):
            made = None  # release the previous copy before rebuilding
            if tracer is not None:
                tracer.op = f"setup-{rep}"
            start = time.perf_counter()
            made = build()
            result.setup_s.append(time.perf_counter() - start)
            result.setup_speed.sample_for(result.setup_s[-1])
    return made


def _internal_patches(tracer: Tracer, probe: "_RouteProbe | None" = None
                      ) -> Patch:
    """Spans around functions the program calls internally."""
    make_graph = tracer.wrap("graph.make_graph", graph.make_graph)
    distance_matrix = tracer.wrap("graph.distance_matrix",
                                  graph.distance_matrix)
    fcn = tracer.wrap("blowup.free_common_neighbors",
                      routing.free_common_neighbors,
                      probe.candidates if probe else None)
    return Patch([
        (blowup, "make_graph", make_graph),
        (graph, "make_graph", make_graph),
        (formats, "make_graph", make_graph),
        (graph, "distance_matrix", distance_matrix),
        (pairability, "distance_matrix", distance_matrix),
        (routing, "free_common_neighbors", fcn),
        (routing, "assign_candidates",
         tracer.wrap("routing.assign_candidates", routing.assign_candidates)),
    ])


# --- route-uniform and route-adversarial ---------------------------------

class _RouteProbe:
    """Per-pairing router counts gathered during traced operations."""

    def __init__(self) -> None:
        self.floor = 1
        self.min_over_floor = float("inf")
        self.tasks: list[int] = []
        self.complete: list[int] = []
        self.max_per_class = 0
        self.max_route_length = 0
        self.edges_used: list[int] = []
        self.edges_checked: list[int] = []

    def candidates(self, cands: list[int]) -> None:
        self.min_over_floor = min(self.min_over_floor,
                                  len(cands) / self.floor)

    def phase_one(self, b: blowup.BlownCycle,
                  first: routing.PhaseOneResult) -> None:
        per_class: dict[int, int] = {}
        for e in first.entries:
            if e.task is not None:
                cls = b.class_of(e.y)
                per_class[cls] = per_class.get(cls, 0) + 1
        self.tasks.append(sum(per_class.values()))
        self.complete.append(sum(e.complete for e in first.entries))
        self.max_per_class = max(self.max_per_class,
                                 max(per_class.values(), default=0))

    def plan(self, plan: routing.RoutePlan) -> None:
        self.max_route_length = max(self.max_route_length,
                                    plan.max_route_length)
        self.edges_used.append(plan.edges_used)
        self.edges_checked.append(sum(len(r) for r in plan.routes))

    def to_layers(self, layers: dict[str, float]) -> None:
        if self.tasks:
            layers["blowup.min_common_candidates"] = self.min_over_floor
        layers["routing.tasks"] = median(self.tasks)
        layers["routing.phase_one_complete"] = median(self.complete)
        layers["routing.max_tasks_per_class"] = self.max_per_class
        layers["routing.max_route_length"] = self.max_route_length
        layers["routing.edges_used"] = median(self.edges_used)
        layers["verify.edges_checked"] = median(self.edges_checked)


def _route_op(b, p, out: Outcomes, key: int, label: str,
              failures: dict[str, int]) -> float | None:
    """One plain route+verify of input `key`; returns its latency when it
    succeeded."""
    start = time.perf_counter()
    try:
        plan = routing.route(b, p)
        report = verify.verify_plan(b.graph, p, plan)
    except routing.RoutingError:
        out.refuse(key)
        failures[label] = failures.get(label, 0) + 1
        return None
    took = time.perf_counter() - start
    if not report.ok:
        out.reject(f"{label}: verify_plan rejected the plan "
                   f"({report.violations[0].kind})", key)
        return None
    out.ok(took, key)
    return took


def _traced_route_op(tracer: Tracer, patch: Patch, probe: _RouteProbe,
                     b, p) -> float | None:
    """Route+verify through the public stages `route` is made of."""
    probe.floor = 2 * b.m + 3
    first = plan = report = None
    start = time.perf_counter()
    root = tracer.start("op")
    try:
        with patch:
            oriented = tracer.call("routing.canonical_labeling",
                                   routing.canonical_labeling, b, p)
            first = tracer.call("routing.phase_one", routing.phase_one,
                                b, oriented)
            plan = tracer.call("routing.phase_two", routing.phase_two,
                               b, first)
            report = tracer.call("verify.verify_plan", verify.verify_plan,
                                 b.graph, p, plan)
    except routing.RoutingError:
        pass
    finally:
        tracer.stop(root)
    took = time.perf_counter() - start
    if first is not None:
        probe.phase_one(b, first)
    if report is None:
        return None
    probe.plan(plan)
    return took if report.ok else None


def _route_loop(inputs, seconds: float, result: Result,
                tracer: Tracer | None) -> None:
    """inputs: list of (label, blown cycle, pairing), cycled in order."""
    out = result.outcomes
    failures: dict[str, int] = {}
    probe = _RouteProbe()
    patch = _internal_patches(tracer, probe) if tracer else None
    speed, spent = result.speed, result.speed.spent
    start = next_sample = time.perf_counter()
    k = 0
    while True:
        key = k % len(inputs)
        label, b, p = inputs[key]
        if tracer is not None:
            tracer.op = f"op-{k}"
            traced = _traced_route_op(tracer, patch, probe, b, p)
        plain = _route_op(b, p, out, key, label, failures)
        if tracer is not None and traced is not None and plain is not None:
            result.overhead_s.append(traced - plain)
        k += 1
        now = time.perf_counter()
        if now >= next_sample:
            speed.sample()
            next_sample = now + SAMPLE_EVERY_S
        if now - start >= seconds:
            break
    result.end_loop(start, spent)
    if failures:
        result.info.append("RoutingError operations by kind and m: "
                           + ", ".join(f"{label} x{count}"
                                       for label, count in failures.items()))
    if tracer is not None:
        probe.to_layers(result.layers)


def route_uniform(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    result = Result()
    stream = SplitMix64(seed)
    seeds = [stream.next_u64() for _ in range(UNIFORM_POOL)]
    rpp = (tracer.wrap("rng.random_perfect_pairing",
                       routing.random_perfect_pairing)
           if tracer else routing.random_perfect_pairing)
    build = (tracer.wrap("blowup.build", blowup.build)
             if tracer else blowup.build)

    def setup():
        b = build(UNIFORM_M)
        return b, [rpp(b.n, s) for s in seeds]

    b, pool = _timed_setup(result, setup, tracer)
    inputs = [(f"uniform m={b.m}", b, p) for p in pool]
    result.info.append(f"m {b.m}, n {b.n}, edges {b.graph.edge_count}, "
                       f"{len(pool)} distinct pairings")
    _route_loop(inputs, seconds, result, tracer)
    result.record_own_rss()
    return result


def route_adversarial(seed: int, seconds: float,
                      tracer: Tracer | None) -> Result:
    result = Result()
    build = (tracer.wrap("blowup.build", blowup.build)
             if tracer else blowup.build)

    def setup():
        rng = SplitMix64(seed)
        graphs = {m: build(m) for m in ADVERSARIAL_MS}
        inputs, halls = [], []
        for _ in range(ADVERSARIAL_VARIANTS):
            for m, b in graphs.items():
                for kind in pairings.KINDS:
                    made = pairings.structured(b, kind, rng)
                    if made is None:
                        continue
                    p, hall = made
                    inputs.append((f"{kind} m={m}", b, p))
                    if hall is not None:
                        halls.append((len(inputs) - 1, b, p, *hall))
        return inputs, halls

    inputs, halls = _timed_setup(result, setup, tracer)
    for key, b, p, c, blocked in halls:  # outside the timed set-up
        try:
            pairings.check_hall(b, p, c, blocked)
        except pairings.HallCheckError as exc:
            result.outcomes.reject(f"Hall pairing at m={b.m}: {exc}", key)
    result.info.append(
        f"m {ADVERSARIAL_MS.start}..{ADVERSARIAL_MS.stop - 1}, "
        f"{len(inputs)} pairings of kinds {', '.join(pairings.KINDS)}")
    _route_loop(inputs, seconds, result, tracer)
    result.record_own_rss()
    return result


# --- cli-m16 ---------------------------------------------------------------

def _cli_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _cli_argv(cmd: str, files: dict[str, str], seed: int) -> list[str]:
    family = ["--family", "blown-cycle", "--m", str(CLI_M)]
    args = {
        "generate": family + ["-o", files["graph"]],
        "route": ["--m", str(CLI_M), "--random", str(seed),
                  "-o", files["plan"]],
        "verify": ["--plan", files["plan"], "--graph", files["graph"]],
        "stats": family,
        "screen": family,
    }[cmd]
    return [sys.executable, "-m", "pairpath", cmd] + args


def _check_cli(cmd: str, child, files: dict[str, str]) -> str | None:
    """None when the command's output is right, else what is wrong."""
    if child.exit_code != 0:
        return f"{cmd} exited {child.exit_code}: {child.stderr[-200:]}"
    m, q = CLI_M, 4 * CLI_M + 3
    n = 2 * m * q
    if cmd == "generate":
        with open(files["graph"]) as fh:
            doc = json.load(fh)
        if (doc.get("n"), len(doc.get("edges", ())),
                doc.get("blown_cycle")) != (n, 2 * m * q * q,
                                            {"m": m, "q": q}):
            return "generate wrote the wrong graph"
    elif cmd == "route":
        if f"n {n}\ndiameter {m}\n" not in child.stderr:
            return f"route summary wrong: {child.stderr[:120]!r}"
    elif cmd == "verify":
        if json.loads(child.stdout).get("ok") is not True:
            return "verify did not accept the routed plan"
    elif cmd == "stats":
        want = (f"n {n}\nedges {2 * m * q * q}\nmax_degree {2 * q}\n"
                f"diameter {m}\n")
        if not child.stdout.startswith(want):
            return f"stats printed {child.stdout[:120]!r}"
    elif cmd == "screen":
        if json.loads(child.stdout).get("verdict") != \
                pairability.CANNOT_RULE_OUT:
            return "screen did not return cannot-rule-out"
    return None


def _cli_replica(cmd: str, files: dict[str, str], seed: int,
                 call: Callable, seen: dict[str, int]) -> None:
    """The public calls a CLI command makes, in its order, on its inputs.
    `call(span_name, fn, *args)` runs each one (traced or not); sizes and
    counts of what the calls produce go into `seen`."""
    if cmd == "generate":
        b = call("blowup.build", blowup.build, CLI_M)
        text = call("formats.dumps_graph", formats.dumps_graph, b.graph,
                    "json", {"blown_cycle": {"m": b.m, "q": b.q}})
        with open(files["graph"], "w") as fh:
            fh.write(text)
        seen["formats.graph_bytes"] = len(text)
    elif cmd == "route":
        b = call("blowup.build", blowup.build, CLI_M)
        p = call("rng.random_perfect_pairing",
                 routing.random_perfect_pairing, b.n, seed)
        plan = call("routing.route", routing.route, b, p)
        text = call("formats.dumps_plan", formats.dumps_plan, plan,
                    {"m": b.m, "seed": seed})
        with open(files["plan"], "w") as fh:
            fh.write(text)
        seen["formats.plan_bytes"] = len(text)
        call("graph.diameter", graph.diameter, b.graph)
    elif cmd == "verify":
        with open(files["plan"]) as fh:
            plan, _ = call("formats.loads_plan", formats.loads_plan, fh.read())
        with open(files["graph"]) as fh:
            g, _ = call("formats.loads_graph", formats.loads_graph, fh.read(),
                        "json")
        p = routing.make_pairing((r.x, r.y) for r in plan.routes)
        call("verify.verify_plan", verify.verify_plan, g, p, plan)
        seen["verify.edges_checked"] = sum(len(r) for r in plan.routes)
    elif cmd == "stats":
        b = call("blowup.build", blowup.build, CLI_M)
        call("graph.diameter", graph.diameter, b.graph)
    elif cmd == "screen":
        b = call("blowup.build", blowup.build, CLI_M)
        report = call("pairability.screen", pairability.screen, b.graph)
        seen["pairability.roots_checked"] = len(report.roots_checked)
        seen["pairability.roots_checked_ratio"] = \
            len(report.roots_checked) / b.n


def _plain_call(_name, fn, *args):
    return fn(*args)


def _import_probe(env, workdir, cpus) -> float:
    child = run_child([sys.executable, "-c", "import pairpath.cli"], env,
                      workdir, CHILD_TIMEOUT_S, cpus)
    if child.exit_code != 0:
        raise RuntimeError(f"cannot import pairpath.cli: {child.stderr}")
    return child.seconds


def cli_m16(seed: int, seconds: float, tracer: Tracer | None,
            root: str, workdir: str, cpus: set[int]) -> Result:
    """Commands run on `cpus`, every CPU the benchmark was given, as they
    would for a shell user; only this process is pinned to one."""
    result = Result()
    env = _cli_env(root)
    files = {"graph": os.path.join(workdir, "graph.json"),
             "plan": os.path.join(workdir, "plan.json")}
    # set-up: interpreter start plus package import, which every command pays
    _timed_setup(result, lambda: _import_probe(env, workdir, cpus), None)
    result.layers["cli.import_s"] = median(result.setup_s)
    stream = SplitMix64(seed)
    out = result.outcomes
    per_cmd: dict[str, list[float]] = {cmd: [] for cmd in CLI_COMMANDS}
    rss: dict[str, list[float]] = {cmd: [] for cmd in CLI_COMMANDS}
    patch = _internal_patches(tracer) if tracer else None
    spent = result.speed.spent
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        route_seed = stream.next_u64() >> 33  # fits the CLI's int flag
        pass_s, overhead_s, wrong = 0.0, 0.0, []
        for cmd in CLI_COMMANDS:
            child = run_child(_cli_argv(cmd, files, route_seed), env,
                              workdir, CHILD_TIMEOUT_S, cpus)
            rss[cmd].append(child.peak_rss_mb)
            problem = _check_cli(cmd, child, files)
            if problem:
                wrong.append(problem)
            per_cmd[cmd].append(child.seconds)
            pass_s += child.seconds
            result.speed.sample_for(child.seconds)
            if tracer is not None:
                tracer.op = f"{cmd}-{k}"
                t0 = time.perf_counter()
                with patch:
                    _cli_replica(cmd, files, route_seed, tracer.call,
                                 result.layers)
                traced = time.perf_counter() - t0
                t0 = time.perf_counter()
                _cli_replica(cmd, files, route_seed, _plain_call, {})
                overhead_s += traced - (time.perf_counter() - t0)
        if tracer is not None:
            result.overhead_s.append(overhead_s)
        if wrong:
            out.reject("; ".join(wrong), k)
        else:
            out.ok(pass_s, k)
        k += 1
    result.end_loop(start, spent)
    # the largest command, by its median over passes: a child now and then
    # peaks a few MB higher, which one outlier pass should not report
    result.peak_rss_mb = max(median(v) for v in rss.values())
    result.info.append(f"{k} passes of {len(CLI_COMMANDS)} commands at "
                       f"m={CLI_M}; median s: " + ", ".join(
                           f"{cmd} {median(v):.3f}"
                           for cmd, v in per_cmd.items()))
    for cmd, times in per_cmd.items():
        result.layers[f"cli.{cmd}_s"] = median(times)
    return result
