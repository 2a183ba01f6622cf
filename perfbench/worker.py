"""One measurement of one workload, in a fresh process.

``run.py`` starts this file; run it by hand only for debugging:

    PYTHONPATH=src python3 perfbench/worker.py --workload table --seed 1 \
        --seconds 10 --trace 0 --out perfbench/out

It repeats passes of the workload for ``--seconds`` and prints one JSON
object as its last stdout line: the operation counts, the metrics, the
run metadata and any failure reasons.  With ``--trace 1`` it alternates
untraced and traced passes, then runs the layer probes under the tracer,
and reports the per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from semiforge import analytics, closedsets, tree  # noqa: E402

import clicalls  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from refclock import NoClock, RefClock  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402


class Tally:
    """Operation outcomes and latencies of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []

    def call(self, label: str, steps, expected, clock) -> None:
        """Run the steps of one in-process operation, time them, and judge
        the list of their results.  The clock samples the host's speed
        between steps, outside their timing."""
        self.attempted += 1
        elapsed, results = 0.0, []
        for step in steps:
            clock.maybe_sample()
            start = time.perf_counter()
            try:
                results.append(step())
            except Exception:  # a failed operation is counted, not fatal
                self.latencies.append(elapsed + time.perf_counter() - start)
                self.failed.append(f"{label}: {traceback.format_exc().strip().splitlines()[-1]}")
                return
            elapsed += time.perf_counter() - start
        self.latencies.append(elapsed)
        if results != expected:
            self.wrong.append(f"{label}: got {results!r:.200}")


class Workload:
    """Builds the passes of one workload from the seed."""

    def __init__(self, name: str, seed: int, out_dir: str, env: dict):
        self.name = name
        self.rng = random.Random(seed)
        self.ref = oracle.load_reference(ROOT)
        self.out_dir = out_dir
        self.env = env
        if name == "cli":
            pool = []
            for g in range(8, 15):
                tree.enumerate_genus(g, lambda s: pool.append(list(s.gaps())))
            self.stream = clicalls.CallStream(self.rng, pool, out_dir)

    def run_pass(self, tally: Tally, clock, span) -> None:
        getattr(self, f"_pass_{self.name}")(tally, clock, span)

    def _pass_table(self, tally: Tally, clock, span) -> None:
        g = workloads.TABLE_GMAX
        want = [tuple(tuple(self.ref.COUNTS_BY_GENUS[i]) for i in range(g + 1))]
        tally.call(f"count_matrix({g})", [lambda: tree.count_matrix(g, workers=0).rows], want, clock)

    def _pass_fseq(self, tally: Tally, clock, span) -> None:
        order = list(range(workloads.FSEQ_WMAX + 1))
        self.rng.shuffle(order)
        tally.call(
            f"f_value(w) for w in {order}",
            [lambda w=w: closedsets.f_value(w, workers=0) for w in order],
            [self.ref.F_SEQUENCE[w] for w in order],
            clock,
        )

    def _pass_verify(self, tally: Tally, clock, span) -> None:
        order = list(workloads.VERIFY_CHECKS)
        self.rng.shuffle(order)
        gmax = workloads.VERIFY_GMAX
        harnesses = [getattr(analytics, layers.HARNESSES[check]) for check in order]
        tally.call(
            f"verify {order} at gmax {gmax}",
            [lambda harness=harness: _verdict(harness(gmax)) for harness in harnesses],
            [(check, True, None) for check in order],
            clock,
        )

    def _pass_cli(self, tally: Tally, clock, span) -> None:
        for kind, spec in self.stream.next_pass():
            clock.maybe_sample()
            tally.attempted += 1
            dot = spec.get("dot")
            if dot and os.path.exists(dot):
                os.remove(dot)
            with span(f"cli.subprocess.{kind}"):
                code, out, err, secs = clicalls.run_process(
                    clicalls.cli_argv(spec["argv"]), {**self.env, **spec.get("env", {})}, ROOT, clicalls.CALL_TIMEOUT
                )
            tally.latencies.append(secs)
            text = None
            if dot and os.path.exists(dot):
                with open(dot) as fh:
                    text = fh.read()
            verdict, why = oracle.check_call(self.ref, kind, spec, code, out, err, text)
            if verdict == oracle.Verdict.FAILED:
                tally.failed.append(f"{kind} {spec['argv']}: {why}")
            elif verdict == oracle.Verdict.WRONG:
                tally.wrong.append(f"{kind} {spec['argv']}: {why}")


def _verdict(report) -> tuple:
    return report.check_name, report.passed, report.counterexample


def _no_span(name: str):
    return contextlib.nullcontext()


def _timed_pass(workload: Workload, tally: Tally, clock=NoClock(), span=_no_span) -> float:
    """Wall seconds of one pass, less the time the clock spent sampling."""
    spent = clock.spent
    start = time.perf_counter()
    workload.run_pass(tally, clock, span)
    return time.perf_counter() - start - (clock.spent - spent)


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def _keep_going(deadline: float, walls: list[float]) -> bool:
    """Start another pass unless it would most likely end past the deadline
    by more than half a pass."""
    return not walls or time.perf_counter() + statistics.median(walls) / 2 < deadline


def measure(workload: Workload, seconds: float) -> tuple[Tally, dict, list[list[float]]]:
    """Times in seconds and in reference units (see ``refclock.py``): each
    pass, and each operation in it, is divided by the mean reference
    sample taken from the pass's start to its end.  ``wall`` is the mean
    over passes; the percentiles are over every operation of the run.
    The seconds are printed and kept in the report; the reference units
    are the gated metrics, because the host's speed drifts between runs
    by more than their bounds."""
    tally = Tally()
    clock = RefClock()
    clock.sample()
    passes: list[list[float]] = []
    in_ref: list[float] = []
    deadline = time.perf_counter() + seconds
    while _keep_going(deadline, [p[0] for p in passes]):
        first, first_sample = len(tally.latencies), len(clock.samples) - 1
        wall = _timed_pass(workload, tally, clock)
        clock.sample()
        ref = statistics.fmean(clock.samples[first_sample:])
        in_ref += [t / ref for t in tally.latencies[first:]]
        passes.append([wall, ref])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ms = [t * 1e3 for t in tally.latencies]
    return tally, {
        "wall_ref": (statistics.fmean(wall / ref for wall, ref in passes), "ref"),
        "call_p50_ref": (statistics.median(in_ref), "ref"),
        "call_p75_ref": (_p75(in_ref), "ref"),
        "peak_rss_mb": (max(own, kids) / 1024, "MB"),
        "wall_s": (statistics.fmean(wall for wall, _ in passes), "s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_p75_ms": (_p75(ms), "ms"),
        "ref_slice_ms": (statistics.median(clock.samples) * 1e3, "ms"),
        "ref_share": (clock.spent / seconds, "ratio"),
    }, passes


def measure_traced(workload: Workload, seconds: float, seed: int) -> tuple[Tally, dict, list[list[float]], Tracer]:
    tally = Tally()
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}

    def traced_pass() -> float:
        with tracer.installed(), tracer.span("bench.pass"):
            return _timed_pass(workload, tally, span=tracer.span)

    deadline = time.perf_counter() + seconds
    while _keep_going(deadline, walls[False] + walls[True]):
        order = (False, True) if len(walls[True]) % 2 == 0 else (True, False)
        for traced in order:
            walls[traced].append(traced_pass() if traced else _timed_pass(workload, tally))

    rng = random.Random(seed)
    workers = os.cpu_count() or 1
    metrics = {}
    with tracer.installed():
        metrics.update(layers.probe_tree(tracer, workload.ref, workers))
        metrics.update(layers.probe_closedsets(tracer, workload.ref))
        metrics.update(layers.probe_semigroup(tracer, rng))
        metrics.update(layers.probe_analytics(tracer))
        metrics.update(layers.probe_cli(tracer, workload.ref, ROOT, workload.env, workload.out_dir))
    self_times = tracer.self_times()
    for module in MODULES:
        metrics[f"{module}.self_s"] = (self_times.get(module, 0.0), "s")
    metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return tally, metrics, [[w] for w in walls[False] + walls[True]], tracer


def run_metadata() -> dict:
    src = os.path.join(ROOT, "src")
    lines = 0
    for dirpath, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    lines += sum(1 for _ in fh)
    has_numpy = importlib.util.find_spec("numpy") is not None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy") if has_numpy else None,
        "src_lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WARMUP), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    env = dict(os.environ)
    workload = Workload(args.workload, args.seed, args.out, env)
    exec(workloads.WARMUP[args.workload], {})
    if args.trace:
        tally, metrics, passes, tracer = measure_traced(workload, args.seconds, args.seed)
        spans_file = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_file, "w") as fh:
            json.dump([list(s) for s in tracer.spans], fh)
    else:
        tally, metrics, passes = measure(workload, args.seconds)
    print(
        json.dumps(
            {
                "attempted": tally.attempted,
                "passes": passes,
                "failed": tally.failed,
                "wrong": tally.wrong,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "meta": run_metadata(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
