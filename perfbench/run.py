"""The semiforge benchmark.

    python3 perfbench/run.py --workload {table,fseq,verify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Workloads are described in
``perfbench/workloads.py``.  The run

1. compiles ``src/semiforge`` once, untimed;
2. times the set-up (interpreter start, ``import semiforge`` and one
   warm-up call) in several fresh processes and keeps the median;
3. starts a fresh worker process that repeats passes of the workload
   for S seconds, checks every result against the oracle, and times a
   reference slice between operations (``refclock.py``) so that the
   gated times are in reference units, largely free of the host's drift;
4. prints each metric with its unit, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from the traced run.  A
report with the run metadata is written under ``perfbench/out/``.  The
exit status is 1 when any answer contradicts the oracle, 2 when the
checkout lacks the package or the run cannot finish.  Failed operations
(an error or a wrong exit code, with no answer) are counted in
``failed`` and do not change the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import workloads
from clicalls import run_process

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
NEEDED = (os.path.join("src", "semiforge", "__init__.py"), os.path.join("tests", "reference_tables.py"))
SETUP_SAMPLES = 11
END_TO_END = ("setup_s", "wall_ref", "call_p50_ref", "call_p75_ref", "peak_rss_mb")
STEP_TIMEOUT = 10
WORKER_TIMEOUT = 140


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description="semiforge benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WARMUP), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        return fail(f"not a semiforge checkout, missing {', '.join(missing)}")
    os.makedirs(OUT, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    status, _out, err, _secs = run_process(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "semiforge")], env, ROOT, STEP_TIMEOUT
    )
    if status:
        return fail(f"src/semiforge does not compile: {err.strip()}")

    setup = []
    code = "import semiforge\n" + workloads.WARMUP[args.workload]
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        status, _out, err, secs = run_process([sys.executable, "-c", code], env, ROOT, STEP_TIMEOUT)
        if status:
            return fail(f"set-up failed: {err.strip()}")
        setup.append(secs)

    worker = [
        sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", OUT,
    ]
    started = time.perf_counter()
    status, out, err, _secs = run_process(worker, env, ROOT, WORKER_TIMEOUT)
    sys.stderr.write(err)
    if status or not out.strip():
        return fail(f"worker exited {status} after {time.perf_counter() - started:.1f}s")
    result = json.loads(out.strip().splitlines()[-1])

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for reason in result["failed"]:
        print(f"failed: {reason}", file=sys.stderr)
    for reason in result["wrong"]:
        print(f"WRONG: {reason}", file=sys.stderr)
    print(f"meta {json.dumps(result['meta'])}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    attempted, failed = result["attempted"], len(result["failed"])
    passes = len(result["passes"])
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted in {passes} passes)")

    reported = {k: v for k, v in metrics.items() if (k in END_TO_END) != bool(args.trace)}
    report = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    correct = not result["wrong"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
