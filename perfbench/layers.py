"""Per-layer probes for the traced run.

Each probe calls one module's public functions at a fixed small size
while the tracer is installed, checks the results against the oracle,
and derives its metric from the recorded spans.  The sizes are the same
on every workload, so a probe reads the same layer whichever workload
is traced; what differs between workloads is the traced pass itself.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import sys

from semiforge import analytics, cli, closedsets, tree
from semiforge.semigroup import Semigroup

import oracle
from clicalls import BAD_INPUTS, CALL_TIMEOUT, cli_argv, run_process
from tracing import Tracer

KERNEL_GMAX = 22      # count_matrix: about 0.3 s on one worker
POOL_FIXED_GMAX = 9   # the smallest table that still starts the pool
ENUMERATE_GENUS = 19
TG_BFS_GENUS = 18
YIELD_GENUS = 14
DOT_GENUS = 12
CLOSED_SETS_W = 9
PAIRING_W, PAIRING_G = 6, 40  # 3r >= g + 2 holds for r = g // 2 - w = 14
PARSE_GENERA = range(10, 17)
PARSE_SAMPLES = 2000
HARNESS_GMAX = 18
CLI_REPEATS = 5


class ProbeError(AssertionError):
    """A probe's result disagreed with the oracle."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ProbeError(what)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe_tree(tr: Tracer, ref, workers: int) -> dict:
    m = {}
    want = tuple(tuple(ref.COUNTS_BY_GENUS[g]) for g in range(KERNEL_GMAX + 1))
    nodes = sum(map(sum, want))
    mark = len(tr.spans)
    for _ in range(3):
        _expect(tree.count_matrix(KERNEL_GMAX, workers=1).rows == want, "count_matrix, 1 worker")
    one = statistics.median(tr.durations("tree.count_matrix", mark))
    m["tree.kernel_nodes_per_s"] = (nodes / one, "1/s")
    m["tree.nodes"] = (nodes, "count")

    walls, utils = [], []
    for _ in range(3):
        mark, cpu = len(tr.spans), _cpu_seconds()
        _expect(tree.count_matrix(KERNEL_GMAX, workers=workers).rows == want, "count_matrix, N workers")
        cpu = _cpu_seconds() - cpu
        walls.extend(tr.durations("tree.count_matrix", mark))
        utils.append(cpu / (walls[-1] * workers))
    many = statistics.median(walls)
    m["tree.pool_speedup"] = (one / many, "ratio")
    m["tree.pool_cpu_util"] = (statistics.median(utils), "ratio")

    fixed = {}
    for w in (1, workers):
        mark = len(tr.spans)
        for _ in range(5):
            tree.count_matrix(POOL_FIXED_GMAX, workers=w)
        fixed[w] = statistics.median(tr.durations("tree.count_matrix", mark))
    m["tree.pool_fixed_ms"] = ((fixed[workers] - fixed[1]) * 1e3, "ms")

    mark = len(tr.spans)
    seen = []
    count = tree.enumerate_genus(ENUMERATE_GENUS, lambda s: seen.append(s.genus))
    _expect(count == len(seen) == sum(ref.COUNTS_BY_GENUS[ENUMERATE_GENUS]), "enumerate_genus")
    m["tree.enumerate_nodes_per_s"] = (count / tr.durations("tree.enumerate_genus", mark)[0], "1/s")

    mark = len(tr.spans)
    row = tree.tg_bfs_row(TG_BFS_GENUS)
    _expect(row == [c for c in ref.COUNTS_BY_GENUS[TG_BFS_GENUS] if c], "tg_bfs_row")
    m["tree.tg_bfs_nodes_per_s"] = (sum(row) / tr.durations("tree.tg_bfs_row", mark)[0], "1/s")

    tried = kept = 0
    frontier = [Semigroup.ordinary(YIELD_GENUS)]
    while frontier:
        nxt = []
        for s in frontier:
            effective = [a for a in s.minimal_generators() if a > s.frobenius]
            tried += (s.multiplicity - 1) * len(effective)
            nxt.extend(tree.children_in_Tg(s))
        kept += len(nxt)
        frontier = nxt
    _expect(kept + 1 == sum(ref.COUNTS_BY_GENUS[YIELD_GENUS]), "children_in_Tg")
    m["tree.tg_candidate_yield"] = (kept / tried, "ratio")

    mark = len(tr.spans)
    for _ in range(3):
        text = tree.export_tree_dot(DOT_GENUS)
        _expect(text.count("depth=") == sum(ref.COUNTS_BY_GENUS[DOT_GENUS]), "export_tree_dot")
    m["tree.dot_export_ms"] = (statistics.median(tr.durations("tree.export_tree_dot", mark)) * 1e3, "ms")
    return m


def probe_closedsets(tr: Tracer, ref) -> dict:
    mark = len(tr.spans)
    total = sum(closedsets.count_closed_sets(om, CLOSED_SETS_W + 1) for om in _genus(CLOSED_SETS_W))
    _expect(total == ref.F_SEQUENCE[CLOSED_SETS_W], "count_closed_sets")
    rate = total / sum(tr.durations("closedsets.count_closed_sets", mark))

    pairs = []
    for om in _genus(PAIRING_W):
        pairs.extend(closedsets.PairDecomposition(om, b, PAIRING_G) for b in closedsets.closed_sets(om, PAIRING_W + 1))
    _expect(len(pairs) == ref.F_SEQUENCE[PAIRING_W], "closed_sets")
    mark = len(tr.spans)
    for p in pairs:
        back = closedsets.decompose(closedsets.build_from_pair(p))
        _expect(back.omega == p.omega and back.b.elements == p.b.elements, "pairing round trip")
    spent = sum(tr.durations("closedsets.build_from_pair", mark)) + sum(tr.durations("closedsets.decompose", mark))
    return {
        "closedsets.closed_sets_per_s": (rate, "1/s"),
        "closedsets.pairing_roundtrips_per_s": (len(pairs) / spent, "1/s"),
    }


def _genus(g: int) -> list[Semigroup]:
    out: list[Semigroup] = []
    tree.enumerate_genus(g, out.append)
    return out


def probe_semigroup(tr: Tracer, rng) -> dict:
    pool = [s.gap_string() for g in PARSE_GENERA for s in _genus(g)]
    texts = [rng.choice(pool) for _ in range(PARSE_SAMPLES)]
    mark = len(tr.spans)
    parsed = [Semigroup.from_gap_string(t) for t in texts]
    parse_s = sum(tr.durations("semigroup.Semigroup.from_gap_string", mark))
    _expect([s.gap_string() for s in parsed] == texts, "from_gap_string")
    mark = len(tr.spans)
    steps = sum(len(s.ordinarization_chain()) - 1 for s in parsed)
    chain_s = sum(tr.durations("semigroup.Semigroup.ordinarization_chain", mark))
    _expect(steps == sum(oracle.depth(oracle.parse_gaps(t)) for t in texts), "ordinarization_chain")
    return {
        "semigroup.parse_per_s": (len(texts) / parse_s, "1/s"),
        "semigroup.chain_steps_per_s": (steps / chain_s, "1/s"),
    }


# verify check name -> harness function in semiforge.analytics
HARNESSES = {
    "conjecture": "check_conjecture",
    "bijection": "verify_bijection",
    "parity": "verify_parity_lemma",
    "intervals": "verify_interval_theorem",
    "trees": "verify_tree_relations",
}


def probe_analytics(tr: Tracer) -> dict:
    m = {}
    for name, function in HARNESSES.items():
        mark = len(tr.spans)
        report = getattr(analytics, function)(HARNESS_GMAX)
        _expect(report.passed and report.check_name == name, f"verify {name}")
        m[f"analytics.{name}_s"] = (tr.durations(f"analytics.{function}", mark)[0], "s")
    return m


def probe_cli(tr: Tracer, ref, root: str, env: dict, out_dir: str) -> dict:
    """Subprocess latencies from outside, plus in-process ``cli.run`` calls
    so the cli module's own time appears in the spans."""

    def median_ms(argv: list[str], extra_env=None, check=None) -> float:
        times = []
        for _ in range(CLI_REPEATS):
            with tr.span("cli.subprocess"):
                code, out, err, secs = run_process(argv, {**env, **(extra_env or {})}, root, CALL_TIMEOUT)
            if check is not None:
                check(code, out, err)
            times.append(secs)
        return statistics.median(times) * 1e3

    def ok(kind, spec):
        def judge(code, out, err):
            text = None
            if "dot" in spec and os.path.exists(spec["dot"]):
                with open(spec["dot"]) as fh:
                    text = fh.read()
                os.remove(spec["dot"])
            verdict, why = oracle.check_call(ref, kind, spec, code, out, err, text)
            _expect(verdict == oracle.Verdict.OK, f"cli {spec['argv']}: {why}")
        return judge

    interp = median_ms([sys.executable, "-c", "pass"])
    imported = median_ms([sys.executable, "-c", "import semiforge.cli"])
    m = {"cli.interp_ms": (interp, "ms"), "cli.import_ms": (imported - interp, "ms")}
    dot = os.path.join(out_dir, "probe.dot")
    calls = {
        "transform": {"argv": ["transform", "1,2,3,6,7,11"], "gaps": [1, 2, 3, 6, 7, 11], "expect": 0},
        "table": {"argv": ["table", "--gmax", "10"], "gmax": 10, "format": "csv", "expect": 0},
        "fseq": {"argv": ["fseq", "--omega-max", "5"], "omega_max": 5, "expect": 0},
        "tree": {"argv": ["tree", "--genus", "6", "--dot", dot], "genus": 6, "dot": dot, "expect": 0},
        "verify": {"argv": ["verify", "--check", "parity", "--gmax", "10"], "check": "parity", "gmax": 10, "expect": 0},
    }
    for kind, spec in calls.items():
        m[f"cli.{kind}_p50_ms"] = (median_ms(cli_argv(spec["argv"]), check=ok(kind, spec)), "ms")
    # the malformed calls fail today; their latency is timed all the same
    bad_argv, bad_env = BAD_INPUTS[0]
    m["cli.bad_input_p50_ms"] = (median_ms(cli_argv(bad_argv), bad_env), "ms")

    for argv in (["transform", "1,2,3,6,7,11"], ["table", "--gmax", "10", "--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _expect(cli.run(argv) == 0, f"cli.run {argv}")
    return m
