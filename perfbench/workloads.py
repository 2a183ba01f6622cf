"""The four semiforge benchmark workloads: what each runs, why it exists,
and which per-layer metric should move which end-to-end metric on it.

This module only describes the workloads; ``worker.py`` runs them.  It
imports nothing from semiforge, so ``run.py`` can read it in a checkout
that lacks the package and refuse to run.

An *operation* is one result a user waits for: one table, one
f-sequence (as ``semiforge fseq`` prints it), one sweep of the five
verdicts, or one CLI call.  A *pass* is one fixed batch of operations:
one operation on the in-process workloads, forty CLI calls on ``cli``.
``wall_s`` is the mean pass time of a run; ``call_p50_ms`` and
``call_p75_ms`` are percentiles over every operation of the run.  The
gated metrics ``wall_ref``, ``call_p50_ref`` and ``call_p75_ref`` are
the same times in reference units, each pass divided by the reference
slice's time while it ran (``refclock.py``), because the host's speed
drifts between runs by more than any bound worth gating on.  The latencies of single harnesses and
of single small f-values spread too widely from run to run to gate on;
the traced run reports them per layer instead.

Layer metric -> end-to-end metric it should move, and where:

    tree.kernel_nodes_per_s            table wall_ref (no change on fseq)
    tree.pool_speedup, pool_cpu_util   table wall_ref
    tree.pool_fixed_ms                 cli call_p50_ref
    tree.enumerate_nodes_per_s         verify and fseq wall_ref
    tree.tg_bfs_nodes_per_s            verify wall_ref
    tree.tg_candidate_yield            verify wall_ref
    tree.dot_export_ms                 cli call_p50_ref
    closedsets.closed_sets_per_s       fseq wall_ref
    closedsets.pairing_roundtrips_per_s  verify wall_ref
    semigroup.parse_per_s              cli call_p50_ref
    semigroup.chain_steps_per_s        cli call_p50_ref
    analytics.<harness>_s              verify wall_ref
    cli.import_ms                      cli call_p50_ref, every setup_s
    cli.<command>_p50_ms               cli call_p50_ref
    <module>.self_s                    wall_ref of the workloads that use the module

Per-layer metrics come from the traced run: traced passes of the
workload plus the fixed-size probes in ``layers.py``; ``<module>.self_s``
sums that module's self time over both, and ``trace.overhead_s`` is the
median traced pass minus the median untraced pass.
"""

from __future__ import annotations

# table: one count_matrix(G) at the CLI default of one worker per CPU.
# Nearly all time is the tree kernel and the fork pool; closedsets and
# analytics stay idle.  Kernel and pool work (a balanced split, a
# vectorized level-by-level backend) shows here.
TABLE_GMAX = 27

# fseq: f_value(w) for w = 0..W at default workers, in seeded order.
# Nearly all time is closed-set enumeration; the tree kernel visits under
# 2 000 nodes, so a kernel-only change must read as no change here.  Both
# of the package's pools run, so folding them into one shows here.
FSEQ_WMAX = 13

# verify: the five harnesses at one gmax, in seeded order.  They walk the
# generator-removal tree through per-node Python visitors rather than the
# leaf-counting tally, and cover the fixed-genus BFS and the pairing.  A
# refactor that speeds the tally but slows the visitor path shows here,
# not on table.
VERIFY_GMAX = 21
VERIFY_CHECKS = ("conjecture", "bijection", "parity", "intervals", "trees")

# cli: a closed loop with one client sending `python -m semiforge` calls,
# one at a time.  Interpreter start-up, import cost and the pool's fork
# cost dominate, so a backend imported at module load or a pool forked
# for a tiny table wins on table and loses here.  Each pass has this
# fixed mix; the seed picks the inputs and the order.
CLI_PASS_MIX = {
    "transform": 16,  # 10 sampled gap strings, 3 not closed, 3 unparsable
    "table": 4,
    "fseq": 4,
    "tree": 4,
    "verify": 6,
    "bad_input": 6,  # the six malformed calls that exit 1 with a traceback
}

# Python run after ``import semiforge`` to finish lazy set-up; setup_s
# covers interpreter start, the import and this call.
WARMUP = {
    "table": "from semiforge import tree; tree.count_matrix(12, workers=0)",
    "fseq": "from semiforge import closedsets; closedsets.f_value(6, workers=0)",
    "verify": "from semiforge import analytics; analytics.check_conjecture(12)",
    "cli": "import contextlib, io; from semiforge import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()): cli.run(['transform', '1,2,3,6,7,11'])",
}
