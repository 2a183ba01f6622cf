"""Command-line front end.

Standard output carries only machine-parseable results (CSV, JSON, DOT,
or the transform chain); progress notes go to standard error.  Repeated
runs with identical arguments produce byte-identical output regardless
of the worker count.

Exit codes, all decided by ``run`` (the handlers only compute and print):
    0  success / verification passed
    1  verification found a counterexample
    2  bad flags, unparsable input, or input too large for the memory
    3  gap list whose complement is not additively closed
    4  tree export exceeds the node cap
    5  an output (the DOT file or standard output) could not be written
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import analytics, closedsets, tree
from .semigroup import NotClosed, Semigroup

WORKERS_ENV = "SEMIFORGE_WORKERS"

_VERIFY_CHECKS = {
    "conjecture": lambda gmax, workers: analytics.check_conjecture(gmax, workers=workers),
    "bijection": lambda gmax, workers: analytics.verify_bijection(gmax),
    "intervals": lambda gmax, workers: analytics.verify_interval_theorem(gmax, workers=workers),
    "parity": lambda gmax, workers: analytics.verify_parity_lemma(gmax, workers=workers),
    "trees": lambda gmax, workers: analytics.verify_tree_relations(gmax),
}


def _non_negative(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    # left None when absent; ``run`` then reads $SEMIFORGE_WORKERS
    parser.add_argument(
        "--workers",
        type=_non_negative,
        metavar="N",
        help=f"worker processes, 0 = one per usable CPU (default; ${WORKERS_ENV} overrides)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiforge",
        description="numerical semigroup trees, the ordinarization transform, and exact count tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="counts by genus and ordinarization number")
    p.add_argument("--gmax", type=_non_negative, required=True)
    p.add_argument("--format", choices=("csv", "json", "plain"), default="csv")
    _add_workers_flag(p)
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("transform", help="print the ordinarization chain of a gap list")
    p.add_argument("gaps", help='comma-separated gap list, e.g. "1,2,3,6,7,11"')
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("fseq", help="closed-set counting sequence")
    p.add_argument("--omega-max", type=_non_negative, required=True)
    _add_workers_flag(p)
    p.set_defaults(run=_cmd_fseq)

    p = sub.add_parser("verify", help="run one verification harness")
    p.add_argument("--check", choices=sorted(_VERIFY_CHECKS), required=True)
    p.add_argument("--gmax", type=_non_negative, required=True)
    _add_workers_flag(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("tree", help="DOT export of the fixed-genus tree")
    p.add_argument("--genus", type=_non_negative, required=True)
    p.add_argument("--dot", required=True, metavar="PATH")
    p.add_argument("--node-cap", type=_non_negative, default=100_000)
    p.set_defaults(run=_cmd_tree)
    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    started = time.monotonic()
    matrix = tree.count_matrix(args.gmax, workers=args.workers)
    print(f"counted genus <= {args.gmax} in {time.monotonic() - started:.1f}s", file=sys.stderr)
    if args.format == "csv":
        sys.stdout.write(matrix.to_csv())
    elif args.format == "json":
        print(json.dumps(matrix.to_json_obj()))
    else:
        for g, row in enumerate(matrix.rows):
            print(f"g={g}: " + " ".join(map(str, row)))
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    chain = Semigroup.from_gap_string(args.gaps).ordinarization_chain()
    for step in chain:
        print(step.gap_string())
    print(f"r={len(chain) - 1}")
    return 0


def _cmd_fseq(args: argparse.Namespace) -> int:
    print("omega,f")
    for w in range(args.omega_max + 1):
        print(f"{w},{closedsets.f_value(w, workers=args.workers)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = _VERIFY_CHECKS[args.check](args.gmax, args.workers)
    print(json.dumps(report.as_json_dict()))
    return 0 if report.passed else 1


def _cmd_tree(args: argparse.Namespace) -> int:
    text = tree.export_tree_dot(args.genus, node_cap=args.node_cap)
    try:
        with open(args.dot, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.dot}: {exc}", file=sys.stderr)
        return 5
    print(f"wrote {args.dot}", file=sys.stderr)
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code (see the module docstring)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if vars(args).get("workers", 0) is None:
            try:
                args.workers = _non_negative(os.environ.get(WORKERS_ENV) or "0")
            except argparse.ArgumentTypeError as exc:
                parser.error(f"${WORKERS_ENV}: {exc}")
    except SystemExit as exc:  # argparse has already printed the message
        return exc.code
    try:
        return args.run(args)
    except NotClosed as exc:
        a, b = exc.witness
        print(f"not a numerical semigroup: witness {a} + {b} = {a + b} is a gap", file=sys.stderr)
        return 3
    except tree.TooLarge as exc:
        print(exc, file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:
        print(str(exc) or "not enough memory for this input", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:  # as the ``signal`` docs advise: the last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 5
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
