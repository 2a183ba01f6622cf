"""Expected outputs, computed without semiforge.

Count tables and f-values come from the published tables in
``tests/reference_tables.py`` (read, never written).  Gap-set facts
(closure, the ordinarization chain, depth) are recomputed here from
their definitions, so a CLI answer is never checked against the code
that produced it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re

REFERENCE_FILE = os.path.join("tests", "reference_tables.py")


def load_reference(root: str):
    spec = importlib.util.spec_from_file_location("reference_tables", os.path.join(root, REFERENCE_FILE))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# gap sets from the definitions

def not_closed_witness(gaps: list[int]):
    """A pair of positive non-gaps whose sum is a gap, or None when the
    complement of ``gaps`` is closed under addition."""
    gapset = set(gaps)
    top = max(gaps, default=0)
    for a in range(1, top + 1):
        if a in gapset:
            continue
        for b in range(a, top - a + 1):
            if b not in gapset and a + b in gapset:
                return a, b
    return None


def ordinarization_chain(gaps: list[int]) -> list[str]:
    """Canonical gap strings from ``gaps`` to the ordinary semigroup: each
    step makes the multiplicity a gap and the Frobenius number a member."""
    genus = len(gaps)
    current = set(gaps)
    chain = [_canon(current)]
    while current != set(range(1, genus + 1)):
        multiplicity = next(x for x in range(1, genus + 2) if x not in current)
        current = (current - {max(current)}) | {multiplicity}
        chain.append(_canon(current))
    return chain


def depth(gaps: list[int]) -> int:
    """Ordinarization number: the non-zero members not exceeding the genus."""
    gapset = set(gaps)
    return sum(1 for x in range(1, len(gaps) + 1) if x not in gapset)


def _canon(gaps) -> str:
    return ",".join(map(str, sorted(gaps)))


def parse_gaps(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")] if text else []


# ----------------------------------------------------------------------
# the CLI contract (README): exit codes and stdout formats


class Verdict:
    """Outcome of one CLI call: ``ok``; ``failed`` (no answer, or the wrong
    exit code); or ``wrong`` (an answer that contradicts the oracle)."""

    OK, FAILED, WRONG = "ok", "failed", "wrong"


def check_call(ref, kind: str, spec: dict, code: int, out: str, err: str, dot_text) -> tuple[str, str]:
    """Judge one call against the README contract; returns (verdict, reason)."""
    if "Traceback" in err:
        return Verdict.FAILED, f"traceback, exit {code}: {err.strip().splitlines()[-1]}"
    expected_code = spec["expect"]
    if kind == "verify" and code in (0, 1):
        return _check_verify(spec, code, out)
    if code != expected_code:
        return Verdict.FAILED, f"exit {code}, expected {expected_code}"
    if expected_code == 2:
        return (Verdict.FAILED, "a rejected call printed to stdout") if out else (Verdict.OK, "")
    if expected_code == 3:
        return _check_witness(spec["gaps"], out, err)
    if kind == "tree":
        if out:
            return Verdict.WRONG, "tree export printed to stdout"
        return _check_dot(ref, spec["genus"], dot_text)
    want = _expected_stdout(ref, kind, spec)
    if kind == "table" and spec["format"] == "json":
        try:
            ok = json.loads(out) == json.loads(want)
        except ValueError:
            ok = False
    else:
        ok = out == want
    return (Verdict.OK, "") if ok else (Verdict.WRONG, f"stdout differs from the oracle for {spec['argv']}")


def _expected_stdout(ref, kind: str, spec: dict) -> str:
    if kind == "transform":
        chain = ordinarization_chain(spec["gaps"])
        return "\n".join(chain) + f"\nr={len(chain) - 1}\n"
    if kind == "fseq":
        rows = [f"{w},{ref.F_SEQUENCE[w]}" for w in range(spec["omega_max"] + 1)]
        return "omega,f\n" + "\n".join(rows) + "\n"
    rows = [ref.COUNTS_BY_GENUS[g] for g in range(spec["gmax"] + 1)]
    if spec["format"] == "csv":
        cells = [f"{g},{r},{c}" for g, row in enumerate(rows) for r, c in enumerate(row)]
        return "g,r,count\n" + "\n".join(cells) + "\n"
    if spec["format"] == "json":
        body = [{"g": g, "counts": row} for g, row in enumerate(rows)]
        return json.dumps({"g_max": spec["gmax"], "rows": body})
    return "".join(f"g={g}: " + " ".join(map(str, row)) + "\n" for g, row in enumerate(rows))


def _check_verify(spec: dict, code: int, out: str) -> tuple[str, str]:
    try:
        report = json.loads(out)
    except ValueError:
        return Verdict.FAILED, f"verify exit {code} without a JSON report"
    if set(report) != {"check", "range", "passed", "counterexample"}:
        return Verdict.WRONG, f"verify report keys {sorted(report)}"
    if report["check"] != spec["check"] or report["passed"] is not True or code != 0:
        return Verdict.WRONG, f"verify {spec['check']} gmax {spec['gmax']}: {report}"
    return Verdict.OK, ""


_WITNESS = re.compile(r"witness (\d+) \+ (\d+) = (\d+) is a gap")


def _check_witness(gaps: list[int], out: str, err: str) -> tuple[str, str]:
    found = _WITNESS.search(err)
    if out or not found:
        return Verdict.WRONG, "exit 3 without a witness on stderr"
    a, b, total = map(int, found.groups())
    gapset = set(gaps)
    if a < 1 or b < 1 or a in gapset or b in gapset or a + b != total or total not in gapset:
        return Verdict.WRONG, f"bad witness {a} + {b} = {total} for gaps {gaps}"
    return Verdict.OK, ""


_DOT_NODE = re.compile(r'^  "([0-9,]*)" \[label="([0-9,]*)", depth=(\d+)\];$')
_DOT_EDGE = re.compile(r'^  "([0-9,]*)" -> "([0-9,]*)";$')


def _check_dot(ref, genus: int, text) -> tuple[str, str]:
    """Every node is a genus-g semigroup at its stated depth, each depth
    holds the published count, and every edge child ordinarizes to its
    parent in one step."""
    if text is None:
        return Verdict.WRONG, "no DOT file written"
    lines = text.splitlines()
    if not lines or lines[0] != f'digraph "Tg_{genus}" {{' or lines[-1] != "}":
        return Verdict.WRONG, "DOT header or footer"
    per_depth: dict[int, int] = {}
    labels = set()
    edges = []
    for line in lines[1:-1]:
        node, edge = _DOT_NODE.match(line), _DOT_EDGE.match(line)
        if node and node.group(1) == node.group(2):
            gaps = parse_gaps(node.group(1))
            d = int(node.group(3))
            if len(gaps) != genus or not_closed_witness(gaps) or depth(gaps) != d or node.group(1) in labels:
                return Verdict.WRONG, f"DOT node {node.group(1)!r}"
            labels.add(node.group(1))
            per_depth[d] = per_depth.get(d, 0) + 1
        elif edge:
            edges.append(edge.groups())
        else:
            return Verdict.WRONG, f"DOT line {line!r}"
    want = {d: c for d, c in enumerate(ref.COUNTS_BY_GENUS[genus]) if c}
    if per_depth != want or len(edges) != len(labels) - 1:
        return Verdict.WRONG, f"DOT depth profile {per_depth}"
    for parent, child in edges:
        if child not in labels or ordinarization_chain(parse_gaps(child))[1:2] != [parent]:
            return Verdict.WRONG, f"DOT edge {parent!r} -> {child!r}"
    return Verdict.OK, ""
