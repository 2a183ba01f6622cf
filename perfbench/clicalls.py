"""The ``cli`` workload's call stream and the subprocess that runs each call."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

import oracle
import workloads

# Six malformed calls that the README says exit 2 and that exit 1 with a
# traceback at the time this benchmark was written.  They stay in every
# pass and count as failed calls until the CLI rejects them.
BAD_INPUTS = (
    (["table", "--gmax", "-1"], {}),
    (["verify", "--check", "conjecture", "--gmax", "0"], {}),
    (["verify", "--check", "bijection", "--gmax", "1"], {}),
    (["table", "--gmax", "5", "--workers", "-1"], {}),
    (["tree", "--genus", "-1", "--dot", "{out}/bad.dot"], {}),
    (["table", "--gmax", "5"], {"SEMIFORGE_WORKERS": "abc"}),
)

CALL_TIMEOUT = 30  # seconds; a call that takes longer is killed and counted as failed

_UNPARSABLE = ("{a},,{b}", "{a};{b}", "{b},{a}", "{a},{a}", "0,{a}", "{a},x{b}", "{a},{b},")


def run_process(argv: list[str], env: dict, cwd: str, timeout: float) -> tuple[int, str, str, float]:
    """Run one process to completion in its own session; on timeout the
    whole group is killed and reaped.  Returns (exit code, stdout,
    stderr, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {timeout}s"
    return proc.returncode, out, err, time.perf_counter() - start


class CallStream:
    """Seeded passes of CLI calls with the fixed mix ``workloads.CLI_PASS_MIX``."""

    def __init__(self, rng: random.Random, gap_pool: list[list[int]], out_dir: str):
        self.rng = rng
        self.gap_pool = gap_pool
        self.out_dir = out_dir

    def next_pass(self) -> list[tuple[str, dict]]:
        """The sizes alternate, so every pass holds the same number of calls
        of each size and the latency percentiles do not jump with the
        seed; the seed picks the inputs, formats and order."""
        rng = self.rng
        calls = [("transform", self._transform(gaps)) for gaps in rng.sample(self.gap_pool, 10)]
        calls += [("transform", self._not_closed()) for _ in range(3)]
        calls += [("transform", self._unparsable()) for _ in range(3)]
        for i in range(workloads.CLI_PASS_MIX["table"]):
            gmax, fmt = (10, 11)[i % 2], rng.choice(("csv", "json", "plain"))
            argv = ["table", "--gmax", str(gmax), "--format", fmt]
            calls.append(("table", {"argv": argv, "gmax": gmax, "format": fmt, "expect": 0}))
        for i in range(workloads.CLI_PASS_MIX["fseq"]):
            w = (5, 6)[i % 2]
            calls.append(("fseq", {"argv": ["fseq", "--omega-max", str(w)], "omega_max": w, "expect": 0}))
        for i in range(workloads.CLI_PASS_MIX["tree"]):
            g = (6, 7)[i % 2]
            dot = os.path.join(self.out_dir, f"tree{i}.dot")
            argv = ["tree", "--genus", str(g), "--dot", dot]
            calls.append(("tree", {"argv": argv, "genus": g, "dot": dot, "expect": 0}))
        first_check = rng.randrange(len(workloads.VERIFY_CHECKS))
        for i in range(workloads.CLI_PASS_MIX["verify"]):
            check = workloads.VERIFY_CHECKS[(first_check + i) % len(workloads.VERIFY_CHECKS)]
            gmax = (10, 11)[i % 2]
            argv = ["verify", "--check", check, "--gmax", str(gmax)]
            calls.append(("verify", {"argv": argv, "check": check, "gmax": gmax, "expect": 0}))
        for argv, env in BAD_INPUTS:
            argv = [a.replace("{out}", self.out_dir) for a in argv]
            calls.append(("bad_input", {"argv": argv, "env": env, "expect": 2}))
        assert len(calls) == sum(workloads.CLI_PASS_MIX.values())
        rng.shuffle(calls)
        return calls

    def _transform(self, gaps: list[int]) -> dict:
        return {"argv": ["transform", ",".join(map(str, gaps))], "gaps": gaps, "expect": 0}

    def _not_closed(self) -> dict:
        while True:
            genus = self.rng.randint(6, 14)
            gaps = sorted(self.rng.sample(range(1, 2 * genus), genus))
            if oracle.not_closed_witness(gaps):
                return {"argv": ["transform", ",".join(map(str, gaps))], "gaps": gaps, "expect": 3}

    def _unparsable(self) -> dict:
        a = self.rng.randint(1, 20)
        text = self.rng.choice(_UNPARSABLE).format(a=a, b=a + self.rng.randint(1, 9))
        return {"argv": ["transform", text], "expect": 2}


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "semiforge", *args]
