"""Paths, subprocess helpers and small statistics shared by the workloads.

The benchmark runs from the root of a source checkout. It imports and
starts phishguard from `<root>/src` only, so an installed copy elsewhere
can never be measured by mistake.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
CONFIG = json.loads((BENCH_DIR / "config.json").read_text())

SYNTHETIC_NOTE = (
    "synthetic data: the 11,055-row UCI phishing CSV cannot be fetched "
    "offline, so a seeded ternary dataset of the same shape stands in"
)


class BenchError(Exception):
    """The benchmark cannot run or finish here: no program in the checkout,
    a server that does not start, a job that does not end."""


def require_program() -> None:
    """Fail unless the program's source tree is in the checkout, and make
    it importable ahead of anything installed."""
    if not (SRC / "phishguard" / "cli.py").is_file():
        raise BenchError(f"no phishguard source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import phishguard

    if not Path(phishguard.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"phishguard imported from {phishguard.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PHISHGUARD_DATA_DIR", None)
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "phishguard.cli", *args]


def bench_script_argv(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def traced_argv(spans_out: Path, target: list[str]) -> list[str]:
    """Wrap `[python, -m, phishguard.cli, ...]` or `[python, script, ...]`
    so that it runs under the span recorder."""
    if target[1:3] == ["-m", "phishguard.cli"]:
        inner = ["cli", *target[3:]]
    else:
        inner = ["script", *target[1:]]
    return [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_out), *inner]


def run_job(argv: list[str], log_prefix: Path, timeout: float = 170.0) -> dict:
    """Run one process to completion, as a user waiting for it would.

    Returns its wall time (including interpreter start), exit code, peak
    RSS from its own rusage, and its standard output.
    """
    out_path = log_prefix.with_suffix(".out")
    with out_path.open("wb") as out, log_prefix.with_suffix(".err").open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        deadline = started + timeout
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise BenchError(f"job timed out: {' '.join(argv)}")
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "stdout": out_path.read_text(),
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """Interrupt a server the way an operator would, then make sure it is gone."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_samples(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))
