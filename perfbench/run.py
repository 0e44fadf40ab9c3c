"""phishguard benchmark: one command, three workloads, from a seed.

    python3 perfbench/run.py --workload serve-linear --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it runs phishguard from
`src/` there. `--trace 0` measures end to end with nothing instrumented;
`--trace 1` runs the same inputs under the span recorder and reports the
per-layer table instead. The last line of standard output is the result
as one JSON object; the lines before it give every metric of the
workload with its unit and sample count, the run metadata and any
failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import CONFIG, ROOT, SRC, SYNTHETIC_NOTE, WORK_ROOT, BenchError, require_program  # noqa: E402

WORKLOADS = tuple(CONFIG["workloads"])


def _commit() -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or lines[0] != str(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs: time the hypervisor gave to
    other guests counts as steal."""
    fields = [int(v) for v in open("/proc/stat").readline().split()[1:]]
    return fields[7], sum(fields)


def metadata(args) -> dict:
    import numpy

    spec = CONFIG["workloads"][args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "open_loop_rate_rps": spec.get("open_rate_rps"),
        "data": SYNTHETIC_NOTE,
    }


def run(args) -> dict:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "offline-jobs":
            import offline

            return offline.run(args.seed, workdir, bool(args.trace))
        import serving

        return serving.run(args.workload, args.seed, args.seconds, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(meta: dict, outcome: dict, trace: bool) -> dict:
    failed = len(outcome["failures"])
    attempted = max(1, outcome["attempted"])
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={int(trace)}")
    print("note: " + SYNTHETIC_NOTE)
    print("meta: " + json.dumps(meta, sort_keys=True))
    if trace:
        from tracing import PER_LAYER

        table = outcome["per_layer"]
        for name, (unit, _) in PER_LAYER.items():
            value, samples = table[name]
            print(f"layer {name} = {_fmt(value)} {unit} (n={samples})")
        metrics = {name: {"value": table[name][0], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        for name, (value, unit, samples) in outcome["workload_metrics"].items():
            print(f"metric {name} = {_fmt(value)} {unit} (n={samples})")
        print(f"metric failed_share = {failed / attempted:.6g} ratio (n={attempted})")
        for name, (value, unit, samples) in outcome["end_to_end"].items():
            print(f"end_to_end {name} = {_fmt(value)} {unit} (n={samples})")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in outcome["end_to_end"].items()}
    print("diagnostics: " + json.dumps(outcome.get("diagnostics", {}), sort_keys=True))
    for failure in outcome["failures"][:20]:
        print("failure: " + failure)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops its server and jobs on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Servers are stopped with SIGINT. A run started in the background of
    # a non-interactive shell inherits SIGINT ignored, and an ignored
    # signal stays ignored across exec; catching it here gives every
    # child the default disposition, so each server stops at once
    # instead of after stop_process's timeout.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        require_program()
        meta = metadata(args)
        started, (steal0, total0) = time.perf_counter(), _cpu_ticks()
        outcome = run(args)
        steal1, total1 = _cpu_ticks()
        meta["run_wall_s"] = time.perf_counter() - started
        meta["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(meta, outcome, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
