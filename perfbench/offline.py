"""The offline-jobs workload: five kinds of job, each run in its own fresh
process, on the same 11,055-row CSV, timed as a user waits for them.
Every job's output goes through an oracle check afterwards.

The two library fits run twice each, apart in time, at half the size
they would have if run once. Otherwise `latency_p50_ms`, the median of
the job walls, would be the wall time of one 4-second job, which varies
by ±15% from run to run on a shared machine; with two runs of each it
is the middle of four similar job walls."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import data
import tracing
from common import CONFIG, bench_script_argv, cli_argv, median, run_job, traced_argv

SPEC = CONFIG["workloads"]["offline-jobs"]


def job_argv(job: str, csv: Path, out: Path) -> list[str]:
    if job in ("train-logistic", "train-tree"):
        kind = job.split("-", 1)[1]
        return cli_argv("train", str(csv), "--model", kind, "--folds", "5",
                        "--out", str(out / f"{kind}.json"))
    if job == "fit-gbt":
        return bench_script_argv("libjobs.py", "fit-gbt", str(csv), str(out / "gbt.json"),
                                 "--rounds", str(SPEC["fit_gbt_rounds"]))
    if job == "fit-forest":
        return bench_script_argv("libjobs.py", "fit-forest", str(csv), str(out / "forest.json"),
                                 "--trees", str(SPEC["fit_forest_trees"]))
    return cli_argv("robustness", str(csv), "--model", str(out / "logistic.json"),
                    "--out-dir", str(out / "robustness"))


def run_jobs(csv: Path, out: Path, traced: bool, before_each=None) -> dict[str, dict]:
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    for job in SPEC["jobs"]:
        if before_each is not None:
            before_each()
        # A repeated job is keyed `<job>.2`; it rewrites the same model.
        key = job if job not in results else f"{job}.2"
        argv = job_argv(job, csv, out)
        if traced:
            argv = traced_argv(out / f"{key}.spans.json", argv)
        results[key] = run_job(argv, out / key)
    return results


# ----------------------------------------------------------------- oracles


def _printed_stats(stdout: str, kind: str) -> dict[str, float]:
    """The training-set precision/recall/F1 row of `train`'s table."""
    for line in stdout.splitlines():
        cells = line.split()
        if cells and cells[0] == kind:
            return dict(zip(("precision", "recall", "f1"), map(float, cells[2:5])))
    raise ValueError(f"no {kind} row in the train output")


def oracles(csv: Path, out: Path, jobs: dict[str, dict]) -> tuple[int, list[str]]:
    """Reload each written model and check it against what its job
    reported; check ROC AUC against the pairwise oracle; check the
    robustness report. Returns (checks attempted, failures)."""
    from phishguard.datasets import load_csv
    from phishguard.metrics import auc_pairwise, confusion, prf1, roc_auc
    from phishguard.models import load_model, stratified_fold_indices

    attempted, failures = 0, []

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(f"{label}: {detail}")

    for job, result in jobs.items():
        check(f"{job} exit", result["exit"] == 0, f"exit code {result['exit']}")
    ds = load_csv(csv)
    fold = stratified_fold_indices(ds.y, 5, 0)[0]
    for job, file in (("train-logistic", "logistic"), ("train-tree", "tree"),
                      ("fit-gbt", "gbt"), ("fit-forest", "forest")):
        if jobs[job]["exit"] != 0:
            continue
        try:
            model = load_model(out / f"{file}.json")
            if job.startswith("train-"):
                got = prf1(confusion(ds.y, model.predict(ds.X)))
                printed = _printed_stats(jobs[job]["stdout"], file)
                worst = max(abs(got[k] - v) for k, v in printed.items())
                check(f"{job} reload", worst <= 5e-5,
                      f"reloaded model is {worst:.2e} off the printed precision/recall/F1")
            else:
                expected = json.loads((out / f"{file}.json.pred.json").read_text())
                got = [float(p) for p in model.predict_proba(ds.X[:len(expected)])]
                check(f"{job} reload", got == expected, "reloaded predictions differ")
            scores = np.asarray(model.predict_proba(ds.X[fold]))
            trapezoid, pairwise = roc_auc(ds.y[fold], scores)[1], auc_pairwise(ds.y[fold], scores)
            check(f"{job} auc", abs(trapezoid - pairwise) <= 1e-12,
                  f"roc_auc {trapezoid!r} != auc_pairwise {pairwise!r}")
        except (OSError, ValueError, KeyError) as exc:
            check(f"{job} reload", False, repr(exc))

    if jobs["robustness"]["exit"] == 0:
        try:
            report = json.loads((out / "robustness" / "robustness.json").read_text())
            for strategy in ("isolation", "validation", "hybrid"):
                row = report[strategy]
                values = [row["cis"], row["apf"], row["csi_stability"], row["wall_clock_s"]]
                if strategy != "isolation":
                    values.append(row["mre"])
                check(f"robustness {strategy}",
                      all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                      f"non-finite row {row}")
        except (OSError, ValueError, KeyError) as exc:
            check("robustness report", False, repr(exc))
    return attempted, failures


# ---------------------------------------------------------------- workload


def exit_failures(results: dict[str, dict], label: str = "") -> list[str]:
    return [f"{name}{label} exit: exit code {r['exit']}"
            for name, r in results.items() if r["exit"] != 0]


def run(seed: int, workdir: Path, trace: bool) -> dict:
    csv = workdir / "reference.csv"
    data.write_reference_csv(csv, seed, CONFIG["reference_rows"])

    if trace:
        jobs = run_jobs(csv, workdir / "jobs", traced=True)
        attempted, failures = oracles(csv, workdir / "jobs", jobs)
        plain = run_jobs(csv, workdir / "plain", traced=False)
        attempted += len(plain)
        failures += exit_failures(plain, " untraced")
        walls = {job: r["wall_s"] for job, r in jobs.items()}
        traced_total, plain_total = sum(walls.values()), sum(r["wall_s"] for r in plain.values())
        traces = [tracing.Trace.load(workdir / "jobs" / f"{job}.spans.json") for job in jobs]
        layers = tracing.per_layer(traces, {})
        layers["trace.overhead_pct"] = (100.0 * (traced_total - plain_total) / plain_total,
                                        len(jobs))
        return {"per_layer": layers, "attempted": attempted, "failures": failures,
                "diagnostics": {
                    **{f"job_s_traced.{j}": w for j, w in walls.items()},
                    **{f"job_s_untraced.{j}": r["wall_s"] for j, r in plain.items()},
                    "unwrapped": sorted({m for t in traces for m in t.missing})}}

    # Set-up is what a user does before training: `phishguard ingest` of
    # the CSV, in a fresh process each time. The ingests run between the
    # jobs, spread evenly over the gaps before them, so that their median
    # samples the whole run: the machine's speed drifts over seconds.
    ingest = workdir / "ingest"
    ingest.mkdir()
    ingests: dict[str, dict] = {}
    gaps = iter(range(1, len(SPEC["jobs"]) + 1))

    def ingest_before_job() -> None:
        target = round(next(gaps) * CONFIG["setup_repeats"] / len(SPEC["jobs"]))
        while len(ingests) < target:
            i = len(ingests)
            ingests[f"ingest-{i}"] = run_job(
                cli_argv("ingest", str(csv), "--out", str(ingest / "reference.csv")),
                ingest / str(i))

    jobs = run_jobs(csv, workdir / "jobs", traced=False, before_each=ingest_before_job)
    setups = [r["wall_s"] for r in ingests.values()]
    attempted, failures = oracles(csv, workdir / "jobs", jobs)
    attempted += len(ingests)
    failures += exit_failures(ingests)
    walls = {job: r["wall_s"] for job, r in jobs.items()}

    values = list(walls.values())
    peak = max(r["maxrss_mb"] for r in jobs.values())
    e2e = {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_per_s": (len(values) / sum(values), "1/s", len(values)),
        "latency_p50_ms": (1e3 * median(values), "ms", len(values)),
        "latency_gmean_ms": (1e3 * math.exp(np.mean(np.log(values))), "ms", len(values)),
        "peak_rss_mb": (peak, "MB", len(values)),
    }
    own = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
           **{f"job_s.{job}": (w, "s", 1) for job, w in walls.items()}}
    return {"end_to_end": e2e, "workload_metrics": own, "attempted": attempted,
            "failures": failures, "diagnostics": {"csv_rows": CONFIG["reference_rows"]}}
