"""The serve-linear and serve-gbt workloads.

`phishguard serve --transport tcp --dataset ref.csv` runs in its own
process; one client process drives it over at most two TCP connections:
a warm-up, then rounds of an open loop at the fixed rate from config.json
and a closed loop. Every reply is checked, and a seeded sample of
closed-loop replies is compared byte for byte with the serial (stdio)
server's replies to the same lines.
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import time
from pathlib import Path

import numpy as np

import data
import tracing
from client import Client, Record
from common import (
    CONFIG,
    BenchError,
    bench_script_argv,
    child_env,
    cli_argv,
    median,
    quantile,
    run_job,
    stop_process,
    tail_samples,
    traced_argv,
    ROOT,
)

CONNECTIONS = 2
# One connection when traced: with two, each span would also time waits
# for the interpreter lock held by the other connection's thread.
TRACE_CONNECTIONS = 1
ROUNDS = 15
# Samples that must lie beyond each open-loop tail percentile.
TAILS = {"classify_url": 0.95, "explain_url": 0.90}
MIN_BEYOND_TAIL = 10

TOOL_KEYS = {
    "classify_url": {"label", "probability", "rationale", "pcs", "flagged"},
    "explain_url": {"method", "attributions"},
}


# ---------------------------------------------------------------- fixtures


def build_inputs(workdir: Path, seed: int, spec: dict) -> tuple[Path, list[str]]:
    csv = workdir / "reference.csv"
    data.write_reference_csv(csv, seed, CONFIG["reference_rows"])
    size = spec.get("zipf_pool_size", 3000)
    return csv, data.url_pool(seed, size)


def fit_fixture(workdir: Path, csv: Path, spec: dict, spans: Path | None) -> tuple[Path, dict]:
    """The served model: `phishguard train` for logistic, a library GBT
    fit otherwise (the CLI hard-codes 500 rounds)."""
    model = workdir / "model.json"
    if spec["model"] == "logistic":
        argv = cli_argv("train", str(csv), "--model", "logistic", "--folds", "5",
                        "--out", str(model))
    else:
        argv = bench_script_argv("libjobs.py", "fit-gbt", str(csv), str(model),
                                 "--rounds", str(spec["gbt_rounds"]))
    if spans is not None:
        argv = traced_argv(spans, argv)
    job = run_job(argv, workdir / "fixture")
    if job["exit"] != 0:
        raise BenchError(f"fixture fit failed with exit {job['exit']}")
    return model, job


# ------------------------------------------------------------------ server


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ServerProcess:
    def __init__(self, argv: list[str], log: Path, port: int):
        self.port = port
        self.started = time.perf_counter()
        self._log = log.open("ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self._log,
                                     env=child_env(), cwd=ROOT)

    @property
    def addr(self):
        return ("127.0.0.1", self.port)

    def wait_ready(self, timeout: float = 120.0) -> tuple[float, bytes]:
        """Seconds from process start until the first server_info reply."""
        deadline = self.started + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode} during start-up")
            try:
                sock = socket.create_connection(self.addr, timeout=timeout)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("server did not start listening")
                time.sleep(0.002)
        with sock:
            sock.sendall(b'{"id": "probe", "tool": "server_info"}\n')
            reply = sock.makefile("rb").readline()
        return time.perf_counter() - self.started, reply.rstrip(b"\n")

    def status_kb(self, field: str) -> int:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
        raise BenchError(f"{field} missing from /proc status")

    def stop(self) -> None:
        stop_process(self.proc)
        self._log.close()


def measure_setup(workdir: Path, model: Path, csv: Path) -> tuple[float, bytes]:
    """Start a server, time it until its first reply, stop it."""
    server = start_server(workdir, model, csv)
    try:
        return server.wait_ready()
    finally:
        server.stop()


def start_server(workdir: Path, model: Path, csv: Path, spans: Path | None = None) -> ServerProcess:
    port = _free_port()
    argv = cli_argv("serve", "--model", str(model), "--dataset", str(csv),
                    "--transport", "tcp", "--port", str(port))
    if spans is not None:
        argv = traced_argv(spans, argv)
    return ServerProcess(argv, workdir / "server.err", port)


def serial_replies(model: Path, csv: Path, lines: list[bytes], workdir: Path) -> list[bytes]:
    """The same lines answered one at a time by the stdio transport."""
    argv = cli_argv("serve", "--model", str(model), "--dataset", str(csv))
    with (workdir / "serial.err").open("wb") as err:
        done = subprocess.run(argv, input=b"".join(lines), stdout=subprocess.PIPE,
                              stderr=err, env=child_env(), cwd=ROOT, timeout=150)
    return done.stdout.splitlines()


# ------------------------------------------------------------------ checks


def check_reply(rec: Record, model_kind: str) -> str | None:
    """Why this reply is wrong, or None."""
    req = rec.req
    if rec.reply is None:
        return "no reply"
    try:
        reply = json.loads(rec.reply)
    except ValueError:
        return "reply is not JSON"
    if not isinstance(reply, dict) or reply.get("id") != req.rid:
        return f"id {reply.get('id') if isinstance(reply, dict) else None!r} != {req.rid!r}"
    status = reply.get("status")
    if req.expect != "ok":
        code = (reply.get("error") or {}).get("code")
        return None if status == "error" and code == req.expect else f"{req.expect} expected, got {code!r}"
    if status != "ok":
        return f"error {(reply.get('error') or {}).get('code')!r} on a valid request"
    result = reply.get("result")
    if req.tool == "server_info":
        return None if "classify_url" in result.get("tools", ()) else "server_info lists no classify_url"
    if req.tool == "extract_features":
        return None if len(result) == 23 else f"{len(result)} features"
    if not isinstance(result, dict) or set(result) != TOOL_KEYS[req.tool]:
        return f"{req.tool} result keys {sorted(result) if isinstance(result, dict) else result!r}"
    if req.tool == "explain_url":
        method = "shap_linear" if model_kind == "logistic" else "lime"
        if result["method"] != method or len(result["attributions"]) != 23:
            return f"explain_url gave {result['method']} with {len(result['attributions'])} rows"
        return None
    probability, pcs = float(result["probability"]), float(result["pcs"])
    if result["label"] not in ("phishing", "legitimate") or not 0.0 <= probability <= 1.0:
        return f"classify_url gave {result['label']!r} at {probability}"
    # Every reference row has the default provenance, so PCS is exact.
    foreign = data.FOREIGN_PROVENANCE.encode() in req.line
    if (pcs, result["flagged"]) != ((0.0, True) if foreign else (1.0, False)):
        return f"pcs {pcs} flagged {result['flagged']} for {'foreign' if foreign else 'default'} provenance"
    return None


class Checks:
    def __init__(self, model_kind: str):
        self.model_kind = model_kind
        self.attempted = 0
        self.failures: list[str] = []

    def replies(self, records: list[Record]) -> None:
        for rec in records:
            self.attempted += 1
            try:
                why = check_reply(rec, self.model_kind)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                why = f"malformed result ({exc!r})"
            if why:
                self.failures.append(f"{rec.req.rid or rec.req.line[:40]!r}: {why}")

    def server_info(self, reply: bytes) -> None:
        probe = Record(data.Request("probe", "server_info", None, b"", "ok"), 0.0)
        probe.reply = reply
        self.replies([probe])

    def equivalence(self, records: list[Record], serial: list[bytes]) -> None:
        self.attempted += len(records)
        for rec, expected in zip(records, serial):
            if rec.reply != expected:
                self.failures.append(f"{rec.req.rid!r}: concurrent reply differs from serial reply")
        if len(serial) != len(records):
            self.failures.append(f"serial server gave {len(serial)} replies to {len(records)} lines")


# -------------------------------------------------------------- statistics


def window_rates(records: list[Record], start: float, seconds: float) -> list[float]:
    """Closed-loop throughput over spans of about half a second: the
    replies are cut into equal runs, each run's rate measured from the
    previous run's last reply."""
    times = sorted(r.recv for r in records if r.reply is not None)
    spans = max(1, min(round(2 * seconds), len(times)))
    cuts = [round(k * len(times) / spans) for k in range(spans + 1)]
    rates = []
    for lo, hi in zip(cuts, cuts[1:]):
        begin = start if lo == 0 else times[lo - 1]
        rates.append((hi - lo) / (times[hi - 1] - begin))
    return rates


def throughput(rates: list[float]) -> float:
    """Interquartile mean of the window rates. Like a median it ignores
    the windows that a burst of interference stalled, but it moves
    smoothly when the machine's speed switches between two levels during
    a run, where a median jumps from one level to the other."""
    ordered = sorted(rates)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def _ms(values):
    return [1e3 * v for v in values]


def _latency(records: list[Record], tool: str) -> list[float]:
    return _ms(r.recv - r.due for r in records if r.req.tool == tool and r.reply is not None)


def _label(reply: bytes | None) -> str | None:
    try:
        return json.loads(reply)["result"]["label"]
    except (TypeError, ValueError, KeyError):
        return None


def _pct(metrics: dict, tails: dict, name: str, values: list[float], q: float) -> None:
    if values:
        metrics[name] = (quantile(values, q), "ms", len(values))
        tails[name + "_beyond"] = tail_samples(len(values), q)


def _top_up_tails(rounds: list[list], stream) -> None:
    """Extend the last open-loop round until every tail percentile has
    MIN_BEYOND_TAIL samples beyond it, whatever the seed's mix."""
    def beyond(tool: str) -> int:
        n = sum(r.tool == tool for requests in rounds for r in requests)
        return tail_samples(n, TAILS[tool]) if n else 0

    tools = [tool for tool in TAILS if tool in stream.spec["mix"]]
    while any(beyond(tool) < MIN_BEYOND_TAIL for tool in tools):
        rounds[-1].append(stream.next("o"))


# --------------------------------------------------------------- workload


def run(name: str, seed: int, seconds: float, workdir: Path, trace: bool) -> dict:
    spec = CONFIG["workloads"][name]
    csv, pool = build_inputs(workdir, seed, spec)
    stream = data.RequestStream(seed, spec, pool)
    checks = Checks(spec["model"])
    model, fixture = fit_fixture(workdir, csv, spec,
                                 workdir / "fixture.spans.json" if trace else None)
    closed_s = spec["closed_share"] * seconds
    if trace:
        return _run_traced(spec, seed, closed_s, workdir, csv, model, stream, checks)

    # The open and closed loops alternate in ROUNDS rounds, and the
    # extra server starts for set-up fall between rounds, so that every
    # metric samples the whole run rather than one stretch of it: the
    # machine's speed drifts over seconds. The extra starts are spread
    # evenly over the gaps after the rounds. Both loops send a fixed number
    # of requests, sized from fixed rates, so the server's memory peak
    # covers the same requests whatever its speed.
    n_open = round(spec["open_rate_rps"] * (seconds - closed_s) / ROUNDS)
    n_closed = round(spec["closed_rate_rps"] * closed_s / ROUNDS)
    open_rounds = [stream.take(n_open, "o") for _ in range(ROUNDS)]
    _top_up_tails(open_rounds, stream)
    server = start_server(workdir, model, csv)
    try:
        setups = [server.wait_ready()]
        with Client(server.addr, CONNECTIONS) as client:
            warm, _ = client.closed_loop(lambda: stream.next("w"), 60.0,
                                         limit=spec["warmup_requests"])
            rss_start = server.status_kb("VmRSS")
            opened, closed, rates = [], [], []
            for done, requests in enumerate(open_rounds, 1):
                opened += client.open_loop(requests, spec["open_rate_rps"])
                segment, start = client.closed_loop(lambda: stream.next("c"), 60.0,
                                                    limit=n_closed,
                                                    conns=spec["closed_connections"])
                closed += segment
                rates += window_rates(segment, start, closed_s / ROUNDS)
                while len(setups) < 1 + round(done * (CONFIG["setup_repeats"] - 1) / ROUNDS):
                    setups.append(measure_setup(workdir, model, csv))
            peak_kb = server.status_kb("VmHWM")
            rss_end = server.status_kb("VmRSS")
    finally:
        server.stop()
    for _, reply in setups:
        checks.server_info(reply)
    checks.replies(warm)
    checks.replies(opened)
    checks.replies(closed)

    rng = np.random.default_rng([seed, 99])
    picks = sorted(rng.choice(len(closed), size=min(spec["oracle_sample"], len(closed)),
                              replace=False))
    sample = [closed[i] for i in picks]
    checks.equivalence(sample, serial_replies(model, csv, [r.req.line for r in sample], workdir))

    classify = _latency(opened, "classify_url")
    explain = _latency(opened, "explain_url")
    lateness = _ms(r.sent - r.due for r in opened if r.sent)
    after_warmup = len(opened) + len(closed)
    e2e = {
        "setup_s": (median([s for s, _ in setups]), "s", len(setups)),
        "throughput_per_s": (throughput(rates), "1/s", len(rates)),
        "latency_p50_ms": (quantile(classify, 0.50), "ms", len(classify)),
        "latency_gmean_ms": (math.sqrt(quantile(classify, 0.5) * quantile(explain, 0.5)), "ms",
                             len(classify) + len(explain)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }
    own = {
        "setup_s": e2e["setup_s"],
        "throughput_rps": (throughput(rates), "req/s", len(rates)),
        "retained_kb_per_kreq": (1e3 * (rss_end - rss_start) / after_warmup, "KB/kreq",
                                 after_warmup),
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    tails: dict[str, int] = {}
    _pct(own, tails, "classify_p50_ms", classify, 0.50)
    _pct(own, tails, "classify_p95_ms", classify, TAILS["classify_url"])
    _pct(own, tails, "explain_p50_ms", explain, 0.50)
    _pct(own, tails, "explain_p90_ms", explain, TAILS["explain_url"])

    urls = [r.req.url for r in warm + opened + closed if r.req.url]
    labels = [_label(r.reply) for r in opened + closed if r.req.tool == "classify_url"]
    diagnostics = {
        "phishing_share": labels.count("phishing") / max(1, len(labels)),
        "repeated_url_share": 1.0 - len(set(urls)) / max(1, len(urls)),
        "fixture_fit_s": fixture["wall_s"],
        "connections": CONNECTIONS,
        "closed_loop_connections": spec["closed_connections"],
        "open_loop_rate_rps": spec["open_rate_rps"],
        "open_loop_requests": len(opened),
        "closed_loop_requests": len(closed),
        "closed_loop_window_rates": rates,
        "setup_s_each": [s for s, _ in setups],
        "generator_lateness_p50_ms": median(lateness),
        "generator_lateness_max_ms": max(lateness),
        "oracle_sample": len(sample),
        **tails,
    }
    return {"end_to_end": e2e, "workload_metrics": own, "diagnostics": diagnostics,
            "attempted": checks.attempted, "failures": checks.failures}


def _closed_run(server: ServerProcess, stream, spec, closed_s, checks):
    with Client(server.addr, TRACE_CONNECTIONS) as client:
        warm, _ = client.closed_loop(lambda: stream.next("w"), 60.0,
                                     limit=spec["warmup_requests"])
        closed, start = client.closed_loop(lambda: stream.next("c"), closed_s)
    checks.replies(warm)
    checks.replies(closed)
    return closed, throughput(window_rates(closed, start, closed_s))


def _run_traced(spec, seed, closed_s, workdir, csv, model, stream, checks) -> dict:
    """Traced server and closed loop for the per-layer table, then the
    same closed loop untraced for the tracing overhead."""
    spans = workdir / "server.spans.json"
    server = start_server(workdir, model, csv, spans)
    try:
        _, info = server.wait_ready()
        checks.server_info(info)
        closed, traced_rps = _closed_run(server, stream, spec, closed_s, checks)
    finally:
        server.stop()
    rtt = {r.req.rid: int(1e9 * (r.recv - r.sent)) for r in closed
           if r.reply is not None and r.req.rid}

    server = start_server(workdir, model, csv)
    try:
        server.wait_ready()
        _, plain_rps = _closed_run(server, data.RequestStream(seed, spec, stream.pool),
                                   spec, closed_s, checks)
    finally:
        server.stop()

    traces = [tracing.Trace.load(workdir / "fixture.spans.json"), tracing.Trace.load(spans)]
    layers = tracing.per_layer(traces, rtt)
    layers["trace.overhead_pct"] = (100.0 * (plain_rps - traced_rps) / plain_rps, 2)
    return {"per_layer": layers, "attempted": checks.attempted, "failures": checks.failures,
            "diagnostics": {"throughput_rps_traced": traced_rps,
                            "throughput_rps_untraced": plain_rps,
                            "unwrapped": sorted({m for t in traces for m in t.missing})}}
