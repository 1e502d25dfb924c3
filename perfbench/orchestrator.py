"""The benchmark run: spawn the processes, read the window edges,
verify, fold and report."""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import fold, workloads
from perfbench.fold import Outcome
from perfbench.workloads import IRRELEVANT_F, Fetch, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
HOST = "127.0.0.1"

#: Server spawns per run; setup_s is their median.
SETUP_REPEATS = 3
#: Bound on any wait for a child process to answer.
CHILD_TIMEOUT_S = 120.0
#: Bound on the wait for the server to close the window's last
#: connections before the closing STATS read.
SETTLE_S = 2.0


class Child:
    """A benchmark process (``serve.py`` or ``agent.py``) and its
    JSON-line control pipe."""

    def __init__(self, name: str, script: str, config: dict, run_dir: Path) -> None:
        self.name = name
        path = run_dir / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._stderr = open(run_dir / f"{name}.stderr", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / script), str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=str(ROOT),
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            self.ready = self.read()
        except BaseException:
            self.close()
            raise
        self.port = self.ready.get("port")

    def read(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        if not self._selector.select(timeout):
            raise RuntimeError(f"{self.name} did not answer in {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} exited (code {self.proc.wait()})")
        return json.loads(line)

    def send(self, cmd: str) -> None:
        self.proc.stdin.write((json.dumps({"cmd": cmd}) + "\n").encode())
        self.proc.stdin.flush()

    def request(self, cmd: str) -> dict:
        self.send(cmd)
        return self.read()

    def stop(self) -> dict:
        reply = self.request("stop")
        self.close()
        return reply

    def close(self) -> None:
        """Wait for the process to end, killing it if it does not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()
        self._stderr.close()


def _delta(after: dict, before: dict) -> Dict[str, float]:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


async def _stats(port: int, settle: bool = False) -> dict:
    """The server's STATS snapshot.

    With *settle*, wait (bounded) until the window's connections have
    closed on the server: the STATS connection itself is then the one
    live connection.
    """
    from repro.net.client import fetch_stats

    deadline = time.perf_counter() + SETTLE_S
    while True:
        stats = await fetch_stats(HOST, port)
        if not settle or stats.get("active_connections", 0) <= 1:
            return stats
        if time.perf_counter() > deadline:
            return stats
        await asyncio.sleep(0.01)


def _snapshot(server: Child, proxy: Optional[Child], settle: bool = False) -> dict:
    """Counters read at one edge of the timed window."""
    return {
        "usage": server.request("usage"),
        "stats": asyncio.run(_stats(server.port, settle)),
        "proxy": proxy.request("stats") if proxy is not None else {},
    }


def _stats_reply_bytes(stats: dict) -> int:
    """Wire size of a STATS reply (5-byte envelope + compact JSON)."""
    return 5 + len(json.dumps(stats, separators=(",", ":")).encode("utf-8"))


async def _probe(server: Child, fetch: Fetch) -> dict:
    """Fetch an oversized page once and record how the server copes."""
    from repro.net.client import NetClient

    usage_before = server.request("usage")
    stats_before = await _stats(server.port)
    began = time.perf_counter()
    try:
        result = await NetClient(HOST, server.port).fetch(fetch.doc, fetch.request())
        status, error = result.status, ""
    except Exception as exc:  # the failure is what the probe records
        status, error = "raised", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - began
    await asyncio.sleep(0.1)  # let the server reap the failed handlers
    usage_after = server.request("usage")
    stats_after = await _stats(server.port)
    served = _delta(stats_after.get("server", {}), stats_before.get("server", {}))
    prep = _delta(stats_after.get("prep", {}), stats_before.get("prep", {}))
    return {
        "doc": fetch.doc,
        "packet_size": fetch.packet_size,
        "status": status,
        "error": error,
        "elapsed_s": elapsed,
        "unhandled_exceptions": usage_after["unhandled"] - usage_before["unhandled"],
        "unhandled_types": usage_after["unhandled_types"],
        # The STATS probe before the fetch is one of the connections.
        "server_connections": served.get("connections", 0) - 1,
        "server_errors": served.get("errors", 0),
        "cooked_misses": prep.get("cooked_misses", 0),
    }


def _load_spans(path: Path, start_ns: int, end_ns: int, offset: int) -> List[list]:
    """Spans of one process that began in the window, ids made run-unique."""
    if not path.is_file():
        return []
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    for span in spans:
        span[fold.ID] += offset
        if span[fold.PARENT] is not None:
            span[fold.PARENT] += offset
    return fold.in_window(spans, start_ns, end_ns)


class Totals:
    """What the sessions of one run add up to."""

    def __init__(self) -> None:
        self.outcomes: List[Outcome] = []
        self.window_s = 0.0
        self.client_cpu_s = 0.0
        self.client_rss_kb = 0
        self.server_cpu_s = 0.0
        self.server_rss_kb = 0
        self.wire_bytes = 0
        self.unhandled = 0
        self.sendq_high_water_bytes = 0
        self.deltas: Dict[str, Dict[str, float]] = {}
        self.spans: Dict[str, List[list]] = {"client": [], "server": [], "proxy": []}
        self.probes: List[dict] = []
        self.model_alpha = 0.0

    def add_delta(self, section: str, delta: Dict[str, float]) -> None:
        total = self.deltas.setdefault(section, {})
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value


def _oracle(workload: Workload, outcomes: List[Outcome]) -> None:
    """Verify every outcome against an in-process PreparationService."""
    from repro.prep import PreparationService

    service = PreparationService()
    for doc, xml in workload.documents.items():
        service.add_document(doc, xml)
    expected: Dict[Tuple[str, int, str], Tuple[str, int]] = {}
    for outcome in outcomes:
        digest = None
        if outcome.status == "decoded":
            key = (outcome.doc, outcome.packet_size, outcome.query)
            if key not in expected:
                prepared = service.prepare(
                    outcome.doc, Fetch(outcome.doc, outcome.packet_size, outcome.query).request()
                )
                cooked = prepared.cooked
                payload = b"".join(cooked.cooked[: cooked.m])[: cooked.original_size]
                expected[key] = (hashlib.sha256(payload).hexdigest(), cooked.m)
            digest, outcome.m = expected[key]
        fold.verify(outcome, digest, IRRELEVANT_F)


def _facts(
    workload: Workload, seconds: float, trace: bool, totals: Totals, native: bool, backend: str
) -> dict:
    """The conditions a result was measured under."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    busy = totals.client_cpu_s / totals.window_s if totals.window_s else 0.0
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "coding_backend": backend,
        "native_kernel": native,
        "loopback": True,
        "host": HOST,
        "agents": len(workload.streams),
        "closed_loop": True,
        "latency_limit_s": workload.latency_limit_s,
        "client_busy_share": busy,
        "client_bound": busy >= 0.9,
    }


def _benchmark_metric_names(kind: str) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [entry["name"] for entry in spec[kind]]


def _wire(fetches: List[Fetch]) -> List[tuple]:
    return [dataclasses.astuple(fetch) for fetch in fetches]


def _server_config(workload: Workload, run_dir: Path, session: int, trace: bool) -> dict:
    return {
        "role": "server",
        "trace": trace,
        "spans": str(run_dir / f"spans-server-{session}.json"),
        "corpus": str(run_dir / "corpus"),
        "warm": _wire(workload.warm),
        "hotness": workload.hotness,
        "delivery": workload.delivery,
        "carousel_packet_size": workloads.HOT_PACKET_SIZE,
    }


def _session(
    workload: Workload,
    run_dir: Path,
    session: int,
    server: Child,
    children: List[Child],
    seconds: float,
    trace: bool,
    totals: Totals,
) -> None:
    """One session: a client process driving *server* through its window."""
    proxy = None
    if workload.lossy:
        proxy = Child(
            f"proxy-{session}",
            "serve.py",
            {
                "role": "proxy",
                "trace": trace,
                "spans": str(run_dir / f"spans-proxy-{session}.json"),
                "seed": workload.seed,
                "upstream_port": server.port,
                "disconnect": workloads.LOSSY_DISCONNECT,
                "max_disconnects": workloads.LOSSY_MAX_DISCONNECTS,
            },
            run_dir,
        )
        children.append(proxy)
    client = Child(
        f"agent-{session}",
        "agent.py",
        {
            "port": proxy.port if proxy is not None else server.port,
            "lossy": workload.lossy,
            "delivery": workload.delivery,
            "trace_phase": session % 2 if trace else None,
            "streams": [_wire(stream) for stream in workload.session_streams(session)],
            "client_warm": _wire(workload.client_warm),
            "warmup_s": workload.warmup_s,
            "seconds": 0 if workload.fixed_sessions else seconds,
            "outcomes": str(run_dir / f"outcomes-{session}.json"),
            "spans": str(run_dir / f"spans-client-{session}.json"),
        },
        run_dir,
    )
    children.append(client)
    before = _snapshot(server, proxy)
    client.send("go")
    done = client.read(timeout=seconds + CHILD_TIMEOUT_S)
    after = _snapshot(server, proxy, settle=True)
    client.close()
    if session == 0:
        totals.probes = [asyncio.run(_probe(server, fetch)) for fetch in workload.probes]
    for child in (proxy, server):
        if child is not None:
            child.stop()

    totals.outcomes.extend(
        Outcome(**fields)
        for fields in json.loads((run_dir / f"outcomes-{session}.json").read_text())
    )
    totals.window_s += done["window_s"]
    totals.client_cpu_s += done["cpu_s"]
    totals.client_rss_kb = max(totals.client_rss_kb, done["maxrss_kb"])
    totals.server_cpu_s += after["usage"]["cpu_s"] - before["usage"]["cpu_s"]
    totals.server_rss_kb = max(totals.server_rss_kb, after["usage"]["maxrss_kb"])
    totals.unhandled += after["usage"]["unhandled"] - before["usage"]["unhandled"]
    for section in ("server", "prep", "broadcast"):
        totals.add_delta(
            section,
            _delta(after["stats"].get(section, {}), before["stats"].get(section, {})),
        )
    totals.add_delta("proxy", _delta(after["proxy"], before["proxy"]))
    totals.wire_bytes += (
        after["stats"]["server"]["bytes_sent"]
        - before["stats"]["server"]["bytes_sent"]
        - _stats_reply_bytes(before["stats"])
    )
    totals.sendq_high_water_bytes = max(
        totals.sendq_high_water_bytes,
        after["stats"]["server"].get("sendq_high_water_bytes", 0),
    )
    totals.model_alpha = proxy.ready["stationary_alpha"] if proxy is not None else 0.0
    if trace:
        for role_index, role in enumerate(("client", "server", "proxy")):
            totals.spans[role].extend(
                _load_spans(
                    run_dir / f"spans-{role}-{session}.json",
                    done["start_ns"],
                    done["end_ns"],
                    offset=(session * 3 + role_index) << 32,
                )
            )


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.coding import _native
    from repro.coding.backend import get_backend

    OUT.mkdir(exist_ok=True)
    # The native GF(256) kernel is compiled once per checkout, before
    # anything is timed, into the checkout's own output directory.
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native")
    native = _native.load() is not None
    backend = get_backend().name
    workload = workloads.build(name, seed)
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    corpus = run_dir / "corpus"
    corpus.mkdir(parents=True)
    for doc, xml in workload.documents.items():
        (corpus / f"{doc}.xml").write_text(xml, encoding="utf-8")

    totals = Totals()
    setups: List[float] = []
    children: List[Child] = []

    def spawn_server(session: int) -> Child:
        began = time.perf_counter()
        child = Child(
            f"server-{session}", "serve.py", _server_config(workload, run_dir, session, trace),
            run_dir,
        )
        setups.append(time.perf_counter() - began)
        children.append(child)
        return child

    try:
        for _ in range(SETUP_REPEATS - 1):
            spawn_server(0).stop()
        session = 0
        while True:
            _session(
                workload, run_dir, session, spawn_server(session), children,
                seconds, trace, totals,
            )
            session += 1
            # Fixed-work sessions repeat, each against a fresh server and
            # a fresh client, while at least half a session's time is left.
            if not workload.fixed_sessions:
                break
            if totals.window_s * (session + 0.5) / session > seconds:
                break
    finally:
        for child in children:
            child.close()

    outcomes = totals.outcomes
    _oracle(workload, outcomes)
    end_to_end = fold.end_to_end(
        outcomes,
        limit=workload.latency_limit_s,
        window_s=totals.window_s,
        client_cpu_s=totals.client_cpu_s,
        server_cpu_s=totals.server_cpu_s,
        wire_bytes=totals.wire_bytes,
        client_rss_kb=totals.client_rss_kb,
        server_rss_kb=totals.server_rss_kb,
        setup_s=statistics.median(setups),
    )
    proxy_delta = totals.deltas.get("proxy", {})
    checks = {
        "sessions": session,
        "setups_s": setups,
        "window_s": totals.window_s,
        "probes": totals.probes,
        "channel": fold.channel_check(outcomes, proxy_delta, totals.model_alpha),
        "failures": sorted({o.error or o.status for o in outcomes if not o.verified}),
    }

    per_layer = None
    if trace:
        per_layer = fold.per_layer(
            client_spans=totals.spans["client"],
            server_spans=totals.spans["server"],
            proxy_spans=totals.spans["proxy"],
            outcomes=outcomes,
            server_delta=totals.deltas.get("server", {}),
            prep_delta=totals.deltas.get("prep", {}),
            broadcast_delta=totals.deltas.get("broadcast", {}),
            proxy_delta=proxy_delta,
            sendq_high_water_bytes=totals.sendq_high_water_bytes,
            server_cpu_s=totals.server_cpu_s,
            unhandled=totals.unhandled,
            model_alpha=totals.model_alpha,
        )

    facts = _facts(workload, seconds, trace, totals, native, backend)
    correct = not any(o.wrong for o in outcomes)
    failed = sum(1 for o in outcomes if not o.verified)
    (run_dir / "result.json").write_text(
        json.dumps(
            {
                "facts": facts,
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "checks": checks,
                "outcomes": [dataclasses.asdict(o) for o in outcomes],
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    # The corpus comes back from the seed and the per-session outcomes
    # are in result.json; the span dumps stay for inspection.
    shutil.rmtree(corpus)
    for path in run_dir.glob("outcomes-*.json"):
        path.unlink()
    _report(facts, end_to_end, per_layer, checks, len(outcomes), failed)
    if trace:
        chosen = {n: (per_layer[n], fold.PER_LAYER_UNITS[n]) for n in _benchmark_metric_names("per_layer")}
    else:
        chosen = {n: (end_to_end[n], fold.END_TO_END_UNITS[n]) for n in _benchmark_metric_names("end_to_end")}
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


def _report(facts, end_to_end, per_layer, checks, attempted, failed) -> None:
    print(f"# {facts['workload']} seed={facts['seed']} trace={int(facts['trace'])} "
          f"attempted={attempted} failed={failed} window={checks['window_s']:.2f}s")
    for name, value in end_to_end.items():
        print(f"{name:32s} {value:14.6g} {fold.END_TO_END_UNITS[name]}")
    if per_layer is not None:
        for name, value in per_layer.items():
            print(f"{name:40s} {value:14.6g} {fold.PER_LAYER_UNITS[name]}")
    print("facts " + json.dumps(facts))
    print("checks " + json.dumps(checks))
