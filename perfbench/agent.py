"""The client process of the benchmark: closed-loop mobile user agents.

Run as ``python3 perfbench/agent.py CONFIG.json``.  The process is the
handset: its CPU and memory are the client's.  It makes the warm-up
fetches (and, for a timed session, runs its agents untimed for a few
seconds), prints ``{"warm": true}`` and waits for one ``{"cmd": "go"}``
line on stdin.  Then it runs its agents, one ``NetClient`` connection
each, for a number of seconds or a fixed number of fetches.  When they
are done it prints ``{"done": true, ...}`` with its CPU time, peak RSS
and the window's edges.  It writes its outcomes and, in a traced run,
its spans, then exits.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.fold import Outcome  # noqa: E402
from perfbench.workloads import Fetch  # noqa: E402

HOST = "127.0.0.1"


class Agents:
    """The user agents of one session and what they observed."""

    def __init__(self, port: int, lossy: bool, delivery: str) -> None:
        from repro.net.client import NetClient
        from repro.prep import TransferSettings

        self.outcomes: List[Outcome] = []
        self.delivery = delivery
        self._clients: Dict[Tuple[int, bool], NetClient] = {}
        self._make_client = lambda threshold: NetClient(
            HOST,
            port,
            settings=TransferSettings(relevance_threshold=threshold, use_cache=lossy),
        )

    def _client(self, agent: int, fetch: Fetch):
        key = (agent, fetch.relevant)
        if key not in self._clients:
            self._clients[key] = self._make_client(fetch.threshold)
        return self._clients[key]

    async def fetch(self, agent: int, fetch: Fetch, traced: bool) -> Outcome:
        client = self._client(agent, fetch)
        request = fetch.request(self.delivery)
        outcome = Outcome(
            doc=fetch.doc,
            packet_size=fetch.packet_size,
            query=fetch.query,
            relevant=fetch.relevant,
            elapsed=0.0,
            status="raised",
            traced=traced,
        )
        token = tracing.STATE.set(tracing.ROOT if traced else None)
        began = time.perf_counter()
        try:
            result = await client.fetch(fetch.doc, request)
        except Exception as exc:  # a raised fetch is a failed fetch
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.elapsed = time.perf_counter() - began
            return outcome
        finally:
            tracing.STATE.reset(token)
        if result.payload is not None:
            outcome.digest = hashlib.sha256(result.payload).hexdigest()
            outcome.size = len(result.payload)
        outcome.elapsed = time.perf_counter() - began
        outcome.status = result.status
        outcome.content = result.content_received
        outcome.rounds = result.rounds
        outcome.frames = result.frames_received
        outcome.reconnects = result.reconnects
        return outcome

    async def run(
        self,
        agent: int,
        stream: List[Fetch],
        deadline: Optional[float],
        trace_phase: Optional[int],
    ) -> None:
        """One closed-loop user agent: next request after each verdict.

        With a *deadline* the agent cycles through its stream until the
        deadline passes; without one it makes every fetch once.  A
        traced run (*trace_phase* set) traces every other pair of
        fetches, the other pairs measure the untraced latency the
        overhead is taken against.  Pairs, because the browsing session
        alternates relevant and irrelevant visits; the phase flips
        between sessions so each visit is traced in every other one.
        """
        index = 0
        while index < len(stream) if deadline is None else time.perf_counter() < deadline:
            fetch = stream[index % len(stream)]
            traced = trace_phase is not None and (index // 2 + trace_phase) % 2 == 1
            index += 1
            self.outcomes.append(await self.fetch(agent, fetch, traced))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _usage() -> Tuple[float, int]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


async def _session(config: dict) -> dict:
    agents = Agents(config["port"], config["lossy"], config["delivery"])
    streams = [[Fetch(*entry) for entry in stream] for stream in config["streams"]]
    for entry in config["client_warm"]:
        await agents.fetch(0, Fetch(*entry), traced=False)
    if config["warmup_s"]:
        deadline = time.perf_counter() + config["warmup_s"]
        await asyncio.gather(
            *(agents.run(agent, stream, deadline, None) for agent, stream in enumerate(streams))
        )
    agents.outcomes.clear()
    _emit({"warm": True})
    # Blocks the loop on purpose: nothing runs until the window opens.
    json.loads(sys.stdin.readline())
    cpu_before, _ = _usage()
    start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + config["seconds"] if config["seconds"] else None
    await asyncio.gather(
        *(agents.run(agent, stream, deadline, config["trace_phase"])
          for agent, stream in enumerate(streams))
    )
    end_ns = time.perf_counter_ns()
    cpu_after, rss_kb = _usage()
    return {
        "done": True,
        "window_s": (end_ns - start_ns) / 1e9,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "cpu_s": cpu_after - cpu_before,
        "maxrss_kb": rss_kb,
        "outcomes": [dataclasses.asdict(o) for o in agents.outcomes],
    }


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    recorder = None
    if config["trace_phase"] is not None:
        recorder = tracing.Recorder()
        tracing.install_client(recorder)
    report = asyncio.run(_session(config))
    Path(config["outcomes"]).write_text(json.dumps(report.pop("outcomes")), encoding="utf-8")
    if recorder is not None:
        recorder.dump(config["spans"], "client")
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
