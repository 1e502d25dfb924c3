"""Server-side processes of the benchmark: the NetServer and the chaos proxy.

Run as ``python3 perfbench/serve.py CONFIG.json``.  The config names
the role (``server`` or ``proxy``) and everything the role needs; the
process prints one JSON line ``{"ready": true, "port": P}`` once it
serves, then answers one JSON line per command read from stdin:

``{"cmd": "usage"}``
    CPU seconds (user+sys) and peak RSS of this process, and the count
    of unhandled asyncio task exceptions seen by the loop.
``{"cmd": "stats"}``
    Proxy only: ``ChaosProxy.stats`` plus the channel model's
    stationary corruption rate.
``{"cmd": "stop"}``
    Stop serving, write the recorded spans (traced runs), answer with
    a final ``usage`` and exit.  End of stdin does the same.
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CAROUSEL_INTERVAL_S,
    LOSSY_ALPHA,
    LOSSY_BANDWIDTH_KBPS,
    LOSSY_BURST,
    LOSSY_FRAME_BYTES,
    Fetch,
)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _usage(unhandled) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "unhandled": len(unhandled),
        "unhandled_types": sorted(set(unhandled)),
    }


def _commands(loop: asyncio.AbstractEventLoop) -> "asyncio.Queue[dict]":
    """Stdin command lines, delivered on the loop; EOF reads as stop."""
    queue: "asyncio.Queue[dict]" = asyncio.Queue()

    def reader() -> None:
        for line in sys.stdin:
            line = line.strip()
            if line:
                loop.call_soon_threadsafe(queue.put_nowait, json.loads(line))
        loop.call_soon_threadsafe(queue.put_nowait, {"cmd": "stop"})

    threading.Thread(target=reader, daemon=True).start()
    return queue


async def _serve(config: dict, recorder) -> None:
    from repro.broadcast import CarouselScheduler
    from repro.net.server import NetServer
    from repro.prep import PreparationService

    unhandled = []

    def on_exception(loop, context) -> None:
        exception = context.get("exception")
        unhandled.append(type(exception).__name__ if exception else "error")

    loop = asyncio.get_running_loop()
    loop.set_exception_handler(on_exception)
    if recorder is not None:
        tracing.propagate_to_executor(loop)
        tracing.STATE.set(tracing.ROOT)

    service = PreparationService()
    corpus = Path(config["corpus"])
    for path in sorted(corpus.glob("*.xml")):
        service.add_path(path)
    for entry in config["warm"]:
        fetch = Fetch(*entry)
        service.prepare(fetch.doc, fetch.request())
    carousel = None
    if config["delivery"] == "carousel":
        hotness = config["hotness"]
        request = Fetch("", config["carousel_packet_size"]).request()
        for doc, count in hotness.items():
            for _ in range(count):
                service.prepare(doc, request)
        carousel = CarouselScheduler.from_service(
            service, sorted(hotness), request=request, schedule="skewed"
        )
    server = NetServer(service, carousel=carousel, carousel_interval=CAROUSEL_INTERVAL_S)
    await server.start()
    _emit({"ready": True, "port": server.port})
    await _control(config, recorder, unhandled, server.stop)


async def _proxy(config: dict, recorder) -> None:
    from repro.channel import GilbertElliottModel
    from repro.channel.model import DISCONNECT, matched_transitions
    from repro.net.chaos import ChaosProxy

    class LossyLink(GilbertElliottModel):
        """Gilbert–Elliott corruption plus rare severed links, on one
        link of fixed bandwidth that every connection shares.

        A frame leaves when the frames before it have had their air
        time.  ``decide`` runs once per frame on the proxy's loop and
        holds the loop while the link is busy, which queues everything
        behind it, as a shared medium does.  It wakes ``SLACK_S`` early
        so that sleeping longer than asked does not slow the link.
        """

        SLACK_S = 0.001

        def __init__(
            self, *, link_rng: random.Random, disconnect: float, frame_bytes: int, **kwargs
        ) -> None:
            super().__init__(**kwargs)
            self.link_rng = link_rng
            self.disconnect = disconnect
            self.airtime = self.transmission_time(frame_bytes)
            self.free_at = 0.0

        def decide(self) -> str:
            now = time.perf_counter()
            self.free_at = max(self.free_at, now) + self.airtime
            if self.free_at - now > 2 * self.SLACK_S:
                time.sleep(self.free_at - now - self.SLACK_S)
            if self.link_rng.random() < self.disconnect:
                return self._record(DISCONNECT)
            return super().decide()

    unhandled = []
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(
        lambda loop, context: unhandled.append(type(context.get("exception")).__name__)
    )
    if recorder is not None:
        recorder.wrap(LossyLink, "decide", "channel.decide")
        tracing.STATE.set(tracing.ROOT)
    seed = config["seed"]
    good_to_bad, bad_to_good = matched_transitions(LOSSY_ALPHA, LOSSY_BURST)
    model = LossyLink(
        rng=random.Random(f"channel/{seed}"),
        link_rng=random.Random(f"link/{seed}"),
        disconnect=config["disconnect"],
        frame_bytes=LOSSY_FRAME_BYTES,
        bandwidth_kbps=LOSSY_BANDWIDTH_KBPS,
        good_to_bad=good_to_bad,
        bad_to_good=bad_to_good,
    )
    proxy = ChaosProxy(
        "127.0.0.1", config["upstream_port"], model=model,
        max_disconnects=config["max_disconnects"],
    )
    await proxy.start()
    _emit({"ready": True, "port": proxy.port, "stationary_alpha": model.stationary_alpha})

    def stats() -> dict:
        return {**proxy.stats, "stationary_alpha": model.stationary_alpha}

    await _control(config, recorder, unhandled, proxy.stop, stats)


async def _control(config, recorder, unhandled, stop, stats=None) -> None:
    queue = _commands(asyncio.get_running_loop())
    while True:
        command = (await queue.get()).get("cmd")
        if command == "usage":
            _emit(_usage(unhandled))
        elif command == "stats" and stats is not None:
            _emit(stats())
        elif command == "stop":
            if recorder is not None:
                tracing.STATE.set(None)
            await stop()
            written = 0
            if recorder is not None:
                written = recorder.dump(config["spans"], config["role"])
            _emit({**_usage(unhandled), "stopped": True, "spans": written})
            return
        else:
            _emit({"error": f"unknown command {command!r}"})


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    recorder = None
    if config["trace"]:
        recorder = tracing.Recorder()
        if config["role"] == "server":
            tracing.install_server(recorder)
    run = _serve if config["role"] == "server" else _proxy
    asyncio.run(run(config, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
