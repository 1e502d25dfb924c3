"""Spans around the public calls into each layer, recorded from outside.

The program under test carries no benchmark code: in a traced run the
benchmark replaces a public function or method with a wrapper that
records one span per call and then calls the original.  A span is
``(span_id, parent_id, name, start_ns, end_ns, fetch, extra)``; the
process id is written once per dump.  Names start with the layer
(``net.``, ``prep.``, ``core.``, ``coding.``, ``protocol.``,
``channel.``, ``broadcast.``).

Recording is scoped by a context variable: outside a recording context
a wrapper only checks the variable and calls through, so a process can
trace some fetches and not others (the traced run interleaves traced
and untraced fetches to measure the tracing overhead).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from typing import Any, Callable, List, Optional

#: ``(fetch, parent_span_id)`` while recording, ``None`` otherwise.
STATE: "contextvars.ContextVar[Optional[tuple]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Recording with no enclosing fetch (server and proxy processes).
ROOT = (None, None)

#: Hard cap on spans kept per process; past it spans are counted only.
MAX_SPANS = 3_000_000

_now = time.perf_counter_ns


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.dropped = 0
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, fetch: Any = None):
        state = STATE.get()
        if state is None:
            return None
        if fetch is None:
            fetch = state[0]
        span_id = next(self._ids)
        token = STATE.set((fetch, span_id))
        return [span_id, state[1], name, _now(), 0, fetch, None], token

    def _close(self, opened, extra=None) -> None:
        span, token = opened
        span[4] = _now()
        span[6] = extra
        STATE.reset(token)
        self._keep(span)

    def _keep(self, span: list) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        extra: Optional[Callable[..., Any]] = None,
        before: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        *before(args)* runs ahead of the call; its value, the call's
        result and the arguments go to *extra*, whose return value is
        stored on the span.  A call that raises stores the exception's
        type name instead.
        """
        original = _lookup(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            opened = recorder._open(name)
            if opened is None:
                return original(*args, **kwargs)
            seen = before(args) if before is not None else None
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                recorder._close(opened, {"raised": type(exc).__name__})
                raise
            recorder._close(opened, extra(seen, result, args) if extra is not None else None)
            return result

        setattr(owner, attr, traced)

    def wrap_async(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every await of the coroutine ``owner.attr``."""
        original = _lookup(owner, attr)
        recorder = self

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            opened = recorder._open(name)
            if opened is None:
                return await original(*args, **kwargs)
            try:
                return await original(*args, **kwargs)
            finally:
                recorder._close(opened)

        setattr(owner, attr, traced)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """One span per exhausted generator, its busy ns as ``extra``.

        The span's wall interval includes the consumer's work between
        items; the time spent inside the generator itself is kept as
        the span's ``extra`` and counts as its self time.
        """
        original = _lookup(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            opened = recorder._open(name)
            if opened is None:
                yield from inner
                return
            # The span stays open across yields: restore the caller's
            # context before handing any item out.
            span, token = opened
            STATE.reset(token)
            busy = 0
            while True:
                began = _now()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += _now() - began
                    break
                busy += _now() - began
                yield item
            span[4] = _now()
            span[6] = busy
            recorder._keep(span)

        setattr(owner, attr, traced)

    def hook(self, owner: type, attr: str, after: Callable[[Any], None]) -> None:
        """Call *after(result)* after every call of classmethod ``owner.attr``."""
        function = owner.__dict__[attr].__func__

        def hooked(cls, *args, **kwargs):
            result = function(cls, *args, **kwargs)
            after(result)
            return result

        setattr(owner, attr, classmethod(hooked))

    # -- output ------------------------------------------------------------

    def dump(self, path: str, role: str) -> int:
        """Write the spans as JSON; returns the number written."""
        spans = [
            [sid, parent, name, start, end, _fetch_label(fetch), extra]
            for sid, parent, name, start, end, fetch, extra in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "role": role,
                    "pid": os.getpid(),
                    "dropped": self.dropped,
                    "fields": ["id", "parent", "name", "start_ns", "end_ns", "fetch", "extra"],
                    "spans": spans,
                },
                handle,
            )
        return len(spans)


def _fetch_label(fetch: Any) -> Optional[str]:
    if isinstance(fetch, dict):
        return fetch.get("transfer") or fetch.get("label")
    return fetch


def _lookup(owner: Any, attr: str) -> Any:
    """The plain function behind ``owner.attr``, inherited or not."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return klass.__dict__[attr]
        raise AttributeError(f"{owner.__name__} has no {attr!r}")
    return getattr(owner, attr)


# -- the wrapped surface, per process ----------------------------------------


def _frame_extra(_seen, frame, args) -> List[int]:
    return [len(args[0]), 1 if frame.intact else 0]


def _matmul_extra(_seen, _result, args) -> int:
    rows, packets, size = args[1], args[2], args[3]
    return (len(rows) + len(packets)) * size


def _intact_before(args) -> int:
    return args[0].intact_count


def _grew(before, _result, args) -> int:
    return 1 if args[0].intact_count > before else 0


def _synced_before(args) -> bool:
    return args[0].synced


def _synced_now(before, _result, args) -> int:
    return 1 if args[0].synced and not before else 0


def _wrap_coding(recorder: Recorder) -> None:
    from repro.coding.backend import get_backend
    from repro.coding.matrix import GFMatrix
    from repro.coding.rs import SystematicRSCodec

    recorder.wrap(SystematicRSCodec, "__init__", "coding.codec_setup")
    recorder.wrap(GFMatrix, "inverse", "coding.inverse")
    recorder.wrap(type(get_backend()), "matmul", "coding.matmul", extra=_matmul_extra)


def install_client(recorder: Recorder) -> None:
    """Wrap the client-side calls of a fetch (unicast and carousel)."""
    import asyncio

    import repro.broadcast.receiver as receiver_module
    import repro.net.client as client_module
    from repro.broadcast.receiver import CarouselReceiver
    from repro.coding.rs import SystematicRSCodec
    from repro.net.client import NetClient
    from repro.obs.live import TraceContext
    from repro.protocol import TransferEngine

    original_fetch = NetClient.fetch

    @functools.wraps(original_fetch)
    async def fetch(self, document_id, request=None):
        if STATE.get() is None:
            return await original_fetch(self, document_id, request)
        opened = recorder._open(
            "net.client.fetch", fetch={"label": f"fetch-{next(recorder._ids)}"}
        )
        try:
            return await original_fetch(self, document_id, request)
        finally:
            recorder._close(opened)

    NetClient.fetch = fetch

    def remember_transfer(context) -> None:
        state = STATE.get()
        if state is not None and isinstance(state[0], dict):
            state[0]["transfer"] = context.transfer_id

    recorder.hook(TraceContext, "mint", remember_transfer)
    # Every socket wait of a fetch goes through asyncio.wait_for; its
    # span also covers the time the agent waits for the event loop
    # while the other agent computes.  Writes, closes and the reconnect
    # backoff wait too.
    recorder.wrap_async(asyncio, "wait_for", "net.client.wait")
    recorder.wrap_async(asyncio, "sleep", "net.client.wait")
    recorder.wrap_async(asyncio.StreamWriter, "drain", "net.client.wait")
    recorder.wrap_async(asyncio.StreamWriter, "wait_closed", "net.client.wait")
    recorder.wrap_async(client_module, "read_message", "net.client.read_message")
    recorder.wrap_async(client_module, "read_expected", "net.client.read_expected")
    recorder.wrap(client_module, "decode_frame", "coding.frame_check", extra=_frame_extra)
    recorder.wrap(receiver_module, "parse_frame", "coding.frame_check", extra=_frame_extra)
    recorder.wrap(
        TransferEngine, "on_frame_intact", "protocol.on_frame_intact",
        before=_intact_before, extra=_grew,
    )
    recorder.wrap(TransferEngine, "on_frame_corrupt", "protocol.on_frame_corrupt")
    recorder.wrap(TransferEngine, "on_frame_lost", "protocol.on_frame_lost")
    recorder.wrap(TransferEngine, "on_round_ended", "protocol.on_round_ended")
    recorder.wrap(client_module, "reconstruct_payload", "prep.reconstruct")
    recorder.wrap(receiver_module, "reconstruct_payload", "prep.reconstruct")
    _wrap_coding(recorder)
    recorder.wrap(SystematicRSCodec, "decode", "coding.decode")
    recorder.wrap(
        CarouselReceiver, "on_frame", "broadcast.on_frame",
        before=_intact_before, extra=_grew,
    )
    recorder.wrap(
        CarouselReceiver, "on_air_index", "broadcast.on_air_index",
        before=_synced_before, extra=_synced_now,
    )


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side preparation, coding and carousel calls."""
    from repro.broadcast.scheduler import CarouselScheduler
    from repro.coding.packets import Packetizer
    from repro.coding.rs import SystematicRSCodec
    from repro.core.pipeline import SCPipeline
    from repro.obs.live import TraceContext
    from repro.prep.prepare import PreparedDocument
    from repro.prep.service import PreparationService

    def adopt_transfer(context) -> None:
        # A connection handler records under the client's transfer id.
        if context is not None and STATE.get() is not None:
            STATE.set((context.transfer_id, None))

    recorder.hook(TraceContext, "from_wire", adopt_transfer)
    recorder.wrap(PreparationService, "prepare", "prep.prepare")
    recorder.wrap(SCPipeline, "run", "core.sc_pipeline")
    recorder.wrap(Packetizer, "cook", "coding.cook")
    _wrap_coding(recorder)
    recorder.wrap(SystematicRSCodec, "encode", "coding.encode")
    recorder.wrap(PreparedDocument, "wire_frames", "prep.wire_frames")
    recorder.wrap_generator(CarouselScheduler, "air_cycle", "broadcast.air_cycle")


def propagate_to_executor(loop) -> None:
    """Run executor jobs in the submitting task's context.

    ``loop.run_in_executor`` does not carry context variables into the
    worker thread (``asyncio.to_thread`` does); the traced server needs
    them so preparation spans keep the connection's transfer id.
    """
    original = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        context = contextvars.copy_context()
        return original(executor, functools.partial(context.run, func), *args)

    loop.run_in_executor = run_in_executor
