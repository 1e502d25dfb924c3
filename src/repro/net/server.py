"""Asyncio TCP server streaming cooked documents to §4.2 clients.

:class:`NetServer` is the networked counterpart of the in-process
drivers: it frames cooked packets over real sockets and leaves every
protocol decision to the client-side
:class:`~repro.protocol.TransferEngine`.  What the server owns is the
I/O discipline the paper's broker needs on a weak link:

* one transfer session per connection, each with its **own engine
  instance** doing the server-side round bookkeeping (the engine's
  retransmission bound stops a client that asks for rounds forever);
* a **bounded send queue** per connection — the handler blocks when a
  slow reader stops draining the socket, so a stalled client holds at
  most ``send_queue_frames`` queued writes of server memory
  (backpressure, not buffering).  With the default vectored send path
  each queued write is a coalesced batch of at most
  ``send_batch_bytes`` bytes — a whole round usually goes out as a
  handful of ``write``/``drain`` pairs over cached wire envelopes,
  with the byte bound ``send_queue_frames × send_batch_bytes``;
* **idle/stall timeouts** — every wait on the peer is bounded by the
  shared :data:`repro.protocol.DEFAULT_ROUND_TIMEOUT`, and total
  rounds by :data:`repro.protocol.DEFAULT_MAX_ROUNDS`;
* **graceful drain** on shutdown: stop accepting, let in-flight
  transfers finish within a deadline, then cancel stragglers.

Resume support: a ``HELLO`` (or ``NEXT_ROUND``) listing cached intact
sequences makes the next round skip them — a reconnecting client only
pays for the packets it is missing.

Operational telemetry (``repro.obs.live``): every connection adopts
the client's wire-propagated :class:`~repro.obs.live.TraceContext`
(so server-side trace events share the client's transfer ID across
reconnects), keeps a bounded :class:`~repro.obs.flight.FlightRecorder`
ring that is dumped only on abnormal close, and feeds a rolling
:class:`~repro.obs.slo.SLOTracker`.  :meth:`NetServer.stats_snapshot`
exposes all of it — served in-band via the ``STATS`` admin frame and
over HTTP by :class:`~repro.net.stats_http.StatsHTTP`.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.ewma import AdaptiveRedundancyController

from repro.broadcast.scheduler import CarouselScheduler
from repro.coding.rs import CodecError
from repro.net.wire import (
    MSG_DONE,
    MSG_ERROR,
    MSG_FRAME,
    MSG_HELLO,
    MSG_MANIFEST,
    MSG_NEXT_ROUND,
    MSG_ROUND_END,
    MSG_STATS,
    ConnectionLost,
    WireError,
    decode_json,
    encode_json,
    encode_message,
    read_expected,
)
from repro.obs.flight import DEFAULT_FLIGHT_EVENTS, FlightRecorder
from repro.obs.live import TraceContext
from repro.obs.runtime import OBS
from repro.obs.slo import (
    DEFAULT_ERROR_BUDGET,
    DEFAULT_SLO_WINDOW,
    DEFAULT_TARGET_SECONDS,
    SLOTracker,
)
from repro.obs.trace import NET_CONN_CLOSE, NET_CONN_OPEN, NET_FLIGHT_DUMP, NET_ROUND_SERVED
from repro.prep.prepare import PreparedDocument
from repro.prep.request import DeliveryMode, PrepRequest
from repro.protocol import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT, TransferEngine

#: Connection outcomes that trigger a flight-recorder dump: the closes
#: where post-mortem evidence matters (the peer vanished, a wait timed
#: out, the stream broke, or the handler was killed mid-transfer).
ABNORMAL_OUTCOMES = frozenset({"timeout", "client_gone", "cancelled", "error"})

#: Outcomes folded into the SLO as successes: the client confirmed a
#: verdict with ``DONE`` (``decoded`` / ``early_stop`` / legacy
#: ``done``).
SLO_OK_OUTCOMES = frozenset({"decoded", "early_stop", "done"})

#: Outcomes folded into the SLO as errors.  ``client_gone`` is *not*
#: one: with reconnect-and-resume a severed connection is routine
#: weak-link behaviour, not a serving failure.
SLO_ERROR_OUTCOMES = frozenset({"timeout", "round_bound", "error", "failed"})

#: Abnormal-close dumps kept in memory for ``stats_snapshot``.
FLIGHT_DUMPS_KEPT = 32

#: Default coalescing bound for the vectored send path: frames of one
#: round are joined into socket writes of at most this many bytes.
#: Large enough to amortize the syscall + drain across a whole round
#: at the paper's geometries, small enough that a single batch never
#: dominates connection memory.
SEND_BATCH_BYTES = 64 * 1024

#: Per-client adaptive-γ controllers kept for reconnect continuity; a
#: client that resumes under the same transfer ID picks up its channel
#: estimate where the severed connection left it.
MAX_GAMMA_CONTROLLERS = 256


class DocumentStore:
    """Trivial in-memory document_id → :class:`PreparedDocument` store.

    Anything with a ``get(document_id)`` returning a
    ``PreparedDocument`` or ``None`` satisfies the server's store
    contract (a plain dict works); this class exists for the common
    case and for symmetry with the prototype's gateway-backed store.
    """

    def __init__(self) -> None:
        self._documents: Dict[str, PreparedDocument] = {}

    def add(self, prepared: PreparedDocument) -> None:
        self._documents[prepared.document_id] = prepared

    def get(self, document_id: str) -> Optional[PreparedDocument]:
        return self._documents.get(document_id)

    def __len__(self) -> int:
        return len(self._documents)


class _BoundedSender:
    """Bounded send queue + writer task for one connection.

    ``send`` blocks once ``capacity`` messages are queued and the
    writer task is stuck in ``drain()`` against a slow reader — that
    block *is* the backpressure propagating to the round streamer.
    After a write failure the queue keeps draining (discarding) so a
    blocked producer can never deadlock; the failure resurfaces on the
    next ``send``/``flush``.

    ``send_many`` is the vectored path: it coalesces a sequence of
    prebuilt wire envelopes (bytes or memoryview slices) into joined
    writes of at most ``batch_bytes`` each — one ``b"".join`` copy at
    the socket boundary and one queue slot / ``drain()`` per batch
    instead of per frame.  Backpressure is preserved: a batch is one
    queue item, so a slow reader still caps queued memory at roughly
    ``capacity × batch_bytes``.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        capacity: int,
        batch_bytes: int = SEND_BATCH_BYTES,
    ) -> None:
        self._writer = writer
        self._queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(capacity)
        self._batch_bytes = batch_bytes
        self._failure: Optional[ConnectionLost] = None
        self.high_water = 0
        self.bytes_sent = 0
        self.queued_bytes = 0
        self.high_water_bytes = 0
        self._task = asyncio.ensure_future(self._run())

    async def _put(self, data: Union[bytes, memoryview]) -> None:
        await self._queue.put(data)
        self.queued_bytes += len(data)
        if self.queued_bytes > self.high_water_bytes:
            self.high_water_bytes = self.queued_bytes
        depth = self._queue.qsize()
        if depth > self.high_water:
            self.high_water = depth

    async def send(self, data: Union[bytes, memoryview]) -> None:
        if self._failure is not None:
            raise self._failure
        await self._put(data)

    async def send_many(
        self, chunks: Sequence[Union[bytes, memoryview]]
    ) -> Tuple[int, int]:
        """Queue *chunks* as coalesced batches; returns (batches, bytes).

        Consecutive chunks are joined until adding the next one would
        exceed ``batch_bytes`` (a single oversized chunk still goes
        out alone).  Each batch is written to the socket with one
        ``write`` + ``drain``.
        """
        if self._failure is not None:
            raise self._failure
        batches = 0
        total = 0
        group: List[Union[bytes, memoryview]] = []
        group_size = 0
        for chunk in chunks:
            length = len(chunk)
            if group and group_size + length > self._batch_bytes:
                await self._put(b"".join(group))
                batches += 1
                group = []
                group_size = 0
            group.append(chunk)
            group_size += length
            total += length
        if group:
            await self._put(b"".join(group))
            batches += 1
        return batches, total

    def try_send(self, data: Union[bytes, memoryview]) -> bool:
        """Non-blocking send for the broadcast path.

        A full queue (or a dead socket) returns ``False`` instead of
        blocking: the carousel never waits for its slowest subscriber —
        a receiver that cannot drain simply misses the slot and picks
        the packet up on a later cycle, exactly the broadcast-medium
        semantics the erasure code is built for.
        """
        if self._failure is not None:
            return False
        try:
            self._queue.put_nowait(data)
        except asyncio.QueueFull:
            return False
        self.queued_bytes += len(data)
        if self.queued_bytes > self.high_water_bytes:
            self.high_water_bytes = self.queued_bytes
        depth = self._queue.qsize()
        if depth > self.high_water:
            self.high_water = depth
        return True

    async def flush(self) -> None:
        """Wait until everything queued so far is on the socket."""
        await self._queue.join()
        if self._failure is not None:
            raise self._failure

    async def close(self) -> None:
        await self._queue.put(None)
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    def abort(self) -> None:
        self._task.cancel()

    async def _run(self) -> None:
        while True:
            data = await self._queue.get()
            try:
                if data is None:
                    return
                if self._failure is None:
                    try:
                        self._writer.write(data)
                        await self._writer.drain()
                        self.bytes_sent += len(data)
                    except (ConnectionError, OSError) as exc:
                        self._failure = ConnectionLost(str(exc))
            finally:
                if data is not None:
                    self.queued_bytes -= len(data)
                self._queue.task_done()


class _ConnState:
    """Live bookkeeping for one connection, exposed by ``stats_snapshot``.

    Owns the connection's :class:`FlightRecorder` ring; everything else
    is a plain field the handler updates as the transfer progresses.
    """

    __slots__ = (
        "conn_id",
        "peer",
        "transfer_id",
        "span",
        "document",
        "rounds",
        "frames_sent",
        "resumed",
        "started",
        "sender",
        "flight",
        "gamma",
        "loss_estimate",
    )

    def __init__(self, conn_id: int, peer: str, flight_events: int) -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.transfer_id: Optional[str] = None
        self.span: Optional[str] = None
        self.document: Optional[str] = None
        self.rounds = 0
        self.frames_sent = 0
        self.resumed = False
        self.started = time.monotonic()
        self.sender: Optional[_BoundedSender] = None
        self.flight = FlightRecorder(capacity=flight_events)
        #: Adaptive redundancy (None while fixed-γ serving).
        self.gamma: Optional[float] = None
        self.loss_estimate: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        """JSON-safe live view (queue depth read off the sender)."""
        sender = self.sender
        return {
            "conn_id": self.conn_id,
            "peer": self.peer,
            "transfer_id": self.transfer_id,
            "span": self.span,
            "document": self.document,
            "rounds": self.rounds,
            "frames_sent": self.frames_sent,
            "resumed": self.resumed,
            "age_seconds": round(time.monotonic() - self.started, 6),
            "sendq_depth": sender._queue.qsize() if sender is not None else 0,
            "sendq_bytes": sender.queued_bytes if sender is not None else 0,
            "bytes_sent": sender.bytes_sent if sender is not None else 0,
            "flight_events": len(self.flight),
            "gamma": round(self.gamma, 4) if self.gamma is not None else None,
            "loss_estimate": (
                round(self.loss_estimate, 4)
                if self.loss_estimate is not None
                else None
            ),
        }


class NetServer:
    """Serve §4.2 document transfers over TCP; see the module docstring.

    Parameters
    ----------
    store:
        ``get(document_id) -> Optional[PreparedDocument]`` provider.
        Stores that also expose ``prepare(document_id, request)`` —
        e.g. :class:`~repro.prep.service.PreparationService` — cook on
        demand per the client's ``HELLO`` ``prep`` parameters, off the
        event loop.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port`
        after :meth:`start`).
    max_rounds:
        Server-side retransmission bound per connection.
    round_timeout:
        Wall-clock bound on every wait for the peer (seconds).
    send_queue_frames:
        Capacity of the per-connection bounded send queue (measured in
        queued writes; under batching one write is one batch).
    batch_send:
        When True (default) the frames of each round are coalesced
        into joined socket writes of at most *send_batch_bytes* each;
        False restores the one-write-per-frame path (useful for
        comparative tests — the bytes on the wire are identical).
    send_batch_bytes:
        Coalescing bound for the vectored send path.
    slo_target_seconds, slo_error_budget, slo_window:
        Rolling SLO parameters (see :class:`~repro.obs.slo.SLOTracker`).
    flight_events:
        Ring capacity of each connection's flight recorder.
    adaptive_gamma:
        When True, the server estimates each client's per-round loss
        rate from the ``NEXT_ROUND`` feedback (EWMA over
        ``frames lost / frames sent``) and sizes every round as
        ``need × γ`` with γ chosen by
        :class:`~repro.analysis.ewma.AdaptiveRedundancyController` —
        the paper's §4.2 adaptive-γ suggestion applied per client.
        Clean channels converge toward ``gamma_floor`` (fewer
        redundant frames per round); bursty ones push γ up toward
        ``gamma_ceiling``.  Controllers are keyed by transfer ID, so a
        reconnecting client keeps its channel estimate.
    gamma_floor, gamma_ceiling:
        Clamp on the adaptive γ (floor must be ≥ 1).
    gamma_weight:
        EWMA weight for per-round loss observations.
    initial_loss:
        Prior loss-rate estimate before any feedback arrives.
    carousel:
        Optional :class:`~repro.broadcast.CarouselScheduler`.  When
        given, the server runs a broadcast channel next to the unicast
        round protocol: a background task cycles the carousel's air
        index + tagged frame envelopes and fans every slot out to all
        subscribed connections (clients whose ``HELLO`` ``prep`` asks
        for ``delivery=carousel``).  Fan-out is non-blocking — a
        subscriber whose send queue is full misses the slot and
        recovers on a later cycle — so one slow reader never stalls
        the shared stream.
    carousel_interval:
        Pause between carousel cycles (seconds; 0 airs back-to-back,
        yielding to the event loop each slot).
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
        send_queue_frames: int = 32,
        batch_send: bool = True,
        send_batch_bytes: int = SEND_BATCH_BYTES,
        slo_target_seconds: float = DEFAULT_TARGET_SECONDS,
        slo_error_budget: float = DEFAULT_ERROR_BUDGET,
        slo_window: int = DEFAULT_SLO_WINDOW,
        flight_events: int = DEFAULT_FLIGHT_EVENTS,
        adaptive_gamma: bool = False,
        gamma_floor: float = 1.0,
        gamma_ceiling: float = 3.0,
        gamma_weight: float = 0.3,
        initial_loss: float = 0.0,
        carousel: Optional[CarouselScheduler] = None,
        carousel_interval: float = 0.0,
        reuse_port: bool = False,
        sock=None,
        worker_label: Optional[str] = None,
    ) -> None:
        if round_timeout <= 0:
            raise ValueError(f"round_timeout must be positive, got {round_timeout}")
        if send_queue_frames < 1:
            raise ValueError(
                f"send_queue_frames must be >= 1, got {send_queue_frames}"
            )
        if send_batch_bytes < 1:
            raise ValueError(
                f"send_batch_bytes must be >= 1, got {send_batch_bytes}"
            )
        self.store = store
        self.host = host
        self.port = port
        self.max_rounds = max_rounds
        self.round_timeout = round_timeout
        self.send_queue_frames = send_queue_frames
        self.batch_send = batch_send
        self.send_batch_bytes = send_batch_bytes
        self.flight_events = flight_events
        self.adaptive_gamma = adaptive_gamma
        self.gamma_floor = gamma_floor
        self.gamma_ceiling = gamma_ceiling
        self.gamma_weight = gamma_weight
        self.initial_loss = initial_loss
        if carousel_interval < 0:
            raise ValueError(
                f"carousel_interval must be >= 0, got {carousel_interval}"
            )
        self.carousel = carousel
        self.carousel_interval = carousel_interval
        #: conn_id → sender of connections subscribed to the carousel.
        self._subscribers: Dict[int, _BoundedSender] = {}
        self._carousel_task: Optional[asyncio.Task] = None
        self._carousel_wakeup: Optional[asyncio.Event] = None
        #: With ``reuse_port`` each worker process binds its own
        #: ``SO_REUSEPORT`` listener on the same address and the kernel
        #: load-balances accepted connections across them; *sock* is
        #: the fallback for platforms without it (one pre-bound listen
        #: socket shared across workers).  *worker_label* tags this
        #: process's snapshot (and its ``net.*``/``slo.*`` exposition)
        #: inside a multi-worker deployment.
        self.reuse_port = reuse_port
        self._preopened_sock = sock
        self.worker_label = worker_label
        if adaptive_gamma:
            # Validate the knobs eagerly with a throwaway controller so
            # misconfiguration fails at construction, not mid-transfer.
            AdaptiveRedundancyController(
                weight=gamma_weight,
                initial_alpha=initial_loss,
                floor=gamma_floor,
                ceiling=gamma_ceiling,
            )
        #: transfer_id → per-client γ controller, LRU-bounded.
        self._gamma_controllers: "OrderedDict[str, AdaptiveRedundancyController]" = (
            OrderedDict()
        )
        self.slo = SLOTracker(
            window=slo_window,
            error_budget=slo_error_budget,
            target_seconds=slo_target_seconds,
        )
        #: Most recent abnormal-close flight dumps, newest last.
        self.flight_dumps: Deque[Dict[str, Any]] = deque(maxlen=FLIGHT_DUMPS_KEPT)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._live: Dict[int, _ConnState] = {}
        self._conn_seq = 0
        self._draining = False
        #: Plain counters for tests and diagnostics (always on, unlike
        #: the OBS-gated ``net.*`` metric family).
        self.stats: Dict[str, int] = {
            "connections": 0,
            "completed": 0,
            "client_gone": 0,
            "timeouts": 0,
            "errors": 0,
            "rounds_served": 0,
            "frames_sent": 0,
            "bytes_sent": 0,
            "batches_sent": 0,
            "resumed_frames_skipped": 0,
            "sendq_high_water": 0,
            "sendq_high_water_bytes": 0,
            "stats_requests": 0,
            "flight_dumps": 0,
            "adaptive_rounds": 0,
            "adaptive_frames_saved": 0,
            "broadcast_subscriptions": 0,
            "broadcast_slots_dropped": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("NetServer.start() called twice")
        if self._preopened_sock is not None:
            self._server = await asyncio.start_server(
                self._accept, sock=self._preopened_sock
            )
        elif self.reuse_port:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port, reuse_port=True
            )
        else:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.carousel is not None:
            self.carousel.build()
            self._carousel_wakeup = asyncio.Event()
            self._carousel_task = asyncio.ensure_future(self._run_carousel())

    async def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: refuse new work, finish in-flight transfers.

        Waits up to *drain_timeout* seconds (default: the round
        timeout) for active connections, then cancels whatever is
        left.  Safe to call twice.
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if drain_timeout is None:
            drain_timeout = self.round_timeout
        active = {task for task in self._connections if not task.done()}
        if active and drain_timeout > 0:
            await asyncio.wait(active, timeout=drain_timeout)
        for task in self._connections:
            if not task.done():
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if self._carousel_task is not None:
            self._carousel_task.cancel()
            try:
                await self._carousel_task
            except asyncio.CancelledError:
                pass
            self._carousel_task = None

    def kill(self) -> None:
        """Hard stop: drop the listener and abort every connection now.

        The chaos-test counterpart of :meth:`stop` — clients see a
        reset mid-round, exactly like a crashed broker.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._carousel_task is not None:
            self._carousel_task.cancel()
            self._carousel_task = None
        for task in self._connections:
            task.cancel()

    @property
    def active_connections(self) -> int:
        return sum(1 for task in self._connections if not task.done())

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -----------------------------------------------

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if self._draining:
            writer.close()
            return
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
        self._conn_seq += 1
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        state = _ConnState(self._conn_seq, peer, self.flight_events)
        self._live[state.conn_id] = state
        if OBS.enabled:
            OBS.metrics.gauge(
                "net.active_connections", "transfers in flight"
            ).inc()
        sender = _BoundedSender(
            writer, self.send_queue_frames, self.send_batch_bytes
        )
        state.sender = sender
        outcome = "error"
        try:
            outcome = await self._serve_transfer(reader, sender, state)
        except asyncio.TimeoutError:
            outcome = "timeout"
            self.stats["timeouts"] += 1
            state.flight.record("timeout", waited=self.round_timeout)
        except ConnectionLost as exc:
            outcome = "client_gone"
            self.stats["client_gone"] += 1
            state.flight.record("client_gone", detail=str(exc))
        except WireError as exc:
            self.stats["errors"] += 1
            state.flight.record("wire_error", detail=str(exc))
            try:
                await sender.send(encode_json(MSG_ERROR, {"message": str(exc)}))
                await sender.flush()
            except ConnectionLost:
                pass
        except asyncio.CancelledError:
            outcome = "cancelled"
            state.flight.record("cancelled")
            sender.abort()
            self._finish(state, outcome)
            raise
        finally:
            self.stats["bytes_sent"] += sender.bytes_sent
            if sender.high_water > self.stats["sendq_high_water"]:
                self.stats["sendq_high_water"] = sender.high_water
            if sender.high_water_bytes > self.stats["sendq_high_water_bytes"]:
                self.stats["sendq_high_water_bytes"] = sender.high_water_bytes
            if outcome != "cancelled":
                self._finish(state, outcome)
            await sender.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if OBS.enabled:
                OBS.metrics.gauge("net.active_connections").dec()
                OBS.metrics.counter(
                    "net.connections", "transfer connections served"
                ).labels(outcome=outcome).inc()

    def _finish(self, state: _ConnState, outcome: str) -> None:
        """Close out one connection: flight dump, SLO, trace event."""
        self._live.pop(state.conn_id, None)
        elapsed = time.monotonic() - state.started
        if outcome in ABNORMAL_OUTCOMES:
            dump = state.flight.dump(outcome)
            dump.update(
                conn_id=state.conn_id,
                peer=state.peer,
                transfer_id=state.transfer_id,
                document=state.document,
                elapsed=round(elapsed, 6),
            )
            self.flight_dumps.append(dump)
            self.stats["flight_dumps"] += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "net.flight.dumps", "abnormal-close flight dumps"
                ).labels(reason=outcome).inc()
                OBS.trace.emit(
                    NET_FLIGHT_DUMP,
                    transfer_id=state.transfer_id,
                    reason=outcome,
                    events=dump["recorded"],
                    dropped=dump["dropped"],
                )
        if outcome in SLO_OK_OUTCOMES:
            self.slo.observe(elapsed, ok=True)
        elif outcome in SLO_ERROR_OUTCOMES:
            self.slo.observe(elapsed, ok=False)
        if OBS.enabled and outcome != "stats":
            OBS.trace.emit(
                NET_CONN_CLOSE,
                transfer_id=state.transfer_id,
                outcome=outcome,
                rounds=state.rounds,
                frames=state.frames_sent,
                elapsed=round(elapsed, 6),
            )

    async def _serve_transfer(
        self, reader: asyncio.StreamReader, sender: _BoundedSender, state: _ConnState
    ) -> str:
        msg_type, body = await asyncio.wait_for(
            read_expected(reader, MSG_HELLO, MSG_STATS), self.round_timeout
        )
        if msg_type == MSG_STATS:
            # Admin probe: answer with one snapshot and hang up.
            self.stats["stats_requests"] += 1
            await sender.send(encode_json(MSG_STATS, self.stats_snapshot()))
            await sender.flush()
            return "stats"
        hello = decode_json(body)
        document_id = str(hello.get("doc", ""))
        state.document = document_id
        trace = TraceContext.from_wire(hello.get("trace"))
        if trace is not None:
            state.transfer_id = trace.transfer_id
            state.span = trace.span_id
        else:
            # Legacy client: correlate under a server-local ID.
            state.transfer_id = f"conn{state.conn_id}"
        state.resumed = bool(hello.get("have"))
        state.flight.record(
            "hello",
            doc=document_id,
            have=len(hello.get("have") or ()),
            span=state.span,
        )
        if OBS.enabled:
            OBS.trace.emit(
                NET_CONN_OPEN,
                transfer_id=state.transfer_id,
                document=document_id,
                span=state.span,
                resumed=state.resumed,
            )
        try:
            prep_field = hello.get("prep")
            request = (
                PrepRequest.from_wire(prep_field) if prep_field is not None else None
            )
            if request is not None and request.delivery is DeliveryMode.CAROUSEL:
                if self.carousel is None:
                    raise ValueError(
                        "carousel delivery not enabled on this server"
                    )
                return await self._serve_carousel(reader, sender, state)
            prepared = await self._prepare(document_id, request)
        except ValueError as exc:
            # Malformed prep parameters, a delivery mode the server
            # does not offer, or a request the document cannot satisfy
            # (e.g. a query measure without a query).
            await sender.send(
                encode_json(MSG_ERROR, {"message": f"bad prep parameters: {exc}"})
            )
            await sender.flush()
            self.stats["errors"] += 1
            state.flight.record("bad_request", detail=str(exc))
            return "bad_request"
        except CodecError as exc:
            # The document parsed but cannot be cooked, e.g. it needs
            # more raw packets than GF(2^8) has codewords.  Refuse it
            # with a typed error rather than dropping the connection,
            # which the client would take for a weak link and redial.
            await sender.send(
                encode_json(
                    MSG_ERROR, {"message": f"cannot serve {document_id!r}: {exc}"}
                )
            )
            await sender.flush()
            self.stats["errors"] += 1
            state.flight.record("prep_error", detail=str(exc))
            return "prep_error"
        if prepared is None:
            await sender.send(
                encode_json(MSG_ERROR, {"message": f"unknown document {document_id!r}"})
            )
            await sender.flush()
            self.stats["errors"] += 1
            state.flight.record("unknown_document", doc=document_id)
            return "unknown_document"
        skip = self._valid_sequences(hello.get("have", ()), prepared.n)

        # Per-connection engine: the server never sees frame outcomes
        # (the client decides), so its engine instance only does the
        # round bookkeeping — and enforces the retransmission bound
        # against clients that keep asking.
        engine = TransferEngine(
            prepared.m,
            prepared.n,
            max_rounds=self.max_rounds,
            document_id=document_id,
        )
        engine.start()

        cooked = prepared.cooked
        await sender.send(
            encode_json(
                MSG_MANIFEST,
                {
                    "doc": document_id,
                    "m": prepared.m,
                    "n": prepared.n,
                    "packet_size": cooked.packet_size,
                    "original_size": cooked.original_size,
                    "systematic": bool(getattr(cooked.codec, "systematic", False)),
                    "profile": list(prepared.content_profile),
                    "skip": sorted(skip),
                },
            )
        )
        state.flight.record("manifest", m=prepared.m, n=prepared.n, skip=len(skip))

        # Serialize once per connection (and, for preparation-service
        # stores, once per *cooked document*: the envelopes are cached
        # next to the cooked packets, so a cache hit re-serializes
        # nothing and every round below is pure buffer handoff).
        controller: Optional[AdaptiveRedundancyController] = None
        if self.adaptive_gamma:
            controller = self._gamma_controller(state.transfer_id, prepared.m)

        envelopes = self._wire_envelopes(prepared)
        while True:
            missing = [
                sequence
                for sequence in range(len(envelopes))
                if sequence not in skip
            ]
            self.stats["resumed_frames_skipped"] += len(envelopes) - len(missing)
            if controller is not None:
                # Adaptive round sizing: the client still needs
                # ``need`` intact packets to decode; stream
                # ``need × γ`` of its missing sequences (in sequence
                # order, preserving the content-profile prefix) and
                # hold the rest back for later rounds.
                gamma = controller.gamma()
                need = prepared.m - len(skip)
                if 0 < need <= len(missing):
                    send_count = min(
                        len(missing), max(need, math.ceil(need * gamma))
                    )
                else:
                    send_count = len(missing)
                saved = len(missing) - send_count
                state.gamma = gamma
                self.stats["adaptive_rounds"] += 1
                self.stats["adaptive_frames_saved"] += saved
                if OBS.enabled:
                    OBS.metrics.gauge(
                        "net.adaptive.gamma", "per-client redundancy ratio"
                    ).set(gamma)
                    OBS.metrics.gauge(
                        "net.adaptive.alpha", "EWMA per-client loss estimate"
                    ).set(controller.alpha_estimate)
                    OBS.metrics.counter(
                        "net.adaptive.rounds", "rounds sized adaptively"
                    ).inc()
                    OBS.metrics.counter(
                        "net.adaptive.frames_saved",
                        "redundant frames withheld by adaptive γ",
                    ).inc(saved)
                to_send = [envelopes[sequence] for sequence in missing[:send_count]]
            else:
                to_send = [envelopes[sequence] for sequence in missing]
            sent = len(to_send)
            if self.batch_send:
                batches, batched_bytes = await sender.send_many(to_send)
                self.stats["batches_sent"] += batches
                if OBS.enabled and sent:
                    OBS.metrics.counter(
                        "net.send.batched_frames", "frames sent via coalesced writes"
                    ).inc(sent)
                    OBS.metrics.counter(
                        "net.send.batch_bytes", "bytes sent via coalesced writes"
                    ).inc(batched_bytes)
                    OBS.metrics.counter(
                        "net.send.batches", "coalesced socket writes"
                    ).inc(batches)
            else:
                for envelope in to_send:
                    await sender.send(envelope)
                self.stats["batches_sent"] += sent
            self.stats["frames_sent"] += sent
            self.stats["rounds_served"] += 1
            state.rounds += 1
            state.frames_sent += sent
            state.flight.record(
                "round", round=engine.round, sent=sent, skipped=len(skip)
            )
            if OBS.enabled:
                OBS.metrics.counter("net.frames_sent", "cooked frames streamed").inc(
                    sent
                )
                OBS.metrics.counter("net.rounds_served", "rounds streamed").inc()
                OBS.trace.emit(
                    NET_ROUND_SERVED,
                    transfer_id=state.transfer_id,
                    round=engine.round,
                    sent=sent,
                    skipped=len(skip),
                )
            await sender.send(
                encode_json(MSG_ROUND_END, {"round": engine.round, "sent": sent})
            )
            await sender.flush()

            msg_type, body = await asyncio.wait_for(
                read_expected(reader, MSG_NEXT_ROUND, MSG_DONE), self.round_timeout
            )
            if msg_type == MSG_DONE:
                self.stats["completed"] += 1
                status = str(decode_json(body).get("status", "done"))
                state.flight.record("done", status=status)
                return status
            request = decode_json(body)
            new_skip = self._valid_sequences(request.get("have", ()), prepared.n)
            if controller is not None and sent > 0:
                # The round's loss observable: frames sent minus
                # sequences that newly became intact at the client.
                gained = len(new_skip - skip)
                lost = min(max(sent - gained, 0), sent)
                state.loss_estimate = controller.record_transfer(lost, sent)
            skip = new_skip
            state.flight.record("next_round", have=len(skip))
            if engine.on_round_ended(carried=True) is not None:
                # Server-side retransmission bound: refuse more rounds.
                await sender.send(
                    encode_json(
                        MSG_ERROR,
                        {"message": f"retransmission bound {self.max_rounds} exhausted"},
                    )
                )
                await sender.flush()
                self.stats["errors"] += 1
                state.flight.record("round_bound", bound=self.max_rounds)
                return "round_bound"

    # -- broadcast channel ---------------------------------------------------

    async def _serve_carousel(
        self, reader: asyncio.StreamReader, sender: _BoundedSender, state: _ConnState
    ) -> str:
        """Subscribe one connection to the shared carousel stream.

        No manifest and no per-client rounds: the connection simply
        joins the fan-out set mid-cycle (its first complete picture of
        the program is the next air index — at most one period away,
        the tuning-latency bound) and the handler waits for the
        client's ``DONE``.  The wait is bounded by the usual round
        timeout, so an abandoned subscription cannot pin the fan-out
        set.
        """
        assert self.carousel is not None
        self.stats["broadcast_subscriptions"] += 1
        self._subscribers[state.conn_id] = sender
        if self._carousel_wakeup is not None:
            self._carousel_wakeup.set()
        state.flight.record("subscribe", doc=state.document)
        if OBS.enabled:
            OBS.metrics.gauge(
                "broadcast.subscribers", "connections subscribed to the carousel"
            ).inc()
        try:
            _, body = await asyncio.wait_for(
                read_expected(reader, MSG_DONE), self.round_timeout
            )
            self.stats["completed"] += 1
            status = str(decode_json(body).get("status", "done"))
            state.flight.record("done", status=status)
            return status
        finally:
            self._subscribers.pop(state.conn_id, None)
            if OBS.enabled:
                OBS.metrics.gauge("broadcast.subscribers").dec()

    async def _run_carousel(self) -> None:
        """The air task: cycle the carousel into every subscriber's queue.

        Idles (no CPU, no counters) while nobody is subscribed; each
        slot is offered to every subscriber with the non-blocking
        ``try_send``, so the stream's pace is set by the scheduler —
        never by the slowest reader.  One ``sleep`` per slot yields to
        the writer tasks draining the queues.
        """
        carousel = self.carousel
        assert carousel is not None and self._carousel_wakeup is not None
        cycle = 0
        while True:
            if not self._subscribers:
                self._carousel_wakeup.clear()
                await self._carousel_wakeup.wait()
            for kind, payload in carousel.air_cycle(cycle):
                envelope = payload.encode() if kind == "index" else payload
                for sub in list(self._subscribers.values()):
                    if not sub.try_send(envelope):
                        self.stats["broadcast_slots_dropped"] += 1
                        if OBS.enabled:
                            OBS.metrics.counter(
                                "broadcast.slots_dropped",
                                "carousel slots missed by backlogged subscribers",
                            ).inc()
                await asyncio.sleep(0)
            cycle += 1
            if self.carousel_interval > 0:
                await asyncio.sleep(self.carousel_interval)

    def _gamma_controller(
        self, transfer_id: Optional[str], m_hint: int
    ) -> AdaptiveRedundancyController:
        """The per-client γ controller, created on first sight.

        Keyed by transfer ID so reconnect-and-resume continues the
        same channel estimate; LRU-bounded at
        :data:`MAX_GAMMA_CONTROLLERS`.
        """
        key = transfer_id or "?"
        controller = self._gamma_controllers.get(key)
        if controller is not None:
            self._gamma_controllers.move_to_end(key)
            return controller
        controller = AdaptiveRedundancyController(
            m_hint=max(1, m_hint),
            weight=self.gamma_weight,
            initial_alpha=self.initial_loss,
            floor=self.gamma_floor,
            ceiling=self.gamma_ceiling,
        )
        self._gamma_controllers[key] = controller
        while len(self._gamma_controllers) > MAX_GAMMA_CONTROLLERS:
            self._gamma_controllers.popitem(last=False)
        return controller

    # -- exposition ---------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """One JSON-safe operational snapshot of the whole server.

        Served verbatim over the ``STATS`` wire frame and as
        ``/stats.json`` by :class:`~repro.net.stats_http.StatsHTTP`.
        """
        snapshot: Dict[str, Any] = {
            "server": dict(self.stats),
            "active_connections": self.active_connections,
            **({"worker": self.worker_label} if self.worker_label else {}),
            "slo": self.slo.report(),
            "connections": [
                state.describe() for state in self._live.values()
            ],
            "flight": {
                "dumps": self.stats["flight_dumps"],
                "kept": len(self.flight_dumps),
                "recent": list(self.flight_dumps),
            },
            "adaptive": {
                "enabled": self.adaptive_gamma,
                "clients": len(self._gamma_controllers),
                "rounds": self.stats["adaptive_rounds"],
                "frames_saved": self.stats["adaptive_frames_saved"],
                "floor": self.gamma_floor,
                "ceiling": self.gamma_ceiling,
            },
        }
        if self.carousel is not None:
            snapshot["broadcast"] = {
                "enabled": True,
                "schedule": self.carousel.schedule,
                "subscribers": len(self._subscribers),
                "subscriptions": self.stats["broadcast_subscriptions"],
                "slots_dropped": self.stats["broadcast_slots_dropped"],
                **self.carousel.stats(),
            }
        prep_stats = getattr(self.store, "stats", None)
        if isinstance(prep_stats, dict):
            snapshot["prep"] = dict(prep_stats)
        cache_info = getattr(self.store, "cache_info", None)
        if callable(cache_info):
            snapshot["prep_cache"] = cache_info()
        return snapshot

    async def _prepare(
        self, document_id: str, request: Optional[PrepRequest]
    ) -> Optional[PreparedDocument]:
        """Resolve the document through the store, off the event loop.

        Preparation-capable stores (anything with
        ``prepare(document_id, request)`` — notably
        :class:`~repro.prep.service.PreparationService`) cook on
        demand with the connection's ``prep`` parameters; since a cold
        cook runs the full pipeline + encode, it is off-loaded to the
        default executor so the event loop keeps serving other
        connections.  The service's single-flight makes concurrent
        identical requests share one build.  Plain ``get`` stores keep
        the old behaviour: pre-cooked bytes, ``prep`` ignored.
        """
        prepare = getattr(self.store, "prepare", None)
        if not callable(prepare):
            return self.store.get(document_id)
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, prepare, document_id, request
            )
        except KeyError:
            # UnknownDocumentError (or any KeyError-style miss).
            return None

    @staticmethod
    def _wire_envelopes(prepared) -> Sequence[Union[bytes, memoryview]]:
        """Complete MSG_FRAME wire images for *prepared*, in sequence order.

        Prefers the precomputed envelopes a :mod:`repro.prep` document
        caches next to its cooked packets (zero serialization on this
        path); any store object exposing only ``frames()`` gets the
        legacy per-connection ``encode_message`` fallback.
        """
        wire_frames = getattr(prepared, "wire_frames", None)
        if callable(wire_frames):
            return wire_frames()
        return [encode_message(MSG_FRAME, wire) for wire in prepared.frames()]

    @staticmethod
    def _valid_sequences(have: Iterable[object], n: int) -> Set[int]:
        valid: Set[int] = set()
        if not isinstance(have, (list, tuple)):
            return valid
        for entry in have:
            if isinstance(entry, int) and 0 <= entry < n:
                valid.add(entry)
        return valid
