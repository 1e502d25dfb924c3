"""Asyncio client: fetch one document over TCP, §4.2 semantics intact.

:class:`NetClient` is the fourth driver of the sans-IO
:class:`~repro.protocol.TransferEngine` — the first to run it against
a real socket.  Frames arrive as wire bytes, the frame CRC decides
intact/corrupt, sequence accounting decides lost; the engine decides
everything else, exactly as in the in-process drivers.

What the socket adds is *disconnection*, and the client answers it
with the paper's caching policy: when the connection drops (reset,
EOF, or a read that outlives the round timeout), the intact packets
are stored in the :class:`~repro.transport.cache.PacketCache`, the
interrupted round is reported to the engine as a stall with
``carried=True``, and the client redials — sending the cached
sequences in ``HELLO`` so the server's next round skips them.  A
resumed transfer therefore decodes from ``M`` intact packets
accumulated *across connections*, byte-identical to an uninterrupted
one.  Without a cache the policy is NoCaching: a drop starts over,
like a browser reload.

Each fetch mints a :class:`~repro.obs.live.TraceContext` and sends it
in every ``HELLO``, so the server's ``net_*`` trace events and the
client's protocol events share one transfer ID across every
reconnect of the same logical fetch.  :func:`fetch_stats` speaks the
``STATS`` admin frame for operational snapshots.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.broadcast import AirIndex, CarouselReceiver
from repro.coding.packets import decode_frame
from repro.prep.reconstruct import reconstruct_payload
from repro.net.wire import (
    MESSAGE_NAMES,
    MSG_AIR_INDEX,
    MSG_BCAST_FRAME,
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
    read_expected,
    read_message,
)
from repro.obs.live import TraceContext
from repro.obs.runtime import OBS
from repro.prep.request import DeliveryMode, PrepRequest, TransferSettings
from repro.protocol import (
    DEFAULT_ROUND_TIMEOUT,
    Decoded,
    EarlyStop,
    Effect,
    TelemetryBridge,
    TransferEngine,
)
from repro.transport.cache import NullCache, PacketCache

#: Latency buckets for the ``net.fetch_seconds`` histogram (wall-clock
#: seconds on a loopback or LAN path, not simulated channel time).
FETCH_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


class NetFetchResult(NamedTuple):
    """Outcome of one networked document fetch."""

    document_id: str
    status: str                # "decoded" | "early_stop" | "failed"
    success: bool
    terminated_early: bool
    rounds: int
    frames_received: int       # frames read off the socket (any validity)
    reconnects: int            # connections re-dialed after a drop
    elapsed: float             # wall-clock seconds, first dial to verdict
    content_received: float
    payload: Optional[bytes]   # reconstructed document (None unless decoded)


class _Manifest(NamedTuple):
    m: int
    n: int
    packet_size: int
    original_size: int
    systematic: bool
    profile: Optional[List[float]]


class NetClient:
    """Fetch documents from a :class:`~repro.net.server.NetServer`.

    Parameters
    ----------
    host, port:
        Server (or chaos-proxy) address.
    cache:
        ``None`` selects NoCaching — a dropped connection restarts the
        transfer — unless ``settings.use_cache`` asks for a private
        :class:`PacketCache`.  Pass a shared :class:`PacketCache` for
        the §4.2 Caching policy across fetches: intact packets survive
        drops and reconnects resume.
    settings:
        :class:`repro.prep.TransferSettings` carrying the protocol
        knobs (relevance threshold F, retransmission bound, round
        timeout, reconnect budget); defaults when ``None``.
    request:
        Default :class:`repro.prep.PrepRequest` sent to the server
        with every fetch (LOD, measure, query, packet size, γ,
        backend); ``None`` lets the server cook with its own default.
        :meth:`fetch` can override per call.
    backend:
        GF(2^8) kernel selection for client-side reconstruction (see
        :mod:`repro.coding.backend`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cache: Optional[PacketCache] = None,
        reconnect_delay: float = 0.05,
        backend: Optional[object] = None,
        settings: Optional[TransferSettings] = None,
        request: Optional[PrepRequest] = None,
    ) -> None:
        if settings is None:
            settings = TransferSettings()
        self.host = host
        self.port = port
        self.settings = settings
        self.request = request
        if cache is None:
            cache = PacketCache() if settings.use_cache else NullCache()
        self.cache: PacketCache = cache
        self.relevance_threshold = settings.relevance_threshold
        self.max_rounds = settings.max_rounds
        self.round_timeout = settings.round_timeout
        self.max_reconnects = settings.max_reconnects
        self.reconnect_delay = reconnect_delay
        self.backend = backend

    # -- public API --------------------------------------------------------

    async def fetch(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> NetFetchResult:
        """Download *document_id*; reconnect-and-resume on drops.

        *request* carries the per-fetch preparation parameters (LOD,
        measure, query, packet size, γ, coding backend) to the server
        in the ``HELLO`` ``prep`` field; ``None`` falls back to the
        client default, then to the server default.  Old servers
        ignore the field and serve their eagerly-prepared bytes.

        Raises :class:`ConnectionLost` when the server is unreachable
        before a manifest was ever received, and :class:`WireError` on
        unrecoverable protocol violations before the engine exists;
        after that every failure mode lands in the result's
        ``status="failed"``.
        """
        if request is None:
            request = self.request
        if self.settings.delivery is DeliveryMode.CAROUSEL and (
            request is None or request.delivery is DeliveryMode.UNICAST
        ):
            request = (request or PrepRequest()).replace(
                delivery=DeliveryMode.CAROUSEL
            )
        if request is not None and request.delivery is DeliveryMode.CAROUSEL:
            return await self._fetch_carousel(document_id, request)
        intact: Dict[int, bytes] = dict(self.cache.load(document_id))
        engine: Optional[TransferEngine] = None
        manifest: Optional[_Manifest] = None
        ctx = TraceContext.mint()
        bridge = TelemetryBridge("transfer", transfer_id=ctx.transfer_id)
        frames_received = 0
        reconnects = 0
        terminal: Optional[Effect] = None
        started = time.monotonic()

        while terminal is None:
            writer: Optional[asyncio.StreamWriter] = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.round_timeout,
                )
                ctx.next_connection()
                hello = {
                    "doc": document_id,
                    "have": sorted(intact),
                    "max_rounds": self.max_rounds,
                    "trace": ctx.to_wire(),
                }
                if request is not None:
                    hello["prep"] = request.to_wire()
                writer.write(encode_json(MSG_HELLO, hello))
                await writer.drain()
                _, body = await asyncio.wait_for(
                    read_expected(reader, MSG_MANIFEST), self.round_timeout
                )
                fields = decode_json(body)
                if manifest is None:
                    manifest = self._parse_manifest(fields)
                    engine = TransferEngine(
                        manifest.m,
                        manifest.n,
                        content_profile=manifest.profile,
                        caching=not isinstance(self.cache, NullCache),
                        relevance_threshold=self.relevance_threshold,
                        max_rounds=self.max_rounds,
                        document_id=document_id,
                        bridge=bridge,
                        preloaded=intact,
                    )
                    terminal = engine.start()
                elif (
                    fields.get("m") != manifest.m or fields.get("n") != manifest.n
                ):
                    raise WireError("document geometry changed across reconnect")
                if terminal is None:
                    terminal, got = await self._stream_rounds(
                        reader, writer, engine, intact, manifest, document_id
                    )
                    frames_received += got
                await self._send_done(writer, terminal)
            except (ConnectionLost, asyncio.TimeoutError, OSError) as exc:
                reconnects += 1
                self._remember(document_id, intact)
                if reconnects > self.max_reconnects:
                    if engine is None:
                        raise ConnectionLost(
                            f"server unreachable: {exc}"
                        ) from None
                    terminal = engine.abort()
                    break
                carried = self._carried(document_id)
                if not carried:
                    intact.clear()
                if engine is not None and engine.finished is None:
                    # The interrupted round is a stall; the cache
                    # decides what survives into the reconnect.
                    terminal = engine.on_round_ended(carried=carried)
                if OBS.enabled:
                    OBS.metrics.counter(
                        "net.reconnects", "connections redialed after a drop"
                    ).inc()
                if self.reconnect_delay > 0:
                    await asyncio.sleep(self.reconnect_delay)
            except WireError:
                # Unrecoverable protocol violation (e.g. the server
                # refused further rounds): fail the transfer if the
                # engine exists, surface the error otherwise.
                if engine is None:
                    raise
                terminal = engine.abort()
            finally:
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

        assert engine is not None and manifest is not None
        elapsed = time.monotonic() - started
        if isinstance(terminal, Decoded):
            payload = self._reconstruct(manifest, intact)
            self.cache.discard(document_id)
            status, success, early = "decoded", True, False
            content = engine.content_received
        elif isinstance(terminal, EarlyStop):
            self._remember(document_id, intact)
            payload = None
            status, success, early = "early_stop", True, True
            content = terminal.content
        else:  # Failed
            self._remember(document_id, intact)
            payload = None
            status, success, early = "failed", False, False
            content = engine.content_received
        bridge.complete(
            success=success,
            terminated_early=early,
            rounds=terminal.round,
            frames=frames_received,
            content=content,
            response_time=elapsed,
        )
        if OBS.enabled:
            OBS.metrics.counter("net.fetches", "networked fetches").labels(
                outcome=status
            ).inc()
            OBS.metrics.counter("net.frames_received", "frames read off sockets").inc(
                frames_received
            )
            OBS.metrics.histogram(
                "net.fetch_seconds", "wall-clock fetch latency", buckets=FETCH_BUCKETS
            ).observe(elapsed)
        return NetFetchResult(
            document_id=document_id,
            status=status,
            success=success,
            terminated_early=early,
            rounds=terminal.round,
            frames_received=frames_received,
            reconnects=reconnects,
            elapsed=elapsed,
            content_received=content,
            payload=payload,
        )

    # -- carousel delivery --------------------------------------------------

    async def _fetch_carousel(
        self, document_id: str, request: PrepRequest
    ) -> NetFetchResult:
        """Tune in to the server's broadcast carousel for *document_id*.

        The ``HELLO`` ``prep`` field carries ``delivery=carousel``, so
        the server subscribes this connection to the shared stream
        instead of opening a per-client round loop.  Everything read
        off the socket feeds a sans-IO
        :class:`~repro.broadcast.CarouselReceiver`: the first air
        index (at most one carousel period away) supplies the
        geometry, then any M intact tagged frames — collected across
        cycle boundaries, the Caching policy — decode byte-identically
        to a unicast fetch.  A dropped connection redials and keeps
        collecting; the receiver's intact set survives the reconnect.
        """
        ctx = TraceContext.mint()
        bridge = TelemetryBridge("transfer", transfer_id=ctx.transfer_id)
        receiver = CarouselReceiver(
            document_id,
            relevance_threshold=self.relevance_threshold,
            max_cycles=self.max_rounds,
            backend=self.backend,
            bridge=bridge,
        )
        frames_received = 0
        reconnects = 0
        terminal: Optional[Effect] = None
        started = time.monotonic()

        while terminal is None:
            writer: Optional[asyncio.StreamWriter] = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.round_timeout,
                )
                ctx.next_connection()
                writer.write(
                    encode_json(
                        MSG_HELLO,
                        {
                            "doc": document_id,
                            "have": [],
                            "max_rounds": self.max_rounds,
                            "trace": ctx.to_wire(),
                            "prep": request.to_wire(),
                        },
                    )
                )
                await writer.drain()
                while terminal is None:
                    msg_type, body = await asyncio.wait_for(
                        read_message(reader), self.round_timeout
                    )
                    if msg_type == MSG_BCAST_FRAME:
                        if not body:
                            raise WireError("empty broadcast frame")
                        frames_received += 1
                        terminal = receiver.on_frame(body[0], bytes(body[1:]))
                    elif msg_type == MSG_AIR_INDEX:
                        terminal = receiver.on_air_index(
                            AirIndex.from_wire(decode_json(body))
                        )
                        if receiver.absent:
                            raise WireError(
                                f"document {document_id!r} is not on the carousel"
                            )
                    elif msg_type == MSG_ERROR:
                        message = decode_json(body).get("message", "unspecified")
                        raise WireError(f"peer error: {message}")
                    else:
                        raise WireError(
                            f"unexpected {MESSAGE_NAMES[msg_type]} on the carousel"
                        )
                await self._send_done(writer, terminal)
            except (ConnectionLost, asyncio.TimeoutError, OSError) as exc:
                reconnects += 1
                if reconnects > self.max_reconnects:
                    if not receiver.synced:
                        raise ConnectionLost(
                            f"server unreachable: {exc}"
                        ) from None
                    terminal = receiver.abort()
                    break
                if OBS.enabled:
                    OBS.metrics.counter(
                        "net.reconnects", "connections redialed after a drop"
                    ).inc()
                if self.reconnect_delay > 0:
                    await asyncio.sleep(self.reconnect_delay)
            except WireError:
                # The server refused the subscription (carousel
                # disabled, bad parameters) or the program does not
                # carry the document: surface the error while nothing
                # was collected, fail the transfer afterwards.
                if not receiver.synced:
                    raise
                terminal = receiver.abort()
            finally:
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

        elapsed = time.monotonic() - started
        if isinstance(terminal, Decoded):
            payload: Optional[bytes] = receiver.payload()
            status, success, early = "decoded", True, False
            content = receiver.content_received
        elif isinstance(terminal, EarlyStop):
            payload = None
            status, success, early = "early_stop", True, True
            content = terminal.content
        else:  # Failed
            payload = None
            status, success, early = "failed", False, False
            content = receiver.content_received
        bridge.complete(
            success=success,
            terminated_early=early,
            rounds=terminal.round,
            frames=frames_received,
            content=content,
            response_time=elapsed,
        )
        if OBS.enabled:
            OBS.metrics.counter("net.fetches", "networked fetches").labels(
                outcome=status
            ).inc()
            OBS.metrics.counter("net.frames_received", "frames read off sockets").inc(
                frames_received
            )
            OBS.metrics.histogram(
                "net.fetch_seconds", "wall-clock fetch latency", buckets=FETCH_BUCKETS
            ).observe(elapsed)
        return NetFetchResult(
            document_id=document_id,
            status=status,
            success=success,
            terminated_early=early,
            rounds=terminal.round,
            frames_received=frames_received,
            reconnects=reconnects,
            elapsed=elapsed,
            content_received=content,
            payload=payload,
        )

    # -- one connection ----------------------------------------------------

    async def _stream_rounds(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        engine: TransferEngine,
        intact: Dict[int, bytes],
        manifest: _Manifest,
        document_id: str,
    ) -> Tuple[Optional[Effect], int]:
        """Consume frames and round boundaries until a verdict or drop."""
        frames_read = 0
        delivered_this_round = 0
        while True:
            msg_type, body = await asyncio.wait_for(
                read_message(reader), self.round_timeout
            )
            if msg_type == MSG_FRAME:
                frames_read += 1
                delivered_this_round += 1
                frame = decode_frame(body)
                if frame.intact and 0 <= frame.sequence < manifest.n:
                    if frame.sequence not in intact:
                        intact[frame.sequence] = frame.payload
                    terminal = engine.on_frame_intact(frame.sequence)
                else:
                    terminal = engine.on_frame_corrupt(frame.sequence)
                if terminal is not None:
                    return terminal, frames_read
            elif msg_type == MSG_ROUND_END:
                fields = decode_json(body)
                sent = fields.get("sent", 0)
                missing = (
                    sent - delivered_this_round if isinstance(sent, int) else 0
                )
                for _ in range(max(0, missing)):
                    terminal = engine.on_frame_lost()
                    if terminal is not None:
                        return terminal, frames_read
                delivered_this_round = 0
                self._remember(document_id, intact)
                carried = self._carried(document_id)
                if not carried:
                    intact.clear()
                terminal = engine.on_round_ended(carried=carried)
                if terminal is not None:
                    return terminal, frames_read
                writer.write(
                    encode_json(
                        MSG_NEXT_ROUND,
                        {"round": engine.round, "have": sorted(intact)},
                    )
                )
                await writer.drain()
            elif msg_type == MSG_ERROR:
                message = decode_json(body).get("message", "unspecified")
                raise WireError(f"peer error: {message}")
            else:
                raise WireError(
                    f"unexpected {MESSAGE_NAMES[msg_type]} mid-transfer"
                )

    async def _send_done(
        self, writer: asyncio.StreamWriter, terminal: Optional[Effect]
    ) -> None:
        """Best-effort final status; the verdict already stands."""
        if terminal is None:
            return
        status = (
            "decoded"
            if isinstance(terminal, Decoded)
            else "early_stop" if isinstance(terminal, EarlyStop) else "failed"
        )
        try:
            writer.write(
                encode_json(MSG_DONE, {"status": status, "round": terminal.round})
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # -- cache policy ------------------------------------------------------

    def _remember(self, document_id: str, intact: Dict[int, bytes]) -> None:
        for sequence, payload in intact.items():
            self.cache.store(document_id, sequence, payload)

    def _carried(self, document_id: str) -> bool:
        return not isinstance(self.cache, NullCache) and bool(
            self.cache.load(document_id)
        )

    # -- manifest / reconstruction ----------------------------------------

    def _parse_manifest(self, fields: Dict[str, object]) -> _Manifest:
        try:
            m = int(fields["m"])  # type: ignore[arg-type]
            n = int(fields["n"])  # type: ignore[arg-type]
            packet_size = int(fields["packet_size"])  # type: ignore[arg-type]
            original_size = int(fields["original_size"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed manifest: {exc}") from None
        if not (1 <= m <= n):
            raise WireError(f"malformed manifest geometry m={m}, n={n}")
        profile_field = fields.get("profile")
        profile: Optional[List[float]] = None
        if (
            isinstance(profile_field, list)
            and len(profile_field) == m
            and all(isinstance(v, (int, float)) for v in profile_field)
        ):
            profile = [float(v) for v in profile_field]
        if self.relevance_threshold is not None and profile is None:
            raise WireError("manifest carries no usable content profile")
        return _Manifest(
            m=m,
            n=n,
            packet_size=packet_size,
            original_size=original_size,
            systematic=bool(fields.get("systematic", False)),
            profile=profile,
        )

    def _reconstruct(self, manifest: _Manifest, intact: Dict[int, bytes]) -> bytes:
        return reconstruct_payload(
            manifest.m,
            manifest.n,
            manifest.original_size,
            intact,
            systematic=manifest.systematic,
            backend=self.backend,
        )


async def fetch_stats(
    host: str, port: int, *, timeout: float = DEFAULT_ROUND_TIMEOUT
) -> Dict[str, object]:
    """Ask a server for its operational snapshot via the ``STATS`` frame.

    Opens a connection, sends ``STATS {}`` as the first message, and
    returns the decoded snapshot (see
    :meth:`~repro.net.server.NetServer.stats_snapshot`).  Raises
    :class:`ConnectionLost` / :class:`WireError` like a fetch would.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(encode_json(MSG_STATS, {}))
        await writer.drain()
        _, body = await asyncio.wait_for(
            read_expected(reader, MSG_STATS), timeout
        )
        return decode_json(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
