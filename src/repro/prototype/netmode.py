"""Network mode for the prototype broker (Figure 1 over real sockets).

The in-process :class:`~repro.prototype.broker.ObjectRequestBroker`
already hosts the server half of the paper's prototype — the
``transmitter`` servant that ranks, schedules, and cooks a document
per request.  This module delegates its delivery to the asyncio
network layer: :class:`BrokerDocumentStore` adapts the servant to the
:class:`~repro.net.server.NetServer` store contract (every broker
invocation flows through the registered interceptor chain, so tracing
and compression interceptors see networked fetches too), and
:func:`serve_broker` wraps it in a running server.

Used by ``repro net serve --via-broker`` and directly::

    broker = build_prototype(...)          # gateway + transmitter + ORB
    server = await serve_broker(broker, port=0)
    ... clients fetch over TCP ...
    await server.stop()
"""

from __future__ import annotations

from typing import Optional

from repro.net.server import NetServer
from repro.prep.prepare import PreparedDocument
from repro.prep.request import PrepRequest
from repro.prototype.broker import BrokerError, ObjectRequestBroker
from repro.prototype.messages import FetchRequest


class BrokerDocumentStore:
    """Adapts the ORB's ``transmitter`` servant to the net-store contract.

    Each ``get``/``prepare`` is one broker invocation of
    ``transmitter.fetch`` — the document is prepared per request with
    the connection's LOD, query, and redundancy (falling back to the
    store's default :class:`PrepRequest`), exactly like an in-process
    browse.  The transmitter's preparation service caches the cooked
    result, so repeated identical requests share one build.
    """

    def __init__(
        self,
        broker: ObjectRequestBroker,
        *,
        request: Optional[PrepRequest] = None,
    ) -> None:
        self.broker = broker
        self.request = request if request is not None else PrepRequest()

    def prepare(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> Optional[PreparedDocument]:
        """Net-store ``prepare``: cook per the connection's parameters."""
        if request is None:
            request = self.request
        fetch = FetchRequest(
            document_id=document_id,
            query_text=request.query,
            lod_name=request.lod,
            gamma=request.gamma,
            packet_size=request.packet_size,
            measure=request.measure,
        )
        try:
            _manifest, prepared = self.broker.invoke("transmitter", "fetch", fetch)
        except (BrokerError, KeyError):
            return None
        return prepared

    def get(self, document_id: str) -> Optional[PreparedDocument]:
        return self.prepare(document_id, None)


async def serve_broker(
    broker: ObjectRequestBroker,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    request: Optional[PrepRequest] = None,
    **server_options,
) -> NetServer:
    """Start a :class:`NetServer` fronting *broker*'s transmitter.

    *request* sets the default preparation parameters for connections
    that send no ``prep`` field.  Returns the started server (read
    ``.port`` for the bound port); the caller owns shutdown via
    ``await server.stop()``.  Extra keyword arguments pass through to
    :class:`NetServer`.
    """
    store = BrokerDocumentStore(broker, request=request)
    server = NetServer(store, host, port, **server_options)
    await server.start()
    return server
