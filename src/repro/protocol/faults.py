"""Seeded fault injection on the engine's event boundary.

Because :class:`~repro.protocol.engine.TransferEngine` consumes typed
events rather than bytes, adversarial channel conditions can be
injected *between* any driver and the engine without touching either:
:class:`FaultInjector` rewrites the input-event stream — dropping a
delivered frame, corrupting it, or opening a multi-event disconnection
window — under its own seeded RNG, so fault schedules are reproducible
and independent of the driver's channel RNG (common-random-numbers
discipline: the injector never draws from the driver's stream).

The *decision* core lives one layer down, in :mod:`repro.channel`:
the injector consumes any :class:`~repro.channel.ChannelModel`
(i.i.d., Gilbert–Elliott bursts, or a JSON trace), and the same seeded
model can equally be applied to live byte streams by the asyncio
:class:`repro.net.chaos.ChaosProxy`, mapping ``drop`` to a swallowed
message, ``corrupt`` to garbled payload bytes (caught by the frame
CRC), and ``disconnect`` to a severed TCP connection.

Typical use in a test or chaos experiment::

    engine = TransferEngine(m, n, ...)
    model = IIDModel(rng=random.Random(7), drop=0.1, corrupt=0.05,
                     disconnect=0.01, outage_events=20)
    faulty = FaultInjector(engine, model)
    effects = faulty.begin()
    ...
    effects = faulty.handle(FrameDelivered(seq))

or, with a bursty model::

    model = GilbertElliottModel.matched_to_alpha(0.2, rng=random.Random(7))
    faulty = FaultInjector(engine, model)

Fault counts live on the model (``faulty.model.counters()``).
"""

from __future__ import annotations

from typing import Tuple

from repro.channel import CORRUPT, PASS, ChannelModel
from repro.protocol.engine import TransferEngine
from repro.protocol.events import (
    Effect,
    FrameCorrupt,
    FrameDelivered,
    FrameLost,
    InputEvent,
)


class FaultInjector:
    """Rewrites ``FrameDelivered`` events into losses/corruption.

    A thin event-level adapter over a
    :class:`~repro.channel.ChannelModel` (i.i.d., bursty
    Gilbert–Elliott, a replayed trace): ``drop`` and ``disconnect``
    verdicts become :class:`~repro.protocol.events.FrameLost`,
    ``corrupt`` becomes :class:`~repro.protocol.events.FrameCorrupt`
    (CRC failure).  ``RoundEnded`` and already-degraded events pass
    through untouched — the injector only ever makes the channel
    worse, so protocol invariants (termination, bounds) are preserved
    by construction.
    """

    __slots__ = ("engine", "model")

    def __init__(self, engine: TransferEngine, model: ChannelModel) -> None:
        self.engine = engine
        self.model = model

    def begin(self) -> Tuple[Effect, ...]:
        return self.engine.begin()

    def inject(self, event: InputEvent) -> InputEvent:
        """Return the (possibly rewritten) event without applying it."""
        if not isinstance(event, FrameDelivered):
            return event
        verdict = self.model.decide()
        if verdict == PASS:
            return event
        if verdict == CORRUPT:
            return FrameCorrupt(event.sequence)
        return FrameLost(event.sequence)  # DROP or DISCONNECT

    def handle(self, event: InputEvent) -> Tuple[Effect, ...]:
        """Inject faults into *event*, then feed it to the engine."""
        return self.engine.handle(self.inject(event))
