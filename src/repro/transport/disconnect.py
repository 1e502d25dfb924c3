"""Disconnection windows and resumable transfers.

Weak connectivity has two faces: corruption (handled by the erasure
code) and outright *disconnection* — "occasional disconnection during
transmission of web information is common" (§4).  This module models
scheduled outages and the client policy for surviving them:

* :class:`OutageChannel` wraps any channel with outage intervals
  during which every frame is lost (it still consumes air time — the
  sender does not know the client vanished);
* :func:`resumable_transfer` runs a transfer in *attempts*: when an
  attempt ends without success, the intact packets rest in the shared
  cache and the next attempt — e.g. after the client reconnects —
  resumes from them instead of starting over.  This is the Caching
  idea (§4.2) stretched across connectivity gaps, the behaviour a
  disconnection-tolerant mobile browser actually needs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.prep.prepare import PreparedDocument
from repro.prep.request import TransferSettings
from repro.protocol import DEFAULT_MAX_ROUNDS
from repro.transport.cache import PacketCache
from repro.transport.channel import Delivery, WirelessChannel
from repro.transport.session import TransferResult, transfer_document


class OutageChannel(WirelessChannel):
    """A channel that loses every frame inside outage windows.

    *outages* is a sequence of ``(start, end)`` times in channel-clock
    seconds.  Outside the windows, behaviour (corruption, timing)
    follows the base parameters.
    """

    def __init__(
        self,
        outages: Sequence[Tuple[float, float]],
        bandwidth_kbps: float = 19.2,
        alpha: float = 0.1,
        rng=None,
    ) -> None:
        super().__init__(bandwidth_kbps=bandwidth_kbps, alpha=alpha, rng=rng)
        for start, end in outages:
            if end <= start:
                raise ValueError(f"outage ({start}, {end}) must have end > start")
        self.outages = sorted(outages)

    def in_outage(self, time: Optional[float] = None) -> bool:
        """True when *time* (default: now) falls inside an outage."""
        moment = self.clock if time is None else time
        return any(start <= moment < end for start, end in self.outages)

    def send(self, wire: bytes) -> Delivery:
        self.clock += self.transmission_time(len(wire))
        self.frames_sent += 1
        if self.in_outage():
            self.frames_lost += 1
            return Delivery(time=self.clock, wire=None, corrupted=False, lost=True)
        if self.rng.random() < self.alpha:
            self.frames_corrupted += 1
            return Delivery(
                time=self.clock, wire=self._garble(wire), corrupted=True, lost=False
            )
        return Delivery(time=self.clock, wire=wire, corrupted=False, lost=False)


class ResumableResult(NamedTuple):
    """Outcome of a transfer run as resumable attempts."""

    success: bool
    attempts: int
    total_response_time: float
    total_frames: int
    payload: Optional[bytes]
    attempt_results: List[TransferResult]


def resumable_transfer(
    prepared: PreparedDocument,
    channel: WirelessChannel,
    cache: Optional[PacketCache] = None,
    max_attempts: int = 5,
    rounds_per_attempt: int = 2,
    relevance_threshold: Optional[float] = None,
    max_total_rounds: int = DEFAULT_MAX_ROUNDS,
) -> ResumableResult:
    """Transfer *prepared* across connectivity gaps.

    Each attempt runs the round-based protocol for at most
    *rounds_per_attempt* rounds; on failure (e.g. an outage ate the
    round) the intact packets stay cached and the next attempt resumes
    from them.  With a shared cache the attempts make monotone
    progress; without one this degenerates to plain retries.

    *max_total_rounds* caps the rounds spent across *all* attempts at
    the protocol-wide :data:`repro.protocol.DEFAULT_MAX_ROUNDS`, so a
    resumable transfer can never out-persist a plain one no matter how
    the attempt schedule is configured.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if max_total_rounds < 1:
        raise ValueError("max_total_rounds must be >= 1")
    if cache is None:
        cache = PacketCache()

    attempt_results: List[TransferResult] = []
    total_time = 0.0
    total_frames = 0
    rounds_left = max_total_rounds
    for attempt in range(1, max_attempts + 1):
        if rounds_left <= 0:
            break
        result = transfer_document(
            prepared,
            channel,
            cache=cache,
            settings=TransferSettings(
                relevance_threshold=relevance_threshold,
                max_rounds=min(rounds_per_attempt, rounds_left),
            ),
        )
        rounds_left -= max(result.rounds, 1)
        attempt_results.append(result)
        total_time += result.response_time
        total_frames += result.frames_sent
        if result.success:
            return ResumableResult(
                success=True,
                attempts=attempt,
                total_response_time=total_time,
                total_frames=total_frames,
                payload=result.payload,
                attempt_results=attempt_results,
            )
    return ResumableResult(
        success=False,
        attempts=len(attempt_results),
        total_response_time=total_time,
        total_frames=total_frames,
        payload=None,
        attempt_results=attempt_results,
    )
