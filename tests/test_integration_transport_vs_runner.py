"""Three-way parity of the §4.2 protocol implementations.

Both the byte-exact transport session and the oracle-mode simulator
are now thin drivers around :class:`repro.protocol.TransferEngine`.
This suite proves three things:

1. **Cross-driver equivalence** — the byte path and the oracle path
   driven by the *same* corruption pattern terminate after the same
   number of frames (the property that makes the fast simulator a
   valid stand-in for the real protocol), and a bare engine fed typed
   events agrees with both;
2. **Golden regression** — both drivers reproduce, bit-for-bit, the
   outcomes recorded from the pre-refactor implementations
   (``tests/data/protocol_goldens.json``, written by
   ``tools/record_protocol_goldens.py`` before the engine existed)
   across seeded geometries, α values, and both cache policies;
3. **CRN determinism** — engine-driven sessions remain byte-identical
   between serial and ``--jobs`` parallel sweeps.
"""

import json
import random
from functools import lru_cache
from pathlib import Path
from typing import List

import pytest

from repro.coding.packets import Packetizer
from repro.prep.prepare import DocumentSender
from repro.prep.request import TransferSettings
from repro.protocol import FrameCorrupt, FrameDelivered, RoundEnded, TransferEngine
from repro.simulation.parallel import SessionTask, map_session_means
from repro.simulation.parameters import Parameters
from repro.simulation.runner import simulate_transfer
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.session import transfer_document

GOLDENS_PATH = Path(__file__).resolve().parent / "data" / "protocol_goldens.json"


class ScriptedChannel(WirelessChannel):
    """A channel whose corruption decisions follow a fixed script."""

    def __init__(self, script: List[bool], bandwidth_kbps: float = 19.2) -> None:
        super().__init__(bandwidth_kbps=bandwidth_kbps, alpha=0.5)
        self._script = list(script)
        self._cursor = 0

    def send(self, wire: bytes):
        corrupt = self._script[self._cursor % len(self._script)]
        self._cursor += 1
        self.clock += self.transmission_time(len(wire))
        self.frames_sent += 1
        if corrupt:
            self.frames_corrupted += 1
            from repro.transport.channel import Delivery

            return Delivery(self.clock, self._garble(wire), True, False)
        from repro.transport.channel import Delivery

        return Delivery(self.clock, wire, False, False)


class ScriptedRandom(random.Random):
    """random.Random whose .random() follows the same script.

    Returns 0.99 (≥ α ⇒ intact) or 0.0 (< α ⇒ corrupt), matching the
    simulator's `rand() < alpha` test with alpha = 0.5.
    """

    def __init__(self, script: List[bool]) -> None:
        super().__init__(0)
        self._script = list(script)
        self._cursor = 0

    def random(self) -> float:
        value = 0.0 if self._script[self._cursor % len(self._script)] else 0.99
        self._cursor += 1
        return value


def run_both(script, document_size=2048, gamma=1.5, caching=True,
             threshold=None, max_rounds=10):
    packet_size = 256
    sender = DocumentSender(Packetizer(packet_size=packet_size, redundancy_ratio=gamma))
    prepared = sender.prepare_raw("doc", b"D" * document_size)

    channel = ScriptedChannel(script)
    cache = PacketCache() if caching else None
    byte_level = transfer_document(
        prepared,
        channel,
        cache=cache,
        settings=TransferSettings(relevance_threshold=threshold, max_rounds=max_rounds),
    )

    oracle = simulate_transfer(
        m=prepared.m, n=prepared.n, alpha=0.5,
        packet_time=channel.transmission_time(packet_size + 4),
        rng=ScriptedRandom(script), caching=caching,
        relevance_threshold=threshold,
        content_profile=prepared.content_profile,
        max_rounds=max_rounds,
    )
    return byte_level, oracle


SCRIPTS = {
    "clean": [False] * 64,
    "alternating": [False, True] * 32,
    "bursty": ([True] * 5 + [False] * 11) * 4,
    "mostly_bad": ([True] * 3 + [False]) * 16,
}


class TestEquivalence:
    @pytest.mark.parametrize("name", list(SCRIPTS))
    @pytest.mark.parametrize("caching", [True, False])
    def test_full_download_same_frames(self, name, caching):
        byte_level, oracle = run_both(SCRIPTS[name], caching=caching)
        assert byte_level.success == oracle.success
        assert byte_level.frames_sent == oracle.packets_sent
        assert byte_level.rounds == oracle.rounds
        assert byte_level.response_time == pytest.approx(oracle.response_time)

    @pytest.mark.parametrize("name", list(SCRIPTS))
    def test_early_termination_same_frames(self, name):
        byte_level, oracle = run_both(SCRIPTS[name], threshold=0.4)
        assert byte_level.success == oracle.success
        assert byte_level.terminated_early == oracle.terminated_early
        assert byte_level.frames_sent == oracle.packets_sent

    def test_stall_and_giveup_agree(self):
        script = [True] * 64  # everything corrupted
        byte_level, oracle = run_both(script, max_rounds=3)
        assert not byte_level.success and not oracle.success
        assert byte_level.frames_sent == oracle.packets_sent
        assert byte_level.rounds == oracle.rounds == 3


def drive_engine(script, m, n, content_profile, caching, threshold, max_rounds):
    """A third §4.2 implementation: the bare engine fed typed events."""
    engine = TransferEngine(
        m,
        n,
        content_profile=content_profile,
        caching=caching,
        relevance_threshold=threshold,
        max_rounds=max_rounds,
    )
    frames_sent = 0
    cursor = 0
    terminal = engine.start()
    while terminal is None:
        for seq in range(n):
            corrupt = script[cursor % len(script)]
            cursor += 1
            frames_sent += 1
            event = FrameCorrupt(seq) if corrupt else FrameDelivered(seq)
            engine.handle(event)
            terminal = engine.finished
            if terminal is not None:
                break
        else:
            engine.handle(RoundEnded())
            terminal = engine.finished
    return terminal, frames_sent


class TestEngineAgreesWithBothDrivers:
    """The bare engine is the third leg of the parity triangle."""

    @pytest.mark.parametrize("name", list(SCRIPTS))
    @pytest.mark.parametrize("caching", [True, False])
    @pytest.mark.parametrize("threshold", [None, 0.4])
    def test_same_outcome_and_frames(self, name, caching, threshold):
        script = SCRIPTS[name]
        byte_level, oracle = run_both(script, caching=caching, threshold=threshold)
        sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.5))
        prepared = sender.prepare_raw("doc", b"D" * 2048)
        terminal, frames_sent = drive_engine(
            script,
            prepared.m,
            prepared.n,
            prepared.content_profile,
            caching=caching,
            threshold=threshold,
            max_rounds=10,
        )
        from repro.protocol import EarlyStop, Failed

        assert byte_level.success == (not isinstance(terminal, Failed))
        assert byte_level.terminated_early == isinstance(terminal, EarlyStop)
        assert byte_level.rounds == terminal.round
        assert byte_level.frames_sent == frames_sent == oracle.packets_sent


# ---------------------------------------------------------------------------
# Golden regression: pre-refactor outcomes, replayed bit-for-bit
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _goldens():
    return json.loads(GOLDENS_PATH.read_text())


@lru_cache(maxsize=None)
def _golden_prepared(doc_size: int, gamma: float):
    sender = DocumentSender(
        Packetizer(packet_size=_goldens()["packet_size"], redundancy_ratio=gamma)
    )
    payload = bytes(range(256)) * (doc_size // 256)
    return sender.prepare_raw("golden", payload), payload


def _case_id(case, keys):
    return " ".join(f"{key}={case[key]}" for key in keys)


class TestGoldenTransportReplay:
    """Engine-driven session == pre-refactor session, exactly."""

    @pytest.mark.parametrize(
        "geometry", sorted({(c["doc_size"], c["gamma"]) for c in _goldens()["transport"]})
    )
    def test_byte_path_matches_goldens(self, geometry):
        doc_size, gamma = geometry
        goldens = _goldens()
        prepared, payload = _golden_prepared(doc_size, gamma)
        cases = [
            c
            for c in goldens["transport"]
            if (c["doc_size"], c["gamma"]) == geometry
        ]
        assert cases
        for case in cases:
            channel = WirelessChannel(
                alpha=case["alpha"], rng=random.Random(case["seed"])
            )
            cache = PacketCache() if case["caching"] else None
            result = transfer_document(
                prepared,
                channel,
                cache=cache,
                settings=TransferSettings(
                    relevance_threshold=case["threshold"],
                    max_rounds=goldens["max_rounds"],
                ),
            )
            label = _case_id(case, ("alpha", "caching", "threshold", "seed"))
            assert result.success == case["success"], label
            assert result.terminated_early == case["terminated_early"], label
            assert result.rounds == case["rounds"], label
            assert result.frames_sent == case["frames_sent"], label
            assert result.response_time == case["response_time"], label
            assert result.content_received == case["content_received"], label
            payload_ok = result.payload == payload if result.payload is not None else None
            assert payload_ok == case["payload_ok"], label


class TestGoldenOracleReplay:
    """Engine-driven oracle runner == pre-refactor runner, exactly."""

    @pytest.mark.parametrize(
        "geometry", sorted({(c["m"], c["n"]) for c in _goldens()["oracle"]})
    )
    def test_oracle_path_matches_goldens(self, geometry):
        m, n = geometry
        goldens = _goldens()
        cases = [c for c in goldens["oracle"] if (c["m"], c["n"]) == geometry]
        assert cases
        for case in cases:
            profile = [1.0 / m] * m if case["threshold"] is not None else None
            outcome = simulate_transfer(
                m=m,
                n=n,
                alpha=case["alpha"],
                packet_time=goldens["packet_time"],
                rng=random.Random(case["seed"]),
                caching=case["caching"],
                relevance_threshold=case["threshold"],
                content_profile=profile,
                max_rounds=goldens["max_rounds"],
            )
            label = _case_id(case, ("alpha", "caching", "threshold", "seed"))
            assert outcome.success == case["success"], label
            assert outcome.terminated_early == case["terminated_early"], label
            assert outcome.rounds == case["rounds"], label
            assert outcome.packets_sent == case["packets_sent"], label
            assert outcome.response_time == case["response_time"], label


class TestCrnDeterminismUnderJobs:
    """Engine-driven sessions stay byte-identical across worker counts."""

    def test_serial_and_parallel_sweeps_agree(self):
        params = Parameters(repetitions=4, documents_per_session=4)
        master = random.Random(99)
        seeds = tuple(master.getrandbits(64) for _ in range(4))
        tasks = [
            SessionTask(params, seeds, caching)
            for caching in (False, True)
        ]
        serial = map_session_means(tasks, jobs=1)
        parallel = map_session_means(tasks, jobs=2)
        assert serial == parallel  # bit-for-bit, not approx
