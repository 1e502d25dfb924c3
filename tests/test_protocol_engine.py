"""Unit tests for the sans-IO §4.2 transfer engine (repro.protocol)."""

import random
from pathlib import Path

import pytest

from repro import obs
from repro.channel import IIDModel
from repro.obs import trace as tr
from repro.protocol import (
    DEFAULT_MAX_ROUNDS,
    Decoded,
    EarlyStop,
    Failed,
    FaultInjector,
    FrameCorrupt,
    FrameDelivered,
    FrameLost,
    RenderPrefix,
    RoundEnded,
    SendRound,
    Stalled,
    TERMINAL_EFFECTS,
    TelemetryBridge,
    TransferEngine,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def deliver_all(engine, n, skip=()):
    """Feed one round of intact frames, skipping *skip*; return terminal."""
    for seq in range(n):
        if seq in skip:
            terminal = engine.on_frame_lost(seq)
        else:
            terminal = engine.on_frame_intact(seq)
        if terminal is not None:
            return terminal
    return engine.on_round_ended()


class TestValidation:
    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            TransferEngine(0, 4)

    def test_n_must_cover_m(self):
        with pytest.raises(ValueError):
            TransferEngine(5, 4)

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            TransferEngine(2, 4, max_rounds=0)

    def test_threshold_requires_profile(self):
        with pytest.raises(ValueError, match="content_profile"):
            TransferEngine(2, 4, relevance_threshold=0.5)

    def test_profile_length_must_match_m(self):
        with pytest.raises(ValueError, match="expected M"):
            TransferEngine(3, 4, content_profile=[0.5, 0.5])

    def test_sequence_out_of_range_rejected(self):
        engine = TransferEngine(2, 4)
        engine.start()
        with pytest.raises(ValueError, match="out of range"):
            engine.on_frame_intact(4)

    def test_start_twice_rejected(self):
        engine = TransferEngine(2, 4)
        engine.start()
        with pytest.raises(RuntimeError):
            engine.start()


class TestTermination:
    def test_decodes_at_m_intact(self):
        engine = TransferEngine(3, 5)
        assert engine.start() is None
        assert engine.on_frame_intact(0) is None
        assert engine.on_frame_intact(4) is None
        terminal = engine.on_frame_intact(2)
        assert terminal == Decoded(round=1, intact=3)
        assert engine.finished is terminal
        assert engine.can_reconstruct()

    def test_duplicates_do_not_advance(self):
        engine = TransferEngine(3, 5)
        engine.start()
        engine.on_frame_intact(0)
        assert engine.on_frame_intact(0) is None
        assert engine.intact_count == 1

    def test_threshold_checked_before_decode(self):
        """At the M-th packet an F ≤ total document is judged first."""
        engine = TransferEngine(
            2, 3, content_profile=[0.5, 0.5], relevance_threshold=1.0
        )
        engine.start()
        engine.on_frame_intact(0)
        terminal = engine.on_frame_intact(1)
        assert isinstance(terminal, EarlyStop)
        assert terminal.content == pytest.approx(1.0)

    def test_early_stop_on_partial_content(self):
        engine = TransferEngine(
            4, 6, content_profile=[0.4, 0.3, 0.2, 0.1], relevance_threshold=0.6
        )
        engine.start()
        assert engine.on_frame_intact(0) is None  # 0.4 < 0.6
        terminal = engine.on_frame_intact(1)      # 0.7 >= 0.6
        assert terminal == EarlyStop(round=1, content=pytest.approx(0.7))

    def test_redundancy_packets_carry_no_content(self):
        engine = TransferEngine(
            2, 4, content_profile=[0.5, 0.5], relevance_threshold=0.4
        )
        engine.start()
        assert engine.on_frame_intact(2) is None  # redundancy: no content
        assert engine.content_received == 0.0

    def test_failure_at_max_rounds(self):
        engine = TransferEngine(2, 3, max_rounds=2)
        assert engine.start() is None
        assert deliver_all(engine, 3, skip={0, 1, 2}) is None  # round 1 stalls
        terminal = deliver_all(engine, 3, skip={0, 1, 2})
        assert terminal == Failed(round=2, intact=0)

    def test_f_zero_discards_before_any_packet(self):
        engine = TransferEngine(
            2, 3, content_profile=[0.5, 0.5], relevance_threshold=0.0
        )
        assert engine.start() == EarlyStop(round=0, content=0.0)

    def test_preloaded_document_decodes_at_round_zero(self):
        engine = TransferEngine(2, 4, preloaded=[1, 3])
        assert engine.start() == Decoded(round=0, intact=2)

    def test_terminal_is_sticky(self):
        engine = TransferEngine(1, 2)
        engine.start()
        terminal = engine.on_frame_intact(0)
        assert isinstance(terminal, Decoded)
        assert engine.on_frame_intact(1) is terminal
        assert engine.on_round_ended() is terminal
        assert engine.handle(FrameDelivered(1)) == (terminal,)


class TestCachePolicy:
    def test_nocaching_restarts_from_zero(self):
        engine = TransferEngine(3, 4, caching=False)
        engine.start()
        engine.on_frame_intact(0)
        engine.on_frame_intact(1)
        assert engine.on_round_ended() is None
        assert engine.intact_count == 0
        assert engine.round == 2

    def test_caching_keeps_intact_set(self):
        engine = TransferEngine(3, 4, caching=True)
        engine.start()
        engine.on_frame_intact(0)
        engine.on_frame_intact(1)
        assert engine.on_round_ended() is None
        assert engine.intact_count == 2
        terminal = engine.on_frame_intact(2)
        assert terminal == Decoded(round=2, intact=3)

    def test_carried_overrides_policy(self):
        """A driver's cache can overrule the engine default (eviction)."""
        engine = TransferEngine(3, 4, caching=True)
        engine.start()
        engine.on_frame_intact(0)
        engine.on_round_ended(carried=False)
        assert engine.intact_count == 0

        engine = TransferEngine(3, 4, caching=False)
        engine.start()
        engine.on_frame_intact(0)
        engine.on_round_ended(carried=True)
        assert engine.intact_count == 1


class TestTypedEvents:
    def test_begin_emits_send_round(self):
        engine = TransferEngine(2, 3)
        assert engine.begin() == (SendRound(1),)

    def test_begin_emits_terminal_for_preloaded(self):
        engine = TransferEngine(2, 3, preloaded=[0, 1])
        assert engine.begin() == (Decoded(round=0, intact=2),)

    def test_round_ended_emits_stalled_then_send_round(self):
        engine = TransferEngine(2, 3)
        engine.begin()
        engine.handle(FrameDelivered(0))
        effects = engine.handle(RoundEnded())
        assert effects == (Stalled(round=1, intact=1), SendRound(2))

    def test_round_ended_at_bound_emits_stalled_then_failed(self):
        engine = TransferEngine(2, 3, max_rounds=1)
        engine.begin()
        effects = engine.handle(RoundEnded())
        assert effects == (Stalled(round=1, intact=0), Failed(round=1, intact=0))

    def test_corrupt_and_lost_leave_state_untouched(self):
        engine = TransferEngine(2, 3)
        engine.begin()
        assert engine.handle(FrameCorrupt(0)) == ()
        assert engine.handle(FrameLost(1)) == ()
        assert engine.intact_count == 0
        assert engine.corrupted_seen == 1
        assert engine.lost_seen == 1

    def test_unknown_event_rejected(self):
        engine = TransferEngine(2, 3)
        engine.begin()
        with pytest.raises(TypeError):
            engine.handle(object())

    def test_terminal_effects_union_is_exhaustive(self):
        assert TERMINAL_EFFECTS == (EarlyStop, Decoded, Failed)


class TestPrefixTracking:
    def test_render_prefix_emitted_as_prefix_grows(self):
        engine = TransferEngine(3, 4, track_prefix=True)
        engine.begin()
        assert engine.handle(FrameDelivered(1)) == ()  # gap at 0: no prefix
        effects = engine.handle(FrameDelivered(0))     # closes the gap: 0..1
        assert effects == (RenderPrefix(2),)
        effects = engine.handle(FrameDelivered(2))
        assert effects[0] == RenderPrefix(3)
        assert isinstance(effects[1], Decoded)

    def test_redundancy_never_extends_prefix(self):
        engine = TransferEngine(2, 4, track_prefix=True)
        engine.begin()
        assert engine.handle(FrameDelivered(3)) == ()
        assert engine.prefix_packets == 0

    def test_preloaded_prefix_emitted_at_begin(self):
        engine = TransferEngine(3, 5, track_prefix=True, preloaded=[0])
        effects = engine.begin()
        assert effects == (RenderPrefix(1), SendRound(1))

    def test_prefix_resets_with_nocaching_stall(self):
        engine = TransferEngine(3, 4, track_prefix=True, caching=False)
        engine.begin()
        engine.handle(FrameDelivered(0))
        engine.handle(RoundEnded())
        assert engine.prefix_packets == 0


class TestTelemetrySingleEmission:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable(reset=True)
        yield
        obs.disable(reset=True)

    def test_bridge_emits_each_protocol_event_once(self):
        obs.enable()
        bridge = TelemetryBridge("transfer")
        engine = TransferEngine(2, 3, max_rounds=3, bridge=bridge)
        engine.start()
        engine.on_round_ended()          # stall 1
        engine.on_frame_intact(0)
        engine.on_frame_intact(1)        # decode in round 2
        events = [e.event for e in obs.OBS.trace.events]
        assert events.count(tr.TRANSFER_START) == 1
        assert events.count(tr.ROUND_START) == 2
        assert events.count(tr.ROUND_STALLED) == 1
        assert events.count(tr.DECODE_COMPLETE) == 1
        assert events.count(tr.EARLY_STOP) == 0

    def test_unknown_namespace_rejected(self):
        with pytest.raises(ValueError, match="namespace"):
            TelemetryBridge("nope")

    def test_disabled_bridge_emits_nothing(self):
        bridge = TelemetryBridge("sim")
        engine = TransferEngine(2, 3, bridge=bridge)
        engine.start()
        engine.on_frame_intact(0)
        engine.on_frame_intact(1)
        bridge.complete(
            success=True, terminated_early=False, rounds=1, frames=2,
            content=1.0, response_time=0.1,
        )
        assert len(obs.OBS.trace) == 0
        assert len(obs.OBS.metrics) == 0

    def test_drivers_emit_no_protocol_events_directly(self):
        """Round/stall/decode/early-stop come from the bridge only."""
        protocol_event_names = (
            "ROUND_START", "ROUND_STALLED", "DECODE_COMPLETE", "EARLY_STOP",
        )
        drivers = [
            SRC / "transport" / "session.py",
            SRC / "simulation" / "runner.py",
            SRC / "prototype" / "client.py",
        ]
        for path in drivers:
            source = path.read_text(encoding="utf-8")
            for name in protocol_event_names:
                assert name not in source, f"{path.name} emits {name} directly"


class TestFaultInjector:
    def test_validation(self):
        with pytest.raises(ValueError):
            IIDModel(drop=1.5)
        with pytest.raises(ValueError):
            IIDModel(outage_events=-1)

    def test_drop_converts_delivery_to_loss(self):
        engine = TransferEngine(2, 3)
        faulty = FaultInjector(engine, IIDModel(rng=random.Random(0), drop=1.0))
        faulty.begin()
        assert faulty.handle(FrameDelivered(0)) == ()
        assert engine.intact_count == 0
        assert engine.lost_seen == 1
        assert faulty.model.dropped == 1

    def test_corrupt_converts_delivery_to_crc_failure(self):
        engine = TransferEngine(2, 3)
        faulty = FaultInjector(engine, IIDModel(rng=random.Random(0), corrupt=1.0))
        faulty.begin()
        faulty.handle(FrameDelivered(0))
        assert engine.corrupted_seen == 1
        assert faulty.model.corrupted == 1

    def test_disconnect_opens_outage_window(self):
        engine = TransferEngine(2, 6)
        model = IIDModel(rng=random.Random(0), disconnect=1.0, outage_events=3)
        faulty = FaultInjector(engine, model)
        faulty.begin()
        for seq in range(3):
            faulty.handle(FrameDelivered(seq))
        # One window: its opening frame is the disconnect, the rest drops;
        # at the event level all three became FrameLost.
        assert model.counters() == {
            "frames": 3, "passed": 0, "dropped": 2, "corrupted": 0, "disconnects": 1,
        }
        assert engine.lost_seen == 3
        assert engine.intact_count == 0

    def test_round_ended_passes_through(self):
        engine = TransferEngine(2, 3)
        faulty = FaultInjector(engine, IIDModel(rng=random.Random(0), drop=1.0))
        faulty.begin()
        effects = faulty.handle(RoundEnded())
        assert effects == (Stalled(round=1, intact=0), SendRound(2))

    def test_seeded_schedule_is_deterministic(self):
        def run(seed):
            engine = TransferEngine(4, 8, max_rounds=20)
            model = IIDModel(
                rng=random.Random(seed), drop=0.3, corrupt=0.2,
                disconnect=0.05, outage_events=4,
            )
            faulty = FaultInjector(engine, model)
            faulty.begin()
            while engine.finished is None:
                for seq in range(8):
                    faulty.handle(FrameDelivered(seq))
                    if engine.finished is not None:
                        break
                else:
                    faulty.handle(RoundEnded())
            return engine.finished, model.counters()

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_injector_never_draws_from_engine_path(self):
        """The injector has its own RNG: no draw on pass-through events."""
        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

        rng = CountingRandom(3)
        engine = TransferEngine(2, 3)
        faulty = FaultInjector(engine, IIDModel(rng=rng, drop=0.5))
        faulty.begin()
        faulty.handle(RoundEnded())
        assert CountingRandom.calls == 0  # RoundEnded costs no draw
        faulty.handle(FrameDelivered(0))
        assert CountingRandom.calls == 1  # exactly one per delivery


class TestDefaultMaxRounds:
    def test_one_constant_everywhere(self):
        import inspect

        from repro.prep.request import TransferSettings
        from repro.prototype.client import SequenceManager
        from repro.transport.arq import selective_repeat, stop_and_wait
        from repro.transport.session import transfer_document

        assert DEFAULT_MAX_ROUNDS == 100
        # transfer_document and SequenceManager take it via settings=.
        for driver in (transfer_document, SequenceManager.__init__):
            assert inspect.signature(driver).parameters["settings"].default is None
        sig = inspect.signature(TransferSettings)
        assert sig.parameters["max_rounds"].default == DEFAULT_MAX_ROUNDS
        sig = inspect.signature(selective_repeat)
        assert sig.parameters["max_rounds"].default == DEFAULT_MAX_ROUNDS
        sig = inspect.signature(stop_and_wait)
        assert sig.parameters["max_attempts_per_packet"].default == DEFAULT_MAX_ROUNDS
        sig = inspect.signature(TransferEngine.__init__)
        assert sig.parameters["max_rounds"].default == DEFAULT_MAX_ROUNDS

    def test_disconnect_cumulative_cap(self):
        import inspect

        from repro.transport.disconnect import resumable_transfer

        sig = inspect.signature(resumable_transfer)
        assert sig.parameters["max_total_rounds"].default == DEFAULT_MAX_ROUNDS
