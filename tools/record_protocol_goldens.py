"""Record golden §4.2 protocol outcomes into tests/data/protocol_goldens.json.

The fixture pins the observable behaviour of the transfer protocol —
success, rounds, frames on the air, early termination, response time,
received content — across seeded geometries and both cache policies,
for both the byte-exact path (``repro.transport.session``) and the
oracle-mode path (``repro.simulation.runner``).

It was first generated from the pre-``repro.protocol`` implementations
(the three hand-maintained copies of the §4.2 state machine) and is the
regression anchor of ``tests/test_integration_transport_vs_runner.py``:
any refactor of the engine or its drivers must reproduce these outcomes
bit-for-bit.  Regenerate only when the protocol is *intentionally*
changed::

    PYTHONPATH=src python tools/record_protocol_goldens.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.coding.packets import Packetizer
from repro.prep.prepare import DocumentSender
from repro.prep.request import TransferSettings
from repro.simulation.runner import simulate_transfer
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.session import transfer_document

OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "protocol_goldens.json"

#: (document_size, gamma) geometries for the byte-exact path.
BYTE_GEOMETRIES = [(2048, 1.5), (5120, 1.2), (3072, 2.0)]
#: (m, n) geometries for the oracle path.
ORACLE_GEOMETRIES = [(8, 12), (20, 24), (40, 60)]
ALPHAS = [0.0, 0.2, 0.45]
SEEDS = [1, 2, 3]
MAX_ROUNDS = 12
PACKET_SIZE = 256
PACKET_TIME = (PACKET_SIZE + 4) * 8.0 / 19200.0


def byte_cases() -> list:
    cases = []
    for doc_size, gamma in BYTE_GEOMETRIES:
        sender = DocumentSender(
            Packetizer(packet_size=PACKET_SIZE, redundancy_ratio=gamma)
        )
        payload = bytes(range(256)) * (doc_size // 256)
        prepared = sender.prepare_raw("golden", payload)
        for alpha in ALPHAS:
            for caching in (True, False):
                for threshold in (None, 0.4):
                    for seed in SEEDS:
                        channel = WirelessChannel(
                            alpha=alpha, rng=random.Random(seed)
                        )
                        cache = PacketCache() if caching else None
                        result = transfer_document(
                            prepared,
                            channel,
                            cache=cache,
                            settings=TransferSettings(
                                relevance_threshold=threshold,
                                max_rounds=MAX_ROUNDS,
                            ),
                        )
                        cases.append(
                            {
                                "doc_size": doc_size,
                                "gamma": gamma,
                                "alpha": alpha,
                                "caching": caching,
                                "threshold": threshold,
                                "seed": seed,
                                "m": prepared.m,
                                "n": prepared.n,
                                "success": result.success,
                                "terminated_early": result.terminated_early,
                                "rounds": result.rounds,
                                "frames_sent": result.frames_sent,
                                "response_time": result.response_time,
                                "content_received": result.content_received,
                                "payload_ok": (
                                    result.payload == payload
                                    if result.payload is not None
                                    else None
                                ),
                            }
                        )
    return cases


def oracle_cases() -> list:
    cases = []
    for m, n in ORACLE_GEOMETRIES:
        for alpha in ALPHAS:
            for caching in (True, False):
                for threshold in (None, 0.4):
                    profile = [1.0 / m] * m if threshold is not None else None
                    for seed in SEEDS:
                        outcome = simulate_transfer(
                            m=m,
                            n=n,
                            alpha=alpha,
                            packet_time=PACKET_TIME,
                            rng=random.Random(seed),
                            caching=caching,
                            relevance_threshold=threshold,
                            content_profile=profile,
                            max_rounds=MAX_ROUNDS,
                        )
                        cases.append(
                            {
                                "m": m,
                                "n": n,
                                "alpha": alpha,
                                "caching": caching,
                                "threshold": threshold,
                                "seed": seed,
                                "success": outcome.success,
                                "terminated_early": outcome.terminated_early,
                                "rounds": outcome.rounds,
                                "packets_sent": outcome.packets_sent,
                                "response_time": outcome.response_time,
                            }
                        )
    return cases


def main() -> None:
    goldens = {
        "packet_size": PACKET_SIZE,
        "packet_time": PACKET_TIME,
        "max_rounds": MAX_ROUNDS,
        "transport": byte_cases(),
        "oracle": oracle_cases(),
    }
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(goldens['transport'])} transport + "
        f"{len(goldens['oracle'])} oracle cases -> {OUTPUT}"
    )


if __name__ == "__main__":
    main()
