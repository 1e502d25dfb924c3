"""Transport substrate: the wireless channel, the fault-tolerant
multi-resolution transfer protocol, packet caching, and the ARQ /
compression / prefetching companions.
"""

from repro.transport.channel import Delivery, ModelChannel, WirelessChannel
from repro.transport.cache import NullCache, PacketCache
from repro.transport.receiver import TransferReceiver
from repro.transport.session import TransferResult, transfer_document
from repro.transport.arq import ArqResult, selective_repeat, stop_and_wait
from repro.transport.compress import (
    CompressionError,
    CompressionInterceptor,
    compress,
    decompress,
)
from repro.transport.prefetch import PrefetchCandidate, Prefetcher, PrefetchReport

__all__ = [
    "WirelessChannel",
    "ModelChannel",
    "Delivery",
    "PacketCache",
    "NullCache",
    "TransferReceiver",
    "transfer_document",
    "TransferResult",
    "stop_and_wait",
    "selective_repeat",
    "ArqResult",
    "compress",
    "decompress",
    "CompressionError",
    "CompressionInterceptor",
    "Prefetcher",
    "PrefetchCandidate",
    "PrefetchReport",
]
