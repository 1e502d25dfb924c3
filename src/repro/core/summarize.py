"""Summary-first browsing baseline (paper §2, refs [5, 14]).

Related work generates "summarized information of a web document and
presenting the summary before retrieving the whole document as a kind
of filtering mechanism", with lead-in sentences as the summary.  The
paper's criticism — and the reason multi-resolution wins — is that
"the whole document is often not a refinement of the summary, thus
consuming additional bandwidth when a relevant document is later
retrieved": the summary bytes are paid *twice* for relevant documents.

This module builds lead-in summaries from an SC and provides the
two-phase transfer so benchmarks can quantify that overhead against
multi-resolution transmission, which needs no second phase.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.coding.packets import Packetizer
from repro.core.lod import LOD
from repro.core.structure import StructuralCharacteristic
from repro.prep.prepare import DocumentSender
from repro.prep.request import TransferSettings
from repro.text.tokens import lead_in_sentence
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.session import TransferResult, transfer_document


def build_summary(sc: StructuralCharacteristic, max_sentences: Optional[int] = None) -> str:
    """Lead-in-sentence summary of a document.

    Takes the first sentence of every paragraph, in document order,
    prefixed by the document title — the construction of Brandow et
    al. [5] that the related-work systems present before the full
    retrieval.
    """
    sentences = []
    if sc.root.title:
        sentences.append(sc.root.title + ".")
    for paragraph in sc.paragraphs():
        text = paragraph.payload.decode("utf-8", errors="replace")
        lead = lead_in_sentence(text)
        if lead:
            sentences.append(lead)
        if max_sentences is not None and len(sentences) >= max_sentences:
            break
    return " ".join(sentences)


class SummaryFirstResult(NamedTuple):
    """Outcome of a two-phase summary-then-document browse."""

    summary_result: TransferResult
    document_result: Optional[TransferResult]  # None when judged irrelevant
    response_time: float
    frames_sent: int
    bytes_transferred_twice: int  # the paper's double-payment overhead


def summary_first_browse(
    sc: StructuralCharacteristic,
    channel: WirelessChannel,
    relevant: bool,
    packetizer: Optional[Packetizer] = None,
    cache: Optional[PacketCache] = None,
    document_id: str = "doc",
    max_rounds: int = 50,
) -> SummaryFirstResult:
    """Browse one document summary-first over *channel*.

    Phase 1 transfers the lead-in summary.  If the user judges the
    document *relevant*, phase 2 transfers the **entire** document —
    including the content the summary already carried, because the
    document is not a refinement of the summary.  Irrelevant documents
    stop after phase 1.
    """
    if packetizer is None:
        packetizer = Packetizer(packet_size=256, redundancy_ratio=1.5)
    sender = DocumentSender(packetizer)

    settings = TransferSettings(max_rounds=max_rounds)
    summary = build_summary(sc).encode("utf-8")
    summary_prepared = sender.prepare_raw(f"{document_id}#summary", summary)
    summary_result = transfer_document(
        summary_prepared, channel, cache=cache, settings=settings
    )

    if not relevant or not summary_result.success:
        return SummaryFirstResult(
            summary_result=summary_result,
            document_result=None,
            response_time=summary_result.response_time,
            frames_sent=summary_result.frames_sent,
            bytes_transferred_twice=0,
        )

    document_payload = sc.root.subtree_payload()
    document_prepared = sender.prepare_raw(document_id, document_payload)
    document_result = transfer_document(
        document_prepared, channel, cache=cache, settings=settings
    )
    return SummaryFirstResult(
        summary_result=summary_result,
        document_result=document_result,
        response_time=summary_result.response_time + document_result.response_time,
        frames_sent=summary_result.frames_sent + document_result.frames_sent,
        bytes_transferred_twice=len(summary),
    )


def multiresolution_browse(
    sc: StructuralCharacteristic,
    channel: WirelessChannel,
    relevant: bool,
    measure: str = "ic",
    threshold: float = 0.3,
    packetizer: Optional[Packetizer] = None,
    cache: Optional[PacketCache] = None,
    document_id: str = "doc",
    max_rounds: int = 50,
) -> TransferResult:
    """The paper's single-phase counterpart for the same decision task.

    One transfer at paragraph LOD: irrelevant documents terminate at
    content *threshold*; relevant ones continue to reconstruction in
    the *same* stream — nothing is transmitted twice.
    """
    from repro.core.multires import TransmissionSchedule

    if packetizer is None:
        packetizer = Packetizer(packet_size=256, redundancy_ratio=1.5)
    schedule = TransmissionSchedule(sc, lod=LOD.PARAGRAPH, measure=measure)
    prepared = DocumentSender(packetizer).prepare(document_id, schedule)
    return transfer_document(
        prepared,
        channel,
        cache=cache,
        settings=TransferSettings(
            relevance_threshold=None if relevant else threshold,
            max_rounds=max_rounds,
        ),
    )
