"""Seeded inputs for the benchmark workloads.

Everything a run feeds the program — the documents and the request
stream of each user agent — is a pure function of ``(workload, seed)``
built here, so the same seed always yields the same corpus and the
same requests.  Nothing in this module touches a socket or a process.

Three workloads (see ``METRICS.md`` for why each exists):

``browse-session``
    The paper's §5 session scaled to today's pages: a 200-page corpus,
    page sizes log-uniform over 4 KiB–1 MiB, Zipf popularity.  One user
    makes a session of 15 drawn visits and 4 returns to its home page
    against a cold server; sessions repeat, each on a variant of the
    script.  Each visit uses a packet size from {256, 512, 1024}, a
    third carry the page's topic query, and every other visit is
    irrelevant (F = 0.5).
``hot-lossy``
    A small hot set of 10–64 KiB pages, warmed before timing (the
    agents also run 3 s untimed), fetched by two agents through a chaos
    proxy running a Gilbert–Elliott channel matched to α = 0.1 with
    bursts of about 4 frames, plus rare disconnects.
``hot-carousel``
    The same hot set aired by the server's carousel on the skewed
    schedule with a pause between air cycles, fetched by two agents
    with ``delivery=carousel`` over clean loopback.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.simulation.textgen import CorpusGenerator

WORKLOADS = ("browse-session", "hot-lossy", "hot-carousel")

#: Closed-loop user agents of the hot workloads, one connection each
#: (the host has 2 cores).  The browsing session is one user.
AGENTS = 2

#: Redundancy ratio of every request (the paper's γ).
GAMMA = 1.5
#: Largest M the single-block GF(2^8) code serves at γ without clamping
#: N to 255: ceil(γ·M) ≤ 255.
MAX_M = int(255 // GAMMA)
#: The GF(2^8) limit itself: above it the cook raises CodecError.
CODEC_LIMIT = 255

PACKET_SIZES = (256, 512, 1024)
#: Relevance threshold of an irrelevant fetch (the paper's F).
IRRELEVANT_F = 0.5

BROWSE_DOCS = 200
BROWSE_MIN_BYTES = 4 * 1024
BROWSE_MAX_BYTES = 1024 * 1024
#: Oversized pages fetched once after the timed window (they fail
#: today; see ``Workload.probes``).
BROWSE_PROBES = 1

HOT_DOCS = 6
HOT_MIN_BYTES = 10 * 1024
HOT_MAX_BYTES = 64 * 1024
#: Hot pages travel in 512 B packets: at 256 B the top of the
#: 10–64 KiB range would exceed MAX_M and clamp γ.
HOT_PACKET_SIZE = 512
#: Hot popularity ranks from the smallest page up.  The most popular
#: page (rank 0, 41% of fetches) is mid-sized and the pages smaller
#: than it draw 29% of fetches, so the median fetch falls inside rank
#: 0's latency cluster rather than at the edge between two pages'.
HOT_SIZE_ORDER = [1, 4, 0, 2, 3, 5]

#: The hot-lossy channel: Gilbert–Elliott matched to the paper's α.
LOSSY_ALPHA = 0.1
LOSSY_BURST = 4.0
#: Per-frame probability that the proxy severs the link, and the cap
#: on severed links per run.
LOSSY_DISCONNECT = 1.0 / 4000.0
LOSSY_MAX_DISCONNECTS = 40
#: The hot-lossy link's bandwidth in kbit/s, shared by both agents, and
#: the bytes a cooked frame takes on it: the packet, its 4-byte
#: sequence number and CRC, and the 5-byte message envelope.  A weak
#: link sets the pace of a fetch, as in the paper; on an unpaced
#: loopback the fetch times followed the host's speed, which on a
#: shared 2-vCPU VM swung by a third within minutes.
LOSSY_BANDWIDTH_KBPS = 8000.0
LOSSY_FRAME_BYTES = HOT_PACKET_SIZE + 4 + 5

#: Latency limit L per workload, in seconds.  A fetch that fails,
#: returns wrong bytes or takes longer than L enters the latency
#: sample as L.
LATENCY_LIMIT_S = {
    "browse-session": 10.0,
    "hot-lossy": 2.0,
    "hot-carousel": 2.0,
}

#: Seconds each hot agent runs its closed loop, untimed, before the
#: window opens: the first seconds after the processes start read up to
#: a third slower than the rest of a run.
HOT_WARMUP_S = 3.0
#: Pause between two air cycles of the carousel.  The air channel then
#: has a fixed period, as a broadcast medium does; airing back-to-back
#: lets the server fill the subscribers' socket buffers with slots no
#: one reads, and bytes on the air per fetch follow the host's speed.
#: At 20 ms the two agents spent about 70% of a period reading frames,
#: and a slower host tipped them into dropped slots and extra cycles.
CAROUSEL_INTERVAL_S = 0.04

#: Requests generated per hot agent; a run that exhausts them wraps
#: around.
STREAM_LENGTH = 4000
#: Requests per systematically sampled block of a hot stream.
BLOCK = 32
#: Visit scripts of the browsing sessions, used in turn.  Each is the
#: one seed-independent script with every page swapped for a page one
#: or two size strata away (``_neighbour_pages``).  Identical sessions would
#: hit a server garbage collection or an early-stop point on the same
#: visit every time, and which visit that is changes with the seed's
#: text; near the median of a session a single such visit moved the
#: pooled fetch_p50_s by a third between seeds.  More variants than a
#: run holds sessions.
SESSION_VARIANTS = 16
#: Page visits of one browsing session drawn from the Zipf popularity,
#: and the visits that follow them back to the session's most visited
#: page (its home page).  The drawn visits split into 8 fast ones
#: (hits, small pages) and 7 slow ones (cold cooks), which put the
#: pooled median on the slowest fast visit: the session's first, whose
#: cost is the cold client process's and swings with the host.  Four
#: home-page hits move the median to the 10th of 19 visits, among
#: small cold pages of about the same cost.  The odd count puts the
#: median on one visit.
SESSION_DRAWS = 15
SESSION_REVISITS = 4
SESSION_VISITS = SESSION_DRAWS + SESSION_REVISITS

#: Seed of the word list every corpus draws from; ``--seed`` picks the
#: pages' texts (the generator's document ids), topics and queries.
#: Word lengths differ between seeded vocabularies, and with them the
#: words, and so the parsing and scoring work, in a page of a given
#: size: a vocabulary per seed moved the browse median by up to a
#: fifth between seeds.
VOCABULARY_SEED = 0

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Fetch:
    """One request of a user agent."""

    doc: str
    packet_size: int
    query: str = ""
    relevant: bool = True

    @property
    def threshold(self) -> Optional[float]:
        """The fetch's relevance threshold F (None: read to the end)."""
        return None if self.relevant else IRRELEVANT_F

    def request(self, delivery: str = "unicast"):
        """The ``PrepRequest`` the fetch sends."""
        from repro.prep import DeliveryMode, PrepRequest

        return PrepRequest(
            packet_size=self.packet_size,
            query=self.query,
            gamma=GAMMA,
            delivery=DeliveryMode(delivery),
        )


@dataclass
class Workload:
    """The generated inputs of one run."""

    name: str
    seed: int
    latency_limit_s: float
    #: document id → XML source, every page the server registers.
    documents: Dict[str, str]
    #: one request stream per user agent, consumed in order.
    streams: List[List[Fetch]]
    #: requests prepared on the server before it reports ready.
    warm: List[Fetch] = field(default_factory=list)
    #: document id → demand count fed to the server before the
    #: carousel is built (the skewed schedule ranks by it).
    hotness: Dict[str, int] = field(default_factory=dict)
    #: requests each agent makes once before the timed window.
    client_warm: List[Fetch] = field(default_factory=list)
    #: seconds the agents run their streams, untimed, before the window.
    warmup_s: float = 0.0
    #: pages the single-block code cannot serve, fetched once after
    #: the window so the failure path shows as numbers.
    probes: List[Fetch] = field(default_factory=list)
    delivery: str = "unicast"
    lossy: bool = False
    #: False: one session cycles through the streams for ``--seconds``.
    #: True: a session makes each request of its stream once, against
    #: a fresh server and a fresh client process, and sessions repeat
    #: while the run has time left.
    fixed_sessions: bool = False
    #: Fixed sessions only: one single-agent stream per session, used
    #: in turn (``streams`` holds the first).
    variants: List[List[Fetch]] = field(default_factory=list)

    def session_streams(self, session: int) -> List[List[Fetch]]:
        """The request streams of session number *session*."""
        if self.variants:
            return [self.variants[session % len(self.variants)]]
        return self.streams


def raw_packets(size: int, packet_size: int) -> int:
    """M for a payload of *size* bytes (an XML page bounds its payload)."""
    return -(-size // packet_size)


def fits(size: int, packet_size: int) -> bool:
    """Whether a page of *size* XML bytes is served at γ without clamping."""
    return raw_packets(size, packet_size) <= MAX_M


class _Pages:
    """Pages of a target size from one seeded corpus generator.

    Word lengths differ between seeded vocabularies, so the bytes per
    section are measured on this generator before sizing any page.
    """

    def __init__(self, generator: CorpusGenerator) -> None:
        self.generator = generator
        small = len(self._xml(-1, 0, 1))
        large = len(self._xml(-1, 0, 41))
        self.per_section = (large - small) / 40
        self.base = small - self.per_section

    def _xml(self, index: int, topic: int, sections: int) -> str:
        xml, _ = self.generator.document(
            index, topic=topic, sections=sections, subsections=2, paragraphs=2
        )
        return xml

    def page(self, index: int, topic: int, target: int) -> str:
        sections = max(1, round((target - self.base) / self.per_section))
        xml = self._xml(index, topic, sections)
        # Topic words differ in length too: correct once on the page.
        sections = max(1, round(sections * (target - self.base) / (len(xml) - self.base)))
        return self._xml(index, topic, sections)


def _stratified_sizes(
    count: int, low: int, high: int, order: Optional[List[int]] = None
) -> List[int]:
    """Log-uniform page sizes: one per stratum of the log range, at its
    centre, indexed by popularity rank.

    *order* lists the ranks from the smallest stratum up; by default
    strata go to ranks in golden-ratio order, so the most popular pages
    span the whole range.  Sizes do not depend on the seed: the cost of
    a cold cook grows with the cube of M, and the few largest pages of
    a run would otherwise set its spread.
    """
    if order is None:
        order = sorted(range(count), key=lambda rank: (rank * _PHI) % 1.0)
    stratum = {rank: index for index, rank in enumerate(order)}
    span = math.log(high / low)
    return [
        int(low * math.exp(span * (stratum[rank] + 0.5) / count)) for rank in range(count)
    ]


def _zipf_weights(count: int) -> List[float]:
    """Zipf popularity (exponent 1) over *count* ranks."""
    return [1.0 / (rank + 1) for rank in range(count)]


def _systematic_draws(weights: List[float], count: int, rng: random.Random) -> List[int]:
    """*count* Zipf draws whose histogram matches *weights* within one.

    Systematic sampling: one draw per 1/count slice of the cumulative
    distribution at a seeded offset, then shuffled.  Every block of a
    stream then holds the same popularity mix, and a run of a few
    blocks sees nearly the same mix whatever the seed.
    """
    total = sum(weights)
    cumulative = list(itertools.accumulate(weight / total for weight in weights))
    offset = rng.random()
    draws = [
        min(bisect.bisect_left(cumulative, (index + offset) / count), len(weights) - 1)
        for index in range(count)
    ]
    rng.shuffle(draws)
    return draws


def browse_session(seed: int) -> Workload:
    rng = random.Random(f"browse-session/{seed}")
    generator = CorpusGenerator(seed=VOCABULARY_SEED)
    topics = len(generator.topics)
    sizes = _stratified_sizes(BROWSE_DOCS, BROWSE_MIN_BYTES, BROWSE_MAX_BYTES)
    ids = [f"page-{rank:03d}" for rank in range(BROWSE_DOCS)]
    topic_of = {doc: rng.randrange(topics) for doc in ids}
    packet_sizes = {
        rank: [size for size in PACKET_SIZES if fits(sizes[rank], size)]
        for rank in range(BROWSE_DOCS)
    }
    servable = [rank for rank in range(BROWSE_DOCS) if packet_sizes[rank]]
    # Probes: the smallest pages whose payload is past the codec limit
    # at every packet size, with margin: a page is about 10% larger as
    # XML than as the payload the server cooks.
    oversized = sorted(
        (rank for rank in range(BROWSE_DOCS)
         if raw_packets(sizes[rank], PACKET_SIZES[-1]) > 2 * CODEC_LIMIT),
        key=lambda rank: sizes[rank],
    )[:BROWSE_PROBES]
    pages = _Pages(generator)
    documents = {
        ids[rank]: pages.page(seed * BROWSE_DOCS + rank, topic_of[ids[rank]], sizes[rank])
        for rank in servable + oversized
    }
    weights = _zipf_weights(len(servable))
    # The visit script (page, packet size, query or not, relevant or
    # not) is the same for every seed; the seed makes the pages.  In a
    # short run the order of a few multi-second cold cooks sets the
    # tail, and a script drawn per seed moved fetch_p95_s by more than
    # any useful bound.
    script = random.Random("browse-session/script")
    draws = _systematic_draws(weights, SESSION_DRAWS + 1, script)[:SESSION_DRAWS]
    ranks = [servable[index] for index in draws]
    home = max(ranks, key=ranks.count)
    ranks += [home] * SESSION_REVISITS
    visits = dict.fromkeys(servable, 0)
    # (rank, packet size, with query, relevant) per visit.
    plan: List[Tuple[int, int, bool, bool]] = []
    for position, rank in enumerate(ranks):
        # A page cycles through the packet sizes it fits, starting
        # from one set by its rank.
        choices = packet_sizes[rank]
        packet_size = choices[(rank + visits[rank]) % len(choices)]
        visits[rank] += 1
        # A third of the visits carry a query; exactly every other
        # visit is irrelevant.
        plan.append((rank, packet_size, position % 3 == 0, position % 2 == 0))

    def render(pages: Dict[int, int]) -> List[Fetch]:
        return [
            Fetch(
                ids[pages[rank]],
                packet_size,
                generator.topic_query(topic_of[ids[pages[rank]]]) if query else "",
                relevant=relevant,
            )
            for rank, packet_size, query, relevant in plan
        ]

    by_size = sorted(range(BROWSE_DOCS), key=lambda rank: sizes[rank])
    stratum = {rank: index for index, rank in enumerate(by_size)}
    variants = []
    for variant in range(SESSION_VARIANTS):
        pages = _neighbour_pages(
            list(dict.fromkeys(rank for rank, *_ in plan)),
            by_size,
            stratum,
            lambda rank: packet_sizes[rank],
            random.Random(f"browse-session/variant/{variant}") if variant else None,
        )
        variants.append(render(pages))
    probes = [Fetch(ids[rank], PACKET_SIZES[-1]) for rank in oversized]
    return Workload(
        name="browse-session",
        seed=seed,
        latency_limit_s=LATENCY_LIMIT_S["browse-session"],
        documents=documents,
        streams=[variants[0]],
        probes=probes,
        fixed_sessions=True,
        variants=variants,
    )


def _neighbour_pages(
    ranks: List[int],
    by_size: List[int],
    stratum: Dict[int, int],
    fitting,
    rng: Optional[random.Random],
) -> Dict[int, int]:
    """Map each page of a session to a page a size stratum or two away.

    The substitute fits the same packet sizes, and no two pages share
    one, so a session keeps its shape: its revisits, packet sizes and
    page sizes (within a stratum or two, 3-6%).  Without *rng* every
    page maps to itself.
    """
    pages: Dict[int, int] = {}
    for rank in ranks:
        step = rng.choice((-1, 1)) if rng is not None else 0
        for offset in (step, -step, 0, 2 * step, -2 * step):
            index = stratum[rank] + offset
            if not 0 <= index < len(by_size):
                continue
            other = by_size[index]
            if other not in pages.values() and fitting(other) == fitting(rank):
                pages[rank] = other
                break
        else:
            raise ValueError(f"no page near page rank {rank} is free")
    return pages


def _hot_set(seed: int) -> Tuple[Dict[str, str], List[str]]:
    rng = random.Random(f"hot/{seed}")
    generator = CorpusGenerator(seed=VOCABULARY_SEED)
    sizes = _stratified_sizes(HOT_DOCS, HOT_MIN_BYTES, HOT_MAX_BYTES, HOT_SIZE_ORDER)
    ids = [f"hot-{rank}" for rank in range(HOT_DOCS)]
    pages = _Pages(generator)
    documents = {
        doc: pages.page(
            seed * HOT_DOCS + rank, rng.randrange(len(generator.topics)), sizes[rank]
        )
        for rank, doc in enumerate(ids)
    }
    return documents, ids


def _hot_streams(seed: int, name: str, ids: List[str]) -> List[List[Fetch]]:
    weights = _zipf_weights(len(ids))
    streams = []
    for agent in range(AGENTS):
        agent_rng = random.Random(f"{name}/{seed}/{agent}")
        stream: List[Fetch] = []
        while len(stream) < STREAM_LENGTH:
            stream.extend(
                Fetch(ids[index], HOT_PACKET_SIZE)
                for index in _systematic_draws(weights, BLOCK, agent_rng)
            )
        streams.append(stream)
    return streams


def hot_lossy(seed: int) -> Workload:
    documents, ids = _hot_set(seed)
    every = [Fetch(doc, HOT_PACKET_SIZE) for doc in ids]
    return Workload(
        name="hot-lossy",
        seed=seed,
        latency_limit_s=LATENCY_LIMIT_S["hot-lossy"],
        documents=documents,
        streams=_hot_streams(seed, "hot-lossy", ids),
        warm=every,
        client_warm=every,
        warmup_s=HOT_WARMUP_S,
        lossy=True,
    )


def hot_carousel(seed: int) -> Workload:
    documents, ids = _hot_set(seed)
    every = [Fetch(doc, HOT_PACKET_SIZE) for doc in ids]
    # Demand counts in proportion to popularity: the skewed schedule
    # ranks the carousel by them.
    hotness = {
        doc: max(1, round(100 * weight))
        for doc, weight in zip(ids, _zipf_weights(len(ids)))
    }
    return Workload(
        name="hot-carousel",
        seed=seed,
        latency_limit_s=LATENCY_LIMIT_S["hot-carousel"],
        documents=documents,
        streams=_hot_streams(seed, "hot-carousel", ids),
        warm=every,
        hotness=hotness,
        client_warm=every,
        warmup_s=HOT_WARMUP_S,
        delivery="carousel",
    )


def build(name: str, seed: int) -> Workload:
    """The inputs of workload *name* for *seed*."""
    by_name = {
        "browse-session": browse_session,
        "hot-lossy": hot_lossy,
        "hot-carousel": hot_carousel,
    }
    if name not in by_name:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return by_name[name](seed)
