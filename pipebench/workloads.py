"""The three workloads: corpora, query streams, set-up and per-op checks.

Every input is generated from the run's ``--seed``.  A workload is a fixed
*round* of operations that the timed loop repeats; the program under test
is driven only through ``TreePiIndex.build``, ``QueryEngine``,
``ShardedEngine``, ``save_segment_index`` and ``load_segment_index``.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import repro.persistence as persistence
from repro.core import QueryEngine, TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like, synthetic_database
from repro.exceptions import GraphError
from repro.graphs.random_subgraph import random_connected_subgraph
from repro.mining import SupportFunction
from repro.serving import ShardedEngine

from oracle import nx_answer, property_errors, to_nx

#: Query sizes (edges) of every workload's mix.
Q_SIZES = (4, 8, 12, 16)
#: Graphs per corpus.
CORPUS_GRAPHS = 200
#: Mean atoms per generated molecule.
AVG_ATOMS = 14
#: Synthetic corpus: D200 I5 T12 S100 L5 (Kuramochi–Karypis parameters).
SYNTH = dict(avg_seed_edges=5, avg_graph_edges=12, num_seeds=100, num_vertex_labels=5)
#: Warm-up queries per size.
WARM_PER_SIZE = 12
#: Queries sampled for the networkx oracle in each of ``ORACLE_ROUNDS``.
ORACLE_SAMPLES = 8
#: Rounds of every timed phase whose sampled queries the oracle checks; on
#: churn round 1 reads the base that the first compaction wrote.
ORACLE_ROUNDS = (0, 1)


def treepi_config() -> TreePiConfig:
    """σ(s) with α=2, β=N/40, η=5 and γ=1.1 (the repo's scaled paper setting)."""
    return TreePiConfig(
        SupportFunction(alpha=2, beta=CORPUS_GRAPHS / 40, eta=5),
        gamma=1.1,
        seed=2007,
    )


class Op(NamedTuple):
    kind: str  # "query" | "insert" | "delete" | "compact"
    arg: int = 0  # query index, or held-out molecule index for writes


class Query(NamedTuple):
    graph: object
    host: int  # corpus id of the graph it was cut from; -1-i for held-out i


class QueryCutter:
    """Cuts random connected subgraphs of the hosts, host by host.

    Each query size walks a seeded permutation of the hosts with enough
    edges, so every host gives about as many queries as any other.
    """

    def __init__(self, hosts: List[Tuple[int, object]], rng: random.Random) -> None:
        self.hosts = hosts
        self.rng = rng
        self._cycles: Dict[int, Iterator[Tuple[int, object]]] = {}

    def cut(self, size: int) -> Query:
        cycle = self._cycles.get(size)
        if cycle is None:
            eligible = [h for h in self.hosts if h[1].num_edges >= size]
            self.rng.shuffle(eligible)
            cycle = self._cycles[size] = itertools.cycle(eligible)
        while True:
            hid, host = next(cycle)
            try:
                return Query(random_connected_subgraph(host, size, self.rng), hid)
            except GraphError:
                continue


@contextmanager
def capturing_builds() -> Iterator[List[TreePiIndex]]:
    """Collect every index built through ``TreePiIndex.build`` meanwhile."""
    built: List[TreePiIndex] = []
    raw = TreePiIndex.__dict__["build"]

    def build(cls, database, config):
        index = raw.__func__(cls, database, config)
        built.append(index)
        return index

    TreePiIndex.build = classmethod(build)
    try:
        yield built
    finally:
        TreePiIndex.build = raw


class Workload:
    """A corpus, a round of operations and the checks on their results."""

    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.corpus = self.make_corpus(seed)
        self.config = treepi_config()
        hosts = [(gid, self.corpus[gid]) for gid in self.corpus.graph_ids()]
        self.live = {gid: to_nx(g) for gid, g in hosts}
        self.hosts = hosts
        #: Indexes built by the latest set-up, collected by the caller with
        #: :func:`capturing_builds`.
        self.built: List[TreePiIndex] = []

    # -- inputs ---------------------------------------------------------
    def make_corpus(self, seed: int):
        raise NotImplementedError

    def warm_queries(self) -> List[Query]:
        """Queries one edge smaller than each timed size: never isomorphic
        to a timed query, so no answer is cached or computed in advance."""
        cutter = QueryCutter(self.hosts, random.Random(self.seed * 7 + 3))
        return [cutter.cut(q - 1) for q in Q_SIZES for _ in range(WARM_PER_SIZE)]

    # -- serving --------------------------------------------------------
    def setup(self, k: int):
        """Generated corpus to a servable engine (the timed set-up)."""
        raise NotImplementedError

    def discard(self, server) -> None:
        """Release a set-up that will not serve."""

    def run_op(self, server, op: Op):
        return server.query(self.queries[op.arg].graph)

    def index_bytes(self, server) -> int:
        return server.storage_bytes()

    def disk_bytes(self) -> int:
        return 0

    # -- checks ---------------------------------------------------------
    def live_ids(self) -> frozenset:
        return frozenset(self.live)

    def host_id(self, query: Query) -> Optional[int]:
        return query.host

    def check(self, op: Op, result) -> List[str]:
        """Property checks on one query result (run on every query)."""
        return property_errors(result, self.live_ids(), self.host_id(self.queries[op.arg]))

    def apply(self, op: Op, result) -> None:
        """Track the live set after a write."""


class ReadWorkload(Workload):
    """Read-only traffic: rounds of two queries per size, no query repeated
    until the pool of ``POOL_ROUNDS`` rounds is used up."""

    POOL_ROUNDS = 480

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        rng = random.Random(self.seed * 7 + 1)
        cutter = QueryCutter(self.hosts, rng)
        self.queries = [
            cutter.cut(q)
            for _ in range(self.POOL_ROUNDS)
            for q in Q_SIZES
            for _ in range(2)
        ]
        self.rounds = [
            [Op("query", r * 8 + i) for i in rng.sample(range(8), 8)]
            for r in range(self.POOL_ROUNDS)
        ]

    def round_ops(self, r: int) -> List[Op]:
        return self.rounds[r % self.POOL_ROUNDS]


class ChemRead(ReadWorkload):
    name = "chem-read"

    def make_corpus(self, seed: int):
        return generate_aids_like(CORPUS_GRAPHS, avg_atoms=AVG_ATOMS, seed=seed)

    def setup(self, k: int):
        return QueryEngine(TreePiIndex.build(self.corpus, self.config), cache_size=0)


class SynthShardedK2(ReadWorkload):
    name = "synth-sharded-k2"
    SHARDS = 2

    def make_corpus(self, seed: int):
        return synthetic_database(CORPUS_GRAPHS, seed=seed, **SYNTH)

    def setup(self, k: int):
        return ShardedEngine(self.corpus, self.config, self.SHARDS, cache_size=0)

    def index_bytes(self, server) -> int:
        # The tier has no storage accessor: sum the shard indexes it built.
        return sum(index.storage_bytes() for index in self.built)


class ChemChurnV3(Workload):
    """Segment-backed engine with the default cache, reads next to writes.

    One round is ``ROUND_OPS`` operations: three held-out molecules are
    inserted and later deleted again, each write followed by a query cut
    from that molecule, and the round ends with a synchronous compaction,
    so every round starts from the same corpus.  The other slots are
    queries drawn with Zipf(``ZIPF_S``) popularity over ``POOL`` queries.
    The popularity ranking is re-shuffled every round, as trending queries
    change, so the run's misses spread over many hot queries instead of
    the same few.  Every write invalidates the whole cache, so with this
    pool and write share most queries miss: the median query sits in the
    miss mode and reads through the LSM merged views.
    """

    name = "chem-churn-v3"
    ROUND_OPS = 128
    INSERT_AT = (8, 24, 40)
    DELETE_AT = (72, 88, 104)
    POOL = 1200
    ZIPF_S = 1.0
    MEMTABLE_LIMIT = 3
    CACHE_SIZE = 128

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        # Held-out molecules large enough for every probe size.
        held = generate_aids_like(
            8 * len(self.INSERT_AT), avg_atoms=AVG_ATOMS, seed=seed + 100003
        )
        self.held = [
            g for g in (held[gid] for gid in held.graph_ids())
            if g.num_edges >= max(Q_SIZES)
        ][: len(self.INSERT_AT)]
        self.held_nx = [to_nx(g) for g in self.held]
        self.rng = random.Random(self.seed * 7 + 1)
        cutter = QueryCutter(self.hosts, self.rng)
        pool = [cutter.cut(Q_SIZES[i % 4]) for i in range(self.POOL)]
        probes = [
            QueryCutter([(-1 - i, g)], self.rng).cut(Q_SIZES[1 + i % 3])
            for i, g in enumerate(self.held)
        ]
        self.queries = pool + probes
        self.weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(self.POOL)]
        self.rounds: List[List[Op]] = []
        self.held_ids: Dict[int, int] = {}
        self.dead: set = set()

    def round_ops(self, r: int) -> List[Op]:
        while len(self.rounds) <= r:
            self.rounds.append(self._draw_round())
        return self.rounds[r]

    def _draw_round(self) -> List[Op]:
        ranks = range(self.POOL)
        ranking = self.rng.sample(ranks, self.POOL)
        ops: List[Op] = []
        while len(ops) < self.ROUND_OPS - 1:
            at = len(ops)
            if at in self.INSERT_AT:
                i = self.INSERT_AT.index(at)
                ops += [Op("insert", i), Op("query", self.POOL + i)]
            elif at in self.DELETE_AT:
                i = self.DELETE_AT.index(at)
                ops += [Op("delete", i), Op("query", self.POOL + i)]
            else:
                ops.append(Op("query", ranking[self.rng.choices(ranks, self.weights)[0]]))
        ops.append(Op("compact"))
        return ops

    def make_corpus(self, seed: int):
        return generate_aids_like(CORPUS_GRAPHS, avg_atoms=AVG_ATOMS, seed=seed)

    def setup(self, k: int):
        root = self.out_dir / f"setup-{k}"
        index = TreePiIndex.build(self.corpus, self.config)
        persistence.save_segment_index(index, root)
        loaded = persistence.load_segment_index(root, memtable_limit=self.MEMTABLE_LIMIT)
        self.root = root
        return QueryEngine(loaded, cache_size=self.CACHE_SIZE)

    def discard(self, server) -> None:
        server.index.segment_store.close()

    def run_op(self, server, op: Op):
        if op.kind == "query":
            return server.query(self.queries[op.arg].graph)
        if op.kind == "insert":
            return server.insert(self.held[op.arg].copy())
        if op.kind == "delete":
            return server.delete(self.held_ids[op.arg])
        return server.compact()

    def apply(self, op: Op, result) -> None:
        if op.kind == "insert":
            self.held_ids[op.arg] = result
            self.live[result] = self.held_nx[op.arg]
        elif op.kind == "delete":
            gid = self.held_ids.pop(op.arg)
            del self.live[gid]
            self.dead.add(gid)

    def host_id(self, query: Query) -> Optional[int]:
        if query.host >= 0:
            return query.host
        return self.held_ids.get(-1 - query.host)

    def check(self, op: Op, result) -> List[str]:
        if op.kind == "insert":
            return [] if result not in self.dead and result not in self.live else [
                f"insert returned a used id {result}"
            ]
        if op.kind == "compact":
            return [] if result else ["compaction found nothing to fold"]
        if op.kind == "delete":
            return []
        query = self.queries[op.arg]
        return property_errors(result, self.live_ids(), self.host_id(query), self.dead)

    def disk_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.iterdir() if p.is_file())

    def columns_touched(self, server) -> int:
        return server.index.segment_store.columns_touched()


WORKLOADS = {cls.name: cls for cls in (ChemRead, SynthShardedK2, ChemChurnV3)}


def oracle_errors(query, snapshot: Dict[int, object], result) -> List[str]:
    """Compare one answer with the networkx VF2 answer over ``snapshot``."""
    expected = nx_answer(query, snapshot)
    if expected == result.matches:
        return []
    missing = sorted(expected - result.matches)[:5]
    extra = sorted(result.matches - expected)[:5]
    return [f"oracle mismatch: missing {missing}, extra {extra}"]
