"""Hash partitioning of graph streams across shards.

The sharded summary engine assigns every stream item to exactly one shard by
hashing a **partition key** derived from the item:

* ``"source"`` (default) — the shard of an edge is the shard of its source
  vertex.  All outgoing edges of a vertex land together, so edge queries and
  outgoing vertex queries route to a single shard; incoming vertex queries
  must scatter to every shard.
* ``"edge"`` — the shard is derived from the ``(source, destination)`` pair.
  This spreads a hot source vertex across shards (better balance under heavy
  source skew) at the cost of scattering *all* vertex queries.

Both modes build on :func:`repro.core.hashing.shard_of`, the process-stable
shard-assignment hash also used by the shard-skew stream generators, so a
stream biased toward particular shards and the engine partitioning it always
agree on what "shard k" means.

``"source"`` mode additionally supports **key reassignment** for elastic
rebalancing: :meth:`ShardPartitioner.reassign` overrides the hash assignment
of a hot source vertex so its *future* edges land on a chosen shard.  Edges
inserted before the reassignment stay where they are, so the partitioner
remembers every vertex's **owner history**; read paths that must see all of
a vertex's edges query every historical owner and sum the (disjoint)
per-shard answers, which is exact because the shards partition the stream.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..core.config import SHARD_PARTITION_MODES
from ..core.hashing import hash64, shard_of
from ..errors import ConfigurationError, ShardingError
from ..streams.edge import StreamEdge, Vertex

#: Partition-key modes understood by :class:`ShardPartitioner` — the single
#: definition lives in :mod:`repro.core.config` so the engine configuration
#: and the partitioner can never drift apart.
PARTITION_MODES = SHARD_PARTITION_MODES


class ShardPartitioner:
    """Maps vertices and edges to shard indices, deterministically.

    Parameters
    ----------
    num_shards:
        Number of shards; must be >= 1.
    partition_by:
        ``"source"`` or ``"edge"`` (see the module docstring).
    seed:
        Seed of the shard-assignment hash; two partitioners with the same
        ``(num_shards, partition_by, seed)`` agree on every assignment, in
        every process.

    Raises
    ------
    ConfigurationError
        On a non-positive shard count or an unknown partition mode.

    Notes
    -----
    Vertex-to-shard assignments (``"source"`` mode) and vertex hashes
    (``"edge"`` mode) are memoized in unbounded dictionaries; graph streams
    are heavily skewed, so nearly every lookup after warm-up is a dictionary
    hit.  The memos grow with the number of *distinct* vertices, which is
    small relative to the stream itself.
    """

    def __init__(self, num_shards: int, *, partition_by: str = "source",
                 seed: int = 0) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if partition_by not in PARTITION_MODES:
            raise ConfigurationError(
                f"partition_by must be one of {PARTITION_MODES}, "
                f"got {partition_by!r}")
        self.num_shards = num_shards
        self.partition_by = partition_by
        self.seed = seed
        self._vertex_memo: Dict[Vertex, int] = {}
        #: ``"edge"`` mode: vertex → ``hash64(vertex, seed)``, so an edge's
        #: assignment hashes neither endpoint twice.  Rebuilt on demand,
        #: never exported.
        self._hashes: Dict[Vertex, int] = {}
        #: Explicit vertex→shard overrides installed by :meth:`reassign`.
        #: Authoritative record of every reassigned key (the memo holds the
        #: same values plus plain hash results, and can be rebuilt from this).
        self._overrides: Dict[Vertex, int] = {}
        #: Shards that owned a reassigned vertex before its current owner,
        #: oldest first.  Read fan-out unions these with the current owner.
        self._previous_owners: Dict[Vertex, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #
    # assignment
    # ------------------------------------------------------------------ #

    def shard_of_vertex(self, vertex: Vertex) -> int:
        """Shard index owning ``vertex`` (its outgoing edges in ``"source"``
        mode).  Deterministic and stable across processes."""
        shard = self._vertex_memo.get(vertex)
        if shard is None:
            shard = self._vertex_memo[vertex] = shard_of(vertex, self.num_shards,
                                                         self.seed)
        return shard

    def shard_of_edge(self, source: Vertex, destination: Vertex) -> int:
        """Shard index owning the edge ``source → destination``.

        In ``"source"`` mode this is the source vertex's shard; in ``"edge"``
        mode the pair is hashed as a unit (both endpoints' hashes are mixed,
        so reversed edges land independently).
        """
        if self.partition_by == "source":
            return self.shard_of_vertex(source)
        if self.num_shards == 1:
            return 0
        hashes = self._hashes
        source_hash = hashes.get(source)
        if source_hash is None:
            source_hash = hashes[source] = hash64(source, self.seed)
        destination_hash = hashes.get(destination)
        if destination_hash is None:
            destination_hash = hashes[destination] = hash64(destination,
                                                            self.seed)
        return (source_hash * 0x9E3779B97F4A7C15
                + destination_hash) % self.num_shards

    # ------------------------------------------------------------------ #
    # key reassignment (elastic rebalancing)
    # ------------------------------------------------------------------ #

    @property
    def has_reassignments(self) -> bool:
        """True once any vertex has been moved off its hash-assigned shard."""
        return bool(self._overrides)

    def reassign(self, vertex: Vertex, shard: int) -> None:
        """Override ``vertex``'s shard so its *future* edges land on ``shard``.

        Only valid in ``"source"`` mode — in ``"edge"`` mode a single vertex
        has no owning shard to move.  Edges already inserted under the old
        owner stay there; the old owner joins the vertex's owner history so
        read paths keep seeing every edge (:meth:`owners_of_vertex`).
        Reassigning a vertex to its current owner is a no-op.

        Raises
        ------
        ConfigurationError
            In ``"edge"`` mode, or when ``shard`` is out of range.
        """
        if self.partition_by != "source":
            raise ConfigurationError(
                "key reassignment requires partition_by='source'; "
                "'edge' mode hashes (source, destination) pairs and has no "
                "per-vertex owner to move")
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"reassignment target shard {shard} out of range "
                f"[0, {self.num_shards})")
        current = self.shard_of_vertex(vertex)
        if shard == current:
            return
        history = self._previous_owners.get(vertex, ())
        if current not in history:
            self._previous_owners[vertex] = history + (current,)
        self._overrides[vertex] = shard
        self._vertex_memo[vertex] = shard

    def owners_of_vertex(self, vertex: Vertex) -> Tuple[int, ...]:
        """Every shard that may hold edges of ``vertex``, current owner first.

        For a never-reassigned vertex this is a 1-tuple; after reassignment
        it also contains every historical owner (deduplicated).  Summing a
        distributive query over these shards is exact because each edge
        occurrence was inserted into exactly one of them.
        """
        owners = (self.shard_of_vertex(vertex),)
        for previous in self._previous_owners.get(vertex, ()):
            if previous not in owners:
                owners += (previous,)
        return owners

    def owners_of_edge(self, source: Vertex, destination: Vertex) -> Tuple[int, ...]:
        """Every shard that may hold occurrences of the edge, current first.

        ``"edge"`` mode never reassigns, so the answer there is always a
        1-tuple; ``"source"`` mode delegates to :meth:`owners_of_vertex`.
        """
        if self.partition_by == "source":
            return self.owners_of_vertex(source)
        return (self.shard_of_edge(source, destination),)

    # ------------------------------------------------------------------ #
    # snapshot state
    # ------------------------------------------------------------------ #

    def export_state(self) -> Dict[str, Any]:
        """Snapshot of the partitioner's full assignment state.

        The returned dict captures the static identity (shard count, mode,
        seed) plus every override and owner history; feeding it to
        :meth:`from_state` reproduces a partitioner that agrees with this one
        on every assignment and every owner set.  Hash-derived memo entries
        are *not* exported — they are recomputed on demand.
        """
        return {
            "num_shards": self.num_shards,
            "partition_by": self.partition_by,
            "seed": self.seed,
            "overrides": dict(self._overrides),
            "previous_owners": dict(self._previous_owners),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ShardPartitioner":
        """Rebuild a partitioner from :meth:`export_state` output.

        Raises
        ------
        ShardingError
            When ``state`` is malformed (missing keys, non-numeric shard
            indices) — snapshot manifests are external input, so corruption
            must surface as a repro.errors type, not a bare builtin.
        ConfigurationError
            When the state describes an invalid configuration (bad shard
            count or partition mode), exactly as the constructor would.
        """
        try:
            partitioner = cls(int(state["num_shards"]),
                              partition_by=str(state["partition_by"]),
                              seed=int(state["seed"]))
            for vertex, shard in dict(state.get("overrides", {})).items():
                partitioner._overrides[vertex] = int(shard)
                partitioner._vertex_memo[vertex] = int(shard)
            for vertex, owners in dict(state.get("previous_owners", {})).items():
                partitioner._previous_owners[vertex] = tuple(
                    int(s) for s in owners)
        except ConfigurationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardingError(
                f"partitioner state is malformed and cannot be restored: "
                f"{exc!r}") from exc
        return partitioner

    # ------------------------------------------------------------------ #
    # bulk splitting
    # ------------------------------------------------------------------ #

    def split(self, edges: Iterable[StreamEdge]) -> List[List[StreamEdge]]:
        """Partition ``edges`` into one list per shard, preserving arrival
        order within every shard.

        Returns a list of ``num_shards`` lists (possibly empty).  Because
        each shard's sub-stream keeps the original relative order, replaying
        the sub-streams into per-shard summaries is equivalent to each shard
        observing its slice of the original stream.
        """
        parts: List[List[StreamEdge]] = [[] for _ in range(self.num_shards)]
        if self.partition_by == "source":
            memo = self._vertex_memo
            memo_get = memo.get
            num_shards = self.num_shards
            seed = self.seed
            for edge in edges:
                source = edge.source
                shard = memo_get(source)
                if shard is None:
                    shard = memo[source] = shard_of(source, num_shards, seed)
                parts[shard].append(edge)
        else:
            shard_of_edge = self.shard_of_edge
            for edge in edges:
                parts[shard_of_edge(edge.source, edge.destination)].append(edge)
        return parts

    def group_pairs(self, pairs: Iterable[Tuple[Vertex, Vertex]]
                    ) -> Dict[int, List[Tuple[Vertex, Vertex]]]:
        """Group ``(source, destination)`` pairs by owning shard, for reads.

        Used by composite (path / subgraph) queries to turn one multi-edge
        query into at most one sub-query per shard.  A pair whose source was
        reassigned appears in *every* historical owner's group — its
        occurrences may be split across them, and summing the per-shard
        answers re-unifies the count exactly.  Write routing must use
        :meth:`shard_of_edge` (current owner only) instead.
        """
        grouped: Dict[int, List[Tuple[Vertex, Vertex]]] = {}
        if not self._previous_owners:
            for source, destination in pairs:
                shard = self.shard_of_edge(source, destination)
                grouped.setdefault(shard, []).append((source, destination))
            return grouped
        for source, destination in pairs:
            for shard in self.owners_of_edge(source, destination):
                grouped.setdefault(shard, []).append((source, destination))
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ShardPartitioner(num_shards={self.num_shards}, "
                f"partition_by={self.partition_by!r}, seed={self.seed})")
