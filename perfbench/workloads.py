"""Seeded op streams for the front-door serving benchmark.

Every workload runs over tiles: disjoint copies of the paper's
university scheme (``repro.workloads.scaling.tiled_university``).  A
tile ``t`` has relations ``T{t}R1`` … ``T{t}R5`` over attributes
``H{t} R{t} C{t} T{t} S{t} G{t}`` and splits into three independent
blocks (``R5``, ``R4`` and ``R1 R2 R3``).  Round-robin packing puts
every tile across both shards of a two-shard deployment.

Each workload is one closed-loop stream on one connection.  A
generator keeps a model of its tiles' live rows (oldest first) so it
can delete the oldest row and aim deliberate key conflicts at live
rows.  The model is the generator's bookkeeping only: expected
responses come from :mod:`oracle`, and the self-test checks that the
two agree.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Optional

#: The deployment every workload runs against, written into each run
#: record: ``repro serve --shards SHARDS --fsync-every FSYNC_EVERY``,
#: driven on CONNECTIONS closed-loop connection.  Two connections made
#: per-kind latencies bimodal on a 2-core host (see README.md).  Each
#: WAL append is flushed to the kernel, so a process kill loses no
#: acknowledged write at any FSYNC_EVERY.  With an fsync per record,
#: fsync was about three quarters of a write's latency, so the write
#: metrics measured the disk, whose fsync times drift from run to run
#: on a shared host; one fsync per 32 records (the batching ``repro
#: bench --serving`` uses) keeps the medians on the program.
SHARDS = 2
FSYNC_EVERY = 32
CONNECTIONS = 1

#: The benchmark's metric and workload list; the workloads' ``why``
#: texts and the per-layer units are read from it, not repeated here.
SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark_spec() -> dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


#: Attribute letters of one tile, in the scheme's order.
TILE_ATTRS = "HRCTSG"

#: Attribute letters of the relations a stream writes.
REL_ATTRS = {"R1": "HRC", "R4": "CSG", "R5": "HSR"}

#: The key each written relation is validated on (its first key).
REL_KEY = {"R1": "HR", "R4": "CS", "R5": "HS"}

#: The attribute a deliberate conflict changes (one the key determines).
REL_DEPENDENT = {"R1": "C", "R4": "G", "R5": "R"}

#: Requests per deck of kinds; every share in a mix is a multiple of
#: ``1 / DECK``.
DECK = 100

#: Value pools: seeded join rows draw C and S from small pools so the
#: join-bearing (C,S) answer has repeats, and G from a tiny pool.
C_POOL = 12
S_POOL = 10
G_POOL = 5


def relation(tile: int, name: str) -> str:
    return f"T{tile}{name}"


def attribute(tile: int, letter: str) -> str:
    return f"{letter}{tile}"


def target(tile: int, letters: str) -> list[str]:
    """A query target as the sorted attribute list the frontend takes."""
    return sorted(attribute(tile, letter) for letter in letters)


#: The two read shapes of the hot read set: a single-block lookup on
#: R4 and a join-bearing projection that gathers R1, R5 and R4.
HOT_SHAPES = ("CSG", "CS")

#: Every 2-, 3- and 4-attribute subset of a tile (15 + 20 + 15 = 50).
WIDE_SHAPES = tuple(
    "".join(combo)
    for size in (2, 3, 4)
    for combo in combinations(TILE_ATTRS, size)
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: sizes and op shares.

    ``mix`` gives the share of requests of each kind; the generator
    draws each request's kind from it.  ``batch_tiles`` and
    ``batch_per_tile`` size a batch: that many of the workload's
    tiles, each with that many updates (half inserts, half deletes of
    the oldest live rows)."""

    name: str
    tiles: int
    seed_join_rows: int
    seed_r4_rows: int
    mix: tuple[tuple[str, float], ...]
    query_shapes: tuple[str, ...]
    #: Relative weights of ``query_shapes`` (empty: uniform).
    query_weights: tuple[float, ...] = ()
    insert_relations: tuple[str, ...] = ()
    conflict_every: int = 0
    batch_tiles: int = 1
    batch_per_tile: int = 4
    batch_conflict_every: int = 0
    #: Request rate the precomputed stream is sized for, about 1.4
    #: times the fastest run of the seed code on a 2-core host; a
    #: stream that runs out stops early and the record says so.  The
    #: oracle answers every request of the stream before timing (about
    #: 0.3 ms each), so a larger cap lengthens every run.
    rate_cap: float = 1000.0
    #: Requests replayed after the snapshot and before the kill: enough
    #: WAL records to recover, too few to trigger compaction, so
    #: recovery work does not depend on run length.
    tail_requests: int = 100
    loads: tuple[str, ...] = ()
    spares: tuple[str, ...] = ()

    @property
    def seed_rows(self) -> int:
        return self.tiles * (2 * self.seed_join_rows + self.seed_r4_rows)

    @property
    def distinct_targets(self) -> int:
        return self.tiles * len(self.query_shapes)

    def describe(self) -> dict[str, Any]:
        """The prediction-table row: sizes, loop, and layers loaded."""
        why = {
            entry["name"]: entry["why"] for entry in benchmark_spec()["workloads"]
        }
        return {
            "why": why[self.name],
            "loop": "closed",
            "connections": CONNECTIONS,
            "tiles": self.tiles,
            "seed_rows": self.seed_rows,
            "distinct_targets": self.distinct_targets,
            "cache_capacities": {
                "router_plans": 256,
                "worker_plans": 256,
                "worker_kernels": 256,
                "worker_read_results": 1024,
            },
            "mix": dict(self.mix),
            "query_shapes": dict(
                zip(
                    self.query_shapes,
                    self.query_weights or [1.0] * len(self.query_shapes),
                )
            ),
            "batch_updates": self.batch_tiles * self.batch_per_tile,
            "stream_rate_cap": self.rate_cap,
            "tail_requests": self.tail_requests,
            "shards": SHARDS,
            "fsync_every": FSYNC_EVERY,
            "loads": list(self.loads),
            "spares": list(self.spares),
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="read_hot",
            tiles=6,
            seed_join_rows=120,
            seed_r4_rows=15,
            mix=(
                ("query", 0.70),
                ("insert", 0.10),
                ("delete", 0.10),
                ("batch", 0.10),
            ),
            query_shapes=HOT_SHAPES,
            # Two gathers per lookup keep the median query inside the
            # gather mode instead of on the edge between two modes.
            query_weights=(1.0, 2.0),
            insert_relations=("R4",),
            conflict_every=0,
            batch_tiles=1,
            batch_per_tile=4,
            batch_conflict_every=0,
            rate_cap=650.0,
            tail_requests=150,
            loads=(
                "repro.shard.frontend",
                "repro.shard.router (gather)",
                "repro.shard.protocol (10 KB fetch replies)",
                "repro.core.readcache",
            ),
            spares=(
                "repro.service.wal",
                "Algorithm-2 validation",
                "planning and kernel compilation",
            ),
        ),
        Workload(
            name="write_churn",
            tiles=6,
            seed_join_rows=30,
            seed_r4_rows=10,
            mix=(
                ("insert", 0.42),
                ("delete", 0.42),
                ("query", 0.10),
                ("batch", 0.06),
            ),
            query_shapes=WIDE_SHAPES,
            insert_relations=("R1", "R5", "R4"),
            conflict_every=10,
            batch_tiles=2,
            batch_per_tile=8,
            batch_conflict_every=20,
            rate_cap=1450.0,
            tail_requests=100,
            loads=(
                "repro.service.store",
                "repro.service.wal (fsync per write)",
                "repro.core.engine (Algorithm-2 insert validation)",
                "planning and kernel compilation (cache misses)",
                "two-shard 2PC batches, 1 in 20 aborting",
            ),
            spares=("repro.shard.router gather",),
        ),
    )
}


@dataclass
class Op:
    """One request of a stream, with what the oracle expects back."""

    kind: str
    request: dict[str, Any]
    expected: Optional[dict[str, Any]] = None
    #: Row changes the op makes when acknowledged as the oracle says:
    #: ``(relation, values, +1 | -1)``.
    effects: list[tuple[str, dict[str, str], int]] = field(
        default_factory=list
    )


class TileModel:
    """The generator's view of one tile: live rows, oldest first."""

    def __init__(self, tile: int) -> None:
        self.tile = tile
        self.live: deque[tuple[str, dict[str, str]]] = deque()
        # relation name → its base name (``T3R4`` → ``R4``).
        self.base = {relation(tile, base): base for base in REL_ATTRS}
        # relation name → key tuple → values, for aiming conflicts.
        self.by_key: dict[str, dict[tuple, dict[str, str]]] = {
            name: {} for name in self.base
        }
        self.counter = 0

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def key_of(self, name: str, values: dict[str, str]) -> tuple:
        return tuple(
            values[attribute(self.tile, letter)]
            for letter in REL_KEY[self.base[name]]
        )

    def add(self, name: str, values: dict[str, str]) -> None:
        self.live.append((name, values))
        self.by_key[name][self.key_of(name, values)] = values

    def remove(self, name: str, values: dict[str, str]) -> None:
        self.live.remove((name, values))
        del self.by_key[name][self.key_of(name, values)]

    def count(self, name: Optional[str] = None) -> int:
        if name is None:
            return len(self.live)
        return len(self.by_key[name])

    def oldest(self, name: Optional[str] = None) -> tuple[str, dict[str, str]]:
        for entry in self.live:
            if name is None or entry[0] == name:
                return entry
        raise LookupError(f"tile {self.tile} has no live {name} row")


def _row(tile: int, letters: str, values: dict[str, str]) -> dict[str, str]:
    return {attribute(tile, letter): values[letter] for letter in letters}


class StreamGenerator:
    """Builds a workload's seed rows and request stream."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"{seed}:{workload.name}")
        self.tiles = {tile: TileModel(tile) for tile in range(workload.tiles)}
        # Deletes turn into inserts at or below the seeded size, so
        # every tile stays at its seeded size however the mix draws.
        self._floor: dict[int, int] = {}
        self._deck: list[str] = []
        self._inserts = 0
        self._batches = 0

    # -- rows -------------------------------------------------------------------
    def _fresh_row(self, model: TileModel, name: str) -> dict[str, str]:
        t, n, rng = model.tile, model.fresh(), self.rng
        if name == "R4":
            # Fresh S keeps the (C,S) key unique; C stays in the pool
            # so R4 rows and join rows share C values.
            values = {
                "C": f"c{t}.{rng.randrange(C_POOL)}",
                "S": f"s{t}.x{n}",
                "G": f"g{t}.{rng.randrange(G_POOL)}",
            }
        elif name == "R1":
            values = {
                "H": f"h{t}.{n}",
                "R": f"r{t}.{n}",
                "C": f"c{t}.{rng.randrange(C_POOL)}",
            }
        else:  # R5 reuses the H,R of an R1 row so the two join.
            join = self._r5_partner(model)
            values = {
                "H": join["H"],
                "S": f"s{t}.{rng.randrange(S_POOL)}",
                "R": join["R"],
            }
        return _row(t, REL_ATTRS[name], values)

    def _r5_partner(self, model: TileModel) -> dict[str, str]:
        """H,R of a live R1 row whose H no R5 row uses yet (HS is R5's
        key, so one R5 row per H keeps inserts accepted), else fresh."""
        t = model.tile
        used = {key[0] for key in model.by_key[relation(t, "R5")]}
        h, r = attribute(t, "H"), attribute(t, "R")
        for name, values in reversed(model.live):
            if name == "R1" and values[h] not in used:
                return {"H": values[h], "R": values[r]}
        n = model.fresh()
        return {"H": f"h{t}.{n}", "R": f"r{t}.{n}"}

    def _conflict_row(
        self, model: TileModel, base: str, rows: list[dict[str, str]]
    ) -> dict[str, str]:
        """A tuple agreeing with one of ``rows`` on its key but not on
        the attribute the key determines: a key-dependency violation."""
        victim = rows[self.rng.randrange(len(rows))]
        changed = dict(victim)
        dependent = attribute(model.tile, REL_DEPENDENT[base])
        changed[dependent] = f"{victim[dependent]}.conflict"
        return changed

    def seed_rows(self) -> dict[int, list[tuple[str, dict[str, str]]]]:
        """Each tile's seed rows, recorded in the model."""
        rows: dict[int, list[tuple[str, dict[str, str]]]] = {}
        for tile, model in self.tiles.items():
            entries: list[tuple[str, dict[str, str]]] = []
            for _ in range(self.workload.seed_join_rows):
                r1 = self._fresh_row(model, "R1")
                model.add(relation(tile, "R1"), r1)
                r5 = self._fresh_row(model, "R5")
                model.add(relation(tile, "R5"), r5)
                entries += [(relation(tile, "R1"), r1), (relation(tile, "R5"), r5)]
            for _ in range(self.workload.seed_r4_rows):
                r4 = self._fresh_row(model, "R4")
                model.add(relation(tile, "R4"), r4)
                entries.append((relation(tile, "R4"), r4))
            rows[tile] = entries
            self._floor[tile] = model.count(self._only_relation(model))
        return rows

    # -- requests ---------------------------------------------------------------
    def _pick_tile(self) -> TileModel:
        tiles = list(self.tiles.values())
        return tiles[self.rng.randrange(len(tiles))]

    def _insert(self, model: TileModel) -> Op:
        self._inserts += 1
        every = self.workload.conflict_every
        base = self.rng.choice(self.workload.insert_relations)
        name = relation(model.tile, base)
        if every and self._inserts % every == 0:
            rows = list(model.by_key[name].values())
            values = self._conflict_row(model, base, rows)
            request = {"op": "insert", "relation": name, "values": values}
            return Op("insert", request)
        values = self._fresh_row(model, base)
        model.add(name, values)
        return Op(
            "insert",
            {"op": "insert", "relation": name, "values": values},
            effects=[(name, values, +1)],
        )

    def _delete(self, model: TileModel) -> Op:
        name, values = model.oldest(self._only_relation(model))
        model.remove(name, values)
        return Op(
            "delete",
            {"op": "delete", "relation": name, "values": values},
            effects=[(name, values, -1)],
        )

    def _query(self, model: TileModel) -> Op:
        shapes = self.workload.query_shapes
        weights = self.workload.query_weights or None
        shape = self.rng.choices(shapes, weights)[0]
        return Op("query", {"op": "query", "target": target(model.tile, shape)})

    def _batch(self) -> Op:
        """Half fresh inserts, half deletes of the oldest live rows, on
        ``batch_tiles`` tiles, shuffled; every ``batch_conflict_every``-th
        batch adds one key conflict and must abort, leaving the model
        as it was."""
        self._batches += 1
        workload = self.workload
        models = list(self.tiles.values())
        if workload.batch_tiles < len(models):
            models = self.rng.sample(models, workload.batch_tiles)
        saved = {
            model.tile: (
                deque(model.live),
                {name: dict(rows) for name, rows in model.by_key.items()},
            )
            for model in models
        }
        inserts = workload.batch_per_tile // 2
        deletes = workload.batch_per_tile - inserts
        updates: list[list[Any]] = []
        effects: list[tuple[str, dict[str, str], int]] = []
        for model in models:
            only = self._only_relation(model)
            doomed = [
                entry for entry in model.live
                if only is None or entry[0] == only
            ][:deletes]
            for name, values in doomed:
                model.remove(name, values)
                updates.append(["delete", name, values])
                effects.append((name, values, -1))
            for index in range(inserts):
                base = workload.insert_relations[
                    index % len(workload.insert_relations)
                ]
                name = relation(model.tile, base)
                values = self._fresh_row(model, base)
                model.add(name, values)
                updates.append(["insert", name, values])
                effects.append((name, values, +1))
        conflict = (
            workload.batch_conflict_every
            and self._batches % workload.batch_conflict_every == 0
        )
        if conflict:
            # Aim at a row that was live before the batch and that the
            # batch does not delete, so the insert is a violation
            # wherever the shuffle puts it.
            model = models[0]
            for base in workload.insert_relations:
                name = relation(model.tile, base)
                before = saved[model.tile][1][name]
                candidates = [
                    values
                    for key, values in before.items()
                    if key in model.by_key[name]
                ]
                if candidates:
                    break
            changed = self._conflict_row(model, base, candidates)
            updates.append(["insert", name, changed])
            for model in models:
                model.live, model.by_key = saved[model.tile]
            effects = []
        self.rng.shuffle(updates)
        return Op("batch", {"op": "batch", "updates": updates}, effects=effects)

    def _only_relation(self, model: TileModel) -> Optional[str]:
        """The one relation a workload writes, when it writes only one."""
        names = self.workload.insert_relations
        return relation(model.tile, names[0]) if len(names) == 1 else None

    def _next_kind(self) -> str:
        """The next request kind, dealt from shuffled decks of 100 that
        hold each kind exactly its share: every seed runs the same mix."""
        if not self._deck:
            for kind, share in self.workload.mix:
                self._deck += [kind] * round(share * DECK)
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def next_op(self) -> Op:
        kind = self._next_kind()
        if kind == "batch":
            return self._batch()
        model = self._pick_tile()
        if kind == "query":
            return self._query(model)
        size = model.count(self._only_relation(model))
        if kind == "delete" and size > self._floor[model.tile]:
            return self._delete(model)
        return self._insert(model)

    def stream(self, count: int) -> list[Op]:
        return [self.next_op() for _ in range(count)]

