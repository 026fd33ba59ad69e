"""Read-routing regression tests: a query calls no shard.

The router answers every query itself, at every shard count, from its
published state: the stores' own relations assembled into one
full-scheme state, republished under the write lock after every write
whatever its outcome.  A query, cold or warm, single-block,
cross-block or without a plan, therefore moves no ``shard.rpcs``
counter; a write that raises after its store applied it is in the
next published state all the same; and a query reads one published
state, so it answers a serial state even while a write or a batch is in
flight.
"""

import random
import sys
import threading
import time
import types
from contextlib import contextmanager

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import ServiceError
from repro.service.metrics import labeled
from repro.shard.router import ShardRouter
from repro.state.database_state import DatabaseState
from repro.workloads.paper import example1_university
from repro.workloads.scaling import tiled_university
from tests.conftest import query_oracle
from tests.shard.test_router_differential import (
    PAPER_SCHEMES,
    query_targets,
)

# One coherent university world: every relation holds the projection
# of the same facts, so all five inserts are accepted.
WORLD = [
    ("R1", {"H": "h1", "R": "r1", "C": "c1"}),
    ("R2", {"H": "h1", "T": "t1", "R": "r1"}),
    ("R3", {"H": "h1", "T": "t1", "C": "c1"}),
    ("R4", {"C": "c1", "S": "s1", "G": "g1"}),
    ("R5", {"H": "h1", "S": "s1", "R": "r1"}),
]


def _seeded_router(shards=4):
    # example1 has 3 blocks; requesting 4 shards clamps to 3, giving
    # R5 -> shard 0, R4 -> shard 1, {R1, R2, R3} -> shard 2.
    router = ShardRouter.in_memory(example1_university(), shards)
    assert router.shards == 3
    for name, values in WORLD:
        assert router.insert(name, values).consistent
    return router


def _oracle():
    """The single-process state the seeded router must answer for."""
    engine = WeakInstanceEngine(example1_university())
    state = engine.empty_state()
    for name, values in WORLD:
        outcome = engine.insert(state, name, values)
        assert outcome.consistent
        state = outcome.state
    return state


def _rpcs(router):
    return router.metrics.snapshot().get("shard.rpcs", 0)


class TestSingleShardQueries:
    def test_single_block_query_calls_no_shard(self):
        router = _seeded_router()
        state = _oracle()
        try:
            # One cold target per block: each is answered from the
            # published state, so no shard is called.
            for target in (
                frozenset("HRC"),
                frozenset("CSG"),
                frozenset("HSR"),
            ):
                before = _rpcs(router)
                rows = router.query(target)
                assert _rpcs(router) == before
                assert rows == query_oracle(state, target)
        finally:
            router.close()

    def test_repeated_query_is_served_by_the_router_read_cache(self):
        router = _seeded_router()
        try:
            target = frozenset("CSG")
            first = router.query(target)
            before = _rpcs(router)
            assert router.query(target) == first
            assert _rpcs(router) == before
            snapshot = router.metrics_snapshot()
            # The router answered the repeat from its own read cache;
            # R4's shard evaluated no query.
            assert snapshot["cache.read.hits"] == 1
            assert snapshot["cache.read.misses"] == 1
            assert snapshot[labeled("cache.read.hits", shard=1)] == 0
            assert snapshot[labeled("cache.read.misses", shard=1)] == 0
        finally:
            router.close()


class TestPartialFanout:
    def test_cross_block_query_gathers_only_owning_shards(self):
        """A cross-block query reads the owning shards' relations from
        the published state and calls no shard, the idle one
        included."""
        router = _seeded_router()
        state = _oracle()
        try:
            # HR's plan touches R1, R2 (shard 2) and R5 (shard 0).
            target = frozenset("HR")
            idle = labeled("shard.rpcs", shard=1)
            before = _rpcs(router)
            idle_before = router.metrics.snapshot().get(idle, 0)
            rows = router.query(target)
            assert _rpcs(router) == before
            snapshot = router.metrics.snapshot()
            assert snapshot.get(idle, 0) == idle_before
            assert snapshot.get("router.gather_queries", 0) == 1
            assert rows == query_oracle(state, target)
        finally:
            router.close()

    def test_no_plan_query_answers_empty_without_any_rpc(self):
        router = _seeded_router()
        state = _oracle()
        try:
            target = frozenset({"Z"})  # outside the universe: no plan
            before = _rpcs(router)
            rows = router.query(target)
            assert rows == set()
            assert rows == query_oracle(state, target)
            assert _rpcs(router) - before == 0
        finally:
            router.close()


def _worker_state(router):
    """The merged state read straight from the shard stores, bypassing
    the router's published state."""
    merged = {}
    for worker in router._workers:
        merged.update(worker.store.state)
    return DatabaseState(router.scheme, merged)


def _assert_matches_engine(router, targets):
    state = _worker_state(router)
    for target in targets:
        assert router.query(target) == query_oracle(state, target), target


def _cross_shard_targets(router, required=None):
    """Targets whose plan names relations on more than one shard (and,
    with ``required``, names that relation)."""
    found = []
    universe = sorted(router.scheme.universe)
    for first in universe:
        for second in universe:
            if first >= second:
                continue
            target = frozenset((first, second))
            try:
                names = router._engine.plan(target).expression.relation_names()
            except Exception:  # noqa: BLE001 - uncoverable: not a gather
                continue
            shards = {router.map.relation_shard[name] for name in names}
            if len(shards) > 1 and (required is None or required in names):
                found.append(target)
    return found


def _tiled_router():
    """Two shards over two university tiles, tile 0 seeded with WORLD."""
    router = ShardRouter.in_memory(tiled_university(2), 2)
    for name, values in WORLD:
        tiled = {f"{attr}0": value for attr, value in values.items()}
        assert router.insert(f"T0{name}", tiled).consistent
    return router


@contextmanager
def _lost_replies(router, lost=lambda payload: True):
    """Inserts and deletes whose payload ``lost`` picks reach their
    store, which applies them, and then raise ``ServiceError``: the
    caller never learns the outcome."""
    patched = []
    for shard, worker in enumerate(router._workers):
        store = worker.store
        for operation in ("insert", "delete"):

            def lost_reply(
                relation, values, apply=getattr(store, operation),
                operation=operation, shard=shard,
            ):
                result = apply(relation, values)
                payload = {
                    "op": operation, "relation": relation, "values": values
                }
                if lost(payload):
                    raise ServiceError(f"shard {shard} lost the reply")
                return result

            setattr(store, operation, lost_reply)
            patched.append((store, operation))
    try:
        yield
    finally:
        for store, operation in patched:
            delattr(store, operation)


class _Background:
    """``function(*args)`` on its own thread; :meth:`result` waits for
    it and returns its value or raises its error."""

    def __init__(self, function, *args):
        self.done = threading.Event()
        self._outcome = None

        def run():
            try:
                self._outcome = (True, function(*args))
            except BaseException as error:  # noqa: BLE001 - re-raised below
                self._outcome = (False, error)
            finally:
                self.done.set()

        self._thread = threading.Thread(target=run)
        self._thread.start()

    def result(self):
        assert self.done.wait(30)
        ok, value = self._outcome
        if not ok:
            raise value
        return value


@contextmanager
def _held_call(router, operation):
    """Hold the first ``operation`` call (a :class:`ShardWorker` batch
    method) into any shard after the shard ran it and before the router
    goes on: ``reached`` is set once it is held, and it goes on when
    ``release`` is set."""
    held = types.SimpleNamespace(
        reached=threading.Event(), release=threading.Event()
    )
    first = threading.Lock()
    patched = []
    for worker in router._workers:

        def holding(*args, call=getattr(worker, operation)):
            result = call(*args)
            if first.acquire(blocking=False):
                held.reached.set()
                assert held.release.wait(30)
            return result

        setattr(worker, operation, holding)
        patched.append(worker)
    try:
        yield held
    finally:
        held.release.set()
        for worker in patched:
            delattr(worker, operation)


class TestRelationMirror:
    def test_repeated_cross_block_query_costs_no_rpc(self):
        router = _seeded_router()
        state = _oracle()
        try:
            target = frozenset("HR")
            before = _rpcs(router)
            first = router.query(target)
            assert router.query(target) == first
            assert _rpcs(router) == before
            assert first == query_oracle(state, target)
            snapshot = router.metrics_snapshot()
            assert snapshot["router.gather_queries"] == 2
            # The second query was a router read-cache hit.
            assert snapshot["cache.read.hits"] == 1
            assert snapshot["cache.read.misses"] == 1
            assert snapshot["cache.read.hit_rate"] == 0.5
        finally:
            router.close()

    def test_state_neither_fills_the_mirror_nor_counts(self):
        """``state`` is the published snapshot: each relation in it is
        its store's own, it stays the same object until a write, and
        reading it calls no shard and counts no query."""
        router = _seeded_router()
        try:
            router.query(frozenset("HR"))
            counters = router.metrics.snapshot()
            state = router.state
            assert state == _worker_state(router)
            for worker in router._workers:
                for name, relation in worker.store.state:
                    assert state[name] is relation
            assert router.state is state
            assert router.metrics.snapshot() == counters
            router.delete(*WORLD[0])
            assert router.state is not state
            assert router.state == _worker_state(router)
        finally:
            router.close()

    def test_acknowledged_write_costs_no_gather_rpc(self):
        router = _tiled_router()
        try:
            targets = _cross_shard_targets(router, required="T0R4")
            assert targets
            for target in targets:
                router.query(target)
            # An accepted insert, a delete and a rejected insert: each
            # republishes the state, and no query calls a shard.
            assert router.insert(
                "T0R4", {"C0": "c2", "S0": "s1", "G0": "g2"}
            ).consistent
            router.delete("T0R4", {"C0": "c1", "S0": "s1", "G0": "g1"})
            assert not router.insert(
                "T0R4", {"C0": "c2", "S0": "s1", "G0": "g9"}
            ).consistent
            before = _rpcs(router)
            for target in targets:
                router.query(target)
            assert _rpcs(router) - before == 0
            _assert_matches_engine(router, targets)
        finally:
            router.close()

    def test_lost_reply_write_refetches_only_its_relation(self):
        """A write that raised after its store applied it: the next
        published state holds the store's new copy of its relation and
        keeps every other relation's copy, and the next query calls no
        shard."""
        router = _tiled_router()
        try:
            targets = _cross_shard_targets(router, required="T0R4")
            for target in targets:
                router.query(target)
            before = router.state
            with pytest.raises(ServiceError):
                with _lost_replies(router):
                    router.insert("T0R4", {"C0": "c2", "S0": "s1", "G0": "g2"})
            after = router.state
            for name in router.scheme.names:
                assert (after[name] is before[name]) == (name != "T0R4")
            rpcs = _rpcs(router)
            router.query(targets[0])
            assert _rpcs(router) == rpcs
            _assert_matches_engine(router, targets)
        finally:
            router.close()

    def test_rejected_insert_and_aborted_batch_keep_answers_exact(self):
        router = _seeded_router()
        try:
            targets = _cross_shard_targets(router)
            _assert_matches_engine(router, targets)
            # Key conflict with the seeded (c1, s1) grade.
            assert not router.insert(
                "R4", {"C": "c1", "S": "s1", "G": "g9"}
            ).consistent
            _assert_matches_engine(router, targets)
            outcome = router.apply_batch(
                [
                    ("insert", "R5", {"H": "h2", "S": "s2", "R": "r2"}),
                    ("insert", "R4", {"C": "c1", "S": "s1", "G": "g9"}),
                ]
            )
            assert not outcome.committed
            _assert_matches_engine(router, targets)
            assert router.apply_batch(
                [
                    ("insert", "R5", {"H": "h2", "S": "s2", "R": "r2"}),
                    ("insert", "R4", {"C": "c2", "S": "s2", "G": "g2"}),
                ]
            ).committed
            _assert_matches_engine(router, targets)
        finally:
            router.close()

    def test_write_whose_rpc_raises_still_invalidates(self):
        router = _seeded_router()
        try:
            target = frozenset("HR")
            router.query(target)
            with _lost_replies(router):
                with pytest.raises(ServiceError):
                    router.insert("R5", {"H": "h2", "S": "s2", "R": "r2"})
                with pytest.raises(ServiceError):
                    router.delete("R1", {"H": "h1", "R": "r1", "C": "c1"})
            rows = router.query(target)
            assert ("h2", "r2") in rows
            _assert_matches_engine(router, [target])
        finally:
            router.close()

    def test_threaded_writers_read_their_own_writes(self):
        router = ShardRouter.in_memory(example1_university(), 2)
        targets = _cross_shard_targets(router)
        errors = []
        stop = threading.Event()

        def writer(thread):
            try:
                for index in range(15):
                    key = f"w{thread}-{index}"
                    values = {"C": f"c{key}", "S": f"s{key}", "G": "A"}
                    row = (values["C"], values["S"])
                    assert router.insert("R4", values).consistent
                    assert row in router.query("CS")
                    if index % 3 == 2:
                        router.delete("R4", values)
                        assert row not in router.query("CS")
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        def reader():
            try:
                while not stop.is_set():
                    for target in targets:
                        router.query(target)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        try:
            # [CS] unions R4 (shard 1) with joins over shard 0.
            assert frozenset("CS") in targets
            readers = [threading.Thread(target=reader) for _ in range(2)]
            writers = [
                threading.Thread(target=writer, args=(thread,))
                for thread in range(3)
            ]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
            assert errors == []
            _assert_matches_engine(router, targets)
        finally:
            stop.set()
            router.close()

    def test_gather_never_mixes_a_reused_copy_with_a_later_fetch(self):
        """A query evaluates the one published state it read: writes
        that land while it evaluates never mix into its answer."""
        router = _conflict_router()
        try:
            assert router.insert(*CONFLICT_R1).consistent
            before = _worker_state(router)
            query = router._engine.query

            def racing(state, target):
                # R1 loses its row and the R3 row that conflicts with
                # it is accepted, after the query read the state.
                router._engine.query = query
                router.delete(*CONFLICT_R1)
                assert router.insert(*CONFLICT_R3).consistent
                return query(state, target)

            router._engine.query = racing
            rows = router.query(CONFLICT_TARGET)
            assert rows == query_oracle(before, CONFLICT_TARGET)
            assert rows == {("c1", "h", "s")}
            assert router.query(CONFLICT_TARGET) == query_oracle(
                _worker_state(router), CONFLICT_TARGET
            ) == {("c2", "h", "s")}
        finally:
            router.close()

    def test_gather_during_an_in_flight_batch_sees_one_side_of_it(self):
        """A batch held after its commit reached the store, before the
        router republishes: a query answers the state before it without
        waiting, and the state after it once the batch returns."""
        router = _conflict_router()
        try:
            assert router.insert(*CONFLICT_R1).consistent
            swap_to_r3 = [("delete", *CONFLICT_R1), ("insert", *CONFLICT_R3)]
            before = _worker_state(router)
            with _held_call(router, "commit") as held:
                batch = _Background(router.apply_batch, swap_to_r3)
                assert held.reached.wait(10)
                assert router.query(CONFLICT_TARGET) == query_oracle(
                    before, CONFLICT_TARGET
                )
                held.release.set()
                assert batch.result().committed
            after = _worker_state(router)
            rows = router.query(CONFLICT_TARGET)
            assert rows == query_oracle(after, CONFLICT_TARGET)
            assert rows == {("c2", "h", "s")}
        finally:
            router.close()

    def test_write_waits_for_a_batch_in_flight(self):
        router = _conflict_router()
        try:
            assert router.insert(*CONFLICT_R1).consistent
            before = _worker_state(router)
            swap_to_r3 = [("delete", *CONFLICT_R1), ("insert", *CONFLICT_R3)]

            def swap_back():
                router.delete(*CONFLICT_R3)
                assert router.insert(*CONFLICT_R1).consistent

            # While the batch is held in its commit, another thread's
            # write waits for it, and a query answers the state before.
            with _held_call(router, "commit") as held:
                batch = _Background(router.apply_batch, swap_to_r3)
                assert held.reached.wait(10)
                write = _Background(swap_back)
                assert not write.done.wait(0.05)
                assert router.query(CONFLICT_TARGET) == query_oracle(
                    before, CONFLICT_TARGET
                )
                held.release.set()
                assert batch.result().committed
                write.result()
            after = _worker_state(router)
            assert after == before
            assert router.query(CONFLICT_TARGET) == {("c1", "h", "s")}
        finally:
            router.close()

    def test_threaded_gathers_see_only_serial_states(self):
        router = _conflict_router()
        # The writer cycles R1 row -> empty -> R3 row -> empty; no
        # serial state holds both conflicting rows.  The unrelated rows
        # are written with lost replies: their stores apply them, then
        # the write raises, and the router republishes all the same.
        junk_r1 = ("R1", {"H": "h8", "R": "r8", "C": "c8"})
        junk_r3 = ("R3", {"H": "h9", "T": "t9", "C": "c9"})
        cycle = [
            ("insert", junk_r3),
            ("delete", junk_r3),
            ("delete", CONFLICT_R1),
            ("insert", CONFLICT_R3),
            ("insert", junk_r1),
            ("delete", junk_r1),
            ("delete", CONFLICT_R3),
            ("insert", CONFLICT_R1),
        ]
        try:
            assert router.insert(*CONFLICT_R1).consistent
            serial = []
            for kind, args in cycle:
                getattr(router, kind)(*args)
                serial.append(_worker_state(router))
            targets = [CONFLICT_TARGET, frozenset("CRS")]
            allowed = {
                target: [query_oracle(state, target) for state in serial]
                for target in targets
            }
            errors = []
            seen = []
            stop = threading.Event()

            def writer():
                try:
                    for _ in range(40):
                        for kind, args in cycle:
                            if args in (junk_r1, junk_r3):
                                with pytest.raises(ServiceError):
                                    getattr(router, kind)(*args)
                            else:
                                outcome = getattr(router, kind)(*args)
                                assert kind == "delete" or outcome.consistent
                            # Let gathers start in every phase.
                            time.sleep(0.0003)
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors.append(error)

            def reader():
                try:
                    while not stop.is_set():
                        for target in targets:
                            rows = router.query(target)
                            seen.append(rows)
                            assert rows in allowed[target], (target, rows)
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors.append(error)

            publish = router._publish

            def slow_publish():
                # Widen the window between a write's store change and
                # the state the router publishes after it.
                time.sleep(0.001)
                publish()

            router._publish = slow_publish
            junk = [junk_r1[1], junk_r3[1]]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            writing = threading.Thread(target=writer)
            interval = sys.getswitchinterval()
            # Switch threads often, so a gather interleaves with a
            # write's bracket at many more points.
            sys.setswitchinterval(1e-5)
            try:
                with _lost_replies(
                    router, lambda payload: payload["values"] in junk
                ):
                    for thread in readers + [writing]:
                        thread.start()
                    writing.join(timeout=120)
                    stop.set()
                    for thread in readers:
                        thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(
                thread.is_alive() for thread in readers + [writing]
            )
            assert errors == []
            assert seen
            _assert_matches_engine(router, targets)
        finally:
            stop.set()
            router.close()


# Two rows of the block {R1, R2, R3} that conflict through R2's
# (h, r, t): HR -> T, then HT -> C gives c2 against R1's c1.  R5 puts
# [CHS] on two shards, so it is answered by a gather.
CONFLICT_BASE = [
    ("R2", {"H": "h", "R": "r", "T": "t"}),
    ("R5", {"H": "h", "S": "s", "R": "r"}),
]
CONFLICT_R1 = ("R1", {"H": "h", "R": "r", "C": "c1"})
CONFLICT_R3 = ("R3", {"H": "h", "T": "t", "C": "c2"})
CONFLICT_TARGET = frozenset("CHS")


def _conflict_router():
    router = ShardRouter.in_memory(example1_university(), 4)
    assert router.shards == 3
    for name, values in CONFLICT_BASE:
        assert router.insert(name, values).consistent
    names = router._engine.plan(CONFLICT_TARGET).expression.relation_names()
    assert {"R1", "R3", "R5"} <= set(names)
    return router


def _random_op(rng, scheme, inserted):
    """One seeded write: an insert over a small value domain (so keys
    collide and some inserts are rejected), a delete of a row inserted
    earlier, or a two-update batch."""
    relations = list(scheme.relations)

    def insert():
        member = rng.choice(relations)
        values = {
            attr: f"{attr}{rng.randrange(3)}"
            for attr in sorted(member.attributes)
        }
        return ("insert", member.name, values)

    roll = rng.random()
    if roll < 0.2 and inserted:
        name, values = rng.choice(inserted)
        return ("delete", name, values)
    if roll < 0.35:
        return ("batch", [insert(), insert()])
    return insert()


@pytest.mark.parametrize(
    "name", sorted(PAPER_SCHEMES) + ["tiled_university"]
)
def test_mirror_matches_single_process_after_every_op(name):
    if name == "tiled_university":
        scheme = tiled_university(2)
    else:
        scheme = PAPER_SCHEMES[name]()
    rng = random.Random(f"mirror-{name}")
    engine = WeakInstanceEngine(scheme)
    state = engine.empty_state()
    router = ShardRouter.in_memory(scheme, 2)
    targets = query_targets(scheme) + sorted(
        _cross_shard_targets(router), key=sorted
    )
    inserted = []
    try:
        for _ in range(30):
            kind, *args = _random_op(rng, scheme, inserted)
            if kind == "insert":
                outcome = engine.insert(state, *args)
                assert router.insert(*args).consistent == outcome.consistent
                if outcome.consistent:
                    state = outcome.state
                    inserted.append(tuple(args))
            elif kind == "delete":
                state = engine.delete(state, *args)
                router.delete(*args)
            else:
                outcome = engine.batch(state, args[0])
                assert bool(router.apply_batch(args[0])) == bool(outcome)
                if outcome:
                    state = outcome.state
            for target in targets:
                assert router.query(target) == query_oracle(state, target), (
                    name,
                    kind,
                    target,
                )
    finally:
        router.close()


def _tiled_stream(router, count, rng):
    """``count`` seeded ops over ``tiled_university(2)``, every write
    one whose outcome the router learns: fresh inserts (accepted),
    key conflicts (rejected), deletes of live rows, two-tile batches
    (some aborting on a conflict), and cross-shard queries."""
    targets = _cross_shard_targets(router)
    letters = {"R1": "HRC", "R2": "HTR", "R3": "HTC", "R4": "CSG", "R5": "HSR"}
    live = []
    fresh = iter(range(10**9))

    def row(tile):
        base = rng.choice(sorted(letters))
        number = next(fresh)
        values = {f"{a}{tile}": f"{a.lower()}{number}" for a in letters[base]}
        return f"T{tile}{base}", values

    def conflict():
        name, values = rng.choice(live)
        last = sorted(values)[-1]
        return name, {**values, last: f"{values[last]}!"}

    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            ops.append(("query", rng.choice(targets)))
        elif roll < 0.6 or not live:
            name, values = row(rng.randrange(2))
            live.append((name, values))
            ops.append(("insert", name, values))
        elif roll < 0.7:
            ops.append(("insert", *conflict()))
        elif roll < 0.85:
            ops.append(("delete", *live.pop(rng.randrange(len(live)))))
        else:
            updates = [("insert", *row(tile)) for tile in (0, 1)]
            if rng.random() < 0.3:
                updates.append(("insert", *conflict()))
            else:
                updates.append(("delete", *live.pop(0)))
                live.extend(update[1:] for update in updates[:2])
            ops.append(("batch", updates))
    return ops


@pytest.mark.parametrize("count", [200, 2000])
def test_gathers_fetch_only_relations_they_gather_cold(count):
    """Along a long stream of writes whose outcomes vary, no query
    calls a shard, every answer is the engine's, and the published
    state holds each store's own relations."""
    router = ShardRouter.in_memory(tiled_university(2), 2)
    engine = WeakInstanceEngine(tiled_university(2))
    state = engine.empty_state()
    queries = 0
    try:
        for kind, *args in _tiled_stream(router, count, random.Random(count)):
            if kind == "query":
                (target,) = args
                before = _rpcs(router)
                assert router.query(target) == engine.query(state, target)
                assert _rpcs(router) == before
                queries += 1
            elif kind == "insert":
                outcome = engine.insert(state, *args)
                assert router.insert(*args).consistent == outcome.consistent
                state = outcome.state if outcome.consistent else state
            elif kind == "delete":
                router.delete(*args)
                state = engine.delete(state, *args)
            else:
                outcome = engine.batch(state, args[0])
                assert bool(router.apply_batch(args[0])) == bool(outcome)
                state = outcome.state if outcome else state
        assert queries > 2
        published = router.state
        for worker in router._workers:
            for name, relation in worker.store.state:
                assert published[name] is relation
    finally:
        router.close()
