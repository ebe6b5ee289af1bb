"""``sharded_tenants``: multi-tenant rounds through 2 process shards.

One caller runs a closed loop of rounds against a
``ShardedCoordinator`` with 2 process-backed shards; each round is
``expire_stale``, ``submit_many``, ``run_batch`` on a manual clock
that advances one tick per round.  A *pass* is the same seeded
:data:`ROUNDS` rounds with every query id suffixed by the pass number
(the fleet is long-lived, ids must stay unique); after its last round
the clock jumps past the time-to-live and one expiry sweep empties
the fleet, so every pass starts from an empty pending set and repeats
the same work.  The answers of every pass must equal those of one
in-process engine fed the same rounds.
"""

from __future__ import annotations

import dataclasses
import os
import time

from common import (BenchmarkFailure, alternate, child_pids, hwm_kb,
                    median, quantile, run_passes, timed_setups)
import layers
import spans

#: Users in the social network.  The rounds read only ``U``; a smaller
#: network keeps the per-worker database rebuild (set-up) short.
USERS = 2_000
#: Rounds per pass and arrivals per round.
ROUNDS = 60
PER_ROUND = 60
SHARDS = 2
#: Rounds a query may wait before it expires (as the harness's
#: ``run_sharded``).
TTL_ROUNDS = 4


def _staleness():
    from repro.engine.staleness import TimeoutStaleness
    return TimeoutStaleness(TTL_ROUNDS + 0.5)


def _warm_indexes(database) -> list:
    return [(name, positions) for name in database.table_names()
            for positions in ((0,), (0, 1), (1,))
            if max(positions) < database.table(name).schema.arity]


def _setup():
    from repro.bench import harness
    from repro.engine.staleness import ManualClock
    from repro.shard import ShardedCoordinator
    harness._NETWORK_CACHE.clear()
    harness._DATABASE_CACHE.clear()
    network = harness.bench_network(USERS)
    database = harness.bench_database(network)
    clock = ManualClock()
    coordinator = ShardedCoordinator(
        database, num_shards=SHARDS, backend="process", mode="batch",
        staleness=_staleness(), clock=clock,
        warm_indexes=_warm_indexes(database))
    return network, database, coordinator, clock


def _fleet_rss_kb() -> int:
    return hwm_kb() + sum(hwm_kb(pid) for pid in child_pids())


def _outcomes(tickets, suffix: str) -> tuple[dict, dict]:
    from repro.engine.futures import TicketState
    answers, failures = {}, {}
    for ticket in tickets:
        query_id = ticket.query_id[:len(ticket.query_id) - len(suffix)]
        if ticket.state is TicketState.ANSWERED:
            answer = ticket.answer
            answers[query_id] = (answer.choices, sorted(
                (relation, [tuple(row) for row in rows])
                for relation, rows in answer.rows.items()))
        elif ticket.state is TicketState.FAILED:
            failures[query_id] = ticket.failure_reason.value
    return answers, failures


def _run_pass(service, clock, rounds) -> dict:
    """Drive one pass; returns timings and per-query outcomes."""
    perf = time.perf_counter
    tickets = []
    round_walls = []
    start = perf()
    for block in rounds:
        began = perf()
        clock.advance(1.0)
        service.expire_stale()
        tickets.extend(service.submit_many(block))
        service.run_batch()
        round_walls.append(perf() - began)
    pending_end = service.pending_count
    clock.advance(TTL_ROUNDS + 1.0)
    service.expire_stale()
    wall = perf() - start
    return {"wall": wall, "round_walls": round_walls, "tickets": tickets,
            "pending_end": pending_end}


def _renamed(rounds, suffix: str) -> list:
    return [[dataclasses.replace(query, query_id=query.query_id + suffix)
             for query in block] for block in rounds]


def _oracle(database, rounds) -> tuple[dict, dict, float]:
    """One in-process engine fed the same rounds: the reference answers
    and the single-engine wall time."""
    from repro.engine.engine import D3CEngine
    from repro.engine.staleness import ManualClock
    clock = ManualClock()
    engine = D3CEngine(database, mode="batch", staleness=_staleness(),
                       clock=clock)
    item = _run_pass(engine, clock, rounds)
    answers, failures = _outcomes(item["tickets"], "")
    if not answers:
        raise BenchmarkFailure("sharded_tenants: the oracle answered "
                               "no query")
    return answers, failures, item["wall"]


class _Fleet:
    """A coordinator under measurement: runs passes and checks them.

    Every pass's answers must equal the in-process reference, and its
    wire requests and migrations must equal the first pass's.
    """

    def __init__(self, coordinator, clock, rounds, reference):
        self.coordinator = coordinator
        self.clock = clock
        self.rounds = rounds
        self.reference = reference
        self.passes = 0
        self.counts = None

    def __call__(self) -> dict:
        coordinator = self.coordinator
        suffix = f"~{self.passes}"
        self.passes += 1
        before = (coordinator.wire_requests, coordinator.migrations,
                  coordinator.migrated_queries)
        item = _run_pass(coordinator, self.clock,
                         _renamed(self.rounds, suffix))
        item["wire_requests"], item["migrations"], \
            item["migrated_queries"] = (
                after - start for after, start in zip(
                    (coordinator.wire_requests, coordinator.migrations,
                     coordinator.migrated_queries), before))
        if _outcomes(item.pop("tickets"), suffix) != self.reference[:2]:
            raise BenchmarkFailure(
                "sharded_tenants: shard answers differ from one "
                "in-process engine fed the same rounds")
        counts = (item["wire_requests"], item["migrations"])
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            raise BenchmarkFailure(
                f"sharded_tenants: wire requests / migrations "
                f"{counts} differ from the first pass's {self.counts}")
        return item

    def traced(self) -> dict:
        """One pass with the coordinator's wrappers installed; the
        workers' span totals come from their metrics snapshots."""
        fleet_before = self.coordinator.metrics_snapshot()
        patches = spans.install("coordinator")
        try:
            before = spans.RECORDER.snapshot()
            item = self()
            item["spans"] = spans.delta(spans.RECORDER.snapshot(), before)
        finally:
            patches.remove()
        item["workers"], item["feasibility"] = _worker_deltas(
            self.coordinator.metrics_snapshot(), fleet_before)
        return item


def _worker_deltas(after: dict, before: dict) -> tuple[list, tuple]:
    start = spans.worker_recorders(before)
    workers = [spans.delta(recorder, start.get(name, {}))
               for name, recorder in sorted(
                   spans.worker_recorders(after).items())]
    counters = [snapshot["counters"] for snapshot in (after, before)]
    hits, misses = (counters[0].get(key, 0) - counters[1].get(key, 0)
                    for key in ("feasibility.hits", "feasibility.misses"))
    return workers, (hits, misses)


def _traced_fleet(database):
    """A second fleet whose workers install the wrappers at start-up."""
    from repro.engine.staleness import ManualClock
    from repro.shard import ShardedCoordinator
    clock = ManualClock()
    os.environ[spans.TRACE_ENV] = "worker"
    try:
        return ShardedCoordinator(
            database, num_shards=SHARDS, backend="process", mode="batch",
            staleness=_staleness(), clock=clock,
            warm_indexes=_warm_indexes(database)), clock
    finally:
        del os.environ[spans.TRACE_ENV]


def run(seed: int, seconds: float, traced: bool) -> dict:
    from repro.workloads import multi_tenant_rounds
    setup_s, raw_setup_s, built = timed_setups(
        _setup, lambda built: built[2].close())
    network, database, coordinator, clock = built
    fleets = [coordinator]
    try:
        rounds = multi_tenant_rounds(network, ROUNDS, PER_ROUND, seed=seed)
        reference = _oracle(database, rounds)
        plain = _Fleet(coordinator, clock, rounds, reference)
        if traced:
            traced_coordinator, traced_clock = _traced_fleet(database)
            fleets.append(traced_coordinator)
            measured = _Fleet(traced_coordinator, traced_clock, rounds,
                              reference)
            return _traced(*alternate(plain, measured.traced, seconds),
                           reference)
        done = run_passes(plain, seconds)
        rss_mb = _fleet_rss_kb() / 1024
    finally:
        for fleet in fleets:
            fleet.close()
    queries = ROUNDS * PER_ROUND
    throughput = queries * len(done) / sum(item["wall"] * item["speed"]
                                           for item in done)
    raw_throughput = queries * len(done) / sum(item["wall"]
                                               for item in done)
    round_walls = [value * item["speed"] for item in done
                   for value in item["round_walls"]]
    p50 = quantile(round_walls, 0.50) * 1e3
    p90 = quantile(round_walls, 0.90) * 1e3
    raw = [value for item in done for value in item["round_walls"]]
    return {
        "attempted": queries * len(done), "failed": 0,
        "end_to_end": {"setup_s": setup_s, "throughput_qps": throughput,
                       "latency_p50_ms": p50, "latency_tail_ms": p90,
                       "peak_rss_mb": rss_mb},
        "table": [("setup_s", setup_s, "s"),
                  ("throughput_qps", throughput, "1/s"),
                  ("round_p50_ms", p50, "ms"),
                  ("round_p90_ms", p90, "ms"),
                  ("failed_frac", 0.0, "ratio"),
                  ("peak_rss_mb", rss_mb, "MB"),
                  ("passes", len(done), "count"),
                  ("rounds_sampled", len(round_walls), "count"),
                  ("single_engine_pass_s", reference[2], "s"),
                  ("migrations_per_pass", done[0]["migrations"], "count"),
                  ("host_speed", median(item["speed"] for item in done),
                   "x"),
                  ("raw.setup_s", raw_setup_s, "s"),
                  ("raw.throughput_qps", raw_throughput, "1/s"),
                  ("raw.round_p50_ms", quantile(raw, 0.50) * 1e3, "ms"),
                  ("raw.round_p90_ms", quantile(raw, 0.90) * 1e3, "ms")],
    }


def _traced(plain: list, done: list, reference) -> dict:
    per_pass = []
    for item in done:
        coordinator_spans = item["spans"]
        busy = [layers.self_seconds(worker) for worker in item["workers"]]
        hits, misses = item["feasibility"]
        per_pass.append(layers.derive(
            spans.merge(coordinator_spans, *item["workers"]),
            **{"shard.wire.requests": item["wire_requests"],
               "shard.migrations": item["migrations"],
               "shard.migrated_queries": item["migrated_queries"],
               "shard.worker.busy.s": sum(busy),
               "shard.worker.imbalance": max(busy) / (sum(busy) / len(busy)),
               "shard.vs_single_x": item["wall"] / reference[2],
               "engine.feasibility.hit_ratio": layers.ratio(hits,
                                                            hits + misses),
               "engine.pending_end": item["pending_end"],
               "trace.unattributed_frac": layers.ratio(
                   item["wall"] - layers.self_seconds(coordinator_spans),
                   item["wall"])}))
    report = layers.pass_report("sharded_tenants", per_pass, done, plain)
    return {"attempted": ROUNDS * PER_ROUND * (len(plain) + len(done)),
            "failed": 0, "per_layer": report}
