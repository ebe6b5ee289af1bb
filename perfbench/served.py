"""``served_churn``: open-loop churn traffic to a served durable engine.

A child process runs a ``CoordinationServer`` on a unix socket in
front of a ``DurableEngine`` in batch mode (fsync every
:data:`SYNC_EVERY` WAL records, a new snapshot generation whenever the
log segment reaches :data:`SNAPSHOT_LOG_BYTES`).  The benchmark
replays ``dynamic_db_rounds`` traffic over :data:`CLIENTS` connections
as an open loop: each round is one ``mutate``, the round's arrivals as
single-query ``submit``\\ s, then ``expire`` and ``run_batch``, all
spaced evenly so the round's queries arrive at the offered rate.  The
offered rate climbs through :data:`RATES`; a step fails when its ack
p99 (timed from each request's due time) passes
:data:`LATENCY_LIMIT_MS`, and the climb stops there.  A connection
never holds more than :data:`BACKLOG_LIMIT` requests in flight (so
nothing is ever shed): later sends wait, and because each request is
timed from its due time, a growing backlog shows as ack latency.

The engine's staleness clock counts journalled commands (one tick per
command, read once per command by the durable wrapper), so expiry is
a function of the command order alone and the server's ordered
command history replays exactly into a fresh engine.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
import traceback

from common import (SETUP_REPEATS, BenchmarkFailure, host_speed, hwm_kb,
                    median, quantile, scratch_dir)
import layers
import spans

#: Users in the social network.
USERS = 2_000
#: Arrivals per round.
PER_ROUND = 30
#: Rounds a query may wait before it expires (as the harness's
#: ``dynamic_db`` probe), converted to commands for the command clock.
TTL_ROUNDS = 10
TTL_COMMANDS = (TTL_ROUNDS + 0.5) * (PER_ROUND + 3)
#: Offered rates, in queries per second, lowest first.
RATES = (100, 800, 1000, 1150, 1300, 1450, 1600)
#: Share of the measured time spent at the lowest rate (the step the
#: ack latency figures come from); the other steps split the rest.
LOW_SHARE = 0.5
#: Slices the lowest-rate step is offered in, so the host speed is
#: sampled through the whole run: between slices and steps, when no
#: request is in flight.
LOW_SLICES = 6
#: The ack p99 a rate step must meet to count toward capacity.
LATENCY_LIMIT_MS = 200.0
#: Requests in flight on one connection beyond which sends wait (just
#: below the server's per-connection window of 64, so nothing is ever
#: shed).
BACKLOG_LIMIT = 60
CLIENTS = 2
#: The flush policy: fsync batching and the snapshot size trigger.
SYNC_EVERY = 8
SNAPSHOT_LOG_BYTES = 1 << 20
#: Seconds the child may take to start, answer, or stop.
CHILD_TIMEOUT_S = 60


class _CommandClock:
    """Staleness clock of the served engine: one tick per reading.

    The durable wrapper reads its source clock exactly once per
    journalled command, so command number *n* (the server's ``order``
    stamp) sees time *n*."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        self._now += 1.0
        return self._now


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------


def serve_child(pipe, wal_dir: str, socket_path: str,
                traced: bool) -> None:
    """Entry point of the server child (spawned)."""
    try:
        asyncio.run(_serve(pipe, wal_dir, socket_path, traced))
    except BaseException:
        pipe.send(("error", traceback.format_exc()))
        raise
    finally:
        pipe.close()


def _working_database():
    """The served database: a private copy of the harness substrate
    with the churn scenario's gate tables (as ``run_dynamic``)."""
    from repro.bench import harness
    from repro.dataio import dump_database, load_database
    from repro.workloads import install_dynamic_tables
    network = harness.bench_network(USERS)
    working = load_database(dump_database(harness.bench_database(network)))
    install_dynamic_tables(working)
    return working


def _count_snapshot_bytes(patches, totals: dict) -> None:
    """Count snapshot bytes written (a byte counter, no timer: the
    untraced run needs it for ``disk_bytes_per_cmd``)."""
    from repro.durability.snapshots import SnapshotStore
    original = SnapshotStore.write_snapshot

    def write_snapshot(self, generation, commands, state):
        original(self, generation, commands, state)
        totals["snapshot_bytes"] += os.path.getsize(
            self.snapshot_path(generation))

    patches.replace(SnapshotStore, "write_snapshot", write_snapshot)


async def _serve(pipe, wal_dir, socket_path, traced) -> None:
    from repro.durability.service import DurableEngine
    from repro.engine.staleness import TimeoutStaleness
    from repro.server.server import CoordinationServer
    working = _working_database()
    totals = {"snapshot_bytes": 0}
    patches = spans.install("server") if traced else spans.Patches()
    _count_snapshot_bytes(patches, totals)
    service = DurableEngine(
        wal_dir, working, clock=_CommandClock(), snapshot_every=None,
        sync_every=SYNC_EVERY, snapshot_log_bytes=SNAPSHOT_LOG_BYTES,
        mode="batch", staleness=TimeoutStaleness(TTL_COMMANDS))
    server = CoordinationServer(service)
    await server.start(unix_path=socket_path)
    loop = asyncio.get_running_loop()
    pipe.send(("ready", None))
    mark = None
    while True:
        message = await loop.run_in_executor(None, pipe.recv)
        if message == "begin":
            mark = _mark(service, server, totals)
            pipe.send(("begun", None))
        elif message == "end":
            pipe.send(("region", _region(mark, _mark(service, server,
                                                     totals))))
        elif message == "speed":
            pipe.send(("speed", host_speed()))
        else:
            break
    await server.drain()
    patches.remove()
    pipe.send(("stopped", None))


def _mark(service, server, totals: dict) -> dict:
    counters = server.metrics_snapshot()["counters"]
    return {"cpu": time.process_time(), "spans": spans.RECORDER.snapshot(),
            "durability": service.durability_stats(),
            "snapshot_bytes": totals["snapshot_bytes"],
            "counters": counters, "pending": service.pending_count,
            "rss_kb": hwm_kb()}


def _region(start: dict, end: dict) -> dict:
    def grew(part: str, key: str):
        return end[part].get(key, 0) - start[part].get(key, 0)

    refused = sum(grew("counters", key) for key in end["counters"]
                  if key.startswith(("server.shed.", "server.rejected."))
                  or key == "server.timeouts")
    return {"cpu": end["cpu"] - start["cpu"],
            "spans": spans.delta(end["spans"], start["spans"]),
            "commands": grew("durability", "commands_applied"),
            "wal_bytes": grew("durability", "wal_bytes"),
            "wal_syncs": grew("durability", "wal_sync_batches"),
            "snapshots": grew("durability", "snapshots_taken"),
            "snapshot_bytes": end["snapshot_bytes"]
            - start["snapshot_bytes"],
            "feasibility": (grew("counters", "feasibility.hits"),
                            grew("counters", "feasibility.misses")),
            "refused": refused, "pending": end["pending"],
            "rss_kb": end["rss_kb"]}


# ----------------------------------------------------------------------
# the benchmark side
# ----------------------------------------------------------------------


class _Child:
    """One server child and the clients connected to it."""

    def __init__(self, traced: bool, name: str):
        import multiprocessing
        self.root = scratch_dir(name)
        # A relative socket path stays under the unix-socket length
        # limit however deep the checkout lies.
        self.socket = os.path.relpath(self.root / "s.sock")
        context = multiprocessing.get_context("spawn")
        self.pipe, child_end = context.Pipe()
        self.process = context.Process(
            target=serve_child, name="perfbench-server",
            args=(child_end, str(self.root / "wal"), self.socket, traced),
            daemon=True)
        self.process.start()
        child_end.close()
        self.clients: list = []

    async def receive(self, expected: str):
        # Poll from the event loop rather than block an executor
        # thread: a thread stuck in a long wait would hold up the
        # loop's shutdown when a deadline cancels the run.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + CHILD_TIMEOUT_S
        while not self.pipe.poll():
            if loop.time() > deadline:
                raise BenchmarkFailure(
                    f"served_churn: the server sent no {expected!r} in "
                    f"{CHILD_TIMEOUT_S} s")
            await asyncio.sleep(0.005)
        try:
            kind, value = self.pipe.recv()
        except EOFError:
            raise BenchmarkFailure(
                f"served_churn: the server exited before {expected!r}")
        if kind != expected:
            raise BenchmarkFailure(f"served_churn: the server sent "
                                   f"{kind!r}, expected {expected!r}:\n"
                                   f"{value}")
        return value

    async def start(self) -> None:
        from repro.server.client import ServerClient
        await self.receive("ready")
        for index in range(CLIENTS):
            self.clients.append(await ServerClient.connect_unix(
                self.socket, tenant=f"client-{index}"))

    async def region(self, begin: bool):
        """Mark the start or end of the measured region in the child;
        the start waits for the mark, so its cost stays off the
        schedule."""
        self.pipe.send("begin" if begin else "end")
        return await self.receive("begun" if begin else "region")

    async def speed(self) -> float:
        """The host speed sampled in the child (asked only with no
        request in flight, since it stalls the server)."""
        self.pipe.send("speed")
        return await self.receive("speed")

    async def close(self) -> None:
        """Stop the child on every path: drain, then escalate."""
        try:
            for client in self.clients:
                await client.close()
            if self.process.is_alive():
                self.pipe.send("stop")
                await self.receive("stopped")
        finally:
            self.process.join(10)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(5)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(5)
            self.pipe.close()
            shutil.rmtree(self.root, ignore_errors=True)


class _Ladder:
    """The open-loop generator: offers each rate step in turn."""

    def __init__(self, clients, rounds):
        self.clients = clients
        self.rounds = iter(rounds)
        self.tasks: set = set()
        self.inflight = [0] * len(clients)
        self.freed = asyncio.Event()
        self.sent = 0
        #: The clients' acknowledged commands and pushed events, moved
        #: out as JSON text after every step (see :meth:`archive`).
        self.archived: list[str] = []

    def archive(self) -> None:
        """Move the clients' growing records out of the collector's
        sight, so their garbage collections stay short."""
        for client in self.clients:
            self.archived.append(json.dumps([client.history,
                                             client.events]))
            client.history.clear()
            client.events.clear()

    def records(self) -> tuple[list, list]:
        """Every acknowledged command and every pushed event so far."""
        self.archive()
        history, events = [], []
        for text in self.archived:
            part_history, part_events = json.loads(text)
            history.extend(part_history)
            events.extend(part_events)
        return history, events

    async def step(self, rate: float, duration: float) -> dict:
        """Offer *rate* queries per second for *duration* seconds of
        schedule.  A connection never holds more than
        :data:`BACKLOG_LIMIT` requests in flight: further sends wait,
        and since every request is timed from its due time, a growing
        backlog shows in the step's ack latency."""
        loop = asyncio.get_running_loop()
        records: list = []
        start = round_start = loop.time() + 0.005
        while round_start < start + duration:
            mutations, payloads = next(self.rounds)
            commands = ([("mutate", mutations)] if mutations != "[]"
                        else [])
            commands += [("submit", payload) for payload in payloads]
            commands += [("expire", None), ("run_batch", None)]
            span = len(payloads) / rate
            for index, command in enumerate(commands):
                due = round_start + span * index / len(commands)
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                # Submits alternate between the connections; the
                # round's control commands go over the first.
                lane = (self.sent % len(self.clients)
                        if command[0] == "submit" else 0)
                while self.inflight[lane] >= BACKLOG_LIMIT:
                    self.freed.clear()
                    await self.freed.wait()
                self._send(lane, command, due, records)
            round_start += span
        if self.tasks:
            await asyncio.gather(*self.tasks)
        self.archive()
        return {"rate": rate, "records": records}

    def _send(self, lane: int, command, due: float, records: list) -> None:
        op, argument = command
        self.sent += 1
        self.inflight[lane] += 1
        task = asyncio.get_running_loop().create_task(
            self._request(lane, op, argument, due, records))
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def _request(self, lane, op, argument, due, records) -> None:
        from repro.server.protocol import ServerError
        client = self.clients[lane]
        loop = asyncio.get_running_loop()
        sent = loop.time()
        try:
            if op == "submit":
                await client.request("submit",
                                     {"queries": [json.loads(argument)]})
            elif op == "mutate":
                await client.mutate(json.loads(argument))
            elif op == "expire":
                await client.expire()
            else:
                await client.run_batch()
            ok = True
        except ServerError:
            ok = False
        finally:
            self.inflight[lane] -= 1
            self.freed.set()
        records.append((due, sent, loop.time(), op, ok))


def _step_summary(rate: float, records: list) -> dict:
    acks = [(acked - due) * 1e3 for due, _, acked, _, ok in records]
    return {"rate": rate, "requests": len(records),
            "failed": sum(1 for record in records if not record[4]),
            "ack_p50_ms": quantile(acks, 0.50),
            "ack_p99_ms": quantile(acks, 0.99),
            "lag_p99_ms": quantile([(sent - due) * 1e3 for due, sent, *_
                                    in records], 0.99)}


def capacity(steps: list) -> float:
    """Highest offered rate whose ack p99 meets the latency limit,
    interpolated linearly in ack p99 between the last passing step and
    the first failing one (whose p99 is past the limit, so the share
    is below 1).  With no passing step, the lowest rate scaled by
    limit / p99; with no failing step, the top rate."""
    first = steps[0]
    if first["ack_p99_ms"] > LATENCY_LIMIT_MS:
        return first["rate"] * LATENCY_LIMIT_MS / first["ack_p99_ms"]
    for good, bad in zip(steps, steps[1:]):
        if bad["ack_p99_ms"] > LATENCY_LIMIT_MS:
            share = ((LATENCY_LIMIT_MS - good["ack_p99_ms"])
                     / (bad["ack_p99_ms"] - good["ack_p99_ms"]))
            return good["rate"] + (bad["rate"] - good["rate"]) * share
    return steps[-1]["rate"]


async def _speed(child) -> float:
    """The host speed now: the mean of the samples in this process and
    in the server child, the two ends of every request."""
    return (host_speed() + await child.speed()) / 2


async def _offer(child, rounds, seconds: float) -> tuple:
    """Climb the rate ladder; returns step summaries, the child's
    region figures, the ladder (with the clients' records) and the
    median host speed sampled before, between and after the steps."""
    ladder = _Ladder(child.clients, rounds)
    await child.region(begin=True)
    steps = []
    speeds = [await _speed(child)]
    for index, rate in enumerate(RATES):
        if index == 0:
            count, duration = LOW_SLICES, seconds * LOW_SHARE / LOW_SLICES
        else:
            count = 1
            duration = seconds * (1 - LOW_SHARE) / (len(RATES) - 1)
        records = []
        for part in range(count):
            records += (await ladder.step(rate, duration))["records"]
            speeds.append(await _speed(child))
        summary = _step_summary(rate, records)
        steps.append(summary)
        if summary["ack_p99_ms"] > LATENCY_LIMIT_MS:
            break
    region = await child.region(begin=False)
    return steps, region, ladder, median(speeds)


async def _check(child, ladder) -> int:
    """The pushed answers equal a replay of the server's ordered
    command history into a fresh engine, and every settled query's
    event was delivered.  Returns the number of ordered commands."""
    from repro.dataio import from_payload, to_payload
    from repro.engine.engine import D3CEngine
    from repro.engine.futures import TicketState
    from repro.engine.staleness import ManualClock, TimeoutStaleness
    clients = child.clients
    for client in clients:
        # Read-only, served in order: its reply follows every event
        # flushed for earlier commands on the same connection.
        await client.ping()
    resolved = await clients[0].resolved()
    history, events = ladder.records()
    pushed = {query_id: (event, payload)
              for event, query_id, payload in events}
    for key, event in (("answers", "answered"), ("failures", "failed")):
        for query_id, payload in resolved[key]:
            if pushed.get(query_id) != (event, payload):
                raise BenchmarkFailure(
                    f"served_churn: settled query {query_id!r} was not "
                    f"delivered as {event!r}")
    history.sort(key=lambda entry: entry[0])
    database = _working_database()
    clock = ManualClock()
    engine = D3CEngine(database, mode="batch", clock=clock,
                       staleness=TimeoutStaleness(TTL_COMMANDS))
    tickets = []
    for order, op, args in history:
        clock.advance(order - clock.now())
        if op == "submit":
            tickets.extend(engine.submit_many(
                [from_payload(payload) for payload in args["queries"]]))
        elif op == "mutate":
            for kind, table, rows in args["ops"]:
                rows = [tuple(row) for row in rows]
                if kind == "insert":
                    database.insert(table, rows)
                else:
                    database.delete_rows(table, rows)
        elif op == "expire":
            engine.expire_stale()
        else:
            engine.run_batch()
    replayed = {}
    for ticket in tickets:
        if ticket.state is TicketState.ANSWERED:
            replayed[ticket.query_id] = ("answered",
                                         to_payload(ticket.answer))
        elif ticket.state is TicketState.FAILED:
            replayed[ticket.query_id] = ("failed",
                                         ticket.failure_reason.value)
    if not any(event == "answered" for event, _ in replayed.values()):
        raise BenchmarkFailure("served_churn: the replay answered "
                               "no query")
    if replayed != pushed:
        differing = sorted(str(query_id) for query_id
                           in set(replayed) | set(pushed)
                           if replayed.get(query_id)
                           != pushed.get(query_id))
        raise BenchmarkFailure(
            f"served_churn: pushed outcomes differ from the replayed "
            f"command history for {len(differing)} queries, e.g. "
            f"{differing[:3]}")
    return len(history)


def _inputs(seed: int, seconds: float) -> list:
    """Enough seeded rounds for the whole ladder.

    Queries are held as JSON text and decoded just before sending:
    strings are invisible to the cyclic collector, so the generator's
    own garbage collections stay short and do not stall the schedule.
    """
    from repro.bench import harness
    from repro.dataio import to_payload
    from repro.workloads import dynamic_db_rounds
    network = harness.bench_network(USERS)
    harness._NETWORK_CACHE.clear()
    count = (int(seconds * max(RATES) / PER_ROUND) + len(RATES)
             + LOW_SLICES + 2)
    return [(json.dumps(mutations),
             [json.dumps(to_payload(query)) for query in block])
            for mutations, block in dynamic_db_rounds(
                network, count, PER_ROUND, seed=seed)]


async def _setup() -> tuple[float, float, "_Child"]:
    """Start the server child :data:`SETUP_REPEATS` times, as
    ``common.timed_setups`` builds; returns the median start-up time at
    the reference speed, the median as measured, and the last child."""
    seconds, raw = [], []
    child = None
    for repeat in range(SETUP_REPEATS):
        if child is not None:
            await child.close()
        before = host_speed()
        start = time.perf_counter()
        child = _Child(traced=False, name=f"server{repeat}")
        try:
            await child.start()
        except BaseException:
            await child.close()
            raise
        raw.append(time.perf_counter() - start)
        seconds.append(raw[-1] * (before + host_speed()) / 2)
    return median(seconds), median(raw), child


async def _measure(child, rounds, seconds) -> dict:
    steps, region, ladder, speed = await _offer(child, rounds, seconds)
    commands = await _check(child, ladder)
    failed = sum(step["failed"] for step in steps)
    if failed or region["refused"]:
        raise BenchmarkFailure(
            f"served_churn: {failed} requests failed, "
            f"{region['refused']} refused")
    if commands != region["commands"]:
        raise BenchmarkFailure(
            f"served_churn: {commands} acknowledged commands but "
            f"{region['commands']} journalled")
    return {"steps": steps, "region": region, "speed": speed,
            "attempted": sum(step["requests"] for step in steps)}


async def _drive(seed: int, seconds: float, traced: bool) -> dict:
    rounds = _inputs(seed, seconds)
    setup_s, raw_setup_s, child = await _setup()
    try:
        plain = await _measure(child, rounds,
                               seconds / 2 if traced else seconds)
    finally:
        await child.close()
    if traced:
        child = _Child(traced=True, name="traced")
        try:
            await child.start()
            measured = await _measure(child, rounds, seconds / 2)
        finally:
            await child.close()
        return _traced(plain, measured)
    return _report(setup_s, raw_setup_s, plain)


def _report(setup_s: float, raw_setup_s: float, plain: dict) -> dict:
    steps, region, speed = plain["steps"], plain["region"], plain["speed"]
    low = steps[0]
    raw_capacity = capacity(steps)
    # One speed for the whole run: per-slice speeds, from single
    # samples, moved these figures more than the host did.
    capacity_qps = raw_capacity / speed
    ack_p50_ms = low["ack_p50_ms"] * speed
    ack_p99_ms = low["ack_p99_ms"] * speed
    rss_mb = region["rss_kb"] / 1024
    disk = (region["wal_bytes"] + region["snapshot_bytes"]) \
        / region["commands"]
    table = [("setup_s", setup_s, "s"),
             ("capacity_qps", capacity_qps, "1/s"),
             ("ack_p50_ms", ack_p50_ms, "ms"),
             ("ack_p99_ms", ack_p99_ms, "ms"),
             ("failed_frac", 0.0, "ratio"),
             ("peak_rss_mb", rss_mb, "MB"),
             ("disk_bytes_per_cmd", disk, "bytes"),
             ("requests_at_lowest_rate", low["requests"], "count"),
             ("generator_lag_p99_ms", low["lag_p99_ms"], "ms"),
             ("latency_limit_ms", LATENCY_LIMIT_MS, "ms"),
             ("host_speed", speed, "x"),
             ("raw.setup_s", raw_setup_s, "s"),
             ("raw.capacity_qps", raw_capacity, "1/s"),
             ("raw.ack_p50_ms", low["ack_p50_ms"], "ms"),
             ("raw.ack_p99_ms", low["ack_p99_ms"], "ms")]
    for step in steps:
        table.append((f"rate_{step['rate']}.ack_p99_ms",
                      step["ack_p99_ms"], "ms"))
        table.append((f"rate_{step['rate']}.lag_p99_ms",
                      step["lag_p99_ms"], "ms"))
    return {"attempted": plain["attempted"], "failed": 0,
            "end_to_end": {"setup_s": setup_s,
                           "throughput_qps": capacity_qps,
                           "latency_p50_ms": ack_p50_ms,
                           "latency_tail_ms": ack_p99_ms,
                           "peak_rss_mb": rss_mb},
            "table": table}


def _traced(plain: dict, measured: dict) -> dict:
    region = measured["region"]
    recorder = region["spans"]
    hits, misses = region["feasibility"]
    service = recorder["total_s"].get("server.service", 0.0)
    outside = (service + recorder["total_s"].get("server.decode", 0.0)
               + recorder["total_s"].get("server.encode", 0.0))
    server_self = max(0.0, region["cpu"] - outside)
    report = layers.derive(recorder, **{
        "engine.feasibility.hit_ratio": layers.ratio(hits, hits + misses),
        "engine.pending_end": region["pending"],
        "durability.wal.bytes": region["wal_bytes"],
        "durability.wal.syncs": region["wal_syncs"],
        "durability.snapshot.count": region["snapshots"],
        "durability.snapshot.bytes": region["snapshot_bytes"],
        "server.self.s": server_self,
        "server.refused": region["refused"],
        "trace.unattributed_frac": layers.ratio(server_self,
                                                region["cpu"]),
        "trace.overhead_frac": (
            (region["cpu"] / region["commands"])
            / (plain["region"]["cpu"] / plain["region"]["commands"]) - 1),
    })
    return {"attempted": plain["attempted"] + measured["attempted"],
            "failed": 0, "per_layer": report}


def run(seed: int, seconds: float, traced: bool) -> dict:
    return asyncio.run(_drive(seed, seconds, traced))
