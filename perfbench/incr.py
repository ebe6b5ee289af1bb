"""``incr_pairs``: generic two-way pairs into an incremental engine.

The paper's Figure 6 regime.  One caller runs a closed loop of
``D3CEngine.submit`` calls, one query at a time.  A *pass* is a fresh
engine over the shared substrate fed the same seeded block of
:data:`PASS_QUERIES` queries; the run repeats passes until the
measured time reaches ``--seconds``.  Passes repeat identical work, so
each pass's work counters must match every other pass's exactly.
"""

from __future__ import annotations

import time

from common import (BenchmarkFailure, alternate, hwm_kb, median,
                    quantile, run_passes, timed_setups)
import layers
import spans

#: Users in the social network (the harness's default benchmark size).
USERS = 8_000
#: Queries per pass.
PASS_QUERIES = 1_500


def _setup():
    from repro.bench import harness
    # The harness caches substrates per process; clearing the caches
    # makes each set-up repetition build (and warm) from scratch.
    harness._NETWORK_CACHE.clear()
    harness._DATABASE_CACHE.clear()
    network = harness.bench_network(USERS)
    return network, harness.bench_database(network)


def _run_pass(database, queries) -> dict:
    from repro.engine.engine import D3CEngine
    from repro.engine.futures import TicketState
    engine = D3CEngine(database, mode="incremental")
    clock = time.perf_counter
    tickets = []
    latencies = []
    start = clock()
    for query in queries:
        began = clock()
        tickets.append(engine.submit(query))
        latencies.append(clock() - began)
    wall = clock() - start
    counters = engine.metrics_snapshot()["counters"]
    answers = {ticket.query_id: ticket.answer for ticket in tickets
               if ticket.state is TicketState.ANSWERED}
    return {"answers": answers, "latencies": latencies, "wall": wall,
            "pending": engine.pending_count,
            "feasibility": (counters.get("feasibility.hits", 0),
                            counters.get("feasibility.misses", 0))}


def _check_answers(database, queries, answers: dict) -> None:
    """Every answered query's postconditions are met by head tuples
    answered in the same pass, and its body holds in the database
    under its answer."""
    if not answers:
        raise BenchmarkFailure("incr_pairs: a pass answered no query")
    heads = {(relation, tuple(row)) for answer in answers.values()
             for relation, rows in answer.rows.items() for row in rows}
    for query in queries:
        answer = answers.get(query.query_id)
        if answer is not None and not _supported(query, answer, heads,
                                                 database):
            raise BenchmarkFailure(
                f"incr_pairs: answer of {query.query_id!r} is not "
                f"supported by the database and its partners")


def _supported(query, answer, heads: set, database) -> bool:
    from repro.db.expression import ConjunctiveQuery
    binding: dict = {}
    cursor: dict = {}
    for head in query.head:
        rows = answer.rows.get(head.relation, [])
        position = cursor.get(head.relation, 0)
        cursor[head.relation] = position + 1
        if position >= len(rows) or not _bind(head, rows[position],
                                              binding):
            return False
    body = [_ground(atom, binding) for atom in query.body]
    valuations = database.evaluate(ConjunctiveQuery(tuple(body)))
    for valuation in valuations:
        full = dict(binding)
        full.update((variable.name, value)
                    for variable, value in valuation.items())
        if all(_provided(atom, full, heads)
               for atom in query.postconditions):
            return True
    return False


def _bind(atom, values, binding: dict) -> bool:
    from repro.core.terms import Variable
    if len(values) != len(atom.args):
        return False
    for term, value in zip(atom.args, values):
        if isinstance(term, Variable):
            if binding.setdefault(term.name, value) != value:
                return False
        elif term.value != value:
            return False
    return True


def _ground(atom, binding: dict):
    from repro.core.terms import Atom, Constant, Variable
    return Atom(atom.relation, tuple(
        Constant(binding[term.name])
        if isinstance(term, Variable) and term.name in binding else term
        for term in atom.args))


def _provided(atom, binding: dict, heads: set) -> bool:
    from repro.core.terms import Variable
    values = []
    for term in atom.args:
        if isinstance(term, Variable):
            if term.name not in binding:
                return any(relation == atom.relation
                           and _bind(atom, row, dict(binding))
                           for relation, row in heads)
            values.append(binding[term.name])
        else:
            values.append(term.value)
    return (atom.relation, tuple(values)) in heads


class _Passes:
    """Runs passes over one substrate and checks their answers.

    Outside the measured time, the first pass's answers are checked
    against the database and each other, and every later pass must
    reproduce them exactly (the engine is deterministic).  Each pass
    carries its span delta (empty when no wrapper is installed).
    """

    def __init__(self, database, queries):
        self.database = database
        self.queries = queries
        self.reference = None

    def __call__(self) -> dict:
        before = spans.RECORDER.snapshot()
        item = _run_pass(self.database, self.queries)
        item["spans"] = spans.delta(spans.RECORDER.snapshot(), before)
        answers = item.pop("answers")
        if self.reference is None:
            _check_answers(self.database, self.queries, answers)
            self.reference = answers
        elif answers != self.reference:
            raise BenchmarkFailure(
                "incr_pairs: a pass answered differently from the first")
        return item

    def traced(self) -> dict:
        patches = spans.install("engine")
        try:
            return self()
        finally:
            patches.remove()


def run(seed: int, seconds: float, traced: bool) -> dict:
    from repro.workloads import two_way_pairs
    setup_s, raw_setup_s, (network, database) = timed_setups(
        _setup, lambda substrate: None)
    passes = _Passes(database,
                     two_way_pairs(network, PASS_QUERIES, seed=seed))
    if traced:
        return _traced(*alternate(passes, passes.traced, seconds))
    done = run_passes(passes, seconds)
    rss_mb = hwm_kb() / 1024
    queries = PASS_QUERIES * len(done)
    throughput = queries / sum(item["wall"] * item["speed"]
                               for item in done)
    raw_throughput = queries / sum(item["wall"] for item in done)
    latencies = [value * item["speed"] for item in done
                 for value in item["latencies"]]
    p50 = quantile(latencies, 0.50) * 1e3
    p99 = quantile(latencies, 0.99) * 1e3
    raw = [value for item in done for value in item["latencies"]]
    return {
        "attempted": len(latencies), "failed": 0,
        "end_to_end": {"setup_s": setup_s, "throughput_qps": throughput,
                       "latency_p50_ms": p50, "latency_tail_ms": p99,
                       "peak_rss_mb": rss_mb},
        "table": [("setup_s", setup_s, "s"),
                  ("throughput_qps", throughput, "1/s"),
                  ("submit_p50_ms", p50, "ms"),
                  ("submit_p99_ms", p99, "ms"),
                  ("failed_frac", 0.0, "ratio"),
                  ("peak_rss_mb", rss_mb, "MB"),
                  ("passes", len(done), "count"),
                  ("queries_per_pass", PASS_QUERIES, "count"),
                  ("submits_sampled", len(latencies), "count"),
                  ("host_speed", median(item["speed"] for item in done),
                   "x"),
                  ("raw.setup_s", raw_setup_s, "s"),
                  ("raw.throughput_qps", raw_throughput, "1/s"),
                  ("raw.submit_p50_ms", quantile(raw, 0.50) * 1e3, "ms"),
                  ("raw.submit_p99_ms", quantile(raw, 0.99) * 1e3, "ms")],
    }


def _traced(plain: list, done: list) -> dict:
    per_pass = []
    for item in done:
        hits, misses = item["feasibility"]
        recorder = item["spans"]
        per_pass.append(layers.derive(
            recorder,
            **{"engine.feasibility.hit_ratio": layers.ratio(hits,
                                                            hits + misses),
               "engine.pending_end": item["pending"],
               "trace.unattributed_frac": layers.ratio(
                   item["wall"] - layers.self_seconds(recorder),
                   item["wall"])}))
    report = layers.pass_report("incr_pairs", per_pass, done, plain)
    return {"attempted": PASS_QUERIES * (len(plain) + len(done)),
            "failed": 0, "per_layer": report}
