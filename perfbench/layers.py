"""Per-layer metrics: names, units, and their derivation from spans.

Every workload reports every name below in its traced run; a layer a
workload does not exercise reports 0 (the prediction for a change to
that layer on that workload is "no move").
"""

from __future__ import annotations

from common import BenchmarkFailure, median

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.rename.s", "s"), ("core.rename.calls", "count"),
    ("core.graph.s", "s"), ("core.graph.calls", "count"),
    ("core.graph.edges", "count"),
    ("core.matching.s", "s"), ("core.matching.calls", "count"),
    ("core.matching.complete", "count"),
    ("core.combine.s", "s"), ("core.combine.atoms", "count"),
    ("engine.self.s", "s"), ("engine.expire.s", "s"),
    ("engine.expired", "count"), ("engine.feasibility.hit_ratio", "ratio"),
    ("engine.pending_end", "count"),
    ("db.evaluate.s", "s"), ("db.evaluate.calls", "count"),
    ("db.evaluate.rows", "count"), ("db.compile.fresh", "count"),
    ("db.plan.s", "s"), ("db.plan.calls", "count"),
    ("db.plan_cache.hit_ratio", "ratio"),
    ("dataio.encode.s", "s"), ("dataio.encode.calls", "count"),
    ("dataio.decode.s", "s"), ("dataio.decode.calls", "count"),
    ("shard.coord.self.s", "s"), ("shard.route.s", "s"),
    ("shard.wire.send.s", "s"), ("shard.wire.wait.s", "s"),
    ("shard.wire.requests", "count"), ("shard.migrations", "count"),
    ("shard.migrated_queries", "count"), ("shard.worker.busy.s", "s"),
    ("shard.worker.imbalance", "ratio"), ("shard.vs_single_x", "x"),
    ("durability.wal.append.s", "s"), ("durability.wal.appends", "count"),
    ("durability.wal.bytes", "bytes"), ("durability.wal.sync.s", "s"),
    ("durability.wal.syncs", "count"), ("durability.snapshot.s", "s"),
    ("durability.snapshot.count", "count"),
    ("durability.snapshot.bytes", "bytes"),
    ("server.decode.s", "s"), ("server.frames_in", "count"),
    ("server.bytes_in", "bytes"), ("server.encode.s", "s"),
    ("server.frames_out", "count"), ("server.bytes_out", "bytes"),
    ("server.service.s", "s"), ("server.self.s", "s"),
    ("server.refused", "count"),
    ("trace.unattributed_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)

#: Per-layer counts that must repeat exactly, pass after pass, for one
#: seed on ``incr_pairs`` and ``sharded_tenants``.
EXACT = ("db.evaluate.calls", "db.evaluate.rows", "db.compile.fresh",
         "core.graph.edges", "core.matching.calls", "shard.wire.requests",
         "shard.migrations", "dataio.encode.calls", "dataio.decode.calls")

#: Span keys whose inclusive time and call count map straight onto a
#: per-layer metric pair.
_SPAN_METRICS = {
    "core.rename": ("core.rename.s", "core.rename.calls"),
    "core.graph": ("core.graph.s", "core.graph.calls"),
    "core.matching": ("core.matching.s", "core.matching.calls"),
    "core.combine": ("core.combine.s", None),
    "engine.expire": ("engine.expire.s", None),
    "db.evaluate": ("db.evaluate.s", "db.evaluate.calls"),
    "db.plan": ("db.plan.s", "db.plan.calls"),
    "dataio.encode": ("dataio.encode.s", "dataio.encode.calls"),
    "dataio.decode": ("dataio.decode.s", "dataio.decode.calls"),
    "shard.route": ("shard.route.s", None),
    "shard.wire.send": ("shard.wire.send.s", None),
    "shard.wire.wait": ("shard.wire.wait.s", None),
    "durability.wal.append": ("durability.wal.append.s", None),
    "durability.wal.sync": ("durability.wal.sync.s", None),
    "durability.snapshot": ("durability.snapshot.s", None),
    "server.decode": ("server.decode.s", None),
    "server.encode": ("server.encode.s", None),
    "server.service": ("server.service.s", None),
}

#: Work counters recorded under their metric name.
_COUNTS = ("core.graph.edges", "core.matching.complete",
           "core.combine.atoms", "engine.expired", "db.evaluate.rows",
           "db.compile.fresh", "durability.wal.appends",
           "server.frames_in", "server.bytes_in", "server.frames_out",
           "server.bytes_out")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def derive(recorder: dict, **extra) -> dict:
    """Per-layer metric values from one merged recorder delta.

    *extra* supplies the figures that come from program snapshots or
    the workload module rather than from spans; names not given are 0.
    """
    values = {name: 0 for name, _ in PER_LAYER}
    total_s, calls = recorder["total_s"], recorder["calls"]
    for key, (seconds_name, calls_name) in _SPAN_METRICS.items():
        values[seconds_name] = total_s.get(key, 0.0)
        if calls_name is not None:
            values[calls_name] = calls.get(key, 0)
    for name in _COUNTS:
        values[name] = recorder["counts"].get(name, 0)
    values["engine.self.s"] = recorder["self_s"].get("engine", 0.0)
    values["shard.coord.self.s"] = recorder["self_s"].get("shard.coord",
                                                          0.0)
    values["db.plan_cache.hit_ratio"] = ratio(
        recorder["counts"].get("db.plan_cache.hits", 0),
        calls.get("db.plan", 0))
    values.update(extra)
    return values


def self_seconds(recorder: dict) -> float:
    """Summed self time of every span in a recorder delta."""
    return sum(recorder["self_s"].values())


def pass_report(workload: str, per_pass: list, traced: list,
                plain: list) -> dict:
    """Per-layer report of a pass-based workload: medians over the
    traced passes, after checking that every :data:`EXACT` counter
    repeated exactly; the overhead compares the median wall time of
    the *traced* passes with that of the *plain* ones."""
    exact = [{name: values[name] for name in EXACT} for values in per_pass]
    if any(counts != exact[0] for counts in exact[1:]):
        raise BenchmarkFailure(
            f"{workload}: exact counters differ between passes: {exact}")
    report = {name: median(values[name] for values in per_pass)
              for name, _ in PER_LAYER}
    report["trace.overhead_frac"] = (
        median(item["wall"] for item in traced)
        / median(item["wall"] for item in plain) - 1)
    return report
