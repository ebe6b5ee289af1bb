"""Outside-in per-layer timing for the traced benchmark run.

Wrappers are patched onto the program's public functions from here,
never inside the program: each wrapped call is a span keyed by its
layer.  A span's *self* time is its duration minus the time its child
spans (wrapped calls made while it ran) cover, so the self times of
every span in a process sum to the time spent inside the outermost
wrapped calls, and ``wall - sum(self)`` is the unattributed residual.

Only the traced run installs wrappers, and only in the process that
hosts the layer: the benchmark process for the in-process engine and
the shard coordinator, the shard workers and the server child through
the benchmark's own bootstrap (:func:`install_from_env`).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: Environment switch read by spawned children at import time.
TRACE_ENV = "PERFBENCH_TRACE"

_clock = time.perf_counter


class Recorder:
    """Span totals of one process.

    ``self_s[layer]`` is summed self time, ``total_s[key]`` and
    ``calls[key]`` inclusive time and call count per wrapped function
    group, ``counts[name]`` work counters bumped at the same
    boundaries.
    """

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    def snapshot(self) -> dict:
        """Plain, picklable copy of every total (for deltas)."""
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def close_span(self, layer: str, key: str, start: float) -> None:
        elapsed = _clock() - start
        child = self.stack.pop()
        self.self_s[layer] += elapsed - child
        self.total_s[key] += elapsed
        if self.stack:
            self.stack[-1] += elapsed


RECORDER = Recorder()


def delta(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Recorder.snapshot` dicts."""
    out = {}
    for part, values in after.items():
        base = before.get(part, {})
        out[part] = {key: value - base.get(key, 0)
                     for key, value in values.items()}
    return out


def merge(*snapshots: dict) -> dict:
    """Key-wise sum of recorder snapshots (one per process)."""
    out: dict = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
    for snapshot in snapshots:
        for part, values in snapshot.items():
            for key, value in values.items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def _span(layer: str, key: str, fn, after=None):
    """Wrap *fn* as a span; ``after(result, args, kwargs)`` counts work."""
    recorder = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.stack.append(0.0)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close_span(layer, key, start)
        recorder.calls[key] += 1
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


class _TimedRows:
    """Iterator proxy: each ``next()`` is a slice of the db span, so
    consuming an evaluation's rows counts toward ``db.evaluate``."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __iter__(self):
        return self

    def __next__(self):
        recorder = RECORDER
        recorder.stack.append(0.0)
        start = _clock()
        try:
            row = next(self._rows)
        finally:
            recorder.close_span("db", "db.evaluate", start)
        recorder.counts["db.evaluate.rows"] += 1
        return row


class Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def wrap(self, owner, name: str, layer: str, key: str,
             after=None) -> None:
        self.replace(owner, name,
                     _span(layer, key, getattr(owner, name), after))

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, value)

    def rebind(self, original, wrapper) -> None:
        """Point every ``repro`` module that imported *original* by
        name at *wrapper* (``from ..dataio import to_payload``)."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is None:
                delattr(owner, name)  # it was inherited
            else:
                setattr(owner, name, value)


def _count(name: str, amount):
    def after(result, args, kwargs):
        RECORDER.counts[name] += amount(result, args, kwargs)
    return after


def install_core(patches: Patches) -> None:
    from repro.core.graph import UnifiabilityGraph
    from repro.core.query import EntangledQuery
    from repro.engine import runtime

    def matched(result, args, kwargs):
        RECORDER.counts["core.matching.complete"] += int(
            result.global_unifier is not None
            and set(result.survivors) == set(result.component))

    patches.wrap(EntangledQuery, "rename_apart", "core", "core.rename")
    patches.wrap(UnifiabilityGraph, "discover_edges", "core",
                 "core.graph")
    patches.wrap(UnifiabilityGraph, "insert_query", "core", "core.graph",
                 _count("core.graph.edges",
                        lambda result, args, kwargs: len(result)))
    patches.wrap(UnifiabilityGraph, "remove_query", "core", "core.graph")
    patches.wrap(runtime, "match_component", "core", "core.matching",
                 matched)
    patches.wrap(runtime, "build_combined_query", "core", "core.combine",
                 _count("core.combine.atoms",
                        lambda result, args, kwargs:
                        len(result.query.atoms)))


def install_engine(patches: Patches) -> None:
    from repro.engine.engine import D3CEngine

    for name in ("submit", "submit_many", "run_batch", "import_pending",
                 "export_component", "component_members",
                 "invalidate_cache"):
        patches.wrap(D3CEngine, name, "engine", "engine.calls")
    patches.wrap(D3CEngine, "expire_stale", "engine", "engine.expire",
                 _count("engine.expired",
                        lambda result, args, kwargs: result))


def install_db(patches: Patches) -> None:
    from repro.db.database import Database
    from repro.db.planner import Planner

    original = Database.__dict__["evaluate"]
    recorder = RECORDER

    @functools.wraps(original)
    def evaluate(self, query, limit=None, reusable=True):
        recorder.stack.append(0.0)
        start = _clock()
        try:
            rows = original(self, query, limit=limit, reusable=reusable)
        finally:
            recorder.close_span("db", "db.evaluate", start)
        recorder.calls["db.evaluate"] += 1
        if not reusable:
            recorder.counts["db.compile.fresh"] += 1
        return _TimedRows(iter(rows))

    patches.replace(Database, "evaluate", evaluate)
    plan_order = Planner.__dict__["plan_order"]

    @functools.wraps(plan_order)
    def planned(self, query):
        hits = self.cache_hits
        recorder.stack.append(0.0)
        start = _clock()
        try:
            return plan_order(self, query)
        finally:
            recorder.close_span("db", "db.plan", start)
            recorder.calls["db.plan"] += 1
            recorder.counts["db.plan_cache.hits"] += self.cache_hits - hits

    patches.replace(Planner, "plan_order", planned)


def install_dataio(patches: Patches) -> None:
    import repro.dataio as dataio

    for name, key in (("to_payload", "dataio.encode"),
                      ("from_payload", "dataio.decode")):
        original = getattr(dataio, name)
        patches.rebind(original, _span("dataio", key, original))


def install_shard(patches: Patches) -> None:
    from multiprocessing.connection import Connection
    from repro.shard.coordinator import ShardedCoordinator
    from repro.shard.router import ShardRouter

    for name in ("submit", "submit_many", "run_batch", "expire_stale",
                 "apply_mutations"):
        patches.wrap(ShardedCoordinator, name, "shard.coord",
                     "shard.coord")
    patches.wrap(ShardRouter, "home_shard", "shard.route", "shard.route")
    patches.wrap(Connection, "send", "shard.wire.send", "shard.wire.send")
    patches.wrap(Connection, "recv", "shard.wire.wait", "shard.wire.wait")


def install_durability(patches: Patches) -> None:
    from repro.durability.service import DurableEngine
    from repro.durability.snapshots import SnapshotStore
    from repro.durability.wal import WriteAheadLog

    def appended(result, args, kwargs):
        RECORDER.counts["durability.wal.appends"] += 1

    for name in ("append", "append_body"):
        patches.wrap(WriteAheadLog, name, "durability",
                     "durability.wal.append", appended)
    patches.wrap(WriteAheadLog, "sync", "durability",
                 "durability.wal.sync")
    patches.wrap(SnapshotStore, "write_snapshot", "durability",
                 "durability.snapshot")
    for name in ("submit_many", "run_batch", "expire_stale",
                 "apply_mutations"):
        patches.wrap(DurableEngine, name, "durability", "server.service")


def install_server(patches: Patches) -> None:
    from repro.server import protocol
    from repro.server.protocol import FrameDecoder

    def fed(result, args, kwargs):
        RECORDER.counts["server.frames_in"] += len(result)
        RECORDER.counts["server.bytes_in"] += len(args[1])

    patches.wrap(FrameDecoder, "feed", "server", "server.decode", fed)
    original = protocol.encode_frame

    def encoded(result, args, kwargs):
        RECORDER.counts["server.frames_out"] += 1
        RECORDER.counts["server.bytes_out"] += len(result)

    patches.rebind(original, _span("server", "server.encode", original,
                                   encoded))


#: Layers a process may host, by role.
ROLES = {
    "engine": (install_core, install_engine, install_db, install_dataio),
    "coordinator": (install_shard, install_dataio),
    "worker": (install_core, install_engine, install_db, install_dataio),
    "server": (install_core, install_engine, install_db, install_dataio,
               install_durability, install_server),
}


def install(role: str) -> Patches:
    """Install every wrapper the *role*'s process hosts."""
    patches = Patches()
    for installer in ROLES[role]:
        installer(patches)
    return patches


def install_worker_reporting(patches: Patches) -> None:
    """Make a shard worker's ``metrics_snapshot()`` carry its span
    totals as ``perfbench.<process>.<part>.<key>`` gauges, so the
    coordinator reads worker-side layers (and each worker's busy time)
    over the existing ``metrics`` command.  The process name keeps the
    workers apart when the fleet merges gauges by summing."""
    import multiprocessing
    from repro.engine.engine import D3CEngine

    original = D3CEngine.metrics_snapshot
    prefix = f"perfbench.{multiprocessing.current_process().name}"

    @functools.wraps(original)
    def metrics_snapshot(self):
        snapshot = original(self)
        for part, values in RECORDER.snapshot().items():
            for key, value in values.items():
                snapshot["gauges"][f"{prefix}.{part}.{key}"] = value
        return snapshot

    patches.replace(D3CEngine, "metrics_snapshot", metrics_snapshot)


def worker_recorders(snapshot: dict) -> dict:
    """Split a fleet metrics snapshot back into per-worker recorder
    snapshots: ``{process name: recorder snapshot}``."""
    workers: dict = {}
    for name, value in snapshot["gauges"].items():
        if not name.startswith("perfbench."):
            continue
        process, part, key = name[len("perfbench."):].split(".", 2)
        recorder = workers.setdefault(
            process, {"self_s": {}, "total_s": {}, "calls": {},
                      "counts": {}})
        recorder[part][key] = value
    return workers


def install_from_env() -> None:
    """Bootstrap hook for spawned shard workers (see run.py)."""
    if os.environ.get(TRACE_ENV) == "worker":
        patches = install("worker")
        install_worker_reporting(patches)
