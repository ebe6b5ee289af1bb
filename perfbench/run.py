"""Benchmark entry point: one workload per invocation.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload incr_pairs --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed; ``--trace 1`` measures the per-layer metrics (half the time
untraced, half traced, for the tracing overhead).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check, a missed deadline
or any error exits non-zero without printing that line.  See
perfbench/README.md for the workloads and every metric.

Spawned children (shard workers, the server) import this file as
their ``__mp_main__``: everything below the ``__main__`` guard stays
out of them, and the import-time bootstrap only puts the program on
``sys.path`` and, in a traced shard worker, installs the wrappers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import traceback
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE.parent / "src"), str(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import spans  # noqa: E402

spans.install_from_env()

#: Wall-clock budget of one run; a run that passes it fails.
DEADLINE_S = 170
#: After the deadline, grace for orderly clean-up before a hard exit.
HARD_EXIT_GRACE_S = 8


class DeadlineExceeded(BaseException):
    """The run passed its wall-clock deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"the run passed its {DEADLINE_S} s deadline")


def _hard_exit() -> None:
    """Last resort when clean-up itself hangs: kill children, leave."""
    import multiprocessing
    for child in multiprocessing.active_children():
        child.kill()
        child.join(1)
    _clean_scratch()
    print("perfbench: hard exit after the deadline", file=sys.stderr)
    os._exit(3)


def _clean_scratch() -> None:
    from common import SCRATCH
    for entry in SCRATCH.glob(f"{os.getpid()}-*"):
        shutil.rmtree(entry, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # other runs still hold entries, or it never existed


def _stop_resource_tracker() -> None:
    """Reap the helper process ``multiprocessing`` starts with the first
    spawned child, so no process outlives the run."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def _metrics(values: dict, specs) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("incr_pairs", "sharded_tenants",
                                 "served_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (_HERE.parent / "src" / "repro").is_dir():
        print(f"perfbench: no program source under "
              f"{_HERE.parent / 'src'}", file=sys.stderr)
        return 2

    specs = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    watchdog = threading.Timer(DEADLINE_S + HARD_EXIT_GRACE_S, _hard_exit)
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.workload == "incr_pairs":
            import incr as workload
        elif args.workload == "sharded_tenants":
            import sharded as workload
        else:
            import served as workload
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    except DeadlineExceeded as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        _clean_scratch()
        _stop_resource_tracker()
        watchdog.cancel()

    if args.trace:
        metrics = _metrics(result["per_layer"],
                           [(spec["name"], spec["unit"])
                            for spec in specs["per_layer"]])
    else:
        for name, value, unit in result["table"]:
            print(f"{args.workload:16s} {name:24s} {value:14.4f} {unit}")
        metrics = _metrics(result["end_to_end"],
                           [(spec["name"], spec["unit"])
                            for spec in specs["end_to_end"]])
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
