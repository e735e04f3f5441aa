"""What does CPython's cyclic collector cost one cell, and what does it find?

    python benchmarks/gc_audit.py --workload udp-closed-100
        [--seed 1] [--collector as-is|on|off] [--retained]

Runs one ``benchmarks/perf`` workload twice, each time in a fresh
subprocess of this script, and prints

* pass ``timing``: wall seconds of ``run_cell``, seconds spent inside the
  collector (timed with ``gc.callbacks``) and their share of the wall,
  collections per generation over the whole cell and inside
  ``BenchmarkManager.run()``, peak RSS, the engine's heap size and how many
  of its entries are cancelled, and a census of the gc-tracked objects
  alive at the end of the cell, by type, with their shallow bytes, ranked
  once by count and once by bytes (a few thousand large objects, such as
  one ``random.Random`` per phone, never make the top by count);
* pass ``garbage``: everything a final ``gc.collect()`` could free only
  because it sat in a reference cycle (``gc.DEBUG_SAVEALL``, result still
  referenced), by type.  "cyclic garbage: 0" means every object of the cell
  died by reference count.

``--retained`` runs a third pass instead: under ``tracemalloc``, the
heap growth between the end of registration and the end of
``BenchmarkManager.run()`` — what the calls left behind — in KB per
completed call, and the 15 allocation lines that grew most.

``--collector on`` makes ``gc.disable()`` a no-op for the run, ``off``
disables the collector up front and makes ``gc.enable()`` a no-op; together
they show whether a tree's memory depends on the collector running.  The
script observes the program from outside and changes nothing under ``src/``.
"""

import argparse
import collections
import gc
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "perf")]

from repro.analysis import ExperimentSpec, run_cell  # noqa: E402
from repro.clients import BenchmarkManager  # noqa: E402
from workloads import WORKLOADS, spec_kwargs  # noqa: E402

TOP = 12
TOP_LINES = 15


def _by_type(objects) -> list:
    """[(type name, count, shallow bytes)], most numerous first."""
    counts = collections.Counter()
    sizes = collections.Counter()
    for obj in objects:
        name = type(obj).__qualname__
        counts[name] += 1
        sizes[name] += sys.getsizeof(obj)
    return [(name, n, sizes[name]) for name, n in counts.most_common()]


def _force_collector(mode: str) -> None:
    if mode == "on":
        gc.disable = lambda: None
    elif mode == "off":
        gc.disable()
        gc.enable = lambda: None


def timing_pass(spec) -> dict:
    collector_s = started = 0.0
    collections_by_gen = [0, 0, 0]

    def on_gc(phase, info):
        nonlocal collector_s, started
        if phase == "start":
            started = time.perf_counter()
        else:
            collector_s += time.perf_counter() - started
            collections_by_gen[info["generation"]] += 1

    in_run = {}
    manager_run = BenchmarkManager.run

    def audited_run(self):
        before = list(collections_by_gen)
        try:
            return manager_run(self)
        finally:
            in_run["collections"] = [
                after - b4 for after, b4 in zip(collections_by_gen, before)]

    BenchmarkManager.run = audited_run
    gc.callbacks.append(on_gc)
    wall0 = time.perf_counter()
    result = run_cell(spec)
    wall_s = time.perf_counter() - wall0
    gc.callbacks.remove(on_gc)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    engine = result.testbed.engine
    return {
        "wall_s": wall_s,
        "collector_s": collector_s,
        "collections": collections_by_gen,
        "collections_in_run": in_run["collections"],
        "peak_rss_mb": peak_rss_mb,
        "heap_entries": len(engine._heap),
        "heap_cancelled": engine._cancelled,
        "heap_cancelled_holding_fn": sum(
            1 for entry in engine._heap
            if entry[2].cancelled and entry[2].fn is not None),
        "census": _by_type(gc.get_objects()),
    }


def garbage_pass(spec) -> dict:
    gc.collect()  # import-time cycles are not the cell's
    gc.set_debug(gc.DEBUG_SAVEALL)
    result = run_cell(spec)
    gc.collect()
    garbage = _by_type(gc.garbage)
    gc.set_debug(0)
    del result
    return {"garbage": garbage}


def _where(frame) -> str:
    """``file:line``, repo files relative to the repo, others by name."""
    path = pathlib.Path(frame.filename)
    try:
        path = path.relative_to(HERE.parent)
    except ValueError:
        path = pathlib.Path(path.parent.name, path.name)
    return f"{path}:{frame.lineno}"


def retained_pass(spec) -> dict:
    snapshots = {}
    manager_run = BenchmarkManager.run
    registration = BenchmarkManager._registration_phase

    def snapshot(name):
        snapshots[name] = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__)])

    def audited_registration(self):
        registration(self)
        snapshot("registered")

    def audited_run(self):
        result = manager_run(self)
        snapshot("ran")
        return result

    BenchmarkManager._registration_phase = audited_registration
    BenchmarkManager.run = audited_run
    tracemalloc.start()
    result = run_cell(spec)
    tracemalloc.stop()
    growth = snapshots["ran"].compare_to(snapshots["registered"], "lineno")
    return {
        "calls_completed": result.calls_completed,
        "retained_bytes": sum(stat.size_diff for stat in growth),
        "top": [(_where(stat.traceback[0]), stat.size_diff, stat.count_diff)
                for stat in growth[:TOP_LINES]],
    }


def child(args) -> int:
    spec = ExperimentSpec(**spec_kwargs(args.workload, "bench", args.seed))
    _force_collector(args.collector)
    passes = {"timing": timing_pass, "garbage": garbage_pass,
              "retained": retained_pass}
    print(json.dumps(passes[args.audit_pass](spec)))
    return 0


def _run_pass(args, name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--collector", args.collector,
         "--audit-pass", name],
        env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE,
        text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _table(rows, limit=TOP) -> None:
    for name, count, size in rows[:limit]:
        print(f"    {count:>9}  {size / 1e6:>8.2f} MB  {name}")
    rest = rows[limit:]
    if rest:
        print(f"    {sum(r[1] for r in rest):>9}  "
              f"{sum(r[2] for r in rest) / 1e6:>8.2f} MB  "
              f"({len(rest)} other types)")


def report_retained(args) -> int:
    retained = _run_pass(args, "retained")
    calls = retained["calls_completed"]
    total = retained["retained_bytes"]
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"collector: {args.collector}")
    print(f"retained from end of registration to end of manager.run(): "
          f"{total / 1e6:.1f} MB over {calls} completed calls = "
          f"{total / 1e3 / max(calls, 1):.1f} KB per call")
    print(f"top {TOP_LINES} allocation lines by growth:")
    for where, size, count in retained["top"]:
        print(f"    {size / 1e6:>8.2f} MB  {count:>+9}  {where}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--collector", choices=("as-is", "on", "off"),
                        default="as-is")
    parser.add_argument("--retained", action="store_true",
                        help="report the heap growth per completed call")
    parser.add_argument("--audit-pass", help=argparse.SUPPRESS,
                        choices=("timing", "garbage", "retained"))
    args = parser.parse_args(argv)
    if args.audit_pass:
        return child(args)
    if args.retained:
        return report_retained(args)

    timing = _run_pass(args, "timing")
    garbage = _run_pass(args, "garbage")["garbage"]
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"collector: {args.collector}")
    print(f"wall: {timing['wall_s']:.2f} s   collector: "
          f"{timing['collector_s']:.3f} s "
          f"({100 * timing['collector_s'] / timing['wall_s']:.1f} % of wall)")
    print("collections gen0/gen1/gen2: "
          + "/".join(map(str, timing["collections"]))
          + "   inside manager.run(): "
          + "/".join(map(str, timing["collections_in_run"])))
    print(f"peak RSS: {timing['peak_rss_mb']:.1f} MB")
    print(f"engine heap: {timing['heap_entries']} entries, "
          f"{timing['heap_cancelled']} cancelled "
          f"({timing['heap_cancelled_holding_fn']} still holding a callback)")
    print(f"cyclic garbage: {sum(row[1] for row in garbage)}")
    _table(garbage)
    census = timing["census"]
    print(f"tracked objects at end of cell: {sum(r[1] for r in census)}")
    _table(census)
    print("largest types by shallow bytes:")
    _table(sorted(census, key=lambda row: row[2], reverse=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
