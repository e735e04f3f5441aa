"""Alternating parent/change pairs of the perf harness, from one path.

    python3 benchmarks/same_host.py --parent REV [--change REV]
        [--pairs 10] [--seed 1] [--workload NAME ...] [--workdir DIR]

Host-time numbers compare only within one host and one sitting, so a
speed claim is read from pairs: each pair runs the parent's tree and the
change's tree once each, one run at a time, the parent first in even
pairs and the change first in odd ones.  Each run is

    python3 benchmarks/perf/run.py --repeats 1 --trace 0

(plus ``--seed`` and ``--workload`` as given) inside that side's tree.
The harness pins ``PYTHONHASHSEED=0``, so dict and set layouts, and with
them peak RSS, follow the directory a tree runs from: the same code
measures differently under two names.  So both trees run from **one
fixed path**: each is unpacked (``git archive``) beside it, and the side
under test is renamed to that path for its run and back after it.  Each
tree's bytecode is compiled there first, so no run pays for compiling
and every code object names the same files.

``--change`` defaults to the working tree: its tracked files as they are
now, and new files once they are staged (``git stash create``), or
``HEAD`` when nothing differs from it.

It prints, per workload and end-to-end metric, each side's median and
the parent's interquartile range (inclusive quartiles), the change's
median delta, in how many pairs the change was better (the direction
``BENCHMARK.json`` gives), a verdict, and every run's value; and whether
every ``sim_digest`` of a workload is the same on both sides.  A verdict
is ``better`` or ``worse`` only when the change wins (or loses) at least
nine pairs in ten and the medians are further apart than the parent's
IQR, ``identical`` when every run of both sides reads the same, and
``unresolved`` otherwise.  Only the standard library is used.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def unpack(rev: str, into: pathlib.Path) -> None:
    """Extract ``git archive rev`` into the new directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into)


class Trees:
    """The two unpacked trees and the one path each runs from."""

    def __init__(self, workdir: pathlib.Path) -> None:
        self.workdir = workdir
        self.bench = workdir / "tree"
        self.home = {side: workdir / side for side in SIDES}

    def run(self, side: str, argv: list) -> subprocess.CompletedProcess:
        """Run ``argv`` inside ``side``'s tree moved to the fixed path."""
        self.home[side].rename(self.bench)
        try:
            return subprocess.run(argv, cwd=self.bench, check=False,
                                  stdout=subprocess.PIPE, text=True)
        finally:
            self.bench.rename(self.home[side])


def quartiles(values: list) -> tuple:
    q1, __, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list, change: list, wins: int, losses: int,
            lower_is_better: bool) -> str:
    if len(set(parent) | set(change)) == 1:
        return "identical"
    q1, q3 = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    needed = 0.9 * len(parent)
    if abs(gap) > q3 - q1:
        better = (gap < 0) == lower_is_better
        if better and wins >= needed:
            return "better"
        if not better and losses >= needed:
            return "worse"
    return "unresolved"


def report(runs: dict, metrics: list) -> list:
    """Lines comparing ``runs[side]`` (one harness report per pair)."""
    lines = [f"pairs: {len(runs['parent'])}"]
    for name in runs["parent"][0]["workloads"]:
        entries = {side: [run["workloads"][name] for run in runs[side]]
                   for side in SIDES}
        digests = {side: sorted({e["sim_digest"] for e in entries[side]})
                   for side in SIDES}
        lines += ["", f"== {name} =="]
        for side in SIDES:
            failed = [e["failed"] for e in entries[side]]
            lines.append(f"  {side}: sim_digest {digests[side]}  "
                         f"failed {failed}")
        same = len(digests["parent"] + digests["change"]) == 2 and \
            digests["parent"] == digests["change"]
        lines.append(f"  every sim_digest equal: {'yes' if same else 'NO'}")
        lines.append(f"  {'metric':<22} {'parent med':>11} {'IQR':>9} "
                     f"{'change med':>11} {'delta':>8} {'wins':>6}  verdict")
        values = {}
        for metric in metrics:
            key = metric["name"]
            parent, change = (
                [e["end_to_end"][key]["value"] for e in entries[side]]
                for side in SIDES)
            values[key] = (parent, change)
            lower = metric["better"] == "lower"
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(parent, change))
            losses = sum((c > p) if lower else (c < p)
                         for p, c in zip(parent, change))
            q1, q3 = quartiles(parent)
            p_med, c_med = statistics.median(parent), statistics.median(change)
            delta = (c_med / p_med - 1.0) * 100.0 if p_med else 0.0
            lines.append(
                f"  {key:<22} {p_med:>11.4g} {q3 - q1:>9.3g} {c_med:>11.4g} "
                f"{delta:>+7.2f}% {wins:>3}/{len(parent):<2}  "
                f"{verdict(parent, change, wins, losses, lower)}")
        lines.append("  runs (parent | change):")
        for key in ("wall_s", "cpu_s", "sim_calls_per_wall_s",
                    "peak_rss_mb", "setup_s"):
            parent, change = values[key]
            lines.append(f"    {key:<20} "
                         + " ".join(f"{v:.4g}" for v in parent) + " | "
                         + " ".join(f"{v:.4g}" for v in change))
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="revision of the parent tree")
    parser.add_argument("--change",
                        help="revision of the changed tree (default: the "
                             "working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=[],
                        help="run only this workload (repeatable)")
    parser.add_argument("--workdir",
                        help="where to unpack the trees (default: a "
                             "temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    change = args.change or git("stash", "create") or "HEAD"
    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", change)}
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(
        prefix="same-host-"))
    workdir.mkdir(parents=True, exist_ok=True)
    trees = Trees(workdir)
    harness = [sys.executable, "benchmarks/perf/run.py", "--repeats", "1",
               "--trace", "0", "--seed", str(args.seed), "--out", "run.json"]
    for name in args.workload:
        harness += ["--workload", name]
    try:
        for side in SIDES:
            unpack(revs[side], trees.home[side])
            trees.run(side, [sys.executable, "-m", "compileall", "-q",
                             "src", "benchmarks"])
        print(f"parent {revs['parent']}\nchange {revs['change']}\n"
              f"each run: {' '.join(harness[1:])} (from {trees.bench})",
              flush=True)
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                done = trees.run(side, harness)
                if done.returncode != 0:
                    print(done.stdout, file=sys.stderr)
                    print(f"pair {pair}: the {side} run failed "
                          f"(exit {done.returncode})", file=sys.stderr)
                    return 1
                with open(trees.home[side] / "run.json") as fh:
                    runs[side].append(json.load(fh))
            print(f"pair {pair} done ({order[0]} first)", file=sys.stderr,
                  flush=True)
        print("\n".join(report(runs, metrics)))
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
