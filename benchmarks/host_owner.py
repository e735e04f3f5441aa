"""Who spends a cell's host time: the phones, the proxy, or the rest?

    python benchmarks/host_owner.py --workload udp-closed-100
        [--profile bench|smoke]

The perf harness charges a function's self time to the package that
defines it, so SIP parsing and formatting done *for the phones* lands in
``sip`` beside the proxy's own, and ``clients`` looks cheap.  This script
splits the time by *owner* instead.  It runs one ``benchmarks/perf``
workload (seed 1) in this process under a ``SIGPROF`` interval timer
(every 0.5 ms of process CPU time; the kernel's tick may space samples
wider) and, at each sample, walks the Python stack from the innermost
frame outward:

* the *leaf package* is the ``repro`` package of the innermost frame
  (``python`` when it is outside ``src/repro``: the standard library, this
  script); time in C functions is charged to the Python frame calling
  them, as a self-time profile would;
* the *owner* is ``phone`` when the innermost frame that is a phone's
  (``repro/clients/phone.py``) or the proxy's (``repro/proxy/``) is a
  phone's, ``proxy`` when it is the proxy's, and ``engine+kernel`` when
  there is neither: the event loop, the simulated kernel and network, and
  the harness around them (the manager that runs the engine is not a
  phone).

It prints the owner shares, the owner × leaf-package shares and the
phones' own ``sip`` share, each as a percentage of all samples.  It only
reports: it changes nothing under ``src/`` and asserts no bound.
Samples count CPU time, so on an otherwise idle host a share of samples
is a share of the cell's wall time; the handler's own cost (a few µs per
sample) is charged to whatever frame it interrupted.
"""

import argparse
import collections
import os
import pathlib
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "perf")]

from repro.analysis import ExperimentSpec, run_cell  # noqa: E402
from workloads import WORKLOADS, spec_kwargs  # noqa: E402

SRC = str(HERE.parent / "src" / "repro") + os.sep
PHONE = os.path.join(SRC, "clients", "phone.py")
OTHER = "engine+kernel"
SEED = 1
INTERVAL_S = 0.0005  #: asked of the timer; the kernel's tick may be coarser


def _where(filename: str) -> tuple:
    """(``repro`` package of a code file or ``python`` outside
    ``src/repro``, owner or None)."""
    if not filename.startswith(SRC):
        return "python", None
    head, sep, __ = filename[len(SRC):].partition(os.sep)
    package = head if sep else "repro"
    if filename == PHONE:
        return package, "phone"
    return package, "proxy" if package == "proxy" else None


class Sampler:
    """Counts (owner, leaf package) of the stack at every SIGPROF."""

    def __init__(self) -> None:
        self.counts = collections.Counter()
        self._where = {}  #: code filename -> _where(filename), memoised

    def _where_of(self, code) -> tuple:
        filename = code.co_filename
        where = self._where.get(filename)
        if where is None:
            where = self._where[filename] = _where(filename)
        return where

    def _on_sample(self, __, frame) -> None:
        if frame is None:
            return
        leaf = self._where_of(frame.f_code)[0]
        owner = OTHER
        while frame is not None:
            found = self._where_of(frame.f_code)[1]
            if found is not None:
                owner = found
                break
            frame = frame.f_back
        self.counts[owner, leaf] += 1

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def report(sampler: Sampler, args, wall_s: float, calls: int) -> str:
    total = sum(sampler.counts.values()) or 1
    owners = collections.Counter()
    for (owner, __), count in sampler.counts.items():
        owners[owner] += count
    lines = [
        f"workload {args.workload} (profile {args.profile}, seed "
        f"{SEED}): {calls} calls in {wall_s:.2f} s wall, "
        f"{total} samples (timer asked for one per {1000 * INTERVAL_S} ms "
        f"of CPU; the kernel's tick may space them wider)",
        "",
        "owner            share",
    ]
    for owner, count in owners.most_common():
        lines.append(f"{owner:<16} {100.0 * count / total:5.1f} %")
    lines += ["", "owner            leaf package   share"]
    for (owner, leaf), count in sorted(
            sampler.counts.items(), key=lambda item: (-owners[item[0][0]],
                                                      -item[1])):
        lines.append(f"{owner:<16} {leaf:<14} {100.0 * count / total:5.1f} %")
    phone_sip = sampler.counts.get(("phone", "sip"), 0)
    proxy_sip = sampler.counts.get(("proxy", "sip"), 0)
    lines += ["",
              f"sip self time under a phone frame: "
              f"{100.0 * phone_sip / total:.1f} % of samples",
              f"sip self time under a proxy frame: "
              f"{100.0 * proxy_sip / total:.1f} % of samples"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="udp-closed-100")
    parser.add_argument("--profile", choices=("bench", "smoke"),
                        default="bench")
    args = parser.parse_args(argv)
    spec = ExperimentSpec(**spec_kwargs(args.workload, args.profile, SEED))
    start = time.perf_counter()
    with Sampler() as sampler:
        result = run_cell(spec)
    wall_s = time.perf_counter() - start
    print(report(sampler, args, wall_s, result.calls_completed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
