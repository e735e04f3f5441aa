"""Compare two result files of ``run.py --out``: before A, after B.

    python benchmarks/perf/compare.py A.json B.json

For every (end-to-end metric, workload) pair it applies the regression
bound declared in ``BENCHMARK.json`` and prints one verdict:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  the min–max spread of either side exceeds the bound and
                the two ranges overlap, so the medians cannot settle it

Simulated numbers are exact for a seed, so anything exact that differs
is flagged as well: every ``sim_digest``, and every per-layer count
(``unit == "count"``: simulated counters and per-package call counts).
A change that claims to touch only host time must leave all of them
identical.  Exit status is 1 when anything regressed.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: a relative bound on a tiny time is all noise; differences below these
#: absolute floors never count as regressions
ABSOLUTE_FLOOR = {"setup_s": 0.03}


def verdict(metric: dict, before: dict, after: dict) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric, given the
    ``{value, min, max}`` cells of both sides."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (after["value"] - before["value"])
    noisy = any((cell["max"] - cell["min"]) > bound * abs(cell["value"])
                for cell in (before, after))
    overlap = (before["min"] <= after["max"]
               and after["min"] <= before["max"])
    if noisy and overlap:
        return "unresolved"
    if worse_by > max(bound * abs(before["value"]),
                      ABSOLUTE_FLOOR.get(metric["name"], 0.0)):
        return "regressed"
    return "ok"


def compare(before: dict, after: dict, end_to_end: list) -> dict:
    """Print one line per comparison; returns the verdict counts."""
    counts = {"ok": 0, "regressed": 0, "unresolved": 0, "changed": 0}
    for name in before["workloads"]:
        if name not in after["workloads"]:
            continue
        a, b = before["workloads"][name], after["workloads"][name]
        for metric in end_to_end:
            cell_a = a.get("end_to_end", {}).get(metric["name"])
            cell_b = b.get("end_to_end", {}).get(metric["name"])
            if cell_a is None or cell_b is None:
                continue
            outcome = verdict(metric, cell_a, cell_b)
            counts[outcome] += 1
            change = cell_b["value"] / cell_a["value"] - 1.0
            print(f"{outcome:<10} {metric['name']} {name} "
                  f"{cell_a['value']:.6g} -> {cell_b['value']:.6g} "
                  f"{metric['unit']} ({change:+.2%}, bound "
                  f"{metric['bound']:.0%}, {metric['better']} is better)")
        if a["sim_digest"] != b["sim_digest"]:
            counts["changed"] += 1
            print(f"changed    sim_digest {name} "
                  f"{a['sim_digest'][:12]} -> {b['sim_digest'][:12]}")
        layers_b = b.get("per_layer", {})
        for metric, cell_a in a.get("per_layer", {}).items():
            cell_b = layers_b.get(metric)
            if cell_b is not None and cell_a["unit"] == "count" \
                    and cell_a["value"] != cell_b["value"]:
                counts["changed"] += 1
                print(f"changed    {metric} {name} {cell_a['value']} -> "
                      f"{cell_b['value']} count")
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fh_a, open(argv[1]) as fh_b, \
            open(ROOT / "BENCHMARK.json") as fh_decl:
        before, after = json.load(fh_a), json.load(fh_b)
        end_to_end = json.load(fh_decl)["end_to_end"]
    counts = compare(before, after, end_to_end)
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved, {counts['changed']} exact "
          "values changed")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
