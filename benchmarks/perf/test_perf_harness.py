"""Self-test of the benchmark harness (``pytest benchmarks/perf -q``).

Runs the whole harness once in ``--smoke`` mode (≈50 ms windows, one
repeat) and checks its *plumbing*, not its numbers: every metric
declared in ``BENCHMARK.json`` comes out once per workload with its
unit, names are well formed, the microbenchmarks ran, and ``compare.py``
calls a result equal to itself.  Not part of the tier-1 ``testpaths``.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declaration():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(stdout lines, result file path) of one full smoke run."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "1",
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    return proc.stdout.splitlines(), out


def test_declared_names_are_well_formed(declaration):
    names = [w["name"] for w in declaration["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in declaration[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert declaration["paths"] == ["benchmarks/perf"]
    assert any(m["name"] == "setup_s" for m in declaration["end_to_end"])


def test_every_declared_metric_is_emitted_once_per_workload(
        declaration, smoke):
    lines, __ = smoke
    emitted = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 4 and fields[0] != "sim_digest":
            key = (fields[0], fields[1])
            assert key not in emitted, f"{key} emitted twice"
            emitted[key] = fields[3]
    metrics = declaration["end_to_end"] + declaration["per_layer"]
    for workload in declaration["workloads"]:
        for metric in metrics:
            key = (metric["name"], workload["name"])
            assert emitted.get(key) == metric["unit"], key
    assert len(emitted) == len(metrics) * len(declaration["workloads"])


def test_microbenchmarks_ran(declaration, smoke):
    __, out = smoke
    with open(out) as fh:
        report = json.load(fh)
    micro = [m["name"] for m in declaration["per_layer"]
             if m["unit"] == "ns" and m["name"] != "sim.host_ns_per_event"]
    assert len(micro) == 14
    for entry in report["workloads"].values():
        for name in micro:
            assert entry["per_layer"][name]["value"] > 0, name


def test_result_records_the_run_conditions(smoke):
    __, out = smoke
    with open(out) as fh:
        report = json.load(fh)
    assert report["problems"] == []
    for field in ("nproc", "python", "commit", "seed", "loadavg_at_start"):
        assert field in report["host"]
    for entry in report["workloads"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sim_digest"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0


def test_compare_reports_a_file_against_itself_as_all_ok(smoke):
    __, out = smoke
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    verdicts = [line.split()[0] for line in proc.stdout.splitlines()[:-1]]
    assert verdicts and set(verdicts) == {"ok"}
    assert proc.stdout.splitlines()[-1].startswith(f"{len(verdicts)} ok, "
                                                   "0 regressed")
