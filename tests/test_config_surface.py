"""Every option has a caller, and every configuration field is read.

Two rules keep the configuration surface from growing back:

- **No option without a caller.**  ``benchmarks/traffic_audit.py``'s static
  reports 1, 2 and 3a list the constructor and config values, function
  parameters and definitions under ``src/repro`` that no caller outside
  ``tests/`` sets or reaches (``TESTS``), or that nothing does (``NEVER``,
  ``NOWHERE``).  Each such entry must be in :data:`ALLOWED` below with a
  one-line reason, and every entry of :data:`ALLOWED` must still be
  reported, so the list cannot go stale.  Keys are the entries as the
  audit prints them (``Class.param``, ``function(param)``,
  ``Class.method``); ``*`` matches any run of characters.
- **No field without a reader.**  For each field of the four
  configuration dataclasses there is at least one attribute read
  (``x.<field>``) outside the class's field declarations and its own
  ``validate()``.  Matching is by name, so it cannot tell a read of this
  field from a read of a namesake elsewhere; it catches the field nobody
  reads at all.
"""

import ast
import fnmatch
import importlib.util
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_CLASSES = ("ProxyConfig", "Workload", "CostModel", "ExperimentSpec")

_spec = importlib.util.spec_from_file_location(
    "traffic_audit", ROOT / "benchmarks" / "traffic_audit.py")
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)

_COSTS = "carries a perturbed CostModel (ROADMAP 7(c)'s elasticities)"
_FAULT = "fault-plan event data; plans also arrive as JSON (from_dict)"

#: audit entry (or pattern) -> why it stays although no non-test caller
#: sets or reaches it
ALLOWED = {
    # -- the cost model: ROADMAP 7(c) decides each constant --------------
    "CostModel.*": "calibrated cost constant; ROADMAP 7(c)'s elasticities "
                   "perturb each one",
    "ExperimentSpec.costs": _COSTS,
    "*ProxyServer.costs": _COSTS,
    # -- deployment settings and data fields -----------------------------
    "ProxyConfig.port": "deployment setting: the SIP port phones dial",
    "ProxyConfig.domain": "deployment setting: the domain phones register in",
    "BenchmarkResult.*": "result field run_cell fills in after the manager "
                         "builds the result",
    "WorkerCrash.*": _FAULT,
    "SipMessage.headers": "message data; SipRequest/SipResponse pass it on",
    "SipMessage.body": "message data; SipRequest/SipResponse pass it on",
    # -- values tests use to steer behaviour -----------------------------
    "Scheduler.quantum_us": "tests shorten the CFS quantum",
    "Scheduler.ctx_switch_us": "tests zero the context-switch charge",
    "Scheduler.granularity_us": "tests set the CFS wakeup granularity",
    "Scheduler.o1_*": "tests drive the O(1) model's starvation (§5.3) "
                      "directly",
    "SpinLock.spin_us": "tests set the spin batch",
    "SpinLock.spins_before_yield": "tests set the spin/yield backoff",
    "Fabric.latency_us": "tests set the LAN's one-way latency",
    "Machine.ephemeral_ports": "tests exhaust the ephemeral port range",
    "PortAllocator.lo": "tests build small port ranges",
    "CausalTracer.capacity": "tests shrink the ring to exercise eviction",
    "Tracer.capacity": "tests shrink the ring to exercise eviction",
    "TransactionTable.buckets": "tests shrink the table to force collisions",
    "StreamFramer.max_message_bytes": "tests exercise the oversize guard",
    "ResultCache.directory": "tests cache into a temporary directory",
    "ProxyConfig.udp_rcvbuf_datagrams": "tests shrink the receive buffer "
                                        "to force drops",
    "capacity_spec(*)": "tests shorten the spec builder's windows",
    "overload_spec(*)": "tests shorten the spec builder's windows",
    "Fork.name": "the scheduler timeline digest forks named children",
    "Exit.value": "the scheduler timeline digest exits with values",
    # -- reached in ways the audit cannot see ----------------------------
    "FaultInjector.arm(t0_us)": "the manager passes it through "
                                "on_measure_start",
    "Poller._on_data(value)": "signal listener: Signal.fire passes the "
                              "value",
    # -- definitions kept on purpose (ROADMAP items 6 and 10) -------------
    "Engine.step": "steps the engine one event at a time (run_until_done)",
    "Scheduler.suspend": "the burst-path timeline digest drives a "
                         "synchronous wake from inside a burst",
    "Scheduler.resume": "the burst-path timeline digest drives a "
                        "synchronous wake from inside a burst",
}


def unexplained(flagged, allowed):
    """The flagged entries no allowlist key covers."""
    return sorted(entry for entry in flagged
                  if not any(fnmatch.fnmatchcase(entry, key)
                             for key in allowed))


def stale(flagged, allowed):
    """The allowlist keys that cover no flagged entry."""
    return sorted(key for key in allowed
                  if not any(fnmatch.fnmatchcase(entry, key)
                             for entry in flagged))


@pytest.fixture(scope="module")
def flagged():
    return audit.findings(audit.load_modules(ROOT))


def test_every_option_has_a_caller(flagged):
    missing = unexplained(flagged, ALLOWED)
    assert not missing, (
        "no caller outside tests/ sets or reaches:\n"
        + "\n".join(f"  {entry} ({flagged[entry]})" for entry in missing)
        + "\nGive each a caller, make it a constant where it is used, or "
          "add it to ALLOWED in tests/test_config_surface.py with a "
          "one-line reason.")


def test_allowlist_is_not_stale(flagged):
    gone = stale(flagged, ALLOWED)
    assert not gone, (
        "the audit no longer reports these ALLOWED entries; delete them: "
        + ", ".join(gone))


def test_every_allowlist_entry_has_a_reason():
    for key, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, key


def test_the_audit_sees_through_a_forwarding_wrapper():
    files = {
        ("src/repro/knobs.py", "src"):
            "class Knobs:\n"
            "    def __init__(self, never=1, forwarded=2, allowed=3):\n"
            "        pass\n",
        ("benchmarks/build.py", "benchmarks"):
            "from repro.knobs import Knobs\n"
            "def build(scale=1, **kwargs):\n"
            "    return Knobs(**kwargs)\n"
            "build(scale=2, forwarded=5)\n",
    }
    modules = [(rel, area, ast.parse(text))
               for (rel, area), text in files.items()]
    found = audit.findings(modules)
    assert found == {"Knobs.never": "NEVER", "Knobs.allowed": "NEVER"}
    allowed = {"Knobs.allowed": "reason", "Knobs.forwarded": "reason"}
    assert unexplained(found, allowed) == ["Knobs.never"]
    assert stale(found, allowed) == ["Knobs.forwarded"]


def test_the_audit_reads_the_workflow_heredocs():
    workflow = (
        "jobs:\n"
        "  check:\n"
        "    steps:\n"
        "      - name: Validate\n"
        "        run: |\n"
        "          PYTHONPATH=src python - <<'EOF'\n"
        "          from repro.checks import Checker, validate\n"
        "          assert validate('out.json', Checker(strict=True))\n"
        "          EOF\n"
        "      - name: Not Python\n"
        "        run: echo orphan\n")
    src = ("src/repro/checks.py", "src", ast.parse(
        "class Checker:\n"
        "    def __init__(self, strict=False):\n"
        "        pass\n"
        "def validate(path, checker):\n"
        "    return path\n"
        "def orphan():\n"
        "    pass\n"))
    ci = audit.workflow_modules(workflow)
    assert [(rel, area) for rel, area, __ in ci] == \
        [(".github/workflows/ci.yml:7", "ci")]
    assert audit.findings([src] + ci) == {"orphan": "NOWHERE"}
    assert audit.findings([src]) == {"orphan": "NOWHERE",
                                     "validate": "NOWHERE",
                                     "Checker": "NOWHERE",
                                     "Checker.strict": "NEVER"}


# ----------------------------------------------------------------------
# no field without a reader
# ----------------------------------------------------------------------
def _trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]


def _fields_and_excluded(trees, name):
    """The class's field names, and the ids of the nodes whose reads do
    not count (its field declarations and its ``validate`` method)."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                fields = [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                excluded = {id(sub) for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            or (isinstance(item, ast.FunctionDef)
                                and item.name == "validate")
                            for sub in ast.walk(item)}
                return fields, excluded
    raise AssertionError(f"class {name} not found under {SRC}")


def _unread(trees, name):
    fields, excluded = _fields_and_excluded(trees, name)
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in excluded}
    return [field for field in fields if field not in read]


@pytest.mark.parametrize("name", CONFIG_CLASSES)
def test_every_field_is_read(name):
    assert _unread(_trees(), name) == []


def test_the_scan_sees_an_unread_field():
    trees = [ast.parse(
        "class Knobs:\n"
        "    used: int = 1\n"
        "    validated_only: int = 2\n"
        "    def validate(self):\n"
        "        assert self.validated_only > 0\n"
        "def run(knobs):\n"
        "    return knobs.used\n")]
    assert _unread(trees, "Knobs") == ["validated_only"]
