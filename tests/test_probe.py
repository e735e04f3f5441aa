"""The instrumentation seam: one ``probe`` attribute, a fixed hook set.

``tests/test_kernel_scheduler.py::test_profiler_receives_labels`` covers
the scheduler → ``probe.charge`` leg with a recording fake; the golden
observed digests pin what a whole cell records.  Here: how the probe
binds its hooks, that a block reason travels *with* the ``Wait`` (no
side channel a bystander can pick up), and a source scan that keeps a
fourth observer from being threaded the old way.
"""

import ast
import pathlib

import pytest

import repro
from repro.kernel.ipc import IpcChannel, IpcMessage
from repro.kernel.poller import Poller
from repro.kernel.scheduler import Scheduler
from repro.net.tcp import TcpListener, connect
from repro.obs.probe import Probe
from repro.sim.primitives import Compute, Sleep, Wait
from repro.sim.process import SimProcess
from repro.testbed import Testbed

from conftest import drive, make_lan


# ---------------------------------------------------------------------------
# hook binding
# ---------------------------------------------------------------------------
class TestHookBinding:
    def test_unobserved_testbed_has_no_probe(self):
        bed = Testbed()
        assert bed.probe is None
        assert bed.server.probe is None and bed.fabric.probe is None
        assert bed.server.scheduler.probe is None
        assert (bed.profiler, bed.tracer, bed.causal) == (None, None, None)

    def test_one_probe_is_shared_by_every_carrier(self):
        bed = Testbed(causal=True)
        carriers = [bed.fabric, bed.server, bed.server.scheduler]
        carriers += bed.clients + [c.scheduler for c in bed.clients]
        assert all(carrier.probe is bed.probe for carrier in carriers)
        assert bed.causal is bed.probe.causal
        assert (bed.profiler, bed.tracer) == (None, None)

    def test_single_consumer_hooks_are_the_sinks_own_methods(self, engine):
        probe = Probe(engine, True, True, True)
        assert probe.instant == probe.tracer.instant
        assert probe.begin == probe.tracer.begin
        assert probe.block_start == probe.causal.on_block_start
        assert probe.note == probe.causal.note
        profile_only = Probe(engine, True, False, False)
        assert profile_only.charge == profile_only.profiler.record

    def test_hooks_of_an_absent_sink_yield_nothing(self, engine):
        probe = Probe(engine, True, False, False)
        assert probe.begin("process_msg", cat="proxy", who="w") is None
        assert probe.sniff("INVITE sip:x\r\nCall-ID: c1\r\n") is None
        assert probe.instant("context_switch", who="w", core=0) is None
        probe.ctx_begin("server/w0", "tid")
        probe.mark("tid", "uac_send", "alice")
        assert probe.tracer is None and probe.causal is None

    def test_charge_fans_out_to_profiler_and_causal(self, engine):
        probe = Probe(engine, True, False, True)
        probe.ctx_begin("server/w0", "tid")
        engine.schedule(50.0, lambda: None)
        engine.run()
        probe.charge("parse_msg", 12.0, "server/w0")
        assert probe.profiler.by_label == {"parse_msg": 12.0}
        (seg,) = probe.causal.segments
        assert (seg.kind, seg.who, seg.start_us, seg.end_us, seg.detail) == (
            "cpu", "server/w0", 38.0, 50.0, "parse_msg")


# ---------------------------------------------------------------------------
# the block reason travels with the Wait
# ---------------------------------------------------------------------------
def _observed_scheduler(engine):
    probe = Probe(engine, False, False, True)
    return probe, Scheduler(engine, n_cores=1, ctx_switch_us=0.0,
                            probe=probe)


def _blocked_segments(probe):
    """Wait-state segments (CPU charges carry their label as detail)."""
    return [(seg.kind, seg.who, seg.duration_us)
            for seg in probe.causal.segments if seg.detail is None]


class TestBlockReason:
    def test_a_bystanders_blocked_recv_does_not_taint_a_sleep(self, engine):
        """An uncontended (client-style) process blocks in ``recv`` and
        is never dispatched by a scheduler; the next kernel process to
        block merely sleeps.  With the old one-slot hint the sleep was
        recorded as 10 µs of ``ipc`` on the sleeper's message."""
        probe, sched = _observed_scheduler(engine)
        chan = IpcChannel(engine)

        def bystander():
            yield from chan.a.recv()

        def sleeper():
            probe.ctx_begin("sleeper", "tid")
            yield Sleep(10.0)
            yield Compute(1.0, "work")
            probe.ctx_end("sleeper")

        SimProcess(engine, bystander(), name="bystander").start()
        sched.spawn(sleeper(), "sleeper").start()
        engine.run()
        assert _blocked_segments(probe) == []
        assert [seg.kind for seg in probe.causal.segments] == ["cpu"]

    @pytest.mark.parametrize("why", ["ipc", "sockq"])
    def test_blocking_primitives_name_their_wait_state(self, engine, why):
        probe, sched = _observed_scheduler(engine)
        chan = IpcChannel(engine)
        poller = Poller(engine)
        poller.add(chan.b)
        for primitive in (chan, poller):
            assert "causal" not in vars(primitive)  # nothing to inject
        engine.schedule(25.0, chan.a.try_send, IpcMessage("ping"))

        def waiter():
            probe.ctx_begin("waiter", "tid")
            if why == "ipc":
                yield from chan.b.recv()
            else:
                yield from poller.wait()
            yield Compute(1.0, "work")  # wants the CPU again: block over
            probe.ctx_end("waiter")

        sched.spawn(waiter(), "waiter").start()
        engine.run()
        assert _blocked_segments(probe) == [(why, "waiter", 25.0)]

    def test_flow_controlled_send_waits_as_network(self, engine):
        """A TCP send blocked on the peer's full receive window is network
        time, not local queueing."""
        probe, sched = _observed_scheduler(engine)
        __, machines = make_lan(engine, ["client", "server"])
        listener = TcpListener(machines["server"], 5060)
        conns = {}

        def fill_window():
            conns["client"] = yield from connect(machines["client"],
                                                 "server", 5060)
            conns["server"] = yield from listener.accept()
            yield from conns["client"].send("a" * 62_000)

        drive(engine, fill_window())
        engine.run()  # the bytes land; the window stays full
        engine.schedule(25.0, conns["server"].try_recv)

        def waiter():
            probe.ctx_begin("waiter", "tid")
            yield from conns["client"].send("b" * 5_000)
            yield Compute(1.0, "work")
            probe.ctx_end("waiter")

        sched.spawn(waiter(), "waiter").start()
        engine.run()
        ((why, who, us),) = _blocked_segments(probe)
        assert (why, who) == ("network", "waiter")
        assert us == pytest.approx(25.0)

    def test_a_wait_without_a_reason_attributes_nothing(self, engine):
        probe, sched = _observed_scheduler(engine)
        chan = IpcChannel(engine)
        engine.schedule(25.0, chan.a.try_send, IpcMessage("ping"))

        def waiter():
            probe.ctx_begin("waiter", "tid")
            yield Wait(chan.b.readable_signal)
            yield Compute(1.0, "work")
            probe.ctx_end("waiter")

        sched.spawn(waiter(), "waiter").start()
        engine.run()
        assert _blocked_segments(probe) == []


# ---------------------------------------------------------------------------
# nobody threads an observer the old way
# ---------------------------------------------------------------------------
SINKS = {"profiler", "tracer", "causal"}
#: the probe owns the sinks; the sampler polls a profiler; the testbed
#: keeps the sinks readable by name (frozen surface)
OWNERS = {"obs/probe.py", "obs/metrics.py", "testbed.py"}


def _sink_uses(tree):
    """(class, what) for every class that accepts a sink as a parameter or
    stores one on ``self``; plus ``x.tracer = ...``-style injection
    anywhere in the module."""
    found = []
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for node in ast.walk(cls):
            if isinstance(node, ast.arg) and node.arg in SINKS:
                found.append((cls.name, f"parameter {node.arg}"))
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr in SINKS \
                        and isinstance(leaf.ctx, ast.Store):
                    found.append((ast.unparse(leaf.value),
                                  f"assigns .{leaf.attr}"))
    return found


def test_no_component_defines_or_accepts_a_sink():
    root = pathlib.Path(repro.__file__).parent
    offenders = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in OWNERS:
            continue
        uses = _sink_uses(ast.parse(path.read_text()))
        if rel == "analysis/experiments.py":
            # run_cell's live attachments on the BenchmarkResult
            uses = [use for use in uses if use[0] != "result"]
        if uses:
            offenders[rel] = uses
    assert offenders == {}


def test_the_scan_sees_the_old_wiring():
    old_style = ast.parse(
        "class Lock:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "def wire(chan, server):\n"
        "    chan.causal = server.causal\n")
    assert sorted(_sink_uses(old_style)) == [
        ("Lock", "parameter tracer"), ("chan", "assigns .causal"),
        ("self", "assigns .tracer")]
