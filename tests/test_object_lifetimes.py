"""No cell leaves cyclic garbage, so ``run_cell`` may pause the collector.

``run_cell`` disables CPython's cyclic collector around the event loop
(DESIGN.md §3c).  That is only sound while every per-call object —
transaction, timer, heap entry, message, call generator — dies by
reference count; these tests are the guard.  Each cell runs under
``gc.DEBUG_SAVEALL`` with its result still referenced, then one
``gc.collect()`` shows everything that was unreachable but kept alive by a
cycle.  A handful of one-off set-up closures (the ``MetricSampler``'s
probes) are tolerated; anything that scales with calls is not.
"""

import collections
import dataclasses
import gc
import os
import sys
import tracemalloc

import pytest

import repro.obs
from repro.analysis import experiments
from repro.analysis.experiments import ExperimentSpec, run_cell
from repro.analysis.overload import overload_spec
from repro.faults import FaultPlan, WorkerCrash
from repro.kernel.machine import Machine
from repro.net.fabric import Fabric
from repro.net.tcp import TcpConn, TcpListener, connect
from repro.sim.engine import Engine
from repro.obs.causal import Segment
from repro.obs.tracer import Span
from repro.clients.phone import Phone
from repro.sip.headers import Address, Via
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.transaction import ServerTransaction
from repro.sip.uri import SipUri

#: one-off set-up cycles are tolerated up to this many objects per cell
MAX_GARBAGE = 200
#: per-call types: not one instance may need the collector
PER_CALL = {"ClientTransaction", "ServerTransaction", "Scheduled",
            "SipRequest", "SipResponse", "generator"}

SERIES = ("udp", "sctp", "tcp-50", "tcp-persistent", "tcp-threaded",
          "tcp-threaded-50")
OBSERVED = dict(profile=True, trace=True, causal=True, sample_us=5_000.0)


def small_cell(series, **observers):
    """The golden small cell of ``tests/test_golden_digests.py``."""
    return ExperimentSpec(
        series=series, clients=8, workers=4, seed=1, warmup_us=30_000.0,
        measure_us=100_000.0, idle_timeout_us=60_000.0,
        scale_windows=False, **observers)


def cyclic_garbage(spec):
    """(result, Counter of type names only the collector could free)."""
    gc.collect()  # earlier tests' cycles are not this cell's
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_cell(spec)
        gc.collect()
        return result, collections.Counter(
            type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.collect()


def assert_cycle_free(found):
    assert sum(found.values()) < MAX_GARBAGE, found.most_common(10)
    assert not PER_CALL & set(found), found.most_common(10)


@pytest.mark.parametrize("series", SERIES)
def test_small_cell_leaves_no_cyclic_garbage(series):
    result, found = cyclic_garbage(small_cell(series))
    assert result.calls_completed > 0
    assert_cycle_free(found)


def test_observed_cell_leaves_no_cyclic_garbage():
    result, found = cyclic_garbage(small_cell("tcp-50", **OBSERVED))
    assert result.tracer.emitted > 0 and result.causal.emitted > 0
    assert_cycle_free(found)


def test_overloaded_cell_leaves_no_cyclic_garbage():
    """Open-loop UDP past capacity: requests are dropped, retransmitted
    (timers A/E/G) and given up on (timers B/F) — the timeout paths."""
    spec = dataclasses.replace(
        overload_spec("udp", 60, 9000.0, "none", workers=2,
                      warmup_us=60_000.0, measure_us=200_000.0,
                      scale_windows=False),
        sip_t1_us=2_000.0)
    result, found = cyclic_garbage(spec)
    assert result.client_retransmissions > 0 and result.calls_failed > 0
    assert_cycle_free(found)


def test_crash_and_restart_cell_leaves_no_cyclic_garbage():
    """A worker crashes mid-window and the watchdog restarts it: the
    ``restart_worker`` path, plus transactions aborted with a dead worker."""
    plan = FaultPlan([WorkerCrash(start_us=100_000.0, worker=2)])
    result, found = cyclic_garbage(ExperimentSpec(
        series="tcp-persistent", clients=16, seed=3, workers=6,
        warmup_us=150_000.0, measure_us=400_000.0, sip_t1_us=20_000.0,
        offered_cps=400.0, sample_us=10_000.0, scale_windows=False,
        fault_plan=plan.to_dict(), watchdog=True))
    assert result.proxy.stats.workers_restarted == 1
    assert_cycle_free(found)


def test_back_to_back_cells_do_not_stack():
    """A finished cell's world is one big cycle; the next ``run_cell`` frees
    it up front rather than carrying it through its own collector pause."""
    def objects_after_one_cell():
        run_cell(small_cell("udp"))  # result dropped at once, as a pool
        return len(gc.get_objects())  # worker or the next test would

    after_first = objects_after_one_cell()
    after_second = objects_after_one_cell()
    assert after_second < 1.2 * after_first


@pytest.mark.parametrize("enabled", [True, False])
def test_run_cell_restores_the_collector(enabled, monkeypatch):
    def boom(self):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        run_cell(dataclasses.replace(small_cell("udp"), measure_us=10_000.0))
        assert gc.isenabled() is enabled
        monkeypatch.setattr(experiments.BenchmarkManager, "run", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_cell(small_cell("udp"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


#: heap growth per completed call a cell may keep (DESIGN.md §3c, fourth
#: rule): ≈3.1 KB on the retention cell below; 5.1 KB when answered calls
#: kept their INVITE transactions and each BYE one was pinned for T4, and
#: 11.8 KB when finished transactions kept their messages
MAX_RETAINED_BYTES_PER_CALL = 4_000


def test_finished_transactions_keep_text_not_messages(monkeypatch):
    """What a cell keeps alive after its calls are done: a callee keeps an
    answered call as its 200 OK text and a BYE as nothing, answered proxy
    transactions drop the forwarded request, and the heap grows by a
    bounded amount per call."""
    seen = {}
    registration = experiments.BenchmarkManager._registration_phase
    manager_run = experiments.BenchmarkManager.run

    def registered(self):
        registration(self)
        seen["registered"] = tracemalloc.get_traced_memory()[0]

    def ran(self):
        result = manager_run(self)
        seen["ran"] = tracemalloc.get_traced_memory()[0]
        seen["phones"] = self.callers + self.callees
        return result

    monkeypatch.setattr(experiments.BenchmarkManager,
                        "_registration_phase", registered)
    monkeypatch.setattr(experiments.BenchmarkManager, "run", ran)
    tracemalloc.start()
    try:
        # Half the golden window: ≈1 100 calls, ≈7 s under tracemalloc.
        result = run_cell(dataclasses.replace(small_cell("udp"),
                                              measure_us=50_000.0))
    finally:
        tracemalloc.stop()
    calls = result.calls_completed
    assert calls > 0
    phones = seen["phones"]
    answered = [text for phone in phones
                for text in (phone._answered or {}).values()]
    assert len(answered) >= calls  # every ACKed INVITE, for 64×T1
    assert all(type(text) is str for text in answered)
    unacked = [txn for phone in phones for txn in phone._uas_invites.values()]
    assert not [txn for txn in unacked if txn.terminated]
    engine = result.testbed.engine
    alive = [obj for obj in gc.get_objects()
             if type(obj) is ServerTransaction and obj.engine is engine]
    assert len(alive) == len(unacked)  # nothing for ACKed INVITEs or BYEs
    for txn in alive:
        assert not [ref for ref in gc.get_referents(txn)
                    if isinstance(ref, SipMessage)], txn
    responded = [txn for txn in result.proxy.txn_table._by_branch.values()
                 if txn.responded]
    assert responded
    assert all(txn.forwarded_text is None and txn.forward_target is None
               for txn in responded)
    per_call = (seen["ran"] - seen["registered"]) / calls
    assert per_call <= MAX_RETAINED_BYTES_PER_CALL, per_call


#: bytes the causal tracer may hold per recorded segment (DESIGN.md §3b):
#: ≈50 in its columns, ≈120 when every row was a ``Segment`` object
MAX_CAUSAL_BYTES_PER_SEGMENT = 64
#: bytes the span tracer may hold per recorded event (DESIGN.md §3b):
#: ≈111 in its columns and values tuples on the cell below; when every
#: event was a ``Span`` this file held ≈88, and each Span also kept the
#: attrs dict its call site built (≈184 more)
MAX_TRACER_BYTES_PER_SPAN = 140


@pytest.fixture(scope="module")
def observed_before_journeys():
    """An observed small cell, measured when ``run_cell`` is about to
    build journeys: the result, and what is alive then — ``Segment``s,
    ``Span``s, bytes ``obs/causal.py`` and ``obs/tracer.py`` hold."""
    seen = {}
    build_journeys = repro.obs.build_journeys

    def held(filename):
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, f"*/repro/obs/{filename}")])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    def measured(causal, window=None):
        live = collections.Counter(type(obj) for obj in gc.get_objects())
        seen.update(segments=live[Segment], causal_bytes=held("causal.py"),
                    spans=live[Span], tracer_bytes=held("tracer.py"))
        return build_journeys(causal, window)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.obs, "build_journeys", measured)
        tracemalloc.start()
        try:
            result = run_cell(dataclasses.replace(
                small_cell("tcp-persistent", **OBSERVED),
                measure_us=50_000.0))
        finally:
            tracemalloc.stop()
    assert result.attribution["journeys"] > 0
    return result, seen


def test_causal_tracer_keeps_columns_not_segments(observed_before_journeys):
    """Until journeys are built, the causal tracer's rows live in its
    columns: no ``Segment`` object exists, and what ``obs/causal.py``
    allocated stays within a bounded number of bytes per segment."""
    result, seen = observed_before_journeys
    assert seen["segments"] == 0
    per_segment = seen["causal_bytes"] / result.causal.emitted
    assert per_segment <= MAX_CAUSAL_BYTES_PER_SEGMENT, per_segment


def test_span_tracer_keeps_columns_not_spans(observed_before_journeys):
    """Only open spans need to be ``Span`` objects: ``end()`` commits a
    span to the tracer's columns and the tracer keeps no object, and what
    ``obs/tracer.py`` allocated stays within a bounded number of bytes
    per recorded event."""
    result, seen = observed_before_journeys
    # What is still alive is what the server's suspended processes hold
    # in their frames (a span open at the window's end, or the last one a
    # loop ended): a few per process, not one per recorded event.
    processes = len(result.testbed.server.scheduler.processes)
    assert seen["spans"] <= 4 * processes, seen
    per_span = seen["tracer_bytes"] / result.tracer.emitted
    assert per_span <= MAX_TRACER_BYTES_PER_SPAN, (per_span, seen)


def cell_census(spec):
    """(result, live objects, Counter by type name of what the cell added
    to the heap).  What earlier tests keep alive (a module fixture's
    observed cell) is counted before and is not the cell's."""
    gc.collect()
    before = collections.Counter(type(obj).__name__
                                 for obj in gc.get_objects())
    result = run_cell(spec)
    objects = gc.get_objects()
    live = collections.Counter(type(obj).__name__ for obj in objects)
    return result, objects, live - before


#: wake-up sources and completion events a lingering connection may cost
#: (DESIGN.md §3c, fifth rule): ≈1.03 Signals and ≈0.50 Events per live
#: ``TcpConn`` on the cell below, 2.03 and 1.52 when every buffer built its
#: writable signal, every accepted side a ``connected`` event and every
#: process a ``done`` event
MAX_SIGNALS_PER_CONN = 1.2
MAX_EVENTS_PER_CONN = 0.7
#: generators and light processes per live client-side ``TcpConn`` (the
#: fifth rule): ≈0.07 and ≈0.03 on the cell below — the phones' main and
#: reconnect loops and the server's processes, for 993 connections; 0.11
#: and 0.05 when every phone also parked an accept and a reconnect loop
#: from its start, 2.07 and 1.02 when every connection had a reader
#: process parked in ``recv``
MAX_GENERATORS_PER_CLIENT_CONN = 0.15
MAX_PROCESSES_PER_CLIENT_CONN = 0.1


def test_churn_cell_builds_signals_and_events_on_first_use():
    """A churn cell ends holding thousands of abandoned connections; what
    they keep is their receive buffer's readable signal, the initiator's
    ``connected`` event and the phone's reader subscribed to that signal,
    not a signal or event per object that nothing waits on, nor a parked
    process per connection."""
    result, objects, cells = cell_census(small_cell("tcp-50"))
    assert result.calls_completed > 0
    conns = cells["TcpConn"]
    assert conns > 1000  # the lingering population the idle sweep reaps
    assert cells["Signal"] / conns <= MAX_SIGNALS_PER_CONN, cells["Signal"]
    assert cells["Event"] / conns <= MAX_EVENTS_PER_CONN, cells["Event"]
    engine = result.testbed.engine
    client_conns = sum(1 for obj in objects if type(obj) is TcpConn
                       and obj.initiated and obj.engine is engine)
    assert client_conns > 500
    assert cells["generator"] / client_conns \
        <= MAX_GENERATORS_PER_CLIENT_CONN, cells["generator"]
    assert cells["SimProcess"] / client_conns \
        <= MAX_PROCESSES_PER_CLIENT_CONN, cells["SimProcess"]


#: light processes and phone-held generators per phone in a persistent
#: TCP cell (DESIGN.md §3c, fifth rule): 1.0 and 1.5 on the cell below —
#: each phone's main process, finished for a callee and three generators
#: deep (main loop, call, transaction) for a caller — and 3.0 and 5.0 when
#: every phone parked an accept and a reconnect process from its start
MAX_PROCESSES_PER_PHONE = 1.1
MAX_PHONE_GENERATORS_PER_PHONE = 1.6


def test_persistent_cell_parks_no_process_per_phone():
    """On persistent TCP nothing is reaped, so no phone ever reconnects
    and the proxy never dials one: a phone costs its main process and
    nothing waits on its listener or for a reconnect request."""
    spec = dataclasses.replace(small_cell("tcp-persistent"),
                               idle_timeout_us=1_000_000.0)
    result, __, cells = cell_census(spec)
    assert result.calls_completed > 0 and result.calls_failed == 0
    phones = 2 * spec.clients
    assert cells["SimProcess"] / phones <= MAX_PROCESSES_PER_PHONE, \
        cells["SimProcess"]

    def depth(gen):  # a process's generator and those it delegates to
        return 0 if gen is None else 1 + depth(gen.gi_yieldfrom)

    servers = sum(depth(proc.gen)
                  for proc in result.testbed.server.scheduler.processes)
    assert (cells["generator"] - servers) / phones \
        <= MAX_PHONE_GENERATORS_PER_PHONE, (cells["generator"], servers)


#: messages alive per caller at the end of a persistent cell (DESIGN.md
#: §3c, fifth rule): 0.0 and 0.0 on the 16-client cell below, since a
#: caller's open transaction keeps its request as wire text; 1.0 and 0.0
#: when it kept a ``SipRequest``, and 2.25 and 0.63 when a caller held its
#: INVITE, ACK and 200 OK until its BYE completed
MAX_REQUESTS_PER_CALLER = 0.1
MAX_RESPONSES_PER_CALLER = 0.1


def test_persistent_cell_keeps_no_identifier_stream_or_message_per_phone():
    """Phones share one identifier stream, so the cell's ``Random``s are
    its named streams however many phones it has (3 at 8 and at 16
    clients; one more per phone when each had its own), and past the ACK
    a caller keeps only its dialog."""
    census = {}
    for clients in (8, 16):
        spec = dataclasses.replace(small_cell("tcp-persistent"),
                                   clients=clients,
                                   idle_timeout_us=1_000_000.0)
        result, __, census[clients] = cell_census(spec)
        assert result.calls_completed > 0 and result.calls_failed == 0
    assert census[16]["Random"] == census[8]["Random"], \
        (census[8]["Random"], census[16]["Random"])
    callers = 16
    assert census[16]["SipRequest"] / callers <= MAX_REQUESTS_PER_CALLER, \
        census[16]["SipRequest"]
    assert census[16]["SipResponse"] / callers <= MAX_RESPONSES_PER_CALLER, \
        census[16]["SipResponse"]


#: the message model, which phones never build and the proxy builds only
#: for a text no template fits (DESIGN.md §3c)
MODEL_CLASSES = (SipRequest, SipResponse, Address, SipUri, Via)


def test_a_udp_call_builds_no_message_objects_on_the_phone_side(
        monkeypatch):
    """Phones send and read SIP as wire text, and the proxy reads what the
    phones write by template and sends it on spliced: through a whole UDP
    cell, no ``SipRequest``, ``SipResponse``, ``Address``, ``SipUri`` or
    ``Via`` is constructed under a phone's frame or the proxy's.  With the
    proxy's templates made to miss, its fallback builds them for every
    message it handles, and the phones still build none."""
    built = collections.Counter()
    phone_code = sys.modules[Phone.__module__].__file__

    def counted(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                filename = frame.f_code.co_filename
                if filename == phone_code:
                    built["phone", cls.__name__] += 1
                    break
                if f"{os.sep}proxy{os.sep}" in filename:
                    built["proxy", cls.__name__] += 1
                    break
                frame = frame.f_back
            init(self, *args, **kwargs)
        return __init__

    def built_in_a_cell():
        built.clear()
        result = run_cell(dataclasses.replace(small_cell("udp"), clients=1))
        assert result.calls_completed >= 1
        return collections.Counter(built)

    for cls in MODEL_CLASSES:
        monkeypatch.setattr(cls, "__init__", counted(cls))
    assert not built_in_a_cell()
    monkeypatch.setattr("repro.proxy.core.proxy_read", lambda text: None)
    by_model = built_in_a_cell()
    assert not [key for key in by_model if key[0] == "phone"], by_model
    assert by_model["proxy", "SipRequest"] and by_model["proxy", "SipResponse"]


def test_names_built_on_demand_keep_their_values():
    """A connection's name is the causal ``sockq`` segment's ``who``, and
    a ``done`` event looked at after the end still carries the result."""
    engine = Engine()
    fabric = Fabric(engine, latency_us=50.0)
    client, server = Machine(engine, "client"), Machine(engine, "server")
    fabric.attach(client)
    fabric.attach(server)
    listener = TcpListener(server, 5060)
    conns = {}

    def dial():
        conns["client"] = yield from connect(client, "server", 5060)
        return "dialled"

    def accept():
        conns["server"] = yield from listener.accept()

    proc = client.spawn_light(dial(), "dial").start()
    server.spawn_light(accept(), "accept").start()
    engine.run()
    port = conns["client"].local_port
    assert conns["client"].name == f"client:{port}->server:5060"
    assert conns["server"].name == f"server:5060->client:{port}"
    # one string per connection, however many segments name it
    name = conns["server"].name
    assert name is sys.intern(f"server:5060->client:{port}")
    assert conns["server"].name is name
    # the buffers and their signals share one name instead
    assert conns["client"].readable_signal.name \
        is conns["server"].readable_signal.name
    assert conns["client"].connected.fired is True
    assert conns["client"].connected.value is True
    done = proc.done
    assert done.fired is True
    assert done.value == "dialled"
    assert done.name == "client/dial.done"
