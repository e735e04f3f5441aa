"""Per-layer microbenchmarks: host ns per operation of public functions.

Each benchmark drives one package through its public API from outside,
with a fixed operation count, and reports the *minimum* of
``TIMINGS`` timings as nanoseconds per operation (the minimum is the run
least disturbed by the sandbox's neighbours).  Operation counts are
fixed per benchmark — sized so one timing takes ≈0.1–0.3 s here — so
two commits always time the same work.  ``--smoke`` divides the counts
by 50 for the harness self-test.

Run alone with ``PYTHONPATH=src python benchmarks/perf/micro.py``; the
last stdout line is a JSON object ``{metric: ns_per_op}``.
"""

import json
import random
import sys
import time

from repro.kernel import IpcChannel, IpcMessage, Machine, Scheduler
from repro.net import Fabric, TcpListener, UdpEndpoint, tcp_connect
from repro.obs.histogram import StreamingHistogram
from repro.proxy.config import ProxyConfig
from repro.proxy.core import ProxyCore
from repro.proxy.costs import CostModel
from repro.proxy.stats import ProxyStats
from repro.proxy.txn_table import TimerList, TransactionTable
from repro.sim import Compute, Engine, SimProcess, Sleep
from repro.sip.builder import MessageBuilder
from repro.sip.location import LocationService
from repro.sip.parser import StreamFramer, parse_message

TIMINGS = 5
MSS = 1460  # bytes per TCP segment, the chunk size a worker's read sees


def _builder(user: str, host: str, port: int, seed: int) -> MessageBuilder:
    return MessageBuilder(user, "example.com", host, port, "udp",
                          random.Random(seed))


def _invite_text() -> str:
    return _builder("alice", "client1", 20000, 1).invite("bob").render()


def _lan(engine: Engine, **machine_kwargs):
    fabric = Fabric(engine, latency_us=50.0)
    machines = [Machine(engine, name, **machine_kwargs)
                for name in ("client", "server")]
    for machine in machines:
        fabric.attach(machine)
    return machines


def _timed_run(engine: Engine, procs) -> float:
    """Seconds of host time to run ``engine`` until ``procs`` finish."""
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    for proc in procs:
        if proc.alive or proc.error is not None:
            raise RuntimeError(f"microbenchmark process {proc!r} did not "
                               f"finish cleanly: {proc.error!r}")
    return elapsed


# -- sim ----------------------------------------------------------------
def schedule_fire(ops: int) -> float:
    """1000 self-rescheduling timers: schedule + pop + fire per op."""
    engine = Engine()
    chains = 1000
    remaining = [ops - chains]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            engine.schedule(10.0, tick)

    start = time.perf_counter()
    for i in range(chains):
        engine.schedule(float(i % 10), tick)
    engine.run()
    assert engine.events_fired == ops
    return time.perf_counter() - start


def schedule_cancel(ops: int) -> float:
    """Schedule, cancel 9 of every 10, run: lazy deletion + compaction."""
    engine = Engine()

    def noop():
        pass

    start = time.perf_counter()
    for i in range(ops):
        item = engine.schedule(1000.0 + i, noop)
        if i % 10:
            item.cancel()
    engine.run()
    assert engine.events_fired == (ops + 9) // 10
    return time.perf_counter() - start


def process_switch(ops: int) -> float:
    """10 SimProcesses looping on Sleep: generator resume per op."""
    engine = Engine()

    def body(count):
        for __ in range(count):
            yield Sleep(1.0)

    procs = [SimProcess(engine, body(ops // 10), f"p{i}").start()
             for i in range(10)]
    return _timed_run(engine, procs)


# -- kernel -------------------------------------------------------------
def compute_slice(ops: int) -> float:
    """8 KernelProcesses x Compute(10) on a 4-core Scheduler."""
    engine = Engine()
    scheduler = Scheduler(engine, n_cores=4)

    def body(count):
        for __ in range(count):
            yield Compute(10.0, "burst")

    procs = [scheduler.spawn(body(ops // 8), f"k{i}").start()
             for i in range(8)]
    return _timed_run(engine, procs)


def ipc_roundtrip(ops: int) -> float:
    """IpcChannel ping-pong between two processes; op = one round trip."""
    engine = Engine()
    chan = IpcChannel(engine, capacity=4)

    def ping():
        for __ in range(ops):
            yield from chan.a.send(IpcMessage("ping"))
            yield from chan.a.recv()

    def pong():
        for __ in range(ops):
            yield from chan.b.recv()
            yield from chan.b.send(IpcMessage("pong"))

    procs = [SimProcess(engine, ping(), "ping").start(),
             SimProcess(engine, pong(), "pong").start()]
    return _timed_run(engine, procs)


# -- sip ----------------------------------------------------------------
def parse(ops: int) -> float:
    text = _invite_text()
    start = time.perf_counter()
    for __ in range(ops):
        parse_message(text)
    return time.perf_counter() - start


def parse_access(ops: int) -> float:
    """Parse and read what the proxy reads, so laziness cannot hide cost."""
    text = _invite_text()
    start = time.perf_counter()
    for __ in range(ops):
        message = parse_message(text)
        message.top_via, message.cseq, message.call_id
        message.transaction_key()
    return time.perf_counter() - start


def render(ops: int) -> float:
    message = parse_message(_invite_text())
    start = time.perf_counter()
    for __ in range(ops):
        message.render()
    return time.perf_counter() - start


def framer_feed(ops: int) -> float:
    """StreamFramer.feed in MSS-sized chunks; op = one framed message."""
    stream = _invite_text() * ops
    chunks = [stream[i:i + MSS] for i in range(0, len(stream), MSS)]
    framer = StreamFramer()
    framed = 0
    start = time.perf_counter()
    for chunk in chunks:
        framed += len(framer.feed(chunk))
    elapsed = time.perf_counter() - start
    assert framed == ops
    return elapsed


# -- net ----------------------------------------------------------------
def udp_deliver(ops: int) -> float:
    """UDP request/reply ping-pong across the fabric; op = one datagram."""
    engine = Engine()
    client, server = _lan(engine)
    client_sock = UdpEndpoint(client, 40000)
    server_sock = UdpEndpoint(server, 5060)
    text = _invite_text()

    def caller():
        for __ in range(ops // 2):
            client_sock.sendto(text, "server", 5060)
            yield from client_sock.recvfrom()

    def echo():
        for __ in range(ops // 2):
            dgram = yield from server_sock.recvfrom()
            server_sock.sendto(dgram.payload, *dgram.source)

    procs = [client.spawn_light(caller(), "caller").start(),
             server.spawn_light(echo(), "echo").start()]
    return _timed_run(engine, procs)


def tcp_transfer(ops: int) -> float:
    """One established connection streaming messages under flow control;
    op = one message sent, segmented, buffered and read."""
    engine = Engine()
    client, server = _lan(engine)
    listener = TcpListener(server, 5060)
    text = _invite_text()
    total = len(text) * ops

    def sender():
        conn = yield from tcp_connect(client, "server", 5060)
        for __ in range(ops):
            yield from conn.send(text)

    def receiver():
        conn = yield from listener.accept()
        got = 0
        while got < total:
            got += len((yield from conn.recv()))

    procs = [client.spawn_light(sender(), "tx").start(),
             server.spawn_light(receiver(), "rx").start()]
    return _timed_run(engine, procs)


def tcp_connect_close(ops: int) -> float:
    """connect + accept + close on both sides; op = one connection.

    TIME_WAIT is shortened so the client's ephemeral ports recycle
    within the run instead of exhausting.
    """
    engine = Engine()
    client, server = _lan(engine, time_wait_us=1000.0)
    listener = TcpListener(server, 5060)

    def dialer():
        for __ in range(ops):
            conn = yield from tcp_connect(client, "server", 5060)
            conn.close()
            while (yield from conn.recv()):
                pass

    def acceptor():
        for __ in range(ops):
            conn = yield from listener.accept()
            while (yield from conn.recv()):
                pass
            conn.close()

    procs = [client.spawn_light(dialer(), "dial").start(),
             server.spawn_light(acceptor(), "accept").start()]
    return _timed_run(engine, procs)


# -- proxy --------------------------------------------------------------
def core_relay(ops: int) -> float:
    """INVITE in, forwarded INVITE out, 200 in, 200 out through
    ``ProxyCore.process`` on a 1-core scheduler; op = one such pair
    (the callee's 200 is built inside the loop from the forwarded text).
    """
    engine = Engine()
    costs = CostModel()
    core = ProxyCore(engine, ProxyConfig(transport="udp", workers=1),
                     costs, LocationService(), TransactionTable(costs),
                     TimerList(costs), ProxyStats(), via_host="server")
    alice = _builder("alice", "client1", 20000, 1)
    bob = _builder("bob", "client2", 40000, 2)
    invites = [alice.invite("bob").render() for __ in range(ops)]
    relayed = []

    def worker():
        yield from core.process(bob.register().render(), ("client2", 40000))
        for text in invites:
            actions = yield from core.process(text, ("client1", 20000))
            forwarded = parse_message(actions[-1].text)
            ok = bob.response_for(forwarded, 200, to_tag="bt").render()
            relayed.extend((yield from core.process(ok, ("client2", 40000))))

    proc = Scheduler(engine, n_cores=1).spawn(worker(), "worker").start()
    elapsed = _timed_run(engine, [proc])
    assert len(relayed) == ops and core.stats.invite_completed == ops
    return elapsed


# -- obs ----------------------------------------------------------------
def hist_add(ops: int) -> float:
    hist = StreamingHistogram()
    values = [100.0 + (i * 7919) % 50_000 for i in range(1000)]
    start = time.perf_counter()
    for i in range(ops):
        hist.add(values[i % 1000])
    return time.perf_counter() - start


#: metric -> (function, operations per timing)
BENCHMARKS = {
    "sim.schedule_fire_ns": (schedule_fire, 100_000),
    "sim.schedule_cancel_ns": (schedule_cancel, 100_000),
    "sim.process_switch_ns": (process_switch, 50_000),
    "kernel.compute_slice_ns": (compute_slice, 20_000),
    "kernel.ipc_roundtrip_ns": (ipc_roundtrip, 10_000),
    "sip.parse_ns": (parse, 10_000),
    "sip.parse_access_ns": (parse_access, 5_000),
    "sip.render_ns": (render, 50_000),
    "sip.framer_feed_ns": (framer_feed, 20_000),
    "net.udp_deliver_ns": (udp_deliver, 20_000),
    "net.tcp_transfer_ns": (tcp_transfer, 10_000),
    "net.tcp_connect_close_ns": (tcp_connect_close, 5_000),
    "proxy.core_relay_ns": (core_relay, 1_000),
    "obs.hist_add_ns": (hist_add, 200_000),
}


def run_all(smoke: bool = False) -> dict:
    results = {}
    for metric, (fn, ops) in BENCHMARKS.items():
        if smoke:
            ops = max(ops // 50, 20)
        best = min(fn(ops) for __ in range(TIMINGS))
        results[metric] = best / ops * 1e9
    return results


if __name__ == "__main__":
    print(json.dumps(run_all(smoke="--smoke" in sys.argv[1:])))
