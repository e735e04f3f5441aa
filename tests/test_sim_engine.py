"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim.engine import Engine, SimulationError


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(30.0, order.append, "c")
    engine.schedule(10.0, order.append, "a")
    engine.schedule(20.0, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30.0


def test_same_time_events_fire_in_schedule_order(engine):
    order = []
    for tag in "abcde":
        engine.schedule(5.0, order.append, tag)
    engine.run()
    assert order == list("abcde")


def test_cancelled_events_do_not_fire(engine):
    fired = []
    handle = engine.schedule(10.0, fired.append, "x")
    engine.schedule(5.0, handle.cancel)
    engine.run()
    assert fired == []


def test_cancel_is_idempotent(engine):
    handle = engine.schedule(10.0, lambda: None)
    handle.cancel()
    handle.cancel()
    engine.run()


def test_run_until_advances_clock_even_without_events(engine):
    engine.schedule(10.0, lambda: None)
    end = engine.run(until=100.0)
    assert end == 100.0
    assert engine.now == 100.0


def test_run_until_leaves_future_events_pending(engine):
    fired = []
    engine.schedule(50.0, fired.append, "later")
    engine.run(until=20.0)
    assert fired == []
    assert engine.pending == 1
    engine.run()
    assert fired == ["later"]


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected(engine):
    engine.schedule(10.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_events_can_schedule_more_events(engine):
    order = []

    def first():
        order.append("first")
        engine.schedule(5.0, lambda: order.append("second"))

    engine.schedule(1.0, first)
    engine.run()
    assert order == ["first", "second"]
    assert engine.now == 6.0


def test_step_returns_false_when_empty(engine):
    assert engine.step() is False


def test_pending_counts_uncancelled(engine):
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    h1.cancel()
    assert engine.pending == 1


def test_cancel_after_fire_does_not_skew_pending(engine):
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    handle.cancel()  # already fired: must be a no-op
    assert engine.pending == 1
    engine.run()
    assert engine.pending == 0


def test_compaction_bounds_cancelled_heap_bloat(engine):
    """Restart-style cancel churn must not grow the heap without bound."""
    keep = engine.schedule(10_000.0, lambda: None)
    for __ in range(4 * Engine.COMPACT_MIN):
        engine.schedule(100.0, lambda: None).cancel()
    assert len(engine._heap) <= Engine.COMPACT_MIN
    assert engine.pending == 1
    assert not keep.cancelled
    engine.run()
    assert engine.now == 10_000.0


def test_compaction_preserves_event_order(engine):
    order = []
    handles = [engine.schedule(float(t), order.append, t)
               for t in range(1, 2 * Engine.COMPACT_MIN)]
    for handle in handles[1::2]:
        handle.cancel()
    engine.compact()
    engine.run()
    assert order == [t for t in range(1, 2 * Engine.COMPACT_MIN) if t % 2]


def test_small_mostly_cancelled_heap_is_compacted(engine):
    """A few live events under thousands of cancelled timers (a small
    cell's heap): compaction keeps the heap within twice the live entries
    or the floor, and the live events still fire in order."""
    order, live = [], []
    for t in range(2_000):
        handle = engine.schedule(float(t % 97), order.append, t)
        if t % 40:
            handle.cancel()
        else:
            live.append(t)
        assert len(engine._heap) <= max(2 * engine.pending,
                                        Engine.COMPACT_MIN)
    assert len(engine._heap) < 1_500  # compacted: 2 000 were scheduled
    engine.run()
    assert order == sorted(live, key=lambda t: (t % 97, t))


class _Owner:
    def callback(self, payload):
        pass


@pytest.mark.parametrize("how", ["cancelled", "consumed"])
def test_spent_event_releases_its_callback(engine, how):
    """A cancelled entry sits in the heap until popped or compacted (for a
    32 s SIP timer: the whole cell), and a holder may keep a consumed one;
    neither may pin the callback's ``__self__`` or its arguments."""
    owner, payload = _Owner(), _Owner()
    refs = [weakref.ref(owner), weakref.ref(payload)]
    handle = engine.schedule(5.0, owner.callback, payload)
    engine.schedule(9.0, lambda: None)  # keeps run() from draining the heap
    if how == "cancelled":
        handle.cancel()
        assert len(engine._heap) == 2  # lazily cancelled: still in the heap
    else:
        engine.run(until=6.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del owner, payload
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
    assert handle.fn is None and handle.args is None
    handle.cancel()  # still idempotent
    assert engine.pending == 1
