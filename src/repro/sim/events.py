"""Synchronization objects for simulated processes.

Two flavours:

- :class:`Event` — one-shot: fires once with a value; late waiters resume
  immediately with that value.
- :class:`Signal` — multi-shot: each :meth:`Signal.fire` wakes the waiters
  registered at that moment and is then forgotten.
"""

from typing import Any, Callable, Sequence, Tuple


class Event:
    """A one-shot event carrying a value.

    Processes wait on it via ``yield Wait(event)``; arbitrary callbacks can
    subscribe with :meth:`subscribe`.
    """

    __slots__ = ("engine", "name", "fired", "value", "_callbacks")

    def __init__(self, engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        #: a list from the first subscribe on; a shared () until then
        self._callbacks: Sequence[Callable[[Any], None]] = ()

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires (or now if it has)."""
        if self.fired:
            self.engine.schedule(0.0, callback, self.value)
        elif self._callbacks:
            self._callbacks.append(callback)
        else:
            self._callbacks = [callback]

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking all subscribers.  Firing twice is an error."""
        if self.fired:
            raise RuntimeError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            self.engine.schedule(0.0, callback, value)


class Signal:
    """A repeatable wake-up source.

    Each call to :meth:`fire` wakes exactly the callbacks registered at the
    time of the call; registrations are not persistent.
    """

    __slots__ = ("engine", "name", "_callbacks", "_listeners")

    def __init__(self, engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        #: a list from the first subscribe on; a shared () until then
        self._callbacks: Sequence[Callable[[Any], None]] = ()
        #: persistent listeners, called synchronously on every fire (used
        #: by pollers so they need not re-subscribe per wait round); a
        #: tuple that listen/unlisten replace, so fire needs no copy
        self._listeners: Tuple[Callable[[Any], None], ...] = ()

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        if self._callbacks:
            self._callbacks.append(callback)
        else:
            self._callbacks = [callback]

    def listen(self, callback: Callable[[Any], None]) -> None:
        """Persistently observe every fire (not cleared by firing)."""
        self._listeners += (callback,)

    def unlisten(self, callback: Callable[[Any], None]) -> None:
        listeners = self._listeners
        if callback in listeners:
            i = listeners.index(callback)
            self._listeners = listeners[:i] + listeners[i + 1:]

    def fire(self, value: Any = None) -> None:
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            self.engine.schedule(0.0, callback, value)
        for listener in self._listeners:
            listener(value)

    def fire_one(self) -> None:
        """Wake only the longest-waiting subscriber, if any."""
        if self._callbacks:
            self.engine.schedule(0.0, self._callbacks.pop(0), None)
