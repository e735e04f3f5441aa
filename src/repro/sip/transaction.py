"""UAC/UAS transaction state machines with RFC 3261 timers.

The benchmark phones use these to behave like real SIP endpoints: over
UDP they retransmit requests (timer A/E, exponential backoff from T1 up
to T2 = 8×T1) and the INVITE's final response (timer G), and give up
after 64×T1 (timers B/F/H); over reliable transports the retransmission
timers stay quiet, exactly as the RFC prescribes.

Each timer is the engine's own :class:`~repro.sim.engine.Scheduled`
handle, which drops its callback on cancel or fire; a transaction ends by
cancelling both (DESIGN.md §3c).  A handle is cleared to ``None`` when it
is cancelled or fires, so no handle is cancelled twice.

A transaction holds what it sends as wire text and reads responses as
:class:`~repro.sip.reader.PhoneMessage` fields, never as parsed messages.

The *proxy* keeps its transaction state in
:mod:`repro.proxy.txn_table` instead — its retransmissions must run inside
a scheduled timer process and charge simulated CPU.
"""

import enum
from typing import Callable, Optional

from repro.sip.reader import PhoneMessage

#: RFC 3261 T1 (µs); T2 is 8×T1 and timers B/F/H are 64×T1
T1_US = 500_000.0


class TxnState(enum.Enum):
    CALLING = "calling"          # request sent, nothing back
    PROCEEDING = "proceeding"    # provisional received/sent
    COMPLETED = "completed"      # final response seen/sent
    TERMINATED = "terminated"


class ClientTransaction:
    """UAC transaction: send a request, absorb the response pattern.

    ``text`` is the request's wire text, ``method`` and ``branch`` its
    method and top-Via branch; every retransmission repeats the text
    verbatim.  ``send_fn(text)`` must be non-blocking (datagram send or
    buffered stream write).  ``on_final`` runs once: with the final
    response, or with ``None`` if none arrives within 64×T1 or on
    :meth:`abort`.
    """

    __slots__ = ("engine", "method", "branch", "text", "send_fn",
                 "reliable", "t1_us", "on_final", "state",
                 "retransmissions", "_interval", "_retransmit_handle",
                 "_timeout_handle", "__weakref__")

    def __init__(self, engine, method: str, branch: str, text: str,
                 send_fn: Callable[[str], None], reliable: bool,
                 t1_us: float = T1_US,
                 on_final: Optional[Callable] = None) -> None:
        self.engine = engine
        self.method = method
        self.branch = branch
        self.text = text
        self.send_fn = send_fn
        self.reliable = reliable
        self.t1_us = t1_us
        self.on_final = on_final
        self.state = TxnState.CALLING
        self.retransmissions = 0
        self._interval = t1_us
        self._retransmit_handle = self._timeout_handle = None

    def start(self) -> None:
        self.send_fn(self.text)
        schedule = self.engine.schedule
        if not self.reliable:
            self._retransmit_handle = schedule(self._interval,
                                               self._retransmit)
        self._timeout_handle = schedule(64.0 * self.t1_us, self._timed_out)

    def matches(self, response: PhoneMessage) -> bool:
        """Whether ``response`` is ours: same top-Via branch and CSeq
        method (RFC 3261 §17.1.3)."""
        return (response.branch == self.branch
                and response.cseq_method == self.method)

    def handle_response(self, response: PhoneMessage) -> None:
        if self.state is TxnState.TERMINATED:
            return
        if response.status < 200:
            self.state = TxnState.PROCEEDING
            if self.method == "INVITE":
                # Timer A stops on a 1xx (RFC 3261 §17.1.1.2): the server
                # transaction now owns reliability.
                if self._retransmit_handle is not None:
                    self._retransmit_handle.cancel()
                    self._retransmit_handle = None
            else:
                # Timer E keeps firing in Proceeding for non-INVITE, at
                # the T2 ceiling (§17.1.2.2) — over UDP an overloaded
                # server keeps seeing duplicates until it answers.
                self._interval = 8.0 * self.t1_us
            return
        on_final = self.on_final
        self.cancel()
        if on_final is not None:
            on_final(response)

    def cancel(self) -> None:
        """Terminate now and release the timers and the callback, which
        hold the only references from this transaction back to itself and
        its user."""
        self.state = TxnState.TERMINATED
        if self._retransmit_handle is not None:
            self._retransmit_handle.cancel()
            self._retransmit_handle = None
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None
        self.on_final = None

    def abort(self) -> None:
        """Fail the transaction immediately (transport error, RFC 3261
        §8.1.3.1: treat as a 503/timeout)."""
        if self.state is TxnState.TERMINATED:
            return
        on_final = self.on_final
        self.cancel()
        if on_final is not None:
            on_final(None)

    def _retransmit(self) -> None:
        self._retransmit_handle = None  # fired
        if self.state is not TxnState.CALLING and not (
                self.state is TxnState.PROCEEDING
                and self.method != "INVITE"):
            return
        self.retransmissions += 1
        self.send_fn(self.text)
        self._interval = min(self._interval * 2.0, 8.0 * self.t1_us)
        self._retransmit_handle = self.engine.schedule(self._interval,
                                                       self._retransmit)

    def _timed_out(self) -> None:
        """Timer B/F: no final response within 64×T1."""
        self._timeout_handle = None  # fired
        self.abort()


class ServerTransaction:
    """INVITE UAS transaction: absorb request retransmissions, repeat the
    final response until acknowledged or until timer H expires.

    It keeps the last response's wire text: replaying that text is all a
    finished transaction can still do (DESIGN.md §3c).  A phone answers a
    BYE without one."""

    __slots__ = ("engine", "send_fn", "reliable", "t1_us", "state",
                 "last_text", "_interval", "_retransmit_handle",
                 "_give_up_handle", "__weakref__")

    def __init__(self, engine, send_fn: Callable[[str], None],
                 reliable: bool, t1_us: float = T1_US) -> None:
        self.engine = engine
        self.send_fn = send_fn
        self.reliable = reliable
        self.t1_us = t1_us
        self.state = TxnState.PROCEEDING
        #: the last response as sent; replays repeat it verbatim
        self.last_text: Optional[str] = None
        self._interval = t1_us
        self._retransmit_handle = self._give_up_handle = None

    def respond(self, text: str, final: bool) -> None:
        """Send a response; the (one) final response arms timers G and H."""
        self.last_text = text
        self.send_fn(text)
        if final:
            self.state = TxnState.COMPLETED
            schedule = self.engine.schedule
            if not self.reliable:
                self._retransmit_handle = schedule(self._interval,
                                                   self._retransmit)
            self._give_up_handle = schedule(64.0 * self.t1_us, self._give_up)

    def handle_request_retransmission(self) -> None:
        """The same request arrived again: replay our last response."""
        if self.last_text is not None:
            self.send_fn(self.last_text)

    def handle_ack(self) -> None:
        """ACK confirms our 2xx: stop retransmitting."""
        self.state = TxnState.TERMINATED
        if self._retransmit_handle is not None:
            self._retransmit_handle.cancel()
            self._retransmit_handle = None
        if self._give_up_handle is not None:
            self._give_up_handle.cancel()
            self._give_up_handle = None

    @property
    def terminated(self) -> bool:
        return self.state is TxnState.TERMINATED

    def _retransmit(self) -> None:
        self._retransmit_handle = None  # fired
        if self.state is not TxnState.COMPLETED:
            return
        self.send_fn(self.last_text)
        self._interval = min(self._interval * 2.0, 8.0 * self.t1_us)
        self._retransmit_handle = self.engine.schedule(self._interval,
                                                       self._retransmit)

    def _give_up(self) -> None:
        """Timer H: no ACK within 64×T1; stop as if it had come."""
        self._give_up_handle = None  # fired
        self.handle_ack()
