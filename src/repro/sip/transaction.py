"""UAC/UAS transaction state machines with RFC 3261 timers.

The benchmark phones use these to behave like real SIP endpoints: over
UDP they retransmit requests (timer A/E, exponential backoff from T1) and
final responses (timer G) and give up after 64×T1 (timers B/F/H); over
reliable transports the retransmission timers stay quiet, exactly as the
RFC prescribes.

The *proxy* keeps its transaction state in
:mod:`repro.proxy.txn_table` instead — its retransmissions must run inside
a scheduled timer process and charge simulated CPU.
"""

import enum
from typing import Callable, Optional

from repro.kernel.timerwheel import Timer
from repro.sip.message import SipRequest, SipResponse


class TransactionTimers:
    """RFC 3261 timer values in microseconds."""

    def __init__(self, t1_us: float = 500_000.0, t2_us: float = 4_000_000.0,
                 t4_us: float = 5_000_000.0) -> None:
        self.t1 = t1_us
        self.t2 = t2_us
        self.t4 = t4_us

    @property
    def timeout(self) -> float:
        """Timer B/F/H: transaction gives up after 64×T1."""
        return 64.0 * self.t1


class TxnState(enum.Enum):
    CALLING = "calling"          # request sent, nothing back
    PROCEEDING = "proceeding"    # provisional received/sent
    COMPLETED = "completed"      # final response seen/sent
    TERMINATED = "terminated"


class ClientTransaction:
    """UAC transaction: send a request, absorb the response pattern.

    ``send_fn(text)`` must be non-blocking (datagram send or buffered
    stream write).  Callbacks:

    - ``on_response(response)`` for every matching response;
    - ``on_timeout()`` if no final response within 64×T1.
    """

    __slots__ = ("engine", "request", "send_fn", "reliable", "timers",
                 "on_response", "on_timeout", "state", "branch",
                 "retransmissions", "_interval", "_retransmit_timer",
                 "_timeout_timer", "final_response", "_text", "__weakref__")

    def __init__(self, engine, request: SipRequest,
                 send_fn: Callable[[str], None], reliable: bool,
                 timers: Optional[TransactionTimers] = None,
                 on_response: Optional[Callable] = None,
                 on_timeout: Optional[Callable] = None) -> None:
        self.engine = engine
        self.request = request
        self.send_fn = send_fn
        self.reliable = reliable
        self.timers = timers or TransactionTimers()
        self.on_response = on_response
        self.on_timeout = on_timeout
        self.state = TxnState.CALLING
        via = request.top_via
        self.branch = via.branch if via else None
        self.retransmissions = 0
        self._interval = self.timers.t1
        self._retransmit_timer = Timer(engine, self._retransmit)
        self._timeout_timer = Timer(engine, self._timed_out)
        self.final_response: Optional[SipResponse] = None
        #: the request as first sent; retransmissions repeat it verbatim
        self._text: Optional[str] = None

    def start(self) -> None:
        self._text = self.request.render()
        self.send_fn(self._text)
        if not self.reliable:
            self._retransmit_timer.start(self._interval)
        self._timeout_timer.start(self.timers.timeout)

    def matches(self, response: SipResponse) -> bool:
        via = response.top_via
        if via is None or via.branch != self.branch:
            return False
        cseq = response.cseq
        return cseq is not None and cseq.method == self.request.method

    def handle_response(self, response: SipResponse) -> None:
        if self.state is TxnState.TERMINATED:
            return
        on_response = self.on_response
        if response.is_provisional:
            self.state = TxnState.PROCEEDING
            if self.request.method == "INVITE":
                # Timer A stops on a 1xx (RFC 3261 §17.1.1.2): the server
                # transaction now owns reliability.
                self._retransmit_timer.cancel()
            else:
                # Timer E keeps firing in Proceeding for non-INVITE, at
                # the T2 ceiling (§17.1.2.2) — over UDP an overloaded
                # server keeps seeing duplicates until it answers.
                self._interval = self.timers.t2
        else:
            self.final_response = response
            self.cancel()
        if on_response is not None:
            on_response(response)

    def cancel(self) -> None:
        """Terminate now and release the timers and callbacks, which hold the
        only references from this transaction back to itself and its user."""
        self.state = TxnState.TERMINATED
        self._retransmit_timer.close()
        self._timeout_timer.close()
        self.on_response = self.on_timeout = None

    def abort(self) -> None:
        """Fail the transaction immediately (transport error, RFC 3261
        §8.1.3.1: treat as a 503/timeout)."""
        self._timed_out()

    def _retransmit(self) -> None:
        if self.state is not TxnState.CALLING and not (
                self.state is TxnState.PROCEEDING
                and self.request.method != "INVITE"):
            return
        self.retransmissions += 1
        self.send_fn(self._text)
        self._interval = min(self._interval * 2.0, self.timers.t2)
        self._retransmit_timer.start(self._interval)

    def _timed_out(self) -> None:
        if self.state in (TxnState.COMPLETED, TxnState.TERMINATED):
            return
        on_timeout = self.on_timeout
        self.cancel()
        if on_timeout is not None:
            on_timeout()

    def __repr__(self) -> str:
        return (f"<ClientTransaction {self.request.method} "
                f"{self.state.value} rtx={self.retransmissions}>")


class ServerTransaction:
    """UAS transaction: absorb request retransmissions, repeat the final
    response until acknowledged (INVITE) or until timer J/H expires.

    It keeps the request's method and key and the last response's wire
    text, never the messages: a finished INVITE transaction lingers for
    64×T1 to absorb retransmissions, and that replay is all it can still
    do (DESIGN.md §3c)."""

    __slots__ = ("engine", "method", "send_fn", "reliable", "timers", "key",
                 "state", "last_text", "retransmissions",
                 "request_retransmissions_absorbed", "_interval",
                 "_retransmit_timer", "_give_up_timer", "__weakref__")

    def __init__(self, engine, request: SipRequest,
                 send_fn: Callable[[str], None], reliable: bool,
                 timers: Optional[TransactionTimers] = None) -> None:
        self.engine = engine
        self.method = request.method
        self.send_fn = send_fn
        self.reliable = reliable
        self.timers = timers or TransactionTimers()
        self.key = request.transaction_key()
        self.state = TxnState.PROCEEDING
        #: the last response as sent; replays repeat it verbatim
        self.last_text: Optional[str] = None
        self.retransmissions = 0
        self.request_retransmissions_absorbed = 0
        self._interval = self.timers.t1
        self._retransmit_timer = Timer(engine, self._retransmit)
        self._give_up_timer = Timer(engine, self._give_up)

    def respond(self, response: SipResponse) -> None:
        """Send a response; final responses arm the retransmit machinery."""
        self.last_text = response.render()
        self.send_fn(self.last_text)
        if response.is_final:
            self.state = TxnState.COMPLETED
            if self.method == "INVITE":
                if not self.reliable:
                    self._retransmit_timer.start(self._interval)
                self._give_up_timer.start(self.timers.timeout)
            else:
                # Non-INVITE: linger briefly to absorb retransmissions.
                self._give_up_timer.start(
                    self.timers.t4 if not self.reliable else 0.0)

    def handle_request_retransmission(self) -> None:
        """The same request arrived again: replay our last response."""
        self.request_retransmissions_absorbed += 1
        if self.last_text is not None:
            self.send_fn(self.last_text)

    def handle_ack(self) -> None:
        """ACK confirms our 2xx: stop retransmitting."""
        self._give_up()

    @property
    def terminated(self) -> bool:
        return self.state is TxnState.TERMINATED

    def _retransmit(self) -> None:
        if self.state is not TxnState.COMPLETED:
            return
        self.retransmissions += 1
        self.send_fn(self.last_text)
        self._interval = min(self._interval * 2.0, self.timers.t2)
        self._retransmit_timer.start(self._interval)

    def _give_up(self) -> None:
        self.state = TxnState.TERMINATED
        self._retransmit_timer.close()
        self._give_up_timer.close()

    def __repr__(self) -> str:
        return (f"<ServerTransaction {self.method} "
                f"{self.state.value}>")
