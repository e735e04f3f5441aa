"""SIP protocol stack (RFC 3261-lite).

Real textual SIP messages flow through the simulation: phones build them,
transports carry their bytes, and the proxy parses, routes and forwards
them.  Only the *time cost* of this work comes from the calibrated cost
model; the work itself is functional.

- :mod:`~repro.sip.message` / :mod:`~repro.sip.parser` — message model,
  parser, serializer, and TCP stream framing on ``Content-Length``.
- :mod:`~repro.sip.uri` / :mod:`~repro.sip.headers` — ``sip:`` URIs and
  structured Via / CSeq / address headers.
- :mod:`~repro.sip.builder` — request/response construction helpers.
- :mod:`~repro.sip.transaction` — the benchmark phones' RFC 3261
  transactions: UAC for every request, UAS for INVITE only, all timers
  derived from one T1.
- :mod:`~repro.sip.location` — registrar bindings and the location service.
- :mod:`~repro.sip.dialogs` — per-call dialog state helpers.
"""

from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.parser import SipParseError, StreamFramer, parse_message
from repro.sip.uri import SipUri
from repro.sip.headers import Address, CSeq, Via
from repro.sip.builder import MessageBuilder
from repro.sip.location import Binding, LocationService
from repro.sip.transaction import ClientTransaction, ServerTransaction
from repro.sip.dialogs import Dialog

__all__ = [
    "SipMessage",
    "SipRequest",
    "SipResponse",
    "SipParseError",
    "StreamFramer",
    "parse_message",
    "SipUri",
    "Address",
    "CSeq",
    "Via",
    "MessageBuilder",
    "Binding",
    "LocationService",
    "ClientTransaction",
    "ServerTransaction",
    "Dialog",
]
