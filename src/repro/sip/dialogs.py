"""Dialog state: what a caller remembers about its call."""

from repro.sip.reader import PhoneMessage


class Dialog:
    """A caller's dialog (RFC 3261 §12), kept as the wire text its ACK
    and BYE repeat: the INVITE's Call-ID, From value (with our tag) and
    CSeq number, the request-URI to send them to, and — once a 2xx
    confirms the call — that response's To value (with the callee's tag).
    """

    __slots__ = ("call_id", "local", "remote", "target", "cseq")

    def __init__(self, call_id: str, local: str, target: str,
                 cseq: int) -> None:
        self.call_id = call_id
        self.local = local
        self.remote = None
        self.target = target
        self.cseq = cseq

    def confirm(self, response: PhoneMessage) -> None:
        """Take the callee's side from the 2xx to our INVITE: its To, and
        its Contact as the target of what follows, when it has one."""
        self.remote = response.to
        contact = response.contact_uri()
        if contact is not None:
            self.target = contact
