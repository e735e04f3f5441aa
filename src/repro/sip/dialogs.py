"""Dialog state: what a phone remembers about an established call."""

from typing import Optional

from repro.sip.message import SipRequest, SipResponse
from repro.sip.uri import SipUri


class Dialog:
    """A confirmed dialog (RFC 3261 §12), as seen from one side."""

    __slots__ = ("call_id", "local_user", "remote_user", "local_tag",
                 "remote_tag", "remote_target", "_cseq")

    def __init__(self, call_id: str, local_user: str, remote_user: str,
                 local_tag: str, remote_tag: str, remote_target: SipUri,
                 cseq: int = 1) -> None:
        self.call_id = call_id
        self.local_user = local_user
        self.remote_user = remote_user
        self.local_tag = local_tag
        self.remote_tag = remote_tag
        self.remote_target = remote_target
        self._cseq = cseq

    @classmethod
    def from_invite_success(cls, invite: SipRequest,
                            response: SipResponse) -> "Dialog":
        """Caller-side dialog from our INVITE and its 2xx response."""
        from_addr = invite.from_addr
        to_addr = response.to_addr
        contact = response.contact
        target = contact.uri if contact else invite.uri
        return cls(
            call_id=invite.call_id,
            local_user=from_addr.uri.user,
            remote_user=to_addr.uri.user,
            local_tag=from_addr.tag or "",
            remote_tag=to_addr.tag or "",
            remote_target=target,
            cseq=invite.cseq.number,
        )

    def next_cseq(self) -> int:
        self._cseq += 1
        return self._cseq

    def __repr__(self) -> str:
        return (f"<Dialog {self.local_user}<->{self.remote_user} "
                f"call={self.call_id[:10]}...>")
