"""Registrar bindings and the location service.

The proxy routes requests by looking up the callee's address-of-record
here (§2).  For TCP, a binding also remembers the *connection* the phone
registered over, because the proxy must deliver requests to the phone on
an existing connection rather than dialing out.
"""

from typing import Dict, Optional

#: how long a registration stays bound: the usual REGISTER Expires, 3600 s
BINDING_LIFETIME_US = 3_600_000_000.0


class Binding:
    """One registered contact for an address-of-record."""

    __slots__ = ("aor", "addr", "port", "transport", "conn", "assoc",
                 "registered_at")

    def __init__(self, aor: str, addr: str, port: int, transport: str,
                 conn=None, assoc=None, registered_at: float = 0.0) -> None:
        self.aor = aor
        self.addr = addr
        self.port = port
        self.transport = transport.upper()
        #: TCP connection the phone registered over (server-side object)
        self.conn = conn
        #: SCTP association, for the §6 architecture
        self.assoc = assoc
        self.registered_at = registered_at

    def expired(self, now: float) -> bool:
        return now > self.registered_at + BINDING_LIFETIME_US


class LocationService:
    """The usrloc table: AOR → binding.

    OpenSER backs this with MySQL; the (calibrated) lookup cost is charged
    by the proxy's cost model, not here.
    """

    def __init__(self) -> None:
        self._bindings: Dict[str, Binding] = {}
        self.lookups = 0
        self.misses = 0

    def register(self, binding: Binding) -> None:
        """Install or refresh a binding (latest registration wins)."""
        self._bindings[binding.aor] = binding

    def lookup(self, aor: str, now: Optional[float] = None) -> Optional[Binding]:
        self.lookups += 1
        binding = self._bindings.get(aor)
        if binding is None:
            self.misses += 1
            return None
        if now is not None and binding.expired(now):
            self.misses += 1
            return None
        return binding

    def __len__(self) -> int:
        return len(self._bindings)
