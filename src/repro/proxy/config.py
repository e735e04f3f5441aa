"""Proxy configuration (the knobs §4.3 discusses, and the §5 fixes)."""

from dataclasses import dataclass

from repro.overload import VALID_CONTROLLERS

VALID_TRANSPORTS = ("udp", "tcp", "sctp", "tcp-threaded")
VALID_IDLE_STRATEGIES = ("scan", "pq")


@dataclass
class ProxyConfig:
    """Configuration of one proxy instance.

    Defaults mirror the paper's tuned setup (§4.3): supervisor at nice
    −20, idle timeout reduced from OpenSER's 120 s default to 10 s, and
    the worker counts the authors selected (24 for UDP, 32 for TCP) are
    chosen by the experiment driver.
    """

    transport: str = "udp"
    workers: int = 24
    port: int = 5060
    domain: str = "example.com"
    stateful: bool = True

    # -- the §5 fixes ---------------------------------------------------
    fd_cache: bool = False          #: Fig. 4: per-worker conn→fd cache
    idle_strategy: str = "scan"     #: Fig. 5: "scan" (baseline) or "pq"

    # -- §4.3 configuration issues ---------------------------------------
    supervisor_nice: int = -20
    idle_timeout_us: float = 10_000_000.0    #: 10 s (OpenSER default: 120 s)

    # -- plumbing sizes ----------------------------------------------------
    ipc_capacity: int = 256          #: supervisor<->worker channel, messages
    udp_rcvbuf_datagrams: int = 384

    # -- timer process -------------------------------------------------------
    sip_t1_us: float = 500_000.0             #: RFC 3261 T1

    # -- failure-mode switches (§6) -----------------------------------------
    #: blocking sends from the supervisor to workers: faithful to OpenSER
    #: and deadlock-prone when ipc_capacity is small
    supervisor_blocking_send: bool = True

    # -- overload control -----------------------------------------------------
    #: admission policy past saturation: "none" (collapse baseline),
    #: "local-occupancy" (occupancy-triggered 503 shedding) or "window"
    #: (per-upstream feedback window) — see :mod:`repro.overload`
    overload_controller: str = "none"

    def validate(self) -> None:
        if self.transport not in VALID_TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}; "
                             f"expected one of {VALID_TRANSPORTS}")
        if self.idle_strategy not in VALID_IDLE_STRATEGIES:
            raise ValueError(f"unknown idle strategy {self.idle_strategy!r}")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not -20 <= self.supervisor_nice <= 19:
            raise ValueError("supervisor_nice out of range")
        if self.idle_timeout_us <= 0:
            raise ValueError("idle_timeout_us must be positive")
        if self.sip_t1_us <= 0:
            raise ValueError("sip_t1_us must be positive (the timer "
                             "process ticks every T1/4)")
        if self.overload_controller not in VALID_CONTROLLERS:
            raise ValueError(
                f"unknown overload controller {self.overload_controller!r}; "
                f"expected one of {VALID_CONTROLLERS}")
        if self.overload_controller == "window" and not self.stateful:
            raise ValueError("the window controller tracks in-flight INVITE "
                             "transactions and needs a stateful proxy")

    @property
    def sip_t2_us(self) -> float:
        """RFC 3261 T2, at the RFC's 8×T1 ratio (4 s at the default T1)."""
        return 8.0 * self.sip_t1_us

    @property
    def timer_tick_us(self) -> float:
        """Retransmission-scan period: 100 ms, or T1/4 when T1 is
        compressed below 400 ms, so proxy retransmissions do not quantize
        to the tick."""
        return min(100_000.0, self.sip_t1_us / 4.0)

    @property
    def reliable_transport(self) -> bool:
        """Does the transport relieve SIP of retransmission duty?"""
        return self.transport in ("tcp", "tcp-threaded", "sctp")
