"""The calibrated cost model.

Every operation the proxy performs on the server's CPUs has a cost here,
in microseconds of simulated CPU time.  The absolute values were
calibrated once (see ``benchmarks/calibration`` and EXPERIMENTS.md) so
that UDP at 100 clients lands near the paper's 33,695 ops/s on the
modeled 4-core Opteron; every other cell in every figure is *emergent*
from the architecture models, not fitted.

Relative magnitudes encode the paper's measured findings:

- TCP's kernel send/receive path is moderately longer than UDP's (after
  the fd cache removed the IPC, "TCP-related functions" replaced IPC
  functions in the profile top-15 — §5.2), but this difference alone is
  nowhere near the baseline gap;
- each fd request costs both the worker and the supervisor IPC work
  (~12% of CPU time in the baseline profile);
- the baseline idle sweep touches *every* connection object under the
  hash-table lock (§5.2), while the priority queue touches only expired
  ones (§5.3).
"""

from dataclasses import dataclass


@dataclass
class CostModel:
    """Per-operation CPU costs (µs) on the server."""

    # -- SIP processing (shared by every architecture) ---------------------
    parse_msg_us: float = 9.0          #: parse one SIP message
    parse_per_100b_us: float = 0.6      #: size-dependent parse component
    route_lookup_us: float = 7.0        #: location-service lookup (cached DB row)
    build_forward_us: float = 4.0       #: Via push/pop, Max-Forwards, serialize
    txn_lookup_us: float = 2.5          #: transaction-table probe (empty table)
    txn_insert_us: float = 3.5
    txn_update_us: float = 1.5
    txn_load_factor_us: float = 1.0     #: extra probe cost at load factor 1.0

    # -- UDP path -----------------------------------------------------------
    udp_recv_us: float = 5.0            #: recvfrom syscall + copy
    udp_send_us: float = 5.0            #: sendto syscall + copy

    # -- TCP path -----------------------------------------------------------
    tcp_recv_us: float = 9.0            #: read syscall + TCP rx processing
    tcp_send_us: float = 9.0            #: write syscall + TCP tx processing
    tcp_frame_us: float = 2.0           #: app-level stream framing per message
    accept_us: float = 20.0             #: accept + server-side handshake work
    connect_us: float = 25.0            #: outbound connect (proxy->phone)
    conn_create_us: float = 6.0         #: TCP connection object + hash insert
    conn_destroy_us: float = 4.0
    conn_hash_lookup_us: float = 1.5    #: find connection record (under lock)
    fd_install_us: float = 1.2          #: install a received descriptor
    fd_close_us: float = 0.8
    fd_dup_us: float = 1.0              #: supervisor duplicating for transfer

    # -- IPC between workers and the supervisor ------------------------------
    ipc_send_us: float = 6.0            #: one blocking send on a unix socket
    ipc_recv_us: float = 6.0
    fd_request_handle_us: float = 4.0   #: supervisor-side bookkeeping per request
    #: extra supervisor bookkeeping per request per 1000 table entries
    #: (hash maintenance and timestamp updates walk more state as the
    #: connection table grows — the TCP-specific §5.1 scalability drag)
    fd_request_per_kconn_us: float = 1.0

    # -- event waiting --------------------------------------------------------
    poll_syscall_us: float = 2.0        #: entering select/poll
    poll_per_fd_us: float = 0.02        #: re-arming one watched descriptor

    # -- idle-connection management -------------------------------------------
    idle_scan_entry_us: float = 0.35    #: examine one conn object (lock held)
    idle_pq_op_us: float = 1.0          #: one priority-queue push/pop
    fd_cache_probe_us: float = 0.3      #: per-worker cache hit path

    # -- timers / retransmission ------------------------------------------------
    timer_insert_us: float = 0.8
    timer_scan_entry_us: float = 0.2
    retransmit_us: float = 3.0          #: rebuild + resend bookkeeping

    # -- SCTP path ---------------------------------------------------------------
    sctp_recv_us: float = 7.0           #: recvmsg syscall (message-based)
    sctp_send_us: float = 7.0

    # -- registration ---------------------------------------------------------
    registrar_update_us: float = 12.0   #: usrloc write (DB-backed)

    # -- overload control -------------------------------------------------
    #: 503-shed an INVITE without admitting it: method sniff, shallow
    #: header scan, build the stock response.  Deliberately a small
    #: fraction of the full parse+route+forward pipeline — if rejection
    #: cost full price, shedding could not defend capacity (the
    #: rejection-cost premise of SIP overload control).
    reject_503_us: float = 4.0

    # -- working-set pressure -----------------------------------------------
    #: extra per-message cost per 1000 registered phones.  On real hardware
    #: a larger usrloc/transaction working set means more cache misses per
    #: message; this term reproduces the gentle throughput decline every
    #: transport shows as the client population grows (Fig. 3's UDP curve
    #: calibrates it).
    working_set_us_per_kphone: float = 1.3

    def parse_cost(self, wire_bytes: int, registered_phones: int = 0) -> float:
        """Parsing scales mildly with message size; the working-set term
        (cache pressure from the phone population) is charged here because
        parsing touches the most memory."""
        return (self.parse_msg_us
                + self.parse_per_100b_us * wire_bytes / 100.0
                + self.working_set_us_per_kphone * registered_phones / 1000.0)

    def txn_probe_cost(self, entries: int, buckets: int) -> float:
        """Hash-probe cost grows with the table's load factor."""
        return self.txn_lookup_us + self.txn_load_factor_us * entries / buckets

    def fd_request_cost(self, table_entries: int) -> float:
        """Supervisor-side cost of honouring one descriptor request."""
        return (self.fd_request_handle_us
                + self.fd_request_per_kconn_us * table_entries / 1000.0)
