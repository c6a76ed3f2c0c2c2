"""Framed XML-RPC over TCP: the fabric's socket transport.

``core/rpc.py`` is the contract — requests and responses are marshalled
through the same :func:`repro.core.rpc.dump_request` /
:func:`repro.core.rpc.load_response` codec the in-simulation control
channel uses, server-side dispatch is a plain
:class:`repro.core.rpc.RpcServer` method table, deadlines are per-call,
and retries follow a seeded :class:`repro.core.rpc.RetryPolicy`.  What
this module adds is only the part the simulation kernel used to play:
moving the XML strings between real processes.

Framing is a 4-byte big-endian length prefix followed by the UTF-8 XML
payload; connections are persistent and serve any number of requests.

Every fabric method is idempotent by construction (registration and
lease grants are repeatable, acks deduplicate, renewals and reads are
safe), so the client retries *all* methods on transport errors — and a
coordinator restart shows up as a string of connection refusals that the
client rides out under its ``reconnect_budget`` instead of failing the
worker.  That budget is what lets a fleet survive coordinator failover
(DESIGN.md §15).
"""

from __future__ import annotations

import random as _random
import selectors
import socket
import socketserver
import struct
import threading
import time
import zlib
from typing import Any, Optional, Set, Tuple

from repro.core.errors import RpcError, RpcTimeout
from repro.core.rpc import RetryPolicy, RpcServer, dump_request, load_response

__all__ = [
    "FleetServer",
    "FleetChannel",
    "PartitionGate",
    "ReconnectBackoff",
    "clear_partition_gate",
    "install_partition_gate",
    "parse_address",
]

_HEADER = struct.Struct(">I")
#: Frames above this are rejected (a corrupt header must not OOM us).
MAX_FRAME = 1 << 30


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise RpcError(f"bad fabric address {address!r}; expected host:port")
    return host, int(port)


class ReconnectBackoff:
    """Decorrelated-jitter backoff for connection-level retries.

    After a coordinator failover every worker in the fleet notices the
    dead endpoint at the same instant; plain exponential backoff would
    have them all reconnect in synchronized waves and thundering-herd
    the new leader.  Decorrelated jitter (each delay drawn uniformly
    from ``[base, 3 * previous]``, capped) de-phases the fleet while
    keeping the schedule seeded and therefore reproducible.

    Invariants (unit-tested): every delay lies in ``[base, cap]``, and
    two instances with the same seed emit identical sequences.
    """

    def __init__(self, base: float = 0.05, cap: float = 2.0, seed: int = 0) -> None:
        if base <= 0 or cap < base:
            raise RpcError(
                f"backoff requires 0 < base <= cap, got base={base} cap={cap}",
            )
        self.base = float(base)
        self.cap = float(cap)
        self.rng = _random.Random(seed)
        self._prev = self.base

    def next(self) -> float:
        """The next delay in seconds (advances the jitter stream)."""
        self._prev = min(self.cap, self.rng.uniform(self.base, self._prev * 3.0))
        return self._prev

    def reset(self) -> None:
        """Back to the base delay (call after a successful reconnect)."""
        self._prev = self.base


class PartitionGate:
    """Asymmetric link-drop rules between labeled fabric endpoints.

    The fabric-level arm of the control-fault injector (DESIGN.md §16):
    where :mod:`repro.faults.control` partitions the *simulated* control
    plane, this gate partitions the *fabric* — between a leader and a
    subset of its workers, or between coordinator peers.  Rules are
    directional ``(src, dst)`` pairs matched against a channel's
    ``label`` (source) and its target address (destination); ``"*"``
    wildcards either side, so ``partition("*", leader_addr)`` isolates a
    leader from everyone while ``partition("w1", leader_addr)`` cuts one
    worker's uplink only (the asymmetric case: w1's calls are dropped,
    everyone else's flow).

    A blocked call surfaces to :class:`FleetChannel` exactly as a
    dropped packet would — a connection error that rides the reconnect
    budget — so partitioned peers exercise the same code path as real
    network failures.  Install process-wide with
    :func:`install_partition_gate` (tests, chaos drills).
    """

    def __init__(self) -> None:
        self._blocked: Set[Tuple[str, str]] = set()
        self._lock = threading.Lock()

    def partition(self, src: str, dst: str) -> None:
        with self._lock:
            self._blocked.add((src, dst))

    def heal(self, src: Optional[str] = None, dst: Optional[str] = None) -> None:
        """Lift rules matching *src*/*dst* (``None`` matches any)."""
        with self._lock:
            self._blocked = {
                (s, d)
                for (s, d) in self._blocked
                if (src is not None and s != src) or (dst is not None and d != dst)
            }

    def blocked(self, src: Optional[str], dst: str) -> bool:
        src = src or ""
        with self._lock:
            return any(
                (s in ("*", src)) and (d in ("*", dst)) for s, d in self._blocked
            )


#: Process-wide gate consulted by every :class:`FleetChannel` call.
_PARTITION_GATE: Optional[PartitionGate] = None


def install_partition_gate(gate: PartitionGate) -> PartitionGate:
    global _PARTITION_GATE
    _PARTITION_GATE = gate
    return gate


def clear_partition_gate() -> None:
    global _PARTITION_GATE
    _PARTITION_GATE = None


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds the 1 GiB cap")
    return _recv_exact(sock, length)


def write_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                request_xml = read_frame(self.request).decode("utf-8")
            except (ConnectionError, OSError):
                return
            response_xml = self.server.rpc_server.handle_request(request_xml)
            try:
                write_frame(self.request, response_xml.encode("utf-8"))
            except OSError:
                return


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class FleetServer:
    """Serves one :class:`RpcServer` method table over TCP frames.

    ``port=0`` binds an ephemeral port; the resolved address is available
    as :attr:`address` after construction.  One thread per connection —
    the fabric's method handlers serialize themselves under the
    coordinator's dispatch lock, so concurrency here is pure I/O overlap.
    """

    def __init__(self, host: str, port: int, rpc_server: RpcServer) -> None:
        self.rpc_server = rpc_server
        self._server = _ThreadingTCPServer((host, port), _FrameHandler)
        self._server.rpc_server = rpc_server
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "FleetServer":
        self._wake = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, name="fleet-server", daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        """``serve_forever`` without its poll: the loop sleeps until a
        connection arrives or :meth:`stop` writes to the wake socket."""
        server, wake = self._server, self._wake[0]
        with selectors.DefaultSelector() as selector:
            selector.register(server, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _events in selector.select()]
                if wake in ready:
                    return
                server._handle_request_noblock()

    def stop(self) -> None:
        # Wake the serving loop and wait for it to end; skip that if the
        # serving thread never started (e.g. a lost leadership claim
        # closing a bound-but-idle server).
        if self._thread is not None:
            self._wake[1].send(b"\0")
            self._thread.join(timeout=5.0)
            self._thread = None
            for end in self._wake:
                end.close()
        self._server.server_close()

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class FleetChannel:
    """Client side of the framed transport; NOT thread-safe.

    Each worker thread owns its own channel (the renewal thread and the
    lease loop never share a socket).

    Parameters
    ----------
    address:
        ``(host, port)`` tuple or ``"host:port"`` string.
    call_timeout:
        Default per-call deadline, seconds.
    reconnect_budget:
        Wall-clock seconds a *connection*-level failure (refused, reset —
        the coordinator-restart signature) may be retried for, regardless
        of the per-attempt budget.  Deadline misses stay bounded by the
        channel's retry policy (4 attempts, seeded backoff 0.1–2 s) like
        any other RPC.
    label:
        Source identity for :class:`PartitionGate` matching (typically
        the worker id); ``None`` opts out of partition rules with a
        ``"*"``-source match only.  It also seeds the delay schedule
        between connection-level retries: a :class:`ReconnectBackoff`
        seeded from a CRC-32 of the label (stable across processes,
        unlike ``hash``), so a reconnecting fleet de-phases
        deterministically instead of thundering-herding a freshly
        promoted leader.
    """

    def __init__(
        self,
        address,
        call_timeout: float = 10.0,
        reconnect_budget: float = 60.0,
        label: Optional[str] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.address = parse_address(address) if isinstance(address, str) else address
        self.call_timeout = float(call_timeout)
        self.retry = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=2.0)
        self.reconnect_budget = float(reconnect_budget)
        self.label = label
        self.backoff = ReconnectBackoff(
            seed=zlib.crc32(label.encode()) if label is not None else 0,
        )
        self.clock = clock
        self.sleep = sleep
        self._sock: Optional[socket.socket] = None
        self.completed_calls = 0
        self.retried_calls = 0

    # ------------------------------------------------------------------
    @property
    def address_str(self) -> str:
        return "%s:%d" % self.address

    def _connect(self, deadline: float) -> socket.socket:
        gate = _PARTITION_GATE
        if gate is not None and gate.blocked(self.label, self.address_str):
            raise ConnectionRefusedError(
                f"fabric partition: {self.label or '?'} -> {self.address_str}",
            )
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=deadline)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "FleetChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def call(self, method: str, *args: Any, timeout: Optional[float] = None) -> Any:
        """One synchronous RPC; retries transport failures, raises
        :class:`RpcFault` for remote exceptions, :class:`RpcTimeout` when
        every attempt missed its deadline, :class:`RpcError` when the
        peer stayed unreachable past the reconnect budget."""
        deadline = self.call_timeout if timeout is None else float(timeout)
        request = dump_request(method, args).encode("utf-8")
        started = self.clock()
        attempt = 0
        timeouts = 0
        while True:
            attempt += 1
            try:
                sock = self._connect(deadline)
                sock.settimeout(deadline if deadline > 0 else None)
                write_frame(sock, request)
                response = read_frame(sock).decode("utf-8")
            except socket.timeout:
                self.close()
                timeouts += 1
                if timeouts >= self.retry.max_attempts:
                    raise RpcTimeout(
                        f"fabric rpc {method} to {self.address} timed out after "
                        f"{deadline}s ({timeouts} attempt(s))",
                        method=method,
                    ) from None
            except OSError as exc:
                self.close()
                if self.clock() - started > self.reconnect_budget:
                    raise RpcError(
                        f"fabric rpc {method}: {self.address} unreachable for "
                        f"{self.reconnect_budget}s ({exc})",
                    ) from None
                self.retried_calls += 1
                # Connection-level failures are the whole-fleet-at-once
                # signature (coordinator death/failover): decorrelated
                # jitter de-phases the reconnect storm.
                self.sleep(self.backoff.next())
                continue
            else:
                self.completed_calls += 1
                self.backoff.reset()
                return load_response(response)
            self.retried_calls += 1
            # Attempt index capped so the exponential backoff saturates at
            # max_delay instead of overflowing during a long outage.
            self.sleep(self.retry.delay(min(attempt, 16)))
