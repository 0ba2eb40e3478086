"""Transport abstraction under the sweep fabric's worker/agent protocol.

One message vocabulary (``hello``/``start``/``heartbeat``/``done``/
``error``: dicts with a ``"type"`` key) runs worker-to-pool and
agent-to-driver; a transport is the swappable object that carries it:

* ``send(message)``     -- ship one message; raises :class:`TransportClosed`
  the moment the peer is unreachable (callers treat that as a dead peer,
  never an exception path);
* ``recv_all()``        -- drain every message currently available without
  blocking; raises :class:`TransportClosed` once the peer is gone *and* the
  buffer is empty, so no message is ever lost to a close;
* ``fileno()``          -- lets :func:`wait_readable` multiplex transports.

Two implementations:

* :class:`PipeTransport` wraps the ``multiprocessing`` duplex pipe a
  worker pool drives each spawned worker over;
* :class:`SocketTransport` frames messages as line-delimited JSON over a
  TCP socket -- driver to agent (:mod:`repro.sweep.remote`).
  Binary payloads travel base64-encoded with their SHA-256 alongside
  (:func:`pack_blob`/:func:`unpack_blob`), so the receiver verifies every
  byte it acts on; corruption reads as a failure to retry, never as data.

The JSON protocol carries pickled scenario specs (:func:`pack_pickle`),
so it must only ever span *trusted* machines -- loopback or a private
cluster -- exactly like the spawn-pipe protocol it generalizes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import selectors
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bumped whenever the wire protocol changes shape; mismatched peers are
#: rejected at ``hello`` time.
PROTOCOL_VERSION = 2

#: One framed line may not exceed this (a torn or hostile peer cannot make
#: the receiver buffer unboundedly).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Sends that cannot complete within this are treated as a lost peer (a
#: half-open connection whose receive window filled up).
SEND_TIMEOUT = 15.0


class TransportClosed(ConnectionError):
    """The peer is gone (EOF, reset, broken pipe, or send timeout)."""


class ProtocolError(ValueError):
    """The peer spoke, but not the protocol (bad JSON, bad hash, too big)."""


# -- payload helpers ---------------------------------------------------------


def pack_blob(data: bytes) -> Dict[str, str]:
    """Wrap raw bytes for the wire: base64 plus the SHA-256 to verify by."""
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "b64": base64.b64encode(data).decode("ascii"),
    }


def unpack_blob(obj: Any) -> bytes:
    """Decode a :func:`pack_blob` payload, verifying its content hash."""
    if not isinstance(obj, dict) or "sha256" not in obj or "b64" not in obj:
        raise ProtocolError(f"malformed blob: {type(obj).__name__}")
    try:
        data = base64.b64decode(obj["b64"], validate=True)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"blob is not valid base64: {exc}") from None
    digest = hashlib.sha256(data).hexdigest()
    if digest != obj["sha256"]:
        raise ProtocolError(
            f"blob hash mismatch: declared {obj['sha256'][:12]}..., got {digest[:12]}..."
        )
    return data


def pack_pickle(obj: Any) -> str:
    """Pickle an object (e.g. a frozen ScenarioSpec) for a JSON message."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def unpack_pickle(text: str) -> Any:
    try:
        return pickle.loads(base64.b64decode(text, validate=True))
    except Exception as exc:
        raise ProtocolError(f"undecodable pickled payload: {exc}") from None


def parse_host(value: Any) -> Tuple[str, int]:
    """Normalize ``"host:port"`` (or a 2-tuple) into ``(host, port)``."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return str(value[0]), int(value[1])
    text = str(value)
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected 'host:port', got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in {text!r}") from None
    return host, port


# -- transports --------------------------------------------------------------


class PipeTransport:
    """The ``multiprocessing`` duplex pipe, behind the transport interface.

    Framing and integrity come from the pipe itself.
    """

    def __init__(self, conn):
        self.conn = conn
        self._eof = False

    def send(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise TransportClosed(f"pipe closed: {exc}") from None

    def recv_all(self) -> List[Any]:
        messages: List[Any] = []
        while True:
            try:
                if not self.conn.poll():
                    break
                messages.append(self.conn.recv())
            except (EOFError, OSError):
                self._eof = True
                break
        if messages:
            return messages
        if self._eof:
            raise TransportClosed("pipe closed by peer")
        return []

    def fileno(self) -> int:
        return self.conn.fileno()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class SocketTransport:
    """Line-delimited JSON over a TCP socket.

    Every message is one JSON object terminated by ``\\n``; every message
    carries a ``"type"`` key.  Receiving is strictly non-blocking (drain
    what the kernel has); sending blocks up to :data:`SEND_TIMEOUT` and a
    timeout is treated as a lost peer -- the crash-only reading of a
    half-open connection.
    """

    def __init__(self, sock: socket.socket, max_line: int = MAX_LINE_BYTES):
        self.sock = sock
        self.max_line = max_line
        self._buffer = b""
        self._eof = False
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        except OSError:
            pass

    def send(self, message: Dict[str, Any]) -> None:
        if "type" not in message:
            raise ProtocolError(f"message without a type: {message!r}")
        line = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
        if len(line) > self.max_line:
            raise ProtocolError(f"message of {len(line)} bytes exceeds the {self.max_line} cap")
        try:
            self.sock.settimeout(SEND_TIMEOUT)
            self.sock.sendall(line)
        except (socket.timeout, BrokenPipeError, ConnectionError, OSError) as exc:
            self._eof = True
            raise TransportClosed(f"socket send failed: {exc}") from None

    def recv_all(self) -> List[Dict[str, Any]]:
        if not self._eof:
            try:
                self.sock.settimeout(0.0)
                while True:
                    chunk = self.sock.recv(65536)
                    if chunk == b"":
                        self._eof = True
                        break
                    self._buffer += chunk
                    if len(self._buffer) > self.max_line:
                        self._eof = True
                        raise ProtocolError(
                            f"peer sent {len(self._buffer)} bytes without a newline"
                        )
            except (BlockingIOError, InterruptedError):
                pass
            except socket.timeout:
                pass
            except (ConnectionError, OSError):
                self._eof = True
        messages: List[Dict[str, Any]] = []
        while True:
            line, sep, rest = self._buffer.partition(b"\n")
            if not sep:
                break
            self._buffer = rest
            if not line.strip():
                continue
            try:
                message = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable message line: {exc}") from None
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError(f"message without a type: {message!r}")
            messages.append(message)
        if messages:
            return messages
        if self._eof:
            raise TransportClosed("socket closed by peer")
        return []

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        self._eof = True
        try:
            self.sock.close()
        except OSError:
            pass


def wait_readable(waitables: Sequence[Any], timeout: Optional[float]) -> List[Any]:
    """Block until any of the given objects is readable (or the timeout).

    Accepts anything with a ``fileno()`` -- transports, listening sockets --
    and returns the readable subset.  An object whose descriptor is already
    closed is reported readable immediately, so the caller observes its
    :class:`TransportClosed` instead of looping forever.
    """
    ready: List[Any] = []
    selector = selectors.DefaultSelector()
    try:
        registered = 0
        for waitable in waitables:
            try:
                selector.register(waitable, selectors.EVENT_READ)
                registered += 1
            except (ValueError, OSError):
                ready.append(waitable)
        if ready or not registered:
            return ready
        for key, _events in selector.select(timeout):
            ready.append(key.fileobj)
    finally:
        selector.close()
    return ready
