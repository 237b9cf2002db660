"""A minimal, bounded HTTP/1.1 layer for the ATC service (stdlib asyncio only).

The service speaks just enough HTTP to move trace and container payloads:
request heads with capped line/header sizes, bodies framed by either
``Content-Length`` or ``Transfer-Encoding: chunked``, and responses whose
bodies may be bytes, a synchronous iterator or an async iterator (the
latter two are sent with chunked framing, so a decoded trace streams out
without ever being held in memory whole).  Every connection serves one
request and closes — the load profile is few large transfers, not many
small ones, so keep-alive complexity buys nothing.

Parsing failures raise :class:`HttpError` with the right status code; the
connection handler turns that into a plain-text error response.  Nothing
here knows about ATC — framing only.

Example:
    >>> error = HttpError(413, "request body exceeds the configured limit")
    >>> error.status, str(error)
    (413, 'request body exceeds the configured limit')
    >>> reason_phrase(429)
    'Too Many Requests'
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServiceError

__all__ = [
    "MAX_REQUEST_LINE_BYTES",
    "MAX_HEADER_BYTES",
    "HttpError",
    "Request",
    "Response",
    "reason_phrase",
    "read_request",
    "write_response",
]

#: Cap on the request line (``POST /v1/compress HTTP/1.1``).
MAX_REQUEST_LINE_BYTES = 8192

#: Cap on the combined size of all header lines.
MAX_HEADER_BYTES = 65536

#: Read granularity for request and response bodies.
IO_CHUNK_BYTES = 65536

# RFC 9110 8.6: Content-Length = 1*DIGIT.  RFC 9112 7.1: a chunk size is
# 1*HEXDIG before an optional chunk-ext (BWS ";" ...); 16 hex digits are
# the most a 64-bit length needs.  ASCII only: int() would also take
# signs, underscores, blanks, "0x" and non-ASCII digits.
_DIGITS = re.compile(r"[0-9]+")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})(?:[ \t]*;.*)?", re.DOTALL)

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def reason_phrase(status: int) -> str:
    """Human-readable phrase for a status code (empty when unknown)."""
    return _REASONS.get(int(status), "")


class HttpError(ServiceError):
    """A protocol-level failure carrying the HTTP status to answer with.

    Args:
        status: Status code for the error response.
        message: Plain-text body; also the exception message.
        headers: Extra response headers (e.g. ``Retry-After`` on 429).
    """

    def __init__(self, status: int, message: str, headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed request head plus a streaming view of its body.

    The body is consumed exactly once through :meth:`iter_body`; handlers
    that need it on disk spool it chunk by chunk, never materialising more
    than :data:`IO_CHUNK_BYTES` at a time.
    """

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    _reader: asyncio.StreamReader = field(repr=False)
    _max_body_bytes: int = field(repr=False)

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive single-header lookup."""
        return self.headers.get(name.lower(), default)

    async def iter_body(self) -> AsyncIterator[bytes]:
        """Yield the request body in bounded chunks.

        Framing is taken from the head: ``Transfer-Encoding: chunked`` wins
        over ``Content-Length``; a body-less request yields nothing.  The
        cumulative size is checked against the configured cap and overruns
        raise :class:`HttpError` 413 mid-stream.
        """
        encoding = self.header("transfer-encoding").lower()
        if "chunked" in encoding:
            async for piece in self._iter_chunked():
                yield piece
            return
        length_text = self.header("content-length")
        if not length_text:
            return
        if not _DIGITS.fullmatch(length_text):
            raise HttpError(400, f"invalid Content-Length: {length_text!r}")
        remaining = int(length_text)
        if remaining > self._max_body_bytes:
            raise HttpError(413, f"request body of {remaining} bytes exceeds the limit")
        while remaining:
            piece = await self._reader.read(min(IO_CHUNK_BYTES, remaining))
            if not piece:
                raise HttpError(400, "request body ended before Content-Length was satisfied")
            remaining -= len(piece)
            yield piece

    async def _iter_chunked(self) -> AsyncIterator[bytes]:
        total = 0
        while True:
            size_line = await self._read_line("chunk size")
            match = _CHUNK_SIZE.fullmatch(size_line)
            if match is None:
                raise HttpError(400, f"invalid chunk size line: {size_line!r}")
            size = int(match.group(1), 16)
            if size == 0:
                # Trailer section: skip until the blank line.
                while await self._read_line("chunk trailer"):
                    pass
                return
            total += size
            if total > self._max_body_bytes:
                raise HttpError(413, f"chunked request body exceeds {self._max_body_bytes} bytes")
            remaining = size
            while remaining:
                piece = await self._reader.read(min(IO_CHUNK_BYTES, remaining))
                if not piece:
                    raise HttpError(400, "request body ended inside a chunk")
                remaining -= len(piece)
                yield piece
            try:
                terminator = await self._reader.readexactly(2)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "request body ended inside a chunk") from None
            if terminator != b"\r\n":
                raise HttpError(400, "chunk data not terminated by CRLF")

    async def _read_line(self, what: str) -> bytes:
        try:
            line = await self._reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, f"request body ended while reading the {what}") from None
        return line[:-2]


@dataclass
class Response:
    """A response to serialise: status, headers, and one of three body kinds.

    ``body`` may be ``bytes`` (sent with ``Content-Length``), a synchronous
    iterator of ``bytes``, or an async iterator of ``bytes`` (both sent
    with chunked framing).
    """

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: object = b""

    @classmethod
    def text(cls, status: int, message: str, headers: Optional[Dict[str, str]] = None) -> "Response":
        """A plain-text response (used for every error path)."""
        payload = (message.rstrip("\n") + "\n").encode("utf-8")
        merged = {"Content-Type": "text/plain; charset=utf-8"}
        merged.update(headers or {})
        return cls(status=status, headers=merged, body=payload)


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request head; ``None`` when the client closed silently.

    Raises:
        HttpError: On any malformed or oversized head (400/413/501).
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise HttpError(400, "truncated request line") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request line too long") from None
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise HttpError(413, "request line too long")
    parts = line[:-2].decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(501, f"unsupported protocol version: {version}")

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated request headers") from None
        if raw == b"\r\n":
            break
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(413, "request headers too large")
        text = raw[:-2].decode("latin-1")
        name, separator, value = text.partition(":")
        if not separator or not name.strip():
            raise HttpError(400, f"malformed header line: {text!r}")
        # OWS around a field value is SP / HTAB only (RFC 9110 5.6.3)
        headers[name.strip().lower()] = value.strip(" \t")

    split = urlsplit(target)
    query = {name: values[-1] for name, values in parse_qs(split.query).items()}
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        _reader=reader,
        _max_body_bytes=int(max_body_bytes),
    )


async def drain_body(request: Request) -> int:
    """Consume and discard a request body; returns the byte count.

    Handlers that reject a request early still drain the body so the
    error response is not racing unread upload data in the socket buffers.
    """
    total = 0
    async for piece in request.iter_body():
        total += len(piece)
    return total


async def write_response(writer: asyncio.StreamWriter, response: Response) -> int:
    """Serialise a response onto the wire; returns body bytes written.

    Bytes bodies get ``Content-Length``; iterator bodies get chunked
    framing and are pulled lazily, awaiting ``drain()`` between chunks so
    a slow client applies backpressure instead of growing the write buffer.
    """
    status = int(response.status)
    phrase = reason_phrase(status) or "Unknown"
    headers = dict(response.headers)
    headers.setdefault("Connection", "close")
    body = response.body

    chunked = not isinstance(body, (bytes, bytearray))
    if chunked:
        headers["Transfer-Encoding"] = "chunked"
    else:
        headers["Content-Length"] = str(len(body))

    head = [f"HTTP/1.1 {status} {phrase}"]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))

    written = 0
    if not chunked:
        writer.write(bytes(body))
        written = len(body)
        await writer.drain()
        return written

    async def pieces() -> AsyncIterator[bytes]:
        if hasattr(body, "__aiter__"):
            async for piece in body:
                yield piece
        elif hasattr(body, "__iter__"):
            for piece in body:
                yield piece
        else:
            raise ServiceError(f"unsupported response body type: {type(body).__name__}")

    async for piece in pieces():
        if not piece:
            continue
        writer.write(b"%x\r\n" % len(piece) + bytes(piece) + b"\r\n")
        written += len(piece)
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()
    return written
