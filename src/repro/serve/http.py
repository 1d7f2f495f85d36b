"""Minimal HTTP/1.1 plumbing for the roofline service.

Just enough protocol for a JSON API on stdlib asyncio streams: parse a
request line + headers + ``Content-Length`` body, build a response
with a status line and a byte body.  Every response carries
``Connection: close`` — one request per connection keeps the state
machine trivial, and the endpoints are coarse enough (a measurement, a
sweep) that connection reuse would be noise.  Streaming endpoints
(``/jobs/<id>/events``) write headers without a content length and
close the socket when the stream ends, HTTP/1.0 style.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import HttpError

__all__ = ["HttpError", "Request", "read_request", "response_bytes",
           "stream_headers"]

#: request line + headers must fit here; bodies are bounded separately
MAX_HEADER_BYTES = 32 * 1024

#: request bodies are tiny JSON docs; anything bigger is a mistake
MAX_BODY_BYTES = 8 * 1024 * 1024

#: a Content-Length value: decimal digits only (RFC 9110 §8.6)
_LENGTH = re.compile(r"[0-9]+")

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object; ``{}`` for an empty body."""
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        except RecursionError:
            raise HttpError(400, "request body is nested too deeply")
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc


async def read_request(reader: asyncio.StreamReader,
                       timeout: float = 30.0) -> Optional[Request]:
    """Parse one request; ``None`` when the client hung up first."""
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=timeout)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close before any bytes
        raise HttpError(400, "connection closed mid-headers")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "headers exceed the size cap")
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading request headers")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "headers exceed the size cap")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError as exc:
        raise HttpError(400, f"malformed request target: {exc}")
    query = {key: values[-1]
             for key, values in parse_qs(split.query).items()}

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value

    body = b""
    length_text = headers.get("content-length", "0")
    if not _LENGTH.fullmatch(length_text):
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    # length first: int() refuses strings of over 4300 digits
    digits = length_text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) \
            or int(digits) > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {digits} bytes exceeds the cap")
    length = int(digits)
    if length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=timeout)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body")
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading request body")
    return Request(method=method, path=split.path, query=query,
                   headers=headers, body=body)


def response_bytes(status: int, body: bytes,
                   content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def stream_headers(status: int = 200,
                   content_type: str = "application/x-ndjson") -> bytes:
    """Headers for a body of unknown length, terminated by close."""
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Cache-Control: no-cache\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1")
