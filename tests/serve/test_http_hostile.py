"""Hostile requests: the HTTP layer answers a client defect with a 4xx.

``read_request`` and :meth:`Request.json` parse bytes from any client.
Over hostile request heads — malformed request lines and targets,
header lines without a colon, ``Content-Length`` values that are not
plain decimal digits (``1_0``, ``+3``, ``0x10``, ``³``, thousands of
digits), conflicting duplicate lengths, truncated bodies — the parser
must return a :class:`Request` or raise :class:`HttpError` with 400,
408 or 413, and nothing else; a body nested past the recursion limit is
a 400, not a 500.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.http import HttpError, Request, read_request

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

_LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.sampled_from(["1_0", "+3", "-1", " 3 ", "0x10", "3, 3", "3.0",
                     "³", "", "007", "9" * 30, "0" * 5000 + "4",
                     "9" * 5000]),
    st.text(alphabet="0123456789_+- x,", max_size=6),
)

_HEADER = st.one_of(
    st.tuples(st.just("Content-Length"), _LENGTHS),
    st.tuples(st.sampled_from(["Host", "X-A", "content-LENGTH "]),
              st.text(alphabet=st.characters(min_codepoint=32,
                                             max_codepoint=255),
                      max_size=12)),
)

_REQUEST_LINE = st.one_of(
    st.sampled_from(["GET / HTTP/1.1", "POST /measure HTTP/1.1",
                     "GET http://[::1/x HTTP/1.1", "GET /a?b=%zz&&c HTTP/1.0",
                     "GET  / HTTP/1.1", "GET / FTP/1.1", "GET /", ""]),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            max_size=40),
)


@st.composite
def _heads(draw):
    line = draw(_REQUEST_LINE)
    headers = draw(st.lists(_HEADER, max_size=4))
    raw = [line] + [f"{name}: {value}" for name, value in headers]
    if draw(st.booleans()):
        raw.append(draw(st.text(alphabet="abc: ", max_size=8)))
    head = ("\r\n".join(raw) + "\r\n\r\n").encode("latin-1")
    return head + draw(st.binary(max_size=48))


async def _read(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader, timeout=1.0)


@given(st.one_of(_heads(), st.binary(max_size=200)))
@example(b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
@example(b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc")
@example(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
         b"Content-Length: 5\r\n\r\nabcde")
@example(b"GET http://[::1/x HTTP/1.1\r\n\r\n")
def test_read_request_returns_a_request_or_a_4xx(data):
    try:
        request = asyncio.run(_read(data))
    except HttpError as exc:
        assert exc.status in (400, 408, 413), exc
        return
    if request is None:
        assert not data  # only a clean close before any bytes
        return
    assert isinstance(request, Request)
    length = request.headers.get("content-length", "0")
    assert length.isascii() and length.isdigit()
    assert len(request.body) == int(length.lstrip("0") or "0")


def test_identical_duplicate_lengths_are_accepted():
    request = asyncio.run(_read(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                                b"content-length: 2\r\n\r\nhi"))
    assert request.body == b"hi"


_BODIES = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([10, 900, 5_000, 200_000]),
              st.sampled_from([("[", "]"), ('{"a":', "}")])).map(
        lambda t: (t[1][0] * t[0] + t[1][1] * t[0]).encode()),
    st.recursive(st.none() | st.integers() | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=8).map(lambda doc: json.dumps(doc).encode()),
)


@given(_BODIES)
@example(b"[" * 200_000 + b"]" * 200_000)
def test_request_json_is_an_object_or_a_400(body):
    request = Request("POST", "/measure", body=body)
    try:
        doc = request.json()
    except HttpError as exc:
        assert exc.status == 400, exc
        return
    assert isinstance(doc, dict)
