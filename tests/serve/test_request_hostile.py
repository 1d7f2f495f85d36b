"""Hostile request fields: the service validator answers with a 400.

:func:`repro.request.validate` turns the JSON body of ``POST /measure``,
``/analyze`` or ``/sweep`` into the arguments both front ends pass to
the request builders.  Over random JSON values in every field it must
return a normalised request, whose fields have the types the builders
expect, or raise :class:`HttpError` with 400, and nothing else.
"""

from __future__ import annotations

import math

import pytest

from repro.request import validate
from repro.serve.http import HttpError

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

_FIELDS = ("kernel", "n", "sizes", "flops", "machine", "scale", "engine",
           "protocol", "reps", "threads", "grid")

_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(min_value=-(10 ** 30), max_value=10 ** 30)
    | st.sampled_from(["daxpy", "dgemm", "tiny", "snb", "fast", "cold",
                       "cold,warm", "f4", "F4", "", "reference"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)

_GOOD = {"kernel": "daxpy", "n": 96, "sizes": [96, 128], "flops": [1, 2],
         "machine": "tiny", "scale": 0.5, "engine": "fast",
         "protocol": "cold", "reps": 1, "threads": 1, "grid": "f4"}


@st.composite
def _bodies(draw):
    """A mostly valid body with some fields replaced or dropped."""
    body = {f: v for f, v in _GOOD.items() if draw(st.booleans())}
    for field in draw(st.lists(st.sampled_from(_FIELDS), max_size=4)):
        body[field] = draw(_JSON)
    return body


def _is_count(value) -> bool:
    return type(value) is int and value > 0


@given(st.sampled_from(["measure", "analyze", "sweep"]), _bodies())
@example("sweep", {"kernel": "daxpy", "sizes": ["abc"]})
@example("sweep", {"kernel": "daxpy", "sizes": [1024.7]})
@example("measure", {"kernel": "daxpy", "n": 96, "reps": "2"})
@example("measure", {"kernel": "daxpy", "n": 96, "threads": "x"})
@example("measure", {"kernel": "daxpy", "n": 96, "scale": math.inf})
@example("measure", {"kernel": "daxpy", "n": 96, "scale": 10 ** 400})
@example("measure", {"kernel": ["daxpy"], "n": 96})
@example("sweep", {"grid": {"f4": 1}})
def test_validate_returns_a_request_or_a_400(kind, body):
    try:
        params = validate(kind, dict(body))
    except HttpError as exc:
        assert exc.status == 400, exc
        return
    assert isinstance(params["machine"], str)
    assert isinstance(params["engine"], str)
    assert type(params["scale"]) in (int, float) and params["scale"] > 0
    assert _is_count(params["reps"])
    if "grid" in params:
        assert isinstance(params["grid"], str)
        return
    assert isinstance(params["kernel"], str)
    assert isinstance(params["protocol"], str)
    counts = [params["n"]] if kind == "measure" else params["sizes"]
    assert counts and all(_is_count(c) for c in counts)
    if kind == "analyze":
        assert params["flops"] and all(_is_count(f)
                                       for f in params["flops"])
    else:
        assert _is_count(params["threads"])


def test_two_spellings_normalise_to_one_request():
    short = validate("analyze", {"kernel": "dgemm", "sizes": [16],
                                 "machine": "tiny", "unused": 1})
    full = validate("analyze", {"kernel": "dgemm-tiled", "sizes": [16],
                                "machine": "tiny", "reps": 2,
                                "protocol": "cold"})
    assert short == full
    assert short["kernel"] == "dgemm-tiled"


def test_grid_requests_drop_the_kernel_form_fields():
    params = validate("sweep", {"grid": "F4", "machine": "tiny",
                                "threads": 1, "quick": True})
    assert params == {"machine": "tiny", "scale": 0.125, "engine": "fast",
                      "grid": "f4", "reps": 2}
