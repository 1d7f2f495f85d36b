"""Hostile sweep-cache entries: a lookup answers miss or corrupt.

An entry file is outside input: a crashed writer, a full disk, another
tool or a hostile user with write access to the cache directory may
leave any bytes there.  Whatever the file holds — random bytes, a
truncated entry, JSON nested past the interpreter's recursion limit,
a wrong envelope, non-finite numbers — :meth:`SweepCache.lookup` must
report it ``corrupt`` (and return no payload) so the point is
re-simulated; it must never raise.
"""

from __future__ import annotations

import json

import pytest

from repro.sweep.cache import CORRUPT, HIT, MISS, SweepCache, _checksum

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

pytestmark = pytest.mark.sweep

KEY = "ab" * 32
PAYLOAD = {"schema": 1, "work_flops": 2.0, "traffic_bytes": [64, 128]}
GOOD = json.dumps({"key": KEY, "checksum": _checksum(PAYLOAD),
                   "payload": PAYLOAD}, sort_keys=True).encode()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return SweepCache(str(tmp_path_factory.mktemp("hostile")))


def _deep(depth: int, opener: str, closer: str) -> bytes:
    return (opener * depth + closer * depth).encode()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)

_ENVELOPE = st.fixed_dictionaries(
    {},
    optional={"key": st.sampled_from([KEY, "cd" * 32, 7, None]),
              "checksum": st.one_of(st.just(_checksum(PAYLOAD)),
                                    st.text(max_size=64), st.floats()),
              "payload": st.one_of(_JSON, st.just([PAYLOAD]))},
)

_HOSTILE = st.one_of(
    st.binary(max_size=256),
    st.integers(min_value=0, max_value=len(GOOD) - 1).map(
        lambda n: GOOD[:n]),
    st.tuples(st.sampled_from([10, 900, 5_000, 200_000]),
              st.sampled_from([("[", "]"), ('{"a":' , "}")])).map(
        lambda t: _deep(t[0], *t[1])),
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    _ENVELOPE.map(lambda doc: json.dumps(doc).encode()),
    st.sampled_from([b"NaN", b"[Infinity, -Infinity]", b"1e999",
                     b'{"key": "%s", "checksum": NaN, "payload": '
                     b'{"x": Infinity}}' % KEY.encode()]),
)


@given(_HOSTILE)
@example(_deep(200_000, "[", "]"))
@example(_deep(200_000, '{"a":', "}"))
@example(GOOD[:-1])
def test_lookup_of_a_hostile_entry_is_corrupt_and_never_raises(
        cache, data):
    path = cache.path(KEY)
    cache.store(KEY, PAYLOAD)  # creates the shard directory
    with open(path, "wb") as handle:
        handle.write(data)
    payload, status = cache.lookup(KEY)
    assert (payload, status) == (None, CORRUPT)


def test_lookup_still_hits_and_misses(cache):
    cache.store(KEY, PAYLOAD)
    assert cache.lookup(KEY) == (PAYLOAD, HIT)
    assert cache.lookup("ef" * 32) == (None, MISS)
