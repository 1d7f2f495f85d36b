"""Lossless Measurement <-> JSON payload conversion for the sweep cache.

Every result the sweep engine produces — whether simulated in-process,
simulated in a worker, or replayed from the on-disk cache — passes
through this module.  Funnelling all three paths through one serialised
form is what makes the determinism guarantee *checkable*: serial,
parallel and cached runs return measurements rebuilt from byte-wise
identical payloads.

Floats survive exactly: ``json`` emits ``repr``-based shortest
round-trip literals, so ``payload_to_measurement(measurement_to_payload
(m))`` reproduces every W/Q/T bit.  Traces are deliberately not
serialised — sweep points are measured with tracing off, and a cached
point has no trace to offer.
"""

from __future__ import annotations

from typing import Optional

from ..errors import MeasurementError
from ..measure.runner import NOISE_FLOOR_BYTES, Measurement
from ..measure.stats import Summary

#: payload schema version — bump on any field change so stale cache
#: entries fail structural validation instead of deserialising wrongly
#: (2: added per-level traffic ``level_bytes``)
PAYLOAD_SCHEMA = 2

_SUMMARY_FIELDS = ("median", "mean", "minimum", "maximum", "count")
_MEASUREMENT_FIELDS = (
    "kernel", "n", "threads", "protocol", "machine", "work_flops",
    "traffic_bytes", "llc_bytes", "runtime_seconds", "true_flops",
    "compulsory_bytes", "reps", "level_bytes",
)
_SUMMARY_KEYS = ("work_summary", "traffic_summary", "runtime_summary")
#: written only when it differs from a one-node machine's, so every
#: one-node payload (and its cache entry) is what it was before the
#: field existed
_NOISE_FLOOR = "noise_floor_bytes"


def _summary_to_doc(summary: Optional[Summary]) -> Optional[dict]:
    if summary is None:
        return None
    return {name: getattr(summary, name) for name in _SUMMARY_FIELDS}


def _summary_from_doc(doc: Optional[dict]) -> Optional[Summary]:
    if doc is None:
        return None
    return Summary(**{name: doc[name] for name in _SUMMARY_FIELDS})


def measurement_to_payload(m: Measurement) -> dict:
    """JSON-able document carrying every field of one Measurement."""
    doc = {"schema": PAYLOAD_SCHEMA}
    for name in _MEASUREMENT_FIELDS:
        doc[name] = getattr(m, name)
    for name in _SUMMARY_KEYS:
        doc[name] = _summary_to_doc(getattr(m, name))
    if m.noise_floor_bytes != NOISE_FLOOR_BYTES:
        doc[_NOISE_FLOOR] = m.noise_floor_bytes
    return doc


def payload_to_measurement(doc: dict) -> Measurement:
    """Rebuild a Measurement; raises MeasurementError on a bad payload."""
    if not isinstance(doc, dict) or doc.get("schema") != PAYLOAD_SCHEMA:
        raise MeasurementError(
            f"unsupported measurement payload schema: "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc)}"
        )
    try:
        fields = {name: doc[name] for name in _MEASUREMENT_FIELDS}
        # the payload may be the sweep cache's remembered one: the
        # Measurement gets its own copy of the one mutable field
        if fields["level_bytes"] is not None:
            fields["level_bytes"] = dict(fields["level_bytes"])
        summaries = {name: _summary_from_doc(doc[name])
                     for name in _SUMMARY_KEYS}
        floor = float(doc.get(_NOISE_FLOOR, NOISE_FLOOR_BYTES))
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasurementError(f"malformed measurement payload: {exc}") from exc
    return Measurement(trace=None, noise_floor_bytes=floor, **fields,
                       **summaries)
