"""One request path for the ``repro`` verbs and ``repro serve``.

Both front ends build a request (machine, kernel and sizes, plan) with
the same rules: :meth:`MachineRef.named
<repro.machine.ref.MachineRef.named>` and :meth:`MachineRef.cores
<repro.machine.ref.MachineRef.cores>` for the machine and its cores,
the kernel registry for aliases, :func:`~repro.sweep.grids.build_plan`
for the plan and :func:`sweep_document` for a sweep's JSON.
:func:`validate` turns a service body into those arguments, or raises
a 400 that names the bad field.
"""

from __future__ import annotations

import math

from .engine import ENGINES
from .errors import ConfigurationError, HttpError
from .kernels.registry import resolve_kernel
from .machine.presets import PRESETS
from .machine.ref import MachineRef
from .measure.protocol import PROTOCOLS
from .roofline.ert import DEFAULT_FLOP_COUNTS
from .sweep.grids import GRIDS, build_plan
from .sweep.serialize import measurement_to_payload

__all__ = ["build_plan", "sweep_document", "validate"]


def sweep_document(ref: MachineRef, run) -> dict:
    """The JSON document of one finished sweep."""
    return {
        "machine": ref.key_doc(),
        "backend": run.backend,
        "stats": run.stats.to_dict(),
        "plan_cache": run.plan_cache,
        "telemetry": run.telemetry,
        "keys": run.keys,
        "measurements": [measurement_to_payload(m)
                         for m in run.measurements],
    }


#: each endpoint's required fields, then its optional ones beyond the
#: machine's; a normalised request holds exactly these
_FIELDS = {
    "measure": (("kernel", "n"), ("protocol", "reps", "threads")),
    "analyze": (("kernel", "sizes"), ("protocol", "reps", "flops")),
    "sweep": (("kernel", "sizes"), ("protocol", "reps", "threads")),
    "grid": (("grid",), ("reps",)),
}

_DEFAULTS = {"scale": 0.125, "engine": "fast", "protocol": "cold",
             "reps": 2, "threads": 1,
             "flops": list(DEFAULT_FLOP_COUNTS)}


def _is_count(value) -> bool:
    # bool is an int subclass, and 2.0 is a JSON float, not a count
    return type(value) is int and value > 0


def _is_counts(value) -> bool:
    return type(value) is list and bool(value) and all(map(_is_count, value))


#: field -> (its type test, what a failing value must be instead)
_TYPES = {
    "kernel": (lambda v: isinstance(v, str), "a string"),
    "n": (_is_count, "a positive integer"),
    "sizes": (_is_counts, "a non-empty list of positive integers"),
    "flops": (_is_counts, "a non-empty list of positive integers"),
    "reps": (_is_count, "a positive integer"),
    "threads": (_is_count, "a positive integer"),
    "protocol": (lambda v: isinstance(v, str), "a string"),
    "machine": (lambda v: isinstance(v, str), "a string"),
    "engine": (lambda v: isinstance(v, str), "a string"),
    "scale": (lambda v: type(v) in (int, float) and 0 < v < math.inf,
              "a finite positive number"),
    "grid": (lambda v: isinstance(v, str), "a string"),
}

#: the names a name field may take
_KNOWN = {"machine": PRESETS, "engine": ENGINES, "grid": GRIDS,
          "protocol": PROTOCOLS}


def validate(kind: str, doc: dict) -> dict:
    """A request body as normalised arguments, or an ``HttpError(400)``.

    Fields the endpoint does not use are dropped and aliases resolve,
    so two spellings of one request normalise to one document.
    """
    grid = kind == "sweep" and "grid" in doc
    required, optional = _FIELDS["grid" if grid else kind]
    missing = [f for f in required if f not in doc]
    if missing:
        raise HttpError(400, f"/{kind} requires {', '.join(missing)}")
    params = dict(_DEFAULTS, machine="snb" if kind == "analyze"
                  else "snb-ep")
    for field, (ok, what) in _TYPES.items():
        if field not in doc:
            continue
        if not ok(doc[field]):
            shown = repr(doc[field])
            if len(shown) > 60:
                shown = shown[:57] + "..."
            raise HttpError(400, f"{field} must be {what}, got {shown}")
        params[field] = doc[field]
    if "grid" in params:
        params["grid"] = params["grid"].lower()
    names = [(f, params[f]) for f in ("machine", "engine", "grid")
             if f in params]
    protocols = params["protocol"].split(",") if kind == "sweep" else [
        params["protocol"]]
    for field, value in names + [("protocol", p) for p in protocols]:
        if value not in _KNOWN[field]:
            raise HttpError(400, f"unknown {field} {value!r}; known: "
                                 f"{', '.join(sorted(_KNOWN[field]))}")
    if "kernel" in params:
        try:
            params["kernel"] = resolve_kernel(params["kernel"])
        except ConfigurationError as exc:
            raise HttpError(400, str(exc)) from None
    return {f: params[f]
            for f in ("machine", "scale", "engine") + required + optional}
