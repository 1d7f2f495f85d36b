"""Loader for the compiled datapath kernel (``_ckernel.c``).

The kernel is a single translation unit with no Python.h dependency,
compiled on demand with the system C compiler into a shared object
cached under ``~/.cache/repro-ckernel/`` (override with
``REPRO_CKERNEL_CACHE``), keyed by the source sha256 so stale binaries
can never be picked up.  Any load failure — unreadable source, no
compiler, a failed compile, a dlopen error, a struct-size mismatch —
degrades to ``lib() is None``: the fast engine then keeps dict state
and walks exactly as the reference engine does, one port call per
emission, about 100x slower than the kernel.  That fallback is loud: the
first failure in a process emits one :class:`RuntimeWarning` naming the
reason, the compiler's stderr tail included.  ``REPRO_CKERNEL=0``
disables the kernel on purpose and silently (used by the conformance
suite to exercise the fallback).

The ctypes :class:`Ctx` mirrors the C struct field for field; every
member is 8 bytes wide, so the layouts agree without padding concerns.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

_SRC = Path(__file__).with_name("_ckernel.c")

#: out[] layout — keep in sync with the O_* enum in _ckernel.c
OUT_FIELDS = (
    "acc", "l1h", "l2h", "l3h", "drd", "wbk", "ntl",
    "e1", "e2", "e3", "swp", "hwi", "pfr", "pfu", "rem", "fls",
    "tlbm", "tlbw", "dacc",
    "c1f", "c1d", "c1i", "c2f", "c2d", "c2i",
    "c3h", "c3m", "c3f", "c3d", "c3i",
    "occ1", "occ2", "occ3",
    "nli", "smi", "sti", "useful",
    "tacc", "t1h", "t2h", "twalk",
)
OUT = {name: i for i, name in enumerate(OUT_FIELDS)}
OUT_COUNT = len(OUT_FIELDS)

#: run_meta[] per-run layout — keep in sync with the RM_* enum
RM_FIELD_NAMES = ("op", "home", "remote", "off", "n", "sid")
RM_OP, RM_HOME, RM_REMOTE, RM_OFF, RM_N, RM_SID = range(6)
RM_FIELDS = len(RM_FIELD_NAMES)

#: nest-descriptor layouts (``repro_execute_nest``) — keep in sync with
#: the NH_* / NN_* / NK_* / NS_* / NST_* enums in _ckernel.c
NEST_HEADER = ("nodes", "depth", "shift")
NEST_NODE = ("kind", "slot", "trips", "link", "site0", "nsites", "bound")
NEST_KINDS = ("loop", "end", "flat", "single", "nop")
NEST_SITE = ("op", "sid", "home", "remote", "base", "stride", "width")
NEST_STATE = ("pc", "need")
NH = {name: i for i, name in enumerate(NEST_HEADER)}
NN = {name: i for i, name in enumerate(NEST_NODE)}
NK = {name: i for i, name in enumerate(NEST_KINDS)}
NS = {name: i for i, name in enumerate(NEST_SITE)}
NST = {name: i for i, name in enumerate(NEST_STATE)}

_c64 = ctypes.c_int64
_cp = ctypes.c_void_p


class Ctx(ctypes.Structure):
    """Mirror of the C ``Ctx`` struct (all members 8 bytes)."""

    _fields_ = [
        ("tags", _cp * 3),
        ("dirty", _cp * 3),
        ("stamp", _cp * 3),
        ("set_mask", _c64 * 3),
        ("assoc", _c64 * 3),
        ("tlb1_pages", _cp), ("tlb1_stamp", _cp),
        ("tlb2_pages", _cp), ("tlb2_stamp", _cp),
        ("tlb_regs", _cp),
        ("tlb1_entries", _c64), ("tlb2_entries", _c64),
        ("walk_latency", _c64),
        ("pf_slots", _cp), ("pf_regs", _cp), ("pf_touched", _cp),
        ("pf_mask", _c64),
        ("st_keys", _cp), ("st_last", _cp), ("st_strd", _cp),
        ("st_conf", _cp), ("st_lruv", _cp), ("st_regs", _cp),
        ("st_sites", _c64), ("st_deg", _c64), ("st_thr", _c64),
        ("st_maxs", _c64),
        ("sm_keys", _cp), ("sm_last", _cp), ("sm_dirn", _cp),
        ("sm_conf", _cp), ("sm_front", _cp), ("sm_lruv", _cp),
        ("sm_regs", _cp),
        ("sm_trackers", _c64), ("sm_deg", _c64), ("sm_dist", _c64),
        ("sm_thr", _c64), ("sm_lpp", _c64),
        ("nl_lpp", _c64),
        ("page_shift", _c64),
        ("nl_on", _c64), ("sm_on", _c64), ("st_on", _c64),
        ("regs", _cp), ("homes", _cp),
    ]


#: characters of compiler stderr kept in a failure reason
STDERR_TAIL = 400

_lib = None
_tried = False


def _compile(src: Path, dest: Path) -> Optional[str]:
    """Build the shared object; None on success, else why it failed."""
    cc = os.environ.get("CC", "gcc")
    tmp = None
    try:
        dest.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(dest.parent))
        os.close(fd)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(src)],
            capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip()
            return (f"compiling {src.name} with {cc!r} failed "
                    f"(exit {proc.returncode})"
                    + (f": {tail[-STDERR_TAIL:]}" if tail else ""))
        os.replace(tmp, dest)  # atomic: concurrent builders race safely
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compiling {src.name} with {cc!r} failed: {exc}"
    finally:
        if tmp is not None and os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """(kernel, None) or (None, why it is unavailable)."""
    try:
        source = _SRC.read_bytes()
    except OSError as exc:
        return None, f"cannot read {_SRC.name}: {exc}"
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = Path(os.environ.get(
        "REPRO_CKERNEL_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernel"),
    ))
    so = cache_dir / f"ckernel-{digest}.so"
    if not so.exists():
        failure = _compile(_SRC, so)
        if failure is not None:
            return None, failure
    try:
        loaded = ctypes.CDLL(str(so))
    except OSError as exc:
        return None, f"cannot load {so}: {exc}"
    loaded.repro_ctx_size.restype = _c64
    loaded.repro_ctx_size.argtypes = []
    size = loaded.repro_ctx_size()
    if size != ctypes.sizeof(Ctx):
        return None, (f"struct layout drift: C Ctx is {size} bytes, "
                      f"ctypes Ctx {ctypes.sizeof(Ctx)}")
    loaded.repro_execute_plan.argtypes = [
        ctypes.POINTER(Ctx), _c64, _cp, _cp, _cp, _cp,
    ]
    loaded.repro_execute_plan.restype = _c64
    loaded.repro_execute_single.argtypes = [
        ctypes.POINTER(Ctx), _c64, _c64, _c64, _c64, _cp,
    ]
    loaded.repro_execute_single.restype = _c64
    loaded.repro_execute_nest.argtypes = [
        ctypes.POINTER(Ctx), _cp, _cp, _cp, _cp, _cp, _cp, _c64, _cp,
    ]
    loaded.repro_execute_nest.restype = _c64
    return loaded, None


def lib() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None when unavailable (cached per process).

    The first failure warns once (see the module docstring); an
    explicit ``REPRO_CKERNEL=0`` stays silent.
    """
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_CKERNEL", "1") == "0":
        return None
    _lib, reason = _load()
    if _lib is None:
        warnings.warn(
            f"C kernel unavailable: {reason}; the fast engine falls back "
            f"to the reference engine's per-line walk, about 100x slower",
            RuntimeWarning, stacklevel=2,
        )
    return _lib


def available() -> bool:
    return lib() is not None
