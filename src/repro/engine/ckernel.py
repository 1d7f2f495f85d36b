"""Loader for the compiled datapath kernel (``_ckernel.c``).

The kernel is a single translation unit with no Python.h dependency,
compiled on demand with the system C compiler into a shared object
cached under ``~/.cache/repro-ckernel/`` (override with
``REPRO_CKERNEL_CACHE``), keyed by the source sha256 so stale binaries
can never be picked up.  Loading is best-effort: any failure — no
compiler, sandboxed filesystem, unsupported platform — degrades to
``lib() is None`` and the engine falls back to the pure-Python
datapath.  ``REPRO_CKERNEL=0`` disables the kernel outright (used by
the conformance suite to exercise the fallback).

The ctypes :class:`Ctx` mirrors the C struct field for field; every
member is 8 bytes wide, so the layouts agree without padding concerns.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

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
        ("pf_slots", _cp), ("pf_regs", _cp), ("pf_mask", _c64),
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


_lib = None
_tried = False


def _compile(src: Path, dest: Path) -> bool:
    dest.parent.mkdir(parents=True, exist_ok=True)
    cc = os.environ.get("CC", "gcc")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(dest.parent))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(src)],
            capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, dest)  # atomic: concurrent builders race safely
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def lib() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None when unavailable (cached per process)."""
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_CKERNEL", "1") == "0":
        return None
    try:
        source = _SRC.read_bytes()
    except OSError:
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = Path(os.environ.get(
        "REPRO_CKERNEL_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernel"),
    ))
    so = cache_dir / f"ckernel-{digest}.so"
    if not so.exists() and not _compile(_SRC, so):
        return None
    try:
        loaded = ctypes.CDLL(str(so))
    except OSError:
        return None
    loaded.repro_ctx_size.restype = _c64
    loaded.repro_ctx_size.argtypes = []
    if loaded.repro_ctx_size() != ctypes.sizeof(Ctx):
        return None  # struct layout drift between C and ctypes
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
    _lib = loaded
    return _lib


def available() -> bool:
    return lib() is not None
