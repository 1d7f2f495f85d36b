"""The compiled datapath kernel (``_ckernel.c``): its interface and loader.

The kernel is one C file, compiled on demand with the system C compiler
into a shared object cached at :func:`so_path`, keyed by the source
sha256 so stale binaries can never be picked up.  Any load failure —
unreadable source, no compiler, a failed compile, a dlopen error, a
layout that differs from the tables below — degrades to ``lib() is
None``: the fast engine then keeps dict state and walks exactly as the
reference engine does, about 100x slower, and the first failure in a
process emits one :class:`RuntimeWarning` naming the reason (compiler
stderr tail included).  ``REPRO_CKERNEL=0`` disables the kernel on
purpose and silently (used by the conformance suite).  :func:`status`
tells the three outcomes apart and carries a failure's reason.

The kernel's interface is written once, here: :data:`CTX` (the ``Ctx``
struct), :data:`LAYOUTS` (every int64 array layout shared by position)
and :data:`CONSTANTS`.  The ctypes :class:`Ctx`, the index tables
(:data:`OUT`, :data:`RM`, ``OP_*``, ...) and the C block between the
``GENERATED INTERFACE`` markers of ``_ckernel.c`` are built from them;
``python -m repro.engine`` rewrites that block after a table
edit.  The block's ``repro_layout()`` reports ``sizeof(Ctx)``, every
member's offset and every enum value as compiled, and the loader
refuses a kernel whose words differ, naming the first that does.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import subprocess
import tempfile
import textwrap
import warnings
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..memory.prefetched import BLOCK_SHIFT

_SRC = Path(__file__).with_name("_ckernel.c")

#: the C ``Ctx`` struct, in member order: (comment, C declarations)
CTX = (
    ("caches: 0 = L1, 1 = L2, 2 = L3",
     "int64_t *tags[3]; uint8_t *dirty[3]; int64_t set_mask[3], assoc[3]"),
    ("TLB; tlb_regs is [l1_count, l2_count]",
     "int64_t *tlb1_pages, *tlb2_pages, *tlb_regs; "
     "int64_t tlb1_entries, tlb2_entries, walk_latency"),
    ("prefetched-line set: pf_regs is [size], pf_touched a byte a block",
     "int64_t *pf_slots, *pf_regs; uint8_t *pf_touched; int64_t pf_mask"),
    ("stride table",
     "int64_t *st_keys, *st_last, *st_strd, *st_conf, *st_lruv, *st_regs; "
     "int64_t st_sites, st_deg, st_thr, st_maxs"),
    ("stream table",
     "int64_t *sm_keys, *sm_last, *sm_dirn, *sm_conf, *sm_front, *sm_lruv, "
     "*sm_regs; int64_t sm_trackers, sm_deg, sm_dist, sm_thr, sm_lpp"),
    ("next-line prefetcher, port", "int64_t nl_lpp, page_shift"),
    ("per-call enable flags (MSR mask)", "int64_t nl_on, sm_on, st_on"),
    ("scalar registers [last_page]; per-home DRAM rows of HM_FIELDS",
     "int64_t *regs, *homes; int64_t nhomes"),
    ("fast-forward copy of the loop state, NULL until a loop is eligible",
     "int64_t *ff_words; uint8_t *ff_dirty; int64_t ff_nwords, ff_nbytes"),
)

#: every int64 array layout shared by position, one C enum each:
#: (prefix, comment, members, the sentinel member counting them or None)
LAYOUTS = (
    ("O", "out[]: the counter block every entry point fills",
     "acc l1h l2h l3h drd wbk ntl e1 e2 e3 swp hwi pfr pfu rem fls tlbm "
     "tlbw dacc c1f c1d c1i c2f c2d c2i c3h c3m c3f c3d c3i occ1 occ2 "
     "occ3 nli smi sti useful tacc t1h t2h twalk", "COUNT"),
    ("RM", "run_meta[]: one row per run of a packed plan (AccessPlan.meta)",
     "op home remote off n sid", "FIELDS"),
    ("OP", "plan opcodes (the RM_OP and NS_OP columns)",
     "demand_read demand_write ntstore prefetch flush", None),
    ("HM", "ctx->homes[]: a row of DRAM line counts per home node",
     "demand_reads prefetch_reads writes remote_lines", "FIELDS"),
    ("NH", "nest descriptor header", "nodes depth shift", "FIELDS"),
    ("NN", "nest nodes: a row per node, in body (preorder) order",
     "kind slot trips link site0 nsites bound", "FIELDS"),
    ("NK", "nest node kinds (the NN_KIND column)",
     "loop end flat flat_gather single nop", None),
    ("NS", "nest sites: a row of NS_* fields, then a stride per iv slot",
     "op sid home remote base stride width index", "IVS"),
    ("NST", "nest state: resume point, requests, lines skipped, iv slots, "
     "scratch",
     "pc need ffwd skipped", "IVS"),
)

#: prefetched lines the fast-forward copy holds per side; a loop whose
#: copy would need more simulates in full
FF_PF_LINES = 4096

#: shared scalars: (C name, value)
CONSTANTS = (("PF_BLOCK_SHIFT", BLOCK_SHIFT), ("FF_PF_LINES", FF_PF_LINES))

_c64 = ctypes.c_int64
_cp = ctypes.c_void_p
_CTYPES = {"int64_t": _c64, "int64_t*": _cp, "uint8_t*": _cp}

#: (C type, "*" or "", name, array length or "") of every Ctx member
CTX_FIELDS = tuple(
    (decl.split()[0],) + re.fullmatch(r"(\*?)(\w+)(?:\[(\d+)\])?",
                                      item.strip()).groups("")
    for _comment, decls in CTX for decl in decls.split("; ")
    for item in decl.split(None, 1)[1].split(","))


class Ctx(ctypes.Structure):
    """The C ``Ctx`` struct, built from :data:`CTX`."""

    _fields_ = [(name, _CTYPES[ctype + star] * int(n) if n
                 else _CTYPES[ctype + star])
                for ctype, star, name, n in CTX_FIELDS]


#: member -> column of each layout, by prefix
_INDEX = {prefix: {name: i for i, name in enumerate(members.split())}
          for prefix, _comment, members, _sentinel in LAYOUTS}
OUT, RM, OP, HM = _INDEX["O"], _INDEX["RM"], _INDEX["OP"], _INDEX["HM"]
NH, NN, NK, NS, NST = (_INDEX[p] for p in ("NH", "NN", "NK", "NS", "NST"))
OUT_FIELDS = tuple(OUT)
OUT_COUNT, RM_FIELDS, HM_FIELDS = len(OUT), len(RM), len(HM)
OP_DEMAND_READ = OP["demand_read"]    # 'load' / 'gather'
OP_DEMAND_WRITE = OP["demand_write"]  # 'store'
OP_NTSTORE = OP["ntstore"]
OP_PREFETCH = OP["prefetch"]
OP_FLUSH = OP["flush"]


def row(layout: Dict[str, int], **columns: int) -> List[int]:
    """One zero-filled row of ``layout`` with ``columns`` set by name."""
    values = [0] * len(layout)
    for name, value in columns.items():
        values[layout[name]] = value
    return values


#: the block's opening marker; the banner text after it may change
BEGIN_MARK = "/* BEGIN GENERATED INTERFACE"
BEGIN = (BEGIN_MARK + ": written from the tables in "
         "engine/ckernel.py by\n * `python -m repro.engine`; "
         "edit those tables, not this block. */\n")
END = "/* END GENERATED INTERFACE */\n"


def _enum(prefix: str, members: str, sentinel: Optional[str]) -> List[str]:
    return ([f"{prefix}_{m.upper()}" for m in members.split()]
            + ([f"{prefix}_{sentinel}"] if sentinel else []))


def _expected() -> List[Tuple[str, int]]:
    """(C expression, value) of each ``repro_layout()`` word, in order."""
    return ([("sizeof(Ctx)", ctypes.sizeof(Ctx))]
            + [(f"offsetof(Ctx, {name})", getattr(Ctx, name).offset)
               for _t, _s, name, _n in CTX_FIELDS]
            + [(member, i) for prefix, _c, members, sentinel in LAYOUTS
               for i, member in enumerate(_enum(prefix, members, sentinel))]
            + list(CONSTANTS))


def c_block() -> str:
    """The generated C block, markers included."""
    out = [BEGIN] + [f"enum {{ {name} = {value} }};\n"
                     for name, value in CONSTANTS]
    for prefix, comment, members, sentinel in LAYOUTS:
        body = ", ".join(_enum(prefix, members, sentinel))
        body = (f" {body} " if len(body) <= 64 else "\n" + textwrap.fill(
            body, 76, initial_indent="    ", subsequent_indent="    ") + "\n")
        out.append(f"/* {comment} */\nenum {{{body}}};\n")
    out.append("typedef struct {\n" + "".join(
        f"    /* {comment} */\n"
        + "".join(textwrap.fill(f"{decl};", 76, initial_indent="    ",
                                subsequent_indent=" " * 12) + "\n"
                  for decl in decls.split("; "))
        for comment, decls in CTX) + "} Ctx;\n")
    out.append("/* what the loader checks against engine/ckernel.py */\n"
               "static const int64_t layout_words[] = {\n" + "".join(
        f"    (int64_t){expr},\n" for expr, _value in _expected()) + "};\n\n"
        "const int64_t *repro_layout(int64_t *n) {\n"
        "    *n = (int64_t)(sizeof layout_words / sizeof *layout_words);\n"
        "    return layout_words;\n}\n")
    return "\n".join(out) + END


def _split(source: str) -> Tuple[str, str, str]:
    """(text before the generated block, the block, text after)."""
    start, stop = source.index(BEGIN_MARK), source.index(END) + len(END)
    return source[:start], source[start:stop], source[stop:]


def regenerate(path: Path = _SRC) -> bool:
    """Rewrite ``path``'s generated block from the tables; True when
    that changed it."""
    head, block, tail = _split(path.read_text())
    path.write_text(head + c_block() + tail)
    return block != c_block()


def layout_words(kernel: ctypes.CDLL) -> List[int]:
    """The words a loaded kernel's ``repro_layout()`` reports."""
    kernel.repro_layout.argtypes = [ctypes.POINTER(_c64)]
    kernel.repro_layout.restype = ctypes.POINTER(_c64)
    count = _c64()
    return kernel.repro_layout(ctypes.byref(count))[:count.value]


def layout_mismatch(words: List[int]) -> Optional[str]:
    """Why ``repro_layout()`` words differ from the tables, naming the
    first field or member that does, or None when they agree."""
    expected = _expected()
    for (label, want), got in zip(expected, words):
        if got != want:
            return (f"layout differs from engine/ckernel.py at {label}: "
                    f"the kernel has {got}, the table {want}")
    if len(words) != len(expected):
        return (f"layout differs from engine/ckernel.py: the kernel has "
                f"{len(words)} words, the table {len(expected)}")
    return None


#: characters of compiler stderr kept in a failure reason
STDERR_TAIL = 400

#: :attr:`KernelStatus.state` values
LOADED, DISABLED, FAILED = "loaded", "disabled", "failed"


class KernelStatus(NamedTuple):
    """How this process's kernel load ended."""

    #: :data:`LOADED`, :data:`DISABLED` (``REPRO_CKERNEL=0``) or
    #: :data:`FAILED`
    state: str
    #: why a failed load failed, as the one-time warning words it
    reason: Optional[str] = None


_lib = None
_status: Optional[KernelStatus] = None  # set by the first lib() call


def so_path(source: Optional[bytes] = None) -> Path:
    """Where the kernel built from ``source`` (default: ``_ckernel.c``)
    is cached: ``ckernel-<sha256[:16]>.so`` under
    ``$REPRO_CKERNEL_CACHE`` or ``~/.cache/repro-ckernel``."""
    if source is None:
        source = _SRC.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = Path(os.environ.get(
        "REPRO_CKERNEL_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernel"),
    ))
    return cache_dir / f"ckernel-{digest}.so"


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
    so = so_path(source)
    if not so.exists():
        failure = _compile(_SRC, so)
        if failure is not None:
            return None, failure
    try:
        loaded = ctypes.CDLL(str(so))
        words = layout_words(loaded)
    except (OSError, AttributeError) as exc:
        return None, f"cannot load {so}: {exc}"
    mismatch = layout_mismatch(words)
    if mismatch is not None:
        return None, f"{so.name}: {mismatch}"
    for name, args in (("plan", [_c64, _cp, _cp, _cp, _cp]),
                       ("nest", [_cp, _cp, _cp, _cp, _cp, _cp, _cp, _c64,
                                 _cp])):
        entry = getattr(loaded, f"repro_execute_{name}")
        entry.argtypes = [ctypes.POINTER(Ctx), *args]
        entry.restype = _c64
    return loaded, None


def lib() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None when unavailable (cached per process).

    The first failure warns once (see the module docstring); an
    explicit ``REPRO_CKERNEL=0`` stays silent.
    """
    global _lib, _status
    if _status is not None:
        return _lib
    if os.environ.get("REPRO_CKERNEL", "1") == "0":
        _status = KernelStatus(DISABLED)
        return None
    _lib, reason = _load()
    if _lib is None:
        _status = KernelStatus(FAILED, reason)
        warnings.warn(
            f"C kernel unavailable: {reason}; the fast engine falls back "
            f"to the reference engine's per-line walk, about 100x slower",
            RuntimeWarning, stacklevel=2,
        )
    else:
        _status = KernelStatus(LOADED)
    return _lib


def status() -> KernelStatus:
    """This process's kernel load state, loading the kernel first if no
    call has tried yet."""
    lib()
    return _status


def available() -> bool:
    return status().state == LOADED

