"""Sampling profile of the C datapath kernel, per function and per line.

    PYTHONPATH=src python benchmarks/profile_ckernel.py analyze-dgemm
    PYTHONPATH=src python benchmarks/profile_ckernel.py sweep-f4

Hosts without ``perf`` still need a kernel profile before any change to
``engine/_ckernel.c``.  This script:

1. builds an ``-O2 -g`` copy of ``_ckernel.c`` into a private cache
   directory, under the file name the loader expects, so the workload
   runs the same code as a normal build plus debug information;
2. builds a tiny C sampler that records, on every ``SIGPROF`` from
   ``setitimer(ITIMER_PROF)`` (process CPU time, so only work is
   sampled, not waits), the interrupted program counter and the return
   address a leaf function would return to: the word at the stack
   pointer on x86-64, the link register on AArch64;
3. runs the workload ``REPEAT`` times in this process with the
   sampler on;
4. maps every sample inside the kernel's shared object to its innermost
   (inlined) function and source line with ``addr2line -f -i``.  A
   sample in libc whose return address lies in the kernel is the
   kernel's too: libc's ``memmove``, a leaf, called by ``to_front``,
   ``tlb_push`` and the other shifts; so is a sample in the kernel's
   PLT stub for ``memmove`` (its one import).  Both count under a
   ``memmove (<caller>)`` row, at the caller's call site.

Workloads (the same calls as ``perfbench/``, run serially here so every
kernel call happens in the sampled process):

* ``analyze-dgemm`` — ``repro.analyze`` of dgemm-tiled at 64-160 on
  snb-ep at scale 0.125, no sweep cache;
* ``sweep-f4`` — the paper's F4 daxpy grid on the same machine,
  ``jobs=1``, no sweep cache.

It prints the share of all samples that fell in the kernel (and how
many of those were in ``memmove``), then each kernel function's share
of the kernel samples, then the ``TOP_LINES`` hottest lines.  The
timer asks for a sample every millisecond of CPU time, but the host's
timer tick caps the rate (about 250 samples per CPU second on a HZ=250
kernel); the ``REPEAT`` runs are what make the shares steady, since a
single run's move by a few points.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("analyze-dgemm", "sweep-f4")
MACHINE_SCALE = 0.125

#: sampling interval in microseconds of process CPU time
INTERVAL_US = 1000
#: workload runs sampled per profile
REPEAT = 5
#: hottest source lines listed
TOP_LINES = 12
#: at most this many samples are kept (about 40 minutes at 1 ms)
MAX_SAMPLES = 1 << 21

SAMPLER_SRC = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

static uint64_t *buf;
static volatile int64_t count, cap;

/* two words per sample: the interrupted pc, and where a leaf function
 * interrupted at that pc returns to */
static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig; (void)si;
    ucontext_t *uc = (ucontext_t *)uc_;
    if (count < cap) {
        uint64_t *slot = buf + 2 * count;
#if defined(__x86_64__)
        slot[0] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
        slot[1] = *(const uint64_t *)uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
        slot[0] = (uint64_t)uc->uc_mcontext.pc;
        slot[1] = (uint64_t)uc->uc_mcontext.regs[30];
#else
        slot[0] = slot[1] = 0;
#endif
    }
    count++;
}

int sampler_start(uint64_t *out, int64_t n, int64_t usec) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, 0))
        return -1;
    buf = out;
    cap = n;
    count = 0;
    struct timeval tv = {usec / 1000000, usec % 1000000};
    struct itimerval it = {tv, tv};
    return setitimer(ITIMER_PROF, &it, 0);
}

int64_t sampler_stop(void) {
    struct itimerval it;
    memset(&it, 0, sizeof it);
    setitimer(ITIMER_PROF, &it, 0);
    signal(SIGPROF, SIG_IGN);
    return count;
}
"""


def _gcc(args, what: str) -> None:
    cc = os.environ.get("CC", "gcc")
    proc = subprocess.run([cc, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"building {what} failed:\n{proc.stderr}")


def build(cache: Path) -> tuple[Path, Path]:
    """(debug kernel .so, sampler .so), built into ``cache``, which
    becomes the loader's cache directory: the kernel is stored under the
    name the loader looks for there (``ckernel.so_path()``)."""
    from repro.engine import ckernel

    src = ckernel._SRC
    os.environ["REPRO_CKERNEL_CACHE"] = str(cache)
    kernel = ckernel.so_path()
    _gcc(["-O2", "-g", "-shared", "-fPIC", "-o", str(kernel),
          str(src)], src.name)
    sampler_c = cache / "sampler.c"
    sampler_c.write_text(SAMPLER_SRC)
    sampler = cache / "sampler.so"
    _gcc(["-O2", "-shared", "-fPIC", "-o", str(sampler), str(sampler_c)],
         "the sampler")
    return kernel, sampler


def workload(name: str):
    import repro

    ref = repro.MachineRef.of("snb-ep", scale=MACHINE_SCALE)
    if name == "analyze-dgemm":
        return lambda: repro.analyze("dgemm-tiled", [64, 96, 128, 160],
                                     machine=ref, cache=None, jobs=1)
    from repro.sweep import make_grid

    plan = make_grid("f4", ref)
    return lambda: repro.run_plan(plan, jobs=1, cache=None)


def mapping(so: Path) -> tuple[int, int]:
    """(load base, end) of ``so`` in this process's address space."""
    hi = base = None
    real = os.path.realpath(so)
    for start, end, offset, path in _maps():
        if os.path.realpath(path) != real:
            continue
        if offset == 0 and base is None:
            base = start
        hi = end if hi is None else max(hi, end)
    if base is None:
        sys.exit(f"{so.name} is not mapped: the kernel did not load")
    return base, hi


def libc_ranges() -> list[tuple[int, int]]:
    """Address ranges of the C library's mappings in this process."""
    return [(start, end) for start, end, _, path in _maps()
            if Path(path).name.startswith(("libc.so", "libc-"))]


def _maps():
    """(start, end, file offset, path) of every file-backed mapping."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for row in maps:
            fields = row.split()
            if len(fields) < 6:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            yield start, end, int(fields[2], 16), fields[5]


def symbolize(so: Path, offsets) -> dict:
    """offset -> (innermost function, file:line) via ``addr2line``."""
    offsets = sorted(set(offsets))
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-e", str(so)],
        input="".join(f"{o:#x}\n" for o in offsets),
        capture_output=True, text=True, check=True,
    )
    # -a prints each address, then one (function, file:line) pair per
    # frame, innermost inlined frame first
    out, off = {}, None
    lines = iter(proc.stdout.splitlines())
    for row in lines:
        if row.startswith("0x"):
            off = int(row, 16)
            continue
        where = next(lines)
        if off is not None:
            out[off] = (row, Path(where.split(" ")[0]).name)
            off = None
    return out


def report(name: str, samples, so: Path, total: int,
           top_lines: int) -> None:
    """Print the kernel's share of ``samples`` ((pc, leaf return
    address) pairs) and its hottest functions and lines."""
    base, end = mapping(so)
    libc = libc_ranges()
    # (offset in the kernel, whether the sample was in memmove): a
    # memmove sample counts at its kernel call site (return address - 1)
    rows, inside = [], []
    for pc, ret in samples:
        if base <= pc < end:
            inside.append((pc - base, ret))
        elif (base <= ret < end
              and any(lo <= pc < hi for lo, hi in libc)):
            rows.append((ret - 1 - base, True))
    stubs = symbolize(so, [o for o, _ in inside])
    for offset, ret in inside:
        # no line information: the PLT stub of memmove, the kernel's one
        # import, which jumps without touching the stack
        if stubs[offset][0] == "??" and base <= ret < end:
            rows.append((ret - 1 - base, True))
        else:
            rows.append((offset, False))
    moves = sum(via for _, via in rows)
    print(f"{name}: {total} samples, {len(rows)} in the kernel "
          f"({100.0 * len(rows) / max(total, 1):.1f}%), {moves} of them "
          f"in memmove")
    if not rows:
        return
    where = symbolize(so, [o for o, _ in rows])

    def label(offset, via):
        caller = where[offset][0]
        return f"memmove ({caller})" if via else caller

    by_func = collections.Counter(label(o, via) for o, via in rows)
    by_line = collections.Counter((label(o, via), where[o][1])
                                  for o, via in rows)
    n = len(rows)
    print(f"\n{'function (innermost inlined)':<32} {'share':>7}")
    for func, k in by_func.most_common():
        print(f"{func:<32} {100.0 * k / n:>6.1f}%")
    print(f"\n{'function':<24} {'line':<20} {'share':>7}")
    for (func, line), k in by_line.most_common(top_lines):
        print(f"{func:<24} {line:<20} {100.0 * k / n:>6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ckernel-profile-") as tmp:
        from repro.engine import ckernel

        kernel, sampler_so = build(Path(tmp))
        if ckernel.lib() is None:
            sys.exit("the C kernel did not load")
        run = workload(args.workload)
        sampler = ctypes.CDLL(str(sampler_so))
        sampler.sampler_start.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                                          ctypes.c_int64]
        sampler.sampler_stop.restype = ctypes.c_int64
        buf = (ctypes.c_uint64 * (2 * MAX_SAMPLES))()
        started = time.perf_counter()
        if sampler.sampler_start(buf, MAX_SAMPLES, INTERVAL_US):
            sys.exit("cannot install the SIGPROF sampler")
        try:
            for _ in range(REPEAT):
                run()
        finally:
            total = sampler.sampler_stop()
        wall = time.perf_counter() - started
        kept = min(total, MAX_SAMPLES)
        print(f"{args.workload}: {wall:.2f} s wall")
        words = buf[:2 * kept]
        report(args.workload, zip(words[::2], words[1::2]), kernel, kept,
               TOP_LINES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
