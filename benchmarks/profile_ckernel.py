"""Sampling profile of the C datapath kernel, per function and per line.

    PYTHONPATH=src python benchmarks/profile_ckernel.py analyze-dgemm
    PYTHONPATH=src python benchmarks/profile_ckernel.py sweep-f4

Hosts without ``perf`` still need a kernel profile before any change to
``engine/_ckernel.c``.  This script:

1. builds an ``-O2 -g`` copy of ``_ckernel.c`` into a private cache
   directory, under the file name the loader expects, so the workload
   runs the same code as a normal build plus debug information;
2. builds a tiny C sampler that records the interrupted program counter
   on every ``SIGPROF`` from ``setitimer(ITIMER_PROF)`` (process CPU
   time, so only work is sampled, not waits);
3. runs the workload ``REPEAT`` times in this process with the
   sampler on;
4. maps every sample inside the kernel's shared object to its innermost
   (inlined) function and source line with ``addr2line -f -i``.

Workloads (the same calls as ``perfbench/``, run serially here so every
kernel call happens in the sampled process):

* ``analyze-dgemm`` — ``repro.analyze`` of dgemm-tiled at 64-160 on
  snb-ep at scale 0.125, no sweep cache;
* ``sweep-f4`` — the paper's F4 daxpy grid on the same machine,
  ``jobs=1``, no sweep cache.

It prints the share of all samples that fell in the kernel, then each
kernel function's share of the kernel samples, then the ``TOP_LINES``
hottest lines.  The timer asks for a sample every millisecond of CPU
time, but the host's timer tick caps the rate (about 250 samples per
CPU second on a HZ=250 kernel); the ``REPEAT`` runs are what make the
shares steady, since a single run's move by a few points.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
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

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig; (void)si;
    ucontext_t *uc = (ucontext_t *)uc_;
    if (count < cap) {
#if defined(__x86_64__)
        buf[count] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        buf[count] = (uint64_t)uc->uc_mcontext.pc;
#else
        buf[count] = 0;
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


def build(src: Path, cache: Path) -> tuple[Path, Path]:
    """(debug kernel .so, sampler .so), built into ``cache``."""
    source = src.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    kernel = cache / f"ckernel-{digest}.so"
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
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for row in maps:
            fields = row.split()
            if len(fields) < 6 or os.path.realpath(fields[5]) != real:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            if int(fields[2], 16) == 0 and base is None:
                base = start
            hi = end if hi is None else max(hi, end)
    if base is None:
        sys.exit(f"{so.name} is not mapped: the kernel did not load")
    return base, hi


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


def report(name: str, pcs, so: Path, total: int, top_lines: int) -> None:
    base, end = mapping(so)
    inside = [pc - base for pc in pcs if base <= pc < end]
    print(f"{name}: {total} samples, {len(inside)} in the kernel "
          f"({100.0 * len(inside) / max(total, 1):.1f}%)")
    if not inside:
        return
    where = symbolize(so, inside)
    by_func = collections.Counter(where[o][0] for o in inside)
    by_line = collections.Counter(where[o] for o in inside)
    n = len(inside)
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

        cache = Path(tmp)
        kernel, sampler_so = build(ckernel._SRC, cache)
        # the loader finds the debug build under its own cache key
        os.environ["REPRO_CKERNEL_CACHE"] = str(cache)
        if ckernel.lib() is None:
            sys.exit("the C kernel did not load")
        run = workload(args.workload)
        sampler = ctypes.CDLL(str(sampler_so))
        sampler.sampler_start.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                                          ctypes.c_int64]
        sampler.sampler_stop.restype = ctypes.c_int64
        buf = (ctypes.c_uint64 * MAX_SAMPLES)()
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
        report(args.workload, buf[:kept], kernel, kept, TOP_LINES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
