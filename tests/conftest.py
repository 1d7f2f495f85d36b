"""Shared fixtures: small machines and canonical programs."""

from __future__ import annotations

import contextlib
import errno
import os

import pytest

from repro.cpu.nest import NestBuilder
from repro.engine import ckernel
from repro.isa import ProgramBuilder
from repro.kernels.base import CodegenCaps
from repro.machine.presets import paper_machine, tiny_test_machine
from repro.memory import prefetched

try:
    from hypothesis import settings

    # `ci` runs many more examples with no deadline (simulation time per
    # example varies widely); select with HYPOTHESIS_PROFILE=ci.
    settings.register_profile("ci", max_examples=300, deadline=None)
    settings.register_profile("default", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass


@pytest.fixture(autouse=True, scope="session")
def _isolated_sweep_cache(tmp_path_factory):
    """Point the sweep result cache at a per-session temp directory.

    Keeps test runs from writing into the repo's ``artifacts/`` tree
    and — more importantly — from replaying measurements cached by a
    *previous* run of a since-modified simulator, which would let stale
    results mask regressions.  Tests that exercise the cache itself
    pass explicit directories and are unaffected.
    """
    path = str(tmp_path_factory.mktemp("sweepcache"))
    previous = os.environ.get("REPRO_SWEEP_CACHE")
    os.environ["REPRO_SWEEP_CACHE"] = path
    yield
    if previous is None:
        os.environ.pop("REPRO_SWEEP_CACHE", None)
    else:
        os.environ["REPRO_SWEEP_CACHE"] = previous


@pytest.fixture
def tiny():
    """A fresh 2-core test machine (1 KiB L1 / 4 KiB L2 / 16 KiB L3)."""
    return tiny_test_machine()


@pytest.fixture
def tiny_caps(tiny):
    return CodegenCaps.from_machine(tiny)


@pytest.fixture
def no_ckernel(monkeypatch):
    """Context-manager factory: machines built inside it run the fast
    engine as on a host without the C kernel.

    That machine keeps dict state, builds no access plan and walks
    every program through the reference engine's per-line port calls.
    """
    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as patch:
            patch.setattr(ckernel, "available", lambda: False)
            yield

    return scope


@pytest.fixture
def host_refuses_huge_tables(monkeypatch):
    """Every prefetched-line table above 2^28 slots fails to map with
    ENOMEM, as on a host out of memory, without mapping anything large."""
    real = prefetched._table

    def table(capacity):
        if capacity > 1 << 28:
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return real(capacity)
    monkeypatch.setattr(prefetched, "_table", table)


@pytest.fixture
def walk_on_c(monkeypatch):
    """Refuse every top-level node to the nest executor, so a C-datapath
    machine walks whole programs as it walks a refused node: flat loops
    through the plan tiers, straight-line accesses as one-run plans.
    Each node counts as an ``unsupported`` fallback."""
    monkeypatch.setattr(NestBuilder, "add_top",
                        lambda self, node: "unsupported")


#: plan-cache tests: only the C datapath builds and caches plans
needs_ckernel = pytest.mark.skipif(
    not ckernel.available(), reason="access plans run on the C datapath")


def build_gather_beside_affine(n: int):
    """A top-level loop holding a gather flat loop next to an affine one.

    The nest executor runs it whole.  Walked on the C datapath
    (:func:`walk_on_c`), the gather loop is packed uncached and the
    affine loop is lowered through the symbolic tier and bound per row
    (the size-polymorphic path); the row stride of ``y`` depends on
    ``n``, so every size is a fresh binding.
    """
    b = ProgramBuilder()
    x = b.buffer("x", 8 * n)
    y = b.buffer("y", 8 * n * n)
    table = b.index_table("cols", [8 * ((7 * k) % n) for k in range(n)])
    with b.loop(n, "row") as row:
        with b.loop(4, "g") as g:
            b.gather(x, table[g], width=64)
        with b.loop(n // 4, "col") as col:
            b.load(y[row * (8 * n) + col * 32], width=256)
    return b.build()


def build_descending_gather(check_bounds: bool = True):
    """``t[2 - i]`` over 8 trips on a 16-entry table: the gather reads
    entries -5..2, below the table's start."""
    b = ProgramBuilder()
    x = b.buffer("x", 4096)
    table = b.index_table("t", [64 * e for e in range(16)])
    with b.loop(8) as i:
        b.gather(x, table[i * -1 + 2], width=64)
    return b.build(check_bounds=check_bounds)


@pytest.fixture(scope="session")
def paper():
    """A shared 1/8-scale SNB-EP for read-only (model) assertions."""
    return paper_machine()


def build_triad(n: int, width: int = 256, nt: bool = False):
    """y[i] = alpha*x[i] + y[i] as a raw program (no kernel layer)."""
    b = ProgramBuilder()
    x = b.buffer("x", n * 8)
    y = b.buffer("y", n * 8)
    alpha = b.reg()
    lanes = width // 64
    step = width // 8
    with b.loop(n // lanes) as i:
        vx = b.load(x[i * step], width=width)
        vy = b.load(y[i * step], width=width)
        t = b.mul(alpha, vx, width=width)
        r = b.add(t, vy, width=width)
        b.store(r, y[i * step], width=width, nt=nt)
    return b.build()


def build_read_sweep(nbytes: int, stride: int = 64):
    """Load-only sweep touching every line of one buffer."""
    b = ProgramBuilder()
    buf = b.buffer("buf", nbytes)
    with b.loop(nbytes // stride) as i:
        b.load(buf[i * stride], width=64)
    return b.build()
