"""Random-program generator for the conformance fuzzer.

One generator serves two front ends:

* the ``repro conformance`` CLI drives it with :class:`random.Random`
  (seeded, reproducible, fast), and
* the hypothesis test-suite drives it with an adapter that maps
  ``randint``/``choice`` onto hypothesis draws, which makes every
  generated program shrinkable by hypothesis's machinery.

The rng therefore only needs two methods: ``randint(a, b)`` (inclusive
bounds, like :meth:`random.Random.randint`) and ``choice(seq)``.

Programs are always valid: in-bounds (``build(check_bounds=True)``),
no FMA (the Sandy Bridge port model rejects it), negative strides only
in single-site loop bodies (the fast path's documented restriction).
They deliberately stress the interpreter's coalescing semantics:
overlapping strides (stride < width), stride 0, multi-site interleaves,
gathers with duplicate/monotone/random index tables, loop nests with
straight-line instructions between levels, software prefetch and
flush sites, and dependent FP chains that trigger reissue overcounts.

A second family, :func:`stream_program`, draws long streaming loops for
the C kernel's steady-stream fast-forward (``docs/ENGINE.md``), run on
:func:`~repro.machine.presets.stream_test_machine`; ``repro conformance
--family stream`` selects it, with its own seed stream, so the first
family's programs (and the golden digests over them) stay as they are.
"""

from __future__ import annotations

from typing import List, Tuple

from ..isa.builder import ProgramBuilder
from ..isa.program import Program

_WIDTHS = (64, 128, 256)
_STRIDES = (0, 8, 16, 32, 64, 128, 256, 512)
_SIZES = (4096, 8192, 16384, 32768)
_OPS = ("add", "sub", "mul", "max", "min", "add", "mul", "div")
_PRECISIONS = ("f64", "f64", "f64", "f32")


class ProgramGenerator:
    """Build one random program per :meth:`generate` call."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self._table_count = 0

    # ------------------------------------------------------------------
    def generate(self) -> Program:
        rng = self.rng
        b = ProgramBuilder()
        n_buffers = rng.randint(1, 3)
        buffers: List[Tuple[object, int]] = []
        for i in range(n_buffers):
            size = rng.choice(_SIZES)
            buffers.append((b.buffer(f"buf{i}", size), size))
        regs = b.regs(6)
        for _ in range(rng.randint(1, 3)):
            shape = rng.randint(0, 9)
            if shape <= 5:
                self._flat_loop(b, buffers, regs)
            elif shape <= 7:
                self._nested_loop(b, buffers, regs)
            else:
                self._straight_line(b, buffers, regs)
        return b.build()

    # ------------------------------------------------------------------
    # loop shapes
    # ------------------------------------------------------------------
    def _flat_loop(self, b, buffers, regs) -> None:
        rng = self.rng
        trips = rng.randint(1, 80)
        n_sites = rng.randint(1, 4)
        with b.loop(trips) as iv:
            if n_sites == 1 and rng.randint(0, 5) == 0:
                loaded = self._negative_site(b, buffers, regs, iv, trips)
            else:
                loaded = []
                for _ in range(n_sites):
                    loaded.extend(
                        self._site(b, buffers, regs, iv, trips)
                    )
            self._vec_ops(b, regs, loaded)

    def _nested_loop(self, b, buffers, regs) -> None:
        rng = self.rng
        outer_trips = rng.randint(1, 4)
        inner_trips = rng.randint(1, 32)
        with b.loop(outer_trips) as oi:
            if rng.randint(0, 2) == 0:
                # straight-line instruction between loop levels
                self._straight_line(b, buffers, regs)
            with b.loop(inner_trips) as ii:
                loaded = []
                for _ in range(rng.randint(1, 3)):
                    loaded.extend(self._nested_site(
                        b, buffers, regs, oi, outer_trips, ii, inner_trips
                    ))
                self._vec_ops(b, regs, loaded)

    def _straight_line(self, b, buffers, regs) -> None:
        rng = self.rng
        buf, size = rng.choice(buffers)
        width = rng.choice(_WIDTHS)
        kind = rng.randint(0, 4)
        # prefetch/flush hints are charged a full line by max_extent
        extent = 64 if kind in (2, 3) else width // 8
        offset = rng.randint(0, (size - extent) // 8) * 8
        if kind == 0:
            b.load(buf[offset], width=width)
        elif kind == 1:
            b.store(rng.choice(regs), buf[offset], width=width)
        elif kind == 2:
            b.prefetch(buf[offset])
        elif kind == 3:
            b.flush(buf[offset])
        else:
            op = rng.choice(_OPS)
            getattr(b, op if op not in ("max", "min") else op + "_")(
                rng.choice(regs), rng.choice(regs),
                width=width, precision=rng.choice(_PRECISIONS),
            )

    # ------------------------------------------------------------------
    # memory sites
    # ------------------------------------------------------------------
    def _affine_addr(self, buffers, trips: int, min_extent: int = 0):
        """(buffer handle, addr components) staying in bounds.

        ``min_extent`` widens the per-access byte budget beyond the
        vector width — prefetch/flush hints are charged a full
        64-byte line by ``Program.max_extent``.
        """
        rng = self.rng
        buf, size = rng.choice(buffers)
        width = rng.choice(_WIDTHS)
        width_bytes = max(width // 8, min_extent)
        offset = rng.randint(0, 63) * 8
        if offset + width_bytes > size:
            offset = 0
        room = size - width_bytes - offset
        legal = [s for s in _STRIDES if s * (trips - 1) <= room]
        stride = rng.choice(legal)
        return buf, stride, offset, width

    def _site(self, b, buffers, regs, iv, trips: int) -> list:
        """One in-loop memory site; returns regs it defined."""
        rng = self.rng
        kind = rng.randint(0, 7)
        if kind == 5:
            return [self._gather_site(b, buffers, iv, trips)]
        buf, stride, offset, width = self._affine_addr(
            buffers, trips, min_extent=64 if kind >= 6 else 0
        )
        addr = buf[iv * stride + offset] if stride else buf[offset]
        if kind in (0, 1):
            return [b.load(addr, width=width)]
        if kind == 2:
            b.store(rng.choice(regs), addr, width=width)
            return []
        if kind == 3:
            b.store(rng.choice(regs), addr, width=width, nt=True)
            return []
        if kind == 4:
            v = b.load(addr, width=width)
            return [b.add(v, rng.choice(regs), width=width)]
        if kind == 6:
            b.prefetch(addr)
            return []
        b.flush(addr)
        return []

    def _negative_site(self, b, buffers, regs, iv, trips: int) -> list:
        """A descending-stride site (single-site bodies only)."""
        rng = self.rng
        buf, size = rng.choice(buffers)
        width = rng.choice(_WIDTHS)
        width_bytes = width // 8
        stride = -rng.choice((8, 16))
        offset = (trips - 1) * (-stride) + rng.randint(0, 7) * 8
        if offset + width_bytes > size:
            offset = (trips - 1) * (-stride)
        addr = buf[iv * stride + offset]
        if rng.randint(0, 1):
            return [b.load(addr, width=width)]
        b.store(rng.choice(regs), addr, width=width)
        return []

    def _nested_site(self, b, buffers, regs, oi, outer_trips: int,
                     ii, inner_trips: int) -> list:
        rng = self.rng
        buf, size = rng.choice(buffers)
        width = rng.choice(_WIDTHS)
        width_bytes = width // 8
        inner = rng.choice((0, 8, 16, 64, 128))
        outer_candidates = [
            s for s in (0, 64, 256, 512, 1024, 2048)
            if (outer_trips - 1) * s + (inner_trips - 1) * inner
            + width_bytes <= size
        ]
        outer = rng.choice(outer_candidates)
        room = (size - width_bytes - (outer_trips - 1) * outer
                - (inner_trips - 1) * inner)
        offset = rng.randint(0, max(room // 8, 0)) * 8 if room > 0 else 0
        addr = buf[oi * outer + ii * inner + offset]
        kind = rng.randint(0, 3)
        if kind == 0:
            return [b.load(addr, width=width)]
        if kind == 1:
            b.store(rng.choice(regs), addr, width=width)
            return []
        if kind == 2:
            b.store(rng.choice(regs), addr, width=width, nt=True)
            return []
        v = b.load(addr, width=width)
        return [b.add(v, rng.choice(regs), width=width)]

    def _gather_site(self, b, buffers, iv, trips: int):
        rng = self.rng
        buf, size = rng.choice(buffers)
        width = rng.choice((64, 128))
        width_bytes = width // 8
        entry_stride = rng.choice((0, 1, 1, 2))
        table_len = trips * max(entry_stride, 1) + rng.randint(1, 16)
        idx0 = rng.randint(0, table_len - 1 - (trips - 1) * entry_stride)
        max_offset = (size - width_bytes) // 8
        flavor = rng.randint(0, 2)
        values = []
        for k in range(table_len):
            if flavor == 0:        # random scatter
                values.append(rng.randint(0, max_offset) * 8)
            elif flavor == 1:      # monotone with duplicates
                prev = values[-1] if values else 0
                nxt = prev + rng.randint(0, 2) * 8
                values.append(min(nxt, max_offset * 8))
            else:                  # few distinct targets, many repeats
                values.append((k % max(rng.randint(1, 4), 1))
                              * 8 % (max_offset * 8 + 8))
        table = b.index_table(f"tab{self._table_count}", values)
        self._table_count += 1
        index = (table[iv * entry_stride + idx0] if entry_stride
                 else table[idx0])
        return b.gather(buf, index, width=width)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _vec_ops(self, b, regs, loaded: list) -> None:
        rng = self.rng
        pool = list(loaded) + list(regs)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(_OPS)
            width = rng.choice(_WIDTHS)
            precision = rng.choice(_PRECISIONS)
            a = rng.choice(pool)
            c = rng.choice(pool)
            dst = rng.choice(pool) if rng.randint(0, 2) == 0 else None
            method = getattr(b, op if op not in ("max", "min") else op + "_")
            result = method(a, c, width=width, precision=precision, dst=dst)
            pool.append(result)


def random_program(rng) -> Program:
    """One random valid program from an rng with randint/choice."""
    return ProgramGenerator(rng).generate()


#: the stream family's strides in bytes: 8 to 128 divide the fast-forward
#: period of the stream test machine, 24, 40 and 96 divide none
_STREAM_STRIDES = (8, 16, 32, 64, 128, 8, 64, 24, 40, 96)
#: lines of the stream test machine's L3 (a prefix sweeps up to these)
_STREAM_L3_LINES = 4096


def stream_program(rng) -> Program:
    """One program of the stream family: a flat loop of 1-4 sites that
    runs several fast-forward onsets long on the stream test machine,
    behind a random prefix that leaves its L3 empty, full of clean lines,
    partly dirty, or holding lines of the loop's own first buffer.  Most
    sites are loads and stores at one stride, each on a buffer of its own;
    one in four after the first streams the first buffer up to 512 lines
    ahead of it, so it meets what the first site left behind.  One
    program in eight adds an NT-store, software-prefetch or gather site,
    which the fast-forward refuses."""
    b = ProgramBuilder()
    regs = b.regs(2)
    stride = rng.choice(_STREAM_STRIDES)
    width = rng.choice((64, 64, 128, 256))
    lines = rng.randint(2048, 6144)
    trips = lines * 64 // stride
    n_sites = rng.randint(1, 4)
    span = stride * trips + 128  # room for a prefetch's whole line
    # each site's lead over the first, in lines, when it shares its buffer
    ahead = [0] + [rng.randint(1, 512) if rng.randint(0, 3) == 0 else 0
                   for _ in range(1, n_sites)]
    bufs = [b.buffer(f"s{k}", span + (max(ahead) * 64 if k == 0 else 0))
            for k in range(n_sites)]
    prefix = rng.randint(0, 3)
    if prefix:
        old = b.buffer("old", _STREAM_L3_LINES * 64)
        count = (_STREAM_L3_LINES if prefix == 1
                 else rng.randint(1, 64) if prefix == 3
                 else rng.randint(1, _STREAM_L3_LINES))
        # 1: clean lines fill the L3; 2: part of it dirty, over older
        # clean lines; 3: up to 64 lines of the first buffer, within its
        # first 3,072, which the loop may meet in the periods it skips
        if prefix == 2:
            with b.loop(_STREAM_L3_LINES) as i:
                b.load(old[i * 64], width=64)
        target = bufs[0] if prefix == 3 else old
        limit = min(count, span // 64)
        start = (rng.randint(0, min(span // 64 - limit, 3072)) * 64
                 if prefix == 3 else 0)
        with b.loop(limit) as i:
            if prefix == 1 or rng.randint(0, 1):
                b.load(target[i * 64 + start], width=64)
            else:
                b.store(regs[0], target[i * 64 + start], width=64)
    odd = rng.randint(0, 7) == 0
    with b.loop(trips) as i:
        for k, buf in enumerate(bufs):
            offset = rng.randint(0, 7) * 8 + ahead[k] * 64
            addr = (bufs[0] if ahead[k] else buf)[i * stride + offset]
            if odd and k == n_sites - 1:
                kind = rng.randint(0, 2)
                if kind == 0:
                    b.store(regs[1], addr, width=width, nt=True)
                elif kind == 1:
                    b.prefetch(addr)
                else:
                    table = b.index_table(
                        "tab", [j * stride for j in range(trips)])
                    b.gather(buf, table[i], width=64)
            elif rng.randint(0, 1):
                b.load(addr, width=width)
            else:
                b.store(regs[1], addr, width=width)
    return b.build()
