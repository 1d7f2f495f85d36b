"""Unit constants, conversions, and human-readable formatting.

The roofline methodology juggles three axes — flops, bytes, and seconds —
and the paper reports everything in flops/cycle, GB/s, and flops/byte.
This module centralises the conversions so no magic constants leak into
the rest of the code base.
"""

from __future__ import annotations

import math

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

DOUBLE_BYTES = 8
SINGLE_BYTES = 4
CACHE_LINE_BYTES = 64
PAGE_BYTES = 4096


def format_bytes(n: float) -> str:
    """Render a byte count with a binary suffix, e.g. ``'2.5 MiB'``."""
    if n < 0:
        return "-" + format_bytes(-n)
    for suffix, scale in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if n >= scale:
            return f"{n / scale:.2f} {suffix}"
    return f"{n:.0f} B"


def format_flops(flops_per_second: float) -> str:
    """Render a flop rate, e.g. ``'12.80 Gflop/s'``."""
    if flops_per_second >= 1e9:
        return f"{flops_per_second / 1e9:.2f} Gflop/s"
    if flops_per_second >= 1e6:
        return f"{flops_per_second / 1e6:.2f} Mflop/s"
    return f"{flops_per_second:.1f} flop/s"


def format_bandwidth(bytes_per_second: float) -> str:
    """Render a bandwidth, e.g. ``'38.40 GB/s'`` (decimal, as the paper)."""
    if bytes_per_second >= 1e9:
        return f"{bytes_per_second / 1e9:.2f} GB/s"
    if bytes_per_second >= 1e6:
        return f"{bytes_per_second / 1e6:.2f} MB/s"
    return f"{bytes_per_second:.1f} B/s"


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e9:.1f} ns"


def format_intensity(flops_per_byte: float) -> str:
    """Render an operational intensity, e.g. ``'0.083 F/B'``."""
    return f"{flops_per_byte:.3g} F/B"


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Exact integer log2; raises ``ValueError`` for non powers of two."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest ``multiple``."""
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    return ((value + multiple - 1) // multiple) * multiple


def round_to(value: int, multiple: int) -> int:
    """Round ``value`` to the nearest positive multiple of ``multiple``."""
    return max(multiple, int(round(value / multiple)) * multiple)


def geometric_sizes(lo: int, hi: int, per_decade: int = 4) -> list:
    """Geometrically spaced integer sizes in ``[lo, hi]``, inclusive.

    Used by experiment sweeps to sample problem sizes evenly on the
    log axis of the roofline plot.
    """
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    sizes = []
    ratio = 10.0 ** (1.0 / per_decade)
    value = float(lo)
    while value <= hi * 1.0000001:
        size = int(round(value))
        if not sizes or size > sizes[-1]:
            sizes.append(size)
        value *= ratio
    if sizes[-1] != hi:
        sizes.append(hi)
    return sizes


def pow2_sizes(lo_exp: int, hi_exp: int, step: int = 1) -> list:
    """Powers of two ``2**lo_exp .. 2**hi_exp`` with an exponent step."""
    if hi_exp < lo_exp:
        raise ValueError("hi_exp must be >= lo_exp")
    return [2 ** e for e in range(lo_exp, hi_exp + 1, step)]


def mean(values) -> float:
    """Arithmetic mean of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = sorted(values)
    if not values:
        raise ValueError("median of empty sequence")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def geomean(values) -> float:
    """Geometric mean of a non-empty sequence of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
