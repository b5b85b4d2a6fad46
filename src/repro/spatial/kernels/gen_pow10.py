"""Generate the power-of-ten table of the native float writer.

The shortest round-trip double writer in ``_kernels.c`` is Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020).  It scales
a double ``c * 2**q`` by ``10**(-k)`` through one 126-bit multiplier per
decimal exponent ``k``: writing ``10**(-k) = beta * 2**r`` with
``2**125 <= beta < 2**126``, the table holds ``g = floor(beta) + 1``,
split as ``g = g1 * 2**63 + g0``, for every ``k`` in
``[K_MIN, K_MAX] = [-324, 292]`` (the range of ``floor(log10(2**q))``
over the binary exponents of doubles).

The table is computed here with Python's exact integers and pasted
between the ``BEGIN``/``END`` markers of ``_kernels.c``, so nothing is
generated at import or build time.  ``tests/test_float_writer.py``
reruns :func:`table_source` and compares it with the compiled text.
The three ``floor(log)`` approximations the C code shares with the
generator are checked exactly over the range they are used on.

Usage::

    python -m repro.spatial.kernels.gen_pow10          # print the block
    python -m repro.spatial.kernels.gen_pow10 --write  # update _kernels.c
"""

from __future__ import annotations

import os
import sys
from typing import List, Tuple

__all__ = ["K_MAX", "K_MIN", "BEGIN", "END", "compiled_source",
           "table", "table_source"]

K_MIN = -324
K_MAX = 292
BEGIN = "/* BEGIN GENERATED: python -m repro.spatial.kernels.gen_pow10 */"
END = "/* END GENERATED */"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")
_MASK63 = (1 << 63) - 1


def flog10pow2(e: int) -> int:
    """``floor(log10(2**e))`` as the C code computes it."""
    return (e * 661971961083) >> 41


def flog10threequarterspow2(e: int) -> int:
    """``floor(log10(3/4 * 2**e))`` as the C code computes it."""
    return (e * 661971961083 - 274743187321) >> 41


def flog2pow10(e: int) -> int:
    """``floor(log2(10**e))`` as the C code computes it."""
    return (e * 913124641741) >> 38


def _floor_log(num: int, den: int, base: int) -> int:
    """Exact ``floor(log_base(num / den))`` for positive integers."""
    k = 0
    while num >= den * base:
        den *= base
        k += 1
    while num < den:
        num *= base
        k -= 1
    return k


def _check_logs() -> None:
    for q in range(-1074, 972):
        num, den = (1 << q, 1) if q >= 0 else (1, 1 << -q)
        if flog10pow2(q) != _floor_log(num, den, 10) \
                or flog10threequarterspow2(q) != _floor_log(3 * num, 4 * den,
                                                            10):
            raise AssertionError(f"floor(log10) approximation wrong at {q}")
    for e in range(-K_MAX, -K_MIN + 1):
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        if flog2pow10(e) != _floor_log(num, den, 2):
            raise AssertionError(f"floor(log2) approximation wrong at {e}")


def table() -> List[Tuple[int, int]]:
    """``(g1, g0)`` for ``k = K_MIN .. K_MAX``."""
    _check_logs()
    out = []
    for k in range(K_MIN, K_MAX + 1):
        e = -k
        r = flog2pow10(e) - 125
        # beta = 10**e / 2**r, exactly, as num / den.
        num = 10 ** e if e >= 0 else 1
        den = 1 if e >= 0 else 10 ** -e
        if r >= 0:
            den <<= r
        else:
            num <<= -r
        g = num // den + 1
        if not (1 << 125) < g < (1 << 126):
            raise AssertionError(f"multiplier of 10**{e} out of range")
        out.append((g >> 63, g & _MASK63))
    return out


def table_source() -> str:
    """The C text between (and including) the markers."""
    lines = [BEGIN,
             f"#define SF_K_MIN ({K_MIN})",
             f"#define SF_K_MAX {K_MAX}",
             "static const uint64_t sf_g[2 * (SF_K_MAX - SF_K_MIN + 1)] = {"]
    for k, (g1, g0) in zip(range(K_MIN, K_MAX + 1), table()):
        lines.append(f"    0x{g1:016x}ULL, 0x{g0:016x}ULL, /* {k:4d} */")
    lines += ["};", END]
    return "\n".join(lines) + "\n"


def compiled_source() -> str:
    """The marked block as it stands in ``_kernels.c``."""
    with open(_SOURCE, encoding="utf-8") as handle:
        text = handle.read()
    start = text.index(BEGIN)
    stop = text.index(END, start) + len(END) + 1
    return text[start:stop]


def main(argv: List[str]) -> int:
    block = table_source()
    if "--write" not in argv:
        sys.stdout.write(block)
        return 0
    with open(_SOURCE, encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace(compiled_source(), block)
    with open(_SOURCE, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
