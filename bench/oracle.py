"""Independent free-group oracle for the free-base workload.

Words are tuples of nonzero ints (+k for generator k, -k for its inverse),
the encoding the engine's base layer uses.  Nothing here imports the engine:
these routines are the reference the engine's answers are checked against.
"""

from __future__ import annotations


def reduce(w) -> tuple:
    """Free reduction by scan-and-cancel."""
    out: list = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inv(w) -> tuple:
    return tuple(-x for x in reversed(w))


def mul(*ws) -> tuple:
    out: tuple = ()
    for w in ws:
        out = reduce(out + tuple(w))
    return out


def lcp(a, b) -> tuple:
    """Longest common prefix."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return tuple(a[:n])


def cyclic_core(w) -> tuple[tuple, tuple]:
    """(p, core) with w = p * core * p^-1 and core cyclically reduced."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[:i]), tuple(w[i:j])


def _text(w) -> str:
    return "".join(chr(0x100 + x) for x in w)


def periodic_root(core) -> tuple[tuple, int]:
    """Smallest period of a cyclically reduced word: core = root^k."""
    n = len(core)
    if n == 0:
        return (), 0
    # the smallest rotation mapping the word to itself is its period, and it
    # divides the length
    d = (_text(core) * 2).find(_text(core), 1)
    return tuple(core[:d]), n // d


def conjugate(a, b) -> bool:
    """Conjugacy in a free group: cyclic cores are rotations of each other."""
    ca, cb = cyclic_core(a)[1], cyclic_core(b)[1]
    if len(ca) != len(cb):
        return False
    return _text(cb) in _text(ca) * 2


def parity(w, mask) -> int:
    """Exponent sum mod 2 of the generators in mask, a homomorphism onto
    Z/2."""
    return sum(1 for x in w if abs(x) in mask) % 2
