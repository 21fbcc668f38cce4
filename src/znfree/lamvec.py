"""Exact arithmetic in Z^n ordered right-lexicographically.

Vectors are tuples of python ints stored least-significant-first: index i is
the coordinate of height i+1, the LAST entry is the most significant one.
Different lengths are fine everywhere; shorter vectors are implicitly padded
with zeros on the right.  All comparisons are right-lex: the highest index
where the vectors differ decides.
"""

from __future__ import annotations

from itertools import zip_longest


def vunit(level: int, n: int | None = None) -> tuple[int, ...]:
    """Unit vector for height ``level`` (1-based)."""
    n = level if n is None else n
    if level < 1 or level > n:
        raise ValueError(f"unit level {level} out of range for rank {n}")
    return (0,) * (level - 1) + (1,) + (0,) * (n - level)


def vpad(v: tuple[int, ...], n: int) -> tuple[int, ...]:
    if len(v) == n:
        return v
    if len(v) > n:
        if any(v[n:]):
            raise ValueError(f"cannot truncate nonzero coords: {v} to rank {n}")
        return v[:n]
    return v + (0,) * (n - len(v))


def vadd(a, b):
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def vsub(a, b):
    return tuple(x - y for x, y in zip_longest(a, b, fillvalue=0))


def vneg(a):
    return tuple(-x for x in a)


def vscale(k: int, a):
    return tuple(k * x for x in a)


def vcmp(a, b) -> int:
    """Right-lex comparison: -1, 0 or 1."""
    for x, y in reversed(list(zip_longest(a, b, fillvalue=0))):
        if x != y:
            return 1 if x > y else -1
    return 0


def veq(a, b) -> bool:
    return vcmp(a, b) == 0


def vheight(a) -> int:
    """Index (1-based) of the most significant nonzero coordinate; 0 for 0."""
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            return i + 1
    return 0


def vat(a, level: int) -> int:
    """Coordinate at height ``level`` (1-based)."""
    if level < 1:
        raise ValueError("height is 1-based")
    return a[level - 1] if level <= len(a) else 0


def vhalf(a) -> tuple[int, ...]:
    """Exact halving; raises ValueError on an odd coordinate."""
    if any(x % 2 for x in a):
        raise ValueError(f"vector {a} is not divisible by 2")
    return tuple(x // 2 for x in a)
