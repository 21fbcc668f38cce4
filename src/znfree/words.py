"""Reduced words in a free group, encoded as tuples of nonzero ints.

Letter k (1-based generator index) is stored as +k, its inverse as -k.  The
encoding keeps the hot loops (cancellation at a concatenation seam, common
prefixes) cheap; symbol names live at the tower level.  All functions assume
their inputs are already reduced and only cancel at seams, so building a word
letter-by-letter through w_mul always stays reduced.
"""

from __future__ import annotations

Word = tuple[int, ...]

EPS: Word = ()


def w_gen(index: int, sign: int = 1) -> Word:
    if index < 1:
        raise ValueError("generator index is 1-based")
    return (sign * index,)


def w_inv(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def w_mul(a: Word, b: Word) -> Word:
    """Product of two reduced words (cancels at the seam only)."""
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def w_com(a: Word, b: Word) -> Word:
    """Longest common prefix."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return a[:i]


def is_cyclically_reduced(w: Word) -> bool:
    return len(w) < 2 or w[0] != -w[-1]


def w_cyclic_decompose(w: Word) -> tuple[Word, Word]:
    """Return (c, core) with w = c^{-1} core c and core cyclically reduced."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w_inv(w[:i]), w[i:j]


def w_primitive_root(w: Word) -> tuple[Word, int]:
    """Primitive root of a cyclically reduced word: w = root^k, k maximal.

    For the empty word returns (EPS, 0).
    """
    n = len(w)
    if n == 0:
        return EPS, 0
    if not is_cyclically_reduced(w):
        raise ValueError("primitive root needs a cyclically reduced word")
    for d in range(1, n + 1):
        if n % d:
            continue
        root = w[:d]
        if all(w[i] == root[i % d] for i in range(n)):
            return root, n // d
    raise AssertionError("unreachable")


def w_rotations(w: Word):
    for i in range(max(1, len(w))):
        yield w[i:] + w[:i]


def w_is_conjugate(a: Word, b: Word) -> bool:
    """Exact conjugacy of free group elements (cyclic word comparison)."""
    _, ca = w_cyclic_decompose(a)
    _, cb = w_cyclic_decompose(b)
    if len(ca) != len(cb):
        return False
    if not ca:
        return True
    return any(ca == r for r in w_rotations(cb))
