"""Ready-made towers: surface groups, free abelian groups, free products.

Conventions: a surface-style relation x1 * p * x1^{-1} = q is realized by a
stable letter conjugating the axis of q onto the axis of p (so the pinch
z * p * z^{-1} -> q makes the relator collapse to the identity).  For the
nonorientable family the raw axis pair misaligns at block junctions (the
tail period of the letter cancels into its own head period), so the target
axis is rotated by its first letter and the displayed generator is exposed
as an alias of the rotated letter.
"""

from __future__ import annotations

from . import tower as T
from . import words as W
from .hnn import extend_hnn
from .tower import GroupTower, base_tower, gen_elem, invert, multiply


def _chain(t: GroupTower, symbols) -> T.Elem:
    out = T.EPS
    for s in symbols:
        out = multiply(t, out, gen_elem(t, s))
    return out


def t1() -> GroupTower:
    """The tower <F(a,b), z | z^{-1} a z = b>."""
    t = base_tower(["a", "b"])
    return extend_hnn(t, "z", [gen_elem(t, "a")], [gen_elem(t, "b")])


def t_ab() -> GroupTower:
    """The tower <F(a), z | z^{-1} a z = a>, i.e. Z^2."""
    t = base_tower(["a"])
    a = gen_elem(t, "a")
    return extend_hnn(t, "z", [a], [a])


def free_tower(symbols) -> GroupTower:
    return base_tower(symbols)


def free_abelian(n: int) -> GroupTower:
    """Z^n as an iterated extension with identity isomorphisms."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    t = base_tower(["a"])
    axis = [gen_elem(t, "a")]
    for k in range(2, n + 1):
        t = extend_hnn(t, f"z{k}", axis, axis)
        axis = ([gen_elem(t, "a")]
                + [gen_elem(t, f"z{j}") for j in range(2, k + 1)])
    return t


def abelian_gens(t: GroupTower):
    """The n designated commuting generators of a free_abelian tower."""
    names = ["a"] + sorted(t.letters, key=lambda s: t.letters[s].level)
    return [gen_elem(t, s) for s in names]


def surface_orientable(n: int) -> GroupTower:
    """Orientable surface tower over F(x2,...,x_{2n}) with the relation
    x1 (x2...x_{2n}) x1^{-1} = x_{2n}...x2."""
    if n < 1:
        raise ValueError("genus must be at least 1")
    syms = [f"x{i}" for i in range(2, 2 * n + 1)]
    t = base_tower(syms)
    p = _chain(t, syms)
    q = _chain(t, reversed(syms))
    return extend_hnn(t, "x1", [q], [p], auto_rotate=False)


def surface_nonorientable(n: int) -> GroupTower:
    """Nonorientable surface tower over F(x2,...,xn) with the relation
    x1 (x2...xn) x1^{-1} = xn^{-1} x_{n-1} ... x2.

    The stored letter is "x1r" over the rotated target axis; "x1" is an
    alias equal to x1r * x2^{-1}, satisfying the displayed relation.
    """
    if n < 3:
        raise ValueError("nonorientable family starts at 3")
    syms = [f"x{i}" for i in range(2, n + 1)]
    t = base_tower(syms)
    p = _chain(t, syms)  # x2...xn
    q = multiply(t, invert(t, gen_elem(t, f"x{n}")),
                 _chain(t, reversed(syms[:-1])))  # xn^-1 x_{n-1} ... x2
    # rotate the target axis by x2 so block junctions stay cancellation-free
    x2 = gen_elem(t, "x2")
    p_rot = multiply(t, multiply(t, invert(t, x2), p), x2)
    t = extend_hnn(t, "x1r", [q], [p_rot], auto_rotate=False)
    x1 = multiply(t, gen_elem(t, "x1r"), invert(t, gen_elem(t, "x2")))
    return GroupTower(t.symbols, t.letters.values(),
                      {**t.aliases, "x1": x1})


def free_product(ta: GroupTower, tb: GroupTower) -> GroupTower:
    """Disjoint union of two towers; lengths embed both factors.  Letter
    names colliding with symbols or letters of the first factor get a prime
    appended.  Each letter is attached again through extend_hnn, in level
    order and without rotation."""
    off = len(ta.symbols)
    taken = set(ta.symbols) | set(ta.letters) | set(ta.aliases)
    sym_map = {}
    for s in tb.symbols:
        new = s
        while new in taken:
            new = new + "'"
        taken.add(new)
        sym_map[s] = new
    name_map = {}
    for nm in list(tb.letters) + list(tb.aliases):
        new = nm
        while new in taken:
            new = new + "'"
        taken.add(new)
        name_map[nm] = new
    merged = base_tower(list(ta.symbols) + [sym_map[s] for s in tb.symbols])

    def remap(t_new, e, offset, letters):
        if e.level == 1:
            return T.word_elem(tuple(k + offset if k > 0 else k - offset
                                     for k in e.word))
        parts = []
        for pp in e.parts:
            if isinstance(pp, T.Block):
                parts.append(T.Block(letters.get(pp.letter, pp.letter),
                                     pp.sign, pp.offset))
            else:
                parts.append(remap(t_new, pp, offset, letters))
        return T.build(t_new, e.level, parts)

    pending = ([(sl, 0, {}) for sl in ta.letters_by_level()]
               + [(sl, off, name_map) for sl in tb.letters_by_level()])
    pending.sort(key=lambda item: item[0].level)
    for sl, offset, letters in pending:
        src = [remap(merged, x, offset, letters) for x in sl.source_gens]
        tgt = [remap(merged, x, offset, letters) for x in sl.target_gens]
        nm = letters.get(sl.name, sl.name)
        merged = extend_hnn(merged, nm, src, tgt, level=sl.level,
                            auto_rotate=False)
    aliases = dict(ta.aliases)
    for nm, e in tb.aliases.items():
        aliases[name_map[nm]] = remap(merged, e, off, name_map)
    if aliases:
        merged = GroupTower(merged.symbols, merged.letters.values(), aliases)
    return merged


def check_regular_basis(t: GroupTower, elems) -> bool:
    """True iff every two distinct elements of the symmetrized list have
    distinct initial letters (base-level elements only)."""
    seen = {}
    for e in elems:
        if e.level != 1 or not e.word:
            raise ValueError("basis candidates must be nontrivial base words")
        for w in (e.word, W.w_inv(e.word)):
            first = w[0]
            if first in seen and seen[first] != w:
                return False
            seen[first] = w
    return True
