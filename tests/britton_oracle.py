"""Equality of tower elements by Britton's lemma, apart from the margin rules.

A level-L element is a word in lower-level elements and the level-L stable
letters.  Its normal form lists blocks (z, s, d); a block stands for the
syllable z^s followed by its offset material, d over its right axis (the
target generators for s = +1, the source generators for s = -1).  The
product of a list of elements is the identity exactly when its syllables
Britton-reduce to the identity: a pinch z^-s x z^s with x in the left axis
of z^s becomes x's image in the right axis, and a word with no pinch left
that still holds a stable letter is not the identity (Britton's lemma,
Lyndon-Schupp IV.2).  So the oracle tells "one element with two keys"
apart from "a wrong element", which a comparison of keys cannot.

Only public names of `znfree` are read.  Below L the engine is trusted:
products of lower-level elements, `abelian_exponents` and `gens_power`.
At level L nothing of the engine runs: an inverse's syllables are the
element's reversed, each letter's sign flipped and each lower-level element
inverted, so `invert` is never called at level L.
"""

from znfree import tower as T


def axes(t, letter, sign):
    """(left, right) axes of the signed letter z^sign: x z^s = z^s x' for x
    in the left axis and x' its image in the right axis."""
    sl = t.letters[letter]
    if sign > 0:
        return sl.source_gens, sl.target_gens
    return sl.target_gens, sl.source_gens


def syllables(t, g, L):
    """g as an alternating list [x0, (z, s), x1, ..., xk] of level-L signed
    letters and lower-level elements; [g] when g is a word or lies below
    L."""
    if g.level == 1 or g.level < L:
        return [g]
    out = [g.parts[0]]
    for blk, x in zip(g.parts[1::2], g.parts[2::2]):
        right = axes(t, blk.letter, blk.sign)[1]
        out += [(blk.letter, blk.sign),
                T.multiply(t, T.gens_power(t, right, blk.offset), x)]
    return out


def inverse(t, syl):
    """The syllables of the inverse of the element whose syllables are
    syl."""
    return [(x[0], -x[1]) if isinstance(x, tuple) else T.invert(t, x)
            for x in reversed(syl)]


def reduce(t, syl):
    """syl with every pinch cancelled, on a stack: a pinch can only form
    where the next letter meets the top."""
    out = [syl[0]]
    for i in range(1, len(syl), 2):
        (letter, sign), x = syl[i], syl[i + 1]
        if len(out) > 1 and out[-2] == (letter, -sign):
            left, right = axes(t, letter, sign)
            exps = T.abelian_exponents(t, left, out[-1])
            if exps is not None:
                del out[-2:]
                out[-1] = T.multiply(t, out[-1], T.multiply(
                    t, T.gens_power(t, right, exps), x))
                continue
        out += [(letter, sign), x]
    return out


def equal(t, left, right):
    """Whether the product of the elements in left equals that of the
    elements in right, by Britton's lemma at the top level among them."""
    L = max([g.level for g in (*left, *right)] + [1])
    syl = [T.EPS]
    for part in ([syllables(t, g, L) for g in left]
                 + [inverse(t, syllables(t, g, L)) for g in reversed(right)]):
        syl = syl[:-1] + [T.multiply(t, syl[-1], part[0])] + part[1:]
    out = reduce(t, syl)
    return len(out) == 1 and T.is_identity(out[0])
