"""Single-letter pieces, reduced piece sequences, and per-level splitting.

For a reduced symmetric generating set Z, the pieces are the elements that
are either of weight zero or of the form h1 * f * h2 with f a positive-weight
generator and h1, h2 of weight zero.  Products of two pieces are decided by
an explicit criterion on the bordering factors; sequences of pieces reduce
greedily and all reduced sequences of the same element share their length
and are weight-additive.  split_level recovers from Z the data of the top
HNN layer: the weight-zero base, the stable letters, and the commuting
subgroups each letter conjugates.

decompose reads its one unknown off x and f instead of searching for it.
Let x = h1*f*h2 with f a positive generator and h1, h2 of weight zero, and
let p0 and q0 be the first margins of x and f.  By Britton's lemma
(Lyndon-Schupp IV.2) h1*f keeps f's blocks, and margin phase 1 settles
h1*q0 against f's first block and leaves x's first margin p0, taking off
only material of that block's left axis: h1 = p0*a*q0^-1 with a in the
first block's left axis.  a slides into that block's offset.  Either it
stays there, and then equals the difference of x's and f's offsets at that
block, or it passes on.  It passes only where the next block's left axis
is the same maximal abelian subgroup across an identity margin: axes are
maximal, and groups with a free Lambda-valued length function are
commutative-transitive (Alperin-Bass, "Length functions of group actions
on Lambda-trees", 1987).  There the normal form carries it whole into the
next block, where the same holds.  So the first block j whose offset
differs fixes a: with Q the part of f from its first block through block
j, and r^d that difference over block j's right axis, a*Q = Q*r^d, so
a = Q*r^d*Q^-1.  If no offset differs before the last block, a = 1 works,
since h2 may take up any difference at the last block.  decompose tries
a = 1, then that correction, and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import tower as T
from . import nielsen as N
from .tower import Elem, EPS
from .wordexpr import render


@dataclass
class PSequence:
    """A finite list of piece elements."""

    items: list


@dataclass
class LevelSplit:
    """The top HNN layer extracted from a reduced generating set: the
    weight-zero base generators and, per stable letter, the generators of
    the commuting subgroups it conjugates (sources and their images)."""

    base_gens: list
    stable_letters: list  # (letter elem, source gens, target gens)


def _skeleton(t, x):
    return [(p.letter, p.sign) for p in T._parts_at(t, x, t.rank)
            if isinstance(p, T.Block)]


@dataclass
class Decomposition:
    h1: Elem
    f: Elem
    h2: Elem


def decompose(t, Z, x: Elem) -> Decomposition | None:
    """Write x as h1 * f * h2 with f in the positive part of Z and h1, h2 of
    weight zero, or return None.

    Exact, with no search: for each f with x's weight and blocks, h1 is
    p0*a*q0^-1, p0 and q0 the first margins of x and f, and a is 1 or the
    correction read off the first block before the last whose offset
    differs between x and f (_axis_material, module docstring).  A correction carried past a
    junction it does not pass leaves the axis, so h1 is checked to have
    weight zero as h2 is."""
    if not isinstance(Z, N.GenSet):
        Z = N.GenSet(t, Z)
    if t.rank == 1:
        return None
    lam = T.lam_len(t, x)
    if lam == 0:
        return None
    sk = _skeleton(t, x)
    p0 = x.parts[0]
    for f in Z.positive():
        if T.lam_len(t, f) != lam or _skeleton(t, f) != sk:
            continue
        q0i = T.invert(t, f.parts[0])
        fi = Z.inverse(f)
        for a in _axis_material(t, x, f):
            h1 = T.multiply(t, T.multiply(t, p0, a), q0i)
            if T.lam_len(t, h1) != 0:
                continue
            h2 = T.multiply(t, T.multiply(t, fi, T.invert(t, h1)), x)
            if T.lam_len(t, h2) == 0:
                return Decomposition(h1, f, h2)
    return None


def _axis_material(t, x, f):
    """The two values decompose tries for a: 1, then, if some block before
    the last has an offset that differs between x and f, Q*r^d*Q^-1 for the
    first such block j, where Q is f's blocks and margins from the first
    block through j and r^d is the offset difference over j's right axis:
    a*Q = Q*r^d."""
    yield EPS
    j = next((j for j in range(1, len(f.parts) - 2, 2)
              if x.parts[j].offset != f.parts[j].offset), None)
    if j is not None:
        q = T.build(t, t.rank, [EPS, *f.parts[1:j + 1], EPS])
        d = [u - v for u, v in zip(x.parts[j].offset, f.parts[j].offset)]
        r = T.gens_power(t, T._side(t, f.parts[j]).right, d)
        yield T.multiply(t, T.multiply(t, q, r), T.invert(t, q))


def pz_membership(t, Z, x: Elem) -> bool:
    """True iff x has weight zero or splits around a single positive
    generator of Z."""
    Z = N._require_reduced(t, Z)
    if t.rank == 1 or T.lam_len(t, x) == 0:
        return True
    return decompose(t, Z, x) is not None


def pz_product_defined(t, Z, x: Elem, y: Elem) -> bool:
    """Whether the product of two pieces is again a piece: the inner
    generators must be mutually inverse and the conjugated middle must drop
    to weight zero."""
    Z = N._require_reduced(t, Z)
    if t.rank == 1:
        return True
    lx, ly = T.lam_len(t, x), T.lam_len(t, y)
    if lx == 0 or ly == 0:
        return True
    dx = decompose(t, Z, x)
    dy = decompose(t, Z, y)
    if dx is None or dy is None:
        raise T.TowerRejection("not-a-piece",
                               render(t, x if dx is None else y))
    if dx.f.key != Z.inverse(dy.f).key:
        return False
    # dx.f * mid * dx.f^-1 = dy.f^-1 * mid * dy.f
    mid = T.multiply(t, dx.h2, dy.h1)
    return T._weight_zero_conjugate(t, dy.f, mid) is not None


def reduce_psequence(t, Z, seq: PSequence) -> PSequence:
    """Greedily merge adjacent items whose product is again a piece until
    none merges; the represented element never changes."""
    # One pass over a stack with no defined adjacent pair: each item merges
    # into the top while the product is defined, which is the leftmost
    # defined pair, so the merges are those of rescanning from the start
    # after each one, in the same order.  Identities drop out.
    Z = N._require_reduced(t, Z)
    items = []
    for x in seq.items:
        while (items and not T.is_identity(x)
               and pz_product_defined(t, Z, items[-1], x)):
            x = T.multiply(t, items.pop(), x)
        if not T.is_identity(x):
            items.append(x)
    return PSequence(items or [EPS])


@dataclass
class PregroupReport:
    ok: bool
    checked: int = 0
    failures: list = field(default_factory=list)


def _random_piece(t, Z, rng):
    pos = Z.pair_reps(Z.positive())
    zero = Z.pair_reps(Z.zero())
    margin = lambda: _random_word(t, zero, rng, 3)  # noqa: E731
    if not pos or (zero and rng.random() < 0.25):
        return margin()
    f = rng.choice(pos)
    if rng.random() < 0.5:
        f = T.invert(t, f)
    return T.multiply(t, T.multiply(t, margin(), f), margin())


def _random_word(t, gens, rng, n):
    out = EPS
    for _ in range(rng.randrange(n + 1)):
        g = rng.choice(gens) if gens else EPS
        if rng.random() < 0.5:
            g = T.invert(t, g)
        out = T.multiply(t, out, g)
    return out


def verify_pregroup(t, Z, sample_size: int, seed: int = 0) -> PregroupReport:
    """Sampled checks: pieces are closed under inverse; independently
    refactored sequences for one element reduce to the same length; the
    weight of the product is the sum of the weights of a reduced sequence."""
    Z = N._require_reduced(t, Z)
    rng = random.Random(seed)
    rep = PregroupReport(ok=True)
    for _ in range(sample_size):
        rep.checked += 1
        x = _random_piece(t, Z, rng)
        if pz_membership(t, Z, x) != pz_membership(t, Z, T.invert(t, x)):
            rep.ok = False
            rep.failures.append(f"inverse-closure: {render(t, x)}")
            continue
        k = rng.randrange(1, 4)
        items = [_random_piece(t, Z, rng) for _ in range(k)]
        seq = PSequence(list(items))
        red = reduce_psequence(t, Z, seq)
        # refactor: split one item at a weight-zero margin, or rotate a
        # weight-zero factor across a boundary
        alt = []
        for x in items:
            d = decompose(t, Z, x)
            if d is not None and rng.random() < 0.5:
                alt.extend([d.h1, T.multiply(t, d.f, d.h2)])
            else:
                alt.append(x)
        red2 = reduce_psequence(t, Z, PSequence(alt))
        prod = EPS
        for x in items:
            prod = T.multiply(t, prod, x)
        if len(red.items) != len(red2.items):
            rep.ok = False
            rep.failures.append(
                f"length-mismatch: {render(t, prod)} -> "
                f"{len(red.items)} vs {len(red2.items)}")
            continue
        total = sum(T.lam_len(t, u) for u in red.items)
        if total != T.lam_len(t, prod):
            rep.ok = False
            rep.failures.append(
                f"weight-not-additive: {render(t, prod)} "
                f"sum={total} weight={T.lam_len(t, prod)}")
    return rep


def split_level(t, Z) -> LevelSplit:
    """Extract the top HNN layer: base = weight-zero generators, one stable
    letter per positive inverse pair, and for each letter the commuting
    subgroup it pinches (found through centralizers of pinch witnesses).
    A witness is the first c of the base ball, in ball order, with
    y^-1*c*y of weight zero: the first self-overlap of y, held by Z's
    reducedness scan, whose record carries that weight-zero conjugate (it
    is total, see nielsen's module docstring).  Each image is read along
    y's pinch chain (tower._weight_zero_conjugate), so no top-level
    conjugate is built.

    Only y's self-overlaps are looked at: if y^-1*c*y = d has weight zero,
    then c*y = y*d, and the head of y*d is y's own head, since by Britton's
    lemma (Lyndon-Schupp IV.2) y*d keeps y's blocks and only the last
    margin takes d, so margin phase 1 leaves y's settled first margin as it
    is.  So head(c*y) = head(y), c != 1 is an overlap of y, and the first
    witness is the one a test of the whole ball would find."""
    Z = N._require_reduced(t, Z)
    if t.rank == 1:
        return LevelSplit(base_gens=Z.pair_reps(), stable_letters=[])
    base = Z.pair_reps(Z.zero())
    # The scan's ball is N.ball(t, Z.zero(), H_RADIUS), kept as the words
    # of that walk where they are words, in its order.  It lists the
    # elements of N.ball(t, base, H_RADIUS) in the same order: ball walks
    # each generator and then its inverse, at the first member of their
    # pair, and Z.zero() is closed under inversion and in the render order
    # in which pair_reps keeps the first member of each pair.  The overlaps
    # of each f come in that ball order.
    overlaps = Z._overlaps
    stable = []
    for y in Z.pair_reps(Z.positive()):
        witness = next((c for f, c, x in overlaps
                        if f.key == y.key and x is not None), None)
        src, tgt = [], []
        if witness is not None:
            for g in T.subgroup_gens(t, T.centralizer(t, witness)):
                if T.lam_len(t, g) != 0:
                    continue
                img = T._weight_zero_conjugate(t, y, g)
                if img is not None:
                    src.append(g)
                    tgt.append(img)
        stable.append((y, src, tgt))
    return LevelSplit(base_gens=base, stable_letters=stable)
