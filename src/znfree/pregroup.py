"""Single-letter pieces, reduced piece sequences, and per-level splitting.

For a reduced symmetric generating set Z, the pieces are the elements that
are either of weight zero or of the form h1 * f * h2 with f a positive-weight
generator and h1, h2 of weight zero.  Products of two pieces are decided by
an explicit criterion on the bordering factors; sequences of pieces reduce
greedily and all reduced sequences of the same element share their length
and are weight-additive.  split_level recovers from Z the data of the top
HNN layer: the weight-zero base, the stable letters, and the commuting
subgroups each letter conjugates.
"""

from __future__ import annotations

import itertools
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


def _require_reduced(t, Z):
    if not isinstance(Z, N.GenSet):
        Z = N.GenSet(t, Z)
    if Z.reduced_at != N.H_RADIUS:
        bad = N.is_reduced(t, Z, N.H_RADIUS)
        if bad:
            raise T.TowerRejection("generating-set-not-reduced",
                                   "; ".join(bad))
        Z.reduced_at = N.H_RADIUS
    return Z


_RADIUS = 8  # exponent bound of decompose's axis search


def _skeleton(t, x):
    return [(p.letter, p.sign) for p in T._parts_at(x, t.rank)
            if isinstance(p, T.Block)]


@dataclass
class Decomposition:
    h1: Elem
    f: Elem
    h2: Elem


def decompose(t, Z, x: Elem) -> Decomposition | None:
    """Write x as h1 * f * h2 with f in the positive part of Z and h1, h2 of
    weight zero, or return None.

    The margin ambiguity (axis material crossing the first letter) is
    resolved by an exponent search bounded by _RADIUS in each coordinate, so
    very large axis corrections can be missed; the check that closes each
    candidate is exact."""
    if not isinstance(Z, N.GenSet):
        Z = N.GenSet(t, Z)
    if t.rank == 1:
        return None
    lam = T.lam_len(t, x)
    if lam == 0:
        return None
    sk = _skeleton(t, x)
    p0 = x.parts[0]
    # axis generators that commute across the first block from the left
    gens = T._axes(t, x.parts[1])[0]
    cands = sorted(itertools.product(range(-_RADIUS, _RADIUS + 1),
                                     repeat=len(gens)),
                   key=lambda e: sum(abs(v) for v in e))
    for f in Z.positive():
        if T.lam_len(t, f) != lam or _skeleton(t, f) != sk:
            continue
        q0i = T.invert(t, f.parts[0])
        fi = Z.inverse(f)
        for exps in cands:
            h1 = T.multiply(t, T.multiply(t, p0, T.gens_power(t, gens, exps)),
                            q0i)
            h2 = T.multiply(t, T.multiply(t, fi, T.invert(t, h1)), x)
            if T.lam_len(t, h2) == 0:
                return Decomposition(h1, f, h2)
    return None


def pz_membership(t, Z, x: Elem) -> bool:
    """True iff x has weight zero or splits around a single positive
    generator of Z."""
    Z = _require_reduced(t, Z)
    if t.rank == 1 or T.lam_len(t, x) == 0:
        return True
    return decompose(t, Z, x) is not None


def pz_product_defined(t, Z, x: Elem, y: Elem) -> bool:
    """Whether the product of two pieces is again a piece: the inner
    generators must be mutually inverse and the conjugated middle must drop
    to weight zero."""
    Z = _require_reduced(t, Z)
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
    Z = _require_reduced(t, Z)
    items = [x for x in seq.items]
    changed = True
    while changed:
        changed = False
        items = [x for x in items if not T.is_identity(x)]
        for i in range(len(items) - 1):
            if pz_product_defined(t, Z, items[i], items[i + 1]):
                merged = T.multiply(t, items[i], items[i + 1])
                items[i:i + 2] = [merged]
                changed = True
                break
    if not items:
        items = [EPS]
    return PSequence(items)


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
    Z = _require_reduced(t, Z)
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
    A witness is a c of the base ball with y^-1*c*y of weight zero; it and
    each image are read along y's pinch chain
    (tower._weight_zero_conjugate), so no top-level conjugate is built."""
    Z = _require_reduced(t, Z)
    if t.rank == 1:
        return LevelSplit(base_gens=Z.pair_reps(), stable_letters=[])
    base = Z.pair_reps(Z.zero())
    stable = []
    for y in Z.pair_reps(Z.positive()):
        witness = next(
            (c for c in N.ball(t, base, N.H_RADIUS) if not T.is_identity(c)
             and T._weight_zero_conjugate(t, y, c) is not None), None)
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
