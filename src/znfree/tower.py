"""Block normal forms for HNN towers of groups with Z^n-valued lengths.

The tower is built in layers.  Layer 1 is a free group on a finite alphabet;
each stable letter z sits at a level i >= 2 and conjugates one cyclically
reduced free abelian "axis" subgroup A (source) onto another, B (target):
z^{-1} a z = phi(a), with phi determined by mapping the graded generator list
of A onto that of B.  An element of level L is stored as an alternating tuple

    (e_0, B_0, e_1, B_1, ..., e_k)

of lower-level elements e_j and blocks B_j = (letter, sign, offset).  A block
with sign +1 and offset d stands for the bi-periodic connecting word with d
extra copies of its tail period appended; sign -1 is its inverse.  The forms
kept here are fully reduced:

  * no pinch (z, -1) a (z, +1) with a in A, nor (z, +1) b (z, -1) with b in B;
  * axis elements are slid rightward through blocks (a z = z phi(a));
  * margins are stabilized: the element left of a block neither ends with the
    block's head period nor cancels into it at all, and symmetrically for the
    element to the right against the tail period.

With these constraints lengths are additive over the parts, which is what
makes every length/height computation exact.

The form is unique: an element has one reduced form, which is Britton's
normal form theorem for HNN extensions (Lyndon-Schupp IV.2) applied level by
level.  The module trusts it and keeps no second path.  When one operand
of `multiply` is the identity, the other is returned as is, at every level,
since normalizing a normal form gives it back; `equals` is equality of
`Elem.key`s; and axis material is built only by `gens_power`, whose factors
commute in the abelian axis, so their order cannot change the result.

Axis material next to a block can only sit at the element's end (Britton's
normal form again), so `_peel` reads the end first: a word's letters, an
outer block, or the outer part.  It tests the whole element with
`abelian_exponents` only where that strips nothing, above level 1, and its
answers are those of testing the whole element first.  The whole test can
hit only on a generator list whose end steps do not decide membership.
They do decide it (`_ends_decide`, one flag per list in the side record)
when each generator is a word, which can only come first, or a zero-offset
letter element (EPS, (z, +-1, 0), EPS) that comes first or whose letter's
source and target generators all come earlier in the list.  Induct on the
list.  An element of the group it generates is x*z^m, with z the last
generator and x in the group of the earlier ones; if m = 0, x is the case
before.  Otherwise x commutes with z, so (Britton) x lies in z's left axis
and phi(x) = x, and the normal form of x*z^m is m blocks of z with
identity margins and x's exponents over the right axis in the last block's
offset: that list is a fixpoint of the passes.  Its end block has z as
letter and its offset periods in the list, so `_block_as_axis` strips it
whole, from either end.  The base case is a word alone, whose group holds
no element above level 1 (its height is above the word's), or a letter
element alone, whose powers are lists of zero-offset blocks.  So on such a
list every element of the group loses an end step, and the whole test,
reached only where none does, can never hit; `_peel` skips it.
`_settle` passes the flag of the list it peels by, `left_ends` in phase 1
and `right_ends` in phase 2.  The test stays on for a list with a generator
that is neither, such as z*a.

The inverse of a one-block element m0*B*m1 is its mirror image
m1^-1*(B's letter, -sign, -offset)*m0^-1, already normal: with one block
there is no pinch, no phase 3 and no next block, so phase 1 on the mirror
is phase 2 on the element read backwards, and the other way round.
`invert` returns it without `build`, with the element's length if that is
known.

Each margin rule has one owner.  Margin phases 1 and 2, a block's left and
right margins, are mirror images (Britton's lemma, Lyndon-Schupp IV.2) and
one loop, `_settle`: phase 1 peels the margin's right end by the left axis
and pulls with margin*head, phase 2 peels its left end by the right axis and
pulls with tail*margin, and phase 2 alone, given a next block, tests the
rightward flow.  `_margin_pass` runs phase 1, phase 2, then phase 3, over a
parts list.  Neither phase takes a step on an identity margin, so both
return such a margin at once: `_peel` strips nothing off the identity, and
`_additive` answers that a product with the identity is additive without
building it, as `multiply` returns the other operand as is.  `build` stops
after a pass that leaves at most one block, for the next pass would change
nothing: one block has no Britton triple and no phase 3; phase 1's steps
read only the margin and the block's letter and sign; with no next block,
phase 2 never takes the rightward-flow branch, so its steps do not read the
offset; and each phase loops to its own fixpoint.

Margin phase 3 moves the material m of a block's nonzero offset d across
an identity gap into the next block's offset when m lies in that block's left
axis A, where the next pass's phase 1 would absorb it; a pinch of the two
blocks sums both offsets and the gap's exponents, so it sees the same total.
Each GroupTower keeps a private table, (letter, sign, next letter, next
sign) -> transfer entry, that `_transfer` fills on a pair's first use, never
in `GroupTower.__init__`.  An entry holds each right-axis generator r_i's
exponent vector E_i over A, or None where r_i is outside A, and nothing is
built.  If every r_i with d_i != 0 lies in A, m lies in A with exponents
sum d_i E_i, A being abelian with a graded basis.  Otherwise m is not in A:
groups with a free Lambda-valued length function are commutative-transitive
(Alperin-Bass, "Length functions of group actions on Lambda-trees", 1987;
Chiswell, Introduction to Lambda-trees, 2001), and `extend_hnn` admits an
axis only when it is the whole centralizer of its top generator.  So the two
top generators do not commute, or every r_i would lie in A; an m in both
axes would commute with both, so m = 1, while d != 0 gives m != 1, the right
axis having a basis.

The exponents are added in the pass that finds them, so a run of blocks
with identity gaps passes material along in one pass, not one block per
pass.

`multiply` hands `build` the index of its seam, the margin where the two
operands meet.  Every other part comes from an operand's normal form, which
comes through one full pass unchanged: the operand's last pass found
nothing to do.  Each step reads a fixed set of parts.  A Britton triple
reads its margin, phase 1 the margin left of its block, phase 2 the block
and the margin right of it, phase 3 the block and the gap after it; the
block letters and signs they also read change only in a pinch.  A step
that acts writes a part it reads, so it runs again in the next pass.
Hence a step none of whose parts was written in this pass or the last one
has the inputs it had when it last ran, in an operand's build or an earlier
pass, and it did nothing then; `build` skips it.  The seam counts as
written before the first pass.  The passes take the steps full passes
take, in the same order, and a product of normal forms costs margin work at
its seam only.  A pinch shifts the indices, so from the first one on,
within that same Britton pass, every step runs, as it does in a build
without a seam.  The written parts are a bit mask over the indices, -1
standing for all of them.

`build` leaves the length vector unset.  `lenvec` takes the sum over the
parts on the first read, `block_len` for a block and `lenvec` for an
element, keeps it, and drops the tower the element held for it.  Most
elements made inside a normalization are never measured.

Questions about words are answered on the word tuples.  Heights rise
strictly along an axis and a word has height 1, so when a margin and its
block's head period are both words, the block's left axis is <c> and the
head period is c^+-1.  `_settle_word` then takes margin phase 1's steps on
the tuple: copies of c^+-1 stripped off the right end, as `_peel`'s level-1
step strips them, and the head period multiplied in where the junction
cancels, as `_additive` finds it.  `_settle` chooses it for a word margin
in phase 1.  On a word, `abelian_exponents` is `_peel`'s strip reaching the
identity: c is cyclically reduced, so c^k is c's word k times over.  Each
kernel takes the general path's steps in the same order, so its answers
are the general path's.  The scan's lookup rows (`_product_hits`) settle
nothing at all: they know each hit's margin before they find it.

A block's left and right axes, their inverses, and its head and tail periods
are constants of its signed letter (Britton's lemma, Lyndon-Schupp IV.2);
its offset periods are its right axis.  So are the vectors `block_len` adds
(the letter element's length and its axis generators' lengths, each padded
to the letter's level) and the keys of the letter element and its inverse,
which `_block_as_axis` looks for in a generator list.  Each GroupTower keeps
a private table, (letter name, sign) -> `_Side`, that `_side` fills for both
signs of a letter on its first use; towers are never changed after
construction, so an entry never goes stale.  The table is never filled in
`GroupTower.__init__`: construction runs before `validate_tower`, and
inverting the axes of an invalid tower could raise EngineError before the
tower's named TowerRejection.

Two private views answer questions about a top-level product from one seam,
without building it.  Both rest on Britton's lemma (Lyndon-Schupp IV.2):
a word with no pinch keeps its sequence of signed stable letters.
`_product_heads(t, g, hs)`, for hs of weight zero, is the row of heads of
h*g over h in hs (each its first margin with the letter and sign of its
first block, see `_head`): h*g has g's blocks, and its first margin is h
times g's settled against g's first block by margin phase 1
(`_settle`, the loop `_margin_pass` runs too).
`_product_hits(t, g, hs, index, heads)` is the row over the ball cut to its
entries in heads, a set of heads, in ball order; hs() gives the ball's
elements, made on the caller's first call, and index, where they are all
words, maps each word to its position in the ball and gives the longest
word's length.  Let every h of the ball, g's first margin m and its first
block's head period be words, so the left axis is <c>, c cyclically
reduced, and the period c^+-1.  `_settle_word` takes two kinds of step on
a word, stripping a copy of c^+-1 off its right end and multiplying the
period in on the right, so the settled margin of h*m is h*m*c^j for some
j, and a word it leaves settled neither ends in a copy of c^+-1 nor
cancels into the period.  So each coset x*<c> holds at most one settled
word: if two did, one would be the other times a positive power of the
period (swap them if not), and as the other's last letter does not cancel
into the period, that product is reduced as written and ends in a copy of
it.  The heads looked for are positive generators' heads, whose margins
are settled against blocks of the same letter and sign.  So h*g has the
head with word margin m_f exactly when h*m lies in m_f*<c>, h =
m_f*c^k*m^-1, and then h*m settles to m_f.  c^k = m_f^-1*h*m gives
|k|*|c| <= |m_f| + l + |m|, l the length of the longest word of the ball,
as c^k is c's word |k| times over.  So the row looks each candidate
m_f*c^k*m^-1 over that range of k up in index and makes the Elems of the
ones it finds, in ball order, each paired with the head it was looked up
under; it settles nothing.  A row with a non-word h, margin or period is
the full row over hs(), `_product_heads`, cut.
`_weight_zero_conjugate(t, y, c)`, for c of weight zero, is y^-1*c*y when
that has weight 0 and None otherwise: it follows the middle of the word
through y's blocks, one pinch at a time, and stops at the first block whose
left axis the middle leaves.

`com` cuts g at the Gromov product.  The length function is regular
(Chiswell, Introduction to Lambda-trees, 2001; Myasnikov-Remeslennikov-
Serbin, "Regular free length functions on Lyndon's free Z[t]-group",
2005): any g and h have a common initial segment of length
c(g, h) = (l(g) + l(h) - l(g^-1*h))/2, and an initial segment of a given
length is unique, so com(g, h) is `prefix_of`'s cut of g at c(g, h).
`_gromov_cut` makes that cut from g^-1*h, for a caller that holds it,
such as `nielsen.mu`.  Elements whose first base letters differ share only
the identity, which `com` returns without a product.  An element's first
letter is its first margin's, or, where that margin is the identity, its
first block's head period's, down the levels: a stabilized margin does not
cancel into its block, so lengths add over the two, and a block's value
begins with its head period.  Two words take `W.w_com`.

`prefix_of` cuts an element at a length by one rule.  Lengths add over the
parts, so the cut falls in one part, and the initial segment is the parts
before it times that part's cut at the remaining length: a word is sliced
and an element part is cut by recursion.  A block's value starts with its
head period u's infinite head, and its offset material comes after its
unit.  So a segment of it with no coordinate at its level ends inside
u^infinity: it is u^j times a cut of u, j the whole copies that fit, and
none exists if the length is higher than u.  A segment with top coordinate
1 leaves a tail with top coordinate 0, and that tail, read backwards, is a
head-region segment of the inverse block (z, -s, -d); the segment is the
block times it.  Roots are unique in a group acting freely on a
Lambda-tree, so `_root_cyclic`, which cuts a cyclically reduced core at
its length over reps from the most repetitions down, returns its first
hit, whose reps-th power is the core, as the root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lamvec import (
    vadd,
    vat,
    vcmp,
    veq,
    vhalf,
    vheight,
    vpad,
    vscale,
    vsub,
    vunit,
)
from . import words as W


class TowerError(Exception):
    pass


class EngineError(TowerError):
    """Internal invariant failure (should indicate an unsupported tower)."""


class TowerRejection(TowerError):
    """A proposed extension or tower violates a structural condition."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        super().__init__(condition if not detail else f"{condition}: {detail}")


_GUARD = 2000  # iteration cap for stabilization loops


@dataclass(frozen=True)
class Block:
    """One signed occurrence of a stable letter with trailing axis material.

    offset is an exponent tuple over the letter's axis generators (graded
    order, most significant last): the block's value is the connecting
    element (or its inverse) followed by the product of the output-side
    axis generators raised to these exponents."""

    letter: str
    sign: int
    offset: tuple


class Elem:
    """Immutable tower element; build only through the module functions."""

    __slots__ = ("level", "word", "parts", "_len", "_tower", "_key",
                 "_hash")

    def __init__(self, level, word, parts, lenvec, tower=None):
        self.level = level
        self.word = word
        self.parts = parts
        self._len = lenvec
        self._tower = tower  # read by lenvec while _len is None
        self._key = None
        self._hash = None

    @property
    def key(self):
        k = self._key
        if k is None:
            if self.level == 1:
                k = ("w", self.word)
            else:
                k = ("f", self.level, tuple(
                    p if isinstance(p, Block) else p.key
                    for p in self.parts))
            self._key = k
        return k

    def __eq__(self, other):
        return isinstance(other, Elem) and self.key == other.key

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key)
        return h

    def __repr__(self):
        return f"<Elem lvl={self.level} len={lenvec(self)}>"


def word_elem(w: W.Word) -> Elem:
    return Elem(1, w, None, (len(w),))


EPS = word_elem(W.EPS)


def lenvec(g: Elem):
    vec = g._len
    if vec is None:
        # the sum build leaves to the first read: each block's length and
        # each element part's
        t, acc = g._tower, [0] * g.level
        for p in g.parts:
            for i, x in enumerate(_part_len(t, p)):
                acc[i] += x
        vec = g._len = tuple(acc)
        g._tower = None
    return vec


def is_identity(g: Elem) -> bool:
    return g.level == 1 and not g.word


@dataclass(frozen=True)
class StableLetter:
    name: str
    level: int
    source_gens: tuple  # graded generators of A, heights strictly increasing
    target_gens: tuple  # phi images, same heights/lengths

    @property
    def u(self) -> Elem:
        return self.source_gens[-1]

    @property
    def v(self) -> Elem:
        return self.target_gens[-1]


@dataclass(frozen=True)
class AbelianSubgroup:
    """A centralizer: graded generators of its cyclically reduced form plus
    the conjugator c (the subgroup is c^{-1} <gens> c)."""

    gens: tuple
    conjugator: Elem = EPS

    @property
    def rank(self) -> int:
        return len(self.gens)


class GroupTower:
    def __init__(self, symbols, letters=(), aliases=None):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise TowerRejection("alphabet-duplicate")
        self.index = {s: i + 1 for i, s in enumerate(self.symbols)}
        self.letters: dict[str, StableLetter] = {}
        for sl in letters:
            if sl.name in self.letters or sl.name in self.index:
                raise TowerRejection("letter-name-conflict", sl.name)
            self.letters[sl.name] = sl
        self.rank = max([1] + [sl.level for sl in self.letters.values()])
        self.aliases = dict(aliases or {})
        for name in self.aliases:
            # gen_elem reads symbols and letters first: such an alias is
            # never read
            if name in self.index or name in self.letters:
                raise TowerRejection("alias-name-conflict", name)
        self._sides: dict[tuple[str, int], _Side] = {}
        self._transfers: dict[tuple[str, int, str, int], tuple] = {}

    def letters_by_level(self):
        return sorted(self.letters.values(), key=lambda s: (s.level, s.name))


def base_tower(symbols) -> GroupTower:
    return GroupTower(symbols)


def gen_elem(t: GroupTower, sym: str, sign: int = 1) -> Elem:
    if sym in t.index:
        return word_elem(W.w_gen(t.index[sym], sign))
    if sym in t.letters:
        return letter_elem(t, sym, sign)
    if sym in t.aliases:
        g = t.aliases[sym]
        return g if sign > 0 else invert(t, g)
    raise TowerError(f"unknown generator {sym!r}")


def zero_offset(t: GroupTower, name: str) -> tuple:
    return (0,) * len(t.letters[name].source_gens)


def letter_elem(t: GroupTower, name: str, sign: int = 1) -> Elem:
    sl = t.letters[name]
    vec = vpad(vunit(sl.level), sl.level)
    blk = Block(name, sign, zero_offset(t, name))
    return Elem(sl.level, None, (EPS, blk, EPS), vec)


# ---------------------------------------------------------------------------
# constants of a signed letter


@dataclass(frozen=True, slots=True)
class _Side:
    """The axes and periods of one signed letter.  a o blk = blk o a' for a
    in the left axis and a' its image in the right axis; the offsets count
    powers of the right axis generators; the block's value begins with the
    head period's infinite head and ends with the tail period.  unit is the
    letter element's length and axis_lens those of the axis generators, all
    padded to the letter's level; letter_keys are the keys of the letter
    element and its inverse, the same for both signs.  left_ends and
    right_ends say whether _peel's end steps alone decide membership in
    the group over left and right (see _ends_decide)."""

    left: tuple
    right: tuple
    left_inv: tuple
    right_inv: tuple
    head: Elem
    tail: Elem
    unit: tuple
    axis_lens: tuple
    letter_keys: tuple
    left_ends: bool
    right_ends: bool


def _side(t: GroupTower, blk: Block) -> _Side:
    """The side record of blk's letter and sign, from the tower's table; the
    first use of a letter fills both of its signs."""
    s = t._sides.get((blk.letter, blk.sign))
    if s is None:
        sl = t.letters[blk.letter]
        src, tgt = sl.source_gens, sl.target_gens
        isrc = tuple(invert(t, a) for a in src)
        itgt = tuple(invert(t, b) for b in tgt)
        z = letter_elem(t, sl.name)
        # source and target generators have equal lengths
        fixed = (lenvec(z), tuple(vpad(lenvec(a), sl.level) for a in src),
                 (z.key, letter_elem(t, sl.name, -1).key))
        src_ends, tgt_ends = _ends_decide(t, src), _ends_decide(t, tgt)
        t._sides[sl.name, 1] = _Side(
            src, tgt, isrc, itgt, sl.u, sl.v, *fixed, src_ends, tgt_ends)
        t._sides[sl.name, -1] = _Side(
            tgt, src, itgt, isrc, itgt[-1], isrc[-1], *fixed, tgt_ends,
            src_ends)
        s = t._sides[blk.letter, blk.sign]
    return s


def _ends_decide(t: GroupTower, gens) -> bool:
    """Whether _peel's end steps alone decide membership in the abelian
    group over the graded list gens, so that its whole-element test can
    never hit (module docstring): each generator is a word, which can only
    come first, or a zero-offset letter element (EPS, (z, +-1, 0), EPS)
    that comes first or whose letter's source and target generators all
    come earlier in the list."""
    seen = set()
    for i, g in enumerate(gens):
        if g.level > 1:
            sl = t.letters[g.parts[1].letter]
            if g.key not in (letter_elem(t, sl.name, s).key for s in (1, -1)):
                return False
            if i and not all(x.key in seen
                             for x in (*sl.source_gens, *sl.target_gens)):
                return False
        seen.add(g.key)
    return True


def block_len(t: GroupTower, blk: Block):
    """Length of the block's value.  Positive-sign blocks append their
    offset material after the periodic tail (extending it); negative-sign
    blocks' material cancels into the tail, shortening it."""
    s = _side(t, blk)
    vec = s.unit
    for d, lens in zip(blk.offset, s.axis_lens):
        if d:
            k = blk.sign * d
            vec = tuple(x + k * y for x, y in zip(vec, lens))
    return vec


def _part_len(t: GroupTower, p):
    """Length of one entry of a parts list, a block or an element."""
    return block_len(t, p) if isinstance(p, Block) else lenvec(p)


# ---------------------------------------------------------------------------
# core operations


def _parts_at(t, g: Elem, L: int):
    if g.level == L:
        return g.parts
    if g.level > L:
        raise EngineError(f"level mismatch: {_render_part(t, g)} has level "
                          f"{g.level}, above L = {L}")
    return (g,)


def multiply(t: GroupTower, g: Elem, h: Elem) -> Elem:
    if is_identity(g):
        return h
    if is_identity(h):
        return g
    if g.level == 1 and h.level == 1:
        a, b = g.word, h.word
        if a[-1] != -b[0]:
            return word_elem(a + b)  # reduced words: only the junction cancels
        return word_elem(W.w_mul(a, b))
    L = max(g.level, h.level)
    pg = _parts_at(t, g, L)
    ph = _parts_at(t, h, L)
    mid = multiply(t, pg[-1], ph[0])
    parts = list(pg[:-1]) + [mid] + list(ph[1:])
    return build(t, L, parts, len(pg) - 1)


def invert(t: GroupTower, g: Elem) -> Elem:
    if g.level == 1:
        return word_elem(W.w_inv(g.word))
    parts = []
    for p in reversed(g.parts):
        if isinstance(p, Block):
            parts.append(Block(p.letter, -p.sign,
                               tuple(-d for d in p.offset)))
        else:
            parts.append(invert(t, p))
    if len(parts) == 3:
        # one block: the mirror image is normal (module docstring)
        vec = g._len
        return Elem(g.level, None, tuple(parts), vec,
                    t if vec is None else None)
    return build(t, g.level, parts)


def pow_elem(t: GroupTower, g: Elem, k: int) -> Elem:
    if k < 0:
        return pow_elem(t, invert(t, g), -k)
    out = EPS
    base = g
    while k:
        if k & 1:
            out = multiply(t, out, base)
        k >>= 1
        if k:
            base = multiply(t, base, base)
    return out


def equals(t: GroupTower, g: Elem, h: Elem) -> bool:
    return g.key == h.key


def length(t: GroupTower, g: Elem):
    return vpad(lenvec(g), t.rank)


def height(t: GroupTower, g: Elem) -> int:
    return vheight(lenvec(g))


def lam_len(t: GroupTower, g: Elem) -> int:
    """Most significant coordinate of the length at the tower's top height."""
    return vat(lenvec(g), t.rank)


def _additive(t, a: Elem, b: Elem) -> tuple[bool, Elem | None]:
    """Whether lengths add in a*b, and the product when they do not (None
    may stand for the product when they do)."""
    if is_identity(a) or is_identity(b):
        return True, None  # multiply returns the other operand as is
    if a.level == 1 and b.level == 1 and a.word[-1] != -b.word[0]:
        return True, None  # reduced words: only the junction can cancel
    prod = multiply(t, a, b)
    return veq(lenvec(prod), vadd(lenvec(a), lenvec(b))), prod


# ---------------------------------------------------------------------------
# normal form construction


def gens_power(t: GroupTower, gens, exps) -> Elem:
    out = EPS
    for g, e in zip(gens, exps):
        if e:
            out = multiply(t, out, pow_elem(t, g, e))
    return out


def abelian_exponents(t: GroupTower, gens, x: Elem):
    """Exponent vector of x over a graded abelian generator list, or None."""
    if x.level == 1 and gens:
        # a word lies in the axis only as a power of the one generator that
        # can be a word, gens[0] = c, and c^k is c's word k times over (c is
        # cyclically reduced); _peel strips exactly those copies
        e, exps = _peel(t, x, gens, right=True)
        return exps if is_identity(e) else None
    exps = [0] * len(gens)
    cur = x
    for i in range(len(gens) - 1, -1, -1):
        c = gens[i]
        hc = vheight(lenvec(c))
        hx = vheight(lenvec(cur))
        if hx > hc:
            return None
        if hx < hc:
            continue
        lc = vat(lenvec(c), hc)
        lx = vat(lenvec(cur), hc)
        if lc == 0 or lx % lc:
            return None
        k = lx // lc
        for e in (k, -k):
            cand = multiply(t, cur, pow_elem(t, c, -e))
            if vheight(lenvec(cand)) < hc:
                cur = cand
                exps[i] = e
                break
        else:
            return None
    return exps if is_identity(cur) else None


def abelian_membership(t: GroupTower, gens, x: Elem) -> bool:
    return abelian_exponents(t, gens, x) is not None


def phi_of(t: GroupTower, sl: StableLetter, a: Elem) -> Elem:
    exps = abelian_exponents(t, sl.source_gens, a)
    if exps is None:
        raise TowerError(f"{a!r} is not in the source axis of {sl.name}")
    return gens_power(t, sl.target_gens, exps)


def _britton_pass(t, parts, hot=-1) -> int:
    """Cancel pinches, checking only the triples whose margin is hot (a
    bit mask over the parts' indices; -1, every bit, checks them all).
    Returns the mask of the parts written: 0, or -1 after a pinch, which
    shifts the indices, so every later triple is checked too."""
    wrote = 0
    i = 1
    while i + 2 < len(parts):
        b1, mid, b2 = parts[i], parts[i + 1], parts[i + 2]
        if (b1.letter == b2.letter and b1.sign == -b2.sign
                and hot >> (i + 1) & 1):
            # a pinch: mid in b2's left axis slides through b2 into its
            # right axis, and b1 b2 cancels
            s2 = _side(t, b2)
            exps = abelian_exponents(t, s2.left, mid)
            if exps is not None:
                exps = [e + d1 + d2
                        for e, d1, d2 in zip(exps, b1.offset, b2.offset)]
                repl = gens_power(t, s2.right, exps)
                merged = multiply(t, parts[i - 1],
                                  multiply(t, repl, parts[i + 3]))
                parts[i - 1:i + 4] = [merged]
                wrote = hot = -1
                i = max(1, i - 2)
                continue
        i += 2
    return wrote


def _vexadd(a, b):
    return [x + y for x, y in zip(a, b)]


def _block_as_axis(t, blk: Block, gens):
    """Exponents of a block's whole value over a gen list, or None.  The
    list may hold the block's letter element or its inverse."""
    keys = [g.key for g in gens]
    side = _side(t, blk)
    for s, k in zip((1, -1), side.letter_keys):
        if k in keys:
            break
    else:
        return None
    exps = [0] * len(gens)
    exps[keys.index(k)] += s * blk.sign
    pers = side.right
    for i, d in enumerate(blk.offset):
        if not d:
            continue
        k = pers[i].key
        if k not in keys:
            return None
        exps[keys.index(k)] += d
    return exps


def _peel(t, e, gens, right: bool, ends=False):
    """Split axis material over gens off one end of e: e = e' o (material)
    when right is set, e = (material) o e' otherwise.  Returns (e',
    exponents over gens).  Each step reads the end structurally (length
    cannot tell a trailing axis power from a nested block's periodic tail);
    e is tested whole only where a step strips nothing above level 1, and
    not at all when ends is set: the caller's side record says the end
    steps alone decide membership in gens (_ends_decide), so the test could
    never hit.  Where ends is not set it can: on an axis generator that is
    neither a word nor a letter element, such as z*a."""
    # The answers are those of testing e whole before each end step.  A hit
    # means e lies in the abelian axis; each end step strips an exact axis
    # factor, so such an e stays in it and the loop reaches the identity or
    # stops on an axis element, where the whole test hits, with the same
    # exponents (a graded generator list is a basis).  An e outside the axis
    # stays outside, so both orders take the same steps.  At level 1 only
    # gens[0] = c can be a word (heights rise strictly along gens), and it
    # is cyclically reduced (check_admissible, _attach): c^k is c's word k
    # times over, stripped to the identity, and w's end letter tells which
    # of c and c^-1 can end w (c^-1 is built only then).
    exps = [0] * len(gens)
    outer = -1 if right else 0  # the outermost element part
    while not is_identity(e):
        if e.level == 1:
            c = gens[0]
            if c.level == 1 and c.word:
                w, n = e.word, len(c.word)
                s, p = ((-1, W.w_inv(c.word))
                        if w[-1 if right else 0] == -c.word[0 if right else -1]
                        else (1, c.word))
                while (w[-n:] if right else w[:n]) == p:
                    w = w[:-n] if right else w[n:]
                    exps[0] += s
                if w is not e.word:
                    e = word_elem(w)
            break
        if is_identity(e.parts[outer]):
            contrib = _block_as_axis(t, e.parts[-2 if right else 1], gens)
            if contrib is not None:
                exps = _vexadd(exps, contrib)
                rest = e.parts[:-2] if right else e.parts[2:]
                e = rest[0] if len(rest) == 1 else build(t, e.level, rest)
                continue
        else:
            sub, sexps = _peel(t, e.parts[outer], gens, right, ends)
            if any(sexps):
                parts = list(e.parts)
                parts[outer] = sub
                e = build(t, e.level, parts)
                exps = _vexadd(exps, sexps)
                continue
        if not ends:
            whole = abelian_exponents(t, gens, e)
            if whole is not None:
                exps, e = _vexadd(exps, whole), EPS
        break
    return e, exps


def _render_part(t, p) -> str:
    """A parts-list entry for an error message: a rendered element, or a
    block as (letter, sign, offset)."""
    from .wordexpr import render  # wordexpr imports this module

    if isinstance(p, Block):
        return f"({p.letter}, {p.sign:+d}, {p.offset})"
    return render(t, p)


def _margin_error(t, side: str, e: Elem, blk: Block) -> EngineError:
    """The error for a margin loop that hit _GUARD on margin e of blk."""
    return EngineError(f"{side} margin {_render_part(t, e)} of block "
                       f"{_render_part(t, blk)} did not stabilize")


def _settle_word(t, w: W.Word, blk: Block, s: _Side):
    """Margin phase 1 of _settle on a word w, for a block whose head period
    s.head is a word, s being its side record: (w', change of the offset's
    one component).  w' is the one settled word of the coset w*<c>, c the
    left axis generator (module docstring), so w*c^k settles to w' too."""
    # Heights rise strictly along an axis and a word has height 1, so the
    # left axis is <c>, c = s.left[0], and hp = c^sign.  The loop takes
    # phase 1's steps on the word: _peel's level-1 strip of copies of
    # c^+-1 off the right end (the end letter picks the sign, as c is
    # cyclically reduced), else, where w's last letter cancels into hp,
    # w*hp (_additive's junction test), one _GUARD step each.
    c = s.left[0].word
    ci = s.left_inv[0].word
    hw = s.head.word
    n = len(c)
    d = 0
    given = w
    for _ in range(_GUARD):
        if w:
            p, k = (ci, -1) if w[-1] == -c[0] else (c, 1)
            if w[-n:] == p:
                while w[-n:] == p:
                    w = w[:-n]
                    d += k
                continue
            if w[-1] == -hw[0]:
                w = W.w_mul(w, hw)
                d -= blk.sign
                continue
        return w, d
    raise _margin_error(t, "left", word_elem(given), blk)


def _settle(t, blk: Block, e: Elem, right=False, nxt=None):
    """Margin phase 1 for one block, or phase 2 where right is set:
    stabilize the element e to the block's left against its head period, or
    to its right against its tail period.  Axis material at the block's end
    of e is absorbed into the offset vector, and a partial cancellation of
    the period into e pulls one period out of the block.  nxt, given in
    phase 2 only and then the block after e, brings in rightward flow: an
    offset unit that cancels into e moves into it when the next block's left
    margin claims the result.  Returns (e', offset list); phase 1 reads only
    the block's letter and sign, besides the offset the result starts from."""
    off = list(blk.offset)
    if is_identity(e):
        # no step can fire: _peel strips nothing off the identity, and
        # _additive answers an identity operand additive
        return e, off
    s = _side(t, blk)
    if not right and e.level == 1 and s.head.level == 1:
        w, d = _settle_word(t, e.word, blk, s)
        off[-1] += d
        # each step changes the word, and the steps depend on it alone
        return (e if w == e.word else word_elem(w)), off
    axis, ends = (s.right, s.right_ends) if right else (s.left, s.left_ends)
    given = e
    for _ in range(_GUARD):
        # the block's literal value ends with its lowest nonzero offset
        # generator; when that unit cancels into the gap and the next
        # block's left margin claims the result, the material belongs to
        # the right of the junction.  Phase 1 hands back its input itself
        # exactly when it takes no step: every step makes a new element,
        # and a word path that came back to its start would repeat until
        # _GUARD.  The pull takes no claim test: on the first step phase 1
        # of this pass left e settled against nxt;
        # test_letter_margin_letter_products_match_the_oracle covers the
        # rest.
        j = None if nxt is None else next(
            (i for i, d in enumerate(off) if d), None)
        if j is not None:
            unit = s.right[j] if off[j] > 0 else s.right_inv[j]
            addu, produ = _additive(t, unit, e)
            if not addu and _settle(t, nxt, produ)[0] is not produ:
                off[j] -= 1 if off[j] > 0 else -1
                return produ, off
        e2, pex = _peel(t, e, axis, right=not right, ends=ends)
        if any(pex):
            e = e2
            off = _vexadd(off, pex)
            continue
        add, prod = (_additive(t, s.tail, e) if right
                     else _additive(t, e, s.head))
        if not add:
            e = prod
            off[-1] -= blk.sign
            continue
        return e, off
    raise _margin_error(t, "right" if right else "left", given, blk)


def _transfer(t, blk: Block, nxt: Block):
    """The transfer entry of blk's signed letter before nxt's, from the
    tower's table: the exponents of each right-axis generator of blk over
    nxt's left axis, None for one outside it."""
    key = (blk.letter, blk.sign, nxt.letter, nxt.sign)
    cols = t._transfers.get(key)
    if cols is None:
        left = _side(t, nxt).left
        cols = []
        for r in _side(t, blk).right:
            e = abelian_exponents(t, left, r)
            cols.append(None if e is None else tuple(e))
        cols = t._transfers[key] = tuple(cols)
    return cols


def _carried(t, blk: Block, nxt: Block):
    """Exponents over nxt's left axis of blk's nonzero offset material, or
    None when the material lies outside that axis (module docstring)."""
    cols = _transfer(t, blk, nxt)
    exps = [0] * len(nxt.offset)
    for d, c in zip(blk.offset, cols):
        if d:
            if c is None:
                return None
            exps = [x + d * y for x, y in zip(exps, c)]
    return exps


def _margin_pass(t, parts, hot=-1) -> int:
    """Stabilize block margins.  Material flows rightward: a block's left
    margin has priority over the previous block's right margin, and interior
    offset material migrates into the next block's axis across identity
    gaps.  This makes the placement of sliding axis material deterministic,
    which is what makes the normal form canonical.  A step is taken only
    when a part it reads is hot (a bit mask over the parts' indices, -1 for
    all) or was written earlier in this pass; returns the mask of the parts
    written, 0 when nothing changed."""
    wrote = 0
    # phase 1, left margins, reads the margin; then phase 2, right margins,
    # reads the block and the margin; each left to right
    for right in (False, True):
        for bi in range(1, len(parts), 2):
            mi = bi + 1 if right else bi - 1  # the margin's index
            if not (hot | wrote) & (1 << mi | right << bi):
                continue
            blk = parts[bi]
            nxt = parts[bi + 2] if right and bi + 2 < len(parts) else None
            e, off = _settle(t, blk, parts[mi], right, nxt)
            if e is not parts[mi]:  # every step of the loop makes a new e
                parts[mi] = e
                wrote |= 1 << mi
            if tuple(off) != blk.offset:
                parts[bi] = Block(blk.letter, blk.sign, tuple(off))
                wrote |= 1 << bi
    # phase 3: offset material crosses an identity gap into the next block's
    # offset when it lies in that block's left axis, where the next pass's
    # phase 1 would absorb it; a run of blocks passes it along in one pass.
    # Reads the block and the gap.
    for bi in range(1, len(parts) - 2, 2):
        blk, nxt = parts[bi], parts[bi + 2]
        if (not (hot | wrote) >> bi & 3 or not any(blk.offset)
                or not is_identity(parts[bi + 1])):
            continue
        exps = _carried(t, blk, nxt)
        if exps is None:
            continue
        parts[bi] = Block(blk.letter, blk.sign, (0,) * len(blk.offset))
        parts[bi + 2] = Block(nxt.letter, nxt.sign,
                              tuple(_vexadd(nxt.offset, exps)))
        wrote |= 5 << bi
    return wrote


def build(t: GroupTower, L: int, parts, seam=None) -> Elem:
    """Normalize an alternating parts list into a canonical element.  With
    seam, the index of the one part that may break normal form (multiply's
    seam margin), the passes skip each step none of whose parts was written
    in this pass or the last one (module docstring)."""
    given, parts = parts, list(parts)
    hot = -1 if seam is None else 1 << seam  # -1: every step runs
    for _ in range(_GUARD):
        wrote = _britton_pass(t, parts, hot)
        wrote |= _margin_pass(t, parts, hot | wrote)
        if not wrote or len(parts) <= 3:  # one block: the next pass is idle
            break
        if hot != -1:  # after a pinch, -1 holds for the rest of the build
            hot = wrote
    else:
        raise EngineError(
            f"normal form at level {L} of "
            f"[{', '.join(_render_part(t, p) for p in given)}] "
            "did not stabilize")
    if len(parts) == 1:
        return parts[0]
    return Elem(L, None, tuple(parts), None, t)


# ---------------------------------------------------------------------------
# common initial segments


def com(t: GroupTower, g: Elem, h: Elem) -> Elem:
    """Longest common initial segment: g = com o g', h = com o h'; g cut
    at the length of the Gromov product c(g, h) (module docstring)."""
    a = _first_letter(t, g)
    if a is None or a != _first_letter(t, h):
        return EPS
    if g.level == 1 and h.level == 1:
        return word_elem(W.w_com(g.word, h.word))
    return _gromov_cut(t, g, h, multiply(t, invert(t, g), h))


def _gromov_cut(t: GroupTower, g: Elem, h: Elem, d: Elem) -> Elem:
    """com(t, g, h) for any g and h, from d = g^-1*h: g cut at the length
    of the Gromov product (l(g) + l(h) - l(d))/2."""
    c = vhalf(vsub(vadd(length(t, g), length(t, h)), length(t, d)))
    u = prefix_of(t, g, c)
    if u is None:
        raise EngineError(f"com of {_render_part(t, g)} and "
                          f"{_render_part(t, h)}: no initial segment of the "
                          f"first has length {c}")
    return u


def _first_letter(t: GroupTower, g: Elem):
    """The first base letter of g, None for the identity: its first
    margin's, or the first block's head period's where that margin is the
    identity, down the levels."""
    while g.level > 1:
        m = g.parts[0]
        g = _side(t, g.parts[1]).head if is_identity(m) else m
    return g.word[0] if g.word else None


def _head(t: GroupTower, x: Elem):
    """The head of x, of positive top weight: two such elements have a
    common initial segment of positive top weight, lam_len(com) > 0,
    exactly when their heads are equal.  No com is built."""
    # At rank 1 the weight is the word length, so the head is the first
    # letter.  Above it the top weight counts the top-level blocks, and
    # com(x, y) has the length of the Gromov product, so its top weight is
    # positive exactly when x^-1*y has fewer top blocks than x and y
    # together.  By Britton's lemma (Lyndon-Schupp IV.2) the word x^-1*y,
    # x's parts inverted before y's, keeps all of them unless it pinches
    # at its middle, B^-1 (m^-1*n) C with B, C the first blocks and m, n
    # the first margins: B and C have one letter and sign and m^-1*n lies
    # in their left axis, n = m*a.  Then a slides into C's offset, and m,
    # settled against B, is settled against C, which has B's letter and
    # sign; the normal form being unique, n = m.  So the heads decide.
    if t.rank == 1:
        return x.word[:1]
    blk = x.parts[1]
    return (x.parts[0].key, blk.letter, blk.sign)


def _product_heads(t: GroupTower, g: Elem, hs):
    """[_head(t, h*g) for h in hs], for hs of weight zero and g of positive
    weight, without building any h*g: the full row of the reducedness scan's
    head table, which _product_hits cuts to its hits where its lookup does
    not apply."""
    # At rank 1 the only element of weight zero is the identity, so this is
    # g's own head.  Above it let g = m0 B1 m1 ... Bk mk; multiply hands
    # build the list [h*m0, B1, m1, ..., Bk, mk], all of whose pinch
    # candidates (B_i, m_i, B_i+1) are g's own.
    #  * No pinch can start further right, so block 1's letter and sign
    #    never change.  The passes move only axis material across a block:
    #    phase 1 adds left-axis material to a block's offset, phase 2 moves
    #    right-axis material between a block's offset and the element after
    #    it, and phase 3 moves it across an identity gap into the next
    #    block's offset.  So a later middle is a*m_i*b with a in B_i's right
    #    axis and b in B_i+1's left axis.  Where B_i, B_i+1 could pinch (one
    #    letter, opposite signs) these are one axis A, and a*m_i*b lies in A
    #    iff m_i does, which it does not: g had no pinch.  (This is Britton's
    #    lemma, Lyndon-Schupp IV.2: every reduced form of h*g has g's
    #    sequence of signed letters.)
    #  * parts[0] is written only by phase 1 on block 1; phases 2 and 3
    #    write blocks and the elements right of them.  Phase 1 reads only
    #    the block's letter and sign, and its loop stops at a fixed point, so
    #    later passes leave parts[0] as the first pass left it.
    # Hence the first margin of h*g is h*m0 settled against B1 by phase 1
    # of _settle.
    if t.rank == 1:
        return [_head(t, multiply(t, h, g)) for h in hs]
    m0, blk = g.parts[0], g.parts[1]
    return [(_settle(t, blk, multiply(t, h, m0))[0].key, blk.letter,
             blk.sign) for h in hs]


def _product_hits(t: GroupTower, g: Elem, hs, index, heads):
    """[(h, _head(t, h*g)) for h in hs() if that head is in heads], in the
    order of hs(), for g of positive weight and heads a set of heads: the
    hits of one row of the reducedness scan's head table.  hs() gives the
    weight-zero ball's elements in ball order, made on the caller's first
    call; index is None, or (word -> position in the ball, the longest
    word's length) when the ball's elements are all words.  Where the
    row's products are words the candidates for a hit are found by a
    lookup, each under the head it hits, and only their elements are made;
    nothing is settled."""
    # Where every h, g's first margin m0 and its first block's head period
    # are words, a hit on a head with word margin m is h = m*c^k*m0^-1 with
    # |k|*|c| <= l + |m| + |m0|, l the longest word of the ball, and h*g
    # has that head (module docstring).
    if t.rank > 1 and index is not None:
        m0, blk = g.parts[0], g.parts[1]
        s = _side(t, blk)
        if m0.level == 1 and s.head.level == 1:
            at, longest = index
            c, ci = s.left[0].word, s.left_inv[0].word
            m0i = W.w_inv(m0.word)
            found = {}
            for key, letter, sign in heads:
                if letter != blk.letter or sign != blk.sign or key[0] != "w":
                    continue
                m = key[1]
                reach = (longest + len(m) + len(m0i)) // len(c)
                mc = W.w_mul(m, ci * reach)
                for _ in range(2 * reach + 1):
                    h = W.w_mul(mc, m0i)
                    i = at.get(h)
                    if i is not None:
                        found[i] = h, (key, letter, sign)
                    mc = W.w_mul(mc, c)
            return [(word_elem(h), x) for _, (h, x) in sorted(found.items())]
    row = hs()
    return [(h, x) for h, x in zip(row, _product_heads(t, g, row))
            if x in heads]


def _weight_zero_conjugate(t: GroupTower, y: Elem, c: Elem) -> Elem | None:
    """y^-1*c*y when it has top weight 0, else None, for y of positive
    weight and c of weight zero; nothing is built at the top level."""
    # Let y = m0 B1 m1 ... Bk mk.  In the word
    #     mk^-1 Bk^-1 ... m1^-1 B1^-1 (m0^-1 c m0) B1 m1 ... Bk mk
    # the only pinch candidate is at the middle; the others are pinches of
    # y^-1 or y, which have none.  B1^-1 x B1 pinches iff x lies in B1's
    # left axis, and then equals x's image in the right axis (B1's offset
    # material lies in that abelian axis too, so it commutes with the
    # image).  Conjugating by m1 gives the next middle, and so on along the
    # chain.  Where a middle is not in its block's left axis the word has no
    # pinch, so by Britton's lemma (Lyndon-Schupp IV.2) its top blocks stay:
    # the weight is positive.
    if t.rank == 1:
        return EPS if is_identity(c) else None  # weight zero = identity
    ps = y.parts
    m = ps[0]
    x = multiply(t, multiply(t, invert(t, m), c), m)
    for bi in range(1, len(ps), 2):
        s = _side(t, ps[bi])
        exps = abelian_exponents(t, s.left, x)
        if exps is None:
            return None
        m = ps[bi + 1]
        x = multiply(t, multiply(t, invert(t, m),
                                 gens_power(t, s.right, exps)), m)
    return x


def gromov2(t: GroupTower, g: Elem, h: Elem):
    """Doubled Gromov product 2c(g,h) = l(g)+l(h)-l(g^{-1}h); always exact."""
    d = multiply(t, invert(t, g), h)
    return vsub(vadd(length(t, g), length(t, h)), length(t, d))


# ---------------------------------------------------------------------------
# cyclic structure


def cyclic_decompose(t: GroupTower, g: Elem) -> tuple[Elem, Elem]:
    """Return (c, core) with g = c^{-1} o core o c, core cyclically reduced."""
    if g.level == 1:
        cw, core = W.w_cyclic_decompose(g.word)
        return word_elem(cw), word_elem(core)
    ci = com(t, g, invert(t, g))
    c = invert(t, ci)
    core = multiply(t, multiply(t, c, g), ci)
    if not veq(lenvec(core),
               vsub(lenvec(g), vscale(2, vpad(lenvec(c), len(lenvec(g)))))):
        raise EngineError(f"cyclic decomposition of {_render_part(t, g)} by "
                          f"{_render_part(t, c)} is not length-coherent")
    return c, core


def is_cyclically_reduced(t: GroupTower, g: Elem) -> bool:
    c, _ = cyclic_decompose(t, g)
    return is_identity(c)


def prefix_of(t: GroupTower, g: Elem, target) -> Elem | None:
    """The initial segment of g with length vector target, if one exists:
    the parts before the one that holds the cut, times the cut of that part
    (module docstring)."""
    if vcmp(target, ()) < 0 or vcmp(target, lenvec(g)) > 0:
        return None
    if g.level == 1:
        return word_elem(g.word[:vat(target, 1)])
    acc = ()
    for i, p in enumerate(g.parts):
        nxt = vadd(acc, _part_len(t, p))
        if vcmp(target, nxt) <= 0:
            break
        acc = nxt
    rem = vsub(target, acc)
    if not isinstance(p, Block):
        cut = prefix_of(t, p, rem)
    elif vat(rem, g.level) == 0:
        cut = _head_cut(t, p, rem)
    else:
        mirror = Block(p.letter, -p.sign, tuple(-d for d in p.offset))
        cut = _head_cut(t, mirror, vsub(block_len(t, p), rem))
        if cut is not None:
            cut = multiply(t, build(t, g.level, [EPS, p, EPS]), cut)
    if cut is None:
        return None
    before = g.parts[:i] if i % 2 else (*g.parts[:i], EPS)
    before = build(t, g.level, before) if i > 1 else before[0]
    return multiply(t, before, cut)


def _head_cut(t, blk: Block, rem) -> Elem | None:
    """The initial segment of blk's value with length rem, which has no
    coordinate at blk's level: u^j times the cut of u, u the head period."""
    u = _side(t, blk).head
    lu = lenvec(u)
    h = vheight(lu)
    if vheight(rem) > h:
        return None
    j = vat(rem, h) // vat(lu, h)
    r = vsub(rem, vscale(j, lu))
    if vcmp(r, ()) < 0:
        j, r = j - 1, vadd(r, lu)
    cut = prefix_of(t, u, r)
    return None if cut is None else multiply(t, pow_elem(t, u, j), cut)


def _root_cyclic(t: GroupTower, core: Elem) -> tuple[Elem, int]:
    """The root of a cyclically reduced element and its exponent (module
    docstring)."""
    if core.level == 1:
        r, k = W.w_primitive_root(core.word)
        return word_elem(r), k
    nb = (len(core.parts) - 1) // 2
    vec = lenvec(core)
    for reps in range(nb, 1, -1):
        if nb % reps or any(x % reps for x in vec):
            continue
        cand = prefix_of(t, core, tuple(x // reps for x in vec))
        if cand is not None and equals(t, pow_elem(t, cand, reps), core):
            return cand, reps
    return core, 1


def primitive_root(t: GroupTower, g: Elem) -> tuple[Elem, int]:
    """g = root^k with root not a proper power; identity gives (eps, 0)."""
    if is_identity(g):
        return EPS, 0
    c, core = cyclic_decompose(t, g)
    r, k = _root_cyclic(t, core)
    return multiply(t, multiply(t, invert(t, c), r), c), k


def is_conjugate(t: GroupTower, g: Elem, h: Elem) -> bool:
    """Conjugacy test.  Exact on the base layer; above it the test tries all
    block-boundary rotations of the cyclically reduced cores, which is sound
    but may miss conjugacies realized only by non-rotation conjugators."""
    _, cg = cyclic_decompose(t, g)
    _, ch = cyclic_decompose(t, h)
    if cg.level == 1 and ch.level == 1:
        return W.w_is_conjugate(cg.word, ch.word)
    if cg.level != ch.level:
        return False
    pref = EPS
    for p in ch.parts[:-1]:
        if isinstance(p, Block):
            pe = build(t, ch.level, [EPS, p, EPS])
        else:
            pe = p
        pref = multiply(t, pref, pe)
        rot = multiply(t, multiply(t, invert(t, pref), ch), pref)
        if equals(t, cg, rot):
            return True
    return False


def commutes(t: GroupTower, g: Elem, h: Elem) -> bool:
    return equals(t, multiply(t, g, h), multiply(t, h, g))


# ---------------------------------------------------------------------------
# centralizers


def centralizer(t: GroupTower, g: Elem) -> AbelianSubgroup:
    if is_identity(g):
        raise ValueError("the identity has the whole (non-abelian) group "
                         "as centralizer")
    c, core = cyclic_decompose(t, g)
    r, _ = _root_cyclic(t, core)
    if r.level == 1:
        gens = [r]
    else:
        sl = t.letters[r.parts[1].letter]
        gens = [a for a in sl.source_gens
                if equals(t, phi_of(t, sl, a), a) and commutes(t, a, r)]
        z = letter_elem(t, sl.name)
        if (not abelian_membership(t, gens + [r], z)
                and commutes(t, z, r)):
            r = z  # r is z^k*(axis material), |k| > 1: z generates C(r)
        gens.append(r)
    for sl in t.letters_by_level():
        if sl.level <= r.level:
            continue
        z = letter_elem(t, sl.name)
        if all(abelian_membership(t, sl.source_gens, x)
               and equals(t, phi_of(t, sl, x), x) for x in gens):
            gens.append(z)
    sub = AbelianSubgroup(tuple(gens), c)
    for x in subgroup_gens(t, sub):
        if not commutes(t, x, g):
            raise EngineError(f"centralizer generator {_render_part(t, x)} "
                              f"does not commute with {_render_part(t, g)}")
    return sub


def subgroup_gens(t: GroupTower, sub: AbelianSubgroup):
    """Generators of the (conjugated) subgroup as plain elements."""
    c = sub.conjugator
    ci = invert(t, c)
    return [multiply(t, multiply(t, ci, x), c) for x in sub.gens]


# ---------------------------------------------------------------------------
# tower validation


def validate_tower(t: GroupTower) -> None:
    """Structural conditions for a valid tower (raises TowerRejection).
    Each letter's axis keys, its direction keys and each signed letter's
    head key are computed once, and the conditions compare them."""
    by_level: dict[int, list[StableLetter]] = {}
    for sl in t.letters.values():
        by_level.setdefault(sl.level, []).append(sl)
    # axis usage count: a centralizer may appear among the other letters'
    # source/target axes at most twice
    axes = [(sl.name, tuple(sorted(x.key for x in gens)))
            for sl in t.letters.values()
            for gens in (sl.source_gens, sl.target_gens)]
    usage: dict[tuple, list[str]] = {}
    for name, k in axes:
        usage.setdefault(k, []).append(name)
    for name, k in axes:
        other_uses = [n for n in usage[k] if n != name]
        if len(other_uses) > 2:
            raise TowerRejection("centralizer-overused",
                                 f"axis of {name} reused by "
                                 f"{sorted(set(other_uses))}")

    def side(name, sign):
        return _side(t, Block(name, sign, zero_offset(t, name)))

    # each signed letter's head period, u for +1 and v^-1 for -1, and a
    # letter's periodic directions, the head and tail periods of both signs
    dirs, heads = {}, {}
    for sl in t.letters.values():
        p, n = side(sl.name, 1), side(sl.name, -1)
        dirs[sl.name] = {p.head.key, p.tail.key, n.head.key, n.tail.key}
        heads[sl.name, 1], heads[sl.name, -1] = p.head.key, n.head.key
    # attached-axis: a letter's axis periods may not coincide with the
    # head/tail periods of any lower letter, otherwise neighbors with
    # matching infinite periodic tails defeat margin stabilization
    for sl in t.letters.values():
        for lower in t.letters.values():
            if lower.level < sl.level and dirs[sl.name] & dirs[lower.name]:
                raise TowerRejection(
                    "attached-axis",
                    f"axis period of {sl.name} equals a periodic "
                    f"direction of lower letter {lower.name}")
    for level, sls in by_level.items():
        # conjugate axes at one level must be equal
        tops = [x for sl in sls for x in (sl.u, sl.v)]
        if any(not equals(t, x, y) and is_conjugate(t, x, y)
               for x, y in itertools.combinations(tops, 2)):
            raise TowerRejection("centralizer-conflict",
                                 "conjugate but unequal axes at one level")
        # orientation clash: distinct signed letters with equal head
        # periods; the first pair in order is the first key seen twice
        signed = [(sl, s) for sl in sls for s in (1, -1)]
        by_head: dict[tuple, list[tuple]] = {}
        for sl, s in signed:
            by_head.setdefault(heads[sl.name, s], []).append((sl.name, s))
        clash = next((ns for ns in by_head.values() if len(ns) > 1), None)
        if clash is not None:
            raise TowerRejection(
                "orientation-clash",
                "shared axis consumed in the same direction by "
                f"{clash[0]} and {clash[1]}")
        # junction cleanliness: tail of one block vs head of the next
        for sl1, s1 in signed:
            for sl2, s2 in signed:
                if sl1.name == sl2.name and s1 == -s2:
                    continue  # pinch position, never adjacent with axis gap
                ok, _ = _additive(t, side(sl1.name, s1).tail,
                                  side(sl2.name, s2).head)
                if not ok:
                    raise TowerRejection(
                        "junction-misalignment",
                        f"tail of ({sl1.name},{s1}) cancels into head of "
                        f"({sl2.name},{s2}); rotate the axes")


def verify_phi_conjugation(t: GroupTower) -> list[str]:
    """Check z^{-1} a z = phi(a) for every letter and axis generator."""
    bad = []
    for sl in t.letters.values():
        z = letter_elem(t, sl.name)
        zi = invert(t, z)
        for a, b in zip(sl.source_gens, sl.target_gens):
            got = multiply(t, multiply(t, zi, a), z)
            if not equals(t, got, b):
                bad.append(f"{sl.name}: conjugation of source generator "
                           f"does not match its image")
    return bad
