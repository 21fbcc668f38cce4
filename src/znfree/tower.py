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
answers are those of testing the whole element first.

Questions about words are answered on the word tuples.  Heights rise
strictly along an axis and a word has height 1, so when a margin and its
block's head period are both words, the block's left axis is <c> and the
head period is c^+-1.  `_settle_word` then takes margin phase 1's steps on
the tuple: copies of c^+-1 stripped off the right end, as `_peel`'s level-1
step strips them, and the head period multiplied in where the junction
cancels, as `_additive` finds it.  `_product_head` runs it on h's word times
m0's and builds one Elem for the head.  On a word, `abelian_exponents` is
`_peel`'s strip reaching the identity: c is cyclically reduced, so c^k is
c's word k times over.  Each kernel takes the general path's steps in the
same order, so its answers are the general path's.

A block's head, tail and offset periods are its letter's axis generators or
their inverses, constants of the tower.  Each GroupTower keeps a private
table, letter name -> (inverses of source_gens, inverses of target_gens),
that `_inverse_axes` fills for a letter on first use; towers are never
changed after construction, so an entry never goes stale.  The table is
never filled in `GroupTower.__init__`: construction runs before
`validate_tower`, and inverting the axes of an invalid tower could raise
EngineError before the tower's named TowerRejection.

Two private views answer questions about a top-level product from one seam,
without building it.  Both rest on Britton's lemma (Lyndon-Schupp IV.2):
a word with no pinch keeps its sequence of signed stable letters.
`_product_head(t, h, g)`, for h of weight zero, is the head of h*g (its
first margin with the letter and sign of its first block, see `_head`): h*g
has g's blocks, and its first margin is h times g's settled against g's
first block by margin phase 1 (`_settle_left`, the loop `_margin_pass` runs
too).  `_weight_zero_conjugate(t, y, c)`, for c of weight zero, is y^-1*c*y
when that has weight 0 and None otherwise: it follows the middle of the
word through y's blocks, one pinch at a time, and stops at the first block
whose left axis the middle leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lamvec import (
    vadd,
    vat,
    vcmp,
    veq,
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

    __slots__ = ("level", "word", "parts", "_len", "_key", "_hash")

    def __init__(self, level, word, parts, lenvec):
        self.level = level
        self.word = word
        self.parts = parts
        self._len = lenvec
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
        return f"<Elem lvl={self.level} len={self._len}>"


def word_elem(w: W.Word) -> Elem:
    return Elem(1, w, None, (len(w),))


EPS = word_elem(W.EPS)


def lenvec(g: Elem):
    return g._len


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
        self._inverse_axes: dict[str, tuple[tuple, tuple]] = {}

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
# periods of a signed letter


def _inverse_axes(t: GroupTower, name: str) -> tuple[tuple, tuple]:
    """(inverses of source_gens, inverses of target_gens) of a letter, from
    the tower's table; computed on first use."""
    inv = t._inverse_axes.get(name)
    if inv is None:
        sl = t.letters[name]
        inv = (tuple(invert(t, a) for a in sl.source_gens),
               tuple(invert(t, b) for b in sl.target_gens))
        t._inverse_axes[name] = inv
    return inv


def head_period(t: GroupTower, blk: Block) -> Elem:
    """Period of the infinite head the block's value begins with."""
    if blk.sign > 0:
        return t.letters[blk.letter].u
    return _inverse_axes(t, blk.letter)[1][-1]


def tail_period(t: GroupTower, blk: Block) -> Elem:
    """Period word appended at the block's tail (read forward)."""
    if blk.sign > 0:
        return t.letters[blk.letter].v
    return _inverse_axes(t, blk.letter)[0][-1]


def offset_periods(t: GroupTower, blk: Block) -> tuple:
    """Per-component elements whose signed powers the offsets count."""
    sl = t.letters[blk.letter]
    return sl.target_gens if blk.sign > 0 else sl.source_gens


def _inverse_offset_periods(t: GroupTower, blk: Block) -> tuple:
    """The inverses of offset_periods(t, blk), in the same order."""
    return _inverse_axes(t, blk.letter)[1 if blk.sign > 0 else 0]


def block_len(t: GroupTower, blk: Block):
    """Length of the block's value.  Positive-sign blocks append their
    offset material after the periodic tail (extending it); negative-sign
    blocks' material cancels into the tail, shortening it."""
    sl = t.letters[blk.letter]
    vec = vunit(sl.level)
    for d, a in zip(blk.offset, sl.source_gens):
        if d:
            vec = vadd(vec, vscale(blk.sign * d, lenvec(a)))
    return vpad(vec, sl.level)


# ---------------------------------------------------------------------------
# core operations


def _parts_at(g: Elem, L: int):
    if g.level == L:
        return g.parts
    if g.level > L:
        raise EngineError("level mismatch")
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
    pg = _parts_at(g, L)
    ph = _parts_at(h, L)
    mid = multiply(t, pg[-1], ph[0])
    parts = list(pg[:-1]) + [mid] + list(ph[1:])
    return build(t, L, parts)


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
    if a.level == 1 and b.level == 1 and (
            not a.word or not b.word or a.word[-1] != -b.word[0]):
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


def _britton_pass(t, parts) -> bool:
    changed = False
    i = 1
    while i + 2 < len(parts):
        b1, mid, b2 = parts[i], parts[i + 1], parts[i + 2]
        if b1.letter == b2.letter and b1.sign == -b2.sign:
            # a pinch: mid in b2's left axis slides through b2 into its
            # right axis, and b1 b2 cancels
            in_gens, out_gens = _axes(t, b2)
            exps = abelian_exponents(t, in_gens, mid)
            if exps is not None:
                exps = [e + d1 + d2
                        for e, d1, d2 in zip(exps, b1.offset, b2.offset)]
                repl = gens_power(t, out_gens, exps)
                merged = multiply(t, parts[i - 1],
                                  multiply(t, repl, parts[i + 3]))
                parts[i - 1:i + 4] = [merged]
                changed = True
                i = max(1, i - 2)
                continue
        i += 2
    return changed


def _axes(t, blk: Block):
    """(left axis, right axis) of a block: a o blk = blk o a' with a in the
    left axis and a' its image in the right axis."""
    sl = t.letters[blk.letter]
    if blk.sign > 0:
        return sl.source_gens, sl.target_gens
    return sl.target_gens, sl.source_gens


def _vexadd(a, b):
    return [x + y for x, y in zip(a, b)]


def _block_as_axis(t, blk: Block, gens):
    """Exponents of a block's whole value over a gen list, or None."""
    keys = [g.key for g in gens]
    le = letter_elem(t, blk.letter)
    if le.key not in keys:
        return None
    exps = [0] * len(gens)
    exps[keys.index(le.key)] += blk.sign
    pers = offset_periods(t, blk)
    for i, d in enumerate(blk.offset):
        if not d:
            continue
        k = pers[i].key
        if k not in keys:
            return None
        exps[keys.index(k)] += d
    return exps


def _peel(t, e, gens, right: bool):
    """Split axis material over gens off one end of e: e = e' o (material)
    when right is set, e = (material) o e' otherwise.  Returns (e',
    exponents over gens).  Each step reads the end structurally (length
    cannot tell a trailing axis power from a nested block's periodic tail);
    e is tested whole only where a step strips nothing above level 1."""
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
            sub, sexps = _peel(t, e.parts[outer], gens, right)
            if any(sexps):
                parts = list(e.parts)
                parts[outer] = sub
                e = build(t, e.level, parts)
                exps = _vexadd(exps, sexps)
                continue
        whole = abelian_exponents(t, gens, e)
        if whole is not None:
            exps, e = _vexadd(exps, whole), EPS
        break
    return e, exps


def _settle_word(t, w: W.Word, blk: Block, hp: Elem):
    """_settle_left on a word w, for a block whose head period hp is a word:
    (w', change of the offset's one component)."""
    # Heights rise strictly along an axis and a word has height 1, so the
    # left axis is <c>, c = lgens[0], and hp = c^sign.  The loop takes
    # _settle_left's steps on the word: _peel's level-1 strip of copies of
    # c^+-1 off the right end (the end letter picks the sign, as c is
    # cyclically reduced), else, where w's last letter cancels into hp,
    # w*hp (_additive's junction test), one _GUARD step each.
    c = _axes(t, blk)[0][0].word
    ci = _inverse_axes(t, blk.letter)[0 if blk.sign > 0 else 1][0].word
    hw = hp.word
    n = len(c)
    d = 0
    for _ in range(_GUARD):
        if w:
            p, s = (ci, -1) if w[-1] == -c[0] else (c, 1)
            if w[-n:] == p:
                while w[-n:] == p:
                    w = w[:-n]
                    d += s
                continue
            if w[-1] == -hw[0]:
                w = W.w_mul(w, hw)
                d -= blk.sign
                continue
        return w, d
    raise EngineError("left margin did not stabilize")


def _settle_left(t, e: Elem, blk: Block):
    """Margin phase 1 for one block: stabilize the element e to its left.
    Axis material adjacent to the block's head is absorbed into the offset
    vector; a strictly partial cancellation into the head period is resolved
    by pulling one period out of the block (the complement stays as honest
    element material).  Returns (e', offset list); only the block's letter
    and sign are read, besides the offset the result starts from."""
    hp = head_period(t, blk)
    off = list(blk.offset)
    if e.level == 1 and hp.level == 1:
        w, d = _settle_word(t, e.word, blk, hp)
        off[-1] += d
        # each step changes the word, and the steps depend on it alone
        return (e if w == e.word else word_elem(w)), off
    lgens, _ = _axes(t, blk)
    for _ in range(_GUARD):
        e2, pex = _peel(t, e, lgens, right=True)
        if any(pex):
            e = e2
            off = _vexadd(off, pex)
            continue
        add, prod = _additive(t, e, hp)
        if not add:
            e = prod
            off[-1] -= blk.sign
            continue
        return e, off
    raise EngineError("left margin did not stabilize")


def _margin_pass(t, parts) -> bool:
    """Stabilize block margins.  Material flows rightward: a block's left
    margin has priority over the previous block's right margin, and interior
    offset material migrates into the next block's axis across identity
    gaps.  This makes the placement of sliding axis material deterministic,
    which is what makes the normal form canonical."""
    changed = False
    # phase 1: left margins, left to right
    for bi in range(1, len(parts), 2):
        blk = parts[bi]
        e, off = _settle_left(t, parts[bi - 1], blk)
        if e is not parts[bi - 1]:  # every step of the loop makes a new e
            parts[bi - 1] = e
            changed = True
        if tuple(off) != blk.offset:
            parts[bi] = Block(blk.letter, blk.sign, tuple(off))
    # phase 2: right margins, left to right
    for bi in range(1, len(parts), 2):
        blk = parts[bi]
        _, rgens = _axes(t, blk)
        tp = tail_period(t, blk)
        off = list(blk.offset)
        pers = offset_periods(t, blk)
        ipers = _inverse_offset_periods(t, blk)
        nxt = parts[bi + 2] if bi + 2 < len(parts) else None

        def _right_claims(e):
            # would the next block's left margin absorb this material?
            if nxt is None:
                return False
            nlg, _ = _axes(t, nxt)
            _, nex = _peel(t, e, nlg, right=True)
            if any(nex):
                return True
            nadd, _ = _additive(t, e, head_period(t, nxt))
            return not nadd

        for _ in range(_GUARD):
            e = parts[bi + 1]
            # the block's literal value ends with its lowest nonzero offset
            # generator; when that unit cancels into the gap and the result
            # flows onward into the next block, the material belongs to the
            # right of the junction (rightward flow)
            j = next((i for i in range(len(off)) if off[i]), None)
            if j is not None:
                unit = pers[j] if off[j] > 0 else ipers[j]
                addu, produ = _additive(t, unit, e)
                if not addu and _right_claims(produ):
                    parts[bi + 1] = produ
                    off[j] -= 1 if off[j] > 0 else -1
                    changed = True
                    break  # let the next block's left margin take it first
            e2, pex = _peel(t, e, rgens, right=False)
            if any(pex):
                parts[bi + 1] = e2
                off = _vexadd(off, pex)
                changed = True
                continue
            add, prod = _additive(t, tp, e)
            if not add:
                if _right_claims(e):
                    break  # rightward priority: defer to the next block
                parts[bi + 1] = prod
                off[-1] -= blk.sign
                changed = True
                continue
            break
        else:
            raise EngineError("right margin did not stabilize")
        if tuple(off) != blk.offset:
            parts[bi] = Block(blk.letter, blk.sign, tuple(off))
    # phase 3: migrate offset material rightward across identity gaps when
    # it lies in the next block's axis (the next pass's phase 1 absorbs the
    # materialized element there)
    for bi in range(1, len(parts) - 2, 2):
        blk = parts[bi]
        if not any(blk.offset) or not is_identity(parts[bi + 1]):
            continue
        nxt_lgens, _ = _axes(t, parts[bi + 2])
        mat = gens_power(t, offset_periods(t, blk), blk.offset)
        if abelian_exponents(t, nxt_lgens, mat) is None:
            continue
        parts[bi] = Block(blk.letter, blk.sign, (0,) * len(blk.offset))
        parts[bi + 1] = mat
        changed = True
    return changed


def build(t: GroupTower, L: int, parts) -> Elem:
    """Normalize an alternating parts list into a canonical element."""
    parts = list(parts)
    for _ in range(_GUARD):
        ch = _britton_pass(t, parts)
        ch |= _margin_pass(t, parts)
        if not ch:
            break
    else:
        raise EngineError("normal form did not stabilize")
    if len(parts) == 1:
        return parts[0]
    vec = [0] * L
    for p in parts:
        contrib = block_len(t, p) if isinstance(p, Block) else lenvec(p)
        for i, x in enumerate(contrib):
            vec[i] += x
    return Elem(L, None, tuple(parts), tuple(vec))


# ---------------------------------------------------------------------------
# common initial segments


def com(t: GroupTower, g: Elem, h: Elem) -> Elem:
    """Longest common initial segment: g = com o g', h = com o h'."""
    L = max(g.level, h.level)
    if L == 1:
        if not g.word or not h.word or g.word[0] != h.word[0]:
            return EPS
        return word_elem(W.w_com(g.word, h.word))
    pg = _parts_at(g, L)
    ph = _parts_at(h, L)
    out = []
    i = 0
    while True:
        a = pg[2 * i]
        b = ph[2 * i]
        Ba = _block_after(pg, i)
        Bb = _block_after(ph, i)
        if equals(t, a, b):
            if Ba is None:
                return g
            if Bb is None:
                return h
            if Ba == Bb:
                out.extend([a, Ba])
                i += 1
                continue
            if Ba.letter == Bb.letter and Ba.sign == Bb.sign:
                # shared block portion: both blocks factor as a shared block
                # followed by leftover axis material.  Offsets are compared
                # most significant first; for a positive block more material
                # extends the stream (share the minimum), for a negative one
                # it cancels into the tail (share the maximum).  Components
                # below the first difference live past the divergence point.
                pick = min if Ba.sign > 0 else max
                share = [0] * len(Ba.offset)
                diverged = False
                for ci in range(len(Ba.offset) - 1, -1, -1):
                    da, db = Ba.offset[ci], Bb.offset[ci]
                    if not diverged:
                        share[ci] = pick(da, db)
                        diverged = da != db
                    else:
                        # past the divergence point only cancelling material
                        # (which shortens the shared stream) is still common
                        share[ci] = pick(da, db, 0)
                out.extend([a, Block(Ba.letter, Ba.sign, tuple(share))])
                ga = gens_power(t, offset_periods(t, Ba),
                                [x - y for x, y in zip(Ba.offset, share)])
                gb = gens_power(t, offset_periods(t, Bb),
                                [x - y for x, y in zip(Bb.offset, share)])
                sa = _stream(t, multiply(t, ga, pg[2 * i + 2]),
                             _block_after(pg, i + 1))
                sb = _stream(t, multiply(t, gb, ph[2 * i + 2]),
                             _block_after(ph, i + 1))
                out.append(_com_ext(t, sa, sb))
                return build(t, L, out)
            ext = _com_ext(t, _stream(t, EPS, Ba), _stream(t, EPS, Bb))
            out.append(multiply(t, a, ext))
            return build(t, L, out)
        w0 = com(t, a, b)
        ra = multiply(t, invert(t, w0), a)
        rb = multiply(t, invert(t, w0), b)
        if not is_identity(ra) and not is_identity(rb):
            out.append(w0)
            return build(t, L, out)
        if is_identity(ra):
            if Ba is None:
                return g
            ext = _com_ext(t, _stream(t, EPS, Ba), _stream(t, rb, Bb))
        else:
            if Bb is None:
                return h
            ext = _com_ext(t, _stream(t, ra, Ba), _stream(t, EPS, Bb))
        out.append(multiply(t, w0, ext))
        return build(t, L, out)


def _head(t: GroupTower, x: Elem):
    """The head of x, of positive top weight: two such elements have a
    common initial segment of positive top weight, lam_len(com) > 0,
    exactly when their heads are equal.  No com is built."""
    # At rank 1 the weight is the word length, so the head is the first
    # letter.  Above it the top weight counts the top-level blocks, and as in
    # Britton's normal form (Lyndon-Schupp IV.2) the first margin and the
    # first block decide whether a common initial segment holds one.  com
    # keeps a top block only when both elements lie at the top level, their
    # first margins are equal and their first blocks have the same letter
    # and sign: it then keeps that block, or a shared part of it, whose
    # length has top coordinate 1.  Every other branch of com (different
    # margins, or a different letter or sign) ends in a lower-level common
    # extension, of top weight 0.
    if t.rank == 1:
        return x.word[:1]
    blk = x.parts[1]
    return (x.parts[0].key, blk.letter, blk.sign)


def _product_head(t: GroupTower, h: Elem, g: Elem):
    """_head(t, h*g) for h of weight zero and g of positive weight, without
    building h*g."""
    # At rank 1 the only element of weight zero is the identity, so this is
    # g's own head.  Above it let g = m0 B1 m1 ... Bk mk; multiply hands
    # build the list [h*m0, B1, m1, ..., Bk, mk], all of whose pinch
    # candidates (B_i, m_i, B_i+1) are g's own.
    #  * No pinch can start further right, so block 1's letter and sign
    #    never change.  The passes move only axis material across a block:
    #    phase 1 adds left-axis material to a block's offset, phases 2 and 3
    #    move right-axis material between a block's offset and the element
    #    after it.  So a later middle is a*m_i*b with a in B_i's right axis
    #    and b in B_i+1's left axis.  Where B_i, B_i+1 could pinch (one
    #    letter, opposite signs) these are one axis A, and a*m_i*b lies in A
    #    iff m_i does, which it does not: g had no pinch.  (This is Britton's
    #    lemma, Lyndon-Schupp IV.2: every reduced form of h*g has g's
    #    sequence of signed letters.)
    #  * parts[0] is written only by phase 1 on block 1; phases 2 and 3
    #    write blocks and the elements right of them.  Phase 1 reads only
    #    the block's letter and sign, and its loop stops at a fixed point, so
    #    later passes leave parts[0] as the first pass left it.
    # Hence the first margin of h*g is h*m0 settled against B1.
    if t.rank == 1:
        return _head(t, multiply(t, h, g))
    blk, m0 = g.parts[1], g.parts[0]
    hp = head_period(t, blk)
    if h.level == 1 and m0.level == 1 and hp.level == 1:
        w, _ = _settle_word(t, W.w_mul(h.word, m0.word), blk, hp)
        return (word_elem(w).key, blk.letter, blk.sign)
    e, _ = _settle_left(t, multiply(t, h, m0), blk)
    return (e.key, blk.letter, blk.sign)


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
        lgens, rgens = _axes(t, ps[bi])
        exps = abelian_exponents(t, lgens, x)
        if exps is None:
            return None
        m = ps[bi + 1]
        x = multiply(t, multiply(t, invert(t, m), gens_power(t, rgens, exps)),
                     m)
    return x


def _block_after(parts, ei):
    """The block following element index ei of a parts list, or None."""
    bi = 2 * ei + 1
    return parts[bi] if bi < len(parts) else None


def _stream(t, base: Elem, blk):
    """Materializer for base followed by the periodic head of blk; exact
    (base alone) when blk is None."""
    if blk is None:
        def mk_exact(K):
            return base, True, None
        return mk_exact
    p = head_period(t, blk)

    def mk(K):
        return multiply(t, base, pow_elem(t, p, K)), False, lenvec(p)

    return mk


def _com_ext(t, mka, mkb) -> Elem:
    """Common prefix of two (possibly periodic) lower-level continuations."""
    K = 4
    while K <= 256:
        a, exact_a, pa = mka(K)
        b, exact_b, pb = mkb(K)
        w = com(t, a, b)
        ok = True
        if not exact_a and vcmp(lenvec(w), vsub(lenvec(a), pa)) > 0:
            ok = False
        if not exact_b and vcmp(lenvec(w), vsub(lenvec(b), pb)) > 0:
            ok = False
        if ok:
            return w
        K *= 2
    raise EngineError("periodic head comparison did not stabilize "
                      "(unbounded overlap; tower should have been rejected)")


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
        raise EngineError("cyclic decomposition is not length-coherent")
    return c, core


def is_cyclically_reduced(t: GroupTower, g: Elem) -> bool:
    c, _ = cyclic_decompose(t, g)
    return is_identity(c)


def prefix_of(t: GroupTower, g: Elem, target) -> Elem | None:
    """The initial segment of g with length vector target, if one exists."""
    vec = lenvec(g)
    if all(x == 0 for x in target):
        return EPS
    if veq(target, vec):
        return g
    if vcmp(target, vec) > 0:
        return None
    if g.level == 1:
        m = target[0] if len(target) == 1 else None
        if m is None or any(target[1:]):
            return None
        return word_elem(g.word[:m])
    acc = ()
    out = []
    for p in g.parts:
        contrib = block_len(t, p) if isinstance(p, Block) else lenvec(p)
        nxt = vadd(acc, contrib)
        if vcmp(target, nxt) > 0:
            acc = nxt
            out.append(p)
            continue
        rem = vsub(target, acc)
        if isinstance(p, Block):
            sl = t.letters[p.letter]
            if vat(rem, sl.level) == 0:
                # boundary within the periodic head, before the block's unit
                hp = head_period(t, p)
                lp = lenvec(hp)
                h = vheight(lp)
                if vheight(rem) < h:
                    j = 0
                elif vheight(rem) == h and vat(rem, h) % vat(lp, h) == 0:
                    j = vat(rem, h) // vat(lp, h)
                else:
                    return None
                if not veq(rem, vscale(j, lp)):
                    return None
                out[-1] = multiply(t, out[-1], pow_elem(t, hp, j))
                return build(t, g.level, out) if len(out) > 1 else out[-1]
            # boundary inside the block's offset material: solve the length
            # excess over the graded axis lengths, most significant first
            d = vsub(rem, vunit(sl.level))
            if p.sign < 0:
                d = vscale(-1, d)
            exps = [0] * len(sl.source_gens)
            for ci in range(len(sl.source_gens) - 1, -1, -1):
                lu = lenvec(sl.source_gens[ci])
                h = vheight(lu)
                if vheight(d) > h:
                    return None
                if vheight(d) == h and h > 0:
                    if vat(d, h) % vat(lu, h):
                        return None
                    exps[ci] = vat(d, h) // vat(lu, h)
                    d = vsub(d, vscale(exps[ci], lu))
            if any(x != 0 for x in d):
                return None
            out.extend([Block(p.letter, p.sign, tuple(exps)), EPS])
            return build(t, g.level, out)
        sub = prefix_of(t, p, rem)
        if sub is None:
            return None
        out.append(sub)
        return build(t, g.level, out) if len(out) > 1 else sub
    return None


def _root_cyclic(t: GroupTower, core: Elem) -> tuple[Elem, int]:
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
            r, k = _root_cyclic(t, cand)
            return r, k * reps
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
            raise EngineError("centralizer generator does not commute")
    return sub


def subgroup_gens(t: GroupTower, sub: AbelianSubgroup):
    """Generators of the (conjugated) subgroup as plain elements."""
    c = sub.conjugator
    ci = invert(t, c)
    return [multiply(t, multiply(t, ci, x), c) for x in sub.gens]


# ---------------------------------------------------------------------------
# tower validation


def validate_tower(t: GroupTower) -> None:
    """Structural conditions for a valid tower (raises TowerRejection)."""
    by_level: dict[int, list[StableLetter]] = {}
    for sl in t.letters.values():
        by_level.setdefault(sl.level, []).append(sl)
    # axis usage count: a centralizer may appear among the other letters'
    # source/target axes at most twice
    usage: dict[tuple, list[str]] = {}
    for sl in t.letters.values():
        for gens in (sl.source_gens, sl.target_gens):
            k = tuple(sorted(x.key for x in gens))
            usage.setdefault(k, []).append(sl.name)
    for sl in t.letters.values():
        for gens in (sl.source_gens, sl.target_gens):
            k = tuple(sorted(x.key for x in gens))
            other_uses = [n for n in usage[k] if n != sl.name]
            if len(other_uses) > 2:
                raise TowerRejection("centralizer-overused",
                                     f"axis of {sl.name} reused by "
                                     f"{sorted(set(other_uses))}")
    # attached-axis: a letter's axis periods may not coincide with the
    # head/tail periods of any lower letter, otherwise neighbors with
    # matching infinite periodic tails defeat margin stabilization
    def _directions(sl):
        inv_src, inv_tgt = _inverse_axes(t, sl.name)
        return [sl.u, inv_src[-1], sl.v, inv_tgt[-1]]

    for sl in t.letters.values():
        for lower in t.letters.values():
            if lower.level >= sl.level:
                continue
            for d1 in _directions(sl):
                for d2 in _directions(lower):
                    if equals(t, d1, d2):
                        raise TowerRejection(
                            "attached-axis",
                            f"axis period of {sl.name} equals a periodic "
                            f"direction of lower letter {lower.name}")
    for level, sls in by_level.items():
        # conjugate axes at one level must be equal
        tops = []
        for sl in sls:
            tops.append((sl.name, sl.u))
            tops.append((sl.name, sl.v))
        for i in range(len(tops)):
            for j in range(i + 1, len(tops)):
                ui, uj = tops[i][1], tops[j][1]
                if equals(t, ui, uj):
                    continue
                if is_conjugate(t, ui, uj):
                    raise TowerRejection(
                        "centralizer-conflict",
                        "conjugate but unequal axes at one level")
        # orientation clash: distinct signed letters with equal head periods
        signed = [(sl, s) for sl in sls for s in (1, -1)]
        heads = {}
        for sl, s in signed:
            blk = Block(sl.name, s, zero_offset(t, sl.name))
            heads[(sl.name, s)] = head_period(t, blk)
        items = list(heads.items())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if equals(t, items[i][1], items[j][1]):
                    raise TowerRejection(
                        "orientation-clash",
                        "shared axis consumed in the same direction by "
                        f"{items[i][0]} and {items[j][0]}")
        # junction cleanliness: tail of one block vs head of the next
        for sl1, s1 in signed:
            for sl2, s2 in signed:
                if sl1.name == sl2.name and s1 == -s2:
                    continue  # pinch position, never adjacent with axis gap
                tau = tail_period(t, Block(sl1.name, s1, zero_offset(t, sl1.name)))
                pi = head_period(t, Block(sl2.name, s2, zero_offset(t, sl2.name)))
                ok, _ = _additive(t, tau, pi)
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
