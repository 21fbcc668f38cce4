"""Elementary reduction moves on symmetric generating sets.

Three moves shrink or restructure a finite symmetric generating set Y of a
tower group: merging a shared head of two top-weight generators, splitting a
generator whose head repeats under a weight-zero multiplier, and replacing a
non-cyclically-reduced generator by its conjugator and core.  The reduction
loop applies them to exhaustion and then closes the weight-zero part under
the centralizer elements needed for the conjugation-closure condition.

Every move records a witness: each removed generator is expressed as an
explicit product over the surviving set, so subgroup preservation can be
re-verified from the log alone.

The searches over weight-zero multipliers h have one owner each, read by
both the reduction loop and is_reduced: _shared_heads yields the (b) records
(the mu candidates), _self_overlaps the self-overlaps, whose partial ones
are (c) records and eta candidates and whose total ones feed the closure and
(d).  They read the heads of the products h*g, from one table with a row
per positive generator g.  com(f, h*g) has positive weight exactly when
the heads of f and h*g (tower._head: the first margin and the first block)
are equal, so both read only the entries equal to some positive
generator's head, and a row holds just those, in ball order
(tower._product_hits).  Each head is h times g's first margin m_g, settled
against g's first block (tower._product_heads).  Where h, m_g and the
block's head period are words, settling multiplies by powers of the left
axis generator c on the right only, and each coset m_f*<c> holds one
settled word, so h*g has the head of an f with first margin m_f exactly
when h = m_f*c^k*m_g^-1.  The row looks these candidates up in the ball by
their words, over the k that the ball's longest word allows, and makes
only the ones it finds, each with the head it was looked up under; it
settles nothing.  Any other row is the full row, cut to its hits.  So the
(b) scan builds no product and no com at all.

(c) and (d) ask one question of a self-overlap (f, h): whether f^-1*h*f
has weight zero.  Its record is (f, h, x), x that conjugate, read along
f's pinch chain (tower._weight_zero_conjugate), or None when it has
positive weight; the overlap is total exactly when x is not None.  Both
directions rest on Britton's lemma (Lyndon-Schupp IV.2); lam is the top
weight and u o v a product whose lengths add.
 * Total => weight 0.  h*f keeps f's blocks, so lam(h*f) = lam(f).  If
   com(f, h*f) = u has lam(u) = lam(f), then f = u o f' and h*f = u o g'
   with f' and g' of weight 0, so f^-1*h*f = f'^-1*g' has weight 0.
 * Weight 0 => total.  If f^-1*h*f = d has weight 0, then h*f = f*d.  That
   product changes only f's last margin and last offset, and com keeps a
   shared part of a block whose offsets differ, so lam(com) = lam(f).
So the records with x None are the (c) records and the eta candidates, the
others are (d) records where x lies outside the weight-zero subgroup, and
the scan builds no com and no top-level product for them either.

A GenSet never changes its members, so it holds what it computes about
them.  It holds each member's inverse from construction (GenSet.inverse).
pair_reps, replace, mu, the closure step and pregroup read it instead of
inverting a member again.  It holds each member's rendered name, which its
sort into render order computes; _find_mu, _find_nu and _render_set read
the names instead of rendering a member again.  The set replace builds
takes the kept members' inverses and names along.  It holds pair_reps of
all members, of the positive and of the zero ones, and each call returns a
new list.  It holds its reducedness scan as three cached properties, each
made on its first read: the head table over the weight-zero multiplier
ball of radius H_RADIUS (GenSet._prods; the ball itself is not kept), the
zero part's membership test (GenSet._member, a _membership: the subgroup
graph is folded once, or above the base layer the keys of its ball are
collected once) and the self-overlaps (GenSet._overlaps).  Each pass of
the loop reads the scan of the set it works on;
the pass that ends the loop leaves the result's scan held, and is_reduced
and pregroup.split_level read that scan instead of building their own.
The closure step starts from the held membership test and makes a new one
only when it adds elements.

Every ball is one breadth-first walk, _walk, which maps each product to
its position in ball order.  ball runs it on the Elems (invert, multiply),
which hash and compare by their keys.  The scan, over a word zero part,
runs it on the word tuples (w_inv, w_mul), which take the same steps, and
keeps the word walk: a row whose products are words makes Elems only for
the candidates its lookup finds, and the first row that needs the full row
makes the ball's Elems, once per scan, for every such row.  The engine
never calls ball over word generators: _membership folds them.

When the loop's last pass finds no (d) record either, its result is
certified: GenSet.certified, False on every new set, is read and written
only here, by reduce_genset and by _require_reduced (pregroup's entry
check).  is_reduced never reads it: it evaluates (a)-(d) itself on the
set's scan, so it stays an independent check of reduce_genset's
conditions, and a set and a fresh copy of it get the same answer.
"""

from __future__ import annotations

import functools

from . import tower as T
from . import words as W
from .tower import Elem, EPS
from .wordexpr import render


class Inapplicable(Exception):
    """The move's precondition fails for these parameters."""


# ---------------------------------------------------------------------------
# generating sets


class GenSet:
    """A finite symmetric set of tower elements with a witness log."""

    def __init__(self, t, elements):
        self._fill(t, [(g, T.invert(t, g)) for g in elements
                       if not T.is_identity(g)], [], {})

    def _fill(self, t, pairs, witness_log, names):
        """Hold the members of the (g, g^-1) pairs, each one's inverse and
        rendered name (taken from names, key -> name, where it is there),
        the members of positive and of zero top weight, and one member per
        inverse pair of all, of the positive and of the zero members (a set
        never changes, so each is computed once)."""
        self.tower = t
        seen = {}
        inv = {}
        for g, gi in pairs:
            seen[g.key] = g
            seen[gi.key] = gi
            inv[g.key] = gi.key
            inv[gi.key] = g.key
        self._names = {k: names[k] if k in names else render(t, g)
                       for k, g in seen.items()}
        self.elements = tuple(sorted(seen.values(),
                                     key=lambda g: self._names[g.key]))
        self._inverse = {k: seen[ik] for k, ik in inv.items()}
        pos = {g.key for g in self.elements if T.lam_len(t, g) > 0}
        self._positive = tuple(g for g in self.elements if g.key in pos)
        self._zero = tuple(g for g in self.elements if g.key not in pos)
        # each part is closed under inversion and in render order, so its
        # pair_reps are the reps of all members that lie in it
        reps = self._pair_reps(self.elements)
        self._held_reps = (
            (self.elements, reps),
            (self._positive, [g for g in reps if g.key in pos]),
            (self._zero, [g for g in reps if g.key not in pos]))
        self.witness_log = witness_log
        self.certified = False  # see the module docstring

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g.key in self._inverse

    def inverse(self, g):
        """The inverse of a member, as held since the set was built."""
        gi = self._inverse.get(g.key)
        if gi is None:
            raise ValueError(
                f"{render(self.tower, g)} is not a member of the set")
        return gi

    def positive(self):
        """Members with positive top weight (closed under inversion), in
        render order."""
        return self._positive

    def zero(self):
        """Members with zero top weight (closed under inversion), in render
        order."""
        return self._zero

    def pair_reps(self, members=None):
        """One representative per inverse pair of members (all of them by
        default), in render order, as a new list.  Held for all members,
        positive() and zero()."""
        if members is None:
            members = self.elements
        for part, reps in self._held_reps:
            if members is part:
                return list(reps)
        return self._pair_reps(members)

    # the set's reducedness scan, each part made on its first read (module
    # docstring)
    @functools.cached_property
    def _prods(self):
        """The head table of _products."""
        return _products(self)

    @functools.cached_property
    def _member(self):
        """The zero part's membership test (_membership)."""
        return _membership(self.tower, self._zero)

    @functools.cached_property
    def _overlaps(self):
        """_self_overlaps of the head table: a pass that finds a mu or nu
        move never reads them."""
        return _self_overlaps(self, self._prods)

    def _pair_reps(self, members):
        out = []
        seen = set()
        for g in members:
            gi = self.inverse(g)
            if g.key in seen:
                continue
            seen.add(g.key)
            seen.add(gi.key)
            out.append(g)
        return out

    def replace(self, removed, added, log_entry):
        """The set without the removed members and their inverses, with the
        added elements; kept members bring their held inverses and names
        along."""
        t = self.tower
        gone = set()
        for g in removed:
            gone.add(g.key)
            gone.add(self.inverse(g).key)
        out = GenSet.__new__(GenSet)
        out._fill(t, [(g, self._inverse[g.key]) for g in self.elements
                      if g.key not in gone]
                  + [(g, T.invert(t, g)) for g in added
                     if not T.is_identity(g)],
                  self.witness_log + [log_entry], self._names)
        return out


def lambda_weight(Y: GenSet) -> int:
    """Sum of top weights over one representative per inverse pair."""
    t = Y.tower
    return sum(T.lam_len(t, g) for g in Y.pair_reps(Y.positive()))


def _render_set(Y: GenSet) -> str:
    """One member per inverse pair, rendered, for error messages."""
    return "{" + ", ".join(Y._names[g.key] for g in Y.pair_reps()) + "}"


def _rebuilds(t, g, factors) -> bool:
    """Whether the product of factors, left to right, is g."""
    prod = EPS
    for x in factors:
        prod = T.multiply(t, prod, x)
    return T.equals(t, prod, g)


def _witness(t, g, factors):
    """Log record expressing g as the product of factors."""
    if not _rebuilds(t, g, factors):
        raise T.EngineError(
            f"witness product does not rebuild the generator {render(t, g)}"
            f" from the factors [{', '.join(render(t, x) for x in factors)}]")
    return {"element": g, "factors": list(factors),
            "rendered": (render(t, g), [render(t, x) for x in factors])}


# ---------------------------------------------------------------------------
# weight-zero subgroup machinery


def _fold_graph(words):
    """Folded subgroup graph (Stallings) for free-group words.

    Returns (base, transitions) where transitions maps (state, letter) to a
    state for positive letters in both directions via (state, -letter)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        return find(rb)

    edges = []  # (src, letter, dst) with letter > 0
    fresh = [1]
    base = 0
    parent[0] = 0
    for w in words:
        cur = base
        for k in w:
            nxt = fresh[0]
            fresh[0] += 1
            parent[nxt] = nxt
            if k > 0:
                edges.append((cur, k, nxt))
            else:
                edges.append((nxt, -k, cur))
            cur = nxt
        union(cur, base)
    # fold: merge targets of equal-labelled edges until deterministic
    changed = True
    while changed:
        changed = False
        fwd, bwd = {}, {}
        for s, k, d in edges:
            s, d = find(s), find(d)
            if (s, k) in fwd and fwd[(s, k)] != d:
                union(fwd[(s, k)], d)
                changed = True
                break
            fwd[(s, k)] = d
            if (d, k) in bwd and bwd[(d, k)] != s:
                union(bwd[(d, k)], s)
                changed = True
                break
            bwd[(d, k)] = s
    trans = {}
    for s, k, d in edges:
        trans[(find(s), k)] = find(d)
        trans[(find(d), -k)] = find(s)
    return find(base), trans


H_RADIUS = 3  # radius of the weight-zero multiplier ball and ball searches


def subgroup_contains(t, gens, x: Elem) -> bool:
    """Membership of x in <gens>.  Exact whenever the generators are words:
    a word x is tested on the folded subgroup graph (Stallings), and an x
    above the base layer is outside, as every product of words is a word.
    Otherwise a search of the ball of radius H_RADIUS, which is sound but
    not complete."""
    return _membership(t, gens)(x)


def _membership(t, gens):
    """subgroup_contains(t, gens, .) for many queries: the subgroup graph
    is folded once, on the first word query, and the ball's keys are
    collected once, on the first query the ball decides."""
    words = all(g.level == 1 for g in gens)
    fold = keys = None

    def contains(x):
        nonlocal fold, keys
        if T.is_identity(x):
            return True
        if not gens:
            return False
        if words:
            if x.level > 1:
                return False
            if fold is None:
                fold = _fold_graph([g.word for g in gens])
            base, trans = fold
            cur = base
            for k in x.word:
                cur = trans.get((cur, k))
                if cur is None:
                    return False
            return cur == base
        if keys is None:
            keys = {h.key for h in ball(t, gens, H_RADIUS)}
        return x.key in keys

    return contains


def ball(t, gens, radius: int):
    """All products of at most `radius` generators (with inverses), plus
    the identity, deduplicated; deterministic order."""
    return list(_walk(gens, functools.partial(T.invert, t),
                      functools.partial(T.multiply, t), EPS, radius))


def _walk(gens, inv, mul, one, radius):
    """The breadth-first walk of ball, over products made by mul from the
    generators and their inverses under inv, one the identity: {product:
    position}, in ball order.  It runs on word tuples or on Elems, which
    hash and compare by their keys, so both take the same steps."""
    reps = []
    for g in gens:
        for x in (g, inv(g)):
            if x != one and x not in reps:
                reps.append(x)
    at = {one: 0}
    frontier = [one]
    for _ in range(radius):
        nxt = []
        for cur in frontier:
            for g in reps:
                cand = mul(cur, g)
                if cand not in at:
                    at[cand] = len(at)
                    nxt.append(cand)
        frontier = nxt
    return at


# ---------------------------------------------------------------------------
# the three moves


def mu(Y: GenSet, f: Elem, g: Elem, h: Elem) -> GenSet:
    """Merge the shared head u of f and h*g (strictly decreasing weight)."""
    t = Y.tower
    lam = lambda x: T.lam_len(t, x)  # noqa: E731
    if lam(f) <= 0 or lam(g) <= 0 or f.key == g.key:
        raise Inapplicable("mu needs distinct positive-weight f, g")
    hg = T.multiply(t, h, g)
    rest = T.multiply(t, Y.inverse(f), hg)
    u = T._gromov_cut(t, f, hg, rest)  # com(f, hg), from f^-1*hg
    if lam(u) <= 0:
        raise Inapplicable("mu needs a positive-weight common head")
    ui = T.invert(t, u)
    if f.key != Y.inverse(g).key:
        w1 = T.multiply(t, ui, f)
        w2 = T.multiply(t, w1, rest)  # u^-1*hg, as f = u*w1
        removed, added = [f, g], [u, w1, w2]
        if lam(rest) == 0 and not T.is_identity(rest):
            added.append(rest)
        witnesses = [_witness(t, f, [u, w1]),
                     _witness(t, g, [T.invert(t, h), u, w2])]
    else:
        w2u = T.multiply(t, T.multiply(t, ui, hg), u)
        removed, added = [g], [u, w2u]
        witnesses = [_witness(t, g, [T.invert(t, h), u, w2u, ui])]
    entry = {"op": "mu",
             "params": [Y._names[f.key], Y._names[g.key], render(t, h)],
             "witnesses": witnesses}
    out = Y.replace(removed, [x for x in added if not T.is_identity(x)],
                    entry)
    if lambda_weight(out) >= lambda_weight(Y):
        raise T.EngineError(
            f"mu did not decrease the weight of {_render_set(Y)}")
    return out


def eta(Y: GenSet, f: Elem, h: Elem) -> GenSet:
    """Split f = u o f1 when its head u repeats in h*f."""
    t = Y.tower
    lam = lambda x: T.lam_len(t, x)  # noqa: E731
    if lam(f) <= 0:
        raise Inapplicable("eta needs positive-weight f")
    u = T.com(t, f, T.multiply(t, h, f))
    if not 0 < lam(u) < lam(f):
        raise Inapplicable("eta needs a proper positive-weight head")
    ui = T.invert(t, u)
    f1 = T.multiply(t, ui, f)
    conj = T.multiply(t, T.multiply(t, ui, h), u)
    entry = {
        # a non-member f renders here and meets replace's ValueError
        "op": "eta", "params": [Y._names.get(f.key) or render(t, f),
                                render(t, h)],
        "witnesses": [_witness(t, f, [u, f1])],
    }
    added = [x for x in (f1, u, conj) if not T.is_identity(x)]
    return Y.replace([f], added, entry)


def nu(Y: GenSet, f: Elem) -> GenSet:
    """Replace a non-cyclically-reduced f by its conjugator and core."""
    t = Y.tower
    if T.lam_len(t, f) <= 0:
        raise Inapplicable("nu needs positive-weight f")
    c, core = T.cyclic_decompose(t, f)
    if T.is_identity(c):
        raise Inapplicable("f is already cyclically reduced")
    ci = T.invert(t, c)
    entry = {
        # a non-member f renders here and meets replace's ValueError
        "op": "nu", "params": [Y._names.get(f.key) or render(t, f)],
        "witnesses": [_witness(t, f, [ci, core, c])],
    }
    return Y.replace([f], [c, core], entry)


# ---------------------------------------------------------------------------
# the reduction loop


_MAX_AUGMENT = 8


def _products(Y):
    """{g.key: [(h, head of h*g) for h in hs if that head is a positive
    generator's]} over the positive generators g, hs being the weight-zero
    multiplier ball of radius H_RADIUS: the one table that a pass's scans
    read, one row per g (tower._product_hits); no h*g is built.  Over a
    word zero part the ball stays word tuples, and its Elems are made for
    the first full row only (module docstring)."""
    t = Y.tower
    zero = Y.zero()
    if all(h.level == 1 for h in zero):
        at = _walk([h.word for h in zero], W.w_inv, W.w_mul, W.EPS,
                   H_RADIUS)
        index = at, max(map(len, at))
        hs = functools.cache(lambda: [T.word_elem(w) for w in at])
    else:
        index, full = None, ball(t, zero, H_RADIUS)
        hs = lambda: full  # noqa: E731
    pos = Y.positive()
    heads = {T._head(t, g) for g in pos}
    return {g.key: T._product_hits(t, g, hs, index, heads) for g in pos}


def _shared_heads(Y, prods, f):
    """(g, h), g != f positive, with com(f, h*g) of positive weight."""
    head = T._head(Y.tower, f)
    for g in Y.positive():
        if g.key == f.key:
            continue
        for h, hg in prods[g.key]:
            if hg == head:
                yield g, h


def _self_overlaps(Y, prods):
    """(f, h, x), f positive, for each h != 1 with com(f, h*f) of positive
    weight, x = f^-1*h*f when it has weight zero (the overlap is total),
    else None (module docstring); h = 1 is skipped, as it overlaps f
    totally and conjugates it trivially."""
    t = Y.tower
    out = []
    for f in Y.positive():
        head = T._head(t, f)
        for h, hf in prods[f.key]:
            if not T.is_identity(h) and hf == head:
                out.append((f, h, T._weight_zero_conjugate(t, f, h)))
    return out


def _find_mu(Y, prods):
    t, names = Y.tower, Y._names
    return min(((f, g, h) for f in Y.positive()
                for g, h in _shared_heads(Y, prods, f)),
               key=lambda c: [names[c[0].key], names[c[1].key],
                              render(t, c[2])], default=None)


def _find_nu(Y):
    t = Y.tower
    return min((f for f in Y.pair_reps(Y.positive())
                if not T.is_cyclically_reduced(t, f)),
               key=lambda f: Y._names[f.key], default=None)


def _find_eta(Y, overlaps):
    return min(((f, h) for f, h, x in overlaps if x is None),
               key=lambda c: [Y._names[c[0].key], render(Y.tower, c[1])],
               default=None)


def _augment_closure(Y: GenSet):
    """Add the centralizer elements making condition (d) hold: whenever a
    positive generator is weight-preservingly conjugated by some h of the
    weight-zero subgroup, keep the conjugation inside that subgroup.
    Returns the enlarged set, or Y and whether (d) already held."""
    t = Y.tower
    added = []
    zero = Y.zero()
    member = Y._member
    held = True
    # reduce_genset calls this only once _find_eta finds no partial
    # overlap, so every x here is f^-1*h*f, of weight zero
    for f, h, x in Y._overlaps:
        if member(x):
            continue
        held = False
        fi = Y.inverse(f)
        before = len(added)
        for c in T.subgroup_gens(t, T.centralizer(t, h)):
            if T.lam_len(t, c) == 0:
                added.append(c)
                added.append(T.multiply(t, T.multiply(t, fi, c), f))
        if len(added) > before:
            member = _membership(t, [*zero, *added])
    if not added:
        return Y, held
    entry = {"op": "augment",
             "params": [],
             "witnesses": [],
             "added": [render(t, x) for x in added]}
    return Y.replace([], added, entry), False


def reduce_genset(t, Y) -> GenSet:
    """Apply the three moves to exhaustion, then close the weight-zero part.

    Halts within (initial weight)^2 move applications; a failure to do so is
    an internal error, never silent looping.  The result is certified when
    the last pass, which finds nothing to do, finds no (d) record either."""
    if not isinstance(Y, GenSet):
        Y = GenSet(t, Y)
    given = Y
    bound = max(1, lambda_weight(Y)) ** 2
    steps = 0
    augments = 0
    while True:
        cand = _find_mu(Y, Y._prods)
        if cand is not None:
            Y = mu(Y, *cand)
        else:
            cand = _find_nu(Y)
            if cand is not None:
                Y = nu(Y, cand)
            else:
                cand = _find_eta(Y, Y._overlaps)
                if cand is not None:
                    Y = eta(Y, *cand)
                else:
                    Y2, held = _augment_closure(Y)
                    if Y2 is Y:
                        if held:
                            Y.certified = True
                        return Y
                    Y = Y2
                    augments += 1
                    if augments > _MAX_AUGMENT:
                        raise T.EngineError(
                            f"closure augmentation of {_render_set(given)}"
                            " did not stabilize")
                    continue
        steps += 1
        if steps > bound:
            raise T.EngineError(
                f"reduction of {_render_set(given)} exceeded its step bound"
                f" ({bound})")


def is_reduced(t, Y) -> list[str]:
    """Violations of the reducedness conditions (empty list = reduced).

    (a) every positive generator is cyclically reduced; (b) distinct
    positive generators never share a positive-weight head, under any
    weight-zero multiplier; (c) a positive-weight self-overlap is total;
    (d) total self-overlaps conjugate back into the weight-zero subgroup.
    The weight-zero multipliers h are enumerated in the ball of radius
    H_RADIUS, so (b)-(d) are sound but bounded.  The records are read from
    Y's scan: the one reduce_genset's last pass left on its result, else
    one made now.  A self-overlap (f, h, x) is a (c) record where x is None
    and a (d) record where the weight-zero conjugate x = f^-1*h*f is not in
    the weight-zero subgroup (module docstring).  Y.certified is not
    read."""
    if not isinstance(Y, GenSet):
        Y = GenSet(t, Y)
    out = []
    for f in Y.pair_reps(Y.positive()):
        if not T.is_cyclically_reduced(t, f):
            out.append(f"(a) not cyclically reduced: {render(t, f)}")
    for f in Y.positive():
        for g, h in _shared_heads(Y, Y._prods, f):
            out.append(f"(b) shared head: f={render(t, f)} g={render(t, g)}"
                       f" h={render(t, h)}")
            break
    for f, h, x in Y._overlaps:
        if x is None:
            out.append(f"(c) partial self-overlap: f={render(t, f)} "
                       f"h={render(t, h)}")
        elif not Y._member(x):
            out.append(f"(d) conjugate escapes the weight-zero part: "
                       f"f={render(t, f)} h={render(t, h)}")
    return out


def _require_reduced(t, Z) -> GenSet:
    """Z as a certified GenSet, or a TowerRejection naming the violations
    that is_reduced finds (see the module docstring)."""
    if not isinstance(Z, GenSet):
        Z = GenSet(t, Z)
    if not Z.certified:
        bad = is_reduced(t, Z)
        if bad:
            raise T.TowerRejection("generating-set-not-reduced",
                                   "; ".join(bad))
        Z.certified = True
    return Z


def verify_witnesses(t, Y: GenSet) -> bool:
    """Re-check every witness product in the log."""
    for entry in Y.witness_log:
        for w in entry.get("witnesses", ()):
            if not _rebuilds(t, w["element"], w["factors"]):
                return False
    return True
