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
(d).  Each pass of the loop, and each is_reduced call, reads the head of
h*g for every positive generator g and every multiplier h once, into one
table that both scanners read.  com(f, h*g) has positive weight exactly when
the heads of f and h*g (tower._head: the first margin and the first block)
are equal, and the head of h*g is read off h times g's first margin
(tower._product_head), so the (b) scan builds no product and no com at all.
The overlap scan builds h*f and its com only for each positive-weight
overlap, whose head u it keeps, and the (d) test follows f's pinch chain
(tower._weight_zero_conjugate) instead of building f^-1*h*f.

When the loop's last pass finds no (d) record either, its result is
certified: GenSet.reduced_at holds the h-radius at which (a)-(d) are known
to hold (None on every new set), and pregroup trusts it.  is_reduced never
reads it, so it stays an independent check of reduce_genset.
"""

from __future__ import annotations

from . import tower as T
from .tower import Elem, EPS
from .wordexpr import render


class Inapplicable(Exception):
    """The move's precondition fails for these parameters."""


# ---------------------------------------------------------------------------
# generating sets


class GenSet:
    """A finite symmetric set of tower elements with a witness log."""

    def __init__(self, t, elements, witness_log=None):
        self.tower = t
        seen = {}
        for g in elements:
            if T.is_identity(g):
                continue
            seen[g.key] = g
            gi = T.invert(t, g)
            seen[gi.key] = gi
        self.elements = tuple(sorted(seen.values(), key=lambda g: render(t, g)))
        self.witness_log = list(witness_log or [])
        self.reduced_at = None  # see the module docstring

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return any(g.key == x.key for x in self.elements)

    def positive(self):
        """Members with positive top weight (closed under inversion)."""
        return [g for g in self.elements if T.lam_len(self.tower, g) > 0]

    def zero(self):
        """Members with zero top weight (closed under inversion)."""
        return [g for g in self.elements if T.lam_len(self.tower, g) == 0]

    def pair_reps(self, members=None):
        """One representative per inverse pair, in render order."""
        t = self.tower
        out = []
        seen = set()
        for g in (self.elements if members is None else members):
            if g.key in seen:
                continue
            seen.add(g.key)
            seen.add(T.invert(t, g).key)
            out.append(g)
        return out

    def replace(self, removed, added, log_entry):
        t = self.tower
        gone = set()
        for g in removed:
            gone.add(g.key)
            gone.add(T.invert(t, g).key)
        kept = [g for g in self.elements if g.key not in gone]
        return GenSet(t, kept + list(added),
                      self.witness_log + [log_entry])


def lambda_weight(Y: GenSet) -> int:
    """Sum of top weights over one representative per inverse pair."""
    t = Y.tower
    return sum(T.lam_len(t, g) for g in Y.pair_reps(Y.positive()))


def _rebuilds(t, g, factors) -> bool:
    """Whether the product of factors, left to right, is g."""
    prod = EPS
    for x in factors:
        prod = T.multiply(t, prod, x)
    return T.equals(t, prod, g)


def _witness(t, g, factors):
    """Log record expressing g as the product of factors."""
    if not _rebuilds(t, g, factors):
        raise T.EngineError("witness product does not rebuild the generator")
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


def subgroup_contains(t, gens, x: Elem, radius: int = H_RADIUS) -> bool:
    """Membership of x in <gens>.  Exact when everything lives in the base
    free layer (folded subgroup graph); otherwise a ball search of the
    given radius, which is sound but not complete."""
    if T.is_identity(x):
        return True
    if not gens:
        return False
    if x.level == 1 and all(g.level == 1 for g in gens):
        base, trans = _fold_graph([g.word for g in gens])
        cur = base
        for k in x.word:
            cur = trans.get((cur, k))
            if cur is None:
                return False
        return cur == base
    for h in ball(t, gens, radius):
        if T.equals(t, h, x):
            return True
    return False


def ball(t, gens, radius: int):
    """All products of at most `radius` generators (with inverses), plus
    the identity, deduplicated; deterministic order."""
    reps = []
    seen = set()
    for g in gens:
        for x in (g, T.invert(t, g)):
            if x.key not in seen and not T.is_identity(x):
                seen.add(x.key)
                reps.append(x)
    out = [EPS]
    known = {EPS.key}
    frontier = [EPS]
    for _ in range(radius):
        nxt = []
        for cur in frontier:
            for g in reps:
                cand = T.multiply(t, cur, g)
                if cand.key not in known:
                    known.add(cand.key)
                    nxt.append(cand)
                    out.append(cand)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# the three moves


def mu(Y: GenSet, f: Elem, g: Elem, h: Elem) -> GenSet:
    """Merge the shared head u of f and h*g (strictly decreasing weight)."""
    t = Y.tower
    lam = lambda x: T.lam_len(t, x)  # noqa: E731
    if lam(f) <= 0 or lam(g) <= 0 or f.key == g.key:
        raise Inapplicable("mu needs distinct positive-weight f, g")
    hg = T.multiply(t, h, g)
    u = T.com(t, f, hg)
    if lam(u) <= 0:
        raise Inapplicable("mu needs a positive-weight common head")
    ui = T.invert(t, u)
    fi = T.invert(t, f)
    if f.key != T.invert(t, g).key:
        w1 = T.multiply(t, ui, f)
        w2 = T.multiply(t, ui, hg)
        added = [u, w1, w2]
        rest = T.multiply(t, fi, hg)
        if lam(rest) == 0 and not T.is_identity(rest):
            added.append(rest)
        entry = {
            "op": "mu", "params": [render(t, x) for x in (f, g, h)],
            "witnesses": [
                _witness(t, f, [u, w1]),
                _witness(t, g, [T.invert(t, h), u, w2]),
            ],
        }
        out = Y.replace([f, g], [x for x in added if not T.is_identity(x)],
                        entry)
    else:
        w2 = T.multiply(t, ui, hg)
        w2u = T.multiply(t, w2, u)
        entry = {
            "op": "mu", "params": [render(t, x) for x in (f, g, h)],
            "witnesses": [
                _witness(t, g, [T.invert(t, h), u, w2u, ui]),
            ],
        }
        out = Y.replace([g], [x for x in (u, w2u) if not T.is_identity(x)],
                        entry)
    if lambda_weight(out) >= lambda_weight(Y):
        raise T.EngineError("mu did not decrease the weight")
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
        "op": "eta", "params": [render(t, x) for x in (f, h)],
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
        "op": "nu", "params": [render(t, f)],
        "witnesses": [_witness(t, f, [ci, core, c])],
    }
    return Y.replace([f], [c, core], entry)


# ---------------------------------------------------------------------------
# the reduction loop


_MAX_AUGMENT = 8


def _products(Y, hs):
    """{g.key: [(h, head of h*g) for h in hs]} over the positive generators
    g: the one table that a pass's scans read.  Each head is read off h*m0,
    with m0 g's first margin, settled against g's first block
    (tower._product_head); no h*g is built."""
    t = Y.tower
    return {g.key: [(h, T._product_head(t, h, g)) for h in hs]
            for g in Y.positive()}


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
    """(f, h, u), f positive, with u = com(f, h*f) of positive weight; h = 1
    is skipped, as it overlaps f totally and conjugates it trivially.  h*f
    is built only where the heads meet, for its com with f."""
    t = Y.tower
    out = []
    for f in Y.positive():
        head = T._head(t, f)
        for h, hf in prods[f.key]:
            if not T.is_identity(h) and hf == head:
                out.append((f, h, T.com(t, f, T.multiply(t, h, f))))
    return out


def _find_mu(Y, prods):
    t = Y.tower
    return min(((f, g, h) for f in Y.positive()
                for g, h in _shared_heads(Y, prods, f)),
               key=lambda c: [render(t, x) for x in c], default=None)


def _find_nu(Y):
    t = Y.tower
    return min((f for f in Y.pair_reps(Y.positive())
                if not T.is_cyclically_reduced(t, f)),
               key=lambda f: render(t, f), default=None)


def _find_eta(t, overlaps):
    return min(((f, h) for f, h, u in overlaps
                if T.lam_len(t, u) < T.lam_len(t, f)),
               key=lambda c: [render(t, x) for x in c], default=None)


def _escapes(t, zero, f, h, h_radius):
    """(whether f^-1 * h * f lies outside <zero>, that conjugate when it has
    weight zero, else None)."""
    x = T._weight_zero_conjugate(t, f, h)
    return x is None or not subgroup_contains(t, zero, x, h_radius), x


def _augment_closure(Y: GenSet, overlaps, h_radius):
    """Add the centralizer elements making condition (d) hold: whenever a
    positive generator is weight-preservingly conjugated by some h of the
    weight-zero subgroup, keep the conjugation inside that subgroup.
    Returns the enlarged set, or Y and whether (d) already held."""
    t = Y.tower
    added = []
    zero = Y.zero()
    held = True
    for f, h, u in overlaps:
        if T.lam_len(t, u) != T.lam_len(t, f):
            continue
        escaped, x = _escapes(t, zero + added, f, h, h_radius)
        if not escaped:
            continue
        held = False
        if x is None:
            continue
        fi = T.invert(t, f)
        for c in T.subgroup_gens(t, T.centralizer(t, h)):
            if T.lam_len(t, c) == 0:
                added.append(c)
                added.append(T.multiply(t, T.multiply(t, fi, c), f))
    if not added:
        return Y, held
    entry = {"op": "augment",
             "params": [],
             "witnesses": [],
             "added": [render(t, x) for x in added]}
    return Y.replace([], added, entry), False


def reduce_genset(t, Y, h_radius: int = H_RADIUS) -> GenSet:
    """Apply the three moves to exhaustion, then close the weight-zero part.

    Halts within (initial weight)^2 move applications; a failure to do so is
    an internal error, never silent looping.  The result is certified when
    the last pass, which finds nothing to do, finds no (d) record either."""
    if not isinstance(Y, GenSet):
        Y = GenSet(t, Y)
    bound = max(1, lambda_weight(Y)) ** 2
    steps = 0
    augments = 0
    while True:
        prods = _products(Y, ball(t, Y.zero(), h_radius))
        cand = _find_mu(Y, prods)
        if cand is not None:
            Y = mu(Y, *cand)
        else:
            cand = _find_nu(Y)
            if cand is not None:
                Y = nu(Y, cand)
            else:
                overlaps = _self_overlaps(Y, prods)
                cand = _find_eta(t, overlaps)
                if cand is not None:
                    Y = eta(Y, *cand)
                else:
                    Y2, held = _augment_closure(Y, overlaps, h_radius)
                    if Y2 is Y:
                        if held:
                            Y.reduced_at = h_radius
                        return Y
                    Y = Y2
                    augments += 1
                    if augments > _MAX_AUGMENT:
                        raise T.EngineError(
                            "closure augmentation did not stabilize")
                    continue
        steps += 1
        if steps > bound:
            raise T.EngineError(
                f"reduction exceeded its step bound ({bound})")


def is_reduced(t, Y, h_radius: int = H_RADIUS) -> list[str]:
    """Violations of the reducedness conditions (empty list = reduced).

    (a) every positive generator is cyclically reduced; (b) distinct
    positive generators never share a positive-weight head, under any
    weight-zero multiplier; (c) a positive-weight self-overlap is total;
    (d) total self-overlaps conjugate back into the weight-zero subgroup.
    The weight-zero multipliers h are enumerated in a ball, so (b)-(d) are
    sound but bounded.  Always a full scan: Y.reduced_at is not read."""
    if not isinstance(Y, GenSet):
        Y = GenSet(t, Y)
    out = []
    zero = Y.zero()
    prods = _products(Y, ball(t, zero, h_radius))
    for f in Y.pair_reps(Y.positive()):
        if not T.is_cyclically_reduced(t, f):
            out.append(f"(a) not cyclically reduced: {render(t, f)}")
    for f in Y.positive():
        for g, h in _shared_heads(Y, prods, f):
            out.append(f"(b) shared head: f={render(t, f)} g={render(t, g)}"
                       f" h={render(t, h)}")
            break
    for f, h, u in _self_overlaps(Y, prods):
        if T.lam_len(t, u) != T.lam_len(t, f):
            out.append(f"(c) partial self-overlap: f={render(t, f)} "
                       f"h={render(t, h)}")
        elif _escapes(t, zero, f, h, h_radius)[0]:
            out.append(f"(d) conjugate escapes the weight-zero part: "
                       f"f={render(t, f)} h={render(t, h)}")
    return out


def verify_witnesses(t, Y: GenSet) -> bool:
    """Re-check every witness product in the log."""
    for entry in Y.witness_log:
        for w in entry.get("witnesses", ()):
            if not _rebuilds(t, w["element"], w["factors"]):
                return False
    return True
