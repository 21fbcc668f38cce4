"""The benchmark's three workloads: seeded inputs, tasks, checks and digests.

Each workload turns (seed, task index) into plain data (token lists and
free-group words) with `random`, so the same seed gives the same inputs and
the engine sees only those inputs.  A task is split into

- ``run``: the engine calls the task is timed on;
- ``check``: independent checks of the outputs (untimed, untraced), returning
  a list of failure strings;
- ``digest``: one sha256 of the canonical outputs, compared against the
  committed reference for the default seed;
- ``traffic``: the input and output dimensions the task produced.

Engine modules are reached through their module attributes (``T.multiply``)
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random

import oracle as O
from znfree import factory as F
from znfree import nielsen as N
from znfree import pregroup as P
from znfree import tower as T
from znfree.wordexpr import render


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _rand_reduced(rng, n, letters=(1, -1, 2, -2, 3, -3)) -> tuple:
    w: list = []
    while len(w) < n:
        x = rng.choice(letters)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


def _letters_inv(word) -> list:
    return [(s, -e) for s, e in reversed(word)]


def _letters_reduce(word) -> list:
    out: list = []
    for s, e in word:
        if out and out[-1] == (s, -e):
            out.pop()
        else:
            out.append((s, e))
    return out


def _generators(towers) -> dict:
    """Per tower, its base symbols and stable letters as elements."""
    return {tn: {s: T.gen_elem(t, s)
                 for s in list(t.symbols) + list(t.letters)}
            for tn, t in towers.items()}


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.towers: dict = {}

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")


# ---------------------------------------------------------------------------
# nf-deep


class NfDeep(Workload):
    name = "nf-deep"
    why = ("normal-form arithmetic on fa3, fa4, fa5, a free product and ns3: "
           "tower.build and its margin passes take almost all of the time")
    ORDER = ("fa3", "fa4", "fa5", "fp", "ns3")
    EXPONENTS = (-1, 1)

    def setup(self):
        self.towers = {
            "fa3": F.free_abelian(3),
            "fa4": F.free_abelian(4),
            "fa5": F.free_abelian(5),
            "fp": F.free_product(F.free_abelian(3), F.t1()),
            "ns3": F.surface_nonorientable(3),
        }
        self.gens = _generators(self.towers)

    def inputs(self, i):
        rng = self.rng(i)
        tn = self.ORDER[i % len(self.ORDER)]
        t = self.towers[tn]
        toks = list(t.symbols) + list(t.letters)
        letters = list(t.letters)
        words = []
        for _ in range(2):
            word = [(rng.choice(toks), rng.choice(self.EXPONENTS))
                    for _ in range(rng.randint(2, 8))]
            # acceptance-test-8 style relator quads: a pinch and a slide
            quads = []
            for kind in ("pinch", "slide"):
                sl = t.letters[rng.choice(letters)]
                quads.append((kind, sl.name,
                              rng.randrange(len(sl.source_gens)),
                              rng.random() < 0.5, rng.randint(1, 3),
                              rng.random()))
            folds = [[rng.random() for _ in range(len(word) + 8)]
                     for _ in range(2)]
            words.append((word, quads, folds))
        return tn, words

    @staticmethod
    def _fold(t, items, draws):
        items = list(items)
        if not items:
            return T.EPS
        k = 0
        while len(items) > 1:
            j = int(draws[k] * (len(items) - 1))
            k += 1
            items[j:j + 2] = [T.multiply(t, items[j], items[j + 1])]
        return items[0]

    def run(self, inp):
        tn, words = inp
        t = self.towers[tn]
        gens = self.gens[tn]
        out = []
        for word, quads, (br1, br2) in words:
            factors = [T.pow_elem(t, gens[s], e) for s, e in word]
            plain = self._fold(t, factors, br1)
            alt = list(factors)
            for kind, letter, gi, flip, k, pos in quads:
                at = int(pos * (len(alt) + 1))
                alt[at:at] = self._quad_elems(t, gens, kind, letter, gi,
                                              flip, k)
            out.append((plain, self._fold(t, alt, br2)))
        (g, _), (h, _) = out
        return {"folds": out,
                "mul": T.multiply(t, g, h),
                "inv": T.invert(t, g),
                "com": T.com(t, g, h),
                "gromov2": T.gromov2(t, g, h)}

    @staticmethod
    def _quad_elems(t, gens, kind, letter, gi, flip, k):
        sl = t.letters[letter]
        z = gens[letter]
        zi = T.invert(t, z)
        a, fa = sl.source_gens[gi], sl.target_gens[gi]
        if kind == "slide":
            # a^k * z * phi(a)^-k * z^-1 = 1
            return [T.pow_elem(t, a, k), z, T.pow_elem(t, fa, -k), zi]
        if flip:
            # z * phi(a) * z^-1 * a^-1 = 1
            return [z, fa, zi, T.invert(t, a)]
        # z^-1 * a * z * phi(a)^-1 = 1
        return [zi, a, z, T.invert(t, fa)]

    def check(self, inp, out):
        tn, _ = inp
        t = self.towers[tn]
        bad = []
        for name, (plain, alt) in zip("gh", out["folds"]):
            if plain.key != alt.key:
                bad.append(f"{name}: bracketing/relator insertion changed "
                           "the key")
        (g, _), (h, _) = out["folds"]
        gi, c, gr = out["inv"], out["com"], out["gromov2"]
        if T.length(t, g) != T.length(t, gi):
            bad.append("L2: l(g) != l(g^-1)")
        if not T.is_identity(T.multiply(t, g, gi)):
            bad.append("g * g^-1 is not the identity")
        if any(x % 2 for x in gr):
            bad.append(f"Gromov product not integral: 2c = {gr}")
        lc = T.length(t, c)
        if _vadd(lc, lc) != tuple(gr):
            bad.append("L6: l(com) does not realize the Gromov product")
        ci = T.invert(t, c)
        for x in (g, h):
            rest = T.multiply(t, ci, x)
            if T.length(t, x) != _vadd(lc, T.length(t, rest)):
                bad.append("L6: factorization through com is not additive")
        return bad

    def digest(self, inp, out):
        (g, _), (h, _) = out["folds"]
        return _sha((g.key, h.key, out["mul"].key, out["inv"].key,
                     out["com"].key, tuple(out["gromov2"])))

    def traffic(self, inp, out):
        tn, words = inp
        p = out["mul"]
        return {"tower": tn,
                "tower_rank": self.towers[tn].rank,
                "word_tokens": [len(w) for w, _, _ in words],
                "product_blocks": 0 if p.level == 1 else len(p.parts) // 2,
                "product_weight": T.lam_len(self.towers[tn], p)}


# ---------------------------------------------------------------------------
# reduce


class Reduce(Workload):
    name = "reduce"
    why = ("reduce_genset, is_reduced, split_level and piece sequences on t1, "
           "surf2 and ns3: nielsen's search loops repeat the same products")
    ORDER = ("t1", "surf2", "ns3")
    BASES = {"t1": ("a", "b", "z"),
             "surf2": ("x2", "x3", "x4", "x1"),
             "ns3": ("x2", "x3", "x1r")}
    MOVES = (1, 2, 3, 4)

    def setup(self):
        self.towers = {"t1": F.t1(),
                       "surf2": F.surface_orientable(2),
                       "ns3": F.surface_nonorientable(3)}
        self.gens = _generators(self.towers)

    def inputs(self, i):
        """The tower's basis after a few random elementary Nielsen moves
        (x <- x*y^+-1 or y^+-1*x), each word kept to at most 4 letters."""
        rng = self.rng(i)
        tn = self.ORDER[i % len(self.ORDER)]
        moves = self.MOVES[(i // len(self.ORDER)) % len(self.MOVES)]
        words = [[(s, 1)] for s in self.BASES[tn]]
        while moves:
            a, b = rng.sample(range(len(words)), 2)
            y = words[b] if rng.random() < 0.5 else _letters_inv(words[b])
            new = _letters_reduce(words[a] + y if rng.random() < 0.5
                                  else y + words[a])
            if 1 <= len(new) <= 4:
                words[a] = new
                moves -= 1
        rng.shuffle(words)
        pieces = [[(rng.sample(range(6), rng.randint(0, 2)),
                    rng.random(), rng.random() < 0.5,
                    rng.sample(range(6), rng.randint(0, 2)))
                   for _ in range(rng.randint(1, 3))]
                  for _ in range(3)]
        return tn, words, pieces

    def _elem(self, t, gens, word):
        out = T.EPS
        for s, e in word:
            out = T.multiply(t, out, gens[s] if e > 0
                             else T.invert(t, gens[s]))
        return out

    def _piece(self, t, R, spec):
        left, pick, flip, right = spec
        pos = R.pair_reps(R.positive())
        zero = R.pair_reps(R.zero())

        def margin(idx):
            m = T.EPS
            for j in idx:
                if zero:
                    m = T.multiply(t, m, zero[j % len(zero)])
            return m

        f = pos[int(pick * len(pos))] if pos else T.EPS
        if flip:
            f = T.invert(t, f)
        return T.multiply(t, T.multiply(t, margin(left), f), margin(right))

    def run(self, inp):
        tn, words, pieces = inp
        t = self.towers[tn]
        gens = self.gens[tn]
        Y = N.GenSet(t, [self._elem(t, gens, w) for w in words])
        R = N.reduce_genset(t, Y)
        violations = N.is_reduced(t, R)
        witnesses_ok = N.verify_witnesses(t, R)
        split = P.split_level(t, R)
        seqs = []
        for spec in pieces:
            items = [self._piece(t, R, s) for s in spec]
            seqs.append((items, P.reduce_psequence(
                t, R, P.PSequence(list(items))).items))
        return {"Y": Y, "R": R, "violations": violations,
                "witnesses_ok": witnesses_ok, "split": split, "seqs": seqs}

    def check(self, inp, out):
        tn = inp[0]
        t = self.towers[tn]
        lam = lambda x: T.lam_len(t, x)  # noqa: E731
        R = out["R"]
        bad = [f"is_reduced: {v}" for v in out["violations"]]
        if not out["witnesses_ok"]:
            bad.append("verify_witnesses failed")
        # witnesses again, folded right to left
        for entry in R.witness_log:
            for w in entry.get("witnesses", ()):
                prod = T.EPS
                for x in reversed(w["factors"]):
                    prod = T.multiply(t, x, prod)
                if prod.key != w["element"].key:
                    bad.append(f"{entry['op']} witness does not rebuild "
                               f"{w['rendered'][0]}")
        keys = {x.key for x in R}
        if any(T.invert(t, x).key not in keys for x in R):
            bad.append("reduced set is not symmetric")
        split = out["split"]
        if any(lam(x) != 0 for x in split.base_gens):
            bad.append("split_level: base generator of nonzero weight")
        for y, src, tgt in split.stable_letters:
            yi = T.invert(t, y)
            if lam(y) <= 0:
                bad.append("split_level: stable letter of weight <= 0")
            for a, b in zip(src, tgt):
                if T.multiply(t, T.multiply(t, yi, a), y).key != b.key:
                    bad.append("split_level: y^-1 a y is not the image")
        for items, red in out["seqs"]:
            prod_in, prod_out = T.EPS, T.EPS
            for x in items:
                prod_in = T.multiply(t, prod_in, x)
            for x in red:
                prod_out = T.multiply(t, prod_out, x)
            if prod_in.key != prod_out.key:
                bad.append("reduce_psequence changed the product")
            if sum(lam(x) for x in red) != lam(prod_in):
                bad.append("reduce_psequence: weight is not additive")
        return bad

    def digest(self, inp, out):
        t = self.towers[inp[0]]
        split = out["split"]
        return _sha((
            [render(t, x) for x in out["R"]],
            [render(t, x) for x in split.base_gens],
            [(render(t, y), len(src)) for y, src, _ in split.stable_letters],
            [[x.key for x in red] for _, red in out["seqs"]]))

    def traffic(self, inp, out):
        tn, words, _ = inp
        Y, R = out["Y"], out["R"]
        return {"tower": tn,
                "tower_rank": self.towers[tn].rank,
                "generators": len(words),
                "word_letters": [len(w) for w in words],
                "weight": N.lambda_weight(Y),
                "reduced_size": len(R),
                "reduced_zero_pairs": len(R.zero()) // 2,
                "reduction_moves": sum(1 for e in R.witness_log
                                       if e["op"] != "augment")}


# ---------------------------------------------------------------------------
# free-base


class FreeBase(Workload):
    name = "free-base"
    why = ("base layer only, F(a,b,c): words and the Stallings fold do all "
           "the work and tower.build never runs, the control for normal-form "
           "changes")
    EDGES = (120, 240, 480, 720, 960)

    def setup(self):
        self.towers = {"free3": F.free_tower(["a", "b", "c"])}

    def inputs(self, i):
        rng = self.rng(i)
        a = _rand_reduced(rng, rng.randint(0, 60))
        b = _rand_reduced(rng, rng.randint(0, 60))
        c = _rand_reduced(rng, rng.randint(0, 10))
        if i % 2 == 0:
            # a conjugate of a's cyclic core by a rotation and c
            core = O.cyclic_core(a)[1]
            r = rng.randrange(len(core)) if core else 0
            conj = O.mul(O.inv(c), core[r:] + core[:r], c)
        else:
            conj = _rand_reduced(rng, rng.randint(0, 60))
        root = _rand_reduced(rng, rng.randint(1, 12))
        d = _rand_reduced(rng, rng.randint(0, 8))
        power = O.mul(O.inv(d), O.mul(*[root] * rng.randint(1, 5)), d)
        # subgroup generators in the kernel of a parity homomorphism
        mask = rng.choice(((1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
                           (1, 2, 3)))
        edges = self.EDGES[(i // 4) % len(self.EDGES)]
        gens, total = [], 0
        while total < edges:
            w = _rand_reduced(rng, rng.randint(4, 40))
            if O.parity(w, mask) == 0:
                gens.append(w)
                total += len(w)
        member = i % 4 < 2
        if member:
            query = O.mul(*[g if rng.random() < 0.5 else O.inv(g)
                            for g in rng.choices(gens, k=rng.randint(1, 4))])
        else:
            while True:
                query = _rand_reduced(rng, rng.randint(1, 30))
                if O.parity(query, mask):
                    break
        return {"a": a, "b": b, "conj": conj, "power": power,
                "gens": gens, "query": query, "member": member}

    def run(self, inp):
        t = self.towers["free3"]
        e = T.word_elem
        a, b = e(inp["a"]), e(inp["b"])
        return {"mul": T.multiply(t, a, b),
                "com": T.com(t, a, b),
                "cyc": T.cyclic_decompose(t, a),
                "root": T.primitive_root(t, e(inp["power"])),
                "conj": T.is_conjugate(t, a, e(inp["conj"])),
                "member": N.subgroup_contains(
                    t, [e(g) for g in inp["gens"]], e(inp["query"]))}

    def check(self, inp, out):
        a, b = inp["a"], inp["b"]
        bad = []
        if out["mul"].word != O.mul(a, b):
            bad.append("multiply differs from scan-and-cancel")
        if out["com"].word != O.lcp(a, b):
            bad.append("com differs from the longest common prefix")
        c, core = out["cyc"]
        p, ocore = O.cyclic_core(a)
        if core.word != ocore or c.word != O.inv(p):
            bad.append("cyclic_decompose differs from the oracle")
        root, k = out["root"]
        p, pcore = O.cyclic_core(inp["power"])
        oroot, ok_ = O.periodic_root(pcore)
        if k != ok_ or root.word != O.mul(p, oroot, O.inv(p)):
            bad.append("primitive_root differs from the oracle")
        if out["conj"] != O.conjugate(a, inp["conj"]):
            bad.append("is_conjugate differs from the rotation oracle")
        if out["member"] != inp["member"]:
            bad.append("subgroup_contains: "
                       + ("member by construction rejected" if inp["member"]
                          else "certified non-member accepted"))
        return bad

    def digest(self, inp, out):
        c, core = out["cyc"]
        root, k = out["root"]
        return _sha((out["mul"].word, out["com"].word, c.word, core.word,
                     root.word, k, out["conj"], out["member"]))

    def traffic(self, inp, out):
        return {"tower": "free3",
                "tower_rank": 1,
                "word_letters_by_10": [len(inp["a"]) // 10 * 10,
                                       len(inp["b"]) // 10 * 10],
                "subgroup_gens_by_10": len(inp["gens"]) // 10 * 10,
                "subgroup_edges_by_120": sum(len(g) for g in inp["gens"])
                // 120 * 120,
                "conjugate": out["conj"],
                "member": out["member"]}


WORKLOADS = {w.name: w for w in (NfDeep, Reduce, FreeBase)}
