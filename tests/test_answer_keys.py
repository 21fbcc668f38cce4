"""Frozen public answers: sha256 digests over what the engine answers to
questions other than a normal form, on seeded corpora.

`ADMISSION_DIGEST` covers `extend_hnn` outcomes: 3,000 pairs of reduced
words of length 2 to 4 over F(a, b, c), each tried with and without
`auto_rotate`, and 300 one-letter extensions each of t1, fa3 and surf2 by
products of one to three signed generators, each tried at the default level
and at `level=t.rank`.  An outcome is the accepted letter's axes, rendered
in the new tower, or the full text of the rejection or error.

`QUERY_DIGEST` covers, on the samples of `test_keys.py`, the keys of each
sample's centralizer generators, its primitive root and cyclic
decomposition, `gromov2` and `commutes` with its neighbour, its initial
segment at half its length, and `subgroup_contains` of sampled products in
the subgroup generated by the first samples.

`CONJUGACY_DIGEST` covers `is_conjugate` of neighbouring samples and of each
sample with a conjugate of it.  It is kept apart because `is_conjugate`
misses conjugacies above the base layer, and mending that moves this digest
alone.

No input whose answer a known defect decides is here: no product is formed
in an accepted extension (some accepted t1 extensions multiply wrongly), and
neither the w tower nor the surf2 pair that `equals` calls distinct is
sampled.  A change that keeps every public answer keeps all three digests.
"""

import hashlib
import random

from znfree import factory, hnn, nielsen as N, tower as T
from znfree.axioms import SampleSpec, sample_elements
from znfree.wordexpr import render
from test_keys import CORPUS

ADMISSION_DIGEST = (
    "b9178f6cd10d347ac79cbbdddda5e94e1cbd6781e6ab0fb76dedf9be613635d5")
QUERY_DIGEST = (
    "e10521b8008746e3f6475b6369c3f06ee725862476a95295e6341f481e4e0b78")
CONJUGACY_DIGEST = (
    "78e50926d158967a3ba12e781cc4480a7c8f16fa5e1a5409385ce34fdc38aab7")

FREE_PAIRS = 3000
EXTENSIONS = 300
CONTAINS_GENS = 3
CONTAINS_PER_TOWER = 12


def _outcome(t, make):
    """The new letter's axes rendered in the new tower, or the error text."""
    try:
        t2 = make()
    except (T.TowerError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    sl = t2.letters["y"]
    return " ".join([str(sl.level)]
                    + [render(t2, x) for x in sl.source_gens]
                    + ["->"] + [render(t2, x) for x in sl.target_gens])


def _signed_product(t, rng, gens, lo, hi):
    x = T.EPS
    for _ in range(rng.randint(lo, hi)):
        g = rng.choice(gens)
        x = T.multiply(t, x, g if rng.random() < 0.5 else T.invert(t, g))
    return x


def _reduced_word(rng, n):
    word = []
    while len(word) < n:
        k = rng.choice((1, -1, 2, -2, 3, -3))
        if not word or word[-1] != -k:
            word.append(k)
    return T.word_elem(tuple(word))


def admission_digest() -> str:
    rng = random.Random(1)
    h = hashlib.sha256()
    free = factory.free_tower(["a", "b", "c"])
    for _ in range(FREE_PAIRS):
        u = _reduced_word(rng, rng.randint(2, 4))
        v = _reduced_word(rng, rng.randint(2, 4))
        for rotate in (True, False):
            h.update(_outcome(free, lambda: hnn.extend_hnn(
                free, "y", [u], [v], auto_rotate=rotate)).encode() + b"\0")
    for name, make in (("t1", factory.t1),
                       ("fa3", lambda: factory.free_abelian(3)),
                       ("surf2", lambda: factory.surface_orientable(2))):
        t = make()
        gens = [T.gen_elem(t, s) for s in (*t.symbols, *t.letters)]
        h.update(name.encode())
        for _ in range(EXTENSIONS):
            u = _signed_product(t, rng, gens, 1, 3)
            v = _signed_product(t, rng, gens, 1, 3)
            for level in (None, t.rank):
                h.update(_outcome(t, lambda: hnn.extend_hnn(
                    t, "y", [u], [v], level=level)).encode() + b"\0")
    return h.hexdigest()


def _samples():
    for name, make, n in CORPUS:
        t = make()
        spec = SampleSpec(seed=11, samples=n, lam_radius=4, word_cap=8)
        yield name, t, sample_elements(t, spec)


def _key(x):
    return repr(None if x is None else x.key)


def query_digest() -> str:
    rng = random.Random(2)
    h = hashlib.sha256()
    for name, t, elems in _samples():
        h.update(name.encode())
        for g, nxt in zip(elems, elems[1:] + elems[:1]):
            if T.is_identity(g):
                record = ["identity"]
            else:
                cent = T.subgroup_gens(t, T.centralizer(t, g))
                root, k = T.primitive_root(t, g)
                c, core = T.cyclic_decompose(t, g)
                record = [_key(x) for x in cent] + [
                    _key(root), str(k), _key(c), _key(core)]
            half = tuple(x // 2 for x in T.lenvec(g))
            record += [_key(T.prefix_of(t, g, half)),
                       repr(T.gromov2(t, g, nxt)),
                       repr(T.commutes(t, g, nxt))]
            h.update("|".join(record).encode() + b"\0")
        sub = [g for g in elems if not T.is_identity(g)][:CONTAINS_GENS]
        for _ in range(CONTAINS_PER_TOWER):
            x = _signed_product(t, rng, sub, 1, 3)
            for y in (x, T.multiply(t, x, rng.choice(elems))):
                h.update(repr(N.subgroup_contains(t, sub, y)).encode())
    return h.hexdigest()


def conjugacy_digest() -> str:
    rng = random.Random(3)
    h = hashlib.sha256()
    for name, t, elems in _samples():
        h.update(name.encode())
        for g, nxt in zip(elems, elems[1:] + elems[:1]):
            c = rng.choice(elems)
            conj = T.multiply(t, T.multiply(t, T.invert(t, c), g), c)
            h.update(repr((T.is_conjugate(t, g, nxt),
                           T.is_conjugate(t, g, conj))).encode())
    return h.hexdigest()


def test_admission_digest_frozen():
    assert admission_digest() == ADMISSION_DIGEST


def test_query_digest_frozen():
    assert query_digest() == QUERY_DIGEST


def test_conjugacy_digest_frozen():
    assert conjugacy_digest() == CONJUGACY_DIGEST
