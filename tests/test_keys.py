"""Frozen canonical keys: sha256 digests over repr(Elem.key) of seeded corpora.

The first corpus holds sampled elements, their inverses, and the products
and common initial segments of neighbouring samples, on every factory tower,
free_abelian(5) and a free product.  The wider one holds sampled elements
and three-fold products in both bracketings on free_abelian(4),
surface_orientable(3) and free_product(t_ab, surface_orientable(2)), and on
free_abelian(3) the products g*q^-n that slide axis material through a run
of n blocks, with their inverses.  Any change to the normal form, however
small, changes a digest; a refactor of the engine must leave both as they
are.
"""

import hashlib

from znfree import factory, tower as T
from znfree.axioms import SampleSpec, sample_elements
from znfree.wordexpr import parse_word

KEY_DIGEST = (
    "6baaec0e75ed08958432ae92a7ac3784a49001501a4308c196b12e579ae8e9b7")

CORPUS = [
    ("t1", factory.t1, 300),
    ("t_ab", factory.t_ab, 300),
    ("fa3", lambda: factory.free_abelian(3), 200),
    ("surf2", lambda: factory.surface_orientable(2), 300),
    ("ns3", lambda: factory.surface_nonorientable(3), 300),
    ("fa5", lambda: factory.free_abelian(5), 80),
    ("fp", lambda: factory.free_product(factory.free_abelian(3),
                                        factory.t1()), 200),
]


def corpus_digest() -> str:
    h = hashlib.sha256()
    for name, make, n in CORPUS:
        t = make()
        spec = SampleSpec(seed=11, samples=n, lam_radius=4, word_cap=8)
        elems = sample_elements(t, spec)
        h.update(name.encode())
        for g, nxt in zip(elems, elems[1:] + elems[:1]):
            for e in (g, T.invert(t, g), T.multiply(t, g, nxt),
                      T.com(t, g, nxt)):
                h.update(repr(e.key).encode())
    return h.hexdigest()


def test_key_digest_frozen():
    assert corpus_digest() == KEY_DIGEST


WIDE_DIGEST = (
    "6f7301fceb17b5f4056c2097b9857d440ff1c67f2235777aafd144db7599b12b")

WIDE_CORPUS = [
    ("fa4", lambda: factory.free_abelian(4), 400),
    ("surf3", lambda: factory.surface_orientable(3), 400),
    ("t_ab*surf2", lambda: factory.free_product(
        factory.t_ab(), factory.surface_orientable(2)), 400),
]

# (g, q, n) on free_abelian(3): g*q^-n, where g's axis material commutes
# with the blocks of q^-n
SLIDES = [(g, q, n)
          for g in ("a", "a^-1", "a^2*z2", "z3*a", "z2^-1*a*z3")
          for q, ns in (("z2", (1, 2, 7, 50, 100, 200)),
                        ("z3", (1, 2, 7, 50, 100, 200)),
                        ("z2*z3", (1, 2, 7, 30)))
          for n in ns]


def wide_digest() -> str:
    h = hashlib.sha256()
    for name, make, n in WIDE_CORPUS:
        t = make()
        spec = SampleSpec(seed=13, samples=n, lam_radius=6, word_cap=12)
        elems = sample_elements(t, spec)
        h.update(name.encode())
        for x, y, z in zip(elems, elems[1:] + elems[:1],
                           elems[2:] + elems[:2]):
            for e in (x, T.multiply(t, T.multiply(t, x, y), z),
                      T.multiply(t, x, T.multiply(t, y, z))):
                h.update(repr(e.key).encode())
    t = factory.free_abelian(3)
    h.update(b"fa3 slides")
    for g, q, n in SLIDES:
        g = parse_word(t, g)
        qn = T.pow_elem(t, parse_word(t, q), -n)
        for e in (T.multiply(t, g, qn),
                  T.multiply(t, T.invert(t, qn), T.invert(t, g))):
            h.update(repr(e.key).encode())
    return h.hexdigest()


def test_wide_key_digest_frozen():
    assert wide_digest() == WIDE_DIGEST
