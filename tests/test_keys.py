"""Frozen canonical keys: one sha256 over repr(Elem.key) of a seeded corpus.

The corpus holds sampled elements, their inverses, and the products and
common initial segments of neighbouring samples, on every factory tower,
free_abelian(5) and a free product.  Any change to the normal form, however
small, changes the digest; a refactor of the engine must leave it as it is.
"""

import hashlib

from znfree import factory, tower as T
from znfree.axioms import SampleSpec, sample_elements

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
