"""Frozen reduction answers: one sha256 over a seeded corpus of small sets.

For about a dozen random generating sets on each of t1, surf2 and ns3 (each
of top weight at most 4), the digest covers the violations `is_reduced`
reports for the input, the reduced set in its order, and every witness-log
entry: its op, its parameters, its rendered witnesses and the elements an
augmentation added.  A refactor of the reduction must leave it as it is.
"""

import hashlib
import random

from znfree import factory, nielsen as N, tower as T
from znfree.wordexpr import render

REDUCE_DIGEST = (
    "d60d1e05a1b4f272357d548f30cefac9c51db080457be8a8d016610815644c47")

TOWERS = [
    ("t1", factory.t1),
    ("surf2", lambda: factory.surface_orientable(2)),
    ("ns3", lambda: factory.surface_nonorientable(3)),
]
SETS_PER_TOWER = 12
MAX_WEIGHT = 4


def _random_elem(t, rng, symbols):
    """A reduced word of 1 to 4 letters in the tower's generators."""
    word = []
    while len(word) < rng.randint(1, 4):
        s, e = rng.choice(symbols), rng.choice((1, -1))
        if not word or word[-1] != (s, -e):
            word.append((s, e))
    x = T.EPS
    for s, e in word:
        g = T.gen_elem(t, s)
        x = T.multiply(t, x, g if e > 0 else T.invert(t, g))
    return x


def corpus(t, name):
    rng = random.Random(f"reduce-{name}")
    symbols = list(t.symbols) + list(t.letters)
    out = []
    while len(out) < SETS_PER_TOWER:
        Y = N.GenSet(t, [_random_elem(t, rng, symbols)
                         for _ in range(rng.randint(2, 3))])
        if N.lambda_weight(Y) <= MAX_WEIGHT:
            out.append(Y)
    return out


def reduction_digest() -> str:
    h = hashlib.sha256()
    for name, make in TOWERS:
        t = make()
        h.update(name.encode())
        for Y in corpus(t, name):
            h.update(repr(N.is_reduced(t, Y)).encode())
            R = N.reduce_genset(t, Y)
            h.update(repr([render(t, g) for g in R]).encode())
            for entry in R.witness_log:
                h.update(repr((entry["op"], entry["params"],
                               [w["rendered"] for w in entry["witnesses"]],
                               entry.get("added"))).encode())
    return h.hexdigest()


def test_reduction_digest_frozen():
    assert reduction_digest() == REDUCE_DIGEST
