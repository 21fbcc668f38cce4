"""Frozen reduction answers: sha256 digests over seeded corpora of small sets.

For about a dozen random generating sets on each tower of a corpus (each of
top weight at most 4), a digest covers the violations `is_reduced` reports
for the input, the reduced set in its order, and every witness-log entry:
its op, its parameters, its rendered witnesses and the elements an
augmentation added.  One corpus holds t1, surf2 and ns3; the other holds
the free group F(a, b), whose weight-zero ball is the identity alone, and
t_ab.  A refactor of the reduction must leave both digests as they are.

A third digest, over both corpora, freezes the pregroup answers on each
reduced set: `split_level`'s rendered base generators and each stable
letter with its rendered sources and targets, and the keys of the
`(h1, f, h2)` that `decompose` returns (or None) on seeded random pieces.
"""

import hashlib
import random

from znfree import factory, nielsen as N, pregroup as P, tower as T
from znfree.wordexpr import render

REDUCE_DIGEST = (
    "d60d1e05a1b4f272357d548f30cefac9c51db080457be8a8d016610815644c47")
FREE_AB_DIGEST = (
    "45f8dfea85dccee4b00ae437450a0a6f7b6dc2c05f02cb11e5bce9694de1185f")
PREGROUP_DIGEST = (
    "57ab208519f3dfd51f87c8b6f7fb82ffc9202f06e73ef28c1e0956116faf98bc")

TOWERS = [
    ("t1", factory.t1),
    ("surf2", lambda: factory.surface_orientable(2)),
    ("ns3", lambda: factory.surface_nonorientable(3)),
]
FREE_AB_TOWERS = [
    ("free2", lambda: factory.free_tower(["a", "b"])),
    ("t_ab", factory.t_ab),
]
SETS_PER_TOWER = 12
MAX_WEIGHT = 4
PIECES_PER_SET = 8


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


def reduction_digest(towers=TOWERS) -> str:
    h = hashlib.sha256()
    for name, make in towers:
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


def pregroup_digest(towers=TOWERS + FREE_AB_TOWERS) -> str:
    h = hashlib.sha256()
    for name, make in towers:
        t = make()
        h.update(name.encode())
        rng = random.Random(f"pieces-{name}")
        for Y in corpus(t, name):
            R = N.reduce_genset(t, Y)
            s = P.split_level(t, R)
            h.update(repr(([render(t, x) for x in s.base_gens],
                           [(render(t, y), [render(t, x) for x in src],
                             [render(t, x) for x in tgt])
                            for y, src, tgt in s.stable_letters])).encode())
            for _ in range(PIECES_PER_SET):
                d = P.decompose(t, R, P._random_piece(t, R, rng))
                h.update(repr(None if d is None else
                              (d.h1.key, d.f.key, d.h2.key)).encode())
    return h.hexdigest()


def test_reduction_digest_frozen():
    assert reduction_digest() == REDUCE_DIGEST


def test_free_ab_reduction_digest_frozen():
    assert reduction_digest(FREE_AB_TOWERS) == FREE_AB_DIGEST


def test_pregroup_digest_frozen():
    assert pregroup_digest() == PREGROUP_DIGEST
