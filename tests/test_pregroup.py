"""Piece arithmetic, sequence reduction, and level splitting."""

import itertools
import random
import sys
import time

import pytest

from znfree import nielsen as N, pregroup as P, tower as T
from znfree.hnn import extend_hnn
from znfree.tower import TowerRejection
from znfree.wordexpr import parse_word, render


def W(t, s):
    return parse_word(t, s)


def zset(t, *ss):
    return N.GenSet(t, [W(t, s) for s in ss])


def test_membership_examples(t1):
    Z = zset(t1, "a", "b", "z")
    assert P.pz_membership(t1, Z, W(t1, "a"))
    assert P.pz_membership(t1, Z, W(t1, "a*z*b"))
    assert P.pz_membership(t1, Z, W(t1, "z"))
    assert P.pz_membership(t1, Z, W(t1, "a^4*z^-1*b^-2*a"))
    assert not P.pz_membership(t1, Z, W(t1, "z*a*z"))
    assert not P.pz_membership(t1, Z, W(t1, "z^2"))


def test_decompose_searches_the_left_axis(t1):
    # in x = h1 * a^k * f * h2 the a^k slides through f's first block
    # (a*z = z*b) into x's normal form; f = z*z*b has a second block, so
    # only the correction a^k over the first block's left axis rebuilds h1;
    # it is read off the offsets at any k
    f = W(t1, "z*a*z")
    Z = zset(t1, "z*a*z")
    for h1 in (T.EPS, W(t1, "b")):
        for k in (-12, -3, -1, 2, 9, 20):
            for h2 in (T.EPS, W(t1, "a"), W(t1, "b^-1")):
                h1k = T.multiply(t1, h1, W(t1, f"a^{k}"))
                x = T.multiply(t1, T.multiply(t1, h1k, f), h2)
                d = P.decompose(t1, Z, x)
                assert d is not None, render(t1, x)
                assert d.f.key == f.key
                assert d.h1.key == h1k.key, render(t1, x)
                assert d.h2.key == h2.key, render(t1, x)


@pytest.fixture(scope="module")
def chain():
    """F(a, b, c) with z: a -> b, then y: b -> c at level 2: a's material
    slides through a z block into the next y block."""
    t = T.base_tower(["a", "b", "c"])
    t = extend_hnn(t, "z", [W(t, "a")], [W(t, "b")])
    return extend_hnn(t, "y", [W(t, "b")], [W(t, "c")], level=2)


@pytest.mark.parametrize("k", [3, 9])
def test_decompose_reads_the_first_differing_offset(chain, k):
    # a^k*z = z*b^k, and b^k*y = y*c^k, so x's first block keeps f's offset
    # and the material lands in the y block: the correction is read off
    # that block, the first whose offset differs, not off the first block
    t = chain
    Z = zset(t, "z*y*a*b*z", "a", "b", "c")
    x = W(t, f"a^{k}*z*y*a*b*z")
    assert x.parts[1].offset == W(t, "z*y*a*b*z").parts[1].offset
    d = P.decompose(t, Z, x)
    assert d is not None
    assert (render(t, d.h1), render(t, d.f), render(t, d.h2)) == (
        f"a^{k}", "z*y*a*b*z", "1")


@pytest.mark.parametrize("name, gens", [
    ("t1", ["a", "b", "z", "z*a*z", "z*b*z^-1"]),
    ("surf2", ["x2", "x3", "x4", "x1", "x1*x2*x1"]),
    ("ns3", ["x2", "x3", "x1r", "x1r*x3*x1r"]),
    ("chain", ["a", "b", "c", "z", "y", "z*y*a*b*z"]),
])
def test_decompose_never_misses_a_piece(all_towers, chain, name, gens):
    # x = m1 * A^e * f * m2 with f a positive generator of one or more
    # blocks, m1 and m2 weight-zero words and A f's first left axis, |e_i|
    # up to 20: decompose answers every one with a rebuilding split
    t = chain if name == "chain" else all_towers[name]
    Z = zset(t, *gens)
    zero = Z.zero()
    rng = random.Random(name)

    def margin():
        out = T.EPS
        for _ in range(rng.randrange(4)):
            out = T.multiply(t, out, rng.choice(zero))
        return out

    blocks = set()
    start = time.perf_counter()
    for _ in range(300):
        f = rng.choice(Z.positive())
        A = T._side(t, f.parts[1]).left
        e = [rng.randint(-20, 20) for _ in A]
        x = T.multiply(t, T.multiply(t, T.multiply(
            t, margin(), T.gens_power(t, A, e)), f), margin())
        d = P.decompose(t, Z, x)
        assert d is not None, render(t, x)
        back = T.multiply(t, T.multiply(t, d.h1, d.f), d.h2)
        assert back.key == x.key, render(t, x)
        assert T.lam_len(t, d.h1) == T.lam_len(t, d.h2) == 0, render(t, x)
        blocks.add(len(f.parts) // 2)
    assert time.perf_counter() - start < 2.0
    assert max(blocks) > 1, blocks


def test_membership_requires_reduced(t1):
    Z = zset(t1, "a", "z")  # missing b: not reduced
    for _ in range(2):  # a failed scan leaves no certificate behind
        with pytest.raises(TowerRejection) as ei:
            P.pz_membership(t1, Z, W(t1, "a"))
        assert ei.value.condition == "generating-set-not-reduced"
        assert not Z.certified


def test_product_with_a_non_piece_is_rejected(t1):
    # z*a*z has weight 2 and no single generator of Z between weight-zero
    # factors, so it is no piece and its product is not asked about
    Z = zset(t1, "a", "b", "z")
    with pytest.raises(TowerRejection) as ei:
        P.pz_product_defined(t1, Z, W(t1, "z*a*z"), W(t1, "z"))
    assert ei.value.condition == "not-a-piece"
    assert ei.value.detail == render(t1, W(t1, "z*a*z"))


def _count_is_reduced(monkeypatch):
    calls = []
    real = N.is_reduced

    def counting(t, Y):
        calls.append(Y)
        return real(t, Y)

    monkeypatch.setattr(N, "is_reduced", counting)
    return calls


def _use_pieces(t, Z):
    P.split_level(t, Z)
    P.pz_membership(t, Z, W(t, "a*z*b"))
    P.pz_product_defined(t, Z, W(t, "z*b"), W(t, "b^-1*z^-1"))
    P.reduce_psequence(t, Z, P.PSequence([W(t, "z"), W(t, "a*z")]))


def test_certified_set_is_not_scanned(t1, monkeypatch):
    R = N.reduce_genset(t1, zset(t1, "a*z", "b*z"))

    def refuse(*args, **kwargs):
        raise AssertionError("is_reduced ran on a certified set")

    monkeypatch.setattr(N, "is_reduced", refuse)
    _use_pieces(t1, R)


def test_uncertified_set_is_scanned_once(t1, monkeypatch):
    calls = _count_is_reduced(monkeypatch)
    Z = zset(t1, "a", "b", "z")
    _use_pieces(t1, Z)
    _use_pieces(t1, Z)
    assert calls == [Z]
    assert Z.certified


def test_product_defined_examples(t1):
    Z = zset(t1, "a", "b", "z")
    assert P.pz_product_defined(t1, Z, W(t1, "z*b"), W(t1, "b^-1*z^-1"))
    assert P.pz_product_defined(t1, Z, W(t1, "z^-1"), W(t1, "a*z"))
    assert not P.pz_product_defined(t1, Z, W(t1, "z"), W(t1, "a*z"))


def test_decompose_shape(t1):
    Z = zset(t1, "a", "b", "z")
    d = P.decompose(t1, Z, W(t1, "a^2*z*b^-1"))
    assert d is not None
    assert T.lam_len(t1, d.h1) == 0 and T.lam_len(t1, d.h2) == 0
    back = T.multiply(t1, T.multiply(t1, d.h1, d.f), d.h2)
    assert T.equals(t1, back, W(t1, "a^2*z*b^-1"))
    # a plain list is taken as its GenSet
    e = P.decompose(t1, [W(t1, s) for s in ("a", "b", "z")],
                    W(t1, "a^2*z*b^-1"))
    assert (e.h1.key, e.f.key, e.h2.key) == (d.h1.key, d.f.key, d.h2.key)


def test_reduce_sequence_examples(t1):
    Z = zset(t1, "a", "b", "z")
    r = P.reduce_psequence(t1, Z, P.PSequence([W(t1, "z*b"),
                                               W(t1, "b^-1*z^-1")]))
    assert len(r.items) == 1 and T.is_identity(r.items[0])
    r = P.reduce_psequence(t1, Z, P.PSequence([W(t1, "z"), W(t1, "a*z")]))
    assert len(r.items) == 2
    r = P.reduce_psequence(t1, Z, P.PSequence([W(t1, "a"), W(t1, "b")]))
    assert len(r.items) == 1
    assert T.equals(t1, r.items[0], W(t1, "a*b"))


def test_reduce_preserves_product(t1):
    Z = zset(t1, "a", "b", "z")
    items = [W(t1, "a*z"), W(t1, "b^-1"), W(t1, "z^-1*a"), W(t1, "z*b")]
    r = P.reduce_psequence(t1, Z, P.PSequence(list(items)))
    prod = T.EPS
    for x in items:
        prod = T.multiply(t1, prod, x)
    got = T.EPS
    for x in r.items:
        got = T.multiply(t1, got, x)
    assert T.equals(t1, got, prod)


def test_verify_pregroup(t1, t_ab):
    Z = zset(t1, "a", "b", "z")
    rep = P.verify_pregroup(t1, Z, 150, seed=0)
    assert rep.ok, rep.failures[:3]
    rep = P.verify_pregroup(t_ab, zset(t_ab, "a", "z"), 150, seed=0)
    assert rep.ok, rep.failures[:3]


def test_verify_trivial_free(t1):
    # a purely weight-zero set passes vacuously
    tf = __import__("znfree.factory", fromlist=["factory"]).free_tower(["a"])
    Z = N.GenSet(tf, [T.gen_elem(tf, "a")])
    rep = P.verify_pregroup(tf, Z, 30, seed=0)
    assert rep.ok


def _membership_alternates(monkeypatch, t):
    # x and x^-1 get different answers
    answers = itertools.cycle([True, False])
    monkeypatch.setattr(P, "pz_membership", lambda t, Z, x: next(answers))


def _second_reduction_longer(monkeypatch, t):
    # the refactored sequence, reduced second, gains an identity item
    real = P.reduce_psequence
    calls = itertools.count()
    monkeypatch.setattr(P, "reduce_psequence", lambda t, Z, seq: P.PSequence(
        real(t, Z, seq).items + [T.EPS] * (next(calls) % 2)))


def _reductions_gain_z(monkeypatch, t):
    # both reductions gain z, so their weights sum one too high
    real = P.reduce_psequence
    z = W(t, "z")
    monkeypatch.setattr(P, "reduce_psequence", lambda t, Z, seq: P.PSequence(
        real(t, Z, seq).items + [z]))


@pytest.mark.parametrize("broken, want", [
    (_membership_alternates, "inverse-closure: z^-1*a^2"),
    (_second_reduction_longer, "length-mismatch: b^-1*z -> 1 vs 2"),
    (_reductions_gain_z, "weight-not-additive: b^-1*z sum=2 weight=1"),
], ids=["inverse-closure", "length-mismatch", "weight-not-additive"])
def test_verify_pregroup_reports_each_failure(t1, monkeypatch, broken, want):
    broken(monkeypatch, t1)
    rep = P.verify_pregroup(t1, zset(t1, "a", "b", "z"), 1, seed=0)
    assert (rep.ok, rep.checked, rep.failures) == (False, 1, [want])


def test_split_level_builds_no_top_level_conjugate(t1, t_ab, fa3, surf2,
                                                   ns3, monkeypatch):
    # witnesses and their images are read along y's pinch chain, so no
    # product that split_level makes reaches the top level
    cases = [
        (t1, ["a", "b", "z"]),
        (t_ab, ["a", "z"]),
        (fa3, ["a", "z2", "z3"]),
        (surf2, ["x2", "x3", "x4", "x1"]),
        (ns3, ["x2", "x3", "x1r"]),
    ]
    real = T.multiply
    calls = []

    def counting(t, g, h):
        out = real(t, g, h)
        if (out.level == t.rank
                and sys._getframe(1).f_globals["__name__"] == P.__name__):
            calls.append((g.key, h.key))
        return out

    for t, ss in cases:
        Z = zset(t, *ss)
        Z.certified = True  # canonical sets are reduced
        monkeypatch.setattr(T, "multiply", counting)
        sp = P.split_level(t, Z)
        monkeypatch.setattr(T, "multiply", real)
        assert calls == [], ss
        assert any(src for _, src, _ in sp.stable_letters), ss


def test_split_level_t1(t1):
    sp = P.split_level(t1, zset(t1, "a", "b", "z"))
    assert {render(t1, g) for g in sp.base_gens} == {"a", "b"}
    assert len(sp.stable_letters) == 1
    y, src, tgt = sp.stable_letters[0]
    assert render(t1, y) == "z"
    assert [render(t1, g) for g in src] == ["a"]
    assert [render(t1, g) for g in tgt] == ["b"]


def test_split_level_t_ab(t_ab):
    sp = P.split_level(t_ab, zset(t_ab, "a", "z"))
    assert [render(t_ab, g) for g in sp.base_gens] == ["a"]
    y, src, tgt = sp.stable_letters[0]
    assert [render(t_ab, g) for g in src] == ["a"]
    assert [render(t_ab, g) for g in tgt] == ["a"]


def _split_keys(sp):
    return ([g.key for g in sp.base_gens],
            [(y.key, [g.key for g in src], [g.key for g in tgt])
             for y, src, tgt in sp.stable_letters])


def test_split_level_takes_a_plain_list(t1, t_ab, surf2):
    # a list of elements is made into a GenSet and checked as reduced, and
    # the split is the GenSet's
    for t, ss in ((t1, ["a", "b", "z"]), (t_ab, ["a", "z"]),
                  (surf2, ["x2", "x3", "x4", "x1"])):
        want = _split_keys(P.split_level(t, zset(t, *ss)))
        assert _split_keys(P.split_level(t, [W(t, s) for s in ss])) == want
        assert want[1], ss


def test_split_level_base_only():
    from znfree import factory
    tf = factory.free_tower(["a", "b"])
    Z = N.GenSet(tf, [T.gen_elem(tf, "a"), T.gen_elem(tf, "b")])
    sp = P.split_level(tf, Z)
    assert sp.stable_letters == []
    assert len(sp.base_gens) == 2


def test_split_roundtrip(t1):
    # rebuild the tower from the split and re-check the defining relation
    from znfree import factory
    from znfree.hnn import extend_hnn
    sp = P.split_level(t1, zset(t1, "a", "b", "z"))
    t0 = factory.free_tower(["a", "b"])
    y, src, tgt = sp.stable_letters[0]
    rebuilt = extend_hnn(t0, "z",
                         [W(t0, render(t1, g)) for g in src],
                         [W(t0, render(t1, g)) for g in tgt])
    assert T.equals(rebuilt, W(rebuilt, "z^-1*a*z"), W(rebuilt, "b"))
