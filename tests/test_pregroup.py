"""Piece arithmetic, sequence reduction, and level splitting."""

import pytest

from znfree import nielsen as N, pregroup as P, tower as T
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
    # only the candidate a^k over the first block's left axis rebuilds h1
    f = W(t1, "z*a*z")
    Z = zset(t1, "z*a*z")
    for h1 in (T.EPS, W(t1, "b")):
        for k in (-3, -1, 2):
            for h2 in (T.EPS, W(t1, "a"), W(t1, "b^-1")):
                h1k = T.multiply(t1, h1, W(t1, f"a^{k}"))
                x = T.multiply(t1, T.multiply(t1, h1k, f), h2)
                d = P.decompose(t1, Z, x)
                assert d is not None, render(t1, x)
                assert d.f.key == f.key
                assert d.h1.key == h1k.key, render(t1, x)
                assert d.h2.key == h2.key, render(t1, x)


def test_membership_requires_reduced(t1):
    Z = zset(t1, "a", "z")  # missing b: not reduced
    for _ in range(2):  # a failed scan leaves no certificate behind
        with pytest.raises(TowerRejection) as ei:
            P.pz_membership(t1, Z, W(t1, "a"))
        assert ei.value.condition == "generating-set-not-reduced"
        assert Z.reduced_at is None


def _count_scans(monkeypatch):
    calls = []
    real = N.is_reduced

    def counting(t, Y, h_radius=N.H_RADIUS):
        calls.append(h_radius)
        return real(t, Y, h_radius)

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
    calls = _count_scans(monkeypatch)
    Z = zset(t1, "a", "b", "z")
    _use_pieces(t1, Z)
    _use_pieces(t1, Z)
    assert calls == [N.H_RADIUS]
    assert Z.reduced_at == N.H_RADIUS


def test_other_radius_is_scanned_again(t1, monkeypatch):
    R = N.reduce_genset(t1, zset(t1, "a*z", "b*z"), h_radius=2)
    assert R.reduced_at == 2
    calls = _count_scans(monkeypatch)
    _use_pieces(t1, R)
    assert calls == [N.H_RADIUS]
    assert R.reduced_at == N.H_RADIUS


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
