"""Generating-set reduction moves and the reduction loop."""

import sys

import pytest

from znfree import nielsen as N, tower as T
from znfree.wordexpr import parse_word, render


def W(t, s):
    return parse_word(t, s)


def gens(t, *ss):
    return N.GenSet(t, [W(t, s) for s in ss])


def test_genset_symmetric(t1):
    Y = gens(t1, "a*z")
    assert len(Y) == 2  # element and inverse
    assert W(t1, "z^-1*a^-1") in Y


def test_lambda_weight(t1):
    Y = gens(t1, "a*z", "b*z", "a")
    assert N.lambda_weight(Y) == 2


def test_mu_merges_shared_head(t1):
    Y = gens(t1, "a*z", "b*z")
    R = N.reduce_genset(t1, Y)
    assert N.lambda_weight(R) == 1
    assert N.is_reduced(t1, R) == []
    assert N.verify_witnesses(t1, R)
    names = {render(t1, g) for g in R.pair_reps()}
    assert "z" in names


def test_nu_cyclic_reduction(t1):
    Y = gens(t1, "a*z*a^-1")
    R = N.reduce_genset(t1, Y)
    assert N.is_reduced(t1, R) == []
    assert any(entry["op"] == "nu" for entry in R.witness_log)
    assert N.verify_witnesses(t1, R)


def test_moves_raise_inapplicable(t1):
    Y = gens(t1, "z", "a")
    z, a = W(t1, "z"), W(t1, "a")
    with pytest.raises(N.Inapplicable):
        N.nu(Y, z)  # already cyclically reduced
    with pytest.raises(N.Inapplicable):
        N.mu(Y, z, a, T.EPS)  # g has weight zero
    with pytest.raises(N.Inapplicable):
        N.eta(Y, z, a)  # head overlap is total, not proper


def test_reduce_adds_closure(t1):
    # the subgroup <a, z> needs b = z^-1 a z in its weight-zero part
    Y = gens(t1, "a", "z")
    R = N.reduce_genset(t1, Y)
    assert N.is_reduced(t1, R) == []
    names = {render(t1, g) for g in R.pair_reps()}
    assert "b" in names


def test_is_reduced_reports_violations(t1):
    Y = gens(t1, "a", "z")  # missing the (d)-closure element b
    bad = N.is_reduced(t1, Y)
    assert any(v.startswith("(d)") for v in bad)
    Y2 = gens(t1, "a*z*a^-1")
    assert any(v.startswith("(a)") for v in N.is_reduced(t1, Y2))
    Y3 = gens(t1, "a*z", "b*z", "a", "b")
    assert any(v.startswith("(b)") for v in N.is_reduced(t1, Y3))
    bad = N.is_reduced(t1, gens(t1, "z*z", "a"))
    assert len(bad) == 6
    assert all(v.startswith("(c) partial self-overlap: f=z*z h=")
               for v in bad)
    assert bad[0] == "(c) partial self-overlap: f=z*z h=a"


def test_eta_move_through_reduce(t1):
    R = N.reduce_genset(t1, gens(t1, "z^-1*a*z^-1", "b^-2"))
    assert [e["op"] for e in R.witness_log] == ["eta", "mu", "augment"]
    assert N.is_reduced(t1, R) == []
    assert N.verify_witnesses(t1, R)


def test_canonical_sets_are_reduced(t1, t_ab, fa3, surf2, ns3):
    cases = [
        (t1, ["a", "b", "z"]),
        (t_ab, ["a", "z"]),
        (fa3, ["a", "z2", "z3"]),
        (surf2, ["x2", "x3", "x4", "x1"]),
        (ns3, ["x2", "x3", "x1r"]),
    ]
    for t, ss in cases:
        assert N.is_reduced(t, gens(t, *ss)) == []


def test_reduce_certifies_its_radius(t1, t_ab, fa3, surf2, ns3):
    cases = [
        (t1, ["a", "b", "z"]),
        (t_ab, ["a", "z"]),
        (fa3, ["a", "z2", "z3"]),
        (surf2, ["x2", "x3", "x4", "x1"]),
        (ns3, ["x2", "x3", "x1r"]),
        (t1, ["z^-1*a*z^-1", "b^-2"]),
    ]
    for t, ss in cases:
        Y = gens(t, *ss)
        assert Y.reduced_at is None
        for h_radius in (2, N.H_RADIUS):
            R = N.reduce_genset(t, Y, h_radius=h_radius)
            assert R.reduced_at == h_radius, ss
            assert N.is_reduced(t, R, h_radius) == [], ss


def test_new_sets_carry_no_certificate(t1):
    R = N.reduce_genset(t1, gens(t1, "a*z", "b*z"))
    assert R.reduced_at == N.H_RADIUS
    assert N.GenSet(t1, R).reduced_at is None
    assert R.replace([], [W(t1, "a")], {"op": "test"}).reduced_at is None


def test_reduce_without_closure_is_not_certified(t1, monkeypatch):
    # with no centralizer elements to add, the closure step adds nothing
    # while (d) still fails: the loop stops, but certifies nothing
    monkeypatch.setattr(T, "subgroup_gens", lambda t, cen: [])
    R = N.reduce_genset(t1, gens(t1, "a", "z"))
    assert [e["op"] for e in R.witness_log] == []
    assert R.reduced_at is None
    assert any(v.startswith("(d)") for v in N.is_reduced(t1, R))


def test_is_reduced_ignores_the_certificate(t1):
    Y = gens(t1, "a", "z")
    Y.reduced_at = N.H_RADIUS
    assert any(v.startswith("(d)") for v in N.is_reduced(t1, Y))


def _scan_cases(t1, t_ab, fa3, surf2, ns3):
    """The five canonical sets, a set with (c) and (d) records and one with
    (b) records."""
    return [
        (t1, ["a", "b", "z"]),
        (t_ab, ["a", "z"]),
        (fa3, ["a", "z2", "z3"]),
        (surf2, ["x2", "x3", "x4", "x1"]),
        (ns3, ["x2", "x3", "x1r"]),
        (t1, ["z^-1*a*z^-1", "b^-2"]),
        (t1, ["a*z", "b*z", "a", "b"]),
    ]


def _self_overlaps(t, Y):
    """(f, h, h*f) with com(f, h*f) of positive weight, h != 1, in scan
    order."""
    return [(f, h, hf)
            for f in Y.positive()
            for h in N.ball(t, Y.zero(), N.H_RADIUS)
            if not T.is_identity(h)
            for hf in [T.multiply(t, h, f)]
            if T.lam_len(t, T.com(t, f, hf)) > 0]


def test_scan_builds_com_only_for_self_overlaps(t1, t_ab, fa3, surf2, ns3,
                                                monkeypatch):
    # the (b) scan and the overlap filter use the head test; com is built
    # once per positive-weight self-overlap, for its u
    cases = _scan_cases(t1, t_ab, fa3, surf2, ns3)
    real = T.com
    calls = []
    overlaps = 0

    def counting(t, g, h):
        if sys._getframe(1).f_globals["__name__"] == N.__name__:
            calls.append((g.key, h.key))
        return real(t, g, h)

    for t, ss in cases:
        Y = gens(t, *ss)
        want = [(f.key, hf.key) for f, h, hf in _self_overlaps(t, Y)]
        calls.clear()
        monkeypatch.setattr(T, "com", counting)
        N.is_reduced(t, Y)
        monkeypatch.setattr(T, "com", real)
        assert calls == want, ss
        overlaps += len(want)
    assert overlaps


def test_scan_builds_h_f_only_for_self_overlaps(t1, t_ab, fa3, surf2, ns3,
                                                monkeypatch):
    # the product table holds heads read off the first margin, and the (d)
    # test follows f's pinch chain: the one top-level product is_reduced
    # makes is h*f for each positive-weight self-overlap, for its com
    real = T.multiply
    calls = []
    overlaps = 0

    def counting(t, g, h):
        out = real(t, g, h)
        if (out.level == t.rank
                and sys._getframe(1).f_globals["__name__"] == N.__name__):
            calls.append((g.key, h.key))
        return out

    for t, ss in _scan_cases(t1, t_ab, fa3, surf2, ns3):
        Y = gens(t, *ss)
        want = [(h.key, f.key) for f, h, hf in _self_overlaps(t, Y)]
        calls.clear()
        monkeypatch.setattr(T, "multiply", counting)
        N.is_reduced(t, Y)
        monkeypatch.setattr(T, "multiply", real)
        assert calls == want, ss
        overlaps += len(want)
    assert overlaps


def test_subgroup_contains_exact_base(t1):
    a, b = W(t1, "a"), W(t1, "b")
    ab = W(t1, "a*b")
    assert N.subgroup_contains(t1, [a, ab], W(t1, "b"))
    assert N.subgroup_contains(t1, [a, ab], W(t1, "a^9*b*a^-9"))
    assert not N.subgroup_contains(t1, [W(t1, "a^2"), W(t1, "b")],
                                   W(t1, "a"))


def test_ball_deterministic(t1):
    g = [W(t1, "a"), W(t1, "b")]
    b1 = [x.key for x in N.ball(t1, g, 2)]
    b2 = [x.key for x in N.ball(t1, g, 2)]
    assert b1 == b2
    assert T.EPS.key in b1


def test_witness_log_renders(t1):
    Y = gens(t1, "a*z", "b*z")
    R = N.reduce_genset(t1, Y)
    for entry in R.witness_log:
        for w in entry["witnesses"]:
            elem, factors = w["rendered"]
            assert isinstance(elem, str) and all(
                isinstance(f, str) for f in factors)
