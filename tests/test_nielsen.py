"""Generating-set reduction moves and the reduction loop."""

import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from znfree import factory, nielsen as N, pregroup as P, tower as T
from znfree.hnn import extend_hnn
from znfree.wordexpr import parse_word, render
from znfree.words import w_inv, w_mul


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
    Y = gens(t1, "a", "b", "z")
    with pytest.raises(N.Inapplicable, match="positive-weight common head"):
        N.mu(Y, z, T.invert(t1, z), T.EPS)  # com(z, z^-1) = 1
    with pytest.raises(N.Inapplicable, match="eta needs positive-weight f"):
        N.eta(Y, a, z)
    with pytest.raises(N.Inapplicable, match="nu needs positive-weight f"):
        N.nu(Y, a)


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


def test_reduce_certifies_the_result(t1, t_ab, fa3, surf2, ns3):
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
        assert not Y.certified
        R = N.reduce_genset(t, Y)
        assert R.certified, ss
        assert N.is_reduced(t, R) == [], ss


def test_new_sets_carry_no_certificate(t1):
    R = N.reduce_genset(t1, gens(t1, "a*z", "b*z"))
    assert R.certified
    assert not N.GenSet(t1, R).certified
    assert not R.replace([], [W(t1, "a")], {"op": "test"}).certified


def test_reduce_without_closure_is_not_certified(t1, monkeypatch):
    # with no centralizer elements to add, the closure step adds nothing
    # while (d) still fails: the loop stops, but certifies nothing
    monkeypatch.setattr(T, "subgroup_gens", lambda t, cen: [])
    R = N.reduce_genset(t1, gens(t1, "a", "z"))
    assert [e["op"] for e in R.witness_log] == []
    assert not R.certified
    assert any(v.startswith("(d)") for v in N.is_reduced(t1, R))


def test_is_reduced_ignores_the_certificate(t1):
    Y = gens(t1, "a", "z")
    Y.certified = True
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
    # the (b) scan and the overlap filter use the head test, and each
    # self-overlap is decided by its weight-zero conjugate: the cases do
    # hold self-overlaps, yet is_reduced builds no com at all
    real = T.com
    calls = []
    overlaps = 0

    def counting(t, g, h):
        if sys._getframe(1).f_globals["__name__"] == N.__name__:
            calls.append((g.key, h.key))
        return real(t, g, h)

    for t, ss in _scan_cases(t1, t_ab, fa3, surf2, ns3):
        Y = gens(t, *ss)
        overlaps += len(_self_overlaps(t, Y))
        calls.clear()
        monkeypatch.setattr(T, "com", counting)
        N.is_reduced(t, Y)
        monkeypatch.setattr(T, "com", real)
        assert calls == [], ss
    assert overlaps


def test_scan_builds_h_f_only_for_self_overlaps(t1, t_ab, fa3, surf2, ns3,
                                                monkeypatch):
    # the product table holds heads read off the first margin, and each
    # self-overlap's conjugate is read along f's pinch chain: the cases do
    # hold self-overlaps, yet is_reduced makes no top-level product, h*f
    # included
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
        overlaps += len(_self_overlaps(t, Y))
        calls.clear()
        monkeypatch.setattr(T, "multiply", counting)
        N.is_reduced(t, Y)
        monkeypatch.setattr(T, "multiply", real)
        assert calls == [], ss
    assert overlaps


def _total_overlaps(t, Y):
    return [(f, h) for f, h, x in N._self_overlaps(Y, N._products(Y))
            if x is not None]


def test_is_reduced_folds_once_per_scan(t1, surf2, ns3, monkeypatch):
    # the (d) queries of one scan share one folded subgroup graph
    real = N._fold_graph
    calls = []

    def counting(words):
        calls.append(words)
        return real(words)

    monkeypatch.setattr(N, "_fold_graph", counting)
    for t, ss in ((t1, ["a", "b", "z"]), (surf2, ["x2", "x3", "x4", "x1"]),
                  (ns3, ["x2", "x3", "x1r"]), (t1, ["z", "a", "b^3"])):
        Y = gens(t, *ss)
        assert len(_total_overlaps(t, Y)) > 1, ss
        calls.clear()
        N.is_reduced(t, Y)
        assert len(calls) <= 1, ss


def _ball_general(t, gens, radius):
    """The breadth-first ball through multiply: the reference the word
    path of N.ball must agree with."""
    reps = []
    seen = set()
    for g in gens:
        for x in (g, T.invert(t, g)):
            if x.key not in seen and not T.is_identity(x):
                seen.add(x.key)
                reps.append(x)
    out = [T.EPS]
    known = {T.EPS.key}
    frontier = [T.EPS]
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


def test_word_ball_matches_general_ball(t1, surf2, fa3):
    # same keys in the same order, on redundant and overlapping word sets
    # and a level-2 set: ball walks the Elems, and over words the scan's
    # walk of the word tuples (_walk, called as _products calls it) lists
    # the same words
    f3 = factory.free_tower(["a", "b", "c"])
    cases = [(t1, ["a", "a^-2", "b", "b^-2"]), (t1, ["a*b", "b^-1", "a"]),
             (t1, ["a", "a^-1"]), (t1, []), (surf2, ["x2", "x3", "x4"]),
             (f3, ["a*b*c", "c^-1", "b^2", "b^2"]), (fa3, ["a", "z2"])]
    for t, ss in cases:
        gs = [W(t, s) for s in ss]
        for radius in range(4):
            got = N.ball(t, gs, radius)
            want = _ball_general(t, gs, radius)
            assert [x.key for x in got] == [x.key for x in want], (ss, radius)
            assert all(isinstance(x, T.Elem) for x in got)
            if all(g.level == 1 for g in gs):
                at = N._walk([g.word for g in gs], w_inv, w_mul, (), radius)
                assert [("w", w) for w in at] == [x.key for x in want], (
                    ss, radius)
                assert list(at.values()) == list(range(len(at)))


_LETTERS = (1, -1, 2, -2, 3, -3)


def _reduced(letters):
    """The free reduction of a letter sequence."""
    w = ()
    for k in letters:
        w = w_mul(w, (k,))
    return w


@st.composite
def _word_sets(draw):
    """Generator words over F(a, b, c): empty ones, with duplicates,
    inverse pairs and conjugates u*w*u^-1 (not cyclically reduced) added."""
    word = st.lists(st.sampled_from(_LETTERS), max_size=6).map(_reduced)
    ws = draw(st.lists(word, max_size=4))
    for w in list(ws):
        extra = draw(st.sampled_from(("none", "dup", "inv", "conj")))
        if extra == "dup":
            ws.append(w)
        elif extra == "inv":
            ws.append(w_inv(w))
        elif extra == "conj":
            u = draw(word)
            ws.append(_reduced((*u, *w, *w_inv(u))))
    return ws


@settings(max_examples=400, deadline=None)
@given(_word_sets())
@example([])
@example([()])
@example([(1,), (1,), (-1,)])
@example([(1, 2, -1), (2, 1, 3, -1, -2), (1, 3, -1)])
def test_fold_graph_is_the_stallings_core(ws):
    # the four properties that fix the folded graph up to isomorphism: each
    # generator reads a closed path at the base; the labelled map is
    # deterministic and involutive, (s, k) -> d iff (d, -k) -> s; every
    # state is reachable from the base; and no state but the base has
    # degree below 2 (a hanging state would be a path to cut back)
    base, trans = N._fold_graph(ws)
    for w in ws:
        cur = base
        for k in w:
            cur = trans.get((cur, k))
            assert cur is not None, (ws, w)
        assert cur == base, (ws, w)
    for (s, k), d in trans.items():
        assert trans.get((d, -k)) == s, (ws, s, k, d)
    states = {base} | {s for s, _ in trans} | set(trans.values())
    seen, todo = {base}, [base]
    while todo:
        s = todo.pop()
        for k in _LETTERS:
            d = trans.get((s, k))
            if d is not None and d not in seen:
                seen.add(d)
                todo.append(d)
    assert seen == states, ws
    degree = {s: 0 for s in states}
    for s, _ in trans:
        degree[s] += 1
    assert all(n >= 2 for s, n in degree.items() if s != base), ws


def _subgroup_contains_general(t, gens, x):
    """Membership with a fresh fold per word query and a ball walk per
    other one: the reference the scans' shared membership test must agree
    with.  The fold is checked on its own against the Stallings core
    (test_fold_graph_is_the_stallings_core)."""
    if T.is_identity(x):
        return True
    if not gens:
        return False
    if x.level == 1 and all(g.level == 1 for g in gens):
        base, trans = N._fold_graph([g.word for g in gens])
        cur = base
        for k in x.word:
            cur = trans.get((cur, k))
            if cur is None:
                return False
        return cur == base
    return any(T.equals(t, h, x)
               for h in _ball_general(t, gens, N.H_RADIUS))


def test_scan_membership_matches_subgroup_contains(t1, t_ab, fa3, surf2, ns3,
                                                   monkeypatch):
    # every query the scans put to their shared membership test gets the
    # answer of a fresh subgroup_contains, on the word and the ball paths
    real = N._membership
    queries = []

    def recording(t, gs):
        contains = real(t, gs)

        def query(x):
            got = contains(x)
            queries.append((t, list(gs), x, got))
            return got

        return query

    monkeypatch.setattr(N, "_membership", recording)
    for t, ss in _scan_cases(t1, t_ab, fa3, surf2, ns3):
        N.is_reduced(t, gens(t, *ss))
        N.reduce_genset(t, gens(t, *ss))
    monkeypatch.undo()
    seen = set()
    for t, gs, x, got in queries:
        want = _subgroup_contains_general(t, gs, x)
        assert got == want, [render(t, g) for g in gs] + [render(t, x)]
        assert got == N.subgroup_contains(t, gs, x)
        seen.add((got, all(g.level == 1 for g in gs)))
    assert seen == {(False, True), (True, True), (True, False)}


def test_members_are_never_inverted_again(t1, monkeypatch):
    # a set holds each member's inverse from construction; pair_reps,
    # replace, mu, decompose and pz_product_defined read it
    Y = gens(t1, "a*z", "b*z")
    f, g, h = N._find_mu(Y, N._products(Y))
    Z = N.reduce_genset(t1, Y)
    readers = {"pair_reps", "replace", "mu", "decompose",
               "pz_product_defined"}
    real = T.invert
    calls = []

    def counting(t, x):
        calls.append((sys._getframe(1).f_code.co_name, x.key))
        return real(t, x)

    monkeypatch.setattr(T, "invert", counting)
    uses = [(Y, lambda: Y.pair_reps()),
            (Z, lambda: Z.pair_reps(Z.positive())),
            (Y, lambda: Y.replace([f], [W(t1, "a")], {"op": "test"})),
            (Y, lambda: N.mu(Y, f, g, h)),
            (Z, lambda: [P.decompose(t1, Z, W(t1, s))
                         for s in ("a*z*b", "z^-1*a", "b*z^-1*a")]),
            (Z, lambda: P.pz_product_defined(t1, Z, W(t1, "z*b"),
                                             W(t1, "b^-1*z^-1")))]
    others = 0
    for S, use in uses:
        calls.clear()
        use()
        members = {x.key for x in S}
        assert [c for c, k in calls if c in readers and k in members] == []
        others += sum(c in readers for c, _ in calls)
    assert others  # elements that are no members are still inverted


def test_inverse_is_held_for_members_only(t1):
    Y = gens(t1, "a*z", "b")
    assert Y.inverse(W(t1, "a*z")).key == W(t1, "z^-1*a^-1").key
    assert Y.inverse(W(t1, "b^-1")).key == W(t1, "b").key
    assert W(t1, "b^-1") in Y and W(t1, "a") not in Y
    for call in (lambda x: Y.inverse(x), lambda x: Y.pair_reps([x])):
        with pytest.raises(ValueError, match=re.escape("a*b is not a member")):
            call(W(t1, "a*b"))


def test_moves_refuse_a_non_member(t1):
    # the moves read their members' names from the set; a non-member f
    # still meets the set's ValueError, after the Inapplicable checks
    Y = gens(t1, "z")
    z = W(t1, "z")
    for move, name in (
            (lambda: N.nu(Y, W(t1, "a*z*a^-1")), "z*b*a^-1"),
            (lambda: N.eta(Y, W(t1, "z*a*z"), W(t1, "a")), "z*z*b"),
            (lambda: N.mu(Y, W(t1, "z^2"), z, T.EPS), "z*z")):
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} is not a member")):
            move()


def test_weight_split_is_held(all_towers, monkeypatch):
    # positive() and zero() are the members of positive and of zero top
    # weight in render order, for a new set and for one made by replace,
    # and are split once, when the set is made
    sets = []
    for name, base in (("t1", ["a", "b", "z"]), ("surf2", ["x2", "x3", "x1"]),
                       ("fa3", ["a", "z2", "z3"])):
        t = all_towers[name]
        for seed in range(3):
            Y = N.GenSet(t, _sampled_set(t, base, seed))
            sets += [(t, Y), (t, Y.replace([Y.elements[0]], [W(t, base[0])],
                                           {"op": "test"}))]
    real = T.lam_len
    calls = []

    def counting(t, x):
        calls.append(x)
        return real(t, x)

    monkeypatch.setattr(T, "lam_len", counting)
    for t, Y in sets:
        calls.clear()
        pos, zero = Y.positive(), Y.zero()
        assert calls == []
        assert list(pos) == [g for g in Y if real(t, g) > 0]
        assert list(zero) == [g for g in Y if real(t, g) == 0]
    assert any(Y.positive() and Y.zero() for _, Y in sets)


def test_witness_error_names_generator_and_factors(t1):
    with pytest.raises(T.EngineError,
                       match=re.escape("generator a from the factors [b]")):
        N._witness(t1, W(t1, "a"), [W(t1, "b")])


def test_subgroup_contains_exact_base(t1):
    a, b = W(t1, "a"), W(t1, "b")
    ab = W(t1, "a*b")
    assert N.subgroup_contains(t1, [a, ab], W(t1, "b"))
    assert N.subgroup_contains(t1, [a, ab], W(t1, "a^9*b*a^-9"))
    assert not N.subgroup_contains(t1, [W(t1, "a^2"), W(t1, "b")],
                                   W(t1, "a"))
    # the trivial subgroup holds only the identity
    assert N.subgroup_contains(t1, [], T.EPS)
    assert not N.subgroup_contains(t1, [], a)
    assert not N.subgroup_contains(t1, [], W(t1, "z"))


def test_word_generators_answer_higher_elements_without_a_ball(
        t1, monkeypatch):
    # every product of words is a word, so an element above the base layer
    # lies outside a subgroup generated by words; no ball is walked to say
    # so, and a product that normalizes to a word is tested on the fold
    real = N.ball
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(N, "ball", counting)
    a, b = W(t1, "a"), W(t1, "b")
    assert not N.subgroup_contains(t1, [a, b], W(t1, "z"))
    assert not N.subgroup_contains(t1, [a, b], W(t1, "a*z*a^-1"))
    assert N.subgroup_contains(t1, [a, b], W(t1, "z^-1*a*z*a"))
    assert calls == []


def test_ball_deterministic(t1):
    g = [W(t1, "a"), W(t1, "b")]
    b1 = [x.key for x in N.ball(t1, g, 2)]
    b2 = [x.key for x in N.ball(t1, g, 2)]
    assert b1 == b2
    assert T.EPS.key in b1


def test_verify_witnesses_rejects_a_broken_log(t1):
    # a log whose factors no longer rebuild their element fails the check
    R = N.reduce_genset(t1, gens(t1, "a*z", "b*z"))
    assert N.verify_witnesses(t1, R)
    w = R.witness_log[0]["witnesses"][0]
    w["factors"] = w["factors"] + [W(t1, "a")]
    assert not N.verify_witnesses(t1, R)


def test_plain_lists_are_taken_as_sets(t1):
    # reduce_genset and is_reduced wrap a list in a GenSet: same answers
    xs = [W(t1, "a*z"), W(t1, "b*z")]
    R = N.reduce_genset(t1, xs)
    assert isinstance(R, N.GenSet)
    assert ([render(t1, g) for g in R.elements]
            == [render(t1, g) for g in N.reduce_genset(t1, N.GenSet(t1, xs))
                .elements])
    assert N.is_reduced(t1, xs) == N.is_reduced(t1, N.GenSet(t1, xs)) != []
    assert N.is_reduced(t1, list(R.pair_reps())) == []


def test_witness_log_renders(t1):
    Y = gens(t1, "a*z", "b*z")
    R = N.reduce_genset(t1, Y)
    for entry in R.witness_log:
        for w in entry["witnesses"]:
            elem, factors = w["rendered"]
            assert isinstance(elem, str) and all(
                isinstance(f, str) for f in factors)


# ---------------------------------------------------------------------------
# the held reducedness scan


_BASES = {"t1": ["a", "b", "z"], "t_ab": ["a", "z"], "fa3": ["a", "z2", "z3"],
          "surf2": ["x2", "x3", "x4", "x1"], "ns3": ["x2", "x3", "x1r"]}


def _sampled_set(t, base, seed):
    """The basis after a few random Nielsen moves (x <- x*y^+-1 or
    y^+-1*x), on odd seeds with the product of two members added."""
    rng = random.Random(seed)
    xs = [W(t, s) for s in base]
    for _ in range(1 + seed % 3):
        a, b = rng.sample(range(len(xs)), 2)
        y = xs[b] if rng.random() < 0.5 else T.invert(t, xs[b])
        xs[a] = (T.multiply(t, xs[a], y) if rng.random() < 0.5
                 else T.multiply(t, y, xs[a]))
    if seed % 2:
        xs.append(T.multiply(t, *rng.sample(xs, 2)))
    return xs


def _fresh(t, Y):
    return N.GenSet(t, list(Y))


def _split_view(t, Z):
    """split_level rendered, or the rejection it raises."""
    try:
        s = P.split_level(t, Z)
    except T.TowerRejection as exc:
        return "rejected", str(exc)
    return ([render(t, x) for x in s.base_gens],
            [(render(t, y), [render(t, x) for x in src],
              [render(t, x) for x in tgt])
             for y, src, tgt in s.stable_letters])


def test_held_scan_answers_as_a_fresh_one(all_towers):
    # is_reduced and split_level on a set that holds its scan, made by
    # is_reduced or by reduce_genset's passes, answer as on a fresh copy
    answers = set()
    for name, base in _BASES.items():
        t = all_towers[name]
        for seed in range(6):
            xs = _sampled_set(t, base, seed)
            for reduce_first in (False, True):
                Y = N.GenSet(t, xs)
                if reduce_first:
                    R = N.reduce_genset(t, Y)
                want = N.is_reduced(t, _fresh(t, Y))
                for _ in range(2):
                    assert N.is_reduced(t, Y) == want, (name, seed)
                if not reduce_first:
                    R = N.reduce_genset(t, Y)
                assert N.is_reduced(t, R) == N.is_reduced(t, _fresh(t, R))
                assert _split_view(t, R) == _split_view(t, _fresh(t, R))
                answers.add(bool(want))
    assert answers == {False, True}


def test_weight_zero_conjugators_are_self_overlaps(all_towers):
    # split_level tests only the held self-overlaps of y for a witness:
    # every c != 1 of the scan's ball with y^-1*c*y of weight zero is one
    # (c*y = y*d keeps y's head), and the overlaps of y come in ball order
    met = 0
    for name, base in _BASES.items():
        t = all_towers[name]
        for seed in range(6):
            R = N.reduce_genset(t, N.GenSet(t, _sampled_set(t, base, seed)))
            ball = N.ball(t, R.zero(), N.H_RADIUS)
            overlaps = R._overlaps
            for y in R.positive():
                mine = [h.key for f, h, _ in overlaps if f.key == y.key]
                assert mine == [c.key for c in ball if c.key in mine]
                for c in ball:
                    if (not T.is_identity(c) and T._weight_zero_conjugate(
                            t, y, c) is not None):
                        assert c.key in mine, (name, seed, render(t, y),
                                               render(t, c))
                        met += 1
    assert met


def _chain():
    """F(a, b, c) with z: a -> b, then y: b -> c at level 2."""
    t = T.base_tower(["a", "b", "c"])
    t = extend_hnn(t, "z", [W(t, "a")], [W(t, "b")])
    return extend_hnn(t, "y", [W(t, "b")], [W(t, "c")], level=2)


def test_self_overlap_is_total_iff_its_conjugate_has_weight_zero(all_towers):
    # the scan records f^-1*h*f of weight zero in place of com(f, h*f):
    # com(f, h*f) has f's weight exactly when that conjugate exists (the
    # argument in nielsen's module docstring), on the sampled sets and the
    # sets reduce_genset makes from them
    fa3 = all_towers["fa3"]
    towers = {**all_towers, "fa4": factory.free_abelian(4),
              "fp": factory.free_product(fa3, factory.t1()),
              "chain": _chain()}
    bases = {**_BASES, "fa4": ["a", "z2", "z3", "z4"],
             "fp": ["a", "a'", "b", "z2", "z3", "z"],
             "chain": ["a", "b", "c", "z", "y"]}
    t1 = all_towers["t1"]
    sets = [(t1, [W(t1, "z^-1*a*z^-1"), W(t1, "b^-2")])]
    for name, t in towers.items():
        for seed in range(6):
            Y = N.GenSet(t, _sampled_set(t, bases[name], seed))
            sets += [(t, Y), (t, N.reduce_genset(t, Y))]
    kinds = {True: 0, False: 0}
    for t, Y in sets:
        for f, h, x in N.GenSet(t, Y)._overlaps:
            total = (T.lam_len(t, T.com(t, f, T.multiply(t, h, f)))
                     == T.lam_len(t, f))
            assert total == (x is not None), (render(t, f), render(t, h))
            kinds[total] += 1
    assert kinds[True] and kinds[False], kinds


def test_scan_rows_are_the_full_rows_hits(all_towers, monkeypatch):
    # each row of every scan that reduce_genset's passes make is the full
    # row of heads (tower._product_heads) cut to the entries equal to a
    # positive generator's head, in ball order.  t1, t_ab, surf2 and ns3
    # take the lookup, fa3 the full row; on the lookup path a hit is
    # h = m_f*c^k*m_g^-1, and the sets reach both block signs, a first
    # margin m_g != 1 and hits at k < 0 and at k > 0
    seen = []
    real = N._products

    def recording(Y):
        seen.append(Y)
        return real(Y)

    monkeypatch.setattr(N, "_products", recording)
    met = {"lookup": set(), "full": 0}
    for name, base in _BASES.items():
        t = all_towers[name]
        seen.clear()
        for seed in range(6):
            N.reduce_genset(t, N.GenSet(t, _sampled_set(t, base, seed)))
        for Y in seen:
            hs = N.ball(t, Y.zero(), N.H_RADIUS)
            pos = Y.positive()
            heads = {T._head(t, g) for g in pos}
            words = all(h.level == 1 for h in Y.zero())
            prods = Y._prods
            for g in pos:
                row = prods[g.key]
                m_g, blk = g.parts[0], g.parts[1]
                lookup = (words and m_g.level == 1
                          and T._side(t, blk).head.level == 1)
                assert lookup == (name != "fa3"), name
                want = [(h.key, x) for h, x in
                        zip(hs, T._product_heads(t, g, hs)) if x in heads]
                assert [(h.key, x) for h, x in row] == want, (
                    name, render(t, g))
                if not lookup:
                    met["full"] += len(row)
                    continue
                c = T._side(t, blk).left[0].word
                for h, x in row:
                    ck = w_mul(w_mul(w_inv(x[0][1]), h.word), m_g.word)
                    k = len(ck) // len(c) * (1 if ck[:len(c)] == c else -1)
                    assert ck == (c * k if k > 0 else w_inv(c) * -k)
                    met["lookup"].add(("sign", blk.sign))
                    met["lookup"].add(("m_g", m_g.word != ()))
                    met["lookup"].add(("k", (k > 0) - (k < 0)))
    assert met["lookup"] >= {("sign", 1), ("sign", -1), ("m_g", True),
                             ("k", -1), ("k", 1)}, met
    assert met["full"], met


def _count_scan_builds(monkeypatch):
    """Calls of the builders a reducedness scan is made of; a ball counts
    as its one walk, on words or on elements."""
    calls = {"_products": 0, "ball": 0, "_product_hits": 0}
    for mod, name, counter in ((N, "_products", "_products"),
                               (N, "_walk", "ball"),
                               (T, "_product_hits", "_product_hits")):
        real = getattr(mod, name)

        def counting(*args, _real=real, _name=counter):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counting)
    return calls


def test_reduced_set_is_scanned_once(all_towers, monkeypatch):
    # reduce_genset's last pass leaves its scan on the result: is_reduced
    # and split_level on it build no ball and no head.  A second is_reduced
    # on any set builds nothing (the first may still fold or collect the
    # membership test a pass never queried); a fresh copy of the result is
    # one new scan
    calls = _count_scan_builds(monkeypatch)
    none = {"_products": 0, "ball": 0, "_product_hits": 0}
    for name, base in _BASES.items():
        t = all_towers[name]
        for seed in range(3):
            Y = N.GenSet(t, _sampled_set(t, base, seed))
            R = N.reduce_genset(t, Y)
            for k in calls:
                calls[k] = 0
            assert N.is_reduced(t, R) == []
            P.split_level(t, R)
            assert calls == none, (name, seed)
            N.is_reduced(t, Y)
            for k in calls:
                calls[k] = 0
            N.is_reduced(t, Y)
            assert calls == none, (name, seed)
            F = _fresh(t, R)
            N.is_reduced(t, F)
            assert calls["_products"] == 1, (name, seed)
            assert calls["ball"] >= 1, (name, seed)
            # one head row per positive generator
            assert calls["_product_hits"] == len(F.positive()) > 0, (
                name, seed)
            for k in calls:
                calls[k] = 0
            N.is_reduced(t, F)
            assert calls == none, (name, seed)


def _watch_products(Y, monkeypatch):
    """(the word Elems made, the lists _product_heads settles, the number
    of _settle_word calls) while _products builds Y's head table."""
    made, settled, words = [], [], []
    real_elem, real_heads, real_word = (T.word_elem, T._product_heads,
                                        T._settle_word)

    def elem(w):
        made.append(w)
        return real_elem(w)

    def heads(t, g, hs):
        settled.append(hs)
        return real_heads(t, g, hs)

    def settle_word(*args):
        words.append(args)
        return real_word(*args)

    with monkeypatch.context() as m:
        m.setattr(T, "word_elem", elem)
        m.setattr(T, "_product_heads", heads)
        m.setattr(T, "_settle_word", settle_word)
        N._products(Y)
    return made, settled, len(words)


def _lookup_sets(t1, surf2):
    """Sampled and basis sets of t1 and surf2, whose zero parts, first
    margins and head periods are words."""
    for t, base in ((t1, _BASES["t1"]), (surf2, _BASES["surf2"])):
        for seed in range(3):
            for Y in (N.GenSet(t, _sampled_set(t, base, seed)),
                      N.GenSet(t, [W(t, s) for s in base])):
                assert all(h.level == 1 for h in Y.zero())
                yield t, Y


def test_word_rows_make_only_their_candidates(t1, surf2, monkeypatch):
    # over a word zero part the scan's ball stays word tuples: _products
    # makes no word Elem beyond the candidates its rows find, every one of
    # which is a hit, and on the larger balls they are fewer than the ball
    # holds
    hits = fewer = 0
    for t, Y in _lookup_sets(t1, surf2):
        N._products(Y)  # the tower's side records are made once
        made, _, _ = _watch_products(Y, monkeypatch)
        found = sum(map(len, N._products(Y).values()))
        assert len(made) <= found, render(t, Y.elements[0])
        fewer += found < len(N.ball(t, Y.zero(), N.H_RADIUS))
        hits += found
    assert hits and fewer


def test_lookup_rows_settle_nothing(t1, surf2, monkeypatch):
    # a lookup row pairs each candidate with the head it was looked up
    # under, so on these sets no row settles a margin: _products calls
    # neither _product_heads nor _settle_word
    hits = 0
    for t, Y in _lookup_sets(t1, surf2):
        N._products(Y)  # the tower's side records are made once
        _, settled, words = _watch_products(Y, monkeypatch)
        assert settled == [] and words == 0, render(t, Y.elements[0])
        hits += sum(map(len, N._products(Y).values()))
    assert hits


def test_full_rows_share_one_ball(fa3, monkeypatch):
    # z3's head period is no word, so each row over the word zero part {a}
    # is the full row: the ball's Elems are made once per scan, for all
    Y = gens(fa3, "a", "z3", "z3*a*z3")
    assert all(h.level == 1 for h in Y.zero())
    want = [h.key for h in N.ball(fa3, Y.zero(), N.H_RADIUS)]
    _, settled, _ = _watch_products(Y, monkeypatch)
    assert len(settled) == len(Y.positive()) > 1
    assert all(hs is settled[0] for hs in settled)
    assert [h.key for h in settled[0]] == want


def _corpus_sets():
    """(tower, set) for each set of the reduce digest's corpus."""
    from test_reduce_keys import TOWERS, corpus

    for name, make in TOWERS:
        t = make()
        for Y in corpus(t, name):
            yield t, Y


def test_mu_builds_f_inverse_hg_once(monkeypatch):
    # mu cuts com(f, h*g) from the f^-1*h*g it keeps as rest
    # (tower._gromov_cut), so every mu of the reduce corpus builds that
    # product once; where h*g = f, w1 = u^-1*f is that product too, u
    # being f
    real_mul, real_mu = T.multiply, N.mu
    built, counts = [], []

    def multiply(t, x, y):
        built.append((x.key, y.key))
        return real_mul(t, x, y)

    def mu(Y, f, g, h):
        t = Y.tower
        hg = real_mul(t, h, g)
        want = (T.invert(t, f).key, hg.key)
        start = len(built)
        out = real_mu(Y, f, g, h)
        counts.append((t.rank, built[start:].count(want)
                       - (hg.key == f.key)))
        return out

    monkeypatch.setattr(T, "multiply", multiply)
    monkeypatch.setattr(N, "mu", mu)
    for t, Y in _corpus_sets():
        N.reduce_genset(t, Y)
    assert {n for _, n in counts} == {1}, counts
    assert max(rank for rank, _ in counts) > 1


def _fresh_pair_reps(t, members):
    out, seen = [], set()
    for g in members:
        if g.key not in seen:
            seen |= {g.key, T.invert(t, g).key}
            out.append(g)
    return out


def test_held_names_and_pair_reps_follow_replace(monkeypatch):
    # each set that replace makes along the reduce corpus's chains holds
    # its members' names and pair_reps as a fresh computation gives them,
    # and a caller that changes a list pair_reps returned changes nothing
    sets = []
    real = N.GenSet.replace

    def recording(self, *args):
        out = real(self, *args)
        sets.append(out)
        return out

    monkeypatch.setattr(N.GenSet, "replace", recording)
    given = list(_corpus_sets())
    for t, Y in given:
        N.reduce_genset(t, Y)
    monkeypatch.undo()
    assert max(len(S.witness_log) for S in sets) > 1  # chains, not steps
    for t, Y in given + [(S.tower, S) for S in sets]:
        assert ([g.key for g in Y.elements]
                == [g.key for g in sorted(Y, key=lambda g: render(t, g))])
        for part in (None, Y.positive(), Y.zero()):
            want = [g.key for g in _fresh_pair_reps(
                t, Y.elements if part is None else part)]
            got = Y.pair_reps(part)
            assert [g.key for g in got] == want
            got.reverse()
            got.append(T.EPS)
            assert [g.key for g in Y.pair_reps(part)] == want
        assert N._render_set(Y) == "{" + ", ".join(
            render(t, g) for g in _fresh_pair_reps(t, Y.elements)) + "}"
    assert any(S.positive() and S.zero() for S in sets)


# ---------------------------------------------------------------------------
# guard rails


def test_step_bound_error_names_the_set(t1, monkeypatch):
    # a mu that changes nothing is found again on every pass (a*z renders
    # as z*b)
    monkeypatch.setattr(N, "mu", lambda Y, f, g, h: Y)
    with pytest.raises(T.EngineError, match=re.escape(
            "reduction of {b*z, z*b} exceeded its step bound (4)")):
        N.reduce_genset(t1, gens(t1, "b*z", "a*z"))


def test_closure_error_names_the_set(t1, monkeypatch):
    # a closure step that always makes a new set never stabilizes
    monkeypatch.setattr(N, "_augment_closure", lambda Y: (
        Y.replace([], [], {"op": "augment"}), False))
    with pytest.raises(T.EngineError, match=re.escape(
            "closure augmentation of {a, b, z} did not stabilize")):
        N.reduce_genset(t1, gens(t1, "z", "a", "b"))


def test_mu_weight_error_names_the_set(t1, monkeypatch):
    Y = gens(t1, "a*z", "b*z")
    cand = N._find_mu(Y, Y._prods)
    monkeypatch.setattr(N, "lambda_weight", lambda Y: 1)
    with pytest.raises(T.EngineError, match=re.escape(
            "mu did not decrease the weight of {b*z, z*b}")):
        N.mu(Y, *cand)
