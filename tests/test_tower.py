"""Core engine: normal forms, lengths, common heads, commutation."""

import random

import pytest
from hypothesis import example, given, strategies as st

from znfree import axioms, factory, nielsen as N, tower as T, words as Wd
from znfree.axioms import SampleSpec, sample_elements
from znfree.hnn import extend_hnn
from znfree.lamvec import vadd
from znfree.wordexpr import parse_word, render


def W(t, s):
    return parse_word(t, s)


# ---------------------------------------------------------------------------
# worked examples


def test_conjugation_relation(t1):
    assert T.equals(t1, W(t1, "z^-1*a*z"), W(t1, "b"))
    assert T.equals(t1, W(t1, "z*b*z^-1"), W(t1, "a"))


def test_slide_relation(t1):
    assert T.equals(t1, W(t1, "a^3*z"), W(t1, "z*b^3"))
    assert T.length(t1, W(t1, "a^3*z")) == (3, 1)


def test_letter_length_is_unit(t1):
    assert T.length(t1, W(t1, "z")) == (0, 1)
    assert T.height(t1, W(t1, "z")) == 2
    assert T.lam_len(t1, W(t1, "z")) == 1


def test_circle_product_length(t1):
    # no cancellation: lengths add
    assert T.length(t1, W(t1, "a*z")) == (1, 1)
    assert T.length(t1, W(t1, "z*a")) == (1, 1)
    # a is the source axis of z, so it folds into the inverse block's
    # periodic margin: the lower coordinate counts against the block
    assert T.length(t1, W(t1, "z^-1*a")) == (-1, 1)
    assert T.length(t1, W(t1, "a^-1*z")) == (-1, 1)


def test_com_examples(t1):
    assert render(t1, T.com(t1, W(t1, "z*a"), W(t1, "z*b"))) == "z"
    u = T.com(t1, W(t1, "z*a*z"), W(t1, "z*a^2*z"))
    assert T.equals(t1, u, W(t1, "z*a*z"))


def test_com_is_head(all_towers):
    rng = random.Random(5)
    for t in all_towers.values():
        gs = sample_elements(t, SampleSpec(seed=11, samples=40))
        for _ in range(60):
            g, f = rng.choice(gs), rng.choice(gs)
            u = T.com(t, g, f)
            for x in (g, f):
                rem = T.multiply(t, T.invert(t, u), x)
                assert T.length(t, x) == tuple(
                    a + b for a, b in zip(T.length(t, u), T.length(t, rem)))


def _two_top_letters():
    """F(a, b, c) with z: a -> b and y: c -> a, both at level 2."""
    t = factory.free_tower(["a", "b", "c"])
    t = extend_hnn(t, "z", [T.gen_elem(t, "a")], [T.gen_elem(t, "b")])
    return extend_hnn(t, "y", [T.gen_elem(t, "c")], [T.gen_elem(t, "a")],
                      level=2)


def test_heads_meet_is_positive_com(all_towers, fa3, t1):
    # the head test reads the first margin and block only; it must agree
    # with the weight of the full com on sampled positive pairs and on
    # pairs (f, h*g) with h of weight zero, as the reducedness scans use it
    towers = {"free2": factory.free_tower(["a", "b"]), **all_towers,
              "fa4": factory.free_abelian(4), "fa5": factory.free_abelian(5),
              "fp": factory.free_product(fa3, t1),
              "two": _two_top_letters()}
    rng = random.Random(9)
    for name, t in towers.items():
        zero = [T.gen_elem(t, s) for s in t.symbols] + [
            T.letter_elem(t, n) for n, sl in t.letters.items()
            if sl.level < t.rank]
        hs = N.ball(t, zero, 2) if t.rank > 1 else [T.EPS]
        pos = [g for g in sample_elements(t, SampleSpec(seed=8, samples=30))
               if T.lam_len(t, g) > 0]
        assert not T._heads_meet(t, T.EPS, T.EPS), name
        met = {False: 0, True: 0}
        for _ in range(40):
            f, g, h = rng.choice(pos), rng.choice(pos), rng.choice(hs)
            for x in (g, T.multiply(t, h, g), T.multiply(t, h, f), h):
                want = T.lam_len(t, T.com(t, f, x)) > 0
                for pair in ((f, x), (x, f)):
                    assert T._heads_meet(t, *pair) == want, (
                        f"{name}: " + " ".join(render(t, y) for y in pair))
                met[want] += 1
        assert met[False] and met[True], name


def test_gromov_matches_com(all_towers):
    rng = random.Random(6)
    for t in all_towers.values():
        gs = sample_elements(t, SampleSpec(seed=12, samples=40))
        for _ in range(60):
            g, f = rng.choice(gs), rng.choice(gs)
            c2 = T.gromov2(t, g, f)
            u = T.com(t, g, f)
            assert c2 == tuple(2 * x for x in T.length(t, u))


def test_pinch(t_ab):
    # z^-1 a z = a, so z^-1 a^5 z collapses
    assert T.equals(t_ab, W(t_ab, "z^-1*a^5*z"), W(t_ab, "a^5"))


def test_abelian_exponents(fa3):
    gens = [W(fa3, "a"), W(fa3, "z2"), W(fa3, "z3")]
    x = W(fa3, "a^2*z3^3")
    assert T.abelian_exponents(fa3, gens, x) == [2, 0, 3]
    assert T.abelian_exponents(fa3, gens, W(fa3, "a*z2*a")) == [2, 1, 0]


def test_mixed_sign_length(fa3):
    assert T.length(fa3, W(fa3, "a^-1*z3")) == (-1, 0, 1)
    # length of an inverse equals length of the element
    g = W(fa3, "a^-1*z3")
    assert T.length(fa3, g) == T.length(fa3, T.invert(fa3, g))


def test_primitive_root(t1):
    g = W(t1, "(z*a*z)^3")
    root, k = T.primitive_root(t1, g)
    assert k == 3 and T.equals(t1, root, W(t1, "z*a*z"))
    root, k = T.primitive_root(t1, W(t1, "z^6"))
    assert k == 6 and T.equals(t1, root, W(t1, "z"))


def test_cyclic_decompose(t1):
    g = W(t1, "a*z*a^-1")
    c, core = T.cyclic_decompose(t1, g)
    assert T.is_cyclically_reduced(t1, core)
    rebuilt = T.multiply(t1, T.multiply(t1, T.invert(t1, c), core), c)
    assert T.equals(t1, rebuilt, g)


def test_commutes_and_centralizer(t1, t_ab, fa3):
    assert T.commutes(t1, W(t1, "a"), W(t1, "a^3"))
    assert not T.commutes(t1, W(t1, "a"), W(t1, "z"))
    assert T.centralizer(t1, W(t1, "a")).rank == 1
    assert T.centralizer(t1, W(t1, "z")).rank == 1
    assert T.centralizer(t_ab, W(t_ab, "a")).rank == 2
    assert T.centralizer(fa3, W(fa3, "a")).rank == 3


def test_centralizer_members_commute(all_towers):
    for t in all_towers.values():
        for g in sample_elements(t, SampleSpec(seed=3, samples=25)):
            if T.is_identity(g):
                continue
            c = T.centralizer(t, g)
            for x in T.subgroup_gens(t, c):
                assert T.commutes(t, x, g)


def test_is_conjugate(t1):
    assert T.is_conjugate(t1, W(t1, "a*b"), W(t1, "b*a"))
    assert T.is_conjugate(t1, W(t1, "a*z"), W(t1, "z*a"))
    assert not T.is_conjugate(t1, W(t1, "a"), W(t1, "a^2"))
    assert not T.is_conjugate(t1, W(t1, "a"), W(t1, "a^-1"))


def test_phi_conjugation_everywhere(all_towers):
    for t in all_towers.values():
        assert T.verify_phi_conjugation(t) == []


# ---------------------------------------------------------------------------
# sampled invariants


def test_group_laws_sampled(all_towers):
    rng = random.Random(1)
    for t in all_towers.values():
        gs = sample_elements(t, SampleSpec(seed=1, samples=40))
        for g in gs:
            gi = T.invert(t, g)
            assert T.is_identity(T.multiply(t, g, gi))
            assert T.length(t, g) == T.length(t, gi)
        for _ in range(40):
            a, b, c = (rng.choice(gs) for _ in range(3))
            ab_c = T.multiply(t, T.multiply(t, a, b), c)
            a_bc = T.multiply(t, a, T.multiply(t, b, c))
            assert ab_c.key == a_bc.key


def test_render_roundtrip(all_towers):
    for t in all_towers.values():
        for g in sample_elements(t, SampleSpec(seed=2, samples=40)):
            s = render(t, g)
            assert parse_word(t, s).key == g.key


def test_pow_elem(all_towers):
    for t in all_towers.values():
        for g in sample_elements(t, SampleSpec(seed=4, samples=15)):
            acc = T.EPS
            for k in range(4):
                assert T.equals(t, T.pow_elem(t, g, k), acc)
                acc = T.multiply(t, acc, g)
            assert T.equals(t, T.pow_elem(t, g, -2),
                            T.invert(t, T.pow_elem(t, g, 2)))


def test_peel_splits_axis_material(all_towers, fa3, t1):
    # the peel factors e = gens_power(exps) o e' (left end) or
    # e = e' o gens_power(exps) (right end) over each letter's two axes;
    # in the free product, z3's axis meets level-2 elements whose two outer
    # blocks differ
    fp = factory.free_product(fa3, t1)
    peeled = {False: 0, True: 0}
    for t in list(all_towers.values()) + [fp]:
        gs = sample_elements(t, SampleSpec(seed=6, samples=12))
        for sl in t.letters.values():
            for gens in (sl.source_gens, sl.target_gens):
                for g in gs:
                    c = gens[len(g.key) % len(gens)]
                    cands = (g, T.multiply(t, g, c),
                             T.multiply(t, T.pow_elem(t, c, -2), g))
                    for e in cands:
                        for right in (False, True):
                            rest, exps = T._peel(t, e, gens, right=right)
                            mat = T.gens_power(t, gens, exps)
                            pair = (rest, mat) if right else (mat, rest)
                            assert T.equals(t, e, T.multiply(t, *pair))
                            peeled[right] += any(exps)
    assert peeled[False] and peeled[True]


def test_inverse_axis_table(all_towers, fa3, t1):
    # every period a block reads from the tower's table is the fresh value,
    # and the same object on every call
    towers = {**all_towers, "fa5": factory.free_abelian(5),
              "fp": factory.free_product(fa3, t1)}
    for tname, t in towers.items():
        for name, sl in t.letters.items():
            for sign in (1, -1):
                blk = T.Block(name, sign, T.zero_offset(t, name))
                where = f"{tname}: letter {name}, sign {sign:+d}"
                head = sl.u if sign > 0 else T.invert(t, sl.v)
                tail = sl.v if sign > 0 else T.invert(t, sl.u)
                assert T.head_period(t, blk).key == head.key, f"{where}, head"
                assert T.tail_period(t, blk).key == tail.key, f"{where}, tail"
                assert T.head_period(t, blk) is T.head_period(t, blk), (
                    f"{where}, head recomputed")
                assert T.tail_period(t, blk) is T.tail_period(t, blk), (
                    f"{where}, tail recomputed")
                side = "target" if sign > 0 else "source"
                pers = T.offset_periods(t, blk)
                inv = T._inverse_offset_periods(t, blk)
                assert len(inv) == len(pers), f"{where}, {side} side"
                for j, (p, q) in enumerate(zip(pers, inv)):
                    assert q.key == T.invert(t, p).key, (
                        f"{where}, inverse of {side} generator {j}")
                    assert T._inverse_offset_periods(t, blk)[j] is q, (
                        f"{where}, inverse of {side} generator {j} "
                        "recomputed")


def test_inverse_axis_table_per_tower():
    # an extension gets its own table; using it leaves the parent's alone
    fa3 = factory.free_abelian(3)
    axis = [T.gen_elem(fa3, s) for s in ("a", "z2", "z3")]
    fa4 = extend_hnn(fa3, "z4", axis, axis)
    assert fa4._inverse_axes is not fa3._inverse_axes
    before = dict(fa3._inverse_axes)
    gs = sample_elements(fa4, SampleSpec(seed=7, samples=20))
    for g, h in zip(gs, gs[1:]):
        T.multiply(fa4, T.invert(fa4, g), h)
    for name in fa4.letters:
        T.head_period(fa4, T.Block(name, -1, T.zero_offset(fa4, name)))
    assert set(fa4._inverse_axes) == set(fa4.letters)
    assert fa3._inverse_axes.keys() == before.keys()
    for name, inv in before.items():
        assert fa3._inverse_axes[name] is inv, f"parent entry {name} replaced"


def _reduced(seq):
    w = Wd.EPS
    for x in seq:
        w = Wd.w_mul(w, (x,))
    return w


reduced_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                         max_size=8).map(_reduced)
word_pairs = st.one_of(st.tuples(reduced_words, reduced_words),
                       reduced_words.map(lambda w: (w, Wd.w_inv(w))))
F3 = factory.free_tower(["a", "b", "c"])


@given(word_pairs)
@example(((), ()))
@example(((), (1,)))
@example(((1,), (-1,)))
@example(((1,), (2,)))
@example(((1, 2), (-2, -1)))
def test_additive_on_words(pair):
    a, b = (T.word_elem(w) for w in pair)
    add, prod = T._additive(F3, a, b)
    full = T.multiply(F3, a, b)
    assert add == (T.lenvec(full) == vadd(T.lenvec(a), T.lenvec(b)))
    if not add:
        assert prod.key == full.key
