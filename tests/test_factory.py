"""Ready-made towers: relators, abelian structure, free products, bases."""

import pytest

from znfree import factory, tower as T
from znfree.wordexpr import parse_word, render


def W(t, s):
    return parse_word(t, s)


def test_t1_relation(t1):
    assert T.equals(t1, W(t1, "z^-1*a*z"), W(t1, "b"))


def test_t_ab_is_z2(t_ab):
    assert T.commutes(t_ab, W(t_ab, "a"), W(t_ab, "z"))
    assert T.length(t_ab, W(t_ab, "a^2*z^3")) == (2, 3)
    # the top coordinate counts letter blocks and is never negative
    assert T.length(t_ab, W(t_ab, "a^2*z^-3")) == (-2, 3)
    g = W(t_ab, "a^2*z^-3")
    assert T.length(t_ab, g) == T.length(t_ab, T.invert(t_ab, g))


def test_free_abelian_all_commute(fa3):
    gens = factory.abelian_gens(fa3)
    assert len(gens) == 3
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            assert T.commutes(fa3, x, y)
    # exponents are recovered exactly
    g = W(fa3, "a^-2*z2^5*z3")
    assert T.abelian_exponents(fa3, gens, g) == [-2, 5, 1]


def test_free_abelian_rejects_rank_zero():
    with pytest.raises(ValueError):
        factory.free_abelian(0)


def test_orientable_relator_vanishes():
    for n in (1, 2, 3):
        t = factory.surface_orientable(n)
        syms = [f"x{i}" for i in range(2, 2 * n + 1)]
        p = "*".join(syms) if syms else "x2"
        rel = f"x1*({p})*x1^-1*({'*'.join(reversed(syms))})^-1"
        assert T.is_identity(W(t, rel)), (n, rel)


def test_nonorientable_relator_vanishes():
    for n in (3, 4, 5):
        t = factory.surface_nonorientable(n)
        syms = [f"x{i}" for i in range(2, n + 1)]
        p = "*".join(syms)
        q = f"x{n}^-1*" + "*".join(reversed(syms[:-1]))
        rel = f"x1*({p})*x1^-1*({q})^-1"
        assert T.is_identity(W(t, rel)), (n, rel)


@pytest.mark.xfail(strict=True, raises=T.EngineError, reason=(
    "on the nonorientable surface with four or more crosscaps the margin "
    "passes of x1r*x2^-1*x1r alternate with period 2 and never stabilize "
    "(ROADMAP item 10)"))
def test_nonorientable_four_multiplies():
    # a product must render to a word that parses back to it, and g*g^-1
    # must be the identity
    t = factory.surface_nonorientable(4)
    g = W(t, "x1r*x2^-1*x1r")
    assert W(t, render(t, g)).key == g.key
    assert T.is_identity(T.multiply(t, g, T.invert(t, g)))


def test_nonorientable_minimum_size():
    with pytest.raises(ValueError):
        factory.surface_nonorientable(2)


def test_free_product_embeds_lengths(t1, t_ab):
    tp = factory.free_product(t1, t_ab)
    # both factors' relations hold, with primes on the second factor
    assert T.equals(tp, W(tp, "z^-1*a*z"), W(tp, "b"))
    assert T.commutes(tp, W(tp, "a'"), W(tp, "z'"))
    assert not T.commutes(tp, W(tp, "a"), W(tp, "a'"))
    assert T.verify_phi_conjugation(tp) == []


def test_free_product_remaps_second_factor_aliases(t1, ns3):
    # ns3's alias x1 = x1r*x2^-1 comes along from the second factor, with a
    # prime where its name is taken, and the relator it satisfies holds
    rel = "x1*x2*x3*x1^-1*(x3^-1*x2)^-1"
    tp = factory.free_product(t1, ns3)
    assert list(tp.aliases) == ["x1"]
    assert T.is_identity(W(tp, rel))
    tq = factory.free_product(ns3, ns3)
    assert list(tq.aliases) == ["x1", "x1'"]
    assert T.equals(tq, W(tq, "x1'"), W(tq, "x1r'*x2'^-1"))
    assert T.is_identity(W(tq, rel))
    assert T.is_identity(W(tq, rel.replace("x1", "x1'").replace(
        "x2", "x2'").replace("x3", "x3'")))


def test_check_regular_basis(t1):
    assert factory.check_regular_basis(t1, [W(t1, "a"), W(t1, "b")])
    assert not factory.check_regular_basis(
        t1, [W(t1, "a"), W(t1, "b*a")])
    assert factory.check_regular_basis(
        t1, [W(t1, "a*b^-1"), W(t1, "a^-1*b")])
    with pytest.raises(ValueError):
        factory.check_regular_basis(t1, [W(t1, "z")])
