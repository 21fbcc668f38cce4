"""The engine's products, inverses and equality against the Britton-lemma
oracle of `britton_oracle.py`, which shares no code with the margin rules.
Only public names of `znfree` are used."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

import britton_oracle as B
from znfree import (equals, factory, gen_elem, invert, multiply, parse_word,
                    tower as T)
from znfree.axioms import SampleSpec, sample_elements

_TOWERS = {
    "t1": factory.t1, "t_ab": factory.t_ab,
    "fa3": lambda: factory.free_abelian(3),
    "fa4": lambda: factory.free_abelian(4),
    "surf2": lambda: factory.surface_orientable(2),
    "ns3": lambda: factory.surface_nonorientable(3),
    "surf3": lambda: factory.surface_orientable(3),
    "fp": lambda: factory.free_product(factory.free_abelian(3), factory.t1()),
}


@functools.cache
def _sample(name):
    """A tower and 30 sampled elements, made on first use."""
    t = _TOWERS[name]()
    return t, sample_elements(t, SampleSpec(seed=53, samples=30))


def _gens(t, spec):
    """The signed generators of a space-separated spec such as "z^-1 a z"."""
    out = []
    for s in spec.split():
        name, _, sign = s.partition("^")
        out.append(gen_elem(t, name, int(sign or 1)))
    return out


@pytest.mark.parametrize("tower, left, right, want", [
    ("t1", "z^-1 a z", "b", True),
    ("t1", "a z", "z b", True),
    ("t1", "a z", "z a", False),
    ("t1", "z a z^-1", "b", False),
    ("fa3", "z3^-1 z2 a z3", "a z2", True),
    ("fa3", "z3 z2 z3^-1 z2^-1", "", True),
    ("fa3", "z3^-1 z2 z3 z3", "z3", False),
    ("surf2", "x1 x2 x3 x4 x1^-1 x2^-1 x3^-1 x4^-1", "", True),
    ("surf2", "x1 x2 x3 x4 x1^-1 x4^-1 x3^-1 x2^-1", "", False),
])
def test_oracle_on_worked_examples(tower, left, right, want, monkeypatch):
    # each side a product of signed generators; the oracle multiplies and
    # inverts only below the top level among the factors
    t = _sample(tower)[0]
    lhs, rhs = _gens(t, left), _gens(t, right)
    top = max(g.level for g in lhs + rhs)
    levels = []
    for name in ("multiply", "invert"):
        real = getattr(T, name)

        def counting(t, *args, real=real):
            levels.extend(x.level for x in args)
            return real(t, *args)

        monkeypatch.setattr(T, name, counting)
    assert B.equal(t, lhs, rhs) == want
    assert levels and max(levels) < top


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_TOWERS)), st.data())
def test_multiply_and_invert_match_the_oracle(name, data):
    # multiply(g, h) is g*h, and g*invert(g) is the identity
    t, gs = _sample(name)
    g, h = data.draw(st.sampled_from(gs)), data.draw(st.sampled_from(gs))
    assert B.equal(t, [g, h], [multiply(t, g, h)]), name
    assert B.equal(t, [g, invert(t, g)], []), name


_EQUALS_TOWERS = ["fa3", "fa4", "fp", "ns3", "t1", "t_ab"]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_EQUALS_TOWERS), st.data())
def test_equals_agrees_with_the_oracle(name, data):
    # both bracketings of a sampled triple are one element, and two sampled
    # elements are one exactly when the oracle says so
    t, gs = _sample(name)
    a, b, c = (data.draw(st.sampled_from(gs)) for _ in range(3))
    x = multiply(t, multiply(t, a, b), c)
    y = multiply(t, a, multiply(t, b, c))
    assert equals(t, x, y) == B.equal(t, [x], [y]), name
    assert equals(t, a, b) == B.equal(t, [a], [b]), name


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "surf2 and surf3 give one element two keys: no margin phase rewrites "
    "one clean form of an overlap margin into the other (ROADMAP item 15)"))
def test_equals_agrees_with_the_oracle_on_two_key_pairs():
    # x1*m*x1 in both bracketings, m an overlap of x1's tail and head periods
    wrong = []
    for name, m in (("surf2", "x2*x3*x4*x3*x2"),
                    ("surf3", "x2*x3*x4*x5*x6*x5*x4*x3*x2")):
        t = _sample(name)[0]
        g = parse_word(t, f"x1*{m}*x1")
        h = parse_word(t, f"x1*({m}*x1)")
        if equals(t, g, h) != B.equal(t, [g], [h]):
            wrong.append(name)
    assert wrong == []
