"""Length-function axiom harness on the ready-made towers."""

import itertools

import pytest

from znfree import axioms, factory, tower as T
from znfree.axioms import SampleSpec
from znfree.wordexpr import parse_word


def test_all_towers_clean(all_towers):
    for name, t in all_towers.items():
        bad = axioms.check_axioms(t, SampleSpec(seed=0, samples=300))
        assert bad == [], (name, bad[:5])


def test_seed_determinism(t1):
    a = axioms.sample_elements(t1, SampleSpec(seed=9, samples=50))
    b = axioms.sample_elements(t1, SampleSpec(seed=9, samples=50))
    assert [g.key for g in a] == [g.key for g in b]
    c = axioms.sample_elements(t1, SampleSpec(seed=10, samples=50))
    assert [g.key for g in a] != [g.key for g in c]


def test_commutation_suite(all_towers):
    for name, t in all_towers.items():
        bad = axioms.commutation_suite(t, SampleSpec(seed=0, samples=120))
        assert bad == [], (name, bad[:5])


def test_gromov_product_integral(t1):
    # doubled products halve exactly on sampled pairs
    gs = axioms.sample_elements(t1, SampleSpec(seed=4, samples=40))
    for g in gs:
        for f in gs[:10]:
            c = axioms.gromov_product(t1, g, f)
            assert all(isinstance(x, int) for x in c)


# ---------------------------------------------------------------------------
# every violation is reported: one engine function broken per case, on
# fixed samples, so that a checker that found nothing would fail here


@pytest.fixture(scope="module")
def f2():
    return factory.free_tower(["a", "b"])


def _samples(monkeypatch, t, *words):
    """sample_elements fixed to the elements of words, in that order."""
    elems = [parse_word(t, w) for w in words]
    monkeypatch.setattr(axioms, "sample_elements", lambda t, spec: elems)


def _identity_long(real):
    return lambda t, g: (1,) if T.is_identity(g) else real(t, g)


def _letters_negative(real):
    # a and a^-1 both read -1, so L2 still holds
    return lambda t, g: (-1,) if len(g.word) == 1 else real(t, g)


def _inverse_long(real):
    return lambda t, g: (2,) if g.word == (-1,) else real(t, g)


def _square_short(real):
    return lambda t, g: (1,) if g.word == (1, 1) else real(t, g)


def _odd(real):
    return lambda t, g, h: (1,)


def _second_zero(real):
    # c(g,h), the second Gromov product of a sample, reads 0
    calls = itertools.count()
    return lambda t, g, h: (0,) if next(calls) == 1 else real(t, g, h)


def _identity_head(real):
    return lambda t, g, h: T.EPS


def _foreign_head(real):
    # b has the length of com(a, a) = a, so the length test holds, but a
    # does not factor through b additively
    return lambda t, g, h: parse_word(t, "b")


@pytest.mark.parametrize("samples, name, broken, want", [
    (0, "length", _identity_long,
     ["L1 g0=1 detail=identity has nonzero length"]),
    (0, "length", _letters_negative,
     ["L1 g0=a detail=negative length (-1,)"]),
    (0, "length", _inverse_long,
     ["L2 g0=a detail=length differs from inverse length"]),
    (0, "length", _square_short,
     ["L5 g0=a detail=l(g^2)=(1,) l(g)=(1,)"]),
    # an odd doubled product cannot be twice a length, so L6 fails too
    (1, "gromov2", _odd,
     ["L4 g0=a g1=a detail=half-integer Gromov product (1,)",
      "L6 g0=a g1=a detail=l(com)=(1,) 2c=(1,)"]),
    (1, "gromov2", _second_zero,
     ["L3 g0=a g1=a g2=a detail=c(g,f)=(2,) c(g,h)=(0,) c(f,h)=(2,)"]),
    (1, "com", _identity_head, ["L6 g0=a g1=a detail=l(com)=(0,) 2c=(2,)"]),
    (1, "com", _foreign_head,
     ["L6 g0=a g1=a detail=factorization through com is not additive"] * 2),
], ids=["L1-identity", "L1-negative", "L2", "L5", "L4", "L3", "L6-length",
        "L6-factorization"])
def test_check_axioms_reports_each_violation(f2, monkeypatch, samples, name,
                                             broken, want):
    _samples(monkeypatch, f2, "a")
    monkeypatch.setattr(T, name, broken(getattr(T, name)))
    assert axioms.check_axioms(f2, SampleSpec(samples=samples)) == want


def _never_commute(real):
    return lambda t, g, h: False


def _own_conjugator(real):
    return lambda t, g: (g, g)


def _no_core(real):
    # the first suite skips every pair, so only the height rule runs
    return lambda t, g: (T.EPS, T.EPS)


@pytest.mark.parametrize("tower, words, samples, breaks, want", [
    ("f2", ["a"], 1, {"commutes": _never_commute},
     ["power-overlap g0=a g1=a detail=large overlap without commuting"]),
    ("f2", ["a", "a^2"], 2, {"cyclic_decompose": _own_conjugator},
     ["shared-conjugator g0=a g1=a^2 detail=commuting pair with distinct "
      "conjugating parts"]),
    ("t1", ["z", "a"], 2,
     {"commutes": _never_commute, "cyclic_decompose": _no_core},
     ["height-drop g0=z g1=a g2=a detail=conjugation drops height but pair "
      "does not commute"]),
], ids=["power-overlap", "shared-conjugator", "height-drop"])
def test_commutation_suite_reports_each_violation(request, monkeypatch, tower,
                                                  words, samples, breaks,
                                                  want):
    t = request.getfixturevalue(tower)
    _samples(monkeypatch, t, *words)
    for name, broken in breaks.items():
        monkeypatch.setattr(T, name, broken(getattr(T, name)))
    assert axioms.commutation_suite(t, SampleSpec(samples=samples)) == want
