"""End-to-end acceptance: the nine contract-level properties.

Each test is exact (no tolerances); the timed ones assert their runtime
budget.  The free-group oracle used in the first test is an independent
scan-and-cancel implementation local to this file.
"""

import random
import time

import pytest

from znfree import axioms, factory, nielsen as N, pregroup as P, tower as T
from znfree.axioms import SampleSpec, sample_elements
from znfree.hnn import extend_hnn
from znfree.tower import TowerRejection, gen_elem, invert, multiply
from znfree.wordexpr import parse_word, render


def W(t, s):
    return parse_word(t, s)


def towers():
    return [("t1", factory.t1()),
            ("t_ab", factory.t_ab()),
            ("fa3", factory.free_abelian(3)),
            ("surf2", factory.surface_orientable(2)),
            ("ns3", factory.surface_nonorientable(3))]


CANONICAL_GENS = {
    "t1": ["a", "b", "z"],
    "t_ab": ["a", "z"],
    "fa3": ["a", "z2", "z3"],
    "surf2": ["x2", "x3", "x4", "x1"],
    "ns3": ["x2", "x3", "x1r"],
}


# ---------------------------------------------------------------------------
# 1. free-group oracle equivalence


def _reduced_words_upto(n):
    gens = [1, -1, 2, -2]
    words = [()]
    frontier = [()]
    for _ in range(n):
        nxt = []
        for w in frontier:
            for g in gens:
                if w and w[-1] == -g:
                    continue
                nxt.append(w + (g,))
        words.extend(nxt)
        frontier = nxt
    return words


def _random_reduced_word(rng, max_len):
    n = rng.randrange(max_len + 1)
    w = []
    for _ in range(n):
        choices = [g for g in (1, -1, 2, -2) if not w or g != -w[-1]]
        w.append(rng.choice(choices))
    return tuple(w)


def test_acceptance_1_free_group_oracle():
    t = factory.free_tower(["a", "b"])
    start = time.monotonic()
    words = _reduced_words_upto(6)
    elems = [T.word_elem(w) for w in words]
    mul, com, lenv = T.multiply, T.com, T.lenvec
    mismatches = 0
    for i, a in enumerate(elems):
        wa = words[i]
        la = len(wa)
        for j, b in enumerate(elems):
            wb = words[j]
            lb = len(wb)
            k = 0
            m = la if la < lb else lb
            while k < m and wa[la - 1 - k] == -wb[k]:
                k += 1
            owm = wa[:la - k] + wb[k:]
            c = 0
            while c < la and c < lb and wa[c] == wb[c]:
                c += 1
            p = mul(t, a, b)
            if p.word != owm or lenv(p) != (len(owm),):
                mismatches += 1
            if com(t, a, b).word != wa[:c]:
                mismatches += 1
    rng = random.Random(0)
    for _ in range(10000):
        wa = _random_reduced_word(rng, 30)
        wb = _random_reduced_word(rng, 30)
        a, b = T.word_elem(wa), T.word_elem(wb)
        la, lb = len(wa), len(wb)
        k = 0
        m = min(la, lb)
        while k < m and wa[la - 1 - k] == -wb[k]:
            k += 1
        owm = wa[:la - k] + wb[k:]
        c = 0
        while c < m and wa[c] == wb[c]:
            c += 1
        p = mul(t, a, b)
        if p.word != owm or lenv(p) != (len(owm),):
            mismatches += 1
        if com(t, a, b).word != wa[:c]:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. axiom suite


def test_acceptance_2_axiom_suite():
    start = time.monotonic()
    for name, t in towers():
        bad = axioms.check_axioms(t, SampleSpec(seed=0, samples=5000,
                                                lam_radius=4))
        assert bad == [], (name, bad[:5])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. conjugation law


def test_acceptance_3_conjugation_law():
    for name, t in towers():
        assert T.verify_phi_conjugation(t) == [], name
        for sl in t.letters.values():
            z = T.letter_elem(t, sl.name)
            zi = invert(t, z)
            for a, b in zip(sl.source_gens, sl.target_gens):
                got = multiply(t, multiply(t, zi, a), z)
                assert T.equals(t, got, b), (name, sl.name)


# ---------------------------------------------------------------------------
# 4. connecting-element identities


def test_acceptance_4_connecting_identities():
    for name, t in towers():
        for sl in t.letters.values():
            z = T.letter_elem(t, sl.name)
            uz = multiply(t, sl.u, z)
            zv = multiply(t, z, sl.v)
            assert T.equals(t, uz, zv), (name, sl.name)
            expect = tuple(1 if i + 1 == sl.level else 0
                           for i in range(t.rank))
            assert T.length(t, z) == expect, (name, sl.name)


# ---------------------------------------------------------------------------
# 5. weight additivity of reduced piece sequences


def test_acceptance_5_weight_additivity():
    for name, t in towers():
        Z = N.GenSet(t, [W(t, s) for s in CANONICAL_GENS[name]])
        rng = random.Random(0)
        for _ in range(1000):
            k = rng.randrange(1, 4)
            items = [P._random_piece(t, Z, rng) for _ in range(k)]
            red = P.reduce_psequence(t, Z, P.PSequence(items))
            prod = T.EPS
            for x in items:
                prod = multiply(t, prod, x)
            total = sum(T.lam_len(t, u) for u in red.items)
            assert total == T.lam_len(t, prod), (name, render(t, prod))


# ---------------------------------------------------------------------------
# 6. generating-set reduction


def _random_gensets(t, count, seed):
    pool = [g for g in sample_elements(
        t, SampleSpec(seed=seed, samples=400, lam_radius=2, word_cap=4))
        if not T.is_identity(g)]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.randrange(2, 7)
        Y = N.GenSet(t, [rng.choice(pool) for _ in range(size)])
        if 0 < N.lambda_weight(Y) <= 12:
            out.append(Y)
    return out


def test_acceptance_6_reduction():
    start = time.monotonic()
    for name, t in [("t1", factory.t1()),
                    ("surf2", factory.surface_orientable(2))]:
        for i, Y in enumerate(_random_gensets(t, 100, seed=1000)):
            # reduce_genset enforces the (weight)^2 step bound internally
            # and raises if exceeded
            R = N.reduce_genset(t, Y)
            assert N.is_reduced(t, R) == [], (name, i)
            assert N.verify_witnesses(t, R), (name, i)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"reduction sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 7. builder rejections


def test_acceptance_7_builder_rejections():
    t0 = factory.free_tower(["a"])
    a = gen_elem(t0, "a")
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [a], [invert(t0, a)])
    assert ei.value.condition == "admissible-pair: conjugate-to-inverse"

    tab = factory.free_tower(["a", "b"])
    ba = multiply(tab, gen_elem(tab, "b"), gen_elem(tab, "a"))
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(tab, "z", [gen_elem(tab, "a")], [ba])
    assert ei.value.condition == "admissible-pair: length-mismatch"

    t1 = factory.t1()
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t1, "w", [gen_elem(t1, "a")], [gen_elem(t1, "b")],
                   level=2)
    assert ei.value.condition == "orientation-clash"


# ---------------------------------------------------------------------------
# 8. normal-form uniqueness under refactorization


def _token_pool(t):
    toks = [T.word_elem((i, )) for i in range(1, len(t.symbols) + 1)]
    toks += [T.letter_elem(t, n) for n in t.letters]
    return toks + [invert(t, x) for x in toks]


def _pinch_quad(t, rng):
    sl = rng.choice(list(t.letters.values()))
    z = T.letter_elem(t, sl.name)
    i = rng.randrange(len(sl.source_gens))
    a, fa = sl.source_gens[i], sl.target_gens[i]
    if rng.random() < 0.5:
        # z * phi(a) * z^-1 * a^-1 = 1
        return [z, fa, invert(t, z), invert(t, a)]
    # z^-1 * a * z * phi(a)^-1 = 1
    return [invert(t, z), a, z, invert(t, fa)]


def _slide_quad(t, rng):
    sl = rng.choice(list(t.letters.values()))
    z = T.letter_elem(t, sl.name)
    i = rng.randrange(len(sl.source_gens))
    a, fa = sl.source_gens[i], sl.target_gens[i]
    k = rng.randrange(1, 4)
    # a^k * z * phi(a)^-k * z^-1 = 1
    return [T.pow_elem(t, a, k), z, T.pow_elem(t, fa, -k), invert(t, z)]


def _fold(t, factors, rng):
    if not factors:
        return T.EPS
    items = list(factors)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [multiply(t, items[i], items[i + 1])]
    return items[0]


def test_acceptance_8_refactorization():
    for name, t in towers():
        rng = random.Random(0)
        pool = _token_pool(t)
        for _ in range(1000):
            factors = [rng.choice(pool)
                       for _ in range(rng.randrange(1, 7))]
            base = _fold(t, factors, rng)
            for _ in range(3):
                alt = list(factors)
                for quad_maker in (_pinch_quad, _slide_quad):
                    if rng.random() < 0.7:
                        pos = rng.randrange(len(alt) + 1)
                        alt[pos:pos] = quad_maker(t, rng)
                other = _fold(t, alt, rng)
                assert other.key == base.key, (name, render(t, base))
                assert T.equals(t, other, base)


def test_refactorization_on_wide_towers(monkeypatch):
    # acceptance 8's refactorizations on fa5 and a free product, which it
    # skips: keys agree, and equals, a key comparison that multiplies
    # nothing, agrees with g*h^-1 being the identity on equal and distinct
    # pairs
    calls = []
    real = T.multiply

    def counting(t, g, h):
        calls.append(1)
        return real(t, g, h)

    monkeypatch.setattr(T, "multiply", counting)
    fa3 = factory.free_abelian(3)
    wide = [("fa5", factory.free_abelian(5)),
            ("fp", factory.free_product(fa3, factory.t1()))]
    for name, t in wide:
        rng = random.Random(0)
        pool = _token_pool(t)
        seen = {True: 0, False: 0}
        prev = T.EPS
        for _ in range(60):
            factors = [rng.choice(pool)
                       for _ in range(rng.randrange(1, 7))]
            base = _fold(t, factors, rng)
            for _ in range(3):
                alt = list(factors)
                for quad_maker in (_pinch_quad, _slide_quad):
                    pos = rng.randrange(len(alt) + 1)
                    alt[pos:pos] = quad_maker(t, rng)
                other = _fold(t, alt, rng)
                assert other.key == base.key, (name, render(t, base))
                for g, h in ((other, base), (other, prev)):
                    calls.clear()
                    eq = T.equals(t, g, h)
                    assert not calls, name
                    assert eq == T.is_identity(
                        multiply(t, g, invert(t, h))), (
                            name, render(t, g), render(t, h))
                    seen[eq] += 1
            prev = base
        assert seen[True] and seen[False], name


# ---------------------------------------------------------------------------
# 9. surface relators


def test_acceptance_9_surface_relators():
    t = factory.surface_orientable(2)
    rel = W(t, "x1*(x2*x3*x4)*x1^-1*(x4*x3*x2)^-1")
    assert T.is_identity(rel)

    t = factory.surface_nonorientable(3)
    rel = W(t, "x1*(x2*x3)*x1^-1*(x3^-1*x2)^-1")
    assert T.is_identity(rel)
