"""Verification harness: length-axiom suites and commutation property tests.

The six axioms for a free regular length function l : G -> Z^n:

  L1  l(g) >= 0 and l(identity) = 0
  L2  l(g) = l(g^{-1})
  L3  c(g,f) > c(g,h) implies c(g,h) = c(f,h)
  L4  c(g,f) is an exact vector (no half-integers)
  L5  l(g^2) > l(g) for g != identity
  L6  g and f factor through their common initial segment, whose length
      realizes c(g,f)

where c(g,f) = (l(g) + l(f) - l(g^{-1}f)) / 2 is the Gromov product.  All
comparisons are done on doubled values to stay in exact integer arithmetic;
an odd coordinate is itself an L4 violation.

`com` cuts g at c(g,f) with `prefix_of`, so L6's length check tests that
cut.  Its additivity check, on both operands, is the independent check of
regularity: the cut must be an initial segment of f as well as of g.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lamvec import vadd, vcmp, veq, vhalf
from . import tower as T
from .tower import Elem, GroupTower
from .wordexpr import render


@dataclass(frozen=True)
class SampleSpec:
    seed: int = 0
    samples: int = 1000
    lam_radius: int = 4
    word_cap: int = 8


def gromov_product(t: GroupTower, g: Elem, f: Elem):
    """c(g,f); raises ValueError on a half-integer coordinate (an L4
    violation in itself)."""
    return vhalf(T.gromov2(t, g, f))


def sample_elements(t: GroupTower, spec: SampleSpec) -> list[Elem]:
    rng = random.Random(spec.seed)
    gens = []
    for s in t.symbols:
        gens.append(T.gen_elem(t, s))
    for name in t.letters:
        gens.append(T.letter_elem(t, name))
    out = [T.EPS]
    while len(out) < spec.samples:
        cur = T.EPS
        for _ in range(rng.randint(1, spec.word_cap)):
            g = rng.choice(gens)
            if rng.random() < 0.5:
                g = T.invert(t, g)
            nxt = T.multiply(t, cur, g)
            if T.lam_len(t, nxt) > spec.lam_radius:
                continue
            cur = nxt
        out.append(cur)
    return out


def check_axioms(t: GroupTower, spec: SampleSpec) -> list[str]:
    """One violation string per failed axiom instance; empty means pass."""
    rng = random.Random(spec.seed + 1)
    elems = sample_elements(t, spec)
    bad: list[str] = []

    def note(ax, detail, *gs):
        parts = " ".join(f"g{i}={render(t, g)}" for i, g in enumerate(gs))
        bad.append(f"{ax} {parts} detail={detail}")

    zero = T.length(t, T.EPS)
    if any(zero):
        bad.append("L1 g0=1 detail=identity has nonzero length")
    for g in elems:
        lg = T.length(t, g)
        if vcmp(lg, tuple([0] * len(lg))) < 0:
            note("L1", f"negative length {lg}", g)
        if not veq(lg, T.length(t, T.invert(t, g))):
            note("L2", "length differs from inverse length", g)
        if not T.is_identity(g):
            sq = T.multiply(t, g, g)
            if vcmp(T.length(t, sq), lg) <= 0:
                note("L5", f"l(g^2)={T.length(t, sq)} l(g)={lg}", g)
    for _ in range(spec.samples):
        g = rng.choice(elems)
        f = rng.choice(elems)
        h = rng.choice(elems)
        cgf = T.gromov2(t, g, f)
        cgh = T.gromov2(t, g, h)
        cfh = T.gromov2(t, f, h)
        if any(x % 2 for x in cgf):
            note("L4", f"half-integer Gromov product {cgf}", g, f)
        if vcmp(cgf, cgh) > 0 and not veq(cgh, cfh):
            note("L3", f"c(g,f)={cgf} c(g,h)={cgh} c(f,h)={cfh}", g, f, h)
        w = T.com(t, g, f)
        lw = T.length(t, w)
        if not veq(cgf, vadd(lw, lw)):
            note("L6", f"l(com)={lw} 2c={cgf}", g, f)
            continue
        for x in (g, f):
            rest = T.multiply(t, T.invert(t, w), x)
            if not veq(T.length(t, x), vadd(lw, T.length(t, rest))):
                note("L6", "factorization through com is not additive", g, f)
    return bad


def commutation_suite(t: GroupTower, spec: SampleSpec) -> list[str]:
    """Property checks for the commutation lemmas:

    - cyclically reduced f, h with c(f^m, h^n) >= |f| + |h| for some
      m, n <= 4 must commute;
    - commuting nontrivial elements share the conjugating part of their
      cyclic decompositions;
    - if ht(h1), ht(h2) < ht(f) and conjugation by f drops both heights
      below ht(f), then h1 and h2 commute.
    """
    rng = random.Random(spec.seed + 2)
    elems = [g for g in sample_elements(t, spec) if not T.is_identity(g)]
    bad: list[str] = []

    def note(rule, detail, *gs):
        parts = " ".join(f"g{i}={render(t, g)}" for i, g in enumerate(gs))
        bad.append(f"{rule} {parts} detail={detail}")

    for _ in range(spec.samples):
        f = rng.choice(elems)
        h = rng.choice(elems)
        fc = T.cyclic_decompose(t, f)[1]
        hc = T.cyclic_decompose(t, h)[1]
        if T.is_identity(fc) or T.is_identity(hc):
            continue
        bound = vadd(T.length(t, fc), T.length(t, hc))
        hit = False
        for m in range(1, 5):
            for n in range(1, 5):
                c2 = T.gromov2(t, T.pow_elem(t, fc, m), T.pow_elem(t, hc, n))
                if vcmp(c2, vadd(bound, bound)) >= 0:
                    hit = True
        if hit and not T.commutes(t, fc, hc):
            note("power-overlap", "large overlap without commuting", fc, hc)
        if T.commutes(t, f, h):
            cf = T.cyclic_decompose(t, f)[0]
            ch = T.cyclic_decompose(t, h)[0]
            if not T.equals(t, cf, ch):
                note("shared-conjugator",
                     "commuting pair with distinct conjugating parts", f, h)
    for _ in range(spec.samples // 2):
        f = rng.choice(elems)
        h1 = rng.choice(elems)
        h2 = rng.choice(elems)
        htf = T.height(t, f)
        if not (T.height(t, h1) < htf and T.height(t, h2) < htf):
            continue
        fi = T.invert(t, f)
        c1 = T.multiply(t, T.multiply(t, fi, h1), f)
        c2 = T.multiply(t, T.multiply(t, fi, h2), f)
        if T.height(t, c1) < htf and T.height(t, c2) < htf:
            if not T.commutes(t, h1, h2):
                note("height-drop", "conjugation drops height but pair "
                     "does not commute", f, h1, h2)
    return bad
