"""HNN extension layer: admissible pairs and the one tower constructor.

A stable letter z with z^{-1} A z = B can be adjoined when the top axis
generators (u, v) of (A, B) form an admissible pair: both cyclically reduced,
neither a proper power, equal length, and u not conjugate to v^{-1}.
`extend_hnn` is the only way to add a letter: it checks the pair once, then
the per-generator axis conditions, maximality, the level and the whole
tower.  Maximality (`axis-not-centralizer`): each axis must hold the whole
centralizer of its top generator, as the paper's towers attach maximal
abelian subgroups; groups with a free length function are
commutative-transitive (Alperin-Bass, 1987), and margin phase 3 in
`tower.py` rests on both.  The connecting element realizing z has a
u-periodic head and v-periodic tail, so adjacency between blocks only
behaves well when no letter's tail period cancels into another's head
period; `extend_hnn` repairs such misalignments automatically by passing to
conjugate axis representatives (rotations).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tower as T
from .tower import (
    Elem,
    GroupTower,
    StableLetter,
    TowerRejection,
    abelian_membership,
    centralizer,
    commutes,
    height,
    invert,
    is_conjugate,
    is_cyclically_reduced,
    length,
    multiply,
    primitive_root,
    subgroup_gens,
    validate_tower,
    veq,
)


@dataclass(frozen=True)
class AdmissibilityReport:
    cyclically_reduced: tuple[bool, bool]
    proper_power_free: tuple[bool, bool]
    equal_length: bool
    not_conjugate_to_inverse: bool

    @property
    def admissible(self) -> bool:
        return self.failing_condition() is None

    def failing_condition(self) -> str | None:
        if not all(self.cyclically_reduced):
            return "admissible-pair: not-cyclically-reduced"
        if not all(self.proper_power_free):
            return "admissible-pair: proper-power"
        if not self.equal_length:
            return "admissible-pair: length-mismatch"
        if not self.not_conjugate_to_inverse:
            return "admissible-pair: conjugate-to-inverse"
        return None


def check_admissible(t: GroupTower, u: Elem, v: Elem) -> AdmissibilityReport:
    if T.is_identity(u) or T.is_identity(v):
        raise ValueError("axis generators must be nontrivial")
    cr = (is_cyclically_reduced(t, u), is_cyclically_reduced(t, v))
    pp = tuple(not crx or primitive_root(t, w)[1] == 1
               for w, crx in zip((u, v), cr))
    eqlen = veq(length(t, u), length(t, v))
    nci = not is_conjugate(t, u, invert(t, v))
    return AdmissibilityReport(cr, tuple(pp), eqlen, nci)


def _attach(t: GroupTower, name: str, source_gens: tuple,
            target_gens: tuple, level) -> GroupTower:
    """Attach a stable letter conjugating <source_gens> onto <target_gens>
    whose top pair has passed check_admissible: the remaining generators'
    axis conditions, maximality, the level, then validate_tower on the
    result."""
    for gens in (source_gens, target_gens):
        hts = [height(t, x) for x in gens]
        if any(h == 0 for h in hts):
            raise TowerRejection("axis-trivial-generator")
        if sorted(set(hts)) != hts:
            raise TowerRejection("centralizer-not-graded",
                                 f"heights {hts} must strictly increase")
        for x in gens[:-1]:
            # the top generator's reducedness belongs to check_admissible;
            # commuting with the top one is enough, by commutative
            # transitivity
            if not is_cyclically_reduced(t, x):
                raise TowerRejection("centralizer-not-cyclically-reduced")
            if not commutes(t, x, gens[-1]):
                raise TowerRejection("centralizer-not-abelian")
    for a, b in zip(source_gens[:-1], target_gens[:-1]):
        if not veq(length(t, a), length(t, b)):
            raise TowerRejection(
                "phi-length-mismatch",
                f"|phi(a)|={length(t, b)} differs from |a|={length(t, a)}")
    for gens in (source_gens, target_gens):
        cent = subgroup_gens(t, centralizer(t, gens[-1]))
        if not all(abelian_membership(t, gens, x) for x in cent):
            raise TowerRejection(
                "axis-not-centralizer",
                "the axis must be the whole centralizer of its top generator")
    u, v = source_gens[-1], target_gens[-1]
    top = t.rank
    if level is None:
        level = top + 1
    if level <= max(height(t, u), height(t, v)):
        raise TowerRejection("level-too-low")
    if level != top + 1 and not any(sl.level == level
                                    for sl in t.letters.values()):
        raise TowerRejection("level-gap", f"level {level} would leave a gap")
    sl = StableLetter(name, level, source_gens, target_gens)
    t2 = GroupTower(t.symbols, list(t.letters.values()) + [sl], t.aliases)
    validate_tower(t2)
    return t2


def _rotation_conjugators(t: GroupTower, w: Elem) -> list[Elem]:
    """Prefix conjugators giving the cyclic rotations of a base-level word."""
    if w.level != 1:
        return [T.EPS]
    word = w.word
    return [T.word_elem(word[:i]) for i in range(len(word))]


def extend_hnn(t: GroupTower, name: str, source_gens, target_gens,
               level: int | None = None,
               auto_rotate: bool = True) -> GroupTower:
    """Adjoin a stable letter z with z^{-1} source z = target.

    This is the only constructor of stable letters.  It checks the axis
    rank, then admissibility of the top pair (once), then the remaining
    structural tower conditions.  When the raw axes produce a junction
    misalignment (a tail period cancelling into a head period) and
    auto_rotate is set, conjugate representatives of the axes are tried;
    rotations keep the pair admissible, so it is not checked again.  Callers
    wanting the original letter back can alias it as the rotated letter
    times the rotation conjugator.
    """
    source_gens = tuple(source_gens)
    target_gens = tuple(target_gens)
    if not source_gens or len(source_gens) != len(target_gens):
        raise TowerRejection("axis-mismatch",
                             "source and target need equal positive rank")
    u, v = source_gens[-1], target_gens[-1]
    fail = check_admissible(t, u, v).failing_condition()
    if fail is not None:
        raise TowerRejection(fail)
    try:
        return _attach(t, name, source_gens, target_gens, level)
    except TowerRejection as exc:
        if not auto_rotate or exc.condition not in (
                "junction-misalignment", "orientation-clash"):
            raise
        first = exc
    for cs in _rotation_conjugators(t, u):
        for ct in _rotation_conjugators(t, v):
            if T.is_identity(cs) and T.is_identity(ct):
                continue
            csi, cti = invert(t, cs), invert(t, ct)
            sg = tuple(multiply(t, multiply(t, csi, x), cs)
                       for x in source_gens)
            tg = tuple(multiply(t, multiply(t, cti, x), ct)
                       for x in target_gens)
            try:
                return _attach(t, name, sg, tg, level)
            except TowerRejection:
                continue
    raise first
