"""Tower extension: admissibility, rejections, rotation fallback."""

import pytest

from znfree import factory, tower as T
from znfree.hnn import check_admissible, extend_hnn
from znfree.tower import TowerRejection, gen_elem, multiply, invert


def free_ab():
    return factory.free_tower(["a", "b"])


def test_extend_basic():
    t0 = free_ab()
    t = extend_hnn(t0, "z", [gen_elem(t0, "a")], [gen_elem(t0, "b")])
    assert "z" in t.letters
    assert t.rank == 2
    assert T.verify_phi_conjugation(t) == []


def test_reject_conjugate_to_inverse():
    t0 = factory.free_tower(["a"])
    a = gen_elem(t0, "a")
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [a], [invert(t0, a)])
    assert ei.value.condition == "admissible-pair: conjugate-to-inverse"


def test_reject_length_mismatch():
    t0 = free_ab()
    ba = multiply(t0, gen_elem(t0, "b"), gen_elem(t0, "a"))
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [gen_elem(t0, "a")], [ba])
    assert ei.value.condition == "admissible-pair: length-mismatch"


def test_reject_proper_power():
    t0 = free_ab()
    b2 = multiply(t0, gen_elem(t0, "b"), gen_elem(t0, "b"))
    a2 = multiply(t0, gen_elem(t0, "a"), gen_elem(t0, "a"))
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [a2], [b2])
    assert ei.value.condition == "admissible-pair: proper-power"


def test_reject_not_cyclically_reduced():
    t0 = free_ab()
    a, b = gen_elem(t0, "a"), gen_elem(t0, "b")
    w = multiply(t0, multiply(t0, b, a), invert(t0, b))  # b a b^-1
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [w], [a])
    assert "not-cyclically-reduced" in ei.value.condition


def test_reject_orientation_clash(t1):
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t1, "w", [gen_elem(t1, "a")], [gen_elem(t1, "b")],
                   level=2)
    assert ei.value.condition == "orientation-clash"


def test_admissibility_report():
    t0 = free_ab()
    a, b = gen_elem(t0, "a"), gen_elem(t0, "b")
    rep = check_admissible(t0, a, b)
    assert rep.admissible and rep.failing_condition() is None
    rep = check_admissible(t0, a, invert(t0, a))
    assert not rep.admissible
    assert rep.failing_condition() == "admissible-pair: conjugate-to-inverse"


def test_stacked_extension():
    t0 = free_ab()
    t = extend_hnn(t0, "z", [gen_elem(t0, "a")], [gen_elem(t0, "b")])
    z = gen_elem(t, "z")
    t2 = extend_hnn(t, "w", [z], [z])
    assert t2.rank == 3
    assert T.length(t2, gen_elem(t2, "w")) == (0, 0, 1)
    assert T.verify_phi_conjugation(t2) == []


def test_rejection_order_admissible_before_centralizer():
    # rank-2 axes in a free group are never graded (both heights are 1), so
    # each pair below also fails centralizer-not-graded; the admissible-pair
    # condition on the top generators is reported first
    t0 = free_ab()
    a, b = gen_elem(t0, "a"), gen_elem(t0, "b")
    a2, b2 = multiply(t0, a, a), multiply(t0, b, b)
    ai = invert(t0, a)
    for src, tgt, cond in (
            ([b, a], [b, ai], "admissible-pair: conjugate-to-inverse"),
            ([a, a2], [b, b2], "admissible-pair: proper-power")):
        with pytest.raises(TowerRejection) as ei:
            extend_hnn(t0, "z", src, tgt)
        assert ei.value.condition == cond
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [b, a], [a, b])
    assert ei.value.condition == "centralizer-not-graded"


def test_rejection_order_rank_and_identity():
    t0 = free_ab()
    a, b = gen_elem(t0, "a"), gen_elem(t0, "b")
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [a], [a, invert(t0, a)])
    assert ei.value.condition == "axis-mismatch"
    for src, tgt in (([T.EPS], [a]), ([a], [T.EPS])):
        with pytest.raises(ValueError):
            extend_hnn(t0, "z", src, tgt)
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "z", [T.EPS, a], [T.EPS, b])
    assert ei.value.condition == "axis-trivial-generator"


def test_admissibility_checked_once_across_rotations(monkeypatch):
    # the raw nonorientable axes misalign, so extend_hnn retries rotations;
    # the pair's admissibility is still checked only once
    from znfree import hnn
    calls = []
    real = hnn.check_admissible
    monkeypatch.setattr(hnn, "check_admissible",
                        lambda *a: calls.append(a) or real(*a))
    t0 = factory.free_tower(["x2", "x3"])
    x2, x3 = gen_elem(t0, "x2"), gen_elem(t0, "x3")
    q = multiply(t0, invert(t0, x3), x2)
    with pytest.raises(TowerRejection) as ei:
        extend_hnn(t0, "x1", [q], [multiply(t0, x2, x3)], auto_rotate=False)
    assert ei.value.condition == "junction-misalignment"
    t = extend_hnn(t0, "x1", [q], [multiply(t0, x2, x3)])
    assert "x1" in t.letters
    assert len(calls) == 2
