"""Exact vector arithmetic and the least-significant-first ordering."""

from hypothesis import given, strategies as st

from znfree import lamvec as L

vecs = st.lists(st.integers(-50, 50), min_size=0, max_size=6).map(tuple)


def oracle_cmp(a, b):
    n = max(len(a), len(b))
    pa, pb = L.vpad(a, n), L.vpad(b, n)
    ra, rb = tuple(reversed(pa)), tuple(reversed(pb))
    return (ra > rb) - (ra < rb)


@given(vecs, vecs)
def test_cmp_matches_most_significant_rule(a, b):
    assert L.vcmp(a, b) == oracle_cmp(a, b)


@given(vecs, vecs)
def test_order_translation_invariant(a, b):
    c = (3, -2, 7)
    assert L.vcmp(a, b) == L.vcmp(L.vadd(a, c), L.vadd(b, c))


@given(vecs)
def test_neg_reverses(a):
    assert L.vcmp(a, ()) == -L.vcmp(L.vneg(a), ())


@given(vecs, vecs)
def test_add_sub_roundtrip(a, b):
    assert L.veq(L.vsub(L.vadd(a, b), b), a)


@given(vecs)
def test_height_is_most_significant_support(a):
    h = L.vheight(a)
    if h == 0:
        assert all(c == 0 for c in a)
    else:
        assert a[h - 1] != 0
        assert all(c == 0 for c in a[h:])


def test_unit_and_at():
    u = L.vunit(3)
    assert u == (0, 0, 1)
    assert L.vat(u, 3) == 1
    assert L.vat(u, 5) == 0
    assert L.vpad(u, 5) == (0, 0, 1, 0, 0)


def test_examples():
    assert L.vcmp((5, 0), (0, 1)) < 0  # higher coordinate dominates
    assert L.vcmp((1, 2), (3, 2)) < 0  # ties broken lower down
    assert L.vhalf((2, 4)) == (1, 2)


def test_half_rejects_odd():
    try:
        L.vhalf((1, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")
