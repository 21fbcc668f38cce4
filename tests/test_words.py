"""Free-group word layer against a naive scan-and-cancel oracle."""

import pytest
from hypothesis import given, strategies as st

from znfree import words as W

letters = st.integers(1, 3).flatmap(
    lambda k: st.sampled_from([k, -k]))
raw_words = st.lists(letters, max_size=12)


def oracle_reduce(seq):
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reduced(seq):
    return oracle_reduce(seq)


@given(raw_words, raw_words)
def test_mul_matches_oracle(a, b):
    ra, rb = reduced(a), reduced(b)
    assert W.w_mul(ra, rb) == oracle_reduce(list(ra) + list(rb))


@given(raw_words)
def test_inverse_cancels(a):
    ra = reduced(a)
    assert W.w_mul(ra, W.w_inv(ra)) == ()


@given(raw_words, raw_words, raw_words)
def test_associative(a, b, c):
    ra, rb, rc = reduced(a), reduced(b), reduced(c)
    assert W.w_mul(W.w_mul(ra, rb), rc) == W.w_mul(ra, W.w_mul(rb, rc))


@given(raw_words, raw_words)
def test_com_is_common_prefix(a, b):
    ra, rb = reduced(a), reduced(b)
    c = W.w_com(ra, rb)
    assert ra[:len(c)] == c and rb[:len(c)] == c
    if len(c) < len(ra) and len(c) < len(rb):
        assert ra[len(c)] != rb[len(c)]


@given(raw_words)
def test_cyclic_decompose(a):
    ra = reduced(a)
    c, core = W.w_cyclic_decompose(ra)
    assert W.is_cyclically_reduced(core)
    assert W.w_mul(W.w_mul(W.w_inv(c), core), c) == ra


@given(raw_words)
def test_primitive_root(a):
    ra = reduced(a)
    if not W.is_cyclically_reduced(ra) or not ra:
        return
    root, k = W.w_primitive_root(ra)
    assert k >= 1
    # the root of a cyclically reduced word is cyclically reduced, so its
    # powers concatenate without cancelling
    assert root * k == ra


def test_w_gen_is_one_based():
    assert W.w_gen(2, -1) == (-2,)
    with pytest.raises(ValueError, match="1-based"):
        W.w_gen(0)


def test_primitive_root_edge_cases():
    assert W.w_primitive_root(W.EPS) == (W.EPS, 0)
    with pytest.raises(ValueError, match="cyclically reduced"):
        W.w_primitive_root((1, 2, -1))


def test_conjugate_rotations():
    assert W.w_is_conjugate((1, 2), (2, 1))
    assert not W.w_is_conjugate((1, 2), (1, -2))
