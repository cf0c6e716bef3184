"""Binary words, dyadic intervals, interval unions, and Cantor points."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pythrep.words import (
    CantorPoint,
    IntervalUnion,
    check_word,
    concat,
    disjoint,
    format_word,
    is_prefix,
    is_sdp,
    kraft_sum,
    parse_word,
    sibling,
    word_to_interval,
)

words_st = st.text(alphabet="01", max_size=8)
nonempty_st = st.text(alphabet="01", min_size=1, max_size=8)


# ---------------------------------------------------------------- raw words


def test_check_word_rejects_junk():
    for bad in ("02", "ab", "0 1", "0x"):
        with pytest.raises(ValueError):
            check_word(bad)
    assert check_word("") == ""
    assert check_word("0110") == "0110"


def test_format_and_parse_empty_word():
    assert format_word("") == "^"
    assert parse_word("^") == ""
    assert parse_word("010") == "010"


@given(words_st)
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_word_to_interval_frozen():
    assert word_to_interval("") == (Fraction(0), Fraction(1))
    assert word_to_interval("0") == (Fraction(0), Fraction(1, 2))
    assert word_to_interval("101") == (Fraction(5, 8), Fraction(3, 4))


@given(words_st, words_st)
def test_prefix_disjoint_dichotomy(w, v):
    # two dyadic intervals either nest or are disjoint, never partially overlap
    assert disjoint(w, v) == (not is_prefix(w, v) and not is_prefix(v, w))
    lo_w, hi_w = word_to_interval(w)
    lo_v, hi_v = word_to_interval(v)
    overlap = max(lo_w, lo_v) < min(hi_w, hi_v)
    assert overlap == (not disjoint(w, v))


@given(words_st, words_st)
def test_concat_nests_intervals(w, v):
    lo, hi = word_to_interval(concat(w, v))
    lo_w, hi_w = word_to_interval(w)
    assert lo_w <= lo and hi <= hi_w


def test_sibling_frozen():
    assert sibling("01") == "00"
    assert sibling("1") == "0"
    with pytest.raises(ValueError):
        sibling("")


@given(nonempty_st)
def test_sibling_involution(w):
    assert sibling(sibling(w)) == w
    assert disjoint(w, sibling(w))


def test_kraft_and_sdp():
    assert kraft_sum(("0", "10", "11")) == 1
    assert is_sdp(("0", "10", "11"))
    assert is_sdp(("",))
    # dropping a word leaves a gap, duplicating one overlaps
    assert not is_sdp(("0", "10"))
    assert not is_sdp(("0", "10", "10", "11"))
    assert not is_sdp(("0", "01", "1"))


# ---------------------------------------------------------- interval unions


def test_union_canonical_merge():
    assert IntervalUnion.of("00", "01", "1").is_full
    assert IntervalUnion.of("0", "01") == IntervalUnion.of("0")
    assert IntervalUnion.of("10", "11", "01", "00").is_full
    assert IntervalUnion.empty().is_empty


def test_union_complement_frozen():
    assert IntervalUnion.of("0").complement() == IntervalUnion.of("1")
    assert IntervalUnion.empty().complement().is_full
    assert IntervalUnion.of("01", "10").complement() == IntervalUnion.of("00", "11")


def test_union_measure_and_membership():
    u = IntervalUnion.of("01", "11")
    assert u.measure() == Fraction(1, 2)
    assert u.covers_word("011")
    assert not u.covers_word("0")
    assert u.contains_point(CantorPoint.parse("01(0)"))
    assert not u.contains_point(CantorPoint.parse("(0)"))


unions_st = st.lists(nonempty_st, max_size=5).map(lambda ws: IntervalUnion.of(*ws))


@given(unions_st)
def test_union_complement_laws(u):
    assert u.complement().complement() == u
    assert u.union(u.complement()).is_full
    assert u.measure() + u.complement().measure() == 1


@given(unions_st, unions_st)
def test_union_is_join(u, v):
    j = u.union(v)
    for w in u.words + v.words:
        assert j.covers_word(w)
    assert j.measure() <= u.measure() + v.measure()


def test_union_insert_matches_union():
    u = IntervalUnion.of("00")
    assert u.insert("01") == IntervalUnion.of("0")


# ------------------------------------------------------------ Cantor points


def test_point_canonical_forms():
    assert CantorPoint.parse("11(1)") == CantorPoint.parse("(1)")
    assert CantorPoint.parse("(0101)") == CantorPoint.parse("(01)")
    assert CantorPoint.parse("0(10)") == CantorPoint.parse("(01)")
    assert str(CantorPoint.parse("010(0)")) == "01(0)"


def test_point_to_fraction_frozen():
    assert CantorPoint.parse("(0)").to_fraction() == 0
    assert CantorPoint.parse("1(0)").to_fraction() == Fraction(1, 2)
    assert CantorPoint.parse("(01)").to_fraction() == Fraction(1, 3)
    assert CantorPoint.parse("(10)").to_fraction() == Fraction(2, 3)
    assert CantorPoint.parse("11(0)").to_fraction() == Fraction(3, 4)


def test_point_bits_and_shift():
    p = CantorPoint.parse("01(10)")
    assert p.bits(6) == "011010"
    assert p.starts_with("011")
    assert p.shift(2) == CantorPoint.parse("(10)")
    assert p.shift(3) == CantorPoint.parse("(01)")
    assert p.shift(1).prepend("0") == p


points_st = st.tuples(words_st, nonempty_st).map(
    lambda t: CantorPoint(t[0], t[1])
)


@given(points_st)
def test_point_str_parse_roundtrip(p):
    assert CantorPoint.parse(str(p)) == p


@given(points_st, st.integers(0, 6))
def test_point_shift_prepend_roundtrip(p, k):
    head = p.bits(k)
    assert p.shift(k).prepend(head) == p


@given(points_st)
def test_point_in_its_own_prefix_interval(p):
    w = p.bits(4)
    assert p.starts_with(w)
    assert not p.starts_with(sibling(w))
