"""Group elements as reduced tree pairs: arithmetic, action, parsing."""

import numpy as np
import pytest

from pythrep import thompson
from pythrep.forests import Forest, Tree, random_tree
from pythrep.thompson import (
    MAX_EXPONENT,
    MAX_GENERATOR_INDEX,
    ElementSyntaxError,
    ThompsonElement,
    generator,
    parse_element,
    random_element,
    vine_element,
    vine_on_cells,
)
from pythrep.words import CantorPoint, IntervalUnion

E = ThompsonElement.identity()
X0 = generator(0)
X1 = generator(1)


def _elements(seed, count, max_depth=5):
    rng = np.random.default_rng(seed)
    return [random_element(rng, max_depth=max_depth) for _ in range(count)]


# ------------------------------------------------------------- reduction


def test_construction_reduces_common_carets():
    # split the first corresponding leaf pair of x_0 on both sides
    t = X0.range_tree.grafted({X0.range_tree.leaves[0]: Tree.caret()})
    s = X0.domain_tree.grafted({X0.domain_tree.leaves[0]: Tree.caret()})
    assert ThompsonElement(t, s) == X0
    assert ThompsonElement(t, s).n_leaves == 3


def test_construction_cancels_cascaded_carets():
    # grafting the same tree under corresponding leaves of both trees adds
    # carets that cancel only level by level, from the new leaves upward
    rng = np.random.default_rng(14)
    for g in _elements(13, 20):
        f = Forest(random_tree(rng, max_depth=3) for _ in range(g.n_leaves))
        t, s = g.range_tree.composed(f), g.domain_tree.composed(f)
        assert ThompsonElement(t, s) == g


def test_already_reduced_pairs_stay_put():
    assert X0.range_tree == Tree.vine_right(1)
    assert X0.domain_tree == Tree.vine_left(1)
    assert ThompsonElement(Tree.caret(), Tree.caret()) == E


def test_leaf_count_mismatch_raises():
    with pytest.raises(ValueError):
        ThompsonElement(Tree.caret(), Tree.complete(2))


# ------------------------------------------------------------- group law


def test_identity_and_inverse():
    for g in _elements(3, 25):
        assert g * E == g == E * g
        assert g * g.inverse() == E == g.inverse() * g
        assert g.inverse().inverse() == g


def test_associativity():
    gs = _elements(4, 30, max_depth=4)
    for g, h, k in zip(gs, gs[1:], gs[2:]):
        assert (g * h) * k == g * (h * k)


def test_vine_powers_frozen():
    assert vine_element(1) * vine_element(1) == vine_element(2)
    assert vine_element(2) ** 3 == vine_element(6)
    assert X0 ** -3 == vine_element(3)


def test_power_matches_repeated_multiply():
    for g in _elements(5, 10, max_depth=4):
        acc = E
        for n in range(5):
            assert g ** n == acc
            assert g ** -n == acc.inverse()
            acc = acc * g


def test_presentation_relation():
    # conjugating a deeper generator by an earlier one shifts its index up
    for n in range(1, 5):
        for k in range(n):
            lhs = generator(k).inverse() * generator(n) * generator(k)
            assert lhs == generator(n + 1), (k, n)


def test_generator_shapes():
    assert generator(2).n_leaves == 5
    assert X0 == ThompsonElement(Tree.vine_right(1), Tree.vine_left(1))
    with pytest.raises(ValueError):
        generator(-1)


# ---------------------------------------------------------- point action


def test_x0_moves_points_left():
    assert X0.act_point(CantorPoint.parse("(0)")) == CantorPoint.parse("(0)")
    assert X0.act_point(CantorPoint.parse("1(0)")) == CantorPoint.parse("01(0)")
    assert X0.act_point(CantorPoint.parse("11(0)")) == CantorPoint.parse("1(0)")
    assert X0.act_point(CantorPoint.parse("0(10)")) == CantorPoint.parse("00(10)")


def test_act_point_is_an_action():
    rng = np.random.default_rng(6)
    for _ in range(40):
        g = random_element(rng, max_depth=5)
        h = random_element(rng, max_depth=5)
        p = CantorPoint("".join(rng.choice(("0", "1"), 4)), "01")
        assert (g * h).act_point(p) == g.act_point(h.act_point(p))
        assert g.inverse().act_point(g.act_point(p)) == p


def test_image_of_word():
    assert X0.image_of_word("0") == IntervalUnion.of("00")
    assert X0.image_of_word("00") == IntervalUnion.of("000")  # below a leaf
    assert X0.image_of_word("11") == IntervalUnion.of("1")
    assert X1.image_of_word("0") == IntervalUnion.of("0")
    # a word above several domain leaves maps to a genuine union
    assert X0.image_of_word("1") == IntervalUnion.of("01", "1")
    assert X0.image_of_word("") == IntervalUnion.full()


# ------------------------------------------- support, stabilizers, slopes


def test_support_frozen():
    assert X0.support() == IntervalUnion.full()
    assert X1.support() == IntervalUnion.of("1")
    assert E.support().is_empty
    assert (X1 ** 4).support() == IntervalUnion.of("1")


def test_support_of_inverse_is_the_image():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = random_element(rng, max_depth=4)
        sup, inv_sup = g.support(), g.inverse().support()
        assert sup.measure() == inv_sup.measure()
        for _ in range(10):
            p = CantorPoint("".join(rng.choice(("0", "1"), 5)), "01")
            if g.act_point(p) != p:
                assert inv_sup.contains_point(g.act_point(p))


def test_stabilizes_and_restrict():
    assert X1.stabilizes("0") and X1.stabilizes("1")
    assert not X0.stabilizes("0")
    assert X1.restrict("1") == X0
    assert X1.restrict("0") == E
    assert (X1 * X1).restrict("1") == X0 * X0
    with pytest.raises(ValueError):
        X0.restrict("0")


def test_restrict_covariance_on_points():
    rng = np.random.default_rng(9)
    tail = CantorPoint.parse("01(10)")
    for _ in range(40):
        g = random_element(rng, max_depth=4)
        for v in ("0", "1", "00", "11"):
            if g.stabilizes(v):
                lhs = g.restrict(v).act_point(tail).prepend(v)
                assert lhs == g.act_point(tail.prepend(v))


def test_slope_exponent_at_zero():
    assert E.slope_exponent_at_zero() == 0
    assert X0.slope_exponent_at_zero() == 1
    for n in range(1, 7):
        assert (X0 ** n).slope_exponent_at_zero() == n
        assert (X0 ** -n).slope_exponent_at_zero() == -n
    assert X1.slope_exponent_at_zero() == 0


# ------------------------------------------------------------- fixtures


def test_vine_on_cells_shapes():
    g = vine_on_cells(1, 1)
    assert g.stabilizes("0") and g.stabilizes("1")
    assert g.restrict("0") == X0 ** -1 and g.restrict("1") == X0 ** -1

    away = vine_on_cells(2, 3, avoid=CantorPoint.parse("(0)"))
    assert away.restrict("00") == E
    assert away.restrict("01") == vine_element(3)
    assert away.restrict("11") == vine_element(3)


def test_vine_on_cells_powers():
    u = CantorPoint.parse("(10)")
    assert vine_on_cells(2, 2, u) ** 3 == vine_on_cells(2, 6, u)


# --------------------------------------------------------------- parsing


def test_parse_basic_forms():
    assert parse_element("x0") == X0
    assert parse_element("x0 x0^-1") == E
    assert parse_element("x2^-3") == generator(2) ** -3
    assert parse_element("x0 x1") == X0 * X1
    assert parse_element("[((**)*),(*(**))]") == X0
    assert parse_element("[(*(**)),((**)*)]") == X0.inverse()


def test_parse_mixed_terms():
    assert parse_element("x1 [((**)*),(*(**))]^2 x0^-2") == X1
    # left factor applied last: juxtaposition folds into multiply
    assert parse_element("x0 x1 x0") == X0 * X1 * X0


def test_parse_errors_carry_offsets():
    for text, bad_offset in (("x", 1), ("x0^", 3), ("y0", 0), ("[(**),x]", 6)):
        with pytest.raises(ElementSyntaxError) as err:
            parse_element(text)
        assert err.value.offset == bad_offset
    with pytest.raises(ElementSyntaxError):
        parse_element("[(**),(*(**))]")  # leaf counts differ
    with pytest.raises(ElementSyntaxError):
        parse_element("")


def test_parse_caps_reject_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(thompson, "generator", built)
    monkeypatch.setattr(ThompsonElement, "__pow__", built)
    for text, offset in (("x0^1000000000", 3), ("x100000000", 1), ("x0^-100001", 3)):
        with pytest.raises(ElementSyntaxError) as err:
            parse_element(text)
        assert err.value.offset == offset


def test_parse_caps_admit_their_bounds():
    assert parse_element(f"x{MAX_GENERATOR_INDEX}").n_leaves == MAX_GENERATOR_INDEX + 3
    assert parse_element(f"[*,*]^-{MAX_EXPONENT}") == E
    assert parse_element("x0^000384") == X0 ** 384


def test_text_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_element(rng, max_depth=5)
        assert parse_element(g.to_text()) == g
