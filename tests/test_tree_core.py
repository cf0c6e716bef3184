"""The leaf-depth tree core against an address-based oracle.

The oracle below works on sorted leaf addresses, as trees did before they
were stored as depth sequences: a stack walk that merges a word ``w1`` into
its sibling ``w0`` on top, a common refinement read off the union of both
leaf sets, and the tree-pair reduction and ``trim`` as walks that may
refuse a merge.  It lives only here; the library keeps one representation.
"""

import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from pythrep import words
from pythrep.forests import Forest, Tree, common_refinement, random_tree
from pythrep.limitspace import LimitVector
from pythrep.pythagorean import random_pair, scalar_pair
from pythrep.thompson import ThompsonElement, generator, random_element

seeds_st = st.integers(0, 10**6)
REAL = scalar_pair(0.6, 0.8)


# -- the address oracle ----------------------------------------------------


def _merge(ws, xs, merge):
    out_w, out_x = [], []
    for w, x in zip(ws, xs):
        while out_w and w[-1:] == "1" and out_w[-1] == w[:-1] + "0":
            m = merge(out_x[-1], x)
            if m is None:
                break
            out_w.pop()
            out_x.pop()
            w, x = w[:-1], m
        out_w.append(w)
        out_x.append(x)
    return out_w, out_x


def oracle_refinement(t, s):
    merged = sorted(set(t) | set(s))
    w = [u for i, u in enumerate(merged) if i + 1 == len(merged) or not merged[i + 1].startswith(u)]
    below = lambda a: [u[len(a):] for u in w if u.startswith(a)]  # noqa: E731
    return w, [below(a) for a in t], [below(a) for a in s]


def oracle_reduce(r, d):
    def domain_parent(d0, d1):
        p = d0[:-1]
        return p if d0[-1:] == "0" and d1 == p + "1" else None

    return _merge(r, d, domain_parent)


def oracle_product(g, h):
    _, f, k = oracle_refinement(g.domain_tree.leaves, h.range_tree.leaves)
    r = [a + u for a, sub in zip(g.range_tree.leaves, f) for u in sub]
    d = [a + u for a, sub in zip(h.domain_tree.leaves, k) for u in sub]
    return oracle_reduce(r, d)


def oracle_trim(z, tol=1e-12):
    a, b = z.pair.a, z.pair.b

    def parent(eta0, eta1):
        xi = a.conj().T @ eta0 + b.conj().T @ eta1
        res = np.linalg.norm(eta0 - a @ xi) ** 2 + np.linalg.norm(eta1 - b @ xi) ** 2
        return xi if res <= tol * tol else None

    return _merge(z.tree.leaves, z.values, parent)


def _pair_leaves(g):
    return list(g.range_tree.leaves), list(g.domain_tree.leaves)


# -- differential tests ----------------------------------------------------


@settings(max_examples=60)
@given(seeds_st)
def test_refinement_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    t, s, u = (random_tree(rng, max_depth=5) for _ in range(3))
    w, f, h = common_refinement(t, s)
    ow, of, oh = oracle_refinement(t.leaves, s.leaves)
    assert list(w.leaves) == ow
    assert [list(x.leaves) for x in f.trees] == of
    assert [list(x.leaves) for x in h.trees] == oh
    # a triple: refine the refinement against a third tree
    w3, _, _ = common_refinement(w, u)
    assert list(w3.leaves) == oracle_refinement(ow, u.leaves)[0]


@settings(max_examples=60)
@given(seeds_st)
def test_products_and_inverses_match_oracle(seed):
    rng = np.random.default_rng(seed)
    g, h = random_element(rng, max_depth=5), random_element(rng, max_depth=5)
    assert _pair_leaves(g * h) == oracle_product(g, h)
    assert _pair_leaves(h.inverse() * g) == oracle_product(h.inverse(), g)
    inv = g.inverse()
    assert _pair_leaves(inv) == oracle_reduce(list(g.domain_tree.leaves), list(g.range_tree.leaves))


@settings(max_examples=60)
@given(seeds_st)
def test_unreduced_pairs_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    t, s = random_tree(rng, 5, n), random_tree(rng, 5, n)
    f = Forest(random_tree(rng, max_depth=2) for _ in range(n))
    for r, d in ((t, s), (t.composed(f), s.composed(f))):
        assert _pair_leaves(ThompsonElement(r, d)) == oracle_reduce(list(r.leaves), list(d.leaves))


@settings(max_examples=40)
@given(seeds_st)
def test_trim_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    pair = random_pair(2, seed=int(rng.integers(100))) if seed % 2 else REAL
    base = random_tree(rng, max_depth=3)
    vals = rng.normal(size=(base.n_leaves, pair.dim)) + 0j
    # growth makes collapsible carets next to the generic base values
    f = Forest(random_tree(rng, max_depth=2) for _ in range(base.n_leaves))
    z = LimitVector(pair, base, vals).grow(f)
    trimmed = z.trim()
    ow, ox = oracle_trim(z)
    assert list(trimmed.tree.leaves) == ow
    assert np.allclose(trimmed.values, np.array(ox), atol=1e-12)


@given(seeds_st, st.integers(1, 40))
def test_address_and_text_round_trips(seed, n):
    t = random_tree(np.random.default_rng(seed), max_depth=12, n_leaves=n)
    assert Tree(t.leaves) == t
    assert Tree.from_text(t.to_text()) == t
    assert Tree(t.leaves).depths == tuple(len(w) for w in t.leaves)


# -- refused merges must not expose false siblings -------------------------


def test_reduction_skips_equal_depth_neighbours_that_are_not_siblings():
    # range leaves 00 01 10 11, domain leaves 0 100 101 11: leaves 0, 1 are
    # siblings only in the range, leaves 1, 2 only in the domain, yet after
    # the first caret is refused leaves 1, 2 sit at equal depths in both
    r, d = Tree.complete(2), Tree(["0", "100", "101", "11"])
    g = ThompsonElement(r, d)
    assert (g.range_tree, g.domain_tree) == (r, d)


def test_trim_skips_equal_depth_neighbours_that_are_not_siblings():
    # values 1, a, b, 0 at 00 01 10 11: no caret is a growth, but the
    # non-siblings 01 and 10 carry (a xi, b xi) for xi = 1
    z = LimitVector(REAL, Tree.complete(2), [[1.0], [0.6], [0.8], [0.0]])
    assert z.trim().tree == Tree.complete(2)
    assert np.array_equal(z.trim().values, z.values)


def test_seeded_refusals_keep_sibling_structure():
    # random reduced elements and generic vectors grown by random forests:
    # every refused caret leaves equal-depth neighbours behind
    rng = np.random.default_rng(21)
    for _ in range(60):
        g = random_element(rng, max_depth=4)
        f = Forest(random_tree(rng, max_depth=3) for _ in range(g.n_leaves))
        assert ThompsonElement(g.range_tree.composed(f), g.domain_tree.composed(f)) == g
        base = random_tree(rng, max_depth=3)
        z = LimitVector(REAL, base, rng.normal(size=(base.n_leaves, 1)))
        grown = z.grow(Forest(random_tree(rng, max_depth=3) for _ in range(base.n_leaves)))
        assert grown.trim().tree == base


# -- counted regression guard ----------------------------------------------


def test_products_never_validate_words(monkeypatch):
    calls = []
    original = words.check_word

    def counted(w):
        calls.append(w)
        return original(w)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pythrep") and getattr(mod, "check_word", None) is original:
            monkeypatch.setattr(mod, "check_word", counted)
    x0 = generator(0)
    generator(200) * x0**50
    x0**300
    assert calls == []
    for n in (0, 1, 200):
        assert len(generator(n).range_tree.depths) == n + 3
