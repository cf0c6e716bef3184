"""Operator pairs, word operators, the branching isometry, diffuseness."""

import numpy as np
import pytest

from pythrep.forests import Forest, Tree, random_tree, tensor
from pythrep.pythagorean import (
    PythagoreanPair,
    diffuse_certificate,
    _pruned,
    leaf_decorations,
    pair_from_json,
    pair_to_json,
    phi,
    random_pair,
    scalar_pair,
    spectral_radius,
    word_operator,
)

RT_HALF = 2 ** -0.5


def _rand_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


# ---------------------------------------------------------------- validity


def test_scalar_pair_on_the_sphere():
    p = scalar_pair(0.6, 0.8)
    assert p.dim == 1 and p.is_valid and p.validate() <= 1e-15
    q = scalar_pair(0.6j, -0.8)
    assert q.is_valid


def test_off_sphere_scalars_rejected():
    with pytest.raises(ValueError):
        scalar_pair(1.0, 1.0)
    with pytest.raises(ValueError):
        scalar_pair(0.6, 0.80001)


def test_matrix_pair_validation():
    a = np.array([[1.0, 0.0], [0.0, RT_HALF]])
    b = np.array([[0.0, 0.0], [0.0, RT_HALF]])
    assert PythagoreanPair(a, b).is_valid
    # construction is structural; the sphere condition is a reported defect
    crooked = PythagoreanPair(a, 2 * b)
    assert not crooked.is_valid and crooked.validate() > 0.5
    with pytest.raises(ValueError):
        PythagoreanPair(a, np.zeros((3, 3)))


def test_random_pairs_are_valid_and_seeded():
    for d in (1, 2, 3):
        p = random_pair(d, seed=0)
        assert p.dim == d and p.validate() <= 1e-12
        assert np.allclose(p.a, random_pair(d, seed=0).a)
    assert not np.allclose(random_pair(2, seed=0).a, random_pair(2, seed=1).a)


# ----------------------------------------------------------- word operators


def test_word_operator_letter_order():
    p = random_pair(2, seed=3)
    assert np.allclose(word_operator(p, ""), np.eye(2))
    assert np.allclose(word_operator(p, "0"), p.a)
    assert np.allclose(word_operator(p, "1"), p.b)
    # deeper letters multiply on the left: the leaf value of "01" is B(A xi)
    assert np.allclose(word_operator(p, "01"), p.b @ p.a)
    assert np.allclose(word_operator(p, "10"), p.a @ p.b)


def test_word_operator_multiplicativity():
    rng = np.random.default_rng(4)
    p = random_pair(3, seed=4)
    for _ in range(40):
        w, v = ("".join(rng.choice(("0", "1"), rng.integers(0, 6))) for _ in "wv")
        assert np.allclose(
            word_operator(p, w + v), word_operator(p, v) @ word_operator(p, w)
        )


def test_norm_splits_across_children():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        p = random_pair(d, seed=d)
        xi = _rand_vec(rng, d)
        total = np.linalg.norm(p.a @ xi) ** 2 + np.linalg.norm(p.b @ xi) ** 2
        assert abs(total - np.linalg.norm(xi) ** 2) <= 1e-10


def test_norm_splits_across_all_words_of_fixed_length():
    p = random_pair(2, seed=6)
    xi = np.array([0.3 - 0.1j, 0.7 + 0.2j])
    for n in (1, 3, 6):
        total = 0.0
        for k in range(2 ** n):
            w = format(k, f"0{n}b")
            total += np.linalg.norm(word_operator(p, w) @ xi) ** 2
        assert abs(total - np.linalg.norm(xi) ** 2) <= 1e-10


# ------------------------------------------------------------ leaf vectors


def test_leaf_decorations_frozen():
    p = random_pair(2, seed=7)
    xi = np.array([1.0, 1j])
    dec = leaf_decorations(p, Tree.vine_left(1), xi.reshape(1, -1))
    assert dec.shape == (3, 2)
    assert np.allclose(dec[0], p.a @ xi)
    assert np.allclose(dec[1], p.a @ (p.b @ xi))
    assert np.allclose(dec[2], p.b @ (p.b @ xi))


def test_phi_is_an_isometry():
    rng = np.random.default_rng(8)
    for trial in range(30):
        d = int(rng.integers(1, 4))
        p = random_pair(d, seed=trial)
        f = tensor(*(random_tree(rng, max_depth=4) for _ in range(rng.integers(1, 4))))
        xs = rng.standard_normal((f.n_roots, d)) + 1j * rng.standard_normal((f.n_roots, d))
        out = phi(p, f, xs)
        assert out.shape == (f.n_leaves, d)
        assert abs(np.linalg.norm(out) - np.linalg.norm(xs)) <= 1e-10


def test_phi_on_trivial_forest_is_identity():
    p = random_pair(2, seed=9)
    xs = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(phi(p, Forest.trivial(2), xs), xs)


# ------------------------------------------------------------ matrix norms


def test_pruning_uses_the_exact_2_norm():
    # the Frobenius norm 1.204e-3 lies between eps and eps * sqrt(2), so the
    # 2-norm 1.2e-3 decides; an estimate that starts from the eigenvector v
    # of 1e-4 would underestimate it
    u = np.array([2.0, -1.0]) / np.sqrt(5)
    v = np.array([1.0, 2.0]) / np.sqrt(5)
    m = 1.2e-3 * np.outer(u, u) + 1e-4 * np.outer(v, v)
    assert not _pruned(m.astype(complex), 1e-3)
    assert _pruned(m.astype(complex), 1.202e-3)  # also inside the band


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert abs(spectral_radius(m) - max(abs(np.linalg.eigvals(m)))) <= 1e-10


# -------------------------------------------------------------- diffuseness


def test_certificate_for_the_balanced_scalar_pair():
    v = diffuse_certificate(scalar_pair(RT_HALF, RT_HALF), max_depth=24, eps=1e-3)
    assert v.is_certified and v.depth == 20 and v.eps == 1e-3


def test_unit_circle_scalars_are_not_diffuse():
    v = diffuse_certificate(scalar_pair(1.0, 0.0))
    assert v.is_not_diffuse and v.witness == "0"
    w = diffuse_certificate(scalar_pair(0.0, np.exp(0.3j)))
    assert w.is_not_diffuse and w.witness == "1"


def test_diagonal_pair_with_unimodular_eigenvalue():
    a = np.diag([1.0, RT_HALF]).astype(complex)
    b = np.diag([0.0, RT_HALF]).astype(complex)
    v = diffuse_certificate(PythagoreanPair(a, b))
    assert v.is_not_diffuse and v.witness == "0"


def test_certified_verdict_is_sound():
    pair = scalar_pair(0.8, 0.6)
    v = diffuse_certificate(pair, max_depth=60, eps=1e-3)
    assert v.is_certified
    rng = np.random.default_rng(12)
    for _ in range(100):
        w = "".join(rng.choice(("0", "1"), v.depth + 5))
        assert np.linalg.norm(word_operator(pair, w), 2) <= v.eps


def test_budget_exhaustion_reports_unknown():
    v = diffuse_certificate(random_pair(2, seed=5), max_depth=6)
    assert v.is_unknown and v.depth == 6


# ------------------------------------------------------------ JSON formats


def test_json_roundtrip_matrix():
    p = random_pair(3, seed=13)
    q = pair_from_json(pair_to_json(p))
    assert q.dim == 3
    assert np.allclose(p.a, q.a) and np.allclose(p.b, q.b)


def test_json_scalar_shorthand():
    p = pair_from_json({"a": [0.6, 0.0], "b": [0.0, 0.8]})
    assert p.dim == 1
    assert p.a[0, 0] == 0.6 and p.b[0, 0] == 0.8j


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        pair_from_json({"a": [0.6, 0.0]})
    with pytest.raises(ValueError):
        pair_from_json({"dim": 2, "A": [[[1, 0]]], "B": [[[0, 0]]]})
