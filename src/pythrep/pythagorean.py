"""Pythagorean pairs: matrices (A, B) with A*A + B*B = 1.

Such a pair makes the map xi -> (A xi, B xi) an isometry from C^d into
C^d + C^d, which is the seed of everything downstream: adding a caret to
a tree multiplies the leaf value by A along the left edge and by B along
the right edge.  The operator attached to a vertex word w is the product
of edge operators read from the root, newest letter multiplying on the
left.

A pair is *diffuse* when every infinite product ... X_3 X_2 X_1 with
X_k in {A, B} tends to 0 in norm.  ``diffuse_certificate`` decides this
where it can: a short periodic word whose operator has spectral radius 1
refutes diffuseness, while a depth-first search that drives every branch
below a norm threshold certifies it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import matmul, mul

import numpy as np

from .forests import Forest, Tree

__all__ = [
    "PythagoreanPair",
    "scalar_pair",
    "random_pair",
    "word_operator",
    "leaf_decorations",
    "phi",
    "spectral_radius",
    "DiffuseVerdict",
    "diffuse_certificate",
    "pair_to_json",
    "pair_from_json",
]


class PythagoreanPair:
    """A pair of d x d complex matrices with A*A + B*B = 1 (within tol)."""

    __slots__ = ("a", "b", "dim", "tol")

    def __init__(self, a, b, tol: float = 1e-12):
        a = np.array(a, dtype=np.complex128)
        b = np.array(b, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
            raise ValueError(f"need two square matrices of equal size, got {a.shape} and {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("pair matrices must have finite entries")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dim", a.shape[0])
        object.__setattr__(self, "tol", float(tol))

    def validate(self) -> float:
        """Frobenius defect of A*A + B*B from the identity."""
        gram = self.a.conj().T @ self.a + self.b.conj().T @ self.b
        return float(np.linalg.norm(gram - np.eye(self.dim), "fro"))

    @property
    def is_valid(self) -> bool:
        return self.validate() <= self.tol

    def __repr__(self) -> str:
        if self.dim == 1:
            return f"PythagoreanPair(a={complex(self.a[0, 0]):.6g}, b={complex(self.b[0, 0]):.6g})"
        return f"PythagoreanPair(dim={self.dim})"

    def __setattr__(self, *a):
        raise AttributeError("PythagoreanPair is immutable")


def scalar_pair(a: complex, b: complex, tol: float = 1e-12) -> PythagoreanPair:
    """The 1-dimensional pair; (a, b) must sit on the unit 3-sphere."""
    defect = abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)
    if not defect <= tol:
        raise ValueError(f"|a|^2 + |b|^2 differs from 1 by {defect:.3g}")
    return PythagoreanPair([[a]], [[b]], tol)


def random_pair(dim: int, seed: int, tol: float = 1e-12) -> PythagoreanPair:
    """A Haar-ish random pair: orthonormalize 2d x d complex Gaussians and
    split the isometry into its top and bottom blocks."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * dim, dim)) + 1j * rng.normal(size=(2 * dim, dim))
    q, _ = np.linalg.qr(m)
    return PythagoreanPair(q[:dim], q[dim:], tol)


def word_operator(pair: PythagoreanPair, w: str) -> np.ndarray:
    """Operator at vertex w: each descent multiplies on the left, bit 0
    contributing A and bit 1 contributing B."""
    op = np.eye(pair.dim, dtype=np.complex128)
    for bit in w:
        if bit == "0":
            op = pair.a @ op
        elif bit == "1":
            op = pair.b @ op
        else:
            raise ValueError(f"not a binary word: {w!r}")
    return op


def leaf_decorations(pair: PythagoreanPair, tree: Tree, xi) -> np.ndarray:
    """All leaf values of the tree grown from root value xi, leaf order.

    Walks the leaves left to right keeping the partial products along the
    current root path, so the work is one matrix-vector product per edge:
    a leaf leaves the previous leaf's path at its branch depth (see
    :mod:`pythrep.forests`) along one B edge, and descends the rest of
    the way along A edges.
    """
    xi = np.asarray(xi, dtype=np.complex128).reshape(pair.dim)
    if pair.dim == 1:  # plain complex products; 1x1 matmuls are ~10x slower
        a, b, step, root = complex(pair.a[0, 0]), complex(pair.b[0, 0]), mul, complex(xi[0])
    else:
        a, b, step, root = pair.a, pair.b, matmul, xi
    depths = tree.depths
    path = [root] * (max(depths) + 1)  # path[k] = value at depth k on the current path
    out = []
    # the branch-depth walk of forests._branch_depths, inlined: this loop
    # is the hot spot of every coefficient
    waiting: list[int] = []
    for d in depths:
        br = 0
        if waiting:
            br = waiting[-1]
            path[br] = step(b, path[br - 1])
        for k in range(br + 1, d + 1):
            path[k] = step(a, path[k - 1])
        out.append(path[d])
        while waiting and waiting[-1] == d:
            waiting.pop()
            d -= 1
        waiting.append(d)
    return np.array(out, dtype=np.complex128).reshape(len(out), pair.dim)


def phi(pair: PythagoreanPair, forest: Forest, xs) -> np.ndarray:
    """The forest isometry applied to one vector per root; returns one
    vector per leaf, in leaf order."""
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.ndim == 1:
        xs = xs.reshape(1, -1)
    if xs.shape != (forest.n_roots, pair.dim):
        raise ValueError(
            f"expected {forest.n_roots} vectors of dimension {pair.dim}, got shape {xs.shape}"
        )
    return np.vstack(
        [leaf_decorations(pair, t, x) for t, x in zip(forest.trees, xs)]
    )


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=np.complex128)))))


def _pruned(op: np.ndarray, eps: float) -> bool:
    """Whether the 2-norm of the d x d operator is at most eps.

    The Frobenius norm bounds it on both sides, ||op|| <= fro <= sqrt(d) ||op||,
    so the singular value decomposition runs only in the band between them.
    """
    fro = float(np.linalg.norm(op, "fro"))
    if fro <= eps:
        return True
    if fro > eps * len(op) ** 0.5:
        return False
    return float(np.linalg.norm(op, 2)) <= eps


@dataclass(frozen=True)
class DiffuseVerdict:
    """Outcome of the diffuseness search.

    ``certified``: every word of length ``depth`` has operator 2-norm at
    most ``eps``, hence so do all longer words.  ``not_diffuse``: the
    periodic word ``witness`` has spectral radius 1, so products along it
    do not die out.  ``unknown``: the search budget ran out first.
    """

    status: str
    depth: int | None = None
    eps: float | None = None
    witness: str | None = None

    @property
    def is_certified(self) -> bool:
        return self.status == "certified"

    @property
    def is_not_diffuse(self) -> bool:
        return self.status == "not_diffuse"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def __str__(self) -> str:
        if self.is_certified:
            return f"CERTIFIED depth={self.depth} eps={self.eps:g}"
        if self.is_not_diffuse:
            return f"NOT-DIFFUSE witness={self.witness}"
        return f"UNKNOWN depth={self.depth}"


def diffuse_certificate(
    pair: PythagoreanPair,
    max_depth: int = 24,
    eps: float = 1e-3,
    witness_len: int = 8,
    max_nodes: int = 1_000_000,
) -> DiffuseVerdict:
    """Try to decide diffuseness of the pair.

    Phase 1 scans words in shortlex order up to ``witness_len`` for one
    whose operator has spectral radius at least 1 - tol.  Phase 2 runs a
    depth-first search from the identity, multiplying by A and B and
    pruning any branch whose product 2-norm falls to ``eps``; all
    extensions of a pruned word stay at or below eps, so if every branch
    prunes within ``max_depth`` the pair is certified.  Identical
    products are memoised, which collapses the search for scalar and
    diagonal pairs without changing the verdict.
    """
    tol = pair.tol

    for length in range(1, witness_len + 1):
        words = [""]
        for _ in range(length):
            words = [w + bit for w in words for bit in "01"]
        for w in sorted(words):
            if spectral_radius(word_operator(pair, w)) >= 1.0 - tol:
                return DiffuseVerdict(status="not_diffuse", witness=w)

    def key(op: np.ndarray) -> bytes:
        return np.round(op, 13).tobytes()

    # heights[k] = levels until every extension of the product is pruned
    heights: dict[bytes, int] = {}
    root = np.eye(pair.dim, dtype=np.complex128)
    stack: list[tuple[np.ndarray, bytes, int, list[int]]] = []

    def open_frame(op: np.ndarray, depth: int) -> bool:
        """Push op for exploration; False when the budget is exhausted."""
        k = key(op)
        if k in heights:
            return True
        if depth >= max_depth or len(heights) + len(stack) > max_nodes:
            return False
        if _pruned(op, eps):
            heights[k] = 0
            return True
        stack.append((op, k, depth, []))
        return True

    if not open_frame(root, 0):
        return DiffuseVerdict(status="unknown", depth=max_depth)
    while stack:
        op, k, depth, child_heights = stack[-1]
        n_done = len(child_heights)
        if n_done == 2:
            heights[k] = 1 + max(child_heights)
            stack.pop()
            if stack:
                stack[-1][3].append(heights[k])
            continue
        child = (pair.a if n_done == 0 else pair.b) @ op
        ck = key(child)
        if ck in heights:
            child_heights.append(heights[ck])
            continue
        if not open_frame(child, depth + 1):
            return DiffuseVerdict(status="unknown", depth=max_depth)

    return DiffuseVerdict(status="certified", depth=heights[key(root)], eps=eps)


# -- JSON pair format -----------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(data, dim: int) -> np.ndarray:
    if len(data) != dim or any(len(row) != dim for row in data):
        raise ValueError(f"matrix data is not {dim}x{dim}")
    m = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(data):
        for j, (re, im) in enumerate(row):
            m[i, j] = complex(re, im)
    return m


def pair_to_json(pair: PythagoreanPair) -> dict:
    return {
        "dim": pair.dim,
        "A": _matrix_to_json(pair.a),
        "B": _matrix_to_json(pair.b),
        "tol": pair.tol,
    }


def pair_from_json(data) -> PythagoreanPair:
    """Accepts the full matrix form and the scalar shorthand
    ``{"a": [re, im], "b": [re, im]}``."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("pair data must be a JSON object")
    try:
        tol = float(data.get("tol", 1e-12))
        if "a" in data or "b" in data:
            a = complex(*data["a"])
            b = complex(*data["b"])
            return scalar_pair(a, b, tol)
        dim = int(data["dim"])
        a = _matrix_from_json(data["A"], dim)
        b = _matrix_from_json(data["B"], dim)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed pair data: {exc}") from None
    return PythagoreanPair(a, b, tol)
