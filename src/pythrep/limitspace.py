"""The limit Hilbert space of leaf-decorated trees.

A vector is a tree together with one C^d value per leaf, taken up to
growth: grafting a caret at a leaf replaces its value xi by (A xi, B xi),
which preserves inner products because (A, B) is a Pythagorean pair.  Two
decorated trees represent the same vector exactly when they agree after
growing to a common refinement, and every pair of vectors can be compared
that way.

``tau(v, z)`` reads off the component of z over the vertex v, rescaled to
a vector in its own right; ``tau_star(v, z)`` embeds a vector back under
v, padding the rest of the tree with zeros.  Their composite ``rho(v, z)``
is the orthogonal projection onto the part of the space sitting over v,
and summing rho over a standard dyadic partition gives back the identity.
"""

from __future__ import annotations

import numpy as np

from .forests import Forest, Tree, _collapse, common_refinement
from .pythagorean import PythagoreanPair, phi, word_operator
from .words import InputSyntaxError, IntervalUnion, check_word

__all__ = [
    "LimitVector",
    "tau",
    "tau_star",
    "rho",
    "rho_union",
    "parse_limit_vector",
]


class LimitVector:
    """A decorated tree: ``values[i]`` is the vector at the i-th leaf.

    Instances are immutable.  Arithmetic grows both operands to a common
    refinement; representatives are kept as produced, use :meth:`trim` to
    shrink one explicitly.
    """

    __slots__ = ("pair", "tree", "values")

    def __init__(self, pair: PythagoreanPair, tree: Tree, values):
        values = np.array(values, dtype=np.complex128)
        if values.shape != (tree.n_leaves, pair.dim):
            raise ValueError(
                f"expected values of shape {(tree.n_leaves, pair.dim)}, got {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "values", values)

    @classmethod
    def embed(cls, pair: PythagoreanPair, xi) -> "LimitVector":
        """The vector with a bare root decorated by xi."""
        xi = np.asarray(xi, dtype=np.complex128).reshape(1, pair.dim)
        return cls(pair, Tree.leaf(), xi)

    @classmethod
    def zero(cls, pair: PythagoreanPair) -> "LimitVector":
        return cls.embed(pair, np.zeros(pair.dim))

    # -- growth ---------------------------------------------------------

    def grow(self, forest: Forest) -> "LimitVector":
        """Graft one tree of the forest under each leaf, pushing values
        down with the word operators."""
        rows = phi(self.pair, forest, self.values)
        return LimitVector(self.pair, self.tree.composed(forest), rows)

    def refine_to(self, tree: Tree) -> "LimitVector":
        w, forest, _ = common_refinement(self.tree, tree)
        if w != tree:
            raise ValueError("tree does not refine the representative's tree")
        return self.grow(forest)

    def _aligned(self, other: "LimitVector") -> tuple[Tree, np.ndarray, np.ndarray]:
        if self.pair is not other.pair and self.pair.dim != other.pair.dim:
            raise ValueError("vectors live over different pairs")
        if self.tree == other.tree:
            return self.tree, self.values, other.values
        w, f, h = common_refinement(self.tree, other.tree)
        return w, self.grow(f).values, other.grow(h).values

    # -- Hilbert space structure ----------------------------------------

    def inner(self, other: "LimitVector") -> complex:
        """Inner product, linear in self and conjugate-linear in other."""
        _, v1, v2 = self._aligned(other)
        return complex(np.sum(v1 * np.conj(v2)))

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def distance(self, other: "LimitVector") -> float:
        return (self - other).norm()

    def isclose(self, other: "LimitVector", tol: float = 1e-9) -> bool:
        return self.distance(other) <= tol

    def __add__(self, other: "LimitVector") -> "LimitVector":
        w, v1, v2 = self._aligned(other)
        return LimitVector(self.pair, w, v1 + v2)

    def __sub__(self, other: "LimitVector") -> "LimitVector":
        w, v1, v2 = self._aligned(other)
        return LimitVector(self.pair, w, v1 - v2)

    def __neg__(self) -> "LimitVector":
        return LimitVector(self.pair, self.tree, -self.values)

    def __mul__(self, scalar) -> "LimitVector":
        return LimitVector(self.pair, self.tree, self.values * complex(scalar))

    __rmul__ = __mul__

    # -- representatives --------------------------------------------------

    def trim(self, tol: float = 1e-12) -> "LimitVector":
        """Collapse carets whose two leaf values are, within tol, the
        growth of a single parent value.

        For leaf values (eta0, eta1) the best parent is
        xi = A* eta0 + B* eta1; the caret collapses when the residual
        norm of (eta0 - A xi, eta1 - B xi) is at most tol.  Collapses
        cascade upward in one pass.
        """
        a, b = self.pair.a, self.pair.b
        a_h, b_h = a.conj().T, b.conj().T

        def parent(eta0, eta1):
            xi = a_h @ eta0 + b_h @ eta1
            residual = np.linalg.norm(eta0 - a @ xi) ** 2
            residual += np.linalg.norm(eta1 - b @ xi) ** 2
            return xi if residual <= tol * tol else None

        (depths,), vals = _collapse((self.tree.depths,), self.values, parent)
        return LimitVector(self.pair, Tree._of(depths), np.array(vals))

    def __repr__(self) -> str:
        return (
            f"LimitVector(dim={self.pair.dim}, leaves={self.tree.n_leaves}, "
            f"norm={self.norm():.6g})"
        )

    def __setattr__(self, *a):
        raise AttributeError("LimitVector is immutable")


def tau(v: str, z: LimitVector) -> LimitVector:
    """Component of z over the vertex v, as a vector in its own right.

    When v sits below a leaf of the representative, the component is the
    single value obtained by pushing that leaf's vector down to v.
    """
    lo, hi, k = z.tree._locate(check_word(v))
    if k == len(v):
        return LimitVector(z.pair, z.tree.subtree(v), z.values[lo:hi])
    op = word_operator(z.pair, v[k:])
    return LimitVector.embed(z.pair, op @ z.values[lo])


def tau_star(v: str, z: LimitVector) -> LimitVector:
    """Adjoint of tau: place z under the vertex v and zero elsewhere."""
    check_word(v)
    if not v:
        return z
    tree = Tree.spine(v).grafted({v: z.tree})
    values = np.zeros((tree.n_leaves, z.pair.dim), dtype=np.complex128)
    first = v.count("1")  # spine leaves left of v: one per right turn
    values[first : first + z.tree.n_leaves] = z.values
    return LimitVector(z.pair, tree, values)


def rho(v: str, z: LimitVector) -> LimitVector:
    """Projection onto the part of the space over v."""
    return tau_star(v, tau(v, z))


def rho_union(intervals: IntervalUnion, z: LimitVector) -> LimitVector:
    """Sum of the projections over the words of a canonical union."""
    out = LimitVector.zero(z.pair)
    for v in intervals.words:
        out = out + rho(v, z)
    return out


def parse_limit_vector(pair: PythagoreanPair, text: str) -> LimitVector:
    """Parse ``tree : v1 ; v2 ; ...`` with one complex vector per leaf;
    vector entries are comma-separated in ``re+imi`` form.  Text that does
    not parse, or has the wrong number of vectors or entries, raises
    InputSyntaxError; a non-finite entry raises ValueError."""
    if ":" not in text:
        raise InputSyntaxError("expected 'tree : values'")
    tree_part, _, value_part = text.partition(":")
    tree = Tree.from_text(tree_part.strip())
    groups = [g for g in value_part.split(";")]
    if len(groups) != tree.n_leaves:
        raise InputSyntaxError(f"expected {tree.n_leaves} vectors, got {len(groups)}")
    values = np.zeros((tree.n_leaves, pair.dim), dtype=np.complex128)
    for i, group in enumerate(groups):
        entries = [e.strip() for e in group.split(",")]
        if len(entries) != pair.dim:
            raise InputSyntaxError(
                f"leaf {i}: expected {pair.dim} entries, got {len(entries)}"
            )
        for j, entry in enumerate(entries):
            try:
                values[i, j] = complex(entry.replace("i", "j").replace(" ", ""))
            except ValueError:
                raise InputSyntaxError(f"bad complex entry {entry!r}") from None
    if not np.isfinite(values).all():
        raise ValueError("vector entries must be finite")
    return LimitVector(pair, tree, values)
