"""Full rooted binary trees and ordered forests.

A tree is identified with its ordered set of leaf addresses, a complete
prefix code over {0, 1}; the list determines the tree and keeps every
algorithm iterative, so very deep trees (long vines) are safe.  A forest
is a nonempty ordered tuple of trees.

Composition stacks a forest under the leaves of another: ``compose(top,
bottom)`` grafts the j-th tree of ``bottom`` onto the j-th leaf of
``top``.  Any two trees admit a smallest common refinement, which is what
makes tree pairs a groupoid of fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product

from .words import _is_complete, _merge_siblings, check_word, sibling

__all__ = [
    "Tree",
    "Forest",
    "as_forest",
    "compose",
    "tensor",
    "common_refinement",
    "random_tree",
]


class Tree:
    """A full binary tree, stored as its sorted tuple of leaf addresses."""

    __slots__ = ("leaves",)

    def __init__(self, leaves):
        ws = tuple(sorted(check_word(w) for w in leaves))
        if not _is_complete(ws):
            raise ValueError(f"leaf set is not a complete prefix code: {ws}")
        object.__setattr__(self, "leaves", ws)

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, ws: tuple) -> "Tree":
        # internal: ws must already be a sorted complete prefix code
        t = object.__new__(cls)
        object.__setattr__(t, "leaves", ws)
        return t

    @classmethod
    def leaf(cls) -> "Tree":
        return cls(("",))

    @classmethod
    def caret(cls) -> "Tree":
        return cls(("0", "1"))

    @classmethod
    def node(cls, left: "Tree", right: "Tree") -> "Tree":
        return cls(tuple("0" + w for w in left.leaves) + tuple("1" + w for w in right.leaves))

    @classmethod
    def complete(cls, n: int) -> "Tree":
        """The balanced tree whose leaves are all words of length n."""
        if n < 0:
            raise ValueError("depth must be nonnegative")
        return cls("".join(bits) for bits in product("01", repeat=n))

    @classmethod
    def vine_left(cls, i: int) -> "Tree":
        """Right-leaning vine: i+1 carets hanging off right edges.

        Leaves are 0, 10, 110, ..., 1^i 0, 1^(i+1); the j-th leaf depth
        increases with j.
        """
        if i < 0:
            raise ValueError("vine length must be nonnegative")
        return cls(["1" * k + "0" for k in range(i + 1)] + ["1" * (i + 1)])

    @classmethod
    def vine_right(cls, i: int) -> "Tree":
        """Mirror image of vine_left: leaves 0^(i+1), 0^i 1, ..., 01, 1."""
        if i < 0:
            raise ValueError("vine length must be nonnegative")
        return cls(["0" * (i + 1)] + ["0" * k + "1" for k in range(i + 1)])

    @classmethod
    def spine(cls, v: str) -> "Tree":
        """The smallest tree having v among its leaves."""
        check_word(v)
        if not v:
            return cls.leaf()
        return cls([sibling(v[: k + 1]) for k in range(len(v))] + [v])

    # -- structure ----------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def depth(self) -> int:
        return max(len(w) for w in self.leaves)

    @property
    def is_leaf(self) -> bool:
        return self.leaves == ("",)

    def _prefix_block(self, v: str) -> tuple[int, int]:
        # leaves are sorted, so the leaves below v are exactly those in
        # [v, v + "2"): any continuation character is < "2"
        lo = bisect_left(self.leaves, v)
        hi = bisect_left(self.leaves, v + "2", lo=lo)
        return lo, hi

    def has_vertex(self, v: str) -> bool:
        check_word(v)
        lo, hi = self._prefix_block(v)
        return lo < hi

    def subtree(self, v: str) -> "Tree":
        check_word(v)
        lo, hi = self._prefix_block(v)
        if lo == hi:
            raise ValueError(f"{v!r} is not a vertex of this tree")
        # a prefix block of a complete code, stripped, is complete and sorted
        k = len(v)
        return Tree._trusted(tuple(w[k:] for w in self.leaves[lo:hi]))

    def grafted(self, assignments) -> "Tree":
        """Replace chosen leaves by subtrees: {leaf_address: Tree}."""
        for key in assignments:
            if key not in self.leaves:
                raise ValueError(f"{key!r} is not a leaf of this tree")
        out: list[str] = []
        for w in self.leaves:
            sub = assignments.get(w)
            if sub is None:
                out.append(w)
            else:
                out.extend(w + u for u in sub.leaves)
        return Tree(out)

    def composed(self, bottom: "Forest") -> "Tree":
        """Graft the j-th tree of ``bottom`` onto the j-th leaf."""
        if bottom.n_roots != self.n_leaves:
            raise ValueError(
                f"forest has {bottom.n_roots} roots but tree has {self.n_leaves} leaves"
            )
        out: list[str] = []
        for w, sub in zip(self.leaves, bottom.trees):
            out.extend(w + u for u in sub.leaves)
        return Tree(out)

    # -- text form ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Tree":
        tree, pos = _parse_tree(text, 0)
        if text[pos:].strip():
            raise ValueError(f"trailing input after tree at offset {pos}")
        return tree

    def to_text(self) -> str:
        _, texts = _merge_siblings(self.leaves, ["*"] * self.n_leaves, lambda a, b: f"({a}{b})")
        return texts[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.leaves == other.leaves

    def __hash__(self) -> int:
        return hash(("Tree", self.leaves))

    def __repr__(self) -> str:
        if self.n_leaves <= 8:
            return f"Tree({self.to_text()!r})"
        return f"Tree(<{self.n_leaves} leaves, depth {self.depth}>)"

    def __setattr__(self, *a):
        raise AttributeError("Tree is immutable")


def _parse_tree(text: str, pos: int) -> tuple[Tree, int]:
    """Parse ``tree ::= "*" | "(" tree tree ")"`` starting at pos."""
    n = len(text)
    stack: list = []  # sentinels "(" and finished Trees
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            raise ValueError(f"unexpected end of tree at offset {pos}")
        c = text[pos]
        if c == "*":
            stack.append(Tree.leaf())
            pos += 1
        elif c == "(":
            stack.append("(")
            pos += 1
            continue
        elif c == ")":
            if len(stack) < 3 or stack[-3] != "(" or stack[-1] == "(" or stack[-2] == "(":
                raise ValueError(f"malformed tree at offset {pos}")
            right = stack.pop()
            left = stack.pop()
            stack.pop()
            stack.append(Tree.node(left, right))
            pos += 1
        else:
            raise ValueError(f"unexpected character {c!r} in tree at offset {pos}")
        if len(stack) == 1 and isinstance(stack[0], Tree):
            return stack[0], pos


class Forest:
    """A nonempty ordered tuple of trees."""

    __slots__ = ("trees",)

    def __init__(self, trees):
        ts = tuple(trees)
        if not ts:
            raise ValueError("a forest has at least one tree")
        for t in ts:
            if not isinstance(t, Tree):
                raise TypeError(f"not a Tree: {t!r}")
        object.__setattr__(self, "trees", ts)

    @classmethod
    def trivial(cls, n: int) -> "Forest":
        """n leaves side by side; the identity for composition."""
        return cls(Tree.leaf() for _ in range(n))

    @classmethod
    def elementary(cls, k: int, n: int) -> "Forest":
        """n roots, a single caret at root k (1-based)."""
        if not 1 <= k <= n:
            raise ValueError(f"caret position {k} out of range 1..{n}")
        return cls(
            [Tree.leaf()] * (k - 1) + [Tree.caret()] + [Tree.leaf()] * (n - k)
        )

    @property
    def n_roots(self) -> int:
        return len(self.trees)

    @property
    def n_leaves(self) -> int:
        return sum(t.n_leaves for t in self.trees)

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.trees == other.trees

    def __hash__(self) -> int:
        return hash(("Forest", self.trees))

    def __repr__(self) -> str:
        return f"Forest([{', '.join(t.to_text() for t in self.trees)}])"

    def __setattr__(self, *a):
        raise AttributeError("Forest is immutable")


def as_forest(x) -> Forest:
    if isinstance(x, Forest):
        return x
    if isinstance(x, Tree):
        return Forest((x,))
    raise TypeError(f"expected Tree or Forest, got {type(x).__name__}")


def compose(top, bottom) -> Forest:
    """Stack ``bottom`` under ``top``: j-th root of bottom onto j-th leaf of top."""
    top, bottom = as_forest(top), as_forest(bottom)
    if bottom.n_roots != top.n_leaves:
        raise ValueError(
            f"cannot compose: bottom has {bottom.n_roots} roots, top has {top.n_leaves} leaves"
        )
    out: list[Tree] = []
    j = 0
    for t in top.trees:
        chunk = bottom.trees[j : j + t.n_leaves]
        j += t.n_leaves
        out.append(t.composed(Forest(chunk)))
    return Forest(out)


def tensor(*parts) -> Forest:
    """Horizontal concatenation."""
    if not parts:
        raise ValueError("tensor needs at least one forest")
    trees: list[Tree] = []
    for p in parts:
        trees.extend(as_forest(p).trees)
    return Forest(trees)


def common_refinement(t: Tree, s: Tree) -> tuple[Tree, Forest, Forest]:
    """Smallest tree refining both: returns (w, f, h) with
    ``w == t.composed(f) == s.composed(h)``."""
    merged = sorted(set(t.leaves) | set(s.leaves))
    keep = tuple(
        w
        for i, w in enumerate(merged)
        if i + 1 == len(merged) or not merged[i + 1].startswith(w)
    )
    w = Tree._trusted(keep)
    f = Forest(w.subtree(a) for a in t.leaves)
    h = Forest(w.subtree(a) for a in s.leaves)
    return w, f, h


def random_tree(rng, max_depth: int = 6, n_leaves: int | None = None) -> Tree:
    """A uniform-ish random tree with the given leaf count and depth cap."""
    if n_leaves is None:
        n_leaves = int(rng.integers(1, min(2**max_depth, 12) + 1))
    if n_leaves > 2**max_depth:
        raise ValueError(f"{n_leaves} leaves cannot fit in depth {max_depth}")

    def build(prefix: str, n: int, cap: int, out: list[str]):
        if n == 1:
            out.append(prefix)
            return
        lo = max(1, n - 2 ** (cap - 1))
        hi = min(n - 1, 2 ** (cap - 1))
        k = int(rng.integers(lo, hi + 1))
        build(prefix + "0", k, cap - 1, out)
        build(prefix + "1", n - k, cap - 1, out)

    out: list[str] = []
    build("", n_leaves, max_depth, out)
    return Tree(out)
