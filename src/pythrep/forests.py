"""Full rooted binary trees and ordered forests.

A tree is stored as its leaf-depth sequence: the depths of its leaves,
left to right.  The sequence determines the tree and is linear in the
number of leaves, while the leaf addresses of a long vine add up to a
quadratic number of characters.  Every algorithm here is one iterative
pass over depths, so very deep trees (long vines) are safe.  Walking the
depths with a stack of finished subtrees that still wait for a right
sibling recovers the structure: a leaf hangs below the right child at the
depth on top of that stack (its *branch depth*), and a new subtree joins
the top one when their depths are equal.  A forest is a nonempty ordered
tuple of trees.

Validation happens once, at the public boundary: ``Tree(addresses)``
checks a complete prefix code and ``Tree.from_text`` the grammar.  Trees
built from other trees are trusted.  Leaf addresses (binary words, see
:mod:`pythrep.words`) are built only where words are the API:
``Tree.leaves`` builds and caches them, for ``grafted``, the action on
words and points in :mod:`pythrep.thompson`, and callers that inspect
addresses.

Composition stacks a forest under the leaves of another: ``compose(top,
bottom)`` grafts the j-th tree of ``bottom`` onto the j-th leaf of
``top``.  Any two trees admit a smallest common refinement, which is what
makes tree pairs a groupoid of fractions.
"""

from __future__ import annotations

from .words import InputSyntaxError, _leaf_words, check_word

__all__ = [
    "Tree",
    "Forest",
    "as_forest",
    "compose",
    "tensor",
    "common_refinement",
    "random_tree",
]

_LEAF = (0,)


class Tree:
    """A full binary tree, stored as its tuple of leaf depths."""

    __slots__ = ("depths", "_leaves")

    def __init__(self, leaves):
        ws = sorted(check_word(w) for w in leaves)
        if _leaf_words([len(w) for w in ws]) != ws:
            raise ValueError(f"leaf set is not a complete prefix code: {tuple(ws)}")
        object.__setattr__(self, "depths", tuple([len(w) for w in ws]))
        object.__setattr__(self, "_leaves", tuple(ws))

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, depths: tuple) -> "Tree":
        # internal: depths must be the leaf depths of a full binary tree
        t = object.__new__(cls)
        object.__setattr__(t, "depths", depths)
        object.__setattr__(t, "_leaves", None)
        return t

    @classmethod
    def leaf(cls) -> "Tree":
        return cls._of(_LEAF)

    @classmethod
    def caret(cls) -> "Tree":
        return cls._of((1, 1))

    @classmethod
    def node(cls, left: "Tree", right: "Tree") -> "Tree":
        return cls._of(tuple([d + 1 for d in left.depths + right.depths]))

    @classmethod
    def complete(cls, n: int) -> "Tree":
        """The balanced tree whose leaves are all words of length n."""
        if n < 0:
            raise ValueError("depth must be nonnegative")
        return cls._of((n,) * 2**n)

    @classmethod
    def vine_left(cls, i: int) -> "Tree":
        """Right-leaning vine: i+1 carets hanging off right edges.

        Leaves are 0, 10, 110, ..., 1^i 0, 1^(i+1); the j-th leaf depth
        increases with j.
        """
        if i < 0:
            raise ValueError("vine length must be nonnegative")
        return cls._of(tuple(range(1, i + 2)) + (i + 1,))

    @classmethod
    def vine_right(cls, i: int) -> "Tree":
        """Mirror image of vine_left: leaves 0^(i+1), 0^i 1, ..., 01, 1."""
        if i < 0:
            raise ValueError("vine length must be nonnegative")
        return cls._of((i + 1,) + tuple(range(i + 1, 0, -1)))

    @classmethod
    def spine(cls, v: str) -> "Tree":
        """The smallest tree having v among its leaves: the siblings of v's
        prefixes, left of v where v turns right and right of it where v
        turns left."""
        check_word(v)
        left = tuple([k + 1 for k, bit in enumerate(v) if bit == "1"])
        right = tuple([k + 1 for k in reversed(range(len(v))) if v[k] == "0"])
        return cls._of(left + (len(v),) + right)

    # -- structure ----------------------------------------------------

    @property
    def leaves(self) -> tuple[str, ...]:
        """Leaf addresses, left to right; built on first use and cached."""
        if self._leaves is None:
            object.__setattr__(self, "_leaves", tuple(_leaf_words(self.depths)))
        return self._leaves

    @property
    def n_leaves(self) -> int:
        return len(self.depths)

    @property
    def depth(self) -> int:
        return max(self.depths)

    @property
    def is_leaf(self) -> bool:
        return self.depths == _LEAF

    def _locate(self, v: str) -> tuple[int, int, int]:
        """Descend along v: returns (lo, hi, k) where v[:k] is the deepest
        prefix of v that is a vertex and [lo, hi) the indices of the leaves
        below it.  k == len(v) when v is a vertex, else v[:k] is a leaf."""
        ds = self.depths
        lo, hi = 0, len(ds)
        for k, bit in enumerate(v):
            if hi - lo == 1:
                return lo, hi, k
            mid = _subtree_end(ds, lo, k + 1)
            lo, hi = (lo, mid) if bit == "0" else (mid, hi)
        return lo, hi, len(v)

    def has_vertex(self, v: str) -> bool:
        return self._locate(check_word(v))[2] == len(v)

    def subtree(self, v: str) -> "Tree":
        lo, hi, k = self._locate(check_word(v))
        if k < len(v):
            raise ValueError(f"{v!r} is not a vertex of this tree")
        return Tree._of(tuple([d - k for d in self.depths[lo:hi]]))

    def grafted(self, assignments) -> "Tree":
        """Replace chosen leaves by subtrees: {leaf_address: Tree}."""
        index = {w: i for i, w in enumerate(self.leaves)}
        subs = [_LEAF] * self.n_leaves
        for key, sub in assignments.items():
            if key not in index:
                raise ValueError(f"{key!r} is not a leaf of this tree")
            subs[index[key]] = sub.depths
        return Tree._of(_graft(self.depths, subs))

    def composed(self, bottom: "Forest") -> "Tree":
        """Graft the j-th tree of ``bottom`` onto the j-th leaf."""
        if bottom.n_roots != self.n_leaves:
            raise ValueError(
                f"forest has {bottom.n_roots} roots but tree has {self.n_leaves} leaves"
            )
        return Tree._of(_graft(self.depths, [t.depths for t in bottom.trees]))

    # -- text form ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Tree":
        tree, pos = _parse_tree(text, 0)
        if text[pos:].strip():
            raise InputSyntaxError(f"trailing input after tree at offset {pos}")
        return tree

    def to_text(self) -> str:
        # a leaf opens one caret per level below its branch depth and
        # closes one per level down to the next leaf's branch depth
        ds = self.depths
        bs = _branch_depths(ds)
        return "".join(
            "(" * (d - b) + "*" + ")" * (d - b_next)
            for d, b, b_next in zip(ds, bs, bs[1:] + [0])
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.depths == other.depths

    def __hash__(self) -> int:
        return hash(("Tree", self.depths))

    def __repr__(self) -> str:
        if self.n_leaves <= 8:
            return f"Tree({self.to_text()!r})"
        return f"Tree(<{self.n_leaves} leaves, depth {self.depth}>)"

    def __setattr__(self, *a):
        raise AttributeError("Tree is immutable")


# -- one-pass algorithms on leaf-depth sequences ---------------------------


def _branch_depths(depths) -> list[int]:
    """For each leaf, the depth of the highest vertex whose leftmost leaf it
    is: 0 for the first leaf, and for any other the depth of the right child
    at which its path leaves the previous leaf's path."""
    out: list[int] = []
    waiting: list[int] = []  # depths of finished subtrees awaiting a right sibling
    for d in depths:
        out.append(waiting[-1] if waiting else 0)
        while waiting and waiting[-1] == d:
            waiting.pop()
            d -= 1
        waiting.append(d)
    return out


def _subtree_end(depths, lo: int, top: int) -> int:
    """End index of the subtree rooted at depth ``top`` whose leftmost leaf
    is leaf ``lo``."""
    waiting: list[int] = []
    i = lo
    while True:
        d = depths[i]
        i += 1
        while waiting and waiting[-1] == d:
            waiting.pop()
            d -= 1
        if d == top:
            return i
        waiting.append(d)


def _graft(depths, subs) -> tuple:
    """Depths after hanging the tree with depths subs[i] under leaf i."""
    # tuple(list), not tuple(generator), here and throughout: a tuple built
    # from a generator is resized in place, and once freed it parks on the
    # free list of its final size, so the interpreter's tuple free lists
    # fill up and the process's memory creeps up by several MiB
    return tuple([d + e for d, sub in zip(depths, subs) for e in sub])


def _refine(td, sd) -> tuple[tuple, list, list]:
    """Common refinement of two depth sequences: (w, f, h) with
    ``w == _graft(td, f) == _graft(sd, h)``.

    Both sequences are read left to right in step; leaves at the same
    position and depth are shared, and a shallower leaf is refined by the
    block of the other tree's leaves below it.
    """
    w: list[int] = []
    f: list[tuple] = []
    h: list[tuple] = []
    i = j = 0
    while i < len(td):
        a, b = td[i], sd[j]
        if a == b:
            w.append(a)
            f.append(_LEAF)
            h.append(_LEAF)
            i, j = i + 1, j + 1
        elif a < b:
            end = _subtree_end(sd, j, a)
            block = sd[j:end]
            w.extend(block)
            f.append(tuple([d - a for d in block]))
            h.extend([_LEAF] * len(block))
            i, j = i + 1, end
        else:
            end = _subtree_end(td, i, b)
            block = td[i:end]
            w.extend(block)
            h.append(tuple([d - b for d in block]))
            f.extend([_LEAF] * len(block))
            i, j = end, j + 1
    return tuple(w), f, h


def _collapse(trees, values, merge) -> tuple[list[tuple], list]:
    """Collapse carets bottom-up, carrying one value per leaf.

    ``trees`` are depth sequences of equal length read in step, one stack
    entry per surviving leaf holding its (depth, branch depth) in each
    tree.  A leaf whose branch depth equals its depth is a right child, so
    it forms a caret with the entry before it exactly when that entry has
    the same depth: the local test is exact even after a refused collapse
    leaves equal-depth neighbours that are not siblings.  A caret common to
    every tree collapses to its left child's branch depth and the value
    ``merge(x0, x1)``, unless that is None, and the new leaf is tested
    against the new top in turn.  Returns the depth sequences and values
    of the surviving leaves.
    """
    leaves = zip(*(zip(ds, _branch_depths(ds)) for ds in trees))
    stack: list = []  # (value, ((depth, branch depth) per tree))
    for x, nodes in zip(values, leaves):
        while stack and all(
            b == d == d0 for (d, b), (d0, _) in zip(nodes, stack[-1][1])
        ):
            m = merge(stack[-1][0], x)
            if m is None:
                break
            x = m
            nodes = tuple([(d - 1, b) for d, b in stack.pop()[1]])
        stack.append((x, nodes))
    out = [tuple([e[1][k][0] for e in stack]) for k in range(len(trees))]
    return out, [e[0] for e in stack]


def _parse_tree(text: str, pos: int) -> tuple[Tree, int]:
    """Parse ``tree ::= "*" | "(" tree tree ")"`` starting at pos."""
    n = len(text)
    depths: list[int] = []
    children: list[int] = []  # subtrees read so far under each open "("
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            raise InputSyntaxError(f"unexpected end of tree at offset {pos}")
        c = text[pos]
        if c == "*":
            depths.append(len(children))
        elif c == "(":
            children.append(0)
        elif c == ")":
            if not children or children[-1] != 2:
                raise InputSyntaxError(f"malformed tree at offset {pos}")
            children.pop()
        else:
            raise InputSyntaxError(f"unexpected character {c!r} in tree at offset {pos}")
        pos += 1
        if c != "(":
            if not children:
                return Tree._of(tuple(depths)), pos
            children[-1] += 1


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
    w, f, h = _refine(t.depths, s.depths)
    return (
        Tree._of(w),
        Forest([Tree._of(x) for x in f]),
        Forest([Tree._of(x) for x in h]),
    )


def random_tree(rng, max_depth: int = 6, n_leaves: int | None = None) -> Tree:
    """A uniform-ish random tree with the given leaf count and depth cap."""
    if n_leaves is None:
        n_leaves = int(rng.integers(1, min(2**max_depth, 12) + 1))
    if n_leaves > 2**max_depth:
        raise ValueError(f"{n_leaves} leaves cannot fit in depth {max_depth}")

    def build(depth: int, n: int, cap: int, out: list[int]):
        if n == 1:
            out.append(depth)
            return
        lo = max(1, n - 2 ** (cap - 1))
        hi = min(n - 1, 2 ** (cap - 1))
        k = int(rng.integers(lo, hi + 1))
        build(depth + 1, k, cap - 1, out)
        build(depth + 1, n - k, cap - 1, out)

    out: list[int] = []
    build(0, n_leaves, max_depth, out)
    return Tree._of(tuple(out))
