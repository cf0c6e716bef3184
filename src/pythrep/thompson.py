"""Thompson's group F as reduced pairs of binary trees.

An element is a pair (range tree, domain tree) with equally many leaves,
reduced by cancelling carets that appear at the same leaf positions of
both trees.  The element maps the dyadic interval of the i-th domain leaf
affinely onto the interval of the i-th range leaf; on binary sequences it
replaces the domain-leaf prefix by the range-leaf prefix.

Products compose as functions: ``g * h`` applies ``h`` first.  The
product of ``[t, s]`` and ``[t', s']`` refines ``s`` and ``t'`` to a
common tree and reads off the outer pair.

Products, powers, inverses, the reduction and the generators work on the
trees' leaf-depth sequences (see :mod:`pythrep.forests`) and never build
leaf addresses.  Addresses are built, and cached on the trees, only where
words are the API: ``act_point``, ``image_of_word``, ``support``,
``stabilizes`` and ``restrict``.  ``parse_element`` is the validating
boundary; it caps generator indices and exponents before building
anything.
"""

from __future__ import annotations

from operator import and_, eq

from .forests import Tree, _collapse, _graft, _parse_tree, _refine, common_refinement, random_tree
from .words import CantorPoint, InputSyntaxError, IntervalUnion, check_word

__all__ = [
    "ThompsonElement",
    "generator",
    "vine_element",
    "vine_on_cells",
    "random_element",
    "parse_element",
    "ElementSyntaxError",
    "MAX_GENERATOR_INDEX",
    "MAX_EXPONENT",
]

# Largest generator index and exponent magnitude that parse_element
# accepts: x_n has n + 3 leaves and g^k up to |k| times as many as g.
MAX_GENERATOR_INDEX = 100_000
MAX_EXPONENT = 100_000


def _reduce(r: tuple, d: tuple) -> tuple[tuple, tuple]:
    """Cancel the carets at the same leaf positions of both depth sequences."""
    # a common caret needs equal adjacent depths in both trees; most
    # products (all powers of vines) have none, and skip the walk
    if not any(map(and_, map(eq, r, r[1:]), map(eq, d, d[1:]))):
        return r, d
    (r, d), _ = _collapse((r, d), r, lambda x, y: x)  # every common caret cancels
    return r, d


class ThompsonElement:
    """A reduced tree pair [range_tree, domain_tree].

    The constructor reduces, so structural equality of the stored trees
    is equality in the group.
    """

    __slots__ = ("range_tree", "domain_tree")

    def __init__(self, range_tree: Tree, domain_tree: Tree):
        if range_tree.n_leaves != domain_tree.n_leaves:
            raise ValueError(
                f"leaf counts differ: {range_tree.n_leaves} vs {domain_tree.n_leaves}"
            )
        r, d = _reduce(range_tree.depths, domain_tree.depths)
        if r is not range_tree.depths:
            range_tree, domain_tree = Tree._of(r), Tree._of(d)
        object.__setattr__(self, "range_tree", range_tree)
        object.__setattr__(self, "domain_tree", domain_tree)

    @classmethod
    def _of(cls, range_tree: Tree, domain_tree: Tree) -> "ThompsonElement":
        # internal: the pair must already be reduced
        g = object.__new__(cls)
        object.__setattr__(g, "range_tree", range_tree)
        object.__setattr__(g, "domain_tree", domain_tree)
        return g

    @classmethod
    def identity(cls) -> "ThompsonElement":
        return cls(Tree.leaf(), Tree.leaf())

    # -- group structure ----------------------------------------------

    @property
    def n_leaves(self) -> int:
        return self.range_tree.n_leaves

    @property
    def is_identity(self) -> bool:
        return self.range_tree.is_leaf

    def multiply(self, other: "ThompsonElement") -> "ThompsonElement":
        """Function composition; ``other`` acts first."""
        _, f, h = _refine(self.domain_tree.depths, other.range_tree.depths)
        r, d = _reduce(_graft(self.range_tree.depths, f), _graft(other.domain_tree.depths, h))
        return ThompsonElement._of(Tree._of(r), Tree._of(d))

    __mul__ = multiply

    def inverse(self) -> "ThompsonElement":
        return ThompsonElement._of(self.domain_tree, self.range_tree)

    def __invert__(self) -> "ThompsonElement":
        return self.inverse()

    def __pow__(self, n: int) -> "ThompsonElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = ThompsonElement.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThompsonElement)
            and self.range_tree == other.range_tree
            and self.domain_tree == other.domain_tree
        )

    def __hash__(self) -> int:
        return hash(("ThompsonElement", self.range_tree, self.domain_tree))

    # -- action on the Cantor space -------------------------------------

    def act_point(self, p: CantorPoint) -> CantorPoint:
        for omega, nu in zip(self.domain_tree.leaves, self.range_tree.leaves):
            if p.starts_with(omega):
                return p.shift(len(omega)).prepend(nu)
        raise AssertionError("domain leaves failed to cover the point")

    def image_of_word(self, w: str) -> IntervalUnion:
        """The image of I_w, as a canonical interval union."""
        check_word(w)
        out: list[str] = []
        for omega, nu in zip(self.domain_tree.leaves, self.range_tree.leaves):
            if omega.startswith(w):
                out.append(nu)
            elif w.startswith(omega) and w != omega:
                out.append(nu + w[len(omega):])
        return IntervalUnion(out)

    def support(self) -> IntervalUnion:
        """Closure of the set of moved points: the union of domain-leaf
        intervals whose range leaf differs."""
        return IntervalUnion(
            omega
            for omega, nu in zip(self.domain_tree.leaves, self.range_tree.leaves)
            if omega != nu
        )

    def stabilizes(self, v: str) -> bool:
        return self.image_of_word(v) == IntervalUnion((v,))

    def restrict(self, v: str) -> "ThompsonElement":
        """The rescaled element induced on I_v; requires stabilizes(v)."""
        if not self.stabilizes(v):
            raise ValueError(f"element does not stabilize vertex {v!r}")
        _, f, _ = common_refinement(self.domain_tree, Tree.spine(v))
        s2 = self.domain_tree.composed(f)
        t2 = self.range_tree.composed(f)
        return ThompsonElement(t2.subtree(v), s2.subtree(v))

    def slope_exponent_at_zero(self) -> int:
        """log2 of the inverse element's slope at 0: depth of the leftmost
        range leaf minus depth of the leftmost domain leaf."""
        return self.range_tree.depths[0] - self.domain_tree.depths[0]

    # -- text form ------------------------------------------------------

    def to_text(self) -> str:
        return f"[{self.range_tree.to_text()},{self.domain_tree.to_text()}]"

    def __repr__(self) -> str:
        if self.n_leaves <= 8:
            return f"ThompsonElement({self.to_text()!r})"
        return f"ThompsonElement(<{self.n_leaves} leaves>)"

    def __setattr__(self, *a):
        raise AttributeError("ThompsonElement is immutable")


def generator(n: int) -> "ThompsonElement":
    """The standard generator x_n; x_0 shifts a caret across the root and
    x_{n+1} is x_n hung under a fresh root caret on the right.

    Orientation is fixed by the presentation, not by choice: with products
    applying the right factor first, x_k^-1 x_n x_k == x_{n+1} (k < n)
    forces x_0 to carry I_0 onto I_00 (slope 1/2 at the left end).  The
    mirrored pair is its inverse and satisfies the mirrored relation.
    """
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    # x_0 = [(**)*, *(**)] hung below n right edges, with one leaf off each
    steps = tuple(range(1, n + 1))
    return ThompsonElement._of(
        Tree._of(steps + (n + 2, n + 2, n + 1)), Tree._of(steps + (n + 1, n + 2, n + 2))
    )


def vine_element(i: int) -> "ThompsonElement":
    """The pair of left and right vines of length i; equals x_0**(-i)."""
    if i < 1:
        raise ValueError("vine index must be at least 1")
    return ThompsonElement(Tree.vine_left(i), Tree.vine_right(i))


def vine_on_cells(n: int, i: int, avoid: CantorPoint | None = None) -> "ThompsonElement":
    """Act as vine_element(i), rescaled, inside every depth-n dyadic cell;
    when ``avoid`` is given, the cell containing it is left fixed."""
    if n < 1 or i < 1:
        raise ValueError("need n >= 1 and i >= 1")
    base = Tree.complete(n)
    skip = avoid.bits(n) if avoid is not None else None
    left, right = Tree.vine_left(i), Tree.vine_right(i)
    rmap = {w: left for w in base.leaves if w != skip}
    dmap = {w: right for w in base.leaves if w != skip}
    return ThompsonElement(base.grafted(rmap), base.grafted(dmap))


def random_element(rng, max_depth: int = 6) -> "ThompsonElement":
    n = int(rng.integers(1, min(2**max_depth, 16) + 1))
    return ThompsonElement(
        random_tree(rng, max_depth, n), random_tree(rng, max_depth, n)
    )


class ElementSyntaxError(InputSyntaxError):
    """Parse failure; ``offset`` is the byte position in the input."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


def parse_element(text: str) -> "ThompsonElement":
    """Parse ``term+`` where ``term`` is ``x<INT>`` or ``[tree,tree]``,
    optionally followed by ``^<INT>``; juxtaposed terms multiply, left
    factor applied last.  A generator index above MAX_GENERATOR_INDEX or an
    exponent above MAX_EXPONENT in size is a syntax error, raised before
    the term is built.
    """
    pos, n = 0, len(text)
    result: ThompsonElement | None = None

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def parse_int(p: int, signed: bool, cap: int, what: str) -> tuple[int, int]:
        start = p
        if signed and p < n and text[p] in "+-":
            p += 1
        while p < n and text[p] in "0123456789":
            p += 1
        if p == start or text[start:p] in ("+", "-"):
            raise ElementSyntaxError(start, "expected an integer")
        digits = text[start:p].lstrip("+-").lstrip("0") or "0"
        if len(digits) > len(str(cap)) or int(digits) > cap:
            raise ElementSyntaxError(start, f"{what} exceeds {cap} in size")
        return (-1 if text[start] == "-" else 1) * int(digits), p

    def parse_tree_at(p: int) -> tuple[Tree, int]:
        try:
            return _parse_tree(text, p)
        except ValueError as exc:
            raise ElementSyntaxError(p, f"bad tree: {exc}") from None

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            break
        c = text[pos]
        term = None
        if c == "x":
            idx, pos = parse_int(pos + 1, False, MAX_GENERATOR_INDEX, "generator index")
        elif c == "[":
            t, pos = parse_tree_at(skip_ws(pos + 1))
            pos = skip_ws(pos)
            if pos >= n or text[pos] != ",":
                raise ElementSyntaxError(pos, "expected ',' between trees")
            s, pos = parse_tree_at(skip_ws(pos + 1))
            pos = skip_ws(pos)
            if pos >= n or text[pos] != "]":
                raise ElementSyntaxError(pos, "expected ']' after tree pair")
            pos += 1
            try:
                term = ThompsonElement(t, s)
            except ValueError as exc:
                raise ElementSyntaxError(pos, str(exc)) from None
        else:
            raise ElementSyntaxError(pos, f"expected 'x' or '[', found {c!r}")
        pos = skip_ws(pos)
        exp = 1
        if pos < n and text[pos] == "^":
            exp, pos = parse_int(pos + 1, True, MAX_EXPONENT, "exponent")
        if term is None:
            term = generator(idx)
        if exp != 1:
            term = term**exp
        result = term if result is None else result * term

    if result is None:
        raise ElementSyntaxError(0, "empty element expression")
    return result
