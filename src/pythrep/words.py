"""Binary words, standard dyadic intervals, and points of the Cantor space.

Vertices of the infinite rooted binary tree are finite words over the
alphabet {0, 1}; descending a left edge appends ``0``, a right edge ``1``.
The word ``w`` names the standard dyadic interval ``I_w`` of width
``2**-len(w)`` whose binary expansions start with ``w``.  A finite set of
pairwise disjoint words with Kraft sum 1 is a standard dyadic partition.

Words are plain Python strings over ``"01"``.  The empty word is the root
and is rendered as ``"^"`` in text.  All interval arithmetic here is exact
(integer fractions); no floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "check_word",
    "concat",
    "is_prefix",
    "disjoint",
    "sibling",
    "word_to_interval",
    "kraft_sum",
    "is_sdp",
    "format_word",
    "parse_word",
    "InputSyntaxError",
    "IntervalUnion",
    "CantorPoint",
]


def check_word(w: str) -> str:
    if not isinstance(w, str) or w.strip("01"):
        raise ValueError(f"not a binary word: {w!r}")
    return w


def concat(w: str, v: str) -> str:
    return check_word(w) + check_word(v)


def is_prefix(w: str, v: str) -> bool:
    """True when I_v is contained in I_w, i.e. w is an initial segment of v."""
    return v.startswith(w)


def disjoint(w: str, v: str) -> bool:
    """True when I_w and I_v are disjoint: neither word extends the other."""
    return not (v.startswith(w) or w.startswith(v))


def sibling(w: str) -> str:
    if not w:
        raise ValueError("the root has no sibling")
    return w[:-1] + ("1" if w[-1] == "0" else "0")


def word_to_interval(w: str) -> tuple[Fraction, Fraction]:
    """Endpoints of I_w as exact fractions: [k/2^n, (k+1)/2^n)."""
    check_word(w)
    lo = Fraction(int(w, 2), 2 ** len(w)) if w else Fraction(0)
    return lo, lo + Fraction(1, 2 ** len(w))


def kraft_sum(words) -> Fraction:
    return sum((Fraction(1, 2 ** len(w)) for w in words), Fraction(0))


def is_sdp(words) -> bool:
    """Whether the words form a standard dyadic partition of the whole space."""
    ws = sorted(check_word(w) for w in words)
    return _leaf_words([len(w) for w in ws]) == ws


def _leaf_words(depths) -> list[str] | None:
    """The leaf addresses, left to right, of the full binary tree with these
    leaf depths, or None when no such tree exists.

    Each leaf starts where the previous one ends: drop the previous
    address's trailing 1s, turn its last 0 into a 1 and pad with 0s to the
    new depth.  The depths are a tree's exactly when every step fits and
    the last address is all 1s.
    """
    out: list[str] = []
    for d in depths:
        if out:
            head = out[-1].rstrip("1")
            if not head or len(head) > d:
                return None
            out.append(head[:-1] + "1" + "0" * (d - len(head)))
        else:
            out.append("0" * d)
    return out if out and not out[-1].strip("1") else None


def _merge_siblings(words) -> list[str]:
    """Replace sibling pairs ``w0, w1`` by their parent ``w``, bottom-up.

    Walks the sorted, prefix-free ``words`` left to right with a stack;
    a new parent is tested against the new top in turn.
    """
    ws: list[str] = []
    for w in words:
        # the last character rejects half the words before any slicing
        while ws and w[-1:] == "1" and ws[-1] == w[:-1] + "0":
            ws.pop()
            w = w[:-1]
        ws.append(w)
    return ws


def format_word(w: str) -> str:
    return w if w else "^"


class InputSyntaxError(ValueError):
    """Input text that does not parse: a point, tree, element or vector."""


def parse_word(text: str) -> str:
    text = text.strip()
    if text == "^":
        return ""
    return check_word(text)


class IntervalUnion:
    """A finite union of standard dyadic intervals in canonical form.

    The canonical form is the unique shortest sorted word list: covered
    words are absorbed into their prefixes and complete sibling pairs
    ``w0, w1`` are merged into ``w``, repeatedly.  Instances are immutable
    and hashable; all set operations return new unions.
    """

    __slots__ = ("words",)

    def __init__(self, words=()):
        ws = sorted({check_word(w) for w in words})
        kept: list[str] = []
        for w in ws:
            if kept and w.startswith(kept[-1]):
                continue
            kept.append(w)
        object.__setattr__(self, "words", tuple(_merge_siblings(kept)))

    @classmethod
    def of(cls, *words) -> "IntervalUnion":
        return cls(words)

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls(("",))

    def insert(self, w: str) -> "IntervalUnion":
        return IntervalUnion(self.words + (check_word(w),))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.words + other.words)

    def complement(self) -> "IntervalUnion":
        out: list[str] = []
        todo = [""]
        while todo:
            v = todo.pop()
            if any(v.startswith(u) for u in self.words):
                continue
            if not any(u.startswith(v) for u in self.words):
                out.append(v)
            else:
                todo.append(v + "0")
                todo.append(v + "1")
        return IntervalUnion(out)

    def covers_word(self, w: str) -> bool:
        """Whether I_w lies inside the union."""
        check_word(w)
        if any(w.startswith(u) for u in self.words):
            return True
        below = [u for u in self.words if u.startswith(w)]
        return kraft_sum(below) == Fraction(1, 2 ** len(w))

    def contains_point(self, p: "CantorPoint") -> bool:
        return any(p.starts_with(u) for u in self.words)

    def measure(self) -> Fraction:
        return kraft_sum(self.words)

    @property
    def is_empty(self) -> bool:
        return not self.words

    @property
    def is_full(self) -> bool:
        return self.words == ("",)

    def __iter__(self):
        return iter(self.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalUnion) and self.words == other.words

    def __hash__(self) -> int:
        return hash(("IntervalUnion", self.words))

    def __repr__(self) -> str:
        inner = ", ".join(format_word(w) for w in self.words)
        return f"IntervalUnion({{{inner}}})"

    def __setattr__(self, *a):
        raise AttributeError("IntervalUnion is immutable")


class CantorPoint:
    """An eventually periodic infinite binary sequence.

    Stored as a preperiod plus a nonempty period, normalised so the period
    is primitive and the preperiod is as short as possible; normalisation
    makes equality of points structural.  Text form is ``pre(period)``,
    e.g. ``1(0)`` for 1000... .
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str = "", period: str = "0"):
        pre = check_word(preperiod)
        per = check_word(period)
        if not per:
            raise ValueError("period must be nonempty")
        for k in range(1, len(per) + 1):
            if len(per) % k == 0 and per[:k] * (len(per) // k) == per:
                per = per[:k]
                break
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def bits(self, n: int) -> str:
        s = self.preperiod
        while len(s) < n:
            s += self.period
        return s[:n]

    def starts_with(self, w: str) -> bool:
        return self.bits(len(w)) == check_word(w)

    def shift(self, k: int) -> "CantorPoint":
        """Drop the first k letters."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k <= len(self.preperiod):
            return CantorPoint(self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return CantorPoint("", self.period[r:] + self.period[:r])

    def prepend(self, w: str) -> "CantorPoint":
        return CantorPoint(check_word(w) + self.preperiod, self.period)

    def to_fraction(self) -> Fraction:
        """The real number in [0, 1] with this binary expansion."""
        pre, per = self.preperiod, self.period
        head = Fraction(int(pre, 2), 2 ** len(pre)) if pre else Fraction(0)
        tail = Fraction(int(per, 2), (2 ** len(per) - 1) * 2 ** len(pre))
        return head + tail

    @classmethod
    def parse(cls, text: str) -> "CantorPoint":
        text = text.strip()
        if not text.endswith(")") or "(" not in text:
            raise InputSyntaxError(f"expected pre(period), got {text!r}")
        pre, per = text[:-1].split("(", 1)
        try:
            return cls(pre, per)
        except ValueError as exc:
            raise InputSyntaxError(str(exc)) from None

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"

    def __repr__(self) -> str:
        return f"CantorPoint({str(self)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CantorPoint)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self) -> int:
        return hash(("CantorPoint", self.preperiod, self.period))

    def __setattr__(self, *a):
        raise AttributeError("CantorPoint is immutable")
