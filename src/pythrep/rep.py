"""The unitary representation of Thompson's group F on the limit space.

An element [t, s] acts on a decorated tree by refining its tree against
the domain tree s and swapping s for the range tree t; the decoration
travels unchanged, so the action is unitary.  Equivalently the action is
the sum of partial isometries tau_star(nu_i) tau(omega_i) over
corresponding leaves, and ``act_via_isometries`` recomputes it that way
as an independent cross-check.

Matrix coefficients <g . z, z> drive everything else here: character
values on the circle of pairs with B = 0, agreement with the classical
Koopman integral at a = b = 1/sqrt(2), decay of coefficients along vines
(how mixing-like the representation is), and ergodic averages whose limit
is pinned down by the projection onto the complement of the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forests import common_refinement
from .limitspace import LimitVector, rho_union, tau, tau_star
from .pythagorean import PythagoreanPair, leaf_decorations
from .thompson import ThompsonElement, vine_element, vine_on_cells

__all__ = [
    "act",
    "act_via_isometries",
    "act_via_stabilizers",
    "coefficient",
    "coefficient_cyclic",
    "ergodic_average",
    "ergodic_defect",
    "gram_average_norm",
    "fixed_vector_test",
    "covariance_check",
    "CoefficientTable",
    "mixing_scan",
    "koopman_coefficient",
    "CHARACTER_SIGN",
    "character_check",
    "fit_koopman_twist",
]

_LN2 = math.log(2.0)


def act(g: ThompsonElement, z: LimitVector) -> LimitVector:
    """Apply g: refine z's tree against the domain tree, keep the values,
    and hang them under the correspondingly refined range tree."""
    _, f, h = common_refinement(g.domain_tree, z.tree)
    grown = z.grow(h)
    return LimitVector(z.pair, g.range_tree.composed(f), grown.values)


def act_via_isometries(g: ThompsonElement, z: LimitVector) -> LimitVector:
    """Same action assembled from components: sum over corresponding
    leaves of reading off at the domain leaf and re-embedding at the
    range leaf."""
    out = None
    for omega, nu in zip(g.domain_tree.leaves, g.range_tree.leaves):
        part = tau_star(nu, tau(omega, z))
        out = part if out is None else out + part
    return out


def act_via_stabilizers(g: ThompsonElement, partition, z: LimitVector) -> LimitVector:
    """Decompose the action over a partition every cell of which g
    stabilizes: act by the restricted element inside each cell."""
    out = None
    for v in partition:
        part = tau_star(v, act(g.restrict(v), tau(v, z)))
        out = part if out is None else out + part
    return out


def coefficient(g: ThompsonElement, z: LimitVector) -> complex:
    return act(g, z).inner(z)


def coefficient_cyclic(
    pair: PythagoreanPair, g: ThompsonElement, xi=None
) -> complex:
    """<g . embed(xi), embed(xi)> computed directly from word operators:
    pair the domain-tree and range-tree leaf decorations positionally."""
    if xi is None:
        xi = np.zeros(pair.dim)
        xi[0] = 1.0
    ds = leaf_decorations(pair, g.domain_tree, xi)
    dt = leaf_decorations(pair, g.range_tree, xi)
    return complex(np.sum(ds * np.conj(dt)))


def ergodic_average(
    g: ThompsonElement, z: LimitVector, n: int, trim_tol: float = 1e-12
) -> LimitVector:
    """(1/n) sum of g^k . z for 0 <= k < n, trimming each step."""
    if n < 1:
        raise ValueError("need n >= 1")
    acc = z
    cur = z
    for _ in range(1, n):
        cur = act(g, cur).trim(trim_tol)
        acc = (acc + cur).trim(trim_tol)
    return (1.0 / n) * acc


def ergodic_defect(
    g: ThompsonElement, z: LimitVector, n: int, trim_tol: float = 1e-12
) -> float:
    """Distance of the n-step average from its mean-ergodic limit
    z - rho(support(g)) z."""
    avg = ergodic_average(g, z, n, trim_tol)
    target = z - rho_union(g.support(), z)
    return (avg - target).norm()


def gram_average_norm(
    pair: PythagoreanPair, g: ThompsonElement, n: int, xi=None
) -> float:
    """Norm of the n-step ergodic average of embed(xi), from coefficients
    alone: ||avg||^2 = (1/n^2) sum_{j,k} <g^(k-j) z, z>."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = n * coefficient_cyclic(pair, g.identity(), xi).real
    h = g.identity()
    for m in range(1, n):
        h = h * g
        total += 2 * (n - m) * coefficient_cyclic(pair, h, xi).real
    return float(np.sqrt(max(total, 0.0)) / n)


def fixed_vector_test(g: ThompsonElement, z: LimitVector, tol: float = 1e-9) -> bool:
    """g . z = z iff the components of z at corresponding leaves agree."""
    return all(
        tau(nu, z).distance(tau(omega, z)) <= tol
        for omega, nu in zip(g.domain_tree.leaves, g.range_tree.leaves)
    )


def covariance_check(g: ThompsonElement, v: str, z: LimitVector) -> float:
    """For g stabilizing v: residual of (restricted action) o tau_v
    against tau_v o (full action); zero in exact arithmetic."""
    lhs = act(g.restrict(v), tau(v, z))
    rhs = tau(v, act(g, z))
    return lhs.distance(rhs)


@dataclass
class CoefficientTable:
    """Labelled coefficient scan; rows are (label, index, complex value)."""

    rows: list[tuple[str, int, complex]] = field(default_factory=list)

    def add(self, label: str, index: int, value: complex) -> None:
        self.rows.append((label, index, complex(value)))

    def to_csv(self) -> str:
        lines = ["label,index,re,im,abs"]
        for label, index, value in self.rows:
            lines.append(
                f"{label},{index},{value.real!r},{value.imag!r},{abs(value)!r}"
            )
        return "\n".join(lines) + "\n"


def mixing_scan(
    pair: PythagoreanPair,
    i_max: int = 20,
    vectors=(),
    cell_depths=(1,),
) -> CoefficientTable:
    """Coefficients along the vine powers, plus the same scan against
    cellwise vine elements paired with any supplied vectors.  The decay
    profile is reported, never asserted."""
    table = CoefficientTable()
    for i in range(1, i_max + 1):
        table.add("vine", i, coefficient_cyclic(pair, vine_element(i)))
    for n in cell_depths:
        for j, z in enumerate(vectors):
            for i in range(1, i_max + 1):
                g = vine_on_cells(n, i)
                table.add(f"cells_n{n}_v{j}", i, coefficient(g, z))
    return table


def koopman_coefficient(g: ThompsonElement, s: float = 0.0) -> complex:
    """The classical integral coefficient of g on L^2[0, 1]: over the
    affine pieces, sum sqrt(l l') (l/l')^(is) with l the domain-leaf and
    l' the range-leaf length.  At s = 0 this is symmetric in l and l'."""
    total = 0.0 + 0.0j
    for dl, rl in zip(g.domain_tree.depths, g.range_tree.depths):
        total += 2.0 ** (-(dl + rl) / 2.0) * np.exp(1j * s * _LN2 * (rl - dl))
    return complex(total)


# Exponent sign fixed once by the x0 calibration and locked by a
# regression test: the measured character of g is a ** (-slope exponent).
CHARACTER_SIGN = -1


def character_check(
    pair: PythagoreanPair, g: ThompsonElement
) -> tuple[complex, complex]:
    """For a pair with B = 0 and |a| = 1: predicted character value
    a ** (CHARACTER_SIGN * slope exponent at 0) against the measured
    coefficient on the embedded unit vector."""
    if pair.dim != 1:
        raise ValueError("character comparison needs a scalar pair")
    a = complex(pair.a[0, 0])
    b = complex(pair.b[0, 0])
    if abs(b) > pair.tol:
        raise ValueError("character comparison needs b = 0")
    if abs(abs(a) - 1.0) > pair.tol:
        raise ValueError("character comparison needs |a| = 1")
    predicted = a ** (CHARACTER_SIGN * g.slope_exponent_at_zero())
    measured = coefficient(g, LimitVector.embed(pair, [1.0]))
    return predicted, measured


def fit_koopman_twist(omega: complex, elements=None, grid: int = 4096):
    """Numerically fit the twist parameter s matching the pair
    (omega/sqrt2, omega/sqrt2) against the twisted Koopman coefficients.

    The coefficient of any element whose leaf-length profile is symmetric
    under swapping domain and range (x0 is one) is even in s and cannot
    see the sign, so the fit minimizes the joint error on x0 and x0 x1
    over one period, refines by trisection, then validates on further
    elements; returns (s, worst validation error).
    """
    from .pythagorean import scalar_pair
    from .thompson import generator

    pair = scalar_pair(omega / math.sqrt(2), omega / math.sqrt(2))
    x0, x1 = generator(0), generator(1)
    fit_set = (x0, x0 * x1)

    def err(s: float, g: ThompsonElement) -> float:
        return abs(coefficient_cyclic(pair, g) - koopman_coefficient(g, s))

    def fit_err(s: float) -> float:
        return sum(err(s, g) for g in fit_set)

    half = math.pi / _LN2  # s is only defined modulo 2*pi/ln 2
    ss = np.linspace(-half, half, grid)
    best = min(ss, key=lambda s: fit_err(float(s)))
    lo, hi = best - 2 * half / grid, best + 2 * half / grid
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if fit_err(m1) <= fit_err(m2):
            hi = m2
        else:
            lo = m1
    s = (lo + hi) / 2

    if elements is None:
        elements = (x1, x0 * x0, x0 * x1, x1.inverse() * x0)
    worst = max(err(s, g) for g in elements)
    return s, worst
