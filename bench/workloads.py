"""The three benchmark workloads and the oracles that check their outputs.

Each workload turns a seed and a pass index into a list of calls into
pythrep's public API (one *pass*).  The seeded parts of the inputs are drawn
from (seed, pass index), so no pass repeats another's inputs where the seed
reaches them, and a cache kept across calls cannot make later passes look
faster.  A call is timed on its own; its check runs afterwards, untimed, and
returns None or a one-line failure message.  The call list is run as a
closed loop with a single caller: each call starts when the previous one
has returned and been checked.

Calls look functions up through the module objects (``rep.act``, not a name
bound at import time), so the outside-in tracer sees them once installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pythrep import cli, limitspace, pythagorean, rep, thompson

# Sizes per scale.  "full" is the benchmark; "tiny" keeps the harness
# smoke check under a few seconds.
SCALES = {
    "full": {
        "vine_sizes": (96, 192, 384),
        "scalar_grid": 48,
        "scalar_depth": 600,
        "diag_pairs": 10,
        "generic_pairs": 4,
        "generic_budgets": (2000, 4000, 8000),
        "cli_repeat": 1,
        "cli_gen_sizes": (64, 128, 256),
    },
    "tiny": {
        "vine_sizes": (16, 24, 32),
        "scalar_grid": 4,
        "scalar_depth": 100,
        "diag_pairs": 3,
        "generic_pairs": 1,
        "generic_budgets": (200, 800),
        "cli_repeat": 0,
        "cli_gen_sizes": (32, 128),
    },
}

EPS = 1e-3
SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class Call:
    """One timed call; ``size`` places it on the workload's growth curve,
    ``decided`` says whether a diffuseness decision reached a verdict."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    size: "int | None" = None
    decided: "Callable[[object], bool] | None" = None


def _rng(seed: int, pass_index: int):
    return np.random.default_rng((seed, pass_index))


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


# -- vine-scaling -----------------------------------------------------------


def gram_closed_form(n: int) -> float:
    """||(1/n) sum_k x0^k . z|| for z = embed(1) over the balanced pair, from
    the closed-form vine coefficients c(m) = <x0^m z, z>."""

    def c(m: int) -> float:
        return 2 * 2 ** (-(m + 2) / 2) + m * 2 ** (-(m + 3) / 2)

    total = n + 2 * sum((n - m) * c(m) for m in range(1, n))
    return math.sqrt(total) / n


def generator_text(n: int) -> str:
    """Text form of the reduced pair x_n: vines of length 1 hung n deep."""
    return f"[{'(*' * n}((**)*){')' * n},{'(*' * n}(*(**)){')' * n}]"


def vine_scaling(seed: int, pass_index: int, scale: str, workdir: str) -> list[Call]:
    """For each n: generator(n), parse_element("x0^n"),
    gram_average_norm(BALANCED, x0, n) and ergodic_defect(x0, z, n/8).

    (seed, pass index) draw the unit phase of the averaged vector, which
    changes the arithmetic but not the exact answers.  The call order is the
    same for every seed, ascending in n.  The other inputs are fixed by n, so
    run.py compares the first pass with the later ones.
    One diffuseness decision on the balanced pair states the premise the
    averages rest on.
    """
    rng = _rng(seed, pass_index)
    balanced = pythagorean.scalar_pair(SQRT_HALF, SQRT_HALF)
    x0 = thompson.generator(0)
    phase = _phase(rng)
    z = limitspace.LimitVector.embed(balanced, [phase])
    calls = []
    for n in SCALES[scale]["vine_sizes"]:
        expect_norm = gram_closed_form(n)
        m = max(n // 8, 1)

        def check_generator(g, n=n):
            if g.to_text() != generator_text(n):
                return f"generator({n}) is not the reduced pair x_{n}"
            return None

        def check_power(g, n=n):
            if g != thompson.vine_element(n).inverse():
                return f"x0^{n} differs from vine_element({n}).inverse()"
            return None

        def check_gram(v, n=n, expect=expect_norm):
            if not abs(v - expect) <= 1e-9:
                return f"gram_average_norm(n={n}) = {v!r}, closed form {expect!r}"
            return None

        def check_defect(v, m=m):
            gram = rep.gram_average_norm(balanced, x0, m, [phase])
            if not abs(v - gram) <= 1e-6:
                return f"ergodic_defect(n={m}) = {v!r}, gram_average_norm = {gram!r}"
            return None

        group = [
            Call(f"generator n={n}", lambda n=n: thompson.generator(n), check_generator, n),
            Call(f"parse x0^{n}", lambda n=n: thompson.parse_element(f"x0^{n}"), check_power, n),
            Call(
                f"gram_average_norm n={n}",
                lambda n=n: rep.gram_average_norm(balanced, x0, n, [phase]),
                check_gram,
                n,
            ),
            Call(f"ergodic_defect n={m}", lambda m=m: rep.ergodic_defect(x0, z, m), check_defect, n),
        ]
        calls += group

    def decide(p=balanced):
        return pythagorean.diffuse_certificate(p, max_depth=SCALES[scale]["scalar_depth"], eps=EPS)

    calls.append(
        Call(
            "diffuse balanced",
            decide,
            lambda v: _check_verdict(v, [(SQRT_HALF, SQRT_HALF)], balanced),
            decided=_is_decided,
        )
    )
    return calls


# -- diffuse-mix ------------------------------------------------------------


def _is_decided(v) -> bool:
    return v.is_certified or v.is_not_diffuse


def _word_radius(pair, w: str) -> float:
    """Spectral radius of the word's operator, built here from A and B."""
    op = np.eye(pair.dim, dtype=np.complex128)
    for bit in w:
        op = (pair.a if bit == "0" else pair.b) @ op
    return float(np.max(np.abs(np.linalg.eigvals(op))))


def _check_verdict(v, moduli, pair) -> "str | None":
    """Check a verdict against the analytic answer for a pair that is a
    direct sum of scalar pairs with the given (|a_i|, |b_i|).

    Such a pair is diffuse exactly when max_i max(|a_i|, |b_i|) < 1, and every
    word of length d has norm at most eps exactly when that maximum to the
    d-th power is at most eps.  ``moduli=None`` marks a generic pair, where
    only a NOT-DIFFUSE witness can be re-checked.
    """
    if v.is_not_diffuse:
        radius = _word_radius(pair, v.witness)
        if not radius >= 1.0 - pair.tol:
            return f"witness {v.witness!r} has spectral radius {radius!r} < 1"
    if moduli is None:
        return None
    top = max(max(a, b) for a, b in moduli)
    diffuse = top < 1.0 - pair.tol
    if v.is_not_diffuse and diffuse:
        return f"NOT-DIFFUSE for a diffuse pair (max modulus {top!r})"
    if v.is_certified:
        if not diffuse:
            return f"CERTIFIED for a non-diffuse pair (max modulus {top!r})"
        if not top ** v.depth <= v.eps * (1 + 1e-9):
            return f"CERTIFIED at depth {v.depth}, but {top!r}^{v.depth} > eps"
    return None


def _scalar_moduli(k: int, grid: int) -> tuple[float, float]:
    """(|a|, |b|) at grid point k of 0..grid+1 across the quarter circle; the
    two ends are the poles (1, 0) and (0, 1)."""
    if k == 0:
        return 1.0, 0.0
    if k == grid + 1:
        return 0.0, 1.0
    theta = k / (grid + 1) * (math.pi / 2)
    return math.cos(theta), math.sin(theta)


def diffuse_mix(seed: int, pass_index: int, scale: str, workdir: str) -> list[Call]:
    """diffuse_certificate on three kinds of pair.

    Scalar and diagonal pairs take their moduli from a fixed grid and their
    phases from (seed, pass index): the verdict depends only on the moduli,
    so the oracle is exact and the share of decided pairs does not drift
    with the seed.  Generic pairs come from random_pair with dimension 2 or
    3 and a seed drawn from (seed, pass index); each runs at a series of
    node budgets with no binding depth cap, so its cost is set by the
    budget alone.
    """
    sc = SCALES[scale]
    rng = _rng(seed, pass_index)
    calls = []
    grid = sc["scalar_grid"]
    for k in range(grid + 2):
        ma, mb = _scalar_moduli(k, grid)
        pair = pythagorean.scalar_pair(ma * _phase(rng), mb * _phase(rng))
        calls.append(
            Call(
                f"scalar k={k}",
                lambda p=pair: pythagorean.diffuse_certificate(p, max_depth=sc["scalar_depth"], eps=EPS),
                lambda v, p=pair, m=(ma, mb): _check_verdict(v, [m], p),
                decided=_is_decided,
            )
        )
    # The first diagonal pair is diag(1, 1/sqrt2), diag(0, 1/sqrt2) from the
    # acceptance check; the rest put one coordinate at a pole every third pair.
    diag_moduli = [[(1.0, 0.0), (SQRT_HALF, SQRT_HALF)]]
    for j in range(1, sc["diag_pairs"]):
        first = (0.0, 1.0) if j % 3 == 0 else _scalar_moduli(j, sc["diag_pairs"])
        second = _scalar_moduli(sc["diag_pairs"] - j, sc["diag_pairs"])
        diag_moduli.append([first, second])
    for j, moduli in enumerate(diag_moduli):
        phases = [(1.0, 1.0)] * len(moduli) if j == 0 else [(_phase(rng), _phase(rng)) for _ in moduli]
        a = np.diag([m[0] * p[0] for m, p in zip(moduli, phases)])
        b = np.diag([m[1] * p[1] for m, p in zip(moduli, phases)])
        pair = pythagorean.PythagoreanPair(a, b)
        calls.append(
            Call(
                f"diagonal j={j}",
                lambda p=pair: pythagorean.diffuse_certificate(p, max_depth=sc["scalar_depth"], eps=EPS),
                lambda v, p=pair, m=moduli: _check_verdict(v, m, p),
                decided=_is_decided,
            )
        )
    for j in range(sc["generic_pairs"]):
        dim = 2 + j % 2
        pair = pythagorean.random_pair(dim, int(rng.integers(2**31)))
        for budget in sc["generic_budgets"]:
            calls.append(
                Call(
                    f"generic j={j} dim={dim} nodes={budget}",
                    lambda p=pair, b=budget: pythagorean.diffuse_certificate(
                        p, max_depth=10 * b, eps=EPS, max_nodes=b
                    ),
                    lambda v, p=pair: _check_verdict(v, None, p),
                    size=budget,
                    decided=_is_decided,
                )
            )
    return calls


# -- cli-mix ----------------------------------------------------------------


def _tree_text(rng, n: int) -> str:
    if n == 1:
        return "*"
    k = int(rng.integers(1, n))
    return f"({_tree_text(rng, k)}{_tree_text(rng, n - k)})"


def _element_expr(rng) -> str:
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.1:
            n = int(rng.integers(2, 7))
            terms.append(f"[{_tree_text(rng, n)},{_tree_text(rng, n)}]")
        else:
            e = int(rng.choice([-3, -2, -1, 1, 1, 2, 3]))
            terms.append(f"x{int(rng.integers(0, 6))}" + ("" if e == 1 else f"^{e}"))
    return " ".join(terms)


def _vector_text(rng, dim: int) -> str:
    n = int(rng.integers(1, 4))
    leaves = [
        ",".join(f"{rng.normal():.3f}{rng.normal():+.3f}i" for _ in range(dim))
        for _ in range(n)
    ]
    return f"{_tree_text(rng, n)} : {' ; '.join(leaves)}"


def _bits(rng, lo: int, hi: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=int(rng.integers(lo, hi + 1))))


def _complex_out(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _run_cli(args: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write_pair(workdir: str, name: str, a: complex, b: complex) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"a": [a.real, a.imag], "b": [b.real, b.imag]}, fh)
    return path


def cli_mix(seed: int, pass_index: int, scale: str, workdir: str) -> list[Call]:
    """About 430 requests through cli.main, covering all ten subcommands.

    Scalar pairs are JSON files written here, into the pass's own directory;
    matrix pairs are random:2 and random:3.  The pair phases, random_pair
    seeds, elements and vectors are drawn from (seed, pass index).  Every
    request must exit 0.  Requests carry their own oracles where one exists:
    element text round-trips, coeff on the balanced pair equals koopman
    --twist 0, ergodic on x0 prints equal defect and gram columns, and a
    repeated mixing-scan is byte-identical.
    """
    sc = SCALES[scale]
    rng = _rng(seed, pass_index)
    balanced = _write_pair(workdir, "balanced", complex(SQRT_HALF), complex(SQRT_HALF))
    grid = 10
    scalar = []
    for k in range(grid + 2):
        ma, mb = _scalar_moduli(k, grid)
        scalar.append((_write_pair(workdir, f"scalar{k}", ma * _phase(rng), mb * _phase(rng)), (ma, mb)))
    chars = [_write_pair(workdir, f"char{k}", _phase(rng), 0j) for k in range(3)]
    first_out: dict[str, str] = {}
    requests: list[Call] = []

    def add(args, check=None, size=None, decided=None):
        label = f"{len(requests):03d} {' '.join(args)}"

        def full_check(res, label=label):
            code, out, err = res
            if code != 0:
                return f"{label}: exit {code}: {err.strip()[:200]}"
            first_out[label] = out
            return check(out) if check else None

        requests.append(Call(label, lambda a=list(args): _run_cli(a), full_check, size, decided))

    def matrix_pair():
        dim = int(rng.integers(2, 4))
        return dim, ["--pair", f"random:{dim}", "--seed", str(int(rng.integers(1000)))]

    def any_pair():
        r = rng.random()
        if r < 0.4:
            return ["--pair", scalar[int(rng.integers(len(scalar)))][0]]
        if r < 0.6:
            return ["--pair", balanced]
        return matrix_pair()[1]

    def check_element(out):
        text, leaves = out.splitlines()
        g = thompson.parse_element(text)
        if g.to_text() != text or leaves != f"leaves {g.n_leaves}":
            return f"element output {text[:60]!r} does not round-trip"
        return None

    def check_ergodic(out):
        for row in out.splitlines()[1:]:
            _, defect, gram = (float(x) for x in row.split())
            if not abs(defect - gram) <= 1e-6 + 5e-6 * (abs(defect) + abs(gram)):
                return f"ergodic on x0: defect {defect!r} != gram {gram!r}"
        return None

    def check_equal_to(label_index):
        def check(out):
            theirs = first_out.get(requests[label_index].label)
            if theirs is None:
                return "paired request has no output"
            if not abs(_complex_out(out) - _complex_out(theirs)) <= 1.5e-6:
                return f"coeff {theirs.strip()} != koopman --twist 0 {out.strip()}"
            return None

        return check

    def cli_decided(res):
        return res[1].startswith(("CERTIFIED", "NOT-DIFFUSE"))

    def check_diffuse(moduli):
        def check(out):
            head = out.split()[0]
            if head == "NOT-DIFFUSE" and max(moduli) < 1.0:
                return f"NOT-DIFFUSE for a diffuse scalar pair {moduli}"
            if head == "CERTIFIED" and max(moduli) >= 1.0:
                return f"CERTIFIED for a non-diffuse scalar pair {moduli}"
            return None

        return check

    for _ in range(1 + sc["cli_repeat"]):
        for _ in range(40):
            add(["element", "--element", _element_expr(rng)], check_element)
        for _ in range(25):
            add(["support", "--element", _element_expr(rng)])
        for _ in range(25):
            add(["act", "--element", _element_expr(rng), "--point", f"{_bits(rng, 0, 4)}({_bits(rng, 1, 3)})"])
        for _ in range(15):
            expr = _element_expr(rng)
            add(["coeff", "--pair", balanced, "--element", expr])
            add(["koopman", "--element", expr, "--twist", "0"], check_equal_to(len(requests) - 1))
        for _ in range(10):
            add(["koopman", "--element", _element_expr(rng), "--twist", f"{rng.uniform(-3, 3):.4f}"])
        for _ in range(15):
            add(["coeff", *any_pair(), "--element", _element_expr(rng)])
        for _ in range(10):
            dim, pair = matrix_pair()
            add(["coeff", *pair, "--element", _element_expr(rng), "--vector", _vector_text(rng, dim)])
        for _ in range(6):
            add(["ergodic", *any_pair(), "--element", "x0", "--n-list", "1,4,16"], check_ergodic)
        for _ in range(6):
            dim, pair = matrix_pair()
            add(["ergodic", *pair, "--element", _element_expr(rng), "--vector", _vector_text(rng, dim), "--n-list", "2,8"])
        for _ in range(4):
            dim, pair = matrix_pair()
            scan = ["mixing-scan", *pair, "--i-max", str(int(rng.integers(8, 17)))]
            if rng.random() < 0.5:
                scan += ["--vector", _vector_text(rng, dim)]
            add(scan)
            first = requests[-1].label

            def same_csv(out, first=first):
                return None if out == first_out[first] else "repeated mixing-scan CSV differs"

            add(scan, same_csv)
        for _ in range(12):
            add(["character", "--pair", chars[int(rng.integers(len(chars)))], "--element", _element_expr(rng)])
        for _ in range(10):
            add(["pair-check", *any_pair()])
        for path, moduli in scalar:
            add(["diffuse", "--pair", path, "--depth", "200"], check_diffuse(moduli), decided=cli_decided)
    for k in sc["cli_gen_sizes"]:
        for _ in range(4):
            add(["element", "--element", f"x{k}"], check_element, size=k)
    return requests


WORKLOADS = {
    "vine-scaling": vine_scaling,
    "diffuse-mix": diffuse_mix,
    "cli-mix": cli_mix,
}
