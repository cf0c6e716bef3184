"""Command-line front end.

One subcommand per capability; exit status 0 on success, 1 when a
mathematical contract fails (invalid or non-finite pair or vector,
unstabilized vertex, ...), 2 on usage errors and on syntax errors in any
input flag (element, point, vector, n-list).  Human-readable numbers are
printed to six significant digits; CSV output keeps full precision and is
byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .limitspace import LimitVector, parse_limit_vector
from .pythagorean import (
    PythagoreanPair,
    diffuse_certificate,
    pair_from_json,
    random_pair,
)
from .rep import (
    character_check,
    coefficient,
    coefficient_cyclic,
    ergodic_defect,
    gram_average_norm,
    koopman_coefficient,
    mixing_scan,
)
from .thompson import parse_element
from .words import CantorPoint, InputSyntaxError, format_word, word_to_interval


class ContractError(Exception):
    pass


def _load_pair(spec: str, seed: int, tol: float) -> PythagoreanPair:
    if spec.startswith("random:"):
        try:
            dim = int(spec.split(":", 1)[1])
        except ValueError:
            raise ContractError(f"bad random pair spec {spec!r}") from None
        return random_pair(dim, seed, tol)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ContractError(f"cannot read pair file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ContractError(f"pair file is not valid JSON: {exc}") from None
    try:
        return pair_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"bad pair data: {exc}") from None


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _basis_vector(pair: PythagoreanPair) -> LimitVector:
    xi = np.zeros(pair.dim)
    xi[0] = 1.0
    return LimitVector.embed(pair, xi)


def _get_vector(args, pair: PythagoreanPair) -> LimitVector:
    if args.vector:
        return parse_limit_vector(pair, args.vector)
    return _basis_vector(pair)


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_pair_check(args) -> int:
    pair = _load_pair(args.pair, args.seed, args.tol)
    defect = pair.validate()
    ok = defect <= pair.tol
    print(f"dim {pair.dim} defect {defect:.6g} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_diffuse(args) -> int:
    pair = _load_pair(args.pair, args.seed, args.tol)
    verdict = diffuse_certificate(pair, max_depth=args.depth, eps=args.eps)
    print(verdict)
    return 0


def cmd_element(args) -> int:
    g = parse_element(args.element)
    print(g.to_text())
    print(f"leaves {g.n_leaves}")
    return 0


def cmd_support(args) -> int:
    g = parse_element(args.element)
    supp = g.support()
    for w in supp.words:
        lo, hi = word_to_interval(w)
        print(f"{format_word(w)}  [{lo}, {hi})")
    print(f"measure {supp.measure()}")
    return 0


def cmd_act(args) -> int:
    g = parse_element(args.element)
    p = CantorPoint.parse(args.point)
    q = g.act_point(p)
    print(f"{q}  = {q.to_fraction()}")
    return 0


def cmd_coeff(args) -> int:
    pair = _load_pair(args.pair, args.seed, args.tol)
    g = parse_element(args.element)
    if args.vector:
        value = coefficient(g, parse_limit_vector(pair, args.vector))
    else:
        value = coefficient_cyclic(pair, g)
    print(_fmt_complex(value))
    return 0


def cmd_ergodic(args) -> int:
    pair = _load_pair(args.pair, args.seed, args.tol)
    g = parse_element(args.element)
    z = _get_vector(args, pair)
    try:
        ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise InputSyntaxError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}"
        ) from None
    print("n defect gram")
    for n in ns:
        defect = ergodic_defect(g, z, n)
        gram = gram_average_norm(pair, g, n)
        print(f"{n} {defect:.6g} {gram:.6g}")
    return 0


def cmd_mixing_scan(args) -> int:
    pair = _load_pair(args.pair, args.seed, args.tol)
    vectors = (parse_limit_vector(pair, args.vector),) if args.vector else (
        _basis_vector(pair),
    )
    table = mixing_scan(pair, i_max=args.i_max, vectors=vectors)
    _write_out(args, table.to_csv())
    return 0


def cmd_character(args) -> int:
    pair = _load_pair(args.pair, args.seed, args.tol)
    g = parse_element(args.element)
    predicted, measured = character_check(pair, g)
    print(f"predicted {_fmt_complex(predicted)}")
    print(f"measured  {_fmt_complex(measured)}")
    if abs(predicted - measured) > 1e-9:
        raise ContractError("measured character deviates from prediction")
    return 0


def cmd_koopman(args) -> int:
    g = parse_element(args.element)
    print(_fmt_complex(koopman_coefficient(g, args.twist)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pythrep",
        description="Tree diagrams for Thompson's group F and their Pythagorean representations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pair", help="pair JSON file, or random:DIM")
    common.add_argument("--element", help="element expression, e.g. 'x0^2 x1'")
    common.add_argument("--point", help="Cantor point, e.g. '1(0)'")
    common.add_argument("--vector", help="decorated tree, e.g. '(**) : 1 ; 0'")
    common.add_argument("--depth", type=int, default=24, help="search depth cap")
    common.add_argument("--eps", type=float, default=1e-3, help="pruning norm threshold")
    common.add_argument("--tol", type=float, default=1e-12, help="pair tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for random:DIM pairs")
    common.add_argument("--n-list", default="1,2,4,8,16", help="comma-separated averages")
    common.add_argument("--i-max", type=int, default=20, help="scan length")
    common.add_argument("--twist", type=float, default=0.0, help="Koopman twist parameter")
    common.add_argument("--out", help="write output to this file")

    sub = parser.add_subparsers(dest="command", required=True)
    table = [
        ("pair-check", cmd_pair_check, "validate a pair and report its defect", ["pair"]),
        ("diffuse", cmd_diffuse, "classify a pair as diffuse where possible", ["pair"]),
        ("element", cmd_element, "parse, reduce and print an element", ["element"]),
        ("support", cmd_support, "print the support of an element", ["element"]),
        ("act", cmd_act, "apply an element to a Cantor point", ["element", "point"]),
        ("coeff", cmd_coeff, "matrix coefficient of an element", ["pair", "element"]),
        ("ergodic", cmd_ergodic, "ergodic averages against the Gram oracle", ["pair", "element"]),
        ("mixing-scan", cmd_mixing_scan, "CSV scan of coefficient decay", ["pair"]),
        ("character", cmd_character, "character prediction vs measurement", ["pair", "element"]),
        ("koopman", cmd_koopman, "classical Koopman coefficient", ["element"]),
    ]
    for name, fn, help_text, required in table:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(fn=fn, required=required)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in args.required:
        if getattr(args, flag) is None:
            parser.error(f"{args.command} requires --{flag}")
    try:
        return args.fn(args)
    except InputSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
