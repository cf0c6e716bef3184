"""End-to-end CLI checks: output text, exit codes, byte-stable CSV."""

import json
import math

import pytest

from pythrep.cli import main

BALANCED = {"a": [1 / math.sqrt(2), 0.0], "b": [1 / math.sqrt(2), 0.0]}


@pytest.fixture
def pair_file(tmp_path):
    def write(data, name="pair.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- exit codes ------------------------------------------------------------


def test_pair_check_pass(capsys, pair_file):
    rc, out, _ = run(capsys, "pair-check", "--pair", pair_file(BALANCED))
    assert rc == 0
    assert out.startswith("dim 1 defect ")
    assert out.rstrip().endswith("PASS")


def test_pair_check_fail_is_exit_1(capsys, pair_file):
    # scalar shorthand is checked at load time, so use the raw matrix form
    crooked = {"dim": 1, "A": [[[0.9, 0.0]]], "B": [[[0.9, 0.0]]]}
    rc, out, _ = run(capsys, "pair-check", "--pair", pair_file(crooked))
    assert rc == 1
    assert out.rstrip().endswith("FAIL")


def test_malformed_pair_is_exit_1(capsys, pair_file):
    rc, _, err = run(capsys, "coeff", "--pair", pair_file({"a": [0.6, 0.0]}), "--element", "x0")
    assert rc == 1
    assert err.startswith("error:")


def test_nan_pair_is_exit_1(capsys, pair_file):
    nan_pair = {"a": [float("nan"), 0.0], "b": [0.0, 0.0]}
    rc, out, err = run(capsys, "coeff", "--pair", pair_file(nan_pair), "--element", "x0")
    assert rc == 1
    assert out == "" and err.startswith("error:")


def test_nan_matrix_pair_is_exit_1(capsys, pair_file):
    nan_pair = {"dim": 1, "A": [[[float("nan"), 0.0]]], "B": [[[0.5, 0.0]]]}
    rc, out, err = run(capsys, "coeff", "--pair", pair_file(nan_pair), "--element", "x0")
    assert rc == 1
    assert out == "" and "finite" in err


def test_nan_vector_is_exit_1(capsys):
    rc, out, err = run(
        capsys, "coeff", "--pair", "random:2", "--element", "x0", "--vector", "*:nan,0"
    )
    assert rc == 1
    assert out == "" and "finite" in err


def test_missing_pair_file_is_exit_1(capsys, tmp_path):
    rc, _, err = run(capsys, "diffuse", "--pair", str(tmp_path / "nope.json"))
    assert rc == 1
    assert "cannot read" in err


def test_bad_element_syntax_is_exit_2(capsys, pair_file):
    rc, _, err = run(capsys, "element", "--element", "x0^")
    assert rc == 2
    assert err.startswith("syntax error:")


def test_bad_point_syntax_is_exit_2(capsys):
    rc, out, err = run(capsys, "act", "--element", "x0", "--point", "12(0)")
    assert rc == 2
    assert out == "" and err.startswith("syntax error:")


def test_bad_n_list_syntax_is_exit_2(capsys, pair_file):
    rc, out, err = run(
        capsys, "ergodic", "--pair", pair_file(BALANCED), "--element", "x0", "--n-list", "1,a"
    )
    assert rc == 2
    assert out == "" and err.startswith("syntax error:")


def test_bad_vector_syntax_is_exit_2(capsys, pair_file):
    rc, out, err = run(
        capsys, "coeff", "--pair", pair_file(BALANCED), "--element", "x0", "--vector", "(** : 1"
    )
    assert rc == 2
    assert out == "" and err.startswith("syntax error:")


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["element"])
    assert exc.value.code == 2


# -- per-command output ------------------------------------------------------


def test_element_prints_reduced_form(capsys):
    rc, out, _ = run(capsys, "element", "--element", "x0 x0^-1 x0")
    assert rc == 0
    assert out == "[((**)*),(*(**))]\nleaves 3\n"


def test_element_roundtrips_through_own_output(capsys):
    rc, out, _ = run(capsys, "element", "--element", "x1^2 x0^-1")
    text = out.splitlines()[0]
    rc2, out2, _ = run(capsys, "element", "--element", text)
    assert rc2 == 0
    assert out2 == out


def test_act(capsys):
    rc, out, _ = run(capsys, "act", "--element", "x0", "--point", "1(0)")
    assert rc == 0
    assert out == "01(0)  = 1/4\n"


def test_support(capsys):
    rc, out, _ = run(capsys, "support", "--element", "x1")
    assert rc == 0
    assert out == "1  [1/2, 1)\nmeasure 1/2\n"


def test_coeff_cyclic(capsys, pair_file):
    rc, out, _ = run(capsys, "coeff", "--pair", pair_file(BALANCED), "--element", "x0")
    assert rc == 0
    assert out == "0.957107+0.000000i\n"


def test_coeff_with_vector(capsys, pair_file):
    rc, out, _ = run(
        capsys,
        "coeff",
        "--pair",
        pair_file(BALANCED),
        "--element",
        "x0",
        "--vector",
        "* : 1",
    )
    assert rc == 0
    assert out == "0.957107+0.000000i\n"


def test_koopman_matches_balanced_coeff(capsys):
    rc, out, _ = run(capsys, "koopman", "--element", "x0")
    assert rc == 0
    assert out == "0.957107+0.000000i\n"


def test_ergodic_table(capsys, pair_file):
    rc, out, _ = run(
        capsys,
        "ergodic",
        "--pair",
        pair_file(BALANCED),
        "--element",
        "x0",
        "--n-list",
        "1,4",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n defect gram"
    assert len(lines) == 3
    n, defect, gram = lines[2].split()
    assert n == "4"
    assert defect == gram == "0.955705"


def test_character(capsys, pair_file):
    rc, out, _ = run(
        capsys,
        "character",
        "--pair",
        pair_file({"a": [0.0, 1.0], "b": [0.0, 0.0]}),
        "--element",
        "x0^2",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split()[0] == "predicted"
    assert lines[1].split()[0] == "measured"
    assert all(line.split()[1].startswith("-1.000000") for line in lines)


def test_character_needs_unit_circle_pair(capsys, pair_file):
    rc, _, err = run(
        capsys,
        "character",
        "--pair",
        pair_file({"a": [0.6, 0.0], "b": [0.8, 0.0]}),
        "--element",
        "x0",
    )
    assert rc == 1
    assert err.startswith("error:")


def test_diffuse_certified(capsys, pair_file):
    rc, out, _ = run(capsys, "diffuse", "--pair", pair_file(BALANCED))
    assert rc == 0
    assert out.startswith("CERTIFIED depth=")


def test_diffuse_witness(capsys, pair_file):
    rc, out, _ = run(capsys, "diffuse", "--pair", pair_file({"a": [1.0, 0.0], "b": [0.0, 0.0]}))
    assert rc == 0
    assert out == "NOT-DIFFUSE witness=0\n"


def test_random_pair_spec(capsys):
    rc, out, _ = run(capsys, "pair-check", "--pair", "random:3", "--seed", "5")
    assert rc == 0
    assert out.startswith("dim 3 ")


def test_mixing_scan_csv_is_byte_stable(capsys, pair_file, tmp_path):
    pair = pair_file(BALANCED)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["mixing-scan", "--pair", pair, "--i-max", "5", "--out", str(out1)]) == 0
    assert main(["mixing-scan", "--pair", pair, "--i-max", "5", "--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "label,index,re,im,abs"
    assert lines[1].startswith("vine,1,0.9571067811865")
    # vine rows plus one cell scan for the default vector
    assert len(lines) == 11
