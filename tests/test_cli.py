"""CLI subcommands: text output, JSON envelope, exit codes, golden demo bytes."""

import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from germkit import __version__
from germkit.algebra import MAX_VARIABLE_DEGREE, Polynomial
from germkit.cli import run_cli
from germkit.parsing import MAX_EXPONENT, MAX_TERMS, format_poly
from germkit.series import MAX_ORDER, TruncatedSeries

GOLDEN = Path(__file__).parent / "data" / "demo_counterexample.txt"
README_CLI = Path(__file__).parent / "data" / "readme_cli"
SRC = Path(__file__).resolve().parent.parent / "src"

F = Fraction


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def poly_from_terms(n, terms):
    return Polynomial(n, {tuple(mono): Fraction(coeff) for mono, coeff in terms})


def python_with_src(*args, **kwargs):
    """Run a fresh interpreter that imports germkit from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                          text=True, timeout=120, **kwargs)


# -- pinned subcommand behavior ---------------------------------------------------


def test_analyze_counterexample_at_origin():
    code, out, err = run(
        "analyze", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0", "--order", "8"
    )
    assert code == 0 and err == ""
    assert "status: SingularIrreducible" in out
    assert "OddVariableOrder(variable = z1, order = 1)" in out


def test_scan_counterexample_is_unstable():
    code, out, err = run(
        "scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0",
        "--curve", "t,0,0", "--t", "1,1/2,1/4,1/8", "--order", "8",
    )
    assert code == 0 and err == ""
    assert "verdict: Unstable" in out
    assert out.count("SingularReducible") == 4


def test_scan_sample_at_t_zero_is_no_evidence():
    # t = 0 is the base point again: alone it leaves the verdict open
    scan = ("scan", "--poly", "z2^2-z1^3", "--point", "0,0", "--curve", "t^2,t^3")
    code, out, err = run(*scan, "--t", "0")
    assert code == 0 and err == ""
    assert "t = 0: point (0, 0), on locus, SingularIrreducible" in out
    assert "verdict: Inconclusive" in out
    assert "reason: no sample with t != 0 lies on the zero locus" in out
    code, out, err = run(*scan, "--t", "0,1/2")
    assert code == 0 and err == ""
    assert "verdict: Stable-evidence" in out


def test_resultant_prints_the_formatted_polynomial():
    code, out, err = run("resultant", "--f", "z2^2 - z1^3", "--g", "2*z2", "--var", "z2")
    assert code == 0 and err == ""
    assert out == "-4*z1^3\n"


def test_discriminant_subcommand():
    code, out, _ = run("discriminant", "--poly", "z2^2 + z1*z2 + z1", "--var", "z2")
    assert code == 0
    assert out == "-4*z1 + z1^2\n"


def test_prepare_subcommand_reports_unit_and_coefficients():
    code, out, _ = run("prepare", "--poly", "z3^2 - z1*z2^2", "--point", "1,0,0")
    assert code == 0
    assert "degree d = 2" in out
    assert "e_1 = 0" in out
    assert "unit = 1" in out
    assert "u*w agrees with f through total degree 8: yes" in out


def test_coprime_subcommand_reports_discreteness():
    code, out, _ = run(
        "coprime", "--g", "z3^2 - z1*z2^2", "--h", "2*z3", "--point", "0,0,0"
    )
    assert code == 0
    assert "resultant (remaining variables renumbered): -4*z1*z2^2" in out
    assert "germs coprime at the point: yes" in out
    assert "resultant zero set discrete near the point: no" in out


@pytest.mark.parametrize("poly, point, line", [
    ("z1 + 1", "0", "NonzeroValue(value = 1)"),
    ("z1 + z2^2", "0,0", "SmoothPoint(gradient = (1, 0))"),
    ("z2^2 - 2*z1^2", "0,0", "MonomialUnitSquare(square root exists but is not rational)"),
    ("z3^2 - z1^2 - z2^2", "0,0,0",
     "LowestFormNotASquare(form = 4*z1^2 + 4*z2^2, degree = 2)"),
    ("z2^3 + z1*z2^2", "0,0", "DistinguishedVarDivides(variable = z2, multiplicity = 2)"),
    ("(z2 - z1)*(z2^2 - z1^3)", "0,0", "MultiEdgePolygon(edge_count = 2)"),
    ("z2^3 - z1^2", "0,0", "BinomialCoprimeEdge(d = 3, m = 2)"),
    ("z2^3 - z1^3", "0,0", "EdgePolynomialSplits(edge_polynomial = 1 - z1^3)"),
    ("z2^3 + z1*z2^2 - 2*z1^3", "0,0",
     "EdgePolynomialSplits(edge_polynomial = 1 + z1 - 2*z1^3)"),
    # the edge polynomial is divided by the coefficient of z2^3
    ("2*z2^3 + z1*z2^2 - z1^3", "0,0",
     "EdgePolynomialSplits(edge_polynomial = 1 + 1/2*z1 - 1/2*z1^3)"),
    ("z4^2 - z1^2 - z2^2 - z3^2", "0,0,0,0",
     "LowestFormNotASquare(form = 4*z1^2 + 4*z2^2 + 4*z3^2, degree = 2)"),
])
def test_certificate_line_lists_the_fields_in_order(poly, point, line):
    code, out, err = run("analyze", "--poly", poly, "--point", point)
    assert code == 0 and err == ""
    assert f"certificate: {line}\n" in out


def test_a_square_above_the_order_is_reducible():
    # (z3 + z1^4 + z2^5)^2 is a square, so its exact discriminant is 0; the
    # one of an order-8 preparation would have a degree-9 lowest form
    code, out, err = run("analyze", "--poly", "(z3 + z1^4 + z2^5)^2", "--point", "0,0,0,0")
    assert code == 0 and err == ""
    assert "status: SingularReducible\n" in out
    assert "certificate: PolynomialSquare(lc = 0, root = 0)\n" in out
    assert out.count("factor: z3 + z4 + z1^4 + z2^5\n") == 2
    assert "reason:" not in out


# -- golden demo -------------------------------------------------------------------


def test_demo_counterexample_matches_golden_bytes():
    code, out, err = run("demo", "counterexample")
    assert code == 0 and err == ""
    assert out == GOLDEN.read_text()


def test_demo_is_deterministic():
    assert run("demo", "counterexample") == run("demo", "counterexample")


def readme_cli_transcripts():
    """{file name: stdout} for each `germkit ...` line of README's CLI block.

    Every line runs twice: as text (without --json) and as --json, whose
    envelope drops `timing_ms`, its one nondeterministic field.
    `PYTHONPATH=src python tests/test_cli.py` rewrites tests/data/readme_cli/
    from the current code.
    """
    readme = (SRC.parent / "README.md").read_text().split("## CLI\n", 1)[1]
    block = readme.split("```\n", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("germkit ")]
    transcripts = {}
    for i, line in enumerate(lines, 1):
        argv = [a for a in shlex.split(line)[1:] if a != "--json"]
        code, out, err = run(*argv)
        assert code == 0 and err == "", line
        transcripts[f"{i}.txt"] = out
        code, out, err = run(*argv, "--json")
        assert code == 0 and err == "", line
        doc = json.loads(out)
        del doc["timing_ms"]
        transcripts[f"{i}.json"] = json.dumps(doc, indent=2) + "\n"
    return transcripts


def test_readme_cli_lines_match_golden_transcripts():
    transcripts = readme_cli_transcripts()
    assert len(transcripts) == 18
    assert sorted(transcripts) == sorted(p.name for p in README_CLI.iterdir())
    for name, out in transcripts.items():
        assert out == (README_CLI / name).read_text(), name


# -- JSON envelope -------------------------------------------------------------------


def test_json_envelope_shape():
    code, out, _ = run(
        "analyze", "--poly", "z3^2 - z1*z2^2", "--point", "1,0,0", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "germkit"
    assert doc["version"] == __version__
    assert doc["command"] == "analyze"
    assert doc["input"] == {
        "poly": "z3^2 - z1*z2^2",
        "point": ["1", "0", "0"],
        "order": 8,
    }
    assert isinstance(doc["timing_ms"], (int, float))
    result = doc["result"]
    assert result["status"] == "SingularReducible"
    cert = result["certificate"]
    assert list(cert) == ["kind", "root", "half_exponents", "unit_root"]
    assert cert["kind"] == "MonomialUnitSquare"
    assert cert["root"]["order"] == 8 and cert["half_exponents"] == [0, 1]
    assert cert["unit_root"]["terms"][0] == [[0, 0], "2"]



def test_isolated_critical_point_certificate_in_text_and_json():
    argv = ("analyze", "--poly", "z1^9 + z2^2 + z3^2", "--point", "0,0,0")
    code, out, _ = run(*argv)
    assert code == 0
    assert "status: SingularIrreducible\n" in out
    assert "certificate: IsolatedCriticalPoint(level = 8, milnor = 8)\n" in out
    code, out, _ = run(*argv, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["certificate"] == {"kind": "IsolatedCriticalPoint", "level": 8, "milnor": 8}

def test_json_input_echoes_the_parsed_point_and_variable():
    # the golden transcripts pass --var as z<k> and --point explicitly
    code, out, _ = run("prepare", "--poly", "z2^2 - z1^3", "--var", "2", "--json")
    assert code == 0
    assert json.loads(out)["input"] == {
        "poly": "z2^2 - z1^3", "point": ["0", "0"], "var": "z2", "order": 8,
    }
    code, out, _ = run("coprime", "--g", "z3^2 - z1*z2^2", "--h", "2*z3", "--var", "3",
                       "--json")
    assert code == 0
    assert json.loads(out)["input"] == {
        "g": "z3^2 - z1*z2^2", "h": "2*z3", "point": ["0", "0", "0"], "var": "z3",
    }
    code, out, _ = run("discriminant", "--poly", "z2^2 - z1^3", "--var", " 2", "--json")
    assert code == 0
    assert json.loads(out)["input"] == {"poly": "z2^2 - z1^3", "var": "z2"}


def test_json_factors_multiply_back_to_w():
    code, out, _ = run(
        "analyze", "--poly", "z3^2 - z1*z2^2", "--point", "1,0,0", "--json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    factors = [poly_from_terms(3, terms) for terms in result["factors"]]
    assert len(factors) == 2
    product = TruncatedSeries(factors[0], 8) * TruncatedSeries(factors[1], 8)
    shifted = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1}).shift((1, 0, 0))
    assert product == TruncatedSeries(shifted, 8)


def test_json_rationals_are_strings():
    code, out, _ = run(
        "scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0",
        "--curve", "t,0,0", "--t", "1/2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    sample = doc["result"]["samples"][0]
    assert sample["t"] == "1/2"
    assert sample["point"] == ["1/2", "0", "0"]
    assert sample["on_locus"] is True
    assert sample["status"] == "SingularReducible"
    assert doc["result"]["verdict"] == "Unstable"
    assert doc["result"]["witness_t"] == "1/2"


def test_json_demo_round_trips():
    code, out, _ = run("demo", "counterexample", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["origin"]["status"] == "SingularIrreducible"
    assert doc["result"]["nearby"]["status"] == "SingularReducible"
    assert doc["result"]["nearby"]["factors_multiply_back"] is True
    assert doc["result"]["scan"]["verdict"] == "Unstable"


# -- exit codes ----------------------------------------------------------------------


def test_exit_code_2_on_parse_error():
    code, out, err = run("analyze", "--poly", "z0 + 1", "--point", "0")
    assert code == 2
    assert "offset 0" in err and out == ""


def test_exit_code_1_on_usage_error():
    code, _, err = run("analyze", "--poly", "z1^2")  # missing --point
    assert code == 1
    code, _, err = run("unknown-command")
    assert code == 1
    code, _, err = run("resultant", "--f", "z1", "--g", "z1", "--var", "z9")
    assert code == 1 and "out of range" in err
    code, _, err = run("analyze", "--poly", "z1^2", "--point", "0", "--order", "1")
    assert code == 1 and "at least 2" in err
    # argparse's own wording of an invalid choice differs across Python versions
    code, out, err = run("demo", "other")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "counterexample" in err


@pytest.mark.parametrize("var", ["¹", "z²"])
def test_var_takes_decimal_digits_only(var):
    # superscripts are digits to str.isdigit but not to int(), nor to parse_poly
    code, out, err = run("prepare", "--poly", "z3^2 - z1*z2^2", "--var", var)
    assert code == 1 and out == ""
    assert err == f"usage error: --var expects a variable like z2, got {var!r}\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_the_zero_polynomial_is_an_error_about_the_germ(json_flag):
    message = "error: the germ of 0 is zero at every point, so it is neither a unit nor irreducible\n"
    for argv in (("analyze", "--poly", "0", "--point", "0"),
                 ("scan", "--poly", "0", "--point", "0,0", "--curve", "t,0")):
        assert run(*argv, *json_flag) == (1, "", message)
    # prepare asks for the preparation itself, and keeps its regularity message
    code, out, err = run("prepare", "--poly", "0", "--point", "0", *json_flag)
    assert (code, out) == (1, "")
    assert err == "error: regularity is undefined for the zero polynomial\n"


def test_analyze_and_scan_take_no_distinguished_variable():
    # they always distinguish the last variable; prepare still takes --var
    code, out, err = run(
        "analyze", "--poly", "z1^2 - z2*z3^2", "--point", "0,0,0", "--var", "z1"
    )
    assert code == 1 and out == "" and err.startswith("usage error:")
    code, out, err = run(
        "scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0", "--curve", "t,0,0",
        "--var", "z1",
    )
    assert code == 1 and out == "" and err.startswith("usage error:")
    code, out, err = run("prepare", "--poly", "z1^2 - z2*z3^2", "--var", "z1")
    assert code == 0 and "distinguished variable: z1" in out


@pytest.mark.parametrize("argv", [
    ("analyze", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0"),
    ("scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0", "--curve", "t,0,0"),
    ("prepare", "--poly", "z2^2 - z1^3"),
    ("demo",),
])
def test_order_above_the_cap_is_an_error(argv):
    code, out, err = run(*argv, "--order", str(MAX_ORDER + 1))
    assert code == 1 and out == ""
    assert err.startswith("error: truncation order must be")
    assert err.endswith(f"at most {MAX_ORDER}\n")


SUBCOMMANDS = ("analyze", "scan", "prepare", "resultant", "discriminant", "coprime", "demo")


@pytest.mark.parametrize("argv", [(), *((name,) for name in SUBCOMMANDS)],
                         ids=["germkit", *SUBCOMMANDS])
def test_help_goes_to_the_given_stdout(argv):
    code, out, err = run(*argv, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(("usage: germkit", *argv)) + " ")
    if not argv:  # the top-level help lists every subcommand
        assert all(name in out for name in SUBCOMMANDS)


def test_version_goes_to_the_given_stdout():
    assert run("--version") == (0, f"germkit {__version__}\n", "")


def test_exponent_above_the_cap_is_a_parse_error():
    code, out, err = run("analyze", "--poly", f"z1^{MAX_EXPONENT + 1}", "--point", "0")
    assert code == 2 and out == ""
    assert f"expected an exponent of at most {MAX_EXPONENT}" in err


def test_oversized_expansion_is_a_parse_error_before_any_work():
    # (1+z1+...+z8)^32 would expand to about 77 million terms
    started = time.perf_counter()
    code, out, err = run("analyze", "--poly", "(1+z1+z2+z3+z4+z5+z6+z7+z8)^32",
                         "--point", "0,0,0,0,0,0,0,0")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert f"expected an expansion of at most {MAX_TERMS} terms" in err


@pytest.mark.parametrize("flag, value", [
    ("--point", "1e4000,0,0"),
    ("--poly", "1" * 5000 + "*z3^2 - z1*z2^2"),
])
def test_oversized_literals_are_parse_errors(flag, value):
    # "1e4000" is not a literal of the grammar, and a 5,000-digit number is
    # over the interpreter's default limit on integer-string conversion
    argv = {"--poly": "z3^2 - z1*z2^2", "--point": "0,0,0", flag: value}
    started = time.perf_counter()
    code, out, err = run("analyze", *[a for kv in argv.items() for a in kv])
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: ")


def test_a_degree_past_the_one_variable_budget_is_an_error_not_a_hang():
    # each exponent literal is within the parser's cap, but z1 has degree 32768:
    # the shift to z1 = 1 is refused before any dense row is built
    poly = "((z1^32)^32)^32+z2^2"
    started = time.perf_counter()
    code, out, err = run("analyze", "--poly", poly, "--point", "1,0")
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert err.startswith(f"error: degree 32768 in z1 is above {MAX_VARIABLE_DEGREE}, ")
    # at the origin nothing is shifted, and the germ is still decided
    code, out, _ = run("analyze", "--poly", poly, "--point", "0,0")
    assert code == 0 and "status: SingularReducible" in out.splitlines()


def test_a_curve_degree_past_the_one_variable_budget_is_an_error_not_a_hang():
    # a sample with t != 0 evaluates the moving coordinate by Horner, under the budget
    scan = ("scan", "--poly", "z3^2-z1*z2^2", "--point", "0,0,0", "--curve")
    # and the error names t and the coordinate, not the z-variable of that slot
    for curve, k in (("((t^32)^32)^2,0,0", 1), ("0,0,((t^32)^32)^2", 3)):
        code, out, err = run(*scan, curve, "--t", "1/2")
        assert code == 1 and out == ""
        assert err.startswith(
            f"error: degree 2048 in t (curve coordinate {k}) is above {MAX_VARIABLE_DEGREE}, ")
    # degree 2^25 is refused before any power of 3 is formed
    started = time.perf_counter()
    code, out, _ = run(*scan, "(((((t^32)^32)^32)^32)^32),0,0", "--t", "1/3")
    assert time.perf_counter() - started < 2.0
    assert code == 1 and out == ""
    # at t = 0 nothing is substituted
    for curve in ("((t^32)^32)^2,0,0", "0,0,((t^32)^32)^2"):
        code, out, _ = run(*scan, curve, "--t", "0")
        assert code == 0 and "verdict: Inconclusive" in out.splitlines()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no integer-string limit")
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_result_over_the_integer_string_limit_is_a_germkit_error(json_flag):
    # z1^32 + 1 at a 200-digit point is a value of about 6,400 digits
    code, out, err = run("analyze", "--poly", "z1^32+1", "--point", "9" * 200, *json_flag)
    assert code == 1 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"error: the result holds a number of more than {limit} digits")
    assert "sys.get_int_max_str_digits()" in err and "Exceeds" not in err


def test_curve_parse_errors_name_t():
    code, _, err = run("scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0",
                       "--curve", "t^t,0,0")
    assert code == 2
    assert err == "parse error: expected a natural-number exponent, found 't' at offset 2\n"


def test_exit_code_0_on_undetermined():
    code, out, _ = run(
        "analyze", "--poly", "z3^2 + z3^3 - z1*z2^2", "--point", "0,0,0"
    )
    assert code == 0
    assert "status: Undetermined" in out


def test_point_and_poly_dimensions_must_be_reconcilable():
    code, _, err = run("analyze", "--poly", "z3^2 - z1*z2^2", "--point", "0,0")
    assert code == 1 and err == "error: point has 2 coordinates, expected 3\n"  # not syntax
    code, out, _ = run("analyze", "--poly", "z1^2", "--point", "0,0,0")
    assert code == 0  # lower-dimensional poly widens to the point's space


def test_order_flag_changes_truncation():
    code, out, _ = run(
        "analyze", "--poly", "z3^2 - z1*z2^2", "--point", "1,0,0", "--order", "4",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    factors = [poly_from_terms(3, terms) for terms in doc["result"]["factors"]]
    assert max(sum(m) for m, _ in factors[0].terms()) <= 4


def test_coprime_json_reports_null_when_no_shear_was_needed():
    code, out, _ = run(
        "coprime", "--g", "z3^2 - z1*z2^2", "--h", "2*z3", "--point", "0,0,0", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["applied_change"] is None
    # z1*(z1 + z2) vanishes on the z2 axis, so z1 <- z1 + z2 is needed
    code, out, _ = run("coprime", "--g", "z1", "--h", "z1 + z2", "--point", "0,0", "--json")
    assert code == 0
    assert json.loads(out)["result"]["applied_change"] == ["1", "0"]


def test_coprime_point_widens_the_inputs():
    code, out, err = run("coprime", "--g", "z1", "--h", "z2", "--point", "0,0,0")
    assert code == 0 and err == ""
    assert "eliminated variable: z3" in out
    assert "germs coprime at the point: yes" in out
    code, out, err = run("coprime", "--g", "z1*z3", "--h", "z2", "--point", "0,0")
    assert code == 1 and out == ""
    assert "point has 2 coordinates, expected 3" in err


def test_regularity_order_above_the_order_is_undetermined_not_an_error():
    # in three variables a Weierstrass degree above 2 is outside the fragment
    code, out, err = run("analyze", "--poly", "z3^9 + z1^9 + z2^9", "--point", "0,0,0")
    assert code == 0 and err == ""
    assert "status: Undetermined" in out
    assert "reason: Weierstrass degree >= 3 in dimension >= 3" in out
    code, out, err = run(
        "scan", "--poly", "z3^9 + z2^9 - z1^9*(z1-1)", "--point", "0,0,0",
        "--curve", "t,0,0", "--t", "1,2",
    )
    assert code == 0 and err == ""
    assert "base status: Undetermined" in out
    assert "t = 1: point (1, 0, 0), on locus, SmoothIrreducible" in out
    assert "verdict: Inconclusive" in out
    # prepare was asked for the data itself, so it still refuses
    code, out, err = run("prepare", "--poly", "z3^9 + z1^9 + z2^9", "--point", "0,0,0")
    assert code == 1 and out == ""
    assert "truncation order 8 is below the regularity order 9" in err


def test_shear_invariant_kernel_is_regularized_by_every_command():
    # no shear (s, s^2) makes z1^2*z3 - z2*z3^2 regular in z3; z2 <- z2 + z3 does
    poly = "z1^2*z3 - z2*z3^2"
    code, out, err = run("analyze", "--poly", poly, "--point", "0,0,0")
    assert code == 0 and err == ""
    assert "status: SingularReducible" in out
    assert "shear: z2 <- z2 + 1*z3\n" in out
    assert "certificate: DistinguishedVarDivides(variable = z3, multiplicity = 1)" in out
    code, out, err = run("analyze", "--poly", poly, "--point", "0,0,0", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["applied_change"] == ["0", "1", "0"]
    code, out, err = run(
        "scan", "--poly", poly, "--point", "0,0,0", "--curve", "t,0,0", "--t", "1,2"
    )
    assert code == 0 and err == ""
    assert "base status: SingularReducible" in out
    assert "verdict: Inconclusive" in out
    assert "reason: the base germ is not irreducible (SingularReducible)" in out
    code, out, err = run("prepare", "--poly", poly, "--point", "0,0,0")
    assert code == 0 and err == ""
    assert "degree d = 3\n" in out and "u*w agrees with f through total degree 8: yes" in out
    code, out, err = run("coprime", "--g", poly, "--h", "z3 - z1", "--point", "0,0,0")
    assert code == 0 and err == ""
    assert "shear: z2 <- z2 + 1*z3\n" in out


def test_scan_reports_off_locus_samples_in_text_and_json():
    # (t, t, 0) leaves the zero locus of z3^2 - z1*z2^2 at every t != 0
    scan = ("scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0",
            "--curve", "t,t,0", "--t", "1,-1/3")
    code, out, err = run(*scan)
    assert code == 0 and err == ""
    assert out.splitlines()[-4:] == [
        "t = 1: point (1, 1, 0), off locus, Unit",
        "t = -1/3: point (-1/3, -1/3, 0), off locus, Unit",
        "verdict: Inconclusive",
        "reason: no sample with t != 0 lies on the zero locus",
    ]
    code, out, err = run(*scan, "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["samples"] == [
        {"t": "1", "point": ["1", "1", "0"], "on_locus": False, "status": "Unit"},
        {"t": "-1/3", "point": ["-1/3", "-1/3", "0"], "on_locus": False, "status": "Unit"},
    ]
    assert result["verdict"] == "Inconclusive" and result["witness_t"] is None
    assert result["reason"] == "no sample with t != 0 lies on the zero locus"


def test_prepare_reports_its_shear_in_text_and_json():
    prepare = ("prepare", "--poly", "z1^2*z3 - z2*z3^2", "--point", "0,0,0")
    code, out, err = run(*prepare)
    assert code == 0 and err == ""
    assert out.splitlines()[2:7] == [
        "distinguished variable: z3",
        "order = 8",
        "shear: z2 <- z2 + 1*z3",
        "degree d = 3",
        "w = -z1^2*z3 + z2*z3^2 + z3^3",
    ]
    code, out, err = run(*prepare, "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert list(result) == [
        "degree", "distinguished_var", "order", "applied_change", "weierstrass_polynomial",
        "coefficients", "unit", "multiply_back_ok",
    ]
    assert result["applied_change"] == ["0", "1", "0"]
    assert result["degree"] == 3 and result["distinguished_var"] == 3
    assert result["multiply_back_ok"] is True



@pytest.mark.parametrize("argv", [
    ("--poly", "z2+z1^2"),  # d = 1
    ("--poly", "z3^2-z1*z2^2+z3^3"),
    ("--poly", "(1+z1+z2+z3)*(z3^2-z1^3-z2^3)+z3^5+290920/1185921",
     "--point", "2/3,-5/11,0", "--order", "8"),
])
def test_prepare_coefficients_are_the_rows_of_w(argv):
    # e_i, in JSON and in text, is the coefficient of z_j^(d-i) in w, read off w's own terms
    code, out, err = run("prepare", *argv, "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    d, j = result["degree"], result["distinguished_var"]
    w_terms = result["weierstrass_polynomial"]
    n = len(w_terms[0][0])
    rows = [poly_from_terms(n, [(m[:j - 1] + [0] + m[j:], c) for m, c in w_terms
                                if m[j - 1] == d - i]) for i in range(1, d + 1)]
    assert [poly_from_terms(n, e) for e in result["coefficients"]] == rows
    code, out, err = run("prepare", *argv)
    assert code == 0 and err == ""
    lines = [line for line in out.splitlines() if line.startswith("e_")]
    assert lines == [f"e_{i} = {format_poly(e)}" for i, e in enumerate(rows, start=1)]

# -- flag values and streams ---------------------------------------------------------


@pytest.mark.parametrize("argv, expected", [
    (("analyze", "--poly", "z3^2 - z1*z2^2", "--point", "-1,0,0"), "point = (-1, 0, 0)"),
    (("scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0", "--curve", "t,0,0",
      "--t", "-1,2"), "t = -1: point (-1, 0, 0), on locus, SingularReducible"),
    (("analyze", "--poly", "-z1^2 + z2^2", "--point", "0,0"), "status: SingularReducible"),
    (("analyze", "--poly", "-z1^2+z2^2", "--point", "0,0"), "status: SingularReducible"),
])
def test_flag_value_may_start_with_a_minus(argv, expected):
    code, out, err = run(*argv)
    assert code == 0 and err == ""
    assert expected in out


def test_closed_stdout_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        proc = python_with_src(
            "-m", "germkit", "analyze", "--poly", "z3^2 - z1*z2^2", "--point=-1,0,0",
            stdout=write_end,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr == ""


def test_importing_the_library_leaves_the_cli_unloaded():
    proc = python_with_src(
        "-c", "import sys, germkit; print('germkit.cli' in sys.modules)",
        stdout=subprocess.PIPE,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_exported_name_resolves_on_import():
    # `from germkit import *` fails on any name in __all__ the package lacks
    proc = python_with_src(
        "-c", "import germkit; from germkit import *; "
        "print(len(germkit.__all__), len(set(germkit.__all__)))",
        stdout=subprocess.PIPE,
    )
    assert proc.returncode == 0, proc.stderr
    listed, distinct = proc.stdout.split()
    assert listed == distinct


def test_the_whole_library_loads_neither_dataclasses_nor_inspect():
    proc = python_with_src(
        "-c", "import sys; from germkit import *; "
        "print(*sorted({'dataclasses', 'inspect', 'germkit.germs'} & set(sys.modules)))",
        stdout=subprocess.PIPE,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["germkit.germs"]  # every module was imported


# A fresh interpreter runs one command through run_cli and prints its exit code
# and every module the import and the run loaded, one word each.
FOOTPRINT = """
import io, sys
before = set(sys.modules)
from germkit.cli import run_cli
code = run_cli(sys.argv[1:], io.StringIO(), io.StringIO())
print(code, *sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("argv, unloaded", [
    (("discriminant", "--poly", "z2^2 - z1", "--var", "z2"), {"germkit.germs", "json"}),
    (("resultant", "--f", "z2^2 - z1", "--g", "z2 - z1", "--var", "z2"),
     {"germkit.germs", "json"}),
    (("coprime", "--g", "z3^2 - z1*z2^2", "--h", "z3 - z1"), {"germkit.germs", "json"}),
    (("prepare", "--poly", "z3^2 - z1*z2^2 + z3^3"),
     {"germkit.germs", "germkit.elimination", "json"}),
    (("analyze", "--poly", "z3^2 - z1*z2^2", "--point", "1,0,0"),
     {"germkit.elimination", "json"}),
    (("scan", "--poly", "z3^2 - z1*z2^2", "--point", "0,0,0", "--curve", "t,0,0"),
     {"germkit.elimination", "json"}),
    (("demo",), {"germkit.elimination", "json"}),
    (("demo", "--json"), {"germkit.elimination"}),
])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, unloaded):
    proc = python_with_src("-c", FOOTPRINT, *argv, stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert "germkit.weierstrass" in loaded  # the probe sees what the run imports
    # results are germkit records: no subcommand pays for importing dataclasses
    assert not (unloaded | {"dataclasses", "inspect"}) & set(loaded)
    assert ("json" in loaded) == ("--json" in argv)


def test_every_exported_name_is_its_defining_modules_object():
    import germkit

    for name in germkit.__all__[1:]:  # after __version__, which the package defines
        value = getattr(germkit, name)
        assert getattr(germkit, name) is value, name  # the first use, then the kept name
        owner = "germkit.algebra" if name == "Point" else value.__module__  # Point is tuple
        assert vars(importlib.import_module(owner))[name] is value, name
    assert set(germkit.__all__) <= set(dir(germkit))


if __name__ == "__main__":
    README_CLI.mkdir(exist_ok=True)
    for name, out in readme_cli_transcripts().items():
        (README_CLI / name).write_text(out)
