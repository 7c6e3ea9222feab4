"""CLI subcommands: report structure, exit codes, determinism, round trips."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sharpmap import cli
from sharpmap.polynomial import Polynomial, is_map_polynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def passed_all(report):
    return all(a["passed"] for a in report["assertions"])


class TestFamily:
    def test_f7(self, capsys):
        code, report = run(capsys, "family", "f", "--degree", "7")
        assert code == 0
        assert passed_all(report)
        assert len(report["outputs"]["poly"]["terms"]) == 5
        assert report["assertions"]  # never empty for verification commands

    def test_even(self, capsys):
        code, report = run(capsys, "family", "even", "--k", "3")
        assert code == 0 and passed_all(report)
        assert len(report["outputs"]["polys"]) == 3


class TestConstruct:
    @pytest.mark.parametrize("argv", [
        ("construct", "q", "--degree", "7"),
        ("construct", "h", "--m", "3"),
        ("construct", "mod6", "--k", "2"),
        ("construct", "ratio4", "--r", "5", "--s", "1"),
    ])
    def test_constructions_pass(self, capsys, argv):
        code, report = run(capsys, *argv)
        assert code == 0 and passed_all(report)
        assert "replacement" in report["outputs"]
        assert report["outputs"]["replacement"]["consumed"]

    def test_invalid_degree_is_usage_error(self, capsys):
        code = cli.main(["construct", "q", "--degree", "9"])
        assert code == cli.EXIT_USAGE


# The construct h, mod6 and ratio4 reports and q(97) whose hashes
# bench/reference.json pins, read from that file, so a byte change in any of
# them fails here and not only in the benchmark.  The benchmark hashes a
# report without its "timing_seconds" line, as report_digest does; a
# construct report has no "elapsed_seconds".
BENCH_CONSTRUCT_PINS = {
    tuple(op.split()): pin
    for op, pin in json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text()
    )["construct"].items()
    if op.split()[:2] in (["construct", "h"], ["construct", "mod6"], ["construct", "ratio4"])
    or op == "construct q --degree 97"
}

# SHA-256 of each report's stdout without its "timing_seconds" line and with
# the value of "elapsed_seconds" blanked.
PINNED_REPORTS = {
    **{argv: pin["sha256"] for argv, pin in BENCH_CONSTRUCT_PINS.items()},
    # the second ratio-4 site, degree 373
    ("construct", "ratio4", "--r", "186", "--s", "54"):
        "a88dc7de7bd351ba749a5ab2eee91dd898eeeef2fff0adae46cbeb9841abc516",
    ("family", "f", "--degree", "8"):
        "04692b8796f875f1e2bedda867c7e44dfe1bb9722ecdf368337e96bb0320f67d",
    ("family", "f", "--degree", "1351"):
        "110eeb1e932191828775fc140102c7e1ffbf87e6f6c950cd2e9ccde2b75b8e65",
    # without --r the report still echoes "r": 1
    ("signature", "--recipe", "two_minus_s"):
        "f178c5e831287e80316d599ab5a57f5814974a51a30e302d32f879b96e91a97d",
    ("signature", "--recipe", "f_odd"):
        "acb0e78c6fb8d903b65b7bfe07defb124629f5e7da2de3f4345322578e7dd703",
    ("signature", "--recipe", "f_odd", "--r", "3"):
        "5e7140f09e240ba97a4c3761d4fd0cedf652e6a26d7b540ce0ce539008386d66",
    ("pell", "--lambda", "12", "--count", "5"):
        "584f084a2089a15156b00ce60e675fa1193631300274fdc197acf7d361952ae6",
    ("search", "--degree", "5"):
        "c61ddfb0eacf493107802b3386c67d68da4b854178cce3f794146ad97ed57885",
    # polytope witnesses: freedoms of 1 among the points
    ("search", "--degree", "4", "--terms", "5"):
        "a62462857381dd328873be0b6cf591dc392dcd3f656506f5ae6fdc8cdfc9367b",
    ("construct", "q", "--degree", "1351"):
        "e01c00520bae8555042386e98cd445e56a4a12a8e5f8a9510b897d6bc3d72e26",
    ("gaps", "witness", "--n", "6", "--N", "38"):
        "dc226f51a036a8a73a77fbd54c7091fc88611ac4d089cf3641a949c6c2d4a360",
    # f121.json holds f(121); the path is relative, so it is the same in every run
    ("verify", "--file", "f121.json"):
        "572fedf42976ec78eb656253bc735ee84ea5bc6478ff9bc63b769f72a8b1f2de",
    ("map", "--file", "f121.json", "--samples", "1000", "--seed", "1234"):
        "7b9aa4e79e619a59885d3c639b49a22e909fe41560c8d492c7621d38e6e9f074",
    # f1351.json holds f(1351): scaled big-coefficient terms and their components JSON
    ("map", "--file", "f1351.json", "--samples", "20", "--seed", "1234"):
        "325070dd1cfa2ea5e44c28572ac759386e25526e3c4e743a62f92707bca6224b",
    ("family", "even", "--k", "4"):
        "ced52ff7047749fbda719dbe40a6cbea9cedb7024e172413c9d602b6f819cade",
    # append_negative applied to the constant 1 in three variables
    ("signature", "--recipe", "append_negative", "--n", "3"):
        "3d9356e5d1c16b5f465822e43dae4181b6206ec359064a006ed0bf3b632c72f1",
    # uniqueness fails at d = 7: three classes, a conclusive exit 1
    ("search", "--degree", "7"):
        "d9058390f5702560f01c37b6616164535a45641daf4a4176e00bc24d621883bf",
}
# the exit code of a pinned report other than EXIT_OK
PINNED_EXIT_CODES = {("search", "--degree", "7"): cli.EXIT_ASSERTION}


def report_digest(out: str) -> str:
    """SHA-256 of a report with its timing values blanked."""
    out = re.sub(r',\n  "timing_seconds": [^\n]*', "", out, count=1)
    out = re.sub(r'("elapsed_seconds": )[^\n]*', r"\1", out)
    return hashlib.sha256(out.encode()).hexdigest()


def test_the_bench_reference_pins_every_construct_kind():
    assert Counter(argv[1] for argv in BENCH_CONSTRUCT_PINS) == \
        {"h": 29, "mod6": 20, "ratio4": 1, "q": 1}
    assert all(pin["exit"] == cli.EXIT_OK for pin in BENCH_CONSTRUCT_PINS.values())


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv):
    from sharpmap import f
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f121.json").write_text(json.dumps(f(121).to_json_dict()))
    if "f1351.json" in argv:
        (tmp_path / "f1351.json").write_text(json.dumps(f(1351).to_json_dict()))
    assert cli.main(list(argv)) == PINNED_EXIT_CODES.get(argv, cli.EXIT_OK)
    assert report_digest(capsys.readouterr().out) == PINNED_REPORTS[argv]


class TestPell:
    def test_lambda_12(self, capsys):
        code, report = run(capsys, "pell", "--lambda", "12", "--count", "5")
        assert code == 0 and passed_all(report)
        assert [s["d"] for s in report["outputs"]["solutions"]] == \
            ["7", "97", "1351", "18817", "262087"]

    def test_generalized(self, capsys):
        code, report = run(capsys, "pell", "--general-d", "8", "--general-n", "-7",
                           "--b-bound", "64")
        assert code == 0 and passed_all(report)
        assert [s["b"] for s in report["outputs"]["solutions"]] == \
            ["1", "2", "4", "11", "23", "64"]

    def test_generalized_bound_far_past_any_scan(self, capsys):
        # listed by class under the unit 3 + sqrt(8), not by testing each b
        code, report = run(capsys, "pell", "--general-d", "8", "--general-n", "-7",
                           "--b-bound", str(10 ** 40))
        assert code == 0 and passed_all(report)
        pairs = [(int(s["a"]), int(s["b"])) for s in report["outputs"]["solutions"]]
        assert len(pairs) > 100
        assert all(a * a - 8 * b * b == -7 and 0 < b <= 10 ** 40 for a, b in pairs)

    def test_decimal_strings_past_the_conversion_cap(self, capsys):
        # CPython caps int/str conversion at 4,300 digits by default; main
        # lifts the cap while it runs and puts it back
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = cap()
        code, report = run(capsys, "pell", "--count", "3800")
        assert cap() == before
        assert code == 0 and passed_all(report)
        ds = [s["d"] for s in report["outputs"]["solutions"]]
        assert len(ds[-1]) > 4300
        assert ds[:5] == ["7", "97", "1351", "18817", "262087"]

    @pytest.mark.parametrize("argv, option", [
        (("--general-d", "4", "--general-n", "1"), "--general-d (D)"),
        (("--general-d", "0", "--general-n", "1"), "--general-d (D)"),
        (("--general-d", "8", "--general-n", "-7", "--b-bound", "0"), "--b-bound"),
        (("--general-d", "8", "--general-n", "0"), "--general-n (N)"),
        (("--lambda", "4"), "--lambda"),
        (("--lambda", "1"), "--lambda"),
        (("--lambda", "-3", "--count", "2"), "--lambda"),
    ])
    def test_general_usage_error_names_the_option(self, capsys, argv, option):
        code = cli.main(["pell", *argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {option} must ")

    @pytest.mark.parametrize("argv, flag", [
        (("--general-d", "8", "--general-n", "-7", "--count", "3"), "--count"),
        (("--general-d", "8", "--general-n", "-7", "--lambda", "5"), "--lambda"),
        (("--b-bound", "3", "--count", "2"), "--b-bound"),
    ])
    def test_flag_of_the_other_mode_is_refused(self, capsys, argv, flag):
        code = cli.main(["pell", *argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag} ")
        assert "--general-d" in lines[0]

    def test_unset_flags_echo_their_defaults(self, capsys):
        _, report = run(capsys, "pell")
        assert report["inputs"] == {"lambda": 12, "count": 5}
        _, report = run(capsys, "pell", "--general-d", "8", "--general-n", "-7")
        assert report["inputs"] == {"D": 8, "N": -7, "b_bound": 64}


class TestSearch:
    def test_degree_3_unique(self, capsys):
        code, report = run(capsys, "search", "--degree", "3")
        assert code == 0
        assert report["outputs"]["result"]["status"] == "unique"

    def test_degree_7_fails_exit_code(self, capsys):
        code, report = run(capsys, "search", "--degree", "7")
        assert code == cli.EXIT_ASSERTION
        assert report["outputs"]["result"]["status"] == "fails"
        assert len(report["outputs"]["result"]["distinct_polynomials"]) >= 3

    def test_budget_exhaustion_exit_code(self, capsys):
        code, report = run(capsys, "search", "--degree", "9",
                           "--budget-seconds", "0.05")
        assert code == cli.EXIT_BUDGET
        assert report["outputs"]["result"]["status"] == "unknown"

    def test_budget_exhaustion_with_fixed_terms(self, capsys):
        code, report = run(capsys, "search", "--degree", "4", "--terms", "10",
                           "--budget-seconds", "0.5")
        assert code == cli.EXIT_BUDGET
        assert report["outputs"]["exhaustive"] is False

    def test_fixed_terms(self, capsys):
        code, report = run(capsys, "search", "--degree", "5", "--terms", "4")
        assert code == 0 and passed_all(report)
        assert len(report["outputs"]["witnesses"]) == 1

    @pytest.mark.parametrize("argv", [("--degree", "0"), ("--degree", "-1"),
                                      ("--degree", "-3", "--terms", "1")])
    def test_nonpositive_degree_is_usage_error(self, capsys, argv):
        code = cli.main(["search", *argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [f"error: degree must be positive, got {argv[1]}"]

    def test_zero_budget_is_valid_and_exhausts(self, capsys):
        code, report = run(capsys, "search", "--degree", "3", "--budget-seconds", "0")
        assert code == cli.EXIT_BUDGET
        assert report["outputs"]["result"]["status"] == "unknown"

    @pytest.mark.parametrize("extra", [(), ("--terms", "3"), ("--budget-seconds", "0")])
    @pytest.mark.parametrize("shards", ["0", "-2"])
    def test_shards_below_one_is_usage_error(self, capsys, shards, extra):
        code = cli.main(["search", "--degree", "3", "--shards", shards, *extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestGapsAndSignature:
    def test_witness(self, capsys):
        code, report = run(capsys, "gaps", "witness", "--n", "4", "--N", "10")
        assert code == 0 and passed_all(report)
        assert report["outputs"]["witness"]["j"] == 2

    def test_gap_value_is_usage_error(self, capsys):
        assert cli.main(["gaps", "witness", "--n", "4", "--N", "9"]) == cli.EXIT_USAGE

    def test_unreached_count_is_not_called_a_gap(self, capsys):
        # x1 + x2 + (x3 + x4)(x1 + x2 + x3 + x4) has 9 terms in 4 variables,
        # so N = 9 is no gap for n = 4, though V^k W^j s does not reach it
        x = [Polynomial.variable(4, i) for i in range(4)]
        p = x[0] + x[1] + (x[2] + x[3]) * (x[0] + x[1] + x[2] + x[3])
        assert is_map_polynomial(p) and p.term_count() == 9
        code = cli.main(["gaps", "witness", "--n", "4", "--N", "9"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "gap" not in lines[0]

    def test_table(self, capsys):
        code, report = run(capsys, "gaps", "table", "--n", "4", "--to", "14")
        assert code == 0 and passed_all(report)
        rows = {r["N"]: r["representable"] for r in report["outputs"]["rows"]}
        assert rows[9] is False and rows[10] is True
        assert report["outputs"]["threshold"] == 10

    def test_signature(self, capsys):
        code, report = run(capsys, "signature", "--recipe", "two_minus_s", "--n", "2")
        assert code == 0 and passed_all(report)
        sig = report["outputs"]["witness"]["signature"]
        assert (sig["n_plus"], sig["n_minus"]) == (1, 2)

    @pytest.mark.parametrize("recipe", ["f_odd", "two_minus_f_odd"])
    def test_two_variable_recipe_rejects_other_n(self, capsys, recipe):
        code = cli.main(["signature", "--recipe", recipe, "--n", "4"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--n" in lines[0]

    @pytest.mark.parametrize("recipe", ["two_minus_s", "two_s_minus_one",
                                        "one_plus_x_times", "one_minus_x_times",
                                        "append_negative"])
    def test_recipe_without_r_rejects_r(self, capsys, recipe):
        code = cli.main(["signature", "--recipe", recipe, "--r", "7"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--r" in lines[0]


# the text of each malformed file
MALFORMED_FILES = {name: json.dumps(data) for name, data in {
    "zero_denominator": {"nvars": 2, "terms": [{"exp": [1, 0], "coeff": "1/0"}]},
    "missing_nvars": {"terms": [{"exp": [1, 0], "coeff": "1/1"}]},
    "top_level_list": [{"exp": [1, 0], "coeff": "1/1"}],
    "float_coeff": {"nvars": 2, "terms": [{"exp": [1, 0], "coeff": 1.5}]},
    "string_nvars": {"nvars": "2", "terms": []},
    "string_exponent": {"nvars": 2, "terms": [{"exp": ["1", 0], "coeff": "1/1"}]},
    "terms_not_a_list": {"nvars": 2, "terms": 5},
    "bool_exponent": {"nvars": 2, "terms": [{"exp": [True, 0], "coeff": "1/1"},
                                            {"exp": [0, 1], "coeff": 1}]},
    "bool_nvars": {"nvars": True, "terms": [{"exp": [1], "coeff": 1}]},
}.items()}
# too deep for the JSON parser, which raises RecursionError
MALFORMED_FILES["deeply_nested"] = "[" * 100_000 + "]" * 100_000


class TestVerifyAndMap:
    @pytest.mark.parametrize("command", ["verify", "map"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, command, name):
        path = tmp_path / "poly.json"
        path.write_text(MALFORMED_FILES[name])
        code = cli.main([command, "--file", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "-1"])
    @pytest.mark.parametrize("source", ["budget_flag", "tolerance"])
    def test_non_finite_float_is_usage_error(self, capsys, tmp_path, source, value):
        from sharpmap import q
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(q(7).to_json_dict()))
        argv = {"budget_flag": ["search", "--degree", "3", f"--budget-seconds={value}"],
                "tolerance": ["map", "--file", str(path), f"--tolerance={value}"]}[source]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        option = {"budget_flag": "--budget-seconds", "tolerance": "--tolerance"}[source]
        assert len(lines) == 1 and lines[0].startswith(f"error: {option} must ")

    def test_verify_round_trip(self, capsys, tmp_path):
        from sharpmap import q
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(q(7).to_json_dict()))
        code, report = run(capsys, "verify", "--file", str(path),
                           "--expect-degree", "7", "--expect-terms", "5")
        assert code == 0 and passed_all(report)
        # emitted JSON re-parses to the identical canonical polynomial
        assert Polynomial.from_json_dict(report["outputs"]["poly"]) == q(7)

    def test_verify_wrong_expectation(self, capsys, tmp_path):
        from sharpmap import f
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(f(5).to_json_dict()))
        code, report = run(capsys, "verify", "--file", str(path),
                           "--expect-terms", "99")
        assert code == cli.EXIT_ASSERTION

    def test_map_residual(self, capsys, tmp_path):
        from sharpmap import f
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(f(7).to_json_dict()))
        code, report = run(capsys, "map", "--file", str(path),
                           "--samples", "200", "--seed", "11")
        assert code == 0 and passed_all(report)
        assert report["outputs"]["max_residual"] <= 1e-10

    def test_map_residual_bits(self, capsys, tmp_path):
        # a compensated norm (sum() on CPython 3.12 and later) would read 2**-53
        code, report = run(capsys, "gaps", "witness", "--n", "3", "--N", "3")
        assert code == 0
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(report["outputs"]["witness"]["poly"]))
        code, report = run(capsys, "map", "--file", str(path),
                           "--samples", "200", "--seed", "2")
        assert code == 0 and passed_all(report)
        assert report["outputs"]["max_residual"] == 2 ** -52

    def test_map_rejects_non_member(self, capsys, tmp_path):
        p = Polynomial(2, {(1, 0): 2, (0, 1): 2})
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(p.to_json_dict()))
        assert cli.main(["map", "--file", str(path)]) == cli.EXIT_USAGE


class TestReportContract:
    def test_determinism_modulo_timing(self, capsys):
        def normalized():
            code, report = run(capsys, "search", "--degree", "3")
            report.pop("timing_seconds")
            report["outputs"]["result"]["certificate"]["search_stats"].pop("elapsed_seconds")
            return report

        assert normalized() == normalized()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family", "f"])  # missing --degree
        assert exc.value.code == cli.EXIT_USAGE

    def test_assertions_never_empty(self, capsys):
        for argv in (["family", "f", "--degree", "3"],
                     ["pell", "--lambda", "12", "--count", "2"],
                     ["gaps", "witness", "--n", "2", "--N", "3"]):
            _, report = run(capsys, *argv)
            assert report["assertions"]


@pytest.mark.parametrize("argv, expected", [
    (("gaps", "table", "--n", "1", "--to", "3"), cli.EXIT_USAGE),
    (("gaps", "witness", "--n", "0", "--N", "3"), cli.EXIT_USAGE),
    (("signature", "--recipe", "two_minus_s", "--n", "0"), cli.EXIT_USAGE),
    (("signature", "--recipe", "f_odd", "--r", "0"), cli.EXIT_USAGE),
    (("signature", "--recipe", "two_minus_f_odd", "--r", "0"), cli.EXIT_USAGE),
    (("family", "even", "--k", "0"), cli.EXIT_USAGE),
    # N + D b^2 <= 0 for every b: no solution, which is not an error
    (("pell", "--general-d", "2", "--general-n", "-100", "--b-bound", "3"), cli.EXIT_OK),
    # refused by the O(1) site check, without scanning up to r
    (("construct", "ratio4", "--r", "1000000000", "--s", "1"), cli.EXIT_USAGE),
    # an empty table would pass its one assertion with no rows to check
    (("gaps", "table", "--n", "3", "--to", "1"), cli.EXIT_USAGE),
])
def test_exit_code_contract_at_the_edges(capsys, argv, expected):
    assert cli.main(list(argv)) == expected
    captured = capsys.readouterr()
    if expected == cli.EXIT_USAGE:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    else:
        assert json.loads(captured.out)["outputs"]["solutions"] == []


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_survives_errors(self, capsys):
        assert cli.main(["search", "--degree", "0"]) == cli.EXIT_USAGE
        for argv in (["search"], ["pell", "--general-d", "8"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == cli.EXIT_USAGE
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "usage: sharpmap" in helps[0]
        argv = ("family", "f", "--degree", "8")
        assert cli.main(list(argv)) == cli.EXIT_OK
        assert report_digest(capsys.readouterr().out) == PINNED_REPORTS[argv]


class TestEntryPoint:
    """``python -m sharpmap`` as a process: the exit code is the contract."""

    @pytest.mark.parametrize("argv, expected", [
        (("family", "f", "--degree", "3"), cli.EXIT_OK),
        (("search", "--degree", "7"), cli.EXIT_ASSERTION),
        (("search", "--degree", "0"), cli.EXIT_USAGE),
        (("search", "--degree", "9", "--budget-seconds", "0.05"), cli.EXIT_BUDGET),
    ])
    def test_exit_code(self, argv, expected):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "sharpmap", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, proc.stderr
        if expected == cli.EXIT_USAGE:
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
        else:
            assert json.loads(proc.stdout)["assertions"]

    @pytest.mark.parametrize("module", ["sharpmap", "sharpmap.cli"])
    def test_module_prints_the_report_of_main(self, capsys, module):
        argv = ("family", "f", "--degree", "3")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert cli.main(list(argv)) == cli.EXIT_OK
        assert report_digest(proc.stdout) == report_digest(capsys.readouterr().out)

    def test_reader_that_leaves_early_keeps_the_exit_code(self):
        # the report (about 210 kB) outgrows the pipe, so the write meets the closed pipe
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        with subprocess.Popen([sys.executable, "-m", "sharpmap", "pell", "--count", "400"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == cli.EXIT_OK
        assert stderr == b""
