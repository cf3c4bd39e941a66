"""Command-line front end: exit codes and JSON reports."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylval
from weylval import BudgetExceeded, cli
from weylval.cli import main
from weylval.evaluate import DIGIT_WORK_BUDGET

from conftest import WORKED_JSON

ZERO_N_JSON = {"steps": [{"m": 1, "n": 0, "beta": "1"}]}


@pytest.fixture()
def desc_file(tmp_path):
    def write(data: dict) -> str:
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def run_process(argv, timeout):
    """`python -m weylval argv` as a process; a run past `timeout` fails the test."""
    src = str(Path(weylval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "weylval", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    return done.returncode, json.loads(done.stdout)


class TestValidationOnLoad:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--expr", "y"],
            ["residue", "--expr", "x*y^2"],
            ["sign", "--expr", "y"],
            ["orderings"],
            ["extend-check"],
            ["convert"],
            ["roundtrip", "--trials", "1"],
            ["sample-strongly-abelian", "--trials", "1"],
            ["shadow-compare", "--trials", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_malformed_descriptor_is_a_structured_error(self, capsys, desc_file, argv):
        # a command that ran on n = 0 would divide by zero
        code, report = run(capsys, argv[:1] + ["--desc", desc_file(ZERO_N_JSON)] + argv[1:])
        assert code == 1
        assert report["error"]["type"] == "DeclarationInconsistent"
        assert "StepShape: step 1: n must be >= 1" in report["error"]["detail"]

    def test_validate_still_lists_violations(self, capsys, desc_file):
        code, report = run(capsys, ["validate", "--desc", desc_file(ZERO_N_JSON)])
        assert code == 1
        assert report == {
            "violations": [{"rule": "StepShape", "detail": "step 1: n must be >= 1"}]
        }

    def test_validate_names_every_missing_sign(self, capsys, desc_file):
        data = {
            "steps": [{"m": 1, "n": 2**k, "beta": "1"} for k in (1, 2, 3)],
            "alpha_signs": [{"i": 1, "j": 2, "sign": 1}],
        }
        code, report = run(capsys, ["validate", "--desc", desc_file(data)])
        assert code == 1
        assert [v["detail"] for v in report["violations"]] == [
            "pair (1, 3) needs a stored residue-unit sign",
            "pair (2, 3) needs a stored residue-unit sign",
        ]

    def test_valid_descriptor_evaluates(self, capsys, desc_file):
        code, report = run(capsys, ["eval", "--desc", desc_file(WORKED_JSON), "--expr", "y"])
        assert code == 0
        assert report == {"value": {"q": "1/2", "k_xi": 0, "k_mu": 0}}


class TestSuccessReports:
    def test_validate(self, capsys, desc_file):
        assert run(capsys, ["validate", "--desc", desc_file(WORKED_JSON)]) == (0, {"violations": []})

    def test_residue(self, capsys, desc_file):
        argv = ["residue", "--desc", desc_file(WORKED_JSON), "--expr", "x*y^2"]
        assert run(capsys, argv) == (0, {"residue": "1"})

    def test_shadow_compare(self, capsys, desc_file):
        argv = ["shadow-compare", "--desc", desc_file(WORKED_JSON), "--trials", "20"]
        assert run(capsys, argv) == (0, {"trials": 20, "disagreements": []})

    def test_sample_strongly_abelian(self, capsys, desc_file):
        argv = ["sample-strongly-abelian", "--desc", desc_file(WORKED_JSON), "--trials", "20"]
        assert run(capsys, argv) == (0, {"trials": 20, "violations": []})


class TestZeroElement:
    def test_eval_is_infinity(self, capsys, desc_file):
        argv = ["eval", "--desc", desc_file(WORKED_JSON), "--expr", "0"]
        assert run(capsys, argv) == (0, {"value": "infinity"})

    def test_sign_needs_a_nonzero_element(self, capsys, desc_file):
        code, report = run(capsys, ["sign", "--desc", desc_file(WORKED_JSON), "--expr", "0"])
        assert code == 1
        assert report["error"]["type"] == "NonzeroRequired"

    def test_residue_needs_value_zero(self, capsys, desc_file):
        code, report = run(capsys, ["residue", "--desc", desc_file(WORKED_JSON), "--expr", "0"])
        assert code == 1
        assert report["error"] == {
            "type": "NonzeroValue",
            "detail": "element has value infinity, not 0",
        }


HALVING_JSON = {"steps": [], "tail": {"kind": "rule", "rule": "halving"}}


class TestNesting:
    @pytest.mark.parametrize(
        "text",
        ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"],
        ids=["parentheses", "unary_minus"],
    )
    def test_deep_expression_is_a_parse_error(self, capsys, desc_file, text):
        argv = ["eval", "--desc", desc_file(HALVING_JSON), f"--expr={text}"]
        code, report = run(capsys, argv)
        assert code == 1
        assert report["error"]["type"] == "ParseError"

    def test_hundred_parentheses_still_answer(self, capsys, desc_file):
        text = "(" * 100 + "x" + ")" * 100
        argv = ["eval", "--desc", desc_file(HALVING_JSON), "--expr", text]
        assert run(capsys, argv) == (0, {"value": {"q": "-1", "k_xi": 0, "k_mu": 0}})


def _terminal_value(**fields) -> dict:
    value = {**WORKED_JSON["tail"]["value"], **fields}
    return {**WORKED_JSON, "tail": {"kind": "irrational", "value": value}}


def _first_step(**fields) -> dict:
    steps = [{**WORKED_JSON["steps"][0], **fields}] + WORKED_JSON["steps"][1:]
    return {**WORKED_JSON, "steps": steps}


def _alpha_sign(**fields) -> dict:
    return {**WORKED_JSON, "alpha_signs": [{**WORKED_JSON["alpha_signs"][0], **fields}]}


MALFORMED_JSON = {
    "tail_number": {**WORKED_JSON, "tail": 5},
    "steps_number": {**WORKED_JSON, "steps": 5},
    "alpha_signs_number": {**WORKED_JSON, "alpha_signs": 3},
    "zero_scale": _terminal_value(scale="0"),
    "k_xi_text": _terminal_value(k_xi="a"),
    # a JSON boolean is not an integer, although Python's int() takes it
    "m_boolean": _first_step(m=True),
    "n_boolean": _first_step(n=True),
    "i_boolean": _alpha_sign(i=True),
    "j_boolean": _alpha_sign(j=True),
    "sign_boolean": _alpha_sign(sign=True),
    "k_xi_boolean": _terminal_value(k_xi=True),
    "k_mu_boolean": _terminal_value(k_mu=False),
    # nor is a JSON float, which int() would truncate
    "m_float": _first_step(m=1.7),
    "n_float": _first_step(n=2.0),
    "sign_float": _alpha_sign(sign=1.0),
    "k_xi_float": _terminal_value(k_xi=1.5),
}


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command", [["validate"], ["eval", "--expr", "y"]], ids=lambda c: c[0]
    )
    @pytest.mark.parametrize("shape", sorted(MALFORMED_JSON))
    def test_parse_error_not_traceback(self, capsys, desc_file, shape, command):
        argv = command[:1] + ["--desc", desc_file(MALFORMED_JSON[shape])] + command[1:]
        code, report = run(capsys, argv)
        assert code == 1
        assert report["error"]["type"] == "ParseError"

    def test_missing_file(self, capsys, tmp_path):
        code, report = run(capsys, ["validate", "--desc", str(tmp_path / "absent.json")])
        assert code == 1
        assert report["error"]["type"] == "ParseError"
        assert "cannot read descriptor file" in report["error"]["detail"]

    def test_file_that_is_not_json(self, capsys, tmp_path):
        path = tmp_path / "desc.json"
        path.write_text("steps: []")
        code, report = run(capsys, ["validate", "--desc", str(path)])
        assert code == 1
        assert report["error"]["type"] == "ParseError"
        assert "is not valid JSON" in report["error"]["detail"]

    def test_integer_too_long_to_read(self, capsys, tmp_path):
        path = tmp_path / "desc.json"
        path.write_text('{"steps": [{"m": 1, "n": 1%s, "beta": "1"}]}' % ("0" * 5000))
        code, report = run(capsys, ["validate", "--desc", str(path)])
        assert code == 1
        assert report["error"]["type"] == "ParseError"
        detail = report["error"]["detail"]
        assert "is not valid JSON" in detail and len(detail) <= len(str(path)) + 100

    def test_file_that_nests_too_deeply(self, capsys, tmp_path):
        # deeper than the JSON decoder's recursion limit on every Python
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, report = run(capsys, ["validate", "--desc", str(path)])
        assert code == 1
        assert report["error"]["type"] == "ParseError"
        assert str(path) in report["error"]["detail"]


NESTED = "[" * 900 + "]" * 900
LONG = json.dumps("x" * 100000)

# descriptor files whose errors once echoed the rejected input whole
ECHOING_INPUT = {
    "step_entry": '{"steps": [%s]}' % NESTED,
    "builtin_rule": '{"steps": [], "tail": {"kind": "rule", "rule": %s}}' % LONG,
    "value_object": '{"steps": [], "tail": {"kind": "irrational", "value": %s}}' % NESTED,
    "tail_kind": '{"steps": [], "tail": {"kind": %s}}' % LONG,
    "alpha_sign_entry": '{"steps": [], "alpha_signs": [%s]}' % NESTED,
    "rational_literal": '{"steps": [{"m": 1, "n": 2, "beta": %s}]}' % LONG,
    "integer_field": '{"steps": [{"m": [%s], "n": 2, "beta": "1"}]}' % LONG,
}


class TestErrorEcho:
    @pytest.mark.parametrize("shape", sorted(ECHOING_INPUT))
    def test_report_stays_small(self, capsys, tmp_path, shape):
        path = tmp_path / "desc.json"
        path.write_text(ECHOING_INPUT[shape])
        code = main(["validate", "--desc", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"
        assert len(out) < 500


class TestTrialCount:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("command", ["roundtrip", "sample-strongly-abelian", "shadow-compare"])
    def test_below_one_is_a_usage_error(self, capsys, desc_file, command, trials):
        # a check that ran no samples would report a pass
        with pytest.raises(SystemExit) as exc:
            main([command, "--desc", desc_file(WORKED_JSON), "--trials", trials])
        assert exc.value.code == 2
        assert "--trials: must be at least 1" in capsys.readouterr().err


class TestDepth:
    @pytest.mark.parametrize(
        "command", [["convert", "--sign-choice", "+1"], ["validate"], ["orderings"]],
        ids=lambda c: c[0],
    )
    def test_negative_is_a_usage_error(self, capsys, desc_file, command):
        # a conversion to depth -3 emitted 0 entries and exited 0
        with pytest.raises(SystemExit) as exc:
            main(command[:1] + ["--desc", desc_file(WORKED_JSON), "--depth", "-3"] + command[1:])
        assert exc.value.code == 2
        assert "--depth: must be at least 0" in capsys.readouterr().err

    def test_zero_keeps_its_meaning(self, capsys, desc_file):
        path = desc_file(WORKED_JSON)
        argv = ["convert", "--desc", path, "--depth", "0", "--sign-choice", "+1"]
        code, report = run(capsys, argv)
        assert code == 0
        assert report["z_sequence"] == {"entries": [], "tail": None}
        code, report = run(capsys, ["eval", "--desc", path, "--depth", "0", "--expr", "y"])
        assert code == 1
        assert report["error"]["type"] == "DepthExceeded"

    def test_below_the_rule_window(self, capsys, desc_file):
        # canonical representatives on a rule read its data window, which
        # does not count against the limit
        path = desc_file(HALVING_JSON)
        code, report = run(capsys, ["extend-check", "--desc", path, "--depth", "3"])
        assert code == 0
        assert report["extendable"] is True
        code, report = run(capsys, ["eval", "--desc", path, "--depth", "2", "--expr", "y"])
        assert code == 0
        assert report["value"]["q"] == "1/2"


HALVING_JSON = {"steps": [], "tail": {"kind": "rule", "rule": "halving"}}
CONSTANT131_JSON = {"steps": [], "tail": {"kind": "rule", "rule": "constant(1,3,1)"}}
# a valid bare prefix with m_1 < 0, every alpha sign stored as +1
M1_NEGATIVE_JSON = {
    "steps": [
        {"m": m, "n": n, "beta": str(beta)}
        for m, n, beta in ((-2, 3, 1), (1, 9, 19683), (1, 6, 64), (3, 7, 2187))
    ],
    "alpha_signs": [
        {"i": i, "j": j, "sign": 1} for i in range(1, 5) for j in range(i + 1, 5)
    ],
}


class TestStructuredLimits:
    def test_convert_past_the_gamma_window(self, capsys, desc_file):
        # depth 16 runs past the 2 roots of the data window; deeper roots
        # resolve on demand, and the entries sit at r_i = h_i
        for data, n in ((HALVING_JSON, 2), (CONSTANT131_JSON, 3)):
            path = desc_file(data)
            code, deep = run(capsys, ["convert", "--desc", path, "--depth", "16"])
            assert code == 0
            entries = deep["z_sequence"]["entries"]
            h = [sum(Fraction(1, n**k) for k in range(1, i + 1)) for i in range(1, 17)]
            assert [Fraction(e["r"]) for e in entries] == h
            code, shallow = run(capsys, ["convert", "--desc", path, "--depth", "9"])
            assert code == 0
            assert entries[:9] == shallow["z_sequence"]["entries"]

    @pytest.mark.parametrize(
        "argv", [["validate"], ["extend-check"], ["convert", "--depth", "16"]],
        ids=lambda argv: argv[0],
    )
    def test_levels_reaching_one_past_the_window(self, capsys, desc_file, argv):
        # r* = 1 + 1/1024, so h_10 = 1; a conversion would emit at r = 1
        data = {
            "steps": [{"m": 1, "n": 2, "beta": "1"}, {"m": 257, "n": 1024, "beta": "1"}],
            "tail": {"kind": "rule", "rule": "halving"},
        }
        code, report = run(capsys, argv[:1] + ["--desc", desc_file(data)] + argv[1:])
        assert code == 1
        if argv == ["validate"]:
            assert [v["rule"] for v in report["violations"]] == ["PrefixSum"]
        else:
            assert report["error"]["type"] == "DeclarationInconsistent"
            assert "PrefixSum" in report["error"]["detail"]

    def test_stored_sign_past_the_window(self, capsys, desc_file):
        # alpha(9,10) = -1 against the default alpha(9,11) = +1 breaks
        # extension condition 2 at step 9
        data = dict(HALVING_JSON, alpha_signs=[{"i": 9, "j": 10, "sign": -1}])
        path = desc_file(data)
        code, report = run(capsys, ["extend-check", "--desc", path])
        assert code == 1
        assert report["violation"]["indices"] == [9, 10, 11]
        code, report = run(capsys, ["convert", "--desc", path, "--depth", "16"])
        assert code == 1
        assert report["error"]["type"] == "NotExtendable"

    def test_convert_resolves_the_data_window(self, capsys, desc_file):
        for data in (HALVING_JSON, CONSTANT131_JSON):
            code, report = run(capsys, ["convert", "--desc", desc_file(data), "--depth", "4"])
            assert code == 0
            assert report["gammas"] == {"gammas": ["1", "1"]}

    def test_triple_condition_with_a_rule_step_of_equal_depth(self, capsys, desc_file):
        data = dict(
            HALVING_JSON,
            steps=[{"m": 1, "n": 512, "beta": "1"}, {"m": 3, "n": 512, "beta": "1"}],
            alpha_signs=[{"i": 1, "j": 2, "sign": -1}],
        )
        path = desc_file(data)
        code, report = run(capsys, ["validate", "--desc", path])
        assert code == 1
        assert {v["rule"] for v in report["violations"]} == {"TripleCondition"}
        code, report = run(capsys, ["convert", "--desc", path])
        assert code == 1
        assert report["error"]["type"] == "DeclarationInconsistent"

    def test_signs_against_deeper_rule_steps(self, capsys, desc_file):
        # h_1 = h_10 = 10 > h_2 = 9: alpha(2,1) must agree with the default
        # alpha(2,10) = +1, and with alpha(1,2) = -1 the triple (2,9,1),
        # halving's step 9 sharing step 2's h, fails as well
        def data(sign):
            return dict(
                HALVING_JSON,
                steps=[{"m": 1, "n": 1024, "beta": "1"}, {"m": 1, "n": 512, "beta": "1"}],
                alpha_signs=[{"i": 1, "j": 2, "sign": sign}],
            )

        path = desc_file(data(-1))
        for command in ("extend-check", "convert"):
            code, report = run(capsys, [command, "--desc", path])
            assert code == 1
            assert "TripleCondition" in report["error"]["detail"]
        code, report = run(capsys, ["convert", "--desc", desc_file(data(1)), "--depth", "3"])
        assert code == 0
        assert report["gammas"]["gammas"] == ["1"] * 11

    def test_data_window_budget_stops_a_process(self, desc_file):
        # the window would reach step 4001; unbounded, validate ran past 30 s
        data = dict(HALVING_JSON, steps=[{"m": 1, "n": 2**4000, "beta": "1"}])
        code, report = run_process(["validate", "--desc", desc_file(data)], timeout=5)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"
        assert "step 66" in report["error"]["detail"]

    def test_convert_inside_the_gamma_window(self, capsys, desc_file):
        code, _ = run(capsys, ["convert", "--desc", desc_file(HALVING_JSON), "--depth", "4"])
        assert code == 0

    def test_tower_element_over_budget(self, capsys, desc_file):
        # dividing x y^731 - y^728, whose least-weight terms cancel, needs w_3
        # of constant(1,3,1), of y-degree 3*9*27
        argv = ["eval", "--desc", desc_file(CONSTANT131_JSON), "--expr", "x*y^731 - y^728"]
        code, report = run(capsys, argv)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"
        assert "w_3" in report["error"]["detail"] and "729" in report["error"]["detail"]

    def test_digit_expansion_over_budget(self, capsys, desc_file):
        # x y^111 - y^108 cancels on its least-weight terms and divides by w_2
        # (y-degree 27) four times over, past the budget; y^81 needs 50,426
        # term pairs and evaluates
        path = desc_file(CONSTANT131_JSON)
        code, report = run(capsys, ["eval", "--desc", path, "--expr", "x*y^111 - y^108"])
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"
        detail = report["error"]["detail"]
        assert "w_2" in detail and "term pairs" in detail
        assert int(detail.split(" handed ")[1].split()[0]) > DIGIT_WORK_BUDGET
        code, report = run(capsys, ["eval", "--desc", path, "--expr", "y^81"])
        assert code == 0
        assert report == {"value": {"q": "27", "k_xi": 0, "k_mu": 0}}

    def test_digit_expansion_budget_stops_a_process(self, desc_file):
        # x y^727 - y^724 cancels on its least-weight terms and stays below
        # the tower budget's reach; unbounded, its digit expansion runs for
        # minutes
        argv = ["eval", "--desc", desc_file(CONSTANT131_JSON), "--expr", "x*y^727 - y^724"]
        code, report = run_process(argv, timeout=5)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"

    def test_expression_budget_stops_a_process(self, desc_file):
        # the linear powering loop would run for minutes
        argv = ["eval", "--desc", desc_file(WORKED_JSON), "--expr", "(x+1)^5000"]
        code, report = run_process(argv, timeout=5)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"
        assert "1975400000 work units" in report["error"]["detail"]

    def test_residue_too_long_to_print(self, capsys, desc_file):
        # 2^1000000 is under the expression budget, but its residue has
        # 301,030 digits, past the interpreter's limit for writing an int
        argv = ["residue", "--desc", desc_file(WORKED_JSON), "--expr", "2^1000000"]
        code, report = run(capsys, argv)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"
        assert "numerator has 301030 digits" in report["error"]["detail"]

    def test_conversion_budget_stops_a_process(self, desc_file):
        # with m_1 < 0 only the budget bounds the remainder: it holds 84 and
        # 594 records after 4 and 5 entries, and passes the budget at 4,130
        # while the sixth entry's deviations are added; unbounded, the
        # conversion runs past 30 s
        argv = ["convert", "--desc", desc_file(M1_NEGATIVE_JSON), "--sign-choice", "+1"]
        code, report = run_process(argv, timeout=5)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"
        assert "4130 records" in report["error"]["detail"]
        assert "iteration 5" in report["error"]["detail"]

    def test_conversion_budget_stops_a_runaway_iteration(self, desc_file):
        # the ninth entry multiplies 1,932 records; read only once the
        # iteration ends, they grow past 900,000 and 300 MB first
        data = {
            "steps": [
                {"m": 1, "n": 2, "beta": "9"},
                {"m": 1, "n": 16, "beta": "43046721"},
                {"m": 1, "n": 3, "beta": "1/8"},
            ],
            "alpha_signs": [{"i": 1, "j": 2, "sign": -1}],
        }
        argv = ["convert", "--desc", desc_file(data), "--sign-choice", "+1", "--depth", "12"]
        code, report = run_process(argv, timeout=10)
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"


# Steps (1,3^i,1) for i = 1..8, every one of odd n
ODD_STEPS = [{"m": 1, "n": 3**i, "beta": "1"} for i in range(1, 9)]


def _terminal(scale: str) -> dict:
    return {"kind": "irrational", "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": scale}}


class TestValidTowersAnswer:
    def test_eval_x_on_a_deep_digit_tower(self, desc_file):
        # a representative of v(x) = -1 outside tower digits, such as
        # w_0^-26244 w_1^52488 ..., takes minutes to read a residue from
        data = {
            "steps": [{"m": 1, "n": 4, "beta": "1/4"}],
            "tail": {"kind": "rule", "rule": "constant(1,3,1)"},
        }
        code, report = run_process(["eval", "--desc", desc_file(data), "--expr", "x"], timeout=10)
        assert code == 0
        assert report == {"value": {"q": "-1", "k_xi": 0, "k_mu": 0}}

    def test_eval_on_a_laurent_tower(self, capsys, desc_file):
        # m_1 = -1: w_1 = x^-1 y^2 + 3 is Laurent in x
        data = {"steps": [{"m": -1, "n": 2, "beta": "-3"}], "tail": _terminal("1/1000")}
        code, report = run(capsys, ["eval", "--desc", desc_file(data), "--expr", "y^2"])
        assert code == 0
        assert report == {"value": {"q": "-1", "k_xi": 0, "k_mu": 0}}

    @pytest.mark.parametrize(
        "steps", [[(-1, 2, 4)], [(-1, 3, 8), (1, 2, 1)]], ids=["one-step", "two-step"]
    )
    def test_roundtrip_on_a_laurent_tower(self, capsys, desc_file, steps):
        data = {
            "steps": [{"m": m, "n": n, "beta": str(b)} for m, n, b in steps],
            "tail": _terminal("1/1000"),
        }
        argv = ["roundtrip", "--desc", desc_file(data), "--sign-choice", "+1", "--trials", "100"]
        code, report = run(capsys, argv)
        assert code == 0
        assert report["ok"] and report["trials"] == 100

    def test_basis_slot_past_the_default_window(self, capsys, desc_file):
        # step 9, (1,2,1), is the first even one: the basis generator is w_8
        data = {
            "steps": ODD_STEPS + [{"m": 1, "n": 2, "beta": "1"}],
            "tail": {"kind": "rule", "rule": "constant(1,3,1)"},
        }
        path = desc_file(data)
        code, report = run(capsys, ["orderings", "--desc", path])
        assert code == 0
        assert [o["basis"] for o in report["orderings"]] == [{"omega_index": 8}] * 2
        code, report = run(capsys, ["convert", "--desc", path, "--depth", "12"])
        assert code == 1
        assert report["error"]["type"] == "SignChoiceRequired"
        argv = ["convert", "--desc", path, "--depth", "3", "--sign-choice", "+1"]
        code, report = run(capsys, argv)
        assert code == 0
        assert report["gammas"]["free_choice_index"] == 9

    def test_every_explicit_step_is_validated(self, capsys, desc_file):
        data = {"steps": ODD_STEPS + [{"m": 0, "n": 1, "beta": "0"}], "tail": _terminal("1/1000000")}
        code, report = run(capsys, ["validate", "--desc", desc_file(data)])
        assert code == 1
        assert [v["detail"] for v in report["violations"]] == [
            "step 9: beta must be nonzero",
            "step 9: m must be positive beyond step 1",
        ]

    def test_extend_check_reads_the_root_sign_from_the_ordering(self, capsys, desc_file):
        # the basis generator w_3 has y-degree 3*9*27 = 729, past the tower budget
        steps = ODD_STEPS[:3] + [{"m": 1, "n": 2, "beta": "1"}]
        data = {"steps": steps, "tail": _terminal("1/1000")}
        code, report = run(capsys, ["extend-check", "--desc", desc_file(data)])
        assert code == 0
        entries = report["orderings"]
        assert len(entries) == 4
        for entry in entries:
            assert entry["extendable"] is True
            assert entry["sign_choice"] == entry["ordering"]["signs"][0]

    def test_extend_check_ends_on_other_errors(self, capsys, desc_file, monkeypatch):
        def over_budget(*args):
            raise BudgetExceeded("over budget")

        monkeypatch.setattr(cli, "extend_ordering", over_budget)
        code, report = run(capsys, ["extend-check", "--desc", desc_file(WORKED_JSON)])
        assert code == 1
        assert report["error"]["type"] == "BudgetExceeded"


# both steps have h = 2: step 1 carries the free root and step 2 follows it
EQUAL_DEPTH_JSON = {
    "steps": [{"m": 1, "n": 4, "beta": "16"}, {"m": 1, "n": 4, "beta": "1"}],
    "alpha_signs": [{"i": 1, "j": 2, "sign": 1}],
}


class TestExtension:
    def test_not_every_ordering_extends(self, capsys, desc_file):
        code = main(["extend-check", "--desc", desc_file(CONSTANT131_JSON)])
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert code == 0
        assert "1/2 ordering(s) extend" in out.err
        assert [e["extendable"] for e in report["orderings"]] == [True, False]
        assert report["orderings"][1]["reason"] == "x is negative under this ordering"

    @pytest.mark.parametrize("sign", ["+1", "-1"])
    def test_equal_depth_roots_convert(self, capsys, desc_file, sign):
        argv = ["convert", "--desc", desc_file(EQUAL_DEPTH_JSON), "--sign-choice", sign]
        code, report = run(capsys, argv)
        assert code == 0
        want = ["2", "1"] if sign == "+1" else ["-2", "-1"]
        assert report["gammas"]["gammas"] == want
        assert report["z_sequence"]["entries"]
