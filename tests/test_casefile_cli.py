import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tomlinks.casefile import (
    CaseFileError,
    bundled_case_names,
    load_bundled,
    parse_case,
    parse_case_text,
)
from tomlinks.cli import main

CASES = Path(__file__).resolve().parent.parent / "src" / "tomlinks" / "cases"


class TestCaseFile:
    def test_bundled_10985(self):
        case = load_bundled("10985").to_fano_case()
        assert case.d == (6, 5, 4, 3)
        assert case.r == 2
        assert case.declared_nodes == 24
        assert case.matrix is not None

    def test_unsorted_ideal_weights(self):
        text = CASES.joinpath("10985.case").read_text().replace(
            "ambient = 1 1 1 6 5 4 3 2", "ambient = 1 1 1 3 5 4 6 2")
        with pytest.raises(CaseFileError, match="ideal weights not sorted"):
            parse_case_text(text)

    def test_centre_mismatch(self):
        text = CASES.joinpath("10985.case").read_text().replace(
            "centre = 1/2(1,1,1)", "centre = 1/3(1,1,1)")
        with pytest.raises(CaseFileError, match="centre index"):
            parse_case_text(text)

    def test_general_matrix_deterministic(self):
        cf = load_bundled("tag-viii")
        assert cf.general_seed is not None
        m1 = cf.to_fano_case().build_matrix(99)
        m2 = cf.to_fano_case().build_matrix(5)
        # the file seed pins the matrix regardless of the trace seed
        assert all(m1.entries[p] == m2.entries[p] for p in m1.entries)

    def test_non_tom_matrix_rejected(self):
        text = CASES.joinpath("10985.case").read_text().replace(
            "m23 = y4", "m23 = x1^3")
        with pytest.raises(CaseFileError, match="Tom_1"):
            parse_case_text(text).to_fano_case()

    def test_missing_file(self):
        with pytest.raises(CaseFileError, match=re.escape(
                "cannot read case file /nonexistent/path.case: No such file or directory")):
            parse_case("/nonexistent/path.case")

    def test_all_bundled_parse(self):
        names = bundled_case_names()
        assert len(names) >= 22
        for name in names:
            load_bundled(name).to_fano_case()


class TestCli:
    def test_examples_lists_bundled(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "10985" in out and "20652" in out

    def test_trace_deterministic(self, capsys):
        assert main(["trace", "--case", "24097", "--seed", "0", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--case", "24097", "--seed", "0", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert '"discriminant_degree":6' in first

    def test_trace_tree_report(self, capsys):
        assert main(["trace", "--case", "20652"]) == 0
        out = capsys.readouterr().out
        assert "DelPezzoFibration" in out
        assert "seed = 0" in out

    def test_unproject(self, capsys):
        assert main(["unproject", "--case", "10985"]) == 0
        out = capsys.readouterr().out
        assert "equation_count = 9" in out

    def test_input_error_exit_2(self, capsys):
        assert main(["trace", "--case", "/no/such/file.case"]) == 2

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"id = \xff\n"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_case_path_exits_2(self, tmp_path, capsys, make):
        path = tmp_path / "bad.case"
        make(path)
        assert main(["trace", "--case", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: cannot read case file {path}: ")

    @pytest.mark.parametrize("seed", ["--5", "\u00b2"], ids=["double-minus", "superscript"])
    def test_malformed_general_seed_exits_2(self, tmp_path, capsys, seed):
        text = CASES.joinpath("1218.case").read_text()
        assert "matrix = GENERAL 0" in text
        bad = tmp_path / "bad.case"
        bad.write_text(text.replace("matrix = GENERAL 0", f"matrix = GENERAL {seed}"),
                       encoding="utf-8")
        assert main(["trace", "--case", str(bad)]) == 2
        assert capsys.readouterr().err == "input error: line 9: GENERAL requires an integer seed\n"

    def test_absent_basket_point_exits_1_naming_it(self, tmp_path, capsys):
        text = CASES.joinpath("10985.case").read_text()
        old = "basket = 1/2(1,1,1) 1/6(1,1,5)"
        assert old in text
        bad = tmp_path / "bad.case"
        bad.write_text(text.replace(old, "basket = none"))
        assert main(["trace", "--case", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == "error: basket removal target 1/2(1,1,1) absent: {}\n"

    @pytest.mark.parametrize("old, new, line, message", [
        ("matrix_weights = 1 2 3 4 3 4 5 5 6 7", "matrix_weights = 1 2 3 4 3 4 5 5 6 8", 8,
         "matrix_weights: pfaffian 1 would be inhomogeneous"),
        ("m23 = y4", "m23 = y3", 13, "entry m23 has degree 4, declared 3"),
        ("m23 = y4", "m23 = y4 + y3", 13, "entry m23: mixed degrees"),
        ("ambient = 1 1 1 6 5 4 3 2", "ambient = 1 2 1 6 5 4 3 2", 3,
         "orbinate weights not ascending"),
        ("ambient = 1 1 1 6 5 4 3 2", "ambient = 1 1 1 6 5 4 0 2", 3,
         "ideal weights not sorted"),
        ("m12 = x1", "m12 = x1 + w", 9, "entry m12: unknown variable"),
        ("m12 = x1", "m12 = x1 +* x2", 9, "entry m12: a '\\*' must join two factors"),
        ("m12 = x1", "m12 = 1/0*x1", 9, "entry m12: zero denominator in '1/0'"),
        ("m12 = x1", "m12 = 0/0*x1", 9, "entry m12: zero denominator in '0/0'"),
        ("nodes = 24", "nodes = -3", 7, "nodes must be an integer >= 0"),
        ("nodes = 24", "nodes = 2.5", 7, "nodes must be an integer >= 0"),
        ("nodes = 24", "node = 23", 7, "unknown key 'node'"),
        # a quotient token is exactly 1/r(a,b,c): one closing parenthesis
        ("1/6(1,1,5)", "1/6(1,1,5", 6, r"bad quotient singularity '1/6\(1,1,5'$"),
        ("1/6(1,1,5)", "1/6(1,1,5))", 6, r"bad quotient singularity '1/6\(1,1,5\)\)'$"),
        ("1/6(1,1,5)", "1/6(1,1,5)))", 6, r"bad quotient singularity '1/6\(1,1,5\)\)\)'$"),
        ("centre = 1/2(1,1,1)", "centre = 1/2(1,1,1))", 4,
         r"bad quotient singularity '1/2\(1,1,1\)\)'$"),
    ], ids=["pfaffian-weights", "entry-degree", "entry-inhomogeneous", "orbinates",
            "ideal-weight-zero", "entry-unknown-variable", "entry-stray-star",
            "entry-zero-denominator", "entry-zero-over-zero",
            "negative-nodes", "non-integer-nodes", "unknown-key",
            "basket-unclosed", "basket-two-closing", "basket-three-closing",
            "centre-two-closing"])
    def test_case_file_error_exits_2_naming_its_line(self, tmp_path, capsys, old, new, line,
                                                     message):
        text = CASES.joinpath("10985.case").read_text()
        assert old in text
        bad = tmp_path / "bad.case"
        bad.write_text(text.replace(old, new))
        assert main(["trace", "--case", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: line {line}: ")
        assert re.search(message, err), err

    @pytest.mark.parametrize("old, new, message", [
        ("tom_index = 1", "tom_index = 3", "Tom_3 puts m12 in \\(y1..y4\\), but its weight 1 is "
         "below d4 = 2"),
        ("matrix_weights = 1 1 1 1 4 4 4 4 4 4", "matrix_weights = -1 -1 -1 -1 6 6 6 6 6 6",
         "GENERAL entry m12 has negative weight -1"),
    ], ids=["tom-index", "negative-weight"])
    def test_general_weights_without_a_form_exit_2(self, tmp_path, capsys, old, new, message):
        # an entry whose weight leaves no admissible monomial is an input
        # error on the tom_index line (line 5 of 1218), not a failed trace
        text = CASES.joinpath("1218.case").read_text()
        assert old in text
        bad = tmp_path / "bad.case"
        bad.write_text(text.replace(old, new))
        assert main(["trace", "--case", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: line 5: ")
        assert re.search(message, err), err

    @pytest.mark.parametrize("name, old, new, line, token", [
        ("1218", "basket = 1/2(1,1,1)", "basket = 1/2(1,1,1) 1/0(1,1,1)", 6, "1/0(1,1,1)"),
        ("10985", "ambient = 1 1 1 6 5 4 3 2\ncentre = 1/2(1,1,1)",
         "ambient = 1 1 1 6 5 4 3 0\ncentre = 1/0(1,1,1)", 4, "1/0(1,1,1)"),
        ("10985", "ambient = 1 1 1 6 5 4 3 2\ncentre = 1/2(1,1,1)",
         "ambient = 1 1 1 6 5 4 3 -2\ncentre = 1/-2(1,1,1)", 4, "1/-2(1,1,1)"),
        ("10985", "basket = 1/2(1,1,1) 1/6(1,1,5)", "basket = 1/2(1,1,1) 1/1(1,1,1)", 6,
         "1/1(1,1,1)"),
    ], ids=["basket-r0", "centre-r0", "centre-negative", "basket-r1"])
    def test_quotient_index_below_2_exits_2(self, tmp_path, capsys, name, old, new, line,
                                            token):
        text = CASES.joinpath(f"{name}.case").read_text()
        assert old in text
        bad = tmp_path / "bad.case"
        bad.write_text(text.replace(old, new))
        assert main(["trace", "--case", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: line {line}: quotient index "), err
        assert f"is below 2: '{token}'" in err

    @pytest.mark.parametrize("ambient, centre, basket, weights", [
        ("1 1 1 4 3 3 2 3", "1/3(1,1,1)", "1/3(1,1,1)", "1 1 2 2 3 4 4 4 4 5"),
        ("1 1 2 3 2 2 1 4", "1/4(1,1,2)", "1/4(1,1,2)", "1 1 2 2 2 3 3 3 3 4"),
        ("1 2 2 3 2 2 1 4", "1/4(1,2,2)", "1/4(1,2,2) 1/3(1,1,2)", "2 2 2 3 2 2 3 2 3 3"),
    ], ids=["b+c-below-r", "b+c-below-r-weighted", "gcd-b-r-2"])
    def test_centre_that_is_not_type_i_exits_2(self, tmp_path, capsys, ambient, centre,
                                               basket, weights):
        # read, each would trace with template_ok True, and the last two would
        # gain basket points with a zero weight, such as 1/2(0,1,1)
        bad = tmp_path / "bad.case"
        bad.write_text(f"id = bad\nambient = {ambient}\ncentre = {centre}\ntom_index = 1\n"
                       f"basket = {basket}\nmatrix_weights = {weights}\nmatrix = GENERAL 0\n")
        assert main(["trace", "--case", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: line 3: "), err
        assert centre in err

    def test_bundled_case_error_names_its_line(self, monkeypatch, capsys):
        # a bundled name reports its own file's error, not a missing path
        def broken(name):
            raise CaseFileError(f"ambient of {name}: expected 8 integers, got 7", 2)

        monkeypatch.setattr("tomlinks.cli.load_bundled", broken)
        assert main(["trace", "--case", "10985"]) == 2
        assert "line 2:" in capsys.readouterr().err

    def test_valid_file_of_a_non_general_member_exits_1(self, tmp_path, capsys):
        # m35 = 0 passes every case-file rule, but g_2 then has no
        # y_2-free monomial: a failed trace, not an input error
        bad = tmp_path / "bad.case"
        bad.write_text(_replace_entry(CASES.joinpath("10985.case").read_text(), "m35", "0"))
        assert parse_case(bad).to_fano_case().matrix is not None
        assert main(["trace", "--case", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: g_2 has no y_2-free monomial; input is not a general Tom member\n")

    def test_trace_saturation_oracle(self, monkeypatch, capsys):
        assert main(["trace", "--case", "10985", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        argv = ["trace", "--case", "10985", "--json", "--saturation-oracle"]
        assert main(argv) == 0
        checked = json.loads(capsys.readouterr().out)
        assert checked.pop("saturation_oracle") is True
        assert checked == plain
        monkeypatch.setattr("tomlinks.cli.verify_blowup_saturation", lambda blow, budget: False)
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["saturation_oracle"] is False

    @pytest.mark.parametrize("argv", [
        ["unproject"], ["blowup", "--skip-saturation-oracle"], ["trace"]],
        ids=["unproject", "blowup", "trace"])
    def test_timings_add_only_the_seconds(self, capsys, argv):
        argv = argv + ["--case", "10985", "--json"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(argv + ["--timings"]) == 0
        timed = json.loads(capsys.readouterr().out)
        timings = timed.pop("timings")
        assert list(timings) == ["seconds"] and isinstance(timings["seconds"], float)
        assert timed == plain

    def test_budget_exceeded_exit_3(self, capsys):
        assert main(["blowup", "--case", "20652", "--budget", "5"]) == 3
        assert "reduction steps exceeded in buchberger" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-5", "-1", "five"])
    def test_bad_budget_is_input_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--case", "10985", "--budget", budget])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_budget_caps_each_groebner_computation(self, capsys):
        # 20652's trace runs three Groebner computations of 0, 20 and 196
        # steps: 196 covers the largest one although together they take 216
        assert main(["trace", "--case", "20652", "--budget", "196"]) == 0
        capsys.readouterr()
        assert main(["trace", "--case", "20652", "--budget", "195"]) == 3
        assert "reduction steps exceeded in buchberger" in capsys.readouterr().err

    def test_zero_budget_allows_zero_steps(self, capsys):
        # 0 is a valid budget: the first reduction step exceeds it
        assert main(["trace", "--case", "10985", "--budget", "0"]) == 3

    def test_verification_failure_exit_1(self, tmp_path, capsys):
        # a Tom matrix whose unconstrained row vanishes cannot be unprojected
        bad = tmp_path / "bad.case"
        text = CASES.joinpath("20652.case").read_text()
        for key, val in (("m12", "0"), ("m13", "0"), ("m14", "0"), ("m15", "0")):
            text = _replace_entry(text, key, val)
        bad.write_text(text)
        assert main(["unproject", "--case", str(bad)]) == 1

    def test_blowup_runs_oracle_by_default(self, capsys):
        assert main(["blowup", "--case", "1218", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["saturation_oracle"] is True

    def test_blowup_skip_oracle(self, capsys):
        assert main(["blowup", "--case", "20652", "--skip-saturation-oracle"]) == 0
        out = capsys.readouterr().out
        assert "deltas" in out

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tomlinks.cli", "examples"],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_python_dash_m_package(self):
        # a source checkout on PYTHONPATH reaches the CLI without installing
        src = str(CASES.parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "tomlinks", "examples"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "10985" in proc.stdout.split()


def _replace_entry(text: str, key: str, value: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith(f"{key} ="):
            lines.append(f"{key} = {value}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


class TestGolden:
    def test_trace_report_matches_golden(self, capsys):
        golden = CASES / "10985.golden"
        assert main(["trace", "--case", "10985", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.replace("\r\n", "\n") == golden.read_text().replace("\r\n", "\n")

    def test_mutated_golden_detected(self, tmp_path, capsys):
        golden = (CASES / "10985.golden").read_text()
        assert main(["trace", "--case", "10985", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        mutated = golden.replace("count = 24", "count = 25")
        assert out != mutated


# values a mutated line may take: numbers, tokens of each field's syntax,
# and text no field accepts
FUZZ_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["", "none", "GENERAL", "GENERAL 3", "GENERAL x", "1/2(1,1,1)",
                     "1/3(1,1)", "1/0(1,1,1)", "x1", "y4", "x1^2*y4 - y3", "x1 +* x2",
                     "1 1 1 4 3 3 2 2", "1 2 3 4 3 4 5 5 6 7", "2.5", "=", "#",
                     "1/0*x1", "GENERAL --5", "GENERAL \u00b2", "1/2(1,1,1",
                     "1/2(1,1,1))", "1/2(1,1,1)))"]))


@given(name=st.sampled_from(["10985", "1218"]), line=st.integers(0, 19),
       kind=st.sampled_from(["delete", "duplicate", "replace"]), token=FUZZ_TOKENS)
@example(name="1218", line=4, kind="replace", token="3")  # tom_index = 3
@example(name="10985", line=8, kind="replace", token="1/0*x1")  # m12 = 1/0*x1
@example(name="1218", line=8, kind="replace", token="GENERAL --5")  # matrix = GENERAL --5
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_single_line_mutants_exit_cleanly(tmp_path, capsys, name, line, kind, token):
    """A case file with one line deleted, duplicated or given another value
    makes `trace` exit 0, 1, 2 or 3; no exception escapes."""
    lines = CASES.joinpath(f"{name}.case").read_text().splitlines()
    i = line % len(lines)
    if kind == "delete":
        lines[i:i + 1] = []
    elif kind == "duplicate":
        lines[i:i + 1] = [lines[i]] * 2
    else:
        key = lines[i].split("=", 1)[0]
        lines[i] = f"{key}= {token}" if "=" in lines[i] else token
    mutant = tmp_path / "mutant.case"
    mutant.write_text("\n".join(lines) + "\n")
    assert main(["trace", "--case", str(mutant), "--json"]) in (0, 1, 2, 3)
    capsys.readouterr()


def case_data(name: str) -> tuple[str, ...]:
    """A bundled case file's lines without comments, blank lines and the id."""
    lines = []
    for raw in CASES.joinpath(f"{name}.case").read_text().splitlines():
        line = " ".join(raw.split("#", 1)[0].split())
        if line and not line.startswith("id ="):
            lines.append(line)
    return tuple(lines)


def later_duplicates(name: str) -> list[str]:
    names = bundled_case_names()
    return [other for other in names[names.index(name) + 1:]
            if case_data(other) == case_data(name)]


SAME_DATA_AS_1218 = pytest.mark.xfail(
    strict=True, reason="11125-t1 has the data of 1218; see DECISIONS.md")


class TestBundledData:
    def test_case_data_ignores_id_and_comments(self):
        assert case_data("1218") == case_data("11125-t1")
        assert case_data("1218") != case_data("10985")
        assert all(not line.startswith(("id", "#")) for line in case_data("10985"))

    @pytest.mark.parametrize("name", [
        pytest.param(n, marks=SAME_DATA_AS_1218) if n == "11125-t1" else n
        for n in bundled_case_names()])
    def test_no_two_cases_share_data(self, name):
        # each pair is checked once, at its first name in sorted order
        assert later_duplicates(name) == []
