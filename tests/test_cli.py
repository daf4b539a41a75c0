import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tauslice import fixtures as fixdata
from tauslice.cli import main
from tauslice.formats import (
    parse_algebra_text, print_algebra, parse_rep_text, print_rep,
    algebra_hash, field_from_spec,
)
from tauslice.exactlin import PrimeField

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def alg_path(name):
    return str(fixdata.path(f"{name}.alg"))


def rep_path(name):
    return str(fixdata.path(f"{name}.rep"))


def module_args(name, group):
    return [x for rep_name in fixdata.MEMBER_SETS[(name, group)]
            for x in ("-m", rep_path(f"{name}_{rep_name}"))]


# ---------------------------------------------------------------------------
# text formats


def test_algebra_files_are_canonical():
    for name in fixdata.ALGEBRAS:
        text = fixdata.path(f"{name}.alg").read_text()
        a = parse_algebra_text(text)
        assert print_algebra(a) == text, name


def test_rep_files_are_canonical():
    for (name, _group), reps in fixdata.MEMBER_SETS.items():
        a = fixdata.algebra(name)
        for rep_name in reps:
            text = fixdata.path(f"{name}_{rep_name}.rep").read_text()
            r = parse_rep_text(text, a)
            assert print_rep(r) == text, (name, rep_name)


@pytest.mark.parametrize("text, error", [
    ("dim 1=1 2=1\nmap a = [[1]]\nmap a = [[2]]\n", "line 3: repeated arrow 'a'"),
    ("dim 1=1 1=2 2=1\n", "line 1: repeated vertex '1'"),
    ("dim 1=1\ndim 2=1\ndim 1=1\n", "line 3: repeated vertex '1'"),
    ("dim 1=-1\n", "line 1: dimension '-1' at vertex '1' is not a non-negative integer"),
    ("dim 1=x\n", "line 1: dimension 'x' at vertex '1' is not a non-negative integer"),
    ("dim 1\n", "line 1: dimension '' at vertex '1' is not a non-negative integer"),
])
def test_bad_rep_lines_exit_2_naming_the_line(tmp_path, capsys, text, error):
    # a repeated line would silently overwrite the first, and a negative
    # dimension used to surface as a wrongly shaped block
    mod = tmp_path / "bad.rep"
    mod.write_text(text)
    code, out = run_json(capsys, "tau", alg_path("a2"), "-m", str(mod))
    assert code == 2
    assert out["error"] == error


@pytest.mark.parametrize("text, error", [
    ("field Q\nfield F2\nvertex 1\n", "line 2: repeated field line"),
    ("vertex 1\noption length_cap 4\noption length_cap 8\n",
     "line 3: repeated option 'length_cap'"),
    ("vertex 1 2\narrow a: 1 -> 2\narrow a: 2 -> 1\n", "line 3: duplicate arrow 'a'"),
    ("arrow a: 1 -> 7\nvertex 1\n", "line 1: arrow 'a' uses undeclared vertices"),
    ("field F4\nvertex 1\n", "line 1: modulus 4 is not prime"),
    ("field R\nvertex 1\n", "line 1: unknown field 'R' (use Q or F<p>)"),
])
def test_bad_algebra_lines_exit_2_naming_the_line(tmp_path, capsys, text, error):
    # a repeated field or option line used to win silently, and a repeated
    # arrow surfaced as the quiver's ValueError with no line
    alg = tmp_path / "bad.alg"
    alg.write_text(text)
    code, out = run_json(capsys, "info", str(alg))
    assert code == 2
    assert out["error"] == error


@pytest.mark.parametrize("field, bad", [("Q", "1/0"), ("F5", "1/5")])
@pytest.mark.parametrize("kind", ["alg", "rep"])
def test_zero_denominator_exits_2_naming_the_line(tmp_path, capsys, field, bad, kind):
    # a zero denominator used to surface as a ZeroDivisionError with no line
    alg = tmp_path / "a.alg"
    mod = tmp_path / "m.rep"
    relation = f"relation {bad} a*b - c\n" if kind == "alg" else ""
    alg.write_text(f"field {field}\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
                   f"arrow c: 1 -> 3\n{relation}")
    mod.write_text(f"dim 1=1 2=1\nmap a = [[{bad if kind == 'rep' else 1}]]\n")
    code, out = run_json(capsys, "tau", str(alg), "-m", str(mod))
    assert code == 2
    line = 6 if kind == "alg" else 2
    assert out["error"] == f"line {line}: coefficient '{bad}' has denominator 0 in {field}"


def test_unknown_field_option_is_a_usage_error(capsys):
    # an unknown --field used to end in a CliError traceback and exit 1
    with pytest.raises(SystemExit) as exc:
        main(["info", alg_path("a2"), "--field", "X"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --field: invalid field_from_spec value: 'X'" in err


def test_bad_node_selector_exits_2_naming_it(capsys):
    code, out = run_json(capsys, "tau", alg_path("a2"), "-m", "node:x")
    assert code == 2
    assert out["error"] == "bad node selector 'node:x' (use node:<k>)"


#: every command, with the words before its algebra argument
CAP_COMMANDS = [["info"], ["indecomposables"], ["ar-quiver"], ["tau"],
                ["check", "tilted"], ["bb-verify"], ["torsion-pair"], ["quotient"],
                ["endo"], ["extend", "one-point"], ["slices", "find"],
                ["orbit-graph"], ["count-stt"]]


@pytest.mark.parametrize("cap", ["-5", "0", "two"])
@pytest.mark.parametrize("words", CAP_COMMANDS, ids=" ".join)
def test_non_positive_cap_is_a_usage_error(capsys, words, cap):
    # argparse rejects it before any work, naming --cap
    with pytest.raises(SystemExit) as exc:
        main([*words, alg_path("a3"), "--cap", cap])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument --cap: '{cap}' is not a positive integer" in err


@pytest.mark.parametrize("value", ["-5", "0", "two"])
@pytest.mark.parametrize("words, option, extra", [
    pytest.param(["tau"], "--power", ["-m", "1,0,0"], id="tau --power"),
    pytest.param(["check", "tilted"], "--limit", [], id="check tilted --limit"),
    pytest.param(["slices", "find"], "--limit", [], id="slices find --limit"),
])
def test_non_positive_power_or_limit_is_a_usage_error(capsys, words, option, extra, value):
    # a power of -2 used to return the source module as its own translate,
    # and a limit of 0 an "inconclusive" search or a CapExceeded
    with pytest.raises(SystemExit) as exc:
        main([*words, alg_path("a3"), *extra, option, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {option}: '{value}' is not a positive integer" in err


def test_cap_of_one_is_accepted(capsys):
    code, out = run_json(capsys, "ar-quiver", alg_path("a3"), "--cap", "1")
    assert code == 2
    assert out["error"] == "CapExceeded: more than 1 iso-classes; possibly representation-infinite"


def test_algebra_hash_is_stable():
    a = fixdata.algebra("ex1")
    assert algebra_hash(a) == "20bed666af21e346"


def test_field_spec_parsing():
    assert field_from_spec("Q").zero() is not None
    assert isinstance(field_from_spec("F5"), PrimeField)
    assert isinstance(field_from_spec("Fp:7"), PrimeField)
    with pytest.raises(ValueError):
        field_from_spec("F4")


# ---------------------------------------------------------------------------
# subcommands, exit codes, and reports


def test_info_reports_hash(capsys):
    code, out = run_json(capsys, "info", alg_path("ex1"))
    assert code == 0
    assert out["algebra_hash"] == "20bed666af21e346"
    assert out["verdict"] is True


def test_indecomposables_count(capsys):
    code, out = run_json(capsys, "indecomposables", alg_path("ex2"))
    assert code == 0
    assert out["count"] == 13
    assert len(out["witnesses"]) == 13


def test_check_exit_codes(capsys):
    args = module_args("ex1", "m")
    code, _ = run_json(capsys, "check", "tau-tilting", alg_path("ex1"), *args)
    assert code == 0
    code, _ = run_json(capsys, "check", "tilting", alg_path("ex1"), *args)
    assert code == 1
    code, _ = run_json(
        capsys, "check", "complete-tau-slice", alg_path("fig1"),
        *module_args("fig1", "sigma"))
    assert code == 0


def test_check_local_slice_without_enumeration(capsys):
    code, out = run_json(
        capsys, "check", "local-slice", alg_path("fig2"),
        *module_args("fig2", "sigma"))
    assert code == 0
    assert out["verdict"] is True


def test_check_tilted_exit_codes(capsys):
    code, out = run_json(capsys, "check", "tilted", alg_path("a3"))
    assert code == 0 and out["verdict"] == "tilted"
    code, out = run_json(capsys, "check", "tilted", alg_path("fig3"))
    assert code == 1 and out["verdict"] == "not-tilted"
    code, out = run_json(capsys, "check", "tilted", alg_path("fig2"),
                         "--cap", "16")
    assert code == 2 and out["verdict"] == "inconclusive"


def test_tau_of_module(capsys):
    code, out = run_json(capsys, "tau", alg_path("ex1"), *module_args("ex1", "m"))
    assert code == 0
    assert out["witnesses"][0]["dims"] == [0, 2, 2]


def test_tau_writes_canonical_rep(tmp_path, capsys):
    target = tmp_path / "t.rep"
    code, _ = run_json(capsys, "tau", alg_path("fig2"),
                       "-m", rep_path("fig2_s1"), "--out", str(target))
    assert code == 0
    a = fixdata.algebra("fig2")
    r = parse_rep_text(target.read_text(), a)
    assert r.dims == (3, 2, 0)
    assert print_rep(r) == target.read_text()


def test_module_selector_by_dims(capsys):
    code, out = run_json(capsys, "check", "tau-rigid", alg_path("a3"),
                         "-m", "1,1,0")
    assert code == 0 and out["verdict"] is True


def test_module_selector_ambiguous(capsys):
    code, out = run_json(capsys, "check", "tau-rigid", alg_path("ex1"),
                         "-m", "0,1,1")
    assert code == 2
    assert "ambiguous" in out["error"]
    assert "node:6" in out["error"] and "node:11" in out["error"]


def test_ar_quiver_cap_exceeded(capsys):
    code, out = run_json(capsys, "ar-quiver", alg_path("fig2"), "--cap", "16")
    assert code == 2
    assert out["error"].startswith("CapExceeded")



def test_ar_quiver_over_f3_matches_q(capsys):
    code_q, out_q = run_json(capsys, "ar-quiver", alg_path("ex1"))
    code_f3, out_f3 = run_json(capsys, "ar-quiver", alg_path("ex1"), "--field", "F3")
    assert code_q == code_f3 == 0
    for key in ("nodes", "arrows", "tau"):
        assert out_f3[key] == out_q[key], key


def test_endo_over_f2_exits_0(capsys):
    # End(M) takes its radical from its Hom blocks, not from a trace form
    # that characteristic 2 cannot carry
    args = ["endo", alg_path("fig1"), *module_args("fig1", "sigma")]
    code_q, out_q = run_json(capsys, *args)
    code_f2, out_f2 = run_json(capsys, *args, "--field", "F2")
    assert code_q == code_f2 == 0
    q_text, f2_text = (out.pop("algebra_text").split("\n", 1) for out in (out_q, out_f2))
    assert (f2_text[0], f2_text[1]) == ("field F2", q_text[1])
    del out_q["algebra_hash"], out_f2["algebra_hash"]
    assert out_f2 == out_q


def test_ar_quiver_over_f2_matches_q(capsys):
    # the smallest field the CLI accepts gives the same quiver
    code_q, out_q = run_json(capsys, "ar-quiver", alg_path("ex1"))
    code_f2, out_f2 = run_json(capsys, "ar-quiver", alg_path("ex1"), "--field", "F2")
    assert code_q == code_f2 == 0
    for key in ("nodes", "arrows", "tau"):
        assert out_f2[key] == out_q[key], key


def test_slices_find_ex1_over_f2_matches_f3(capsys):
    # the search reads the presection rules off the closure's arrows and
    # tau-links, so it never re-reads the ex1 mesh whose radical needs a
    # trace form that characteristic 2 cannot carry; ex1 has no complete
    # tau-slice over any field
    code_f3, out_f3 = run_json(capsys, "slices", "find", alg_path("ex1"), "--field", "F3")
    code_f2, out_f2 = run_json(capsys, "slices", "find", alg_path("ex1"), "--field", "F2")
    assert code_f2 == code_f3 == 1
    assert out_f2["count"] == 0
    del out_f3["algebra_hash"], out_f2["algebra_hash"]
    assert out_f2 == out_f3


def test_ar_quiver_dot_deterministic(capsys):
    code1, out1 = run_cli(capsys, "ar-quiver", alg_path("a3"), "--dot")
    code2, out2 = run_cli(capsys, "ar-quiver", alg_path("a3"), "--dot")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "(1,1,1)\\nP1 I3" in out1


def test_bb_verify_reports(capsys):
    code, out = run_json(capsys, "bb-verify", alg_path("ex2"),
                         *module_args("ex2", "m"))
    assert code == 0
    assert out["part1_isomorphism"] is True
    assert out["hom_equivalence"] is True
    assert out["ext_equivalence"] is True
    assert out["tau_agree"] is True
    assert out["fac_count"] == 6 and out["sub_tau_count"] == 5
    assert out["x_count"] == 5 and out["y_count"] == 6

    code, out = run_json(capsys, "bb-verify", alg_path("ex1"),
                         *module_args("ex1", "m"))
    assert code == 0
    assert out["verdict"] is True  # disagreement matches the translate test
    assert out["ext_equivalence"] is False
    assert out["tau_agree"] is False
    assert out["sub_witness"] == [0, 1, 1]


def test_bb_verify_deterministic(capsys):
    args = ("bb-verify", alg_path("ex2")) + tuple(module_args("ex2", "m"))
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_torsion_pair(capsys):
    code, out = run_json(capsys, "torsion-pair", alg_path("ex2"),
                         *module_args("ex2", "m"))
    assert code == 0
    assert len(out["torsion"]) == 6
    assert len(out["torsion_free"]) == 5
    assert len(out["neither"]) == 2
    assert out["splitting"] is False


def test_quotient_preserves_slice(capsys):
    code, out = run_json(
        capsys, "quotient", alg_path("ex5_tilde"), "-r", "om",
        *module_args("ex5_tilde", "sigma"))
    assert code == 0
    assert out["verdict"] is True
    assert out["tau_matches"] is True
    assert out["quotient_dimension"] == 8


def test_endo_presents_hereditary_quiver(capsys):
    code, out = run_json(capsys, "endo", alg_path("fig1"),
                         *module_args("fig1", "sigma"))
    assert code == 0
    assert out["hereditary"] is True
    arrows = sorted(line for line in out["algebra_text"].splitlines()
                    if line.startswith("arrow "))
    assert arrows == ["arrow b1: 1 -> 4", "arrow b2: 2 -> 3",
                      "arrow b3: 3 -> 1", "arrow b4: 4 -> 5"]


def test_extend_one_point(capsys):
    code, out = run_json(
        capsys, "extend", "one-point", alg_path("ex5_aprime"),
        "-m", rep_path("ex5_aprime_s2"),
        "--vertex", "4", "--prefix", "de",
        "--slice-member", rep_path("ex5_aprime_m21"),
        "--slice-member", rep_path("ex5_aprime_s2"),
        "--slice-member", rep_path("ex5_aprime_m32"))
    assert code == 0
    assert out["verdict"] is True
    assert out["complete"] is True
    assert out["new_vertex"] == "4"
    assert len(out["witnesses"]) == 4


def test_extend_split_reproduces_input(capsys):
    code, out = run_json(capsys, "extend", "split", alg_path("ex5_a"),
                         "-r", "al")
    assert code == 0
    assert out["reproduces_input"] is True
    assert out["base_dimension"] == 7
    assert out["ideal_dimension"] == 1


def test_extend_split_exits_2_when_the_map_is_no_isomorphism(capsys, monkeypatch):
    # a map that sends every arrow to 0 kills the relations but is not
    # bijective: the verdict is an error, never a "no"
    from tauslice.algebra import IdealBimoduleResult
    honest = IdealBimoduleResult.extension_map

    def corrupted(self, ext):
        vertices, arrows = honest(self, ext)
        return vertices, dict.fromkeys(arrows, {})

    monkeypatch.setattr(IdealBimoduleResult, "extension_map", corrupted)
    code, out = run_json(capsys, "extend", "split", alg_path("ex5_a"), "-r", "al")
    assert code == 2
    assert out["error"].startswith("ArithmeticError: ")
    assert "reproduces_input" not in out


def test_extend_trivial(capsys):
    code, out = run_json(capsys, "extend", "trivial", alg_path("ex5_c"))
    assert code == 0
    assert out["bimodule_dimension"] == 3
    assert out["dimension"] == 10


def test_slices_find(capsys):
    code, out = run_json(capsys, "slices", "find", alg_path("fig1"))
    assert code == 0
    assert out["count"] == 6
    assert all(len(s["members"]) == 5 for s in out["slices"])


def test_orbit_graph_exit_codes(capsys):
    code, out = run_json(capsys, "orbit-graph", alg_path("fig3"))
    assert code == 1
    assert out["orbit_count"] == 5
    assert out["edge_count"] == 5
    code, out = run_json(capsys, "orbit-graph", alg_path("a3"))
    assert code == 0
    assert out["is_tree"] is True


def test_count_stt(capsys):
    code, out = run_json(capsys, "count-stt", alg_path("a3"))
    assert code == 0
    assert out["count"] == 14
    code, out = run_json(capsys, "count-stt", alg_path("ex2"))
    assert code == 0
    assert out["count"] == 55


def test_slices_find_budget_exhausted(capsys):
    code, out = run_json(capsys, "slices", "find", alg_path("fig3"),
                         "--limit", "50")
    assert code == 2
    assert out["error"] == "CapExceeded: slice search budget exhausted"


def test_timings_field_is_normalised(capsys):
    _, out = run_json(capsys, "info", alg_path("a2"))
    assert out["timings"] == "-"


# ---------------------------------------------------------------------------
# the installed entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tauslice.cli", "info", alg_path("a2")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "info"
    assert proc.stderr == ""


def test_slice_census_runs_without_pythonpath():
    # the script puts src/ on sys.path itself, like the other two scripts
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "slice_census.py"), "a3"],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "a3: 4 complete tau-slice(s)"


def test_error_report_shape(capsys):
    code, out = run_json(capsys, "info", "/nonexistent/thing.alg")
    assert code == 2
    assert "error" in out


def test_stalled_decomposition_exits_2_with_reason(tmp_path, capsys):
    # Kronecker module x = I, y = rotation by a quarter turn: End is Q(i),
    # which has no idempotent to split by, so the decomposition stalls
    alg = tmp_path / "kronecker.alg"
    alg.write_text("field Q\nvertex 1\nvertex 2\narrow x: 1 -> 2\narrow y: 1 -> 2\n")
    mod = tmp_path / "rotation.rep"
    mod.write_text("dim 1=2\ndim 2=2\nmap x = [[1, 0], [0, 1]]\n"
                   "map y = [[0, -1], [1, 0]]\n")
    code = main(["check", "tau-tilting", str(alg), "-m", str(mod)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"].startswith("DecompositionStalled: ")
    assert captured.err == ""
