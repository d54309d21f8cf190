"""CLI surface: repair and bench subcommands, exit codes, artifacts."""
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from condfix.cli import EXIT_NO_PATCH, EXIT_PATCHED, EXIT_USAGE, main
from condfix.corpus import MAX_GRID_POINTS, default_corpus_dir, load_bundle, write_bundle
from condfix.minilang.parser import MAX_NESTING
from conftest import FOREIGN_QUERY, MISTYPED

SRC = Path(__file__).resolve().parent.parent / "src"


def write_gcd_inputs(tmp_path: Path):
    from conftest import GCD_BUGGY, GCD_SUITE

    program = tmp_path / "program.ml"
    suite = tmp_path / "suite.txt"
    program.write_text(GCD_BUGGY)
    suite.write_text(GCD_SUITE)
    return program, suite


class TestRepairCommand:
    def test_patched_exit_code_and_diff(self, tmp_path, capsys):
        program, suite = write_gcd_inputs(tmp_path)
        report_path = tmp_path / "report.json"
        code = main([
            "repair", "--program", str(program), "--suite", str(suite),
            "--report-json", str(report_path),
        ])
        assert code == EXIT_PATCHED
        out = capsys.readouterr().out
        assert out.startswith("--- a/program.ml")
        payload = json.loads(report_path.read_text())
        assert payload["outcome"] == "patched"
        assert payload["diff"] in out

    def test_no_patch_exit_code(self, tmp_path, capsys):
        program = tmp_path / "program.ml"
        suite = tmp_path / "suite.txt"
        program.write_text(
            "fn addTwice(base: int) -> int {\n"
            "  let t1: int = step(base);\n"
            "  let t2: int = step(t1);\n"
            "  return t2;\n"
            "}\n"
            "fn step(acc: int) -> int {\n"
            "  acc = acc + 10;\n"
            "  return acc;\n"
            "}\n"
        )
        suite.write_text("double: addTwice(0) -> 10\n")
        code = main(["repair", "--program", str(program), "--suite", str(suite)])
        assert code == EXIT_NO_PATCH
        assert "no-angelic-value" in capsys.readouterr().out

    def test_a_query_on_a_record_of_another_class_is_no_patch(self, tmp_path, capsys):
        for path, text in zip(("program.ml", "suite.txt"), FOREIGN_QUERY):
            (tmp_path / path).write_text(text)
        code = main([
            "repair", "--program", str(tmp_path / "program.ml"),
            "--suite", str(tmp_path / "suite.txt"),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_NO_PATCH
        assert "no-angelic-value" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_usage_error_on_bad_input(self, tmp_path, capsys):
        program = tmp_path / "program.ml"
        program.write_text("fn broken(")
        suite = tmp_path / "suite.txt"
        suite.write_text("a: broken() -> 1\n")
        code = main(["repair", "--program", str(program), "--suite", str(suite)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("literal", ["²", "١٢", "9" * 5000, "1e999"],
                             ids=["superscript", "arabic-indic", "5000-digits", "1e999"])
    def test_usage_error_on_a_literal_with_no_value(self, tmp_path, capsys, literal):
        program, suite = tmp_path / "program.ml", tmp_path / "suite.txt"
        args = ["repair", "--program", str(program), "--suite", str(suite)]
        program.write_text(f"fn f(x: int) -> int {{\n  return {literal};\n}}\n")
        suite.write_text("a: f(1) -> 1\n")
        assert main(args) == EXIT_USAGE
        assert "(line 2, column 10)" in capsys.readouterr().err
        program.write_text("fn f(x: int) -> int {\n  return x;\n}\n")
        suite.write_text(f"a: f(1) -> 1\nb: f({literal}) -> 1\n")
        assert main(args) == EXIT_USAGE
        assert "error: line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1])
    def test_nesting_at_and_past_the_limit(self, tmp_path, capsys, levels):
        from test_minilang import deep_ifs

        program = tmp_path / "program.ml"
        program.write_text(deep_ifs(levels))
        suite = tmp_path / "suite.txt"
        suite.write_text("up: f(1) -> 2\nzero: f(0) -> 1\n")
        code = main(["repair", "--program", str(program), "--suite", str(suite)])
        err = capsys.readouterr().err
        if levels == MAX_NESTING:
            assert code in (EXIT_PATCHED, EXIT_NO_PATCH)
        else:
            assert code == EXIT_USAGE
            assert f"nesting deeper than {MAX_NESTING} levels (line {MAX_NESTING}," in err
        assert "Traceback" not in err

    def test_global_timeout_ends_a_long_repair(self, tmp_path, capsys):
        from conftest import H_BUGGY, H_SUITE

        program = tmp_path / "program.ml"
        program.write_text(H_BUGGY)
        suite = tmp_path / "suite.txt"
        suite.write_text(H_SUITE)
        code = main([
            "repair", "--program", str(program), "--suite", str(suite),
            "--timeout", "1", "--mode", "condition",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_NO_PATCH
        assert captured.out.startswith("no patch found: exhausted\n")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("name", sorted(MISTYPED))
    def test_a_name_bound_to_another_type_is_repaired(self, tmp_path, capsys, name):
        program_text, suite_text, _ = MISTYPED[name]
        (tmp_path / "program.ml").write_text(program_text)
        (tmp_path / "suite.txt").write_text(suite_text)
        code = main([
            "repair", "--program", str(tmp_path / "program.ml"),
            "--suite", str(tmp_path / "suite.txt"),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_PATCHED
        assert "+  if (0 < x) {" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_usage_error_on_max_level_outside_ladder(self, tmp_path, capsys):
        program, suite = write_gcd_inputs(tmp_path)
        for level in ("0", "5"):
            code = main([
                "repair", "--program", str(program), "--suite", str(suite),
                "--max-level", level,
            ])
            assert code == EXIT_USAGE
        assert "max_level" in capsys.readouterr().err

    def test_usage_error_on_step_budget_below_one(self, tmp_path, capsys):
        program, suite = write_gcd_inputs(tmp_path)
        for budget in ("0", "-5"):
            code = main([
                "repair", "--program", str(program), "--suite", str(suite),
                "--step-budget", budget,
            ])
            assert code == EXIT_USAGE
        assert "step_budget and solver_nodes must be at least 1" in capsys.readouterr().err

    def test_usage_error_on_a_nan_timeout(self, tmp_path, capsys):
        program, suite = write_gcd_inputs(tmp_path)
        for flag in ("--timeout", "--level-timeout"):
            code = main(["repair", "--program", str(program), "--suite", str(suite), flag, "nan"])
            assert code == EXIT_USAGE
        assert "timeouts must be positive" in capsys.readouterr().err

    def test_usage_error_on_unknown_metric(self, tmp_path, capsys):
        program, suite = write_gcd_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["repair", "--program", str(program), "--suite", str(suite), "--metric", "nope"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_writes_deterministic_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        corpus = default_corpus_dir()
        code = main(["bench", "--corpus", str(corpus), "--out", str(out)])
        assert code == EXIT_PATCHED  # everything matched expectations
        first = out.read_text()
        assert (tmp_path / "report_effort.csv").exists()

        code = main(["bench", "--corpus", str(corpus), "--out", str(out)])
        assert code == EXIT_PATCHED
        assert out.read_text() == first

    def test_bench_missing_corpus(self, tmp_path, capsys):
        code = main(["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_USAGE

    def test_bench_reports_a_bad_bundle_without_a_traceback(self, tmp_path, capsys):
        bundle_dir = tmp_path / "corpus" / "cm5"
        write_bundle(load_bundle(default_corpus_dir() / "cm5"), bundle_dir)
        patch_file = bundle_dir / "human_patch.txt"
        patch_file.write_text(patch_file.read_text().replace("location: 1", "location: one"))
        code = main([
            "bench", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == EXIT_USAGE
        assert "error: bundle cm5: bad location 'one'" in capsys.readouterr().err

    def test_bench_reports_a_malformed_human_patch_expression(self, tmp_path, capsys):
        bundle_dir = tmp_path / "corpus" / "cm5"
        write_bundle(load_bundle(default_corpus_dir() / "cm5"), bundle_dir)
        patch_file = bundle_dir / "human_patch.txt"
        patch_file.write_text(patch_file.read_text().replace(
            "expr: u == 0 || v == 0", "expr: u == || v"))
        code = main([
            "bench", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == EXIT_USAGE
        assert "error: bundle cm5: bad expr 'u == || v'" in capsys.readouterr().err

    def test_bench_runs_the_bundles_that_load_beside_one_that_does_not(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for name in ("cm1", "cm5"):
            write_bundle(load_bundle(default_corpus_dir() / name), corpus / name)
        patch_file = corpus / "cm5" / "human_patch.txt"
        patch_file.write_text(patch_file.read_text().replace("location: 1", "location: one"))
        out = tmp_path / "r.csv"
        code = main(["bench", "--corpus", str(corpus), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "error: bundle cm5: bad location 'one'" in capsys.readouterr().err
        cm1, cm5 = csv.DictReader(out.read_text().splitlines())
        assert cm1["id"] == "cm1" and cm1["outcome"] == "patched"
        assert cm1["human_location"] == "3"
        assert cm5["id"] == "cm5" and cm5["outcome"] == "bundle-error"
        assert cm5["human_location"] == "" and cm5["expected_match"] == "false"
        assert cm5["reason"].startswith("bundle cm5: bad location 'one'")
        effort = (tmp_path / "r_effort.csv").read_text()
        assert effort.splitlines()[0] == "metric,condition-update_average,condition-update_median"

    @pytest.mark.parametrize("missing", ["suite.txt", "human_patch.txt", "meta.txt"])
    def test_bench_runs_the_bundles_that_load_beside_one_missing_a_file(
        self, tmp_path, capsys, missing
    ):
        corpus = tmp_path / "corpus"
        for name in ("cm1", "cm5"):
            write_bundle(load_bundle(default_corpus_dir() / name), corpus / name)
        (corpus / "cm5" / missing).unlink()
        out = tmp_path / "r.csv"
        code = main(["bench", "--corpus", str(corpus), "--out", str(out)])
        assert code == EXIT_USAGE
        error = f"bundle cm5: cannot read {missing}: No such file or directory"
        assert f"error: {error}" in capsys.readouterr().err
        cm1, cm5 = csv.DictReader(out.read_text().splitlines())
        assert cm1["id"] == "cm1" and cm1["outcome"] == "patched"
        assert cm5["id"] == "cm5" and cm5["outcome"] == "bundle-error"
        assert cm5["reason"] == error

    def test_bench_runs_the_other_bundles_beside_suites_that_call_wrongly(self, tmp_path, capsys):
        # A test that calls a function the program lacks, or with the wrong
        # number of arguments, fails its bundle's self-check by name.
        corpus = tmp_path / "corpus"
        for name in ("cm1", "cm5", "pm2"):
            shutil.copytree(default_corpus_dir() / name, corpus / name)
        for name, old, new in (("cm1", "above: percentile(3, 4)", "above: nosuch(3, 4)"),
                               ("pm2", 'other: describe(Str("xy"), 0)', 'other: describe(0)')):
            suite_file = corpus / name / "suite.txt"
            assert old in suite_file.read_text()
            suite_file.write_text(suite_file.read_text().replace(old, new))
        out = tmp_path / "r.csv"
        code = main(["bench", "--corpus", str(corpus), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        cm1, cm5, pm2 = csv.DictReader(out.read_text().splitlines())
        assert cm5["id"] == "cm5" and cm5["outcome"] == "patched"
        assert cm1["outcome"] == pm2["outcome"] == "bundle-error"
        assert cm1["reason"] == ("bundle cm1: bad suite.txt: test 'above' calls nosuch() "
                                 "with 2 arguments, which no function takes")
        assert pm2["reason"] == ("bundle pm2: bad suite.txt: test 'other' calls describe() "
                                 "with 1 arguments, which no function takes")

    def test_bench_gives_each_bad_bundle_one_row_and_runs_the_rest(self, tmp_path):
        # Seven copies of cm1, each bad in one file or field, beside a good
        # cm2: every copy fails its load with a reason that names it and the
        # file or field, and cm2's row is its row in the golden harness CSV.
        corpus = tmp_path / "corpus"
        shutil.copytree(default_corpus_dir() / "cm2", corpus / "cm2")
        bad = {
            "program": ("program.ml", "return 0;", "return 0", "bad program.ml: expected ';'"),
            "suite": ("suite.txt", "percentile(3, 4)", "percentile(3, 4", "bad suite.txt: line 1"),
            "undefined": ("suite.txt", "above: percentile", "above: nosuch",
                          "bad suite.txt: test 'above' calls nosuch()"),
            "location": ("human_patch.txt", "location: 3", "location: 999",
                         "bad human_patch.txt: unknown location 999"),
            "kind": ("human_patch.txt", "condition-update", "precondition-addition",
                     "bad human_patch.txt: precondition-addition requires statement kind"),
            "scope": ("human_patch.txt", "expr: pos >= n", "expr: pos >= zz",
                      "bad human_patch.txt: unresolved identifier 'zz'"),
            "grid": ("meta.txt", "entry: percentile", "entry: percentile\ngrid: u = 0..9223372036854775807",
                     f"bad grid 'u = 0..9223372036854775807': 9223372036854775808 grid points, "
                     f"more than {MAX_GRID_POINTS}"),
        }
        for name, (file, old, new, _) in bad.items():
            shutil.copytree(default_corpus_dir() / "cm1", corpus / name)
            path = corpus / name / file
            assert old in path.read_text()
            path.write_text(path.read_text().replace(old, new, 1))
        out = tmp_path / "r.csv"
        done = subprocess.run(
            [sys.executable, "-m", "condfix.cli", "bench", "--corpus", str(corpus), "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == EXIT_USAGE
        assert "Traceback" not in done.stderr
        assert (tmp_path / "r_effort.csv").exists()
        lines = out.read_text().splitlines()
        rows = {row["id"]: row for row in csv.DictReader(lines)}
        assert sorted(rows) == sorted([*bad, "cm2"])
        for name, (_, _, _, reason) in bad.items():
            assert rows[name]["outcome"] == "bundle-error"
            assert rows[name]["reason"].startswith(f"bundle {name}: {reason}"), rows[name]["reason"]
        golden = (Path(__file__).parent / "data" / "harness.csv").read_text().splitlines()
        assert [line for line in lines if line.startswith("cm2,")] == [
            line for line in golden if line.startswith("cm2,")]
