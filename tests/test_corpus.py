"""Bundle format, self-checks, grid equivalence, harness, and seeding."""
import pytest

from condfix.corpus import (
    BugBundle, GridSpec, HumanPatch, _parse_grid, builtin_seed_sources,
    builtin_seeded_bundles, check_equivalence, default_corpus_dir, load_bundle,
    load_corpus, run_harness, seed_condition_bugs, write_bundle,
)
from condfix.pipeline import RepairConfig
from condfix.errors import BundleError
from condfix.minilang import PatchKind, apply_patch, parse_program
from conftest import GCD_BUGGY

GCD_FIXED = GCD_BUGGY.replace("u * v == 0", "u == 0 || v == 0")


class TestBundleFiles:
    def test_load_paper_port_corpus(self):
        bundles = load_corpus(default_corpus_dir())
        assert [b.id for b in bundles] == [
            "cl4", "cm1", "cm2", "cm5", "pl3", "pl4", "pm1", "pm2",
        ]

    def test_every_bundle_self_checks(self):
        for bundle in load_corpus(default_corpus_dir()):
            bundle.self_check()

    def test_round_trip(self, tmp_path):
        original = load_bundle(default_corpus_dir() / "cm5")
        write_bundle(original, tmp_path / "copy")
        again = load_bundle(tmp_path / "copy")
        assert again.id == original.id
        assert again.program_text == original.program_text
        assert again.suite_text == original.suite_text
        assert again.human == original.human
        assert again.grid.axes == original.grid.axes

    def test_grid_sizes_meet_the_floor(self):
        for name in ("cm5", "cl4", "pl4", "pm2"):
            bundle = load_bundle(default_corpus_dir() / name)
            assert bundle.grid is not None
            assert bundle.grid.size() >= 500

    def test_self_check_catches_passing_bug(self, tmp_path):
        bundle = BugBundle(
            id="bogus",
            program_text=GCD_FIXED,
            suite_text="a: gcd(0, 6) -> 6\n",
            human=HumanPatch(PatchKind.CONDITION_UPDATE, 1, "u == 0 || v == 0"),
            entry="gcd",
            expected="fixable",
        )
        with pytest.raises(BundleError, match="no failing test"):
            bundle.self_check()


class TestGridSpec:
    @pytest.mark.parametrize("spec", ["u = 5..1", "u = 1..", "u = ..3", "u = a..b"])
    def test_bad_range_is_a_bundle_error(self, spec):
        with pytest.raises(BundleError, match="grid range"):
            _parse_grid(spec)

    def test_single_point_range(self):
        assert _parse_grid("u = 3..3; v = -1..0").axes == {"u": [3], "v": [-1, 0]}

    def test_reversed_range_in_meta_fails_the_load(self, tmp_path):
        bundle = load_bundle(default_corpus_dir() / "cm5")
        write_bundle(bundle, tmp_path / "copy")
        meta = tmp_path / "copy" / "meta.txt"
        meta.write_text(meta.read_text().replace("-12..12", "12..-12", 1))
        with pytest.raises(BundleError, match="empty grid range"):
            load_bundle(tmp_path / "copy")

    def test_equivalence_refuses_an_empty_axis(self):
        program = parse_program(GCD_FIXED)
        grid = GridSpec({"u": [], "v": [1, 2]})
        with pytest.raises(BundleError, match="empty"):
            check_equivalence(program, parse_program(GCD_FIXED), "gcd", grid)


class TestEquivalence:
    def test_identical_programs_agree(self):
        program = parse_program(GCD_FIXED)
        grid = GridSpec({"u": list(range(-6, 7)), "v": list(range(-6, 7))})
        assert check_equivalence(program, parse_program(GCD_FIXED), "gcd", grid)

    def test_buggy_vs_fixed_diverges_on_overflow_pair(self):
        # 2^32 * 2^32 wraps to zero, sending the buggy version down the
        # absolute-sum branch: 2^33 against the correct 2^32.
        buggy = parse_program(GCD_BUGGY)
        fixed = parse_program(GCD_FIXED)
        big = 1 << 32
        small_grid = GridSpec({"u": [0, 3, big], "v": [5, big]})
        assert not check_equivalence(buggy, fixed, "gcd", small_grid)

    def test_buggy_vs_fixed_agree_on_small_grid(self):
        buggy = parse_program(GCD_BUGGY)
        fixed = parse_program(GCD_FIXED)
        grid = GridSpec({"u": list(range(-12, 13)), "v": list(range(-12, 13))})
        assert check_equivalence(buggy, fixed, "gcd", grid)

    def test_cl4_redundant_null_form_is_equivalent(self):
        bundle = load_bundle(default_corpus_dir() / "cl4")
        program = bundle.program()
        from condfix.minilang import Patch, parse_expression

        paper_form = Patch(
            PatchKind.CONDITION_UPDATE, 4,
            parse_expression("!(substr != null) || startIndex >= size"),
        )
        human = bundle.human.to_patch()
        assert check_equivalence(
            apply_patch(program, paper_form),
            apply_patch(program, human),
            bundle.entry,
            bundle.grid,
        )

    def test_error_classes_must_match(self):
        throws_a = parse_program("fn f(x: int) -> int { throw Alpha; }")
        throws_b = parse_program("fn f(x: int) -> int { throw Beta; }")
        grid = GridSpec({"x": [1, 2]})
        assert not check_equivalence(throws_a, throws_b, "f", grid)
        assert check_equivalence(throws_a, parse_program(
            "fn f(x: int) -> int { throw Alpha; }"
        ), "f", grid)

    def test_one_sided_budget_exhaustion_disagrees(self):
        finite = parse_program("fn f(x: int) -> int { return x; }")
        looping = parse_program(
            "fn f(x: int) -> int { while (x == x) { x = x + 1; } return x; }"
        )
        grid = GridSpec({"x": [1]})
        assert not check_equivalence(finite, looping, "f", grid, step_budget=500)
        assert check_equivalence(looping, looping, "f", grid, step_budget=500)


class TestHarness:
    def test_paper_ports_all_match_expectations(self):
        report = run_harness(load_corpus(default_corpus_dir()))
        assert report.all_expected()

    def test_empty_bundle_list(self):
        report = run_harness([])
        assert report.rows == []
        assert report.to_csv().count("\n") == 1  # header only

    def test_invalid_bundle_becomes_error_row(self):
        bogus = BugBundle(
            id="broken",
            program_text=GCD_FIXED,
            suite_text="a: gcd(0, 6) -> 6\n",
            human=HumanPatch(PatchKind.CONDITION_UPDATE, 1, "u == 0 || v == 0"),
            entry="gcd",
            expected="fixable",
        )
        good = load_bundle(default_corpus_dir() / "pm2")
        report = run_harness([bogus, good])
        outcomes = {r.id: r.outcome for r in report.rows}
        assert outcomes["broken"] == "bundle-error"
        assert outcomes["pm2"] == "patched"

    def test_csv_is_deterministic(self):
        bundles = [load_bundle(default_corpus_dir() / "pm2")]
        first = run_harness(bundles)
        second = run_harness(bundles)
        assert first.to_csv() == second.to_csv()
        assert first.effort_table_csv() == second.effort_table_csv()

    def test_effort_table_shape(self):
        report = run_harness(load_corpus(default_corpus_dir()))
        table = report.effort_table_csv()
        lines = table.strip().splitlines()
        assert lines[0].split(",")[0] == "metric"
        assert len(lines) == 7  # header + six metrics
        assert "condition-update_average" in lines[0]
        assert "precondition-addition_average" in lines[0]


class TestSeeding:
    def test_at_least_ten_seeded_bundles(self):
        bundles = builtin_seeded_bundles()
        assert len(bundles) >= 10

    def test_seeded_bundles_self_check_and_repair(self):
        bundles = builtin_seeded_bundles()
        for bundle in bundles:
            bundle.self_check()
        report = run_harness(bundles)
        assert report.all_expected()

    def test_seed_programs_must_pass_their_suites(self):
        with pytest.raises(BundleError, match="must pass"):
            seed_condition_bugs("bad", GCD_BUGGY, "o: gcd(4294967296, 4294967296) -> 4294967296\n", "gcd")

    def test_seeding_runs_under_the_configured_step_budget(self):
        # countDown(9, 0) takes more than 50 steps, so under that budget the
        # seed program itself no longer passes its suite.
        steps = next(s for s in builtin_seed_sources() if s[0] == "steps")
        with pytest.raises(BundleError, match="must pass"):
            seed_condition_bugs(*steps, RepairConfig(step_budget=50))
