"""The shipped tree must lint clean, and the CLI must report honestly.

This is the repository's own gate: the same ``run_lint`` invocation
``make lint`` performs, asserted from pytest so tier-1 fails the moment
a rule violation lands.
"""

from pathlib import Path

from repro.cli import main
from repro.lint import DEFAULT_PATHS, RULE_DOCS, all_rules, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestShippedTree:
    def test_repository_lints_clean(self):
        run = run_lint(REPO_ROOT, paths=DEFAULT_PATHS)
        report = "\n".join(str(d) for d in run.diagnostics)
        assert not run.diagnostics, f"repro-lint findings:\n{report}"
        # The suite actually covered the tree (not a silently-empty glob).
        assert run.files_checked > 100

    def test_every_rule_is_registered_and_documented(self):
        rules = all_rules()
        assert [r.code for r in rules] == sorted(r.code for r in rules)
        assert {r.code for r in rules} == {
            f"R{i:03d}" for i in range(1, 12)
        }
        for rule in rules:
            assert rule.code in RULE_DOCS
            assert rule.name == RULE_DOCS[rule.code][0]
            assert rule.summary  # non-empty one-liner

    def test_shipped_tree_carries_no_pragmas(self):
        # The shipped tree carries no suppressions.  A new pragma is a
        # reviewable event, not drive-by noise.
        run = run_lint(REPO_ROOT, paths=DEFAULT_PATHS)
        assert run.suppressed == 0


class TestCliLint:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        assert main(["lint", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "files clean" in out

    def test_findings_exit_nonzero_with_report(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import numpy as np\nRNG = np.random.default_rng(7)\n"
        )
        assert main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "src/repro/bad.py:2: R001" in out
        assert out.rstrip().endswith("repro-lint: 1 finding")

    def test_list_rules_prints_every_code(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_DOCS:
            assert code in out

    def test_explicit_paths_narrow_the_run(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import numpy as np\nRNG = np.random.default_rng(7)\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_ok.py").write_text("x = 1\n")
        assert main(["lint", "--root", str(tmp_path), "tests"]) == 0
        assert (
            main(["lint", "--root", str(tmp_path), "src/repro/bad.py"]) == 1
        )
        capsys.readouterr()
