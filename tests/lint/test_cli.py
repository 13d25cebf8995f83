"""End-to-end coverage of ``python -m repro lint``.

Drives :func:`repro.__main__.main` the way the shell would, against
small synthetic source trees — a clean tree exits 0, a seeded
violation exits 1, a baselined violation exits 0 again, and
``--update-baseline`` ratchets deterministically.
"""

import json

import pytest

from repro.__main__ import main

CLEAN = (
    "\"\"\"A clean deterministic stage.\"\"\"\n\n"
    "import numpy as np\n\n\n"
    "def draw(seed):\n"
    "    \"\"\"Seeded draw.\"\"\"\n"
    "    return np.random.default_rng(seed).normal()\n"
)

VIOLATION = (
    "\"\"\"A stage with a wall-clock read.\"\"\"\n\n"
    "import time\n\n\n"
    "def stage():\n"
    "    \"\"\"Nondeterministic on purpose (test seed).\"\"\"\n"
    "    return time.time()\n"
)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny src/repro checkout as the working directory."""
    package = tmp_path / "src" / "repro" / "flow"
    package.mkdir(parents=True)
    (package / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def seed_violation(tree):
    (tree / "src" / "repro" / "flow" / "bad.py").write_text(VIOLATION)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert main(["lint"]) == 0
        assert "0 new findings" in capsys.readouterr().out

    def test_seeded_violation_exits_one(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "src/repro/flow/bad.py" in out

    def test_missing_path_exits_two(self, tree, capsys):
        assert main(["lint", "does/not/exist"]) == 2

    def test_noqa_suppresses_via_cli(self, tree):
        bad = tree / "src" / "repro" / "flow" / "bad.py"
        bad.write_text(
            VIOLATION.replace(
                "time.time()",
                "time.time()  # repro: noqa[DET001] wall time wanted here",
            )
        )
        assert main(["lint"]) == 0


class TestBaselineFlow:
    def test_update_then_pass_then_ratchet(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint"]) == 1

        # Commit the debt: the same violation now passes...
        assert main(["lint", "--update-baseline"]) == 0
        assert (tree / "lint-baseline.json").is_file()
        assert main(["lint"]) == 0

        # ...a *new* violation still fails...
        worse = tree / "src" / "repro" / "flow" / "worse.py"
        worse.write_text(VIOLATION.replace("stage", "other_stage"))
        assert main(["lint"]) == 1

        # ...and fixing everything leaves stale entries the console
        # points at, which --update-baseline then retires.
        worse.unlink()
        (tree / "src" / "repro" / "flow" / "bad.py").unlink()
        capsys.readouterr()
        assert main(["lint"]) == 0
        assert "no longer match" in capsys.readouterr().out
        assert main(["lint", "--update-baseline"]) == 0
        payload = json.loads((tree / "lint-baseline.json").read_text())
        assert payload["findings"] == []

    def test_update_baseline_is_deterministic(self, tree):
        seed_violation(tree)
        (tree / "src" / "repro" / "flow" / "worse.py").write_text(
            VIOLATION.replace("stage", "other_stage")
        )
        assert main(["lint", "--update-baseline"]) == 0
        first = (tree / "lint-baseline.json").read_bytes()
        assert main(["lint", "--update-baseline"]) == 0
        assert (tree / "lint-baseline.json").read_bytes() == first

    def test_explicit_baseline_path(self, tree):
        seed_violation(tree)
        target = tree / "debt.json"
        assert main(["lint", "--baseline", str(target), "--update-baseline"]) == 0
        assert target.is_file()
        assert main(["lint", "--baseline", str(target)]) == 0
        assert main(["lint"]) == 1  # default baseline name unaffected

    def test_malformed_baseline_exits_two(self, tree):
        (tree / "lint-baseline.json").write_text("{broken")
        assert main(["lint"]) == 2


class TestJsonFormat:
    def test_json_payload_shape(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["new"] == 1
        assert payload["summary"]["per_rule"] == {"DET001": 1}
        (entry,) = payload["findings"]
        assert entry["rule"] == "DET001"
        assert entry["path"] == "src/repro/flow/bad.py"
        assert entry["line"] == 8
        assert {r["id"] for r in payload["rules"]} == {
            "DET001", "DET002", "PROC001", "PROC002", "PROC003", "API001",
            "OBS001",
        }

    def test_json_counts_baselined(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint", "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {
            "baselined": 1, "files": 2, "new": 0, "per_rule": {},
        }


class TestJsonDeterminism:
    def test_json_output_is_byte_identical_across_runs(self, tree, capsys):
        seed_violation(tree)
        (tree / "src" / "repro" / "flow" / "worse.py").write_text(
            VIOLATION.replace("stage", "other_stage")
        )
        assert main(["lint", "--format", "json"]) == 1
        first = capsys.readouterr().out
        assert main(["lint", "--format", "json"]) == 1
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    def test_findings_sorted_by_path_line_rule(self, tree, capsys):
        seed_violation(tree)
        (tree / "src" / "repro" / "flow" / "worse.py").write_text(
            VIOLATION.replace("stage", "other_stage")
        )
        assert main(["lint", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        keys = [
            (entry["path"], entry["line"], entry["rule"])
            for entry in payload["findings"]
        ]
        assert keys == sorted(keys)


class TestStaleDebtFlow:
    def test_vanished_file_entry_is_reported_and_pruned(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint", "--update-baseline"]) == 0
        (tree / "src" / "repro" / "flow" / "bad.py").unlink()
        capsys.readouterr()
        assert main(["lint", "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "retiring stale baseline entry DET001" in out
        assert "src/repro/flow/bad.py" in out
        assert "(was 1)" in out
        payload = json.loads((tree / "lint-baseline.json").read_text())
        assert payload["findings"] == []

    def test_dropped_duplicate_count_is_reported(self, tree, capsys):
        seed_violation(tree)
        worse = tree / "src" / "repro" / "flow" / "worse.py"
        worse.write_text(VIOLATION.replace("stage", "other_stage"))
        assert main(["lint", "--update-baseline"]) == 0
        worse.unlink()
        capsys.readouterr()
        assert main(["lint", "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "retiring stale baseline entry DET001" in out
        assert "(x1)" in out
        payload = json.loads((tree / "lint-baseline.json").read_text())
        assert len(payload["findings"]) == 1


class TestSarifFormat:
    def test_sarif_document_from_cli(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint", "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        (result,) = document["runs"][0]["results"]
        assert result["ruleId"] == "DET001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/flow/bad.py"
        assert location["region"]["startLine"] == 8

    def test_sarif_marks_baselined_as_suppressed(self, tree, capsys):
        seed_violation(tree)
        assert main(["lint", "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        (result,) = document["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "external"


class TestGraphFlag:
    def test_graph_run_on_clean_tree(self, tree, capsys):
        assert main(["lint", "--graph"]) == 0
        out = capsys.readouterr().out
        assert "lint: graph" in out

    def test_graph_finds_async_blocking(self, tree, capsys):
        serve = tree / "src" / "repro" / "serve"
        serve.mkdir()
        (serve / "handler.py").write_text(
            "\"\"\"A blocking handler.\"\"\"\n\n"
            "import time\n\n\n"
            "async def handle():\n"
            "    \"\"\"Blocks the loop (bad on purpose).\"\"\"\n"
            "    time.sleep(1)\n"
        )
        assert main(["lint", "--graph"]) == 1
        out = capsys.readouterr().out
        assert "ASYNC001" in out
        assert main(["lint"]) == 0  # per-file rules alone stay quiet

    def test_graph_rules_join_json_catalog(self, tree, capsys):
        assert main(["lint", "--graph", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = {r["id"] for r in payload["rules"]}
        assert {"ASYNC001", "LOCK001", "DET003", "ARCH001"} <= ids


class TestListRules:
    def test_list_rules_prints_catalog(self, tree, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "PROC001", "PROC002", "API001",
            "ASYNC001", "LOCK001", "DET003", "ARCH001",
        ):
            assert rule_id in out
