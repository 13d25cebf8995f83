"""The ``python -m repro lint`` subcommand.

Thin orchestration over the engine: discover files, run the default
rules, reconcile against the committed baseline, render console or
JSON output, and turn the result into an exit code —

* ``0`` — no findings beyond the baseline;
* ``1`` — new findings (the CI-failing case);
* ``2`` — the lint run itself could not proceed (bad path, malformed
  baseline).

``--update-baseline`` rewrites the baseline from the current findings
instead of failing on them — the ratchet's one sanctioned way down —
and reports how many entries the update added or retired.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import LintError
from repro.lint.baseline import BASELINE_FILENAME, Baseline, write_baseline
from repro.lint.engine import LintEngine
from repro.lint.findings import Finding
from repro.lint.graph.builder import build_graph
from repro.lint.graph.layers import load_graph_settings
from repro.lint.graph.rules import graph_rule_catalog, run_graph_rules
from repro.lint.rules import DEFAULT_RULES, rule_catalog
from repro.lint.sarif import render_sarif_text


def default_lint_paths(root: Path) -> List[Path]:
    """What to lint when no paths are given: the ``src`` tree if the
    working directory is a checkout, else the installed package."""
    source_tree = root / "src"
    if source_tree.is_dir():
        return [source_tree]
    import repro

    return [Path(repro.__file__).parent]


def render_console(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    n_files: int,
    baseline_path: Optional[Path],
) -> str:
    """The human-facing report: one line per new finding + a summary."""
    lines = [finding.to_text() for finding in new]
    summary = (
        f"lint: {n_files} files, {len(new)} new finding"
        f"{'s' if len(new) != 1 else ''}"
    )
    if baselined:
        summary += (
            f", {len(baselined)} baselined ({baseline_path})"
        )
    lines.append(summary)
    return "\n".join(lines)


def _finding_sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.rule_id, finding.column,
            finding.message)


def render_json(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    n_files: int,
    with_graph_rules: bool = False,
) -> str:
    """The machine-facing report (the CI artifact format).

    Byte-deterministic: findings sorted by ``(path, line, rule)``,
    stable key order, trailing newline — two runs over identical
    sources produce identical bytes, so CI artifact diffs are real.
    """
    new = sorted(new, key=_finding_sort_key)
    baselined = sorted(baselined, key=_finding_sort_key)
    per_rule: dict = {}
    for finding in new:
        per_rule[finding.rule_id] = per_rule.get(finding.rule_id, 0) + 1
    rules = rule_catalog()
    if with_graph_rules:
        rules = rules + graph_rule_catalog()
    payload = {
        "version": 1,
        "rules": rules,
        "findings": [finding.to_payload() for finding in new],
        "baselined": [finding.to_payload() for finding in baselined],
        "summary": {
            "files": n_files,
            "new": len(new),
            "baselined": len(baselined),
            "per_rule": dict(sorted(per_rule.items())),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_rule_list() -> str:
    lines = []
    for rule in rule_catalog() + graph_rule_catalog():
        lines.append(f"{rule['id']}  {rule['title']} [{rule['severity']}]")
        lines.append(f"    why: {rule['rationale']}")
        lines.append(f"    fix: {rule['hint']}")
    return "\n".join(lines)


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    if getattr(args, "list_rules", False):
        print(_render_rule_list())
        return 0
    root = Path.cwd()
    paths = [Path(p) for p in (args.paths or [])]
    if not paths:
        paths = default_lint_paths(root)
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    engine = LintEngine(DEFAULT_RULES)
    findings, n_files = engine.lint_paths(paths, root=root)

    use_graph = bool(getattr(args, "graph", False))
    graph_summary = ""
    if use_graph:
        settings = load_graph_settings(root / "pyproject.toml")
        graph = build_graph(paths, root=root)
        findings = sorted(findings + run_graph_rules(graph, settings))
        graph_summary = (
            f"lint: graph {len(graph.modules)} modules, "
            f"{len(graph.functions)} functions"
        )

    baseline_path: Optional[Path] = (
        Path(args.baseline) if args.baseline else None
    )
    if baseline_path is None and (root / BASELINE_FILENAME).is_file():
        baseline_path = root / BASELINE_FILENAME

    if getattr(args, "update_baseline", False):
        target = baseline_path or root / BASELINE_FILENAME
        try:
            previous = Baseline.load(target)
        except LintError:
            previous = Baseline.empty()
        for key, count in previous.stale_entries(findings):
            rule_id, path, message = key
            print(
                f"lint: retiring stale baseline entry {rule_id} "
                f"{path} (x{count}): {message}"
            )
        summary = write_baseline(target, findings)
        print(
            f"lint: baseline rewritten with {summary['entries']} entries "
            f"(was {len(previous)}) -> {target}"
        )
        return 0

    try:
        baseline = (
            Baseline.load(baseline_path)
            if baseline_path is not None
            else Baseline.empty()
        )
    except LintError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    new, baselined = baseline.partition(findings)

    if args.format == "json":
        sys.stdout.write(
            render_json(new, baselined, n_files, with_graph_rules=use_graph)
        )
    elif args.format == "sarif":
        catalog = rule_catalog()
        if use_graph:
            catalog = catalog + graph_rule_catalog()
        sys.stdout.write(render_sarif_text(new, baselined, catalog=catalog))
    else:
        print(render_console(new, baselined, n_files, baseline_path))
        if graph_summary:
            print(graph_summary)
        stale = baseline.stale_count(findings)
        if stale:
            print(
                f"lint: {stale} baseline entries no longer match — run "
                "with --update-baseline to ratchet the debt down"
            )
    return 1 if new else 0


def configure_lint_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the src tree)",
    )
    parser.add_argument(
        "--format",
        choices=("console", "json", "sarif"),
        default="console",
        help="output format (json is the CI artifact shape; sarif is "
        "what GitHub code scanning ingests)",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="also run the whole-program rules (ASYNC001/LOCK001/"
        "DET003/ARCH001) on a single parse of the whole tree",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"baseline file (default: {BASELINE_FILENAME} beside the "
        "working directory when present)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings "
        "(deterministic: sorted entries, stable paths)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, rationale, fix hint) and exit",
    )
