"""Driver for the ``repro-lint`` rules: walking, suppression, baseline, CLI.

The flow per file is parse → run every rule → drop findings covered by an
inline ``# repro-lint: ok RULE`` suppression.  When the analyzed set
touches ``src/repro``, the whole-package rules additionally run: the
interprocedural ones (CONC004/ERR002/PICK001, :mod:`tools.analyze.propagate`)
over the package call graph (:mod:`tools.analyze.callgraph`) — optionally
loaded from an on-disk cache keyed on the package's source fingerprint
(``--cache``) — and DEAD001 (:mod:`tools.analyze.deadcode`), which parses
the package and the directories outside it afresh on every run.  Their
findings honor the same inline suppressions.  Across the run,
findings that match a justified entry in the committed baseline
(``tools/analyze/baseline.json``) are accepted; everything else fails the
build.  Baseline entries match on ``(rule, path, symbol)`` — symbol is the
enclosing function reported by the rule — so they survive unrelated line
drift but die with the code they describe; every entry must carry a
non-empty ``justification`` and entries matching nothing are reported as
stale warnings — promoted to hard errors (exit 2) under ``--ci`` so dead
suppressions cannot rot in the repository.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import pickle
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .deadcode import RULE as DEAD_RULE, USE_DIRS, find_dead_definitions
from .rules import RULES, Finding, _Context

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Package the whole-package rules run over.
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Directories whose names count as uses of package definitions (DEAD001).
USE_ROOTS = tuple(REPO_ROOT / name for name in USE_DIRS)

#: Default committed baseline of accepted findings.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

_SUPPRESS = re.compile(
    r"#\s*repro-lint:\s*ok\s+([A-Z]{2,8}\d{3}(?:\s*,\s*[A-Z]{2,8}\d{3})*)")


def _scan_comments(source: str) -> Dict[int, str]:
    """Map line number → comment text, using ``tokenize`` so comments inside
    string literals are never misread as annotations."""
    comments: Dict[int, str] = {}
    # On malformed input the AST parse reports the real syntax problem.
    with contextlib.suppress(tokenize.TokenError, IndentationError, SyntaxError):
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    return comments


def _suppressions(comments: Dict[int, str], lines: Sequence[str]) -> Dict[int, set]:
    """Lines covered by an inline suppression: the comment's own line, plus
    the following line when the comment stands alone on its line."""
    covered: Dict[int, set] = {}
    for lineno, comment in comments.items():
        match = _SUPPRESS.search(comment)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",")}
        covered.setdefault(lineno, set()).update(rules)
        if lineno - 1 < len(lines) and lines[lineno - 1].lstrip().startswith("#"):
            covered.setdefault(lineno + 1, set()).update(rules)
    return covered


def analyze_source(source: str, path: str,
                   suppressed: Optional[List[Finding]] = None) -> List[Finding]:
    """Run every rule over one file's source; apply inline suppressions.

    When ``suppressed`` is given, findings dropped by an inline
    suppression are appended to it (for per-rule accounting).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding("SYNTAX", path, exc.lineno or 0, "",
                        f"file does not parse: {exc.msg}")]
    lines = source.splitlines()
    comments = _scan_comments(source)
    ctx = _Context(tree, path, lines, comments)
    findings: List[Finding] = []
    for checker, _description in RULES.values():
        findings.extend(checker(ctx))
    covered = _suppressions(comments, lines)
    kept = []
    for finding in findings:
        if finding.rule in covered.get(finding.line, ()):
            if suppressed is not None:
                suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def _relative(path: Path) -> str:
    """Repo-root-relative posix path when possible (stable baseline keys)."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return resolved.as_posix()


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    """Expand files/directories into the ``.py`` files to analyze."""
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py")
                              if not any(part.startswith(".")
                                         for part in p.parts))
        elif path.suffix == ".py":
            yield path


def analyze_paths(paths: Iterable[Path],
                  suppressed: Optional[List[Finding]] = None) -> List[Finding]:
    """Analyze every Python file under ``paths``; return all findings."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(analyze_source(source, _relative(file_path),
                                       suppressed))
    return findings


# --------------------------------------------------------------------- #
# interprocedural rules (call-graph layer)
# --------------------------------------------------------------------- #

def load_or_build_graph(package_root: Optional[Path] = None, *,
                        cache_path: Optional[Path] = None):
    """Build the package call graph, or reuse a fingerprint-valid cache.

    Returns ``(graph, from_cache)``.  The cache (a pickled
    :class:`~tools.analyze.callgraph.CallGraph`) is accepted only when its
    recorded ``source_key`` matches the current package fingerprint, which
    also folds in ``GRAPH_VERSION`` — so both source edits and analyzer
    format changes invalidate it.  A corrupt cache file is treated as a
    miss, never an error.
    """
    from .callgraph import CallGraph, build_package_graph, package_fingerprint
    if package_root is None:
        package_root = PACKAGE_ROOT
    if cache_path is not None and cache_path.exists():
        with contextlib.suppress(Exception):
            cached = pickle.loads(cache_path.read_bytes())
            if isinstance(cached, CallGraph) and cached.source_key == \
                    package_fingerprint(package_root, REPO_ROOT):
                return cached, True
    graph = build_package_graph(package_root, repo_root=REPO_ROOT)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_bytes(pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
    return graph, False


def interprocedural_findings(analyzed: Set[str], *,
                             cache_path: Optional[Path] = None,
                             suppressed: Optional[List[Finding]] = None
                             ) -> List[Finding]:
    """Run CONC004/ERR002/PICK001 and DEAD001 when ``analyzed`` touches
    ``src/repro``.

    The rules always span the whole package (a single file in isolation has
    no call graph, and no view of who names its definitions), but only
    findings located in one of the ``analyzed`` repo-relative paths are
    returned, so ``python -m tools.analyze src/repro/serving/engine.py``
    reports that file's findings only.  Inline suppressions on the finding
    line apply exactly as for the per-file rules.
    """
    from .propagate import run_interprocedural

    def _in_package(rel: str) -> bool:
        with contextlib.suppress(OSError, ValueError):
            return (REPO_ROOT / rel).resolve().is_relative_to(PACKAGE_ROOT)
        return False

    if not PACKAGE_ROOT.is_dir():
        return []
    in_package = {p for p in analyzed if _in_package(p)}
    if not in_package:
        return []
    graph, _ = load_or_build_graph(cache_path=cache_path)
    kept: List[Finding] = []
    covered_by_path: Dict[str, Dict[int, set]] = {}
    for finding in run_interprocedural(graph) + find_dead_definitions(
            PACKAGE_ROOT, USE_ROOTS, _relative):
        if finding.path not in in_package:
            continue
        if finding.path not in covered_by_path:
            source = (REPO_ROOT / finding.path).read_text(encoding="utf-8")
            covered_by_path[finding.path] = _suppressions(
                _scan_comments(source), source.splitlines())
        if finding.rule in covered_by_path[finding.path].get(finding.line, ()):
            if suppressed is not None:
                suppressed.append(finding)
        else:
            kept.append(finding)
    return kept


# --------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------- #

class BaselineError(Exception):
    """Raised when the baseline file is malformed or unjustified."""


def load_baseline(path: Path) -> List[dict]:
    """Load and validate the baseline: a list of entries, each with ``rule``,
    ``path``, ``symbol`` and a non-empty ``justification``."""
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return []
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise BaselineError(f"{path}: expected a JSON list of entries")
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BaselineError(f"{path}: entry {index} is not an object")
        for key in ("rule", "path", "symbol", "justification"):
            if key not in entry:
                raise BaselineError(f"{path}: entry {index} lacks {key!r}")
        if not str(entry["justification"]).strip():
            raise BaselineError(
                f"{path}: entry {index} ({entry['rule']} {entry['path']}) "
                f"has an empty justification; every baselined finding must "
                f"say why it is accepted")
    return entries


def apply_baseline(findings: Sequence[Finding], entries: Sequence[dict]
                   ) -> Tuple[List[Finding], List[dict]]:
    """Split findings into (new, ...) and report stale baseline entries.

    Returns ``(new_findings, stale_entries)``: findings not matched by any
    entry, and entries that matched no finding (candidates for deletion).
    """
    keys = {(e["rule"], e["path"], e["symbol"]): False for e in entries}
    new: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.symbol)
        if key in keys:
            keys[key] = True
        else:
            new.append(finding)
    stale = [e for e in entries
             if not keys[(e["rule"], e["path"], e["symbol"])]]
    return new, stale


def emit_baseline(findings: Sequence[Finding]) -> str:
    """JSON skeleton covering ``findings`` (justifications left to fill in)."""
    seen = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.symbol)
        if key not in seen:
            seen[key] = {"rule": finding.rule, "path": finding.path,
                         "symbol": finding.symbol,
                         "justification": ""}
    return json.dumps(list(seen.values()), indent=2) + "\n"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def _rule_counts(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def render_counts(new: Sequence[Finding], suppressed: Sequence[Finding],
                  baselined: Sequence[Finding]) -> str:
    """Per-rule ``new/suppressed/baselined`` table (for CI job summaries)."""
    from .propagate import INTER_RULES
    new_c, sup_c, base_c = (_rule_counts(f) for f in
                            (new, suppressed, baselined))
    rules = sorted(set(RULES) | set(INTER_RULES) | {DEAD_RULE}
                   | set(new_c) | set(sup_c) | set(base_c))
    lines = ["rule      new  suppressed  baselined"]
    for rule in rules:
        lines.append(f"{rule:<8} {new_c.get(rule, 0):>4}  "
                     f"{sup_c.get(rule, 0):>10}  {base_c.get(rule, 0):>9}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m tools.analyze``; returns the exit status.

    0 — clean (every finding suppressed or baselined with justification);
    1 — new findings; 2 — malformed baseline or arguments, or (with
    ``--ci``) stale baseline entries.
    """
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyze",
        description="repro-lint: project-specific static analysis")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline file of accepted findings")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report every finding")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON instead of text")
    parser.add_argument("--emit-baseline", action="store_true",
                        help="print a baseline skeleton for current findings "
                             "(justifications must be filled in by hand)")
    parser.add_argument("--ci", action="store_true",
                        help="strict CI mode: stale baseline entries become "
                             "errors (exit 2) instead of warnings")
    parser.add_argument("--cache", type=Path, default=None,
                        help="call-graph cache file; reused when the package "
                             "source fingerprint matches, rebuilt otherwise")
    parser.add_argument("--counts", action="store_true",
                        help="print a per-rule finding/suppression/baseline "
                             "count table after the findings")
    parser.add_argument("--no-interprocedural", action="store_true",
                        help="skip the whole-package rules "
                             "(CONC004/ERR002/PICK001/DEAD001)")
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    suppressed: List[Finding] = []
    findings = analyze_paths(paths, suppressed)
    if not args.no_interprocedural:
        analyzed = {_relative(p) for p in iter_python_files(paths)}
        findings.extend(interprocedural_findings(
            analyzed, cache_path=args.cache, suppressed=suppressed))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    if args.emit_baseline:
        sys.stdout.write(emit_baseline(findings))
        return 0

    stale: List[dict] = []
    baselined: List[Finding] = []
    if not args.no_baseline:
        try:
            entries = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
        new, stale = apply_baseline(findings, entries)
        matched = {(f.rule, f.path, f.line, f.message) for f in new}
        baselined = [f for f in findings
                     if (f.rule, f.path, f.line, f.message) not in matched]
        findings = new

    if args.as_json:
        sys.stdout.write(json.dumps(
            [finding.__dict__ for finding in findings], indent=2) + "\n")
    else:
        for finding in findings:
            print(finding.render())
    if args.counts:
        sys.stdout.write(render_counts(findings, suppressed, baselined))
    severity = "error" if args.ci else "warning"
    for entry in stale:
        print(f"repro-lint: {severity}: stale baseline entry matches "
              f"nothing: {entry['rule']} {entry['path']} "
              f"[{entry['symbol']}] — delete it", file=sys.stderr)
    if findings:
        print(f"repro-lint: {len(findings)} new finding(s); fix them, add an "
              f"inline '# repro-lint: ok <RULE>' with a reason, or baseline "
              f"them with a justification", file=sys.stderr)
        return 1
    if stale and args.ci:
        print(f"repro-lint: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} under --ci; delete "
              f"them from the baseline", file=sys.stderr)
        return 2
    return 0
