"""Core machinery of the invariant linter: findings, rules, suppressions.

The analyzer is a plain stdlib-``ast`` walk — no third-party parser, no
imports of the code under analysis (rules never execute repository
code, so the linter can run on a broken tree).  Each rule receives a
:class:`ModuleContext` holding the parsed tree, a parent map, the raw
source lines and the module's dotted name, and yields :class:`Finding`
objects; the driver applies ``repro: ignore[...]`` comment
suppressions and reports what survives.

Suppression syntax (checked by the driver itself)::

    frobnicate(x)  # repro: ignore[TDX002]: bootstrap path, validated above

    # repro: ignore[TDX003, TDX005]: applies to the next statement line
    emit(payload)

Every suppression must carry a one-line rationale after the closing
bracket — a suppression without one is itself reported (``TDX000``,
not suppressible), so reviewers always see *why* an invariant was
waived, right where it was waived.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "Rule",
    "ModuleContext",
    "register",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "module_name_for",
    "META_RULE",
]

#: Reserved code for analyzer-integrity findings (malformed suppression,
#: missing rationale, unparseable file).  Never suppressible.
META_RULE = "TDX000"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[(?P<codes>[^\]]*)\](?P<rest>.*)")
_CODE_RE = re.compile(r"^TDX\d{3}$")
_MARKER_RE = re.compile(r"#\s*repro:\s*(?P<name>[a-z][a-z0-9-]*)\b(?!\s*\[)")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Rule:
    """Base class for registered rules.

    Subclasses set ``code`` / ``name`` / ``summary`` and implement
    :meth:`check`.  Rules are stateless: one shared instance is run
    over every module.
    """

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not _CODE_RE.match(cls.code) or cls.code == META_RULE:
        raise ValueError(f"rule code must match TDXnnn (not {META_RULE}): {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by code."""
    _ensure_rules_loaded()
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def _ensure_rules_loaded() -> None:
    # The rule module registers itself on import; imported lazily so
    # framework <-> rules stay an acyclic pair.
    if not _REGISTRY:
        from repro.analysis import rules  # noqa: F401  (import-for-effect)


class _Suppressions:
    """Per-line suppression table parsed from the raw source.

    A suppression comment on a code line covers that line; a standalone
    comment line covers the next non-blank, non-comment line.  Findings
    about the suppressions themselves (missing rationale, unknown rule
    code) are collected here and surface as {META_RULE}.
    """

    def __init__(self, lines: list[str], path: str):
        self.by_line: dict[int, set[str]] = {}
        self.meta_findings: list[Finding] = []
        pending: list[tuple[int, set[str]]] = []
        for number, text in enumerate(lines, start=1):
            stripped = text.strip()
            match = _SUPPRESS_RE.search(text)
            if match is None:
                if stripped and not stripped.startswith("#") and pending:
                    covered = self.by_line.setdefault(number, set())
                    for _, codes in pending:
                        covered.update(codes)
                    pending = []
                continue
            codes = {part.strip() for part in match.group("codes").split(",")}
            codes.discard("")
            bad = sorted(
                code for code in codes if not _CODE_RE.match(code) or code == META_RULE
            )
            if not codes or bad:
                self.meta_findings.append(
                    Finding(
                        META_RULE,
                        path,
                        number,
                        match.start() + 1,
                        "suppression lists no valid rule code "
                        f"(got {sorted(codes) or '[]'}); use e.g. "
                        "# repro: ignore[TDX001]: <rationale>",
                    )
                )
                continue
            rest = match.group("rest").strip()
            if not rest.startswith(":") or not rest.lstrip(": \t"):
                self.meta_findings.append(
                    Finding(
                        META_RULE,
                        path,
                        number,
                        match.start() + 1,
                        "suppression carries no rationale; every "
                        "repro: ignore[...] comment must end with "
                        "': <one-line reason>'",
                    )
                )
                continue
            if stripped.startswith("#"):
                pending.append((number, codes))
            else:
                self.by_line.setdefault(number, set()).update(codes)

    def covers(self, line: int, code: str) -> bool:
        return code in self.by_line.get(line, ())


def module_name_for(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path segment.

    ``src/repro/temporal/interval.py`` -> ``repro.temporal.interval``;
    files outside a ``repro`` tree (e.g. test fixtures) use their stem,
    so module-scoped exemptions never apply to them.
    """
    parts = list(path.parts)
    name_parts = [*parts[:-1], path.stem]
    if path.stem == "__init__":
        name_parts = parts[:-1]
    for index in range(len(name_parts) - 1, -1, -1):
        if name_parts[index] == "repro":
            return ".".join(name_parts[index:])
    return path.stem


@dataclasses.dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: Path
    module: str
    lines: list[str]
    tree: ast.Module
    parents: dict[ast.AST, ast.AST]

    @classmethod
    def parse(cls, path: Path, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return cls(
            path=path,
            module=module_name_for(path),
            lines=source.splitlines(),
            tree=tree,
            parents=parents,
        )

    # -- navigation -----------------------------------------------------
    def iter_functions(
        self,
    ) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def iter_classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    # -- markers --------------------------------------------------------
    def markers_for(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """``# repro: <marker>`` annotations attached to a function.

        A marker counts when it sits on the ``def`` line, on a decorator
        line, or on a comment line directly above the first decorator /
        the ``def``.
        """
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        candidates = range(max(1, first - 1), node.lineno + 1)
        found: set[str] = set()
        for number in candidates:
            text = self.lines[number - 1] if number - 1 < len(self.lines) else ""
            for match in _MARKER_RE.finditer(text):
                if match.group("name") != "ignore":
                    found.add(match.group("name"))
        return found

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            rule=code,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def analyze_file(path: Path, select: Iterable[str] | None = None) -> list[Finding]:
    """Run every (selected) rule over one file; suppressions applied."""
    _ensure_rules_loaded()
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Finding(META_RULE, str(path), 1, 1, f"cannot read file: {exc}")]
    try:
        ctx = ModuleContext.parse(path, source)
    except SyntaxError as exc:
        return [
            Finding(
                META_RULE,
                str(path),
                exc.lineno or 1,
                (exc.offset or 0) + 1,
                f"cannot parse file: {exc.msg}",
            )
        ]
    suppressions = _Suppressions(ctx.lines, str(path))
    wanted = set(select) if select is not None else None
    findings: list[Finding] = list(suppressions.meta_findings)
    for rule in all_rules():
        if wanted is not None and rule.code not in wanted:
            continue
        for item in rule.check(ctx):
            if not suppressions.covers(item.line, item.rule):
                findings.append(item)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """The .py files under *paths* (files or directories), sorted."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
                and not any(part.startswith(".") for part in candidate.parts)
            )
        else:
            yield path


def analyze_paths(
    paths: Iterable[Path], select: Iterable[str] | None = None
) -> tuple[list[Finding], int]:
    """Analyze every file under *paths*: (findings, files checked)."""
    findings: list[Finding] = []
    count = 0
    for file_path in iter_python_files(paths):
        count += 1
        findings.extend(analyze_file(file_path, select=select))
    return findings, count
