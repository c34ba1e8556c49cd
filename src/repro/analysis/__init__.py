"""Repo-specific invariant linter (``python -m repro.analysis``).

A stdlib-``ast`` static-analysis pass enforcing the contracts that the
temporal-data-exchange engine's determinism and cross-process replay
guarantees rest on: identity-only pickling of salted-hash caches
(TDX001), the trusted-constructor boundary (TDX002), sorted iteration
on ordered-output paths (TDX003), no salted hashes in persisted
artifacts (TDX005) and no wall-clock/RNG in the deterministic core
(TDX006).  See
docs/architecture.md, "Invariant lint".
"""

from repro.analysis.framework import (
    META_RULE,
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    analyze_file,
    analyze_paths,
    module_name_for,
    register,
)

__all__ = [
    "META_RULE",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "module_name_for",
    "register",
]
