"""The constraint linter: run every analysis pass with error recovery.

:func:`lint_sources` takes raw DTD / constraint / view / update-pattern
texts — the same inputs :class:`repro.core.schema.ConstraintSchema`
accepts — and produces a :class:`LintReport` instead of raising on the
first problem: a parse or compile failure of one constraint becomes a
diagnostic (``XIC001``/``XIC002``) and the remaining constraints are
still analyzed.  This module deliberately does not import ``repro.core``
(which itself runs these passes at schema-compile time); it drives the
parsers and compilers directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.diagnostic import (
    ERROR,
    WARNING,
    Diagnostic,
    make_diagnostic,
    max_severity,
)
from repro.analysis.patterns import pattern_diagnostics
from repro.analysis.redundancy import redundancy_diagnostics
from repro.analysis.safety import constraint_safety_diagnostics
from repro.analysis.satisfiability import (
    DTDView,
    constraint_path_diagnostics,
    denial_satisfiability,
)
from repro.datalog.denial import Denial
from repro.errors import (
    CompilationError,
    DTDError,
    SchemaError,
    XPathLogError,
    XUpdateError,
)
from repro.relational.schema import RelationalSchema
from repro.xpathlog.compile import (
    CompiledView,
    compile_constraint,
    compile_rule,
)
from repro.xpathlog.parser import parse_constraint, parse_rule
from repro.xtree.dtd import DTD, parse_dtd
from repro.xupdate.parser import parse_modifications


@dataclass
class LintReport:
    """Everything the linter found, plus rendering helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: names of constraints all of whose denials are dead checks
    dead_constraints: list[str] = field(default_factory=list)
    #: names of constraints that parsed and compiled
    compiled_constraints: list[str] = field(default_factory=list)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def max_severity(self) -> str | None:
        return max_severity(self.diagnostics)

    def count_at_least(self, severity: str) -> int:
        return sum(1 for diagnostic in self.diagnostics
                   if diagnostic.is_at_least(severity))

    def codes(self) -> list[str]:
        return [diagnostic.code for diagnostic in self.diagnostics]

    def render_text(self) -> str:
        if not self.diagnostics:
            lines = ["clean: no diagnostics"]
        else:
            lines = [diagnostic.render() for diagnostic in self.diagnostics]
            errors = self.count_at_least(ERROR)
            warnings = self.count_at_least(WARNING) - errors
            lines.append(
                f"{len(self.diagnostics)} diagnostic(s): "
                f"{errors} error(s), {warnings} warning(s)")
        if self.dead_constraints:
            lines.append("dead constraints (skippable at run time): "
                         + ", ".join(self.dead_constraints))
        return "\n".join(lines)

    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Diagnostics in stable (code, subject) order.

        The deterministic order makes JSON output and CI annotation
        diffs stable across runs regardless of pass scheduling.
        """
        return sorted(
            self.diagnostics,
            key=lambda d: (d.code, d.subject or "", d.message))

    def to_json(self) -> str:
        return json.dumps({
            "diagnostics": [d.to_dict()
                            for d in self.sorted_diagnostics()],
            "dead_constraints": self.dead_constraints,
            "compiled_constraints": self.compiled_constraints,
            "max_severity": self.max_severity(),
        }, indent=2)

    def render_github(self) -> str:
        """GitHub Actions workflow-annotation lines (one per finding):
        ``::error``/``::warning``/``::notice`` commands titled by code.
        """
        lines = []
        for diagnostic in self.sorted_diagnostics():
            level = {ERROR: "error", WARNING: "warning"}.get(
                diagnostic.severity, "notice")
            message = diagnostic.message
            if diagnostic.subject:
                message = f"[{diagnostic.subject}] {message}"
            lines.append(
                f"::{level} title={diagnostic.code}::{message}")
        return "\n".join(lines)


def lint_sources(dtds: "list[str | DTD]",
                 constraints: list[str],
                 names: list[str] | None = None,
                 views: list[str] | None = None,
                 patterns: list[str] | None = None) -> LintReport:
    """Run all analysis passes over raw schema sources.

    ``patterns`` are XUpdate modification documents (one string each);
    each named ``P1``, ``P2``, ... in order.
    """
    report = LintReport()
    try:
        parsed_dtds = [dtd if isinstance(dtd, DTD) else parse_dtd(dtd)
                       for dtd in dtds]
    except DTDError as error:
        report.extend([make_diagnostic(
            "XIC001", f"DTD does not parse: {error}", subject="<dtd>")])
        return report
    try:
        relational = RelationalSchema.from_dtds(parsed_dtds)
    except SchemaError as error:
        report.extend([make_diagnostic(
            "XIC002", f"DTDs have no relational mapping: {error}",
            subject="<dtd>")])
        return report
    view = DTDView(parsed_dtds)

    compiled_views = _lint_views(views or [], relational, report)
    compiled = _lint_constraints(constraints, names, relational, view,
                                 compiled_views, report)
    report.extend(redundancy_diagnostics(
        [(name, source, denials) for name, source, denials in compiled]))
    _lint_patterns(patterns or [], relational, view, report)
    return report


def _lint_views(views: list[str], relational: RelationalSchema,
                report: LintReport) -> dict[str, CompiledView]:
    compiled: dict[str, CompiledView] = {}
    for index, text in enumerate(views):
        label = f"view {index + 1}"
        try:
            rule = parse_rule(text)
        except XPathLogError as error:
            report.extend([make_diagnostic(
                "XIC001", f"{label} does not parse: {error}",
                subject=label, source=text)])
            continue
        try:
            compiled[rule.head_name] = compile_rule(rule, relational,
                                                    compiled)
        except (CompilationError, SchemaError) as error:
            report.extend([make_diagnostic(
                "XIC002", f"view {rule.head_name!r} does not compile: "
                f"{error}", subject=rule.head_name, source=text)])
    return compiled


def _lint_constraints(
        constraints: list[str], names: list[str] | None,
        relational: RelationalSchema, view: DTDView,
        compiled_views: dict[str, CompiledView],
        report: LintReport) -> list[tuple[str, str | None, list[Denial]]]:
    compiled: list[tuple[str, str | None, list[Denial]]] = []
    for index, text in enumerate(constraints):
        name = names[index] if names and index < len(names) \
            else f"C{index + 1}"
        try:
            constraint = parse_constraint(text)
        except XPathLogError as error:
            report.extend([make_diagnostic(
                "XIC001", f"constraint {name!r} does not parse: {error}",
                subject=name, source=text)])
            continue
        path_diagnostics = constraint_path_diagnostics(
            constraint, view, name)
        report.extend(path_diagnostics)
        try:
            denials = compile_constraint(constraint, relational,
                                         compiled_views)
        except (CompilationError, SchemaError) as error:
            if not path_diagnostics:
                # an AST-level finding already explains the failure;
                # only unexplained compile errors get their own entry
                code = getattr(error, "code", None) or "XIC002"
                report.extend([make_diagnostic(
                    code, f"constraint {name!r} does not compile: "
                    f"{error}", subject=name, source=text)])
            continue
        report.compiled_constraints.append(name)
        report.extend(constraint_safety_diagnostics(
            name, text, denials))
        dead_diagnostics, dead = denial_satisfiability(
            name, text, denials, relational, view)
        report.extend(dead_diagnostics)
        if dead and len(dead) == len(denials):
            report.dead_constraints.append(name)
        compiled.append((name, text, denials))
    return compiled


def _lint_patterns(patterns: list[str], relational: RelationalSchema,
                   view: DTDView, report: LintReport) -> None:
    for index, text in enumerate(patterns):
        name = f"P{index + 1}"
        try:
            operations = parse_modifications(text)
        except XUpdateError as error:
            report.extend([make_diagnostic(
                "XIC001", f"pattern {name!r} does not parse: {error}",
                subject=name, source=text)])
            continue
        for operation in operations:
            report.extend(pattern_diagnostics(
                name, operation, relational, view, source=text))
