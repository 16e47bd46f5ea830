"""Design-time compilation: constraints + update patterns → checks.

Everything in this module runs once, at schema design time (section 4:
"these mappings take place statically and thus do not affect runtime
performance").  The artifacts are:

* per constraint: its Datalog denials and the *full* XQuery checks used
  by the brute-force strategy;
* per (update pattern, constraint): the simplified denials
  (``Simp^U_Δ``) and their parameterized XQuery templates, or a marker
  that this pair needs the brute-force fallback (footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostic import Diagnostic
from repro.analysis.patterns import (
    always_violated_diagnostic,
    brute_force_diagnostic,
    pattern_diagnostics,
)
from repro.analysis.redundancy import redundancy_diagnostics
from repro.analysis.safety import constraint_safety_diagnostics
from repro.analysis.satisfiability import (
    DTDView,
    constraint_path_diagnostics,
    denial_satisfiability,
)
from repro.datalog.denial import Denial
from repro.errors import CompilationError, SchemaError, SimplificationError
from repro.relational.prune import prune_denials
from repro.relational.schema import RelationalSchema
from repro.simplify import simp
from repro.simplify.optimize import always_violated, optimize
from repro.xpathlog import (compile_constraint, compile_rule,
                            parse_constraint, parse_rule)
from repro.xpathlog.ast import Constraint
from repro.xquery.translate import TranslatedQuery, translate_denials
from repro.xtree.dtd import DTD, parse_dtd
from repro.xupdate.analyze import (
    AnalyzedTransaction,
    AnalyzedUpdate,
    UpdateSignature,
    analyze_operation,
    analyze_transaction,
)
from repro.xupdate.parser import Operation, parse_modifications


@dataclass
class CompiledConstraint:
    """One XPathLog constraint with its compiled artifacts."""

    name: str
    source: Constraint
    denials: list[Denial]
    full_queries: list[TranslatedQuery]
    #: True when every denial is a dead check: no DTD-valid document can
    #: violate it, so the run-time strategies skip it entirely
    dead: bool = False

    def __str__(self) -> str:
        return f"{self.name}: {self.source}"


@dataclass
class OptimizedCheck:
    """The simplified check of one constraint w.r.t. one pattern."""

    constraint: CompiledConstraint
    simplified: list[Denial]
    queries: list[TranslatedQuery]

    @property
    def trivial(self) -> bool:
        """True when the update can never violate the constraint."""
        return not self.simplified

    @property
    def always_violated(self) -> bool:
        """True when every instance of the pattern violates it."""
        return any(always_violated(denial) for denial in self.simplified)


@dataclass
class PatternChecks:
    """Everything compiled for one update pattern."""

    analyzed: AnalyzedUpdate
    optimized: list[OptimizedCheck]
    #: constraints whose simplification failed: brute-force at run time
    fallback: list[CompiledConstraint] = field(default_factory=list)


@dataclass
class TransactionChecks:
    """Compiled checks for a multi-operation (all-append) transaction.

    The transaction is one update pattern in the sense of definition 2
    — a set of parametric additions — so Simp specializes the
    constraints once for the whole set and checking is *deferred*:
    intermediate states between the operations are never verified.
    """

    analyzed: AnalyzedTransaction
    optimized: list[OptimizedCheck]
    fallback: list[CompiledConstraint] = field(default_factory=list)


class ConstraintSchema:
    """The complete design-time artifact of the system.

    Args:
        dtds: the document DTDs (text or parsed), e.g. the ``pub.xml``
            and ``rev.xml`` DTDs of section 3.2.
        constraints: XPathLog denials (text or parsed ASTs), optionally
            named via the ``names`` list.

    Update patterns are registered afterwards with
    :meth:`register_pattern`, passing a representative XUpdate
    statement; all statements with the same signature (operation kind,
    parent node type, fragment shape) share the compiled checks.
    """

    def __init__(self, dtds: "list[DTD | str]",
                 constraints: "list[Constraint | str]",
                 names: list[str] | None = None,
                 views: "list[str] | None" = None) -> None:
        parsed_dtds = [
            dtd if isinstance(dtd, DTD) else parse_dtd(dtd) for dtd in dtds]
        self.dtds = parsed_dtds
        self.relational = RelationalSchema.from_dtds(parsed_dtds)
        self.dtd_view = DTDView(parsed_dtds)
        #: findings of the compile-time analysis passes (``XICnnn``)
        self.diagnostics: list[Diagnostic] = []
        self.views: dict = {}
        for view_text in views or []:
            rule = parse_rule(view_text)
            self.views[rule.head_name] = compile_rule(
                rule, self.relational, self.views)
        self.constraints: list[CompiledConstraint] = []
        self.patterns: dict[UpdateSignature, PatternChecks] = {}
        self.transaction_patterns: dict[
            tuple[UpdateSignature, ...], TransactionChecks] = {}
        for index, item in enumerate(constraints):
            source = item if isinstance(item, Constraint) \
                else parse_constraint(item)
            name = names[index] if names and index < len(names) \
                else f"C{index + 1}"
            denials = compile_constraint(source, self.relational,
                                         self.views)
            self.diagnostics.extend(constraint_path_diagnostics(
                source, self.dtd_view, name))
            safety = constraint_safety_diagnostics(
                name, source.source, denials)
            if safety:
                # unsafe constraints would only fail later, at run time,
                # inside the Datalog evaluator; surface them here so
                # DatalogEvaluationError stays unreachable for compiled
                # schemas
                self.diagnostics.extend(safety)
                raise CompilationError(
                    f"constraint {name!r} is unsafe: {safety[0].message}",
                    code=safety[0].code)
            # translate only after the safety pass: the XQuery
            # translation rejects unsafe denials too, with a less
            # precise message and no diagnostic code
            queries = translate_denials(denials, self.relational)
            dead_diagnostics, dead = denial_satisfiability(
                name, source.source, denials, self.relational,
                self.dtd_view)
            self.diagnostics.extend(dead_diagnostics)
            self.constraints.append(
                CompiledConstraint(name, source, denials, queries,
                                   dead=bool(dead)
                                   and len(dead) == len(denials)))
        self.diagnostics.extend(redundancy_diagnostics([
            (compiled.name, compiled.source.source, compiled.denials)
            for compiled in self.constraints]))
        self._deletion_unsafe = self._compute_deletion_unsafe()

    # -- pattern registration ---------------------------------------------------

    def register_pattern(self,
                         example: "str | Operation") -> UpdateSignature:
        """Compile the optimized checks for an update pattern.

        ``example`` is a representative XUpdate statement (or parsed
        operation); its concrete values are irrelevant — only the
        signature matters.  Returns the signature under which the
        checks are stored.
        """
        operations = self._operations_of(example)
        if len(operations) > 1:
            return self._register_transaction(operations)
        operation = operations[0]
        analyzed = analyze_operation(operation, self.relational)
        if analyzed.signature in self.patterns:
            return analyzed.signature
        pattern_name = str(analyzed.signature)
        self.diagnostics.extend(pattern_diagnostics(
            pattern_name, operation, self.relational, self.dtd_view))
        checks: list[OptimizedCheck] = []
        fallback: list[CompiledConstraint] = []
        for constraint in self.constraints:
            try:
                simplified = simp(constraint.denials, analyzed.pattern,
                                  analyzed.hypotheses)
                simplified = prune_denials(simplified, self.relational)
                simplified = self._reject_unbindable(simplified, analyzed)
                queries = translate_denials(simplified, self.relational)
            except SimplificationError as error:
                fallback.append(constraint)
                self.diagnostics.append(brute_force_diagnostic(
                    pattern_name, constraint.name, str(error)))
                continue
            check = OptimizedCheck(constraint, simplified, queries)
            if check.always_violated:
                self.diagnostics.append(always_violated_diagnostic(
                    pattern_name, constraint.name))
            checks.append(check)
        self.patterns[analyzed.signature] = PatternChecks(
            analyzed, checks, fallback)
        return analyzed.signature

    def _reject_unbindable(self, denials: list[Denial],
                           analyzed: AnalyzedUpdate) -> list[Denial]:
        """Refuse checks that still mention unbindable fresh ids.

        Fresh node identifiers do not exist before the update, so a
        simplified denial that refers to one cannot be evaluated in the
        present state.  The Δ hypotheses normally eliminate all such
        denials; any survivor means the fragment is outside what we can
        soundly pre-check.
        """
        fresh = analyzed.pattern.fresh_parameters
        for denial in denials:
            remaining = denial.parameters() & fresh
            if remaining:
                raise SimplificationError(
                    f"simplified check {denial} still references fresh "
                    f"node identifiers {sorted(p.name for p in remaining)}")
        return denials

    def _register_transaction(self, operations: list[Operation]):
        analyzed = analyze_transaction(operations, self.relational)
        if analyzed.signatures in self.transaction_patterns:
            return analyzed.signatures
        pattern_name = analyzed.pattern.name or "transaction"
        for operation in operations:
            self.diagnostics.extend(pattern_diagnostics(
                pattern_name, operation, self.relational, self.dtd_view))
        checks: list[OptimizedCheck] = []
        fallback: list[CompiledConstraint] = []
        for constraint in self.constraints:
            try:
                simplified = simp(constraint.denials, analyzed.pattern,
                                  analyzed.hypotheses)
                simplified = prune_denials(simplified, self.relational)
                for denial in simplified:
                    remaining = denial.parameters() \
                        & analyzed.pattern.fresh_parameters
                    if remaining:
                        raise SimplificationError(
                            f"check {denial} references fresh ids")
                queries = translate_denials(simplified, self.relational)
            except SimplificationError as error:
                fallback.append(constraint)
                self.diagnostics.append(brute_force_diagnostic(
                    pattern_name, constraint.name, str(error)))
                continue
            check = OptimizedCheck(constraint, simplified, queries)
            if check.always_violated:
                self.diagnostics.append(always_violated_diagnostic(
                    pattern_name, constraint.name))
            checks.append(check)
        self.transaction_patterns[analyzed.signatures] = TransactionChecks(
            analyzed, checks, fallback)
        return analyzed.signatures

    def checks_for(self, signature: UpdateSignature) -> PatternChecks | None:
        return self.patterns.get(signature)

    def checks_for_transaction(
            self, signatures: tuple[UpdateSignature, ...]
    ) -> TransactionChecks | None:
        return self.transaction_patterns.get(signatures)

    @staticmethod
    def _operations_of(example: "str | Operation") -> list[Operation]:
        if isinstance(example, str):
            return parse_modifications(example)
        return [example]

    # -- convenience ----------------------------------------------------------------

    def constraint(self, name: str) -> CompiledConstraint:
        for compiled in self.constraints:
            if compiled.name == name:
                return compiled
        raise SchemaError(f"no constraint named {name!r}")

    def optimize_constraints(self) -> None:
        """Normalize the full constraint set against itself.

        Each constraint's denials are normalized and checked for
        redundancy against every *other* constraint's (current)
        denials, so a constraint implied by the rest of the set loses
        its denials — it can never add a violation.  Processing is
        sequential, so of two equivalent constraints exactly one
        survives.
        """
        for compiled in self.constraints:
            trusted = [
                denial
                for other in self.constraints
                if other is not compiled
                for denial in other.denials
            ]
            compiled.denials = optimize(compiled.denials, trusted)
            compiled.full_queries = translate_denials(
                compiled.denials, self.relational)
        self._deletion_unsafe = self._compute_deletion_unsafe()

    def deletion_unsafe_constraints(self) -> list[str]:
        """Names of constraints a deletion could violate.

        Decided once per constraint set (here and in ``__init__``), so
        the run-time removal check is a list lookup instead of a
        ``deletion_safe`` sweep over every denial per operation.
        """
        return self._deletion_unsafe

    def _compute_deletion_unsafe(self) -> list[str]:
        from repro.simplify.deletion import deletion_safe
        return [
            compiled.name for compiled in self.constraints
            if any(not deletion_safe(denial)
                   for denial in compiled.denials)
        ]

    def describe(self) -> str:
        """Human-readable summary of the compiled schema."""
        lines = ["Relational schema:"]
        lines.extend("  " + line
                     for line in self.relational.describe().splitlines())
        lines.append("Constraints:")
        for compiled in self.constraints:
            lines.append(f"  {compiled.name}:")
            for denial in compiled.denials:
                lines.append(f"    {denial}")
        lines.append("Patterns:")
        for signature, checks in self.patterns.items():
            lines.append(f"  {signature} "
                         f"(U = {checks.analyzed.pattern})")
            for check in checks.optimized:
                for denial in check.simplified:
                    lines.append(f"    [{check.constraint.name}] {denial}")
                if check.trivial:
                    lines.append(
                        f"    [{check.constraint.name}] (cannot be "
                        "violated by this pattern)")
            for constraint in checks.fallback:
                lines.append(f"    [{constraint.name}] brute-force fallback")
        return "\n".join(lines)
