"""The structured diagnostic model of the constraint linter.

Every finding of the compile-time analysis passes is a
:class:`Diagnostic`: a stable ``XICnnn`` code, a severity, the subject
it concerns (a constraint or update-pattern name), a best-effort source
span, and a fix hint.  Codes are grouped by pass:

* ``XIC0xx`` — input problems (parse/compile failures);
* ``XIC1xx`` — DTD-path satisfiability (unknown names, impossible
  edges, dead checks);
* ``XIC2xx`` — Datalog safety / range restriction;
* ``XIC3xx`` — redundancy between constraints;
* ``XIC4xx`` — update-pattern analysis.

The catalogue with one example and fix per code lives in
``docs/diagnostics.md``; code/severity pairs are registered in
:data:`CODES` so that severities stay consistent across passes.
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}

#: code → (default severity, short title)
CODES: dict[str, tuple[str, str]] = {
    "XIC001": (ERROR, "input does not parse"),
    "XIC002": (ERROR, "constraint does not compile against the schema"),
    "XIC101": (ERROR, "unknown element tag"),
    "XIC102": (ERROR, "unknown attribute"),
    "XIC103": (ERROR, "impossible parent/child step"),
    "XIC104": (ERROR, "no character data at this step"),
    "XIC105": (WARNING, "dead check: sibling cardinality contradiction"),
    "XIC106": (WARNING, "dead check: value outside attribute enumeration"),
    "XIC201": (ERROR, "unsafe variable in a comparison"),
    "XIC202": (ERROR, "unsafe variable shared with a negation"),
    "XIC203": (ERROR, "unsafe aggregate condition"),
    "XIC301": (WARNING, "constraint implied by another constraint"),
    "XIC302": (WARNING, "constraint equivalent to another constraint"),
    "XIC401": (ERROR, "untypable update-pattern parameter"),
    "XIC402": (ERROR, "pattern matches no DTD-valid update"),
    "XIC403": (WARNING, "pattern always violates a constraint"),
    "XIC404": (INFO, "pattern/constraint pair needs brute force"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analysis pass."""

    code: str
    severity: str
    message: str
    #: name of the constraint or update pattern concerned, if any
    subject: str | None = None
    #: the source text the finding refers to (constraint / pattern text)
    source: str | None = None
    #: (start, end) character offsets into ``source``, when locatable
    span: tuple[int, int] | None = None
    hint: str | None = None

    def is_at_least(self, severity: str) -> bool:
        return _SEVERITY_RANK[self.severity] >= _SEVERITY_RANK[severity]

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        payload: dict = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.subject is not None:
            payload["subject"] = self.subject
        if self.source is not None:
            payload["source"] = self.source
        if self.span is not None:
            payload["span"] = list(self.span)
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    def render(self) -> str:
        """Multi-line human-readable rendering."""
        subject = f" [{self.subject}]" if self.subject else ""
        lines = [f"{self.code} {self.severity}{subject}: {self.message}"]
        if self.source is not None and self.span is not None:
            start, end = self.span
            line_start = self.source.rfind("\n", 0, start) + 1
            line_end = self.source.find("\n", start)
            if line_end == -1:
                line_end = len(self.source)
            snippet = self.source[line_start:line_end]
            caret_at = start - line_start
            width = max(1, min(end, line_end) - start)
            lines.append("    " + snippet)
            lines.append("    " + " " * caret_at + "^" * width)
        if self.hint is not None:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render().splitlines()[0]


def make_diagnostic(code: str, message: str, *, subject: str | None = None,
                    source: str | None = None,
                    span: tuple[int, int] | None = None,
                    hint: str | None = None,
                    severity: str | None = None) -> Diagnostic:
    """Build a diagnostic with the registered default severity."""
    if code not in CODES:
        raise ValueError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(code, severity or CODES[code][0], message,
                      subject=subject, source=source, span=span, hint=hint)


def span_of(source: str | None, needle: str) -> tuple[int, int] | None:
    """Best-effort source span: the first occurrence of ``needle``.

    The XPathLog AST does not carry token positions, so diagnostics
    locate the offending name textually; ``None`` when it cannot be
    found (e.g. the name was produced by normalization).
    """
    if not source or not needle:
        return None
    index = source.find(needle)
    if index == -1:
        return None
    return index, index + len(needle)


def max_severity(diagnostics: list[Diagnostic]) -> str | None:
    """The highest severity present, or ``None`` for an empty list."""
    if not diagnostics:
        return None
    return max(diagnostics,
               key=lambda d: _SEVERITY_RANK[d.severity]).severity
