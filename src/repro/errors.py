"""Exception hierarchy for the whole library.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch one type at the API boundary.  Parsing errors carry a position when
the source location is known.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """A textual input (XML, DTD, XPathLog, XQuery, XUpdate) is malformed.

    Attributes:
        message: human-readable description of the problem.
        line: 1-based line of the offending token, or ``None``.
        column: 1-based column of the offending token, or ``None``.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)


class XMLParseError(ParseError):
    """Malformed XML document."""


class DTDError(ParseError):
    """Malformed DTD or a schema-level inconsistency within a DTD."""


class ValidationError(ReproError):
    """An XML document does not conform to its DTD."""


class SchemaError(ReproError):
    """The relational mapping cannot represent a construct, or a name is
    unknown to the compiled schema."""


class XPathLogError(ParseError):
    """Malformed XPathLog constraint."""


class CompilationError(ReproError):
    """An XPathLog constraint cannot be compiled to Datalog against the
    current schema (unknown tag, unsupported axis, ...).

    Attributes:
        code: the ``XICnnn`` diagnostic code classifying the problem
            (see ``docs/diagnostics.md``), when one applies.
    """

    def __init__(self, message: str, code: str | None = None) -> None:
        self.code = code
        super().__init__(message)


class DatalogEvaluationError(ReproError):
    """A denial cannot be evaluated against the fact database (unbound
    parameter, unsafe variable occurring only in comparisons, ...)."""


class XQueryError(ParseError):
    """Malformed XQuery expression."""


class XQueryEvaluationError(ReproError):
    """A well-formed XQuery expression failed during evaluation (unknown
    variable or function, type error, ...)."""


class XUpdateError(ParseError):
    """Malformed XUpdate modification document."""


class UpdateApplicationError(ReproError):
    """An update cannot be applied to the target document (select path
    resolves to nothing, target has the wrong node kind, ...)."""


class AmbiguousSelectError(UpdateApplicationError):
    """A select path matches more than one element, so the operation has
    no single well-defined target."""


class SimplificationError(ReproError):
    """The simplification procedure cannot produce a sound optimized check
    for a constraint/update-pattern pair.  Callers fall back to the full
    (brute-force) check in this case, mirroring footnote 4 of the paper."""


class IntegrityViolationError(ReproError):
    """Raised by the guard when an update would violate integrity.

    Attributes:
        violations: list of human-readable violation descriptions, one per
            violated constraint.
    """

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__(
            "update rejected; violated constraints: " + ", ".join(violations))


class RecoveryError(ReproError):
    """Durable state under a service directory cannot be opened or
    replayed: missing/corrupt snapshot, a write-ahead log whose record
    sequence is discontinuous, or a logged update the checker no longer
    accepts on replay.

    Attributes:
        code: a stable machine-readable classification of the failure
            (``recover.no-state``, ``recover.log-corrupt``,
            ``recover.snapshot-corrupt``, ``recover.replay-rejected``,
            ``recover.wal-dead``, or the generic ``recover.failed``),
            surfaced by the CLI and the networked service so callers
            never have to parse the message text.
    """

    def __init__(self, message: str,
                 code: str = "recover.failed") -> None:
        self.code = code
        super().__init__(message)
