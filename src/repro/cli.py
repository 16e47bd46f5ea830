"""Command-line interface: ``python -m repro <command>``.

A thin front-end over the library for shell use:

* ``describe`` — compile DTDs + constraints and print the design-time
  artifacts (relational schema, Datalog denials, simplified checks per
  registered pattern);
* ``check``    — verify documents against the constraints (full check);
* ``guard``    — apply an XUpdate file under integrity control and
  write the (possibly updated) documents back;
* ``shred``    — print the relational facts of a document;
* ``query``    — evaluate an XQuery expression over documents;
* ``lint``     — run the compile-time analysis passes and report
  ``XICnnn`` diagnostics (text or JSON) without touching documents;
* ``recover``  — rebuild a durable checking service from its state
  directory (snapshot + write-ahead log) and report what replay did;
* ``serve``    — run the networked sharded checking service: an
  asyncio HTTP front end routing requests by consistent hashing to N
  durable worker processes.

Constraints are given one per ``--constraint`` (inline text) or via
``--constraints-file`` (one denial per non-empty line; ``#`` comments;
a trailing ``\\`` continues the denial on the next line).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import BruteForceChecker, ConstraintSchema, IntegrityGuard
from repro.datalog.database import FactDatabase
from repro.errors import ReproError
from repro.relational.shredder import iter_facts
from repro.xquery.engine import evaluate_query
from repro.xquery.values import string_value
from repro.xtree import parse_document, serialize
from repro.xtree.node import Document


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_documents(paths: list[str]) -> list[Document]:
    return [parse_document(_read(path)) for path in paths]


def _parse_constraint_lines(text: str) -> list[str]:
    """One denial per logical line: ``#`` comments, ``\\`` continuation.

    A line ending in a backslash continues on the next physical line,
    so long denials can be wrapped; comment and blank lines are only
    recognized outside a continuation.
    """
    constraints: list[str] = []
    pending: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if pending is None:
            if not stripped or stripped.startswith("#"):
                continue
            current = stripped
        else:
            current = pending + " " + stripped
        if current.endswith("\\"):
            pending = current[:-1].strip()
        else:
            pending = None
            constraints.append(current)
    if pending:  # a dangling final continuation still counts
        constraints.append(pending)
    return constraints


def _load_constraints(args: argparse.Namespace,
                      required: bool = True) -> list[str]:
    constraints = list(args.constraint or [])
    if args.constraints_file:
        constraints.extend(
            _parse_constraint_lines(_read(args.constraints_file)))
    if not constraints and required:
        raise SystemExit("no constraints given "
                         "(use --constraint / --constraints-file)")
    return constraints


def _build_schema(args: argparse.Namespace) -> ConstraintSchema:
    dtds = [_read(path) for path in args.dtd]
    schema = ConstraintSchema(dtds, _load_constraints(args))
    for pattern_path in args.pattern or []:
        schema.register_pattern(_read(pattern_path))
    return schema


def _add_schema_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtd", action="append", required=True,
                        help="DTD file (repeatable)")
    parser.add_argument("--constraint", action="append",
                        help="XPathLog denial text (repeatable)")
    parser.add_argument("--constraints-file",
                        help="file with one XPathLog denial per line")
    parser.add_argument("--pattern", action="append",
                        help="XUpdate file registered as update pattern "
                             "(repeatable)")


def cmd_describe(args: argparse.Namespace) -> int:
    schema = _build_schema(args)
    print(schema.describe())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    schema = _build_schema(args)
    documents = _load_documents(args.document)
    violated = BruteForceChecker(schema, documents).check_only()
    if violated:
        print("INCONSISTENT; violated constraints: "
              + ", ".join(violated))
        return 1
    print("consistent")
    return 0


def cmd_guard(args: argparse.Namespace) -> int:
    schema = _build_schema(args)
    documents = _load_documents(args.document)
    guard = IntegrityGuard(schema, documents)
    decision = guard.try_execute(_read(args.update))
    if not decision.legal:
        print("REJECTED; violated constraints: "
              + ", ".join(decision.violated))
        return 1
    strategy = "optimized pre-check" if decision.optimized \
        else "brute-force fallback"
    print(f"accepted ({strategy})")
    if args.in_place:
        for path, document in zip(args.document, documents):
            Path(path).write_text(serialize(document, indent=2) + "\n",
                                  encoding="utf-8")
            print(f"wrote {path}")
    return 0


def cmd_shred(args: argparse.Namespace) -> int:
    schema = _build_schema(args) if args.constraint \
        or args.constraints_file else None
    if schema is None:
        from repro.relational.schema import RelationalSchema
        from repro.xtree.dtd import parse_dtd
        relational = RelationalSchema.from_dtds(
            [parse_dtd(_read(path)) for path in args.dtd])
    else:
        relational = schema.relational
    database = FactDatabase()
    for path in args.document:
        document = parse_document(_read(path))
        for predicate, row in iter_facts(document, relational):
            database.add(predicate, row)
    for predicate in sorted(database.predicates()):
        for row in database.rows(predicate):
            rendered = ", ".join(
                "null" if value is None else repr(value) for value in row)
            print(f"{predicate}({rendered})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostic import ERROR, WARNING
    from repro.analysis.lint import lint_sources

    report = lint_sources(
        [_read(path) for path in args.dtd],
        _load_constraints(args, required=False),
        patterns=[_read(path) for path in args.pattern or []])
    if args.format == "json":
        print(report.to_json())
    elif args.format == "github":
        rendered = report.render_github()
        if rendered:
            print(rendered)
    else:
        print(report.render_text())
    if args.fail_on == "never":
        return 0
    threshold = ERROR if args.fail_on == "error" else WARNING
    return 1 if report.count_at_least(threshold) else 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.errors import RecoveryError
    from repro.service.persistence import (
        SNAPSHOT_NAME,
        WAL_NAME,
        has_durable_state,
    )
    from repro.service.store import CheckingService

    # pre-flight the state directory so a mistyped path yields one
    # coded diagnostic instead of a cryptic downstream error
    state_dir = Path(args.state_dir)
    if not state_dir.exists():
        raise RecoveryError(
            f"state directory {state_dir} does not exist",
            code="recover.no-state")
    if not state_dir.is_dir():
        raise RecoveryError(
            f"{state_dir} is not a directory", code="recover.no-state")
    if not has_durable_state(state_dir):
        raise RecoveryError(
            f"state directory {state_dir} holds neither a "
            f"{SNAPSHOT_NAME} nor a {WAL_NAME}; nothing to recover",
            code="recover.no-state")
    schema = _build_schema(args)
    service = CheckingService.recover(schema, args.state_dir)
    try:
        info = service.last_recovery
        assert info is not None
        committed = service.committed_updates()
        print(f"recovered {args.state_dir}: snapshot through sequence "
              f"{info.snapshot_lsn}, {info.replayed} of "
              f"{info.total_records} logged updates replayed, "
              f"{len(committed)} updates in the commit log")
        violated = service.verify_consistency()
        if violated:
            print("INCONSISTENT; violated constraints: "
                  + ", ".join(violated))
            return 1
        print("consistent")
        if args.checkpoint:
            service.checkpoint()
            print("checkpoint written (replay tail is now empty)")
        return 0
    finally:
        service.close()


def cmd_faultcheck(args: argparse.Namespace) -> int:
    from repro.testing.failpoints import SITES
    from repro.testing.harness import (
        RESTART_SITES,
        SCHEDULES,
        InvariantViolation,
        run_matrix,
        run_restart_matrix,
    )

    if args.list_sites:
        for site, description in sorted(SITES.items()):
            print(f"{site}: {description}")
        return 0
    if args.list_schedules:
        for name, spec in SCHEDULES.items():
            print(f"{name}: {spec}")
        return 0
    seeds = args.seed or [1, 2, 3]
    schedules = args.schedule or list(SCHEDULES)
    try:
        if args.crash_restart:
            sites = args.site or sorted(RESTART_SITES)
            reports = run_restart_matrix(
                seeds, sites, ops=args.ops,
                progress=lambda report: print(
                    f"ok: {report.summary()}"))
        else:
            if args.site:
                print("error: --site requires --crash-restart",
                      file=sys.stderr)
                return 2
            reports = run_matrix(
                seeds, schedules, ops=args.ops,
                progress=lambda report: print(
                    f"ok: {report.summary()}"))
    except ValueError as error:  # bad schedule/trigger spec
        print(f"error: {error}", file=sys.stderr)
        return 2
    except InvariantViolation as violation:
        print(f"FAULTCHECK FAILED\n{violation}", file=sys.stderr)
        if args.repro_file:
            lines = [line for line in str(violation).splitlines()
                     if "reproduce with:" in line]
            Path(args.repro_file).write_text(
                (lines[0].split("reproduce with:", 1)[1].strip()
                 if lines else str(violation)) + "\n",
                encoding="utf-8")
            print(f"wrote reproduction command to {args.repro_file}",
                  file=sys.stderr)
        return 1
    total = sum(report.faults_fired for report in reports)
    if args.crash_restart:
        shape = (f"{len(seeds)} seeds x "
                 f"{len(reports) // max(1, len(seeds))} kill sites, "
                 "restart-and-replay")
    else:
        shape = f"{len(seeds)} seeds x {len(schedules)} schedules"
    print(f"faultcheck passed: {len(reports)} scenarios "
          f"({shape}), "
          f"{total} faults fired, all invariants held")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.net import ServiceConfig, ShardedService

    config = ServiceConfig(
        dtds=tuple(_read(path) for path in args.dtd),
        constraints=tuple(_load_constraints(args)),
        patterns=tuple(_read(path) for path in args.pattern or []),
        documents=tuple(_read(path) for path in args.document),
        snapshot_interval=args.snapshot_interval,
        sync_writes=not args.no_sync)
    # compile once up front: a bad DTD/constraint/document should fail
    # here with a parse error, not as N workers dying at startup
    config.build_schema()
    config.initial_documents()

    async def run() -> None:
        service = ShardedService(config, args.state_dir,
                                 workers=args.workers, host=args.host,
                                 port=args.port)
        await service.start()
        print(f"serving on http://{service.host}:{service.port} "
              f"({args.workers} workers, state under {args.state_dir})",
              flush=True)
        try:
            await asyncio.Event().wait()  # serve until interrupted
        finally:
            print("draining workers ...", flush=True)
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    documents = _load_documents(args.document)
    result = evaluate_query(args.expression, documents)
    for item in result:
        if hasattr(item, "tag"):
            from repro.xtree.serializer import serialize_fragment
            print(serialize_fragment(item))
        else:
            print(string_value(item))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.xquery.planner import explain_query

    schema = _build_schema(args)
    documents = _load_documents(args.document)
    # explain runs each check on the documents' own value indexes,
    # the ones the guard's checks read
    guard = IntegrityGuard(schema, documents)
    if args.update:
        from repro.xupdate.parser import parse_modifications

        for operation in parse_modifications(_read(args.update)):
            checks = guard._checks_for([operation])
            if checks is None:
                print(f"-- {operation.select}: no registered pattern "
                      "(brute-force fallback, nothing to plan)")
                continue
            bindings = checks.bind([operation], guard._document_for)
            for check in checks.optimized:
                if check.trivial:
                    continue
                for query in check.queries:
                    if query.prepared is None:
                        continue
                    variables = query.variables_for(bindings) \
                        if query.parameters else None
                    print(f"== {check.constraint.name} "
                          f"(simplified check) ==")
                    print(explain_query(query.prepared, documents,
                                        variables))
                    print()
        return 0
    for constraint in schema.constraints:
        if constraint.dead:
            continue
        for query in constraint.full_queries:
            if query.prepared is None:
                continue
            print(f"== {constraint.name} (full check) ==")
            print(explain_query(query.prepared, documents))
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient integrity checking over XML documents "
                    "(EDBT 2006)")
    commands = parser.add_subparsers(dest="command", required=True)

    describe = commands.add_parser(
        "describe", help="print the compiled design-time artifacts")
    _add_schema_arguments(describe)
    describe.set_defaults(handler=cmd_describe)

    check = commands.add_parser(
        "check", help="full consistency check of documents")
    _add_schema_arguments(check)
    check.add_argument("document", nargs="+", help="XML document file")
    check.set_defaults(handler=cmd_check)

    guard = commands.add_parser(
        "guard", help="apply an XUpdate file under integrity control")
    _add_schema_arguments(guard)
    guard.add_argument("--update", required=True,
                       help="XUpdate modification file")
    guard.add_argument("--in-place", action="store_true",
                       help="write updated documents back to their files")
    guard.add_argument("document", nargs="+", help="XML document file")
    guard.set_defaults(handler=cmd_guard)

    shred = commands.add_parser(
        "shred", help="print the relational facts of documents")
    shred.add_argument("--dtd", action="append", required=True)
    shred.add_argument("--constraint", action="append",
                       help=argparse.SUPPRESS)
    shred.add_argument("--constraints-file", help=argparse.SUPPRESS)
    shred.add_argument("document", nargs="+", help="XML document file")
    shred.set_defaults(handler=cmd_shred)

    lint = commands.add_parser(
        "lint", help="static analysis of DTDs + constraints + patterns")
    _add_schema_arguments(lint)
    lint.add_argument("--format", choices=("text", "json", "github"),
                      default="text", help="output format ('github' "
                      "emits workflow-annotation lines)")
    lint.add_argument("--fail-on", choices=("error", "warning", "never"),
                      default="warning",
                      help="lowest severity that causes exit code 1 "
                           "(default: warning)")
    lint.set_defaults(handler=cmd_lint)

    explain = commands.add_parser(
        "explain",
        help="print the planner's chosen evaluation order for the "
             "compiled checks, with estimated vs. actual cardinalities")
    _add_schema_arguments(explain)
    explain.add_argument("--update",
                         help="XUpdate file: explain the simplified "
                              "checks this update triggers instead of "
                              "the full constraint checks")
    explain.add_argument("document", nargs="+", help="XML document file")
    explain.set_defaults(handler=cmd_explain)

    faultcheck = commands.add_parser(
        "faultcheck",
        help="run the crash-consistency fault-injection harness "
             "(seeded workloads x fault schedules, invariant battery)")
    faultcheck.add_argument(
        "--seed", action="append", type=int,
        help="harness seed (repeatable; default: 1 2 3)")
    faultcheck.add_argument(
        "--schedule", action="append",
        help="schedule name or raw failpoint spec 'site=trigger;...' "
             "(repeatable; default: every named schedule)")
    faultcheck.add_argument(
        "--ops", type=int, default=40,
        help="workload steps per scenario (default: 40)")
    faultcheck.add_argument(
        "--repro-file",
        help="on failure, write the reproduction command to this file")
    faultcheck.add_argument(
        "--crash-restart", action="store_true",
        help="run the kill-at-failpoint restart matrix instead: the "
             "durable service dies at each site, restarts from its "
             "snapshot + write-ahead log, and the recovered state is "
             "verified against a sequential oracle")
    faultcheck.add_argument(
        "--site", action="append",
        help="kill site for --crash-restart (repeatable; default: "
             "every site in RESTART_SITES)")
    faultcheck.add_argument(
        "--list-sites", action="store_true",
        help="print the failpoint site catalog and exit")
    faultcheck.add_argument(
        "--list-schedules", action="store_true",
        help="print the named fault schedules and exit")
    faultcheck.set_defaults(handler=cmd_faultcheck)

    recover = commands.add_parser(
        "recover",
        help="rebuild a durable checking service from its state "
             "directory and verify the recovered state")
    _add_schema_arguments(recover)
    recover.add_argument("--state-dir", required=True,
                         help="directory holding snapshot.json + "
                              "wal.log")
    recover.add_argument("--checkpoint", action="store_true",
                         help="write a fresh snapshot after recovery, "
                              "emptying the replay tail")
    recover.set_defaults(handler=cmd_recover)

    serve = commands.add_parser(
        "serve",
        help="run the networked sharded checking service (asyncio "
             "HTTP edge + N durable worker processes)")
    _add_schema_arguments(serve)
    serve.add_argument("--document", action="append", required=True,
                       help="XML file seeding every new document "
                            "group (repeatable)")
    serve.add_argument("--state-dir", required=True,
                       help="root directory for per-shard durable "
                            "state (shard-<uid>/ subdirectories)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker process count (default: 2)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8626,
                       help="TCP port, 0 for ephemeral "
                            "(default: 8626)")
    serve.add_argument("--snapshot-interval", type=int, default=64,
                       help="updates between WAL checkpoints "
                            "(default: 64)")
    serve.add_argument("--no-sync", action="store_true",
                       help="skip fsync on commit (faster, loses the "
                            "power-failure guarantee)")
    serve.set_defaults(handler=cmd_serve)

    query = commands.add_parser(
        "query", help="evaluate an XQuery expression over documents")
    query.add_argument("expression", help="XQuery text")
    query.add_argument("document", nargs="+", help="XML document file")
    query.set_defaults(handler=cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        code = getattr(error, "code", None)
        prefix = f"error [{code}]" if code else "error"
        print(f"{prefix}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
