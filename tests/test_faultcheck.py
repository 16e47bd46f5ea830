"""Crash-consistency harness: fault matrix, equivalence, mutations.

Three layers:

* the (seed x schedule) matrix must pass the invariant battery *and*
  actually fire faults (no vacuous passes);
* with zero sites armed the instrumented pipeline must behave — and
  serialize — byte-identically to the fault-free oracle;
* mutation checks: deliberately reverting a crash-consistency fix
  (rollback-on-exit, guard checking) must make the harness fail, or
  the battery proves nothing.
"""

from __future__ import annotations

import pytest

from repro.core.guard import BruteForceChecker, IntegrityGuard
from repro.core.guard import UpdateDecision
from repro.service.store import CheckingService
from repro.testing.failpoints import SITES, fail, parse_schedule
from repro.testing.harness import (
    RESTART_SITES,
    SCHEDULES,
    InvariantViolation,
    run_matrix,
    run_scenario,
)
from repro.xtree.serializer import serialize
from repro.xupdate.apply import TransactionLog

pytestmark = pytest.mark.fault


class TestFaultMatrix:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_schedule_passes_battery_and_fires(self, schedule, seed):
        report = run_scenario(seed, schedule, ops=30)
        assert report.faults_fired > 0, \
            f"schedule {schedule!r} never fired — vacuous pass"
        assert report.accepted > 0
        assert report.rejected > 0

    def test_raw_spec_schedule(self):
        report = run_scenario(
            5, "xupdate.apply.post_op=every:9", ops=25)
        assert report.faults_fired > 0
        assert "xupdate.apply.post_op" in report.site_counts

    def test_run_matrix_collects_reports(self):
        seen = []
        reports = run_matrix([1], ["apply", "service"], ops=20,
                             progress=seen.append)
        assert len(reports) == 2 == len(seen)

    def test_report_repro_command(self):
        report = run_scenario(7, "apply", ops=20)
        assert report.repro_command == \
            "python -m repro faultcheck --seed 7 " \
            "--schedule apply --ops 20"
        assert "seed=7" in report.summary()


#: the named schedules whose every site fires on a fixed hit
COUNT_SCHEDULES = sorted(
    name for name, spec in SCHEDULES.items()
    if all(trigger.kind == "count"
           for trigger in parse_schedule(spec).values()))


class TestScheduleSites:
    """A site a schedule arms but the workload never reaches tests
    nothing: every ``count:`` site must fire."""

    @pytest.mark.parametrize("schedule", COUNT_SCHEDULES)
    def test_every_armed_site_fires(self, schedule):
        report = run_scenario(1, schedule, ops=40)
        armed = parse_schedule(SCHEDULES[schedule])
        silent = sorted(site for site in armed
                        if report.site_counts.get(site, (0, 0))[1] == 0)
        assert not silent, \
            f"{schedule!r} never fired {silent}: {report.summary()}"


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_fires_every_value_index_seam(self, seed):
        """``chaos`` interleaves an index fault with the other seams'
        faults on every CI seed: a delta fault leaves a document dirty
        and its next read rebuilds, so the rebuild seam is reached."""
        report = run_scenario(seed, "chaos", ops=40)
        sites = [site for site in parse_schedule(SCHEDULES["chaos"])
                 if site.startswith("columns.")]
        assert sorted(sites) == ["columns.delta.apply",
                                 "columns.delta.settle", "columns.rebuild"]
        silent = [site for site in sites
                  if report.site_counts.get(site, (0, 0))[1] == 0]
        assert not silent, \
            f"chaos never fired {silent}: {report.summary()}"


class TestNoOrphanSites:
    def test_every_site_is_armed_somewhere(self):
        """A catalogued site no schedule or restart entry arms is never
        exercised; ``parse_schedule`` already rejects the reverse case,
        a schedule naming a site the catalog does not know."""
        armed = set(RESTART_SITES)
        for spec in SCHEDULES.values():
            armed |= set(parse_schedule(spec))
        assert sorted(set(SITES) - armed) == []


class TestFaultFreeEquivalence:
    def test_zero_armed_sites_fire_nothing(self):
        report = run_scenario(11, {}, ops=30)
        assert report.faults_fired == 0
        assert report.site_counts == {}
        assert report.accepted > 0

    def test_instrumented_path_is_byte_identical(self, documents,
                                                 constraint_schema):
        """Unarmed failpoints must not perturb the pipeline at all.

        The same update sequence through the instrumented
        ``CheckingService``/``IntegrityGuard`` stack and through the
        plain ``BruteForceChecker`` oracle (the pre-instrumentation
        reference path) must leave byte-identical documents.
        """
        from repro.datagen.running_example import submission_xupdate

        assert fail.active_sites() == {}
        updates = [
            submission_xupdate(1, 2, "Fresh Streams", "Zoe"),
            submission_xupdate(2, 1, "Fresh Automata", "Yann"),
            submission_xupdate(1, 1, "Conflicted", "Alice"),  # illegal
            submission_xupdate(1, 1, "Fresh Joins", "Xavier"),
        ]
        service = CheckingService(constraint_schema, documents)
        verdicts = [service.try_execute(u).applied for u in updates]

        from repro.xtree import parse_document
        from tests.conftest import PUB_XML, REV_XML
        oracle_docs = [parse_document(PUB_XML), parse_document(REV_XML)]
        oracle = BruteForceChecker(constraint_schema, oracle_docs)
        oracle_verdicts = [oracle.try_execute(u).applied
                           for u in updates]

        assert verdicts == oracle_verdicts == [True, True, False, True]
        assert service.snapshot() == \
            [serialize(document) for document in oracle_docs]


class TestMutations:
    """Reverted fixes must be caught, or the battery is toothless."""

    def test_dropping_rollback_on_exit_is_caught(self, monkeypatch):
        # revert the abort-by-default exit: a mid-update fault now
        # leaves the partial update in place
        monkeypatch.setattr(
            TransactionLog, "__exit__",
            lambda self, exc_type, exc, tb: False)
        with pytest.raises(InvariantViolation) as info:
            run_scenario(1, "apply", ops=40)
        assert "reproduce with:" in str(info.value)

    def test_partial_rollback_is_caught(self, monkeypatch):
        # revert to a rollback that forgets the oldest record: every
        # abort — including the apply-check-rollback probes — leaves
        # its first operation applied
        def partial_abort(self):
            for record in reversed(self._records[1:]):
                if not record.rolled_back:
                    record.rollback()
            self._state = "rolled-back"

        monkeypatch.setattr(TransactionLog, "_abort", partial_abort)
        with pytest.raises(InvariantViolation):
            run_scenario(1, "rollback", ops=40)

    def test_skipping_the_guard_check_is_caught(self, monkeypatch):
        # revert early detection entirely: every update is declared
        # legal without checking, so illegal ones get applied and the
        # brute-force oracle disagrees
        def unchecked(self, operations, checks, log):
            for operation in operations:
                self._apply(log, operation)
            return UpdateDecision(True, optimized=True)

        monkeypatch.setattr(IntegrityGuard, "_check", unchecked)
        with pytest.raises(InvariantViolation) as info:
            run_scenario(1, {}, ops=30)
        assert "verdict-agreement" in str(info.value)


class TestFaultcheckCli:
    def _main(self, argv):
        from repro.cli import main
        return main(argv)

    def test_passing_run(self, capsys):
        code = self._main(["faultcheck", "--seed", "1",
                           "--schedule", "apply", "--ops", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "faultcheck passed" in out

    def test_list_sites(self, capsys):
        assert self._main(["faultcheck", "--list-sites"]) == 0
        assert "xupdate.apply.pre_op" in capsys.readouterr().out

    def test_list_schedules(self, capsys):
        assert self._main(["faultcheck", "--list-schedules"]) == 0
        out = capsys.readouterr().out
        for name in SCHEDULES:
            assert name in out

    def test_bad_schedule_spec(self, capsys):
        code = self._main(["faultcheck", "--seed", "1",
                           "--schedule", "no.such.site=count:1"])
        assert code == 2
        assert "unknown failpoint site" in capsys.readouterr().err

    def test_failure_writes_repro_file(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setattr(
            TransactionLog, "__exit__",
            lambda self, exc_type, exc, tb: False)
        repro_file = tmp_path / "repro.txt"
        code = self._main(["faultcheck", "--seed", "1",
                           "--schedule", "apply", "--ops", "40",
                           "--repro-file", str(repro_file)])
        assert code == 1
        assert "FAULTCHECK FAILED" in capsys.readouterr().err
        command = repro_file.read_text().strip()
        assert "repro faultcheck --seed 1" in command

    def test_crash_restart_single_site(self, capsys):
        code = self._main(["faultcheck", "--crash-restart",
                           "--seed", "1",
                           "--site", "service.store.pre_commit_append",
                           "--ops", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restart-and-replay" in out
        assert "faultcheck passed" in out

    def test_site_without_crash_restart_rejected(self, capsys):
        code = self._main(["faultcheck", "--seed", "1",
                           "--site", "persistence.pre_fsync"])
        assert code == 2
        assert "--crash-restart" in capsys.readouterr().err
