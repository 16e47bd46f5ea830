"""The runtime lock-order sanitizer: arming model, inversion
detection with both stacks, reentrancy exemption, and the fault-free
chaos run that pins down zero false positives."""

from __future__ import annotations

import random
import threading

import pytest

from repro.analysis.concurrency import sanitizer
from repro.analysis.concurrency.annotations import LOCK_ORDER


@pytest.fixture()
def armed():
    """Arm for the test, restore the prior state (and drop any
    violations the test provoked on purpose) afterwards."""
    previously = sanitizer.armed()
    sanitizer.arm()
    yield
    sanitizer.clear_violations()
    if not previously:
        sanitizer.disarm()


def test_disarmed_locks_are_bare_primitives():
    if sanitizer.armed():  # env-armed CI leg: construction differs
        pytest.skip("process is sanitizer-armed")
    lock = sanitizer.make_lock("document")
    rlock = sanitizer.make_rlock("document")
    assert not isinstance(lock, sanitizer.SanitizedLock)
    assert not isinstance(rlock, sanitizer.SanitizedLock)
    # the factory output is exactly what threading would hand out
    assert type(lock) is type(threading.Lock())
    assert type(rlock) is type(threading.RLock())


def test_armed_locks_are_wrapped(armed):
    lock = sanitizer.make_lock("document")
    assert isinstance(lock, sanitizer.SanitizedLock)
    with lock:
        assert lock.locked()
    assert not lock.locked()


def test_correct_order_records_nothing(armed):
    locks = [sanitizer.make_lock(name) for name in LOCK_ORDER]
    for lock in locks:
        lock.acquire()
    for lock in reversed(locks):
        lock.release()
    assert sanitizer.violations() == []


def test_rlock_reentry_is_exempt(armed):
    document = sanitizer.make_rlock("document")
    with document:
        with document:
            pass
    assert sanitizer.violations() == []


def test_same_rank_two_instances_is_a_violation(armed):
    first = sanitizer.make_rlock("document")
    second = sanitizer.make_rlock("document")
    with first:
        with pytest.raises(sanitizer.LockOrderViolation):
            second.acquire()
    assert len(sanitizer.violations()) == 1
    sanitizer.clear_violations()


def test_two_thread_order_inversion_detected(armed):
    """Seeded two-thread reproducer: thread B acquires against the
    canonical order while thread A interleaves correctly.  The
    sanitizer must flag B *before it blocks* — the schedule would
    otherwise be an actual deadlock candidate."""
    seed = random.Random(0xC0FFEE)
    document = sanitizer.make_rlock("document")
    log = sanitizer.make_lock("service.persistence")
    b_may_start = threading.Event()
    failures: list = []

    def thread_a() -> None:
        with document:          # canonical: document first ...
            b_may_start.set()
            with log:           # ... log lock inside
                pass

    def thread_b() -> None:
        b_may_start.wait(timeout=10.0)
        try:
            with log:
                document.acquire()  # inversion: must raise, not block
                document.release()
        except sanitizer.LockOrderViolation as error:
            failures.append(error)

    workers = [threading.Thread(target=thread_a, name="order-a"),
               threading.Thread(target=thread_b, name="order-b")]
    seed.shuffle(workers)
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "reproducer wedged"

    assert len(failures) == 1
    violations = sanitizer.violations()
    assert len(violations) == 1
    violation = violations[0]
    assert violation.acquiring == "document"
    assert violation.holding == "service.persistence"
    assert violation.thread == "order-b"
    rendered = violation.render()
    assert "stack holding 'service.persistence'" in rendered
    assert "stack acquiring 'document'" in rendered
    # both stacks carry real frames from this file
    assert rendered.count("test_lock_sanitizer") >= 2
    sanitizer.clear_violations()


@pytest.mark.fault
def test_chaos_schedule_has_no_false_positives(armed):
    """A full faultcheck scenario on the chaos schedule, sanitizer
    armed: the production lock discipline must produce zero ordering
    violations even while faults fire at every instrumented site."""
    from repro.testing.harness import run_scenario

    report = run_scenario(20060328, schedule="chaos", ops=40)
    assert report is not None
    assert sanitizer.violations() == []


def test_release_unknown_name_is_noop(armed):
    # names outside LOCK_ORDER are transparent to the sanitizer
    lock = sanitizer.make_lock("not.a.known.rank")
    with lock:
        pass
    assert sanitizer.violations() == []
