"""Ablation A4 — what the thread-safe service layer costs.

The CheckingService wraps every checker call in one mutex round (plus
commit-log bookkeeping on applied updates).  These benchmarks put a
number on that wrapper: the same rejected update through the bare
guard vs. through the service (write entry point), a full consistency
check direct vs. through the service's mutex, and four reader threads
at once, which the mutex serializes.
"""

import threading

from repro.service import CheckingService


def _service_for(scenario):
    return CheckingService(scenario.guard.schema, scenario.guard.documents)


def test_guard_reject_direct(benchmark, conflict_scenario, size_kib):
    benchmark.group = f"service-{size_kib}KiB"
    decision = benchmark(conflict_scenario.guard.try_execute,
                         conflict_scenario.illegal_update)
    assert not decision.legal


def test_guard_reject_through_service(benchmark, conflict_scenario,
                                      size_kib):
    benchmark.group = f"service-{size_kib}KiB"
    service = _service_for(conflict_scenario)
    decision = benchmark(service.try_execute,
                         conflict_scenario.illegal_update)
    assert not decision.legal


def test_verify_direct(benchmark, conflict_scenario, size_kib):
    benchmark.group = f"service-verify-{size_kib}KiB"
    violated = benchmark(conflict_scenario.guard.verify_consistency)
    assert violated == []


def test_verify_through_service_locked(benchmark, conflict_scenario,
                                       size_kib):
    """The read entry point: every check takes the store's mutex."""
    benchmark.group = f"service-verify-{size_kib}KiB"
    service = _service_for(conflict_scenario)
    violated = benchmark(service.verify_consistency)
    assert violated == []


def _concurrent_verifies(service):
    def parallel_verifies():
        results: list[list[str]] = []

        def verify():
            results.append(service.verify_consistency())

        threads = [threading.Thread(target=verify) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == [] for result in results)

    return parallel_verifies


def test_verify_concurrent_readers_locked(benchmark, conflict_scenario,
                                          size_kib):
    """Four reader threads verifying at once, serialized by the
    service mutex: ~4x the single-reader time plus thread start-up and
    hand-off between them (the GIL would serialize them anyway)."""
    benchmark.group = f"service-verify-{size_kib}KiB"
    service = _service_for(conflict_scenario)
    benchmark(_concurrent_verifies(service))
