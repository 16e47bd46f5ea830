"""Name kept for ``benchmarks/e2e/``; the service publishes nothing.

Every :class:`~repro.service.store.CheckingService` reads the live
tree under its store's mutex, so no commit copies a document.
The benchmark still wraps :meth:`SnapshotManager.publish` in its
tracer (``benchmarks/e2e/trace.py``) and sums
``stats()["cloned"]`` (``benchmarks/e2e/layers.py``); both read 0.
ROADMAP item 1 deletes this module together with the
``snapshots.publish_ms`` and ``snapshots.clones_per_commit`` rows.
"""

from __future__ import annotations


class SnapshotManager:
    """Compat stand-in held as ``CheckingService.snapshots``."""

    def publish(self, documents) -> None:
        """Never called: kept only so ``benchmarks/e2e/trace.py`` can
        wrap it."""
        raise NotImplementedError(
            "the checking service publishes no snapshots")

    def stats(self) -> dict:
        """Read by ``benchmarks/e2e/layers.py``; nothing is cloned."""
        return {"cloned": 0}
