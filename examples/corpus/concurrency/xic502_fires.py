"""XIC502 firing fixture: nested ``with`` blocks acquire two ranked
locks against the canonical LOCK_ORDER (``document`` is outer to
``service.persistence``)."""

from repro.analysis.concurrency import make_lock, make_rlock

_RECORDS: dict = {}  # guarded-by: _LOG_LOCK
_LOG_LOCK = make_lock("service.persistence")
_NODES: dict = {}  # guarded-by: _DOC_LOCK
_DOC_LOCK = make_rlock("document")


def forget(tag: str) -> None:
    # BAD: takes the (inner) log lock first, then the (outer)
    # document lock — the reverse of the canonical order
    with _LOG_LOCK:
        with _DOC_LOCK:
            _RECORDS.pop(tag, None)
            _NODES.pop(tag, None)
