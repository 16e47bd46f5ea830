"""XIC502 clean fixture: nested acquisition follows the canonical
LOCK_ORDER (``document`` before ``service.persistence``)."""

from repro.analysis.concurrency import make_lock, make_rlock

_RECORDS: dict = {}  # guarded-by: _LOG_LOCK
_LOG_LOCK = make_lock("service.persistence")
_NODES: dict = {}  # guarded-by: _DOC_LOCK
_DOC_LOCK = make_rlock("document")


def forget(tag: str) -> None:
    with _DOC_LOCK:
        _NODES.pop(tag, None)
        with _LOG_LOCK:
            _RECORDS.pop(tag, None)
