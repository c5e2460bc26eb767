"""repro.core.shm — the zero-copy shared-memory plane.

Process workers must see the array backend's columns without having
them pickled per task, where the cost would grow with design size while
per-task work stays level-sized.  The engine (through
:mod:`repro.cppr.shard`) copies the flat numpy
:class:`~repro.core.arrays.CoreValues` columns and each query's batched
propagation matrices into named ``multiprocessing.shared_memory``
segments **once**; workers receive only a tiny picklable
:class:`BufferLayout` descriptor over the pipe and map read-only views
lazily, caching the attachment for the lifetime of the worker process.
The topology-only :class:`~repro.core.arrays.CoreStructure` is never
published: workers inherit it at fork.

Segment format
--------------
Every segment starts with a 64-byte header whose first 8 bytes are an
``int64`` *version slot*; column payloads follow, each aligned to a
64-byte boundary.  The publisher stamps the slot at publish time and
in-place updates (ECO value patches) bump it, so a reader holding a
descriptor minted *before* an update detects the mismatch
(:class:`~repro.exceptions.ShmStaleError`) instead of silently serving
values its query never saw.

Lifecycle
---------
A process-lifetime :class:`SegmentRegistry` tracks every segment this
process created or attached, reference-counts releases, and unlinks
owned segments on interpreter exit (``atexit``) — and eagerly on
``BrokenProcessPool`` recovery via :func:`SegmentRegistry.sweep`.  Fork
children inherit the registry dict but never unlink: unlink is guarded
by the creator's pid.  The registry is also a context manager
(``with SegmentRegistry() as reg: ...`` sweeps on exit) for tests.

Fault sites
-----------
``shm.attach`` fires on the genuine-attach and fork-inherited read
paths (never for the publishing process itself), modelling a platform
refusing the mapping; armed with ``times=inf`` it makes
:func:`available` report ``False``, which is how CI simulates a
platform without ``shared_memory`` entirely.  ``shm.stale`` fires just
before version validation on the same paths.  Both raise
:class:`~repro.exceptions.ShmError` subclasses that the resilient
scheduler treats as ordinary task failures, so the
process -> thread -> serial ladder keeps working.
"""

from __future__ import annotations

import atexit
import contextlib as _contextlib
import os
import signal as _signal
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro import faults
from repro.exceptions import ShmAttachError, ShmStaleError
from repro.obs import metrics as _metrics

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

try:  # pragma: no cover - absent on some exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Whether this interpreter can host the memory plane at all.  The
#: plane is numpy-only by construction: the scalar backend has no flat
#: columns to map, and its workers read the design they inherited at
#: fork.
HAVE_SHM = _np is not None and _shared_memory is not None

#: Segment header size; the first 8 bytes are the ``int64`` version slot.
HEADER_BYTES = 64

#: Column payloads are aligned to this boundary (cache-line friendly,
#: and satisfies every numpy dtype's alignment requirement).
ALIGNMENT = 64

_SEGMENT_BYTES = _metrics.REGISTRY.gauge(
    "shm.segment_bytes", labels=("kind",),
    help="Live shared-memory bytes tracked by this process's "
         "SegmentRegistry, by segment kind")

__all__ = [
    "ALIGNMENT",
    "BufferLayout",
    "ColumnSpec",
    "HAVE_SHM",
    "HEADER_BYTES",
    "REGISTRY",
    "SegmentRegistry",
    "available",
    "install_signal_handlers",
    "read_version",
]


def available() -> bool:
    """Whether the shared-memory plane should be used right now.

    ``False`` when the platform lacks ``shared_memory``/numpy — or when
    the ``shm.attach`` fault site is armed *unbounded* (``times=inf``),
    which is the supported way to simulate such a platform in CI: every
    attach would fail forever, so the engine publishes nothing, its
    descriptors name no segment, and process workers read the design
    and batch they inherited at fork.
    """
    if not HAVE_SHM:
        return False
    spec = faults.site_armed("shm.attach")
    if spec is not None and spec.times is None:
        return False
    return True


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """Location of one flat column inside a segment.

    ``dtype`` is the numpy dtype *string* (``"float64"``, ``"int32"``)
    so the spec pickles without importing numpy on the wire.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "dtype": self.dtype,
                "shape": list(self.shape), "offset": self.offset}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ColumnSpec":
        return cls(name=data["name"], dtype=data["dtype"],
                   shape=tuple(data["shape"]), offset=data["offset"])


@dataclass(frozen=True, slots=True)
class BufferLayout:
    """The picklable wire descriptor for one published segment.

    This — not the arrays — is what crosses the process pipe: segment
    name, total size, a :class:`ColumnSpec` per column, the version the
    publisher stamped, and a small ``meta`` mapping for
    publisher-specific scalars (e.g. batched seed counts).  Schema:
    ``repro.core/shm-layout@1`` via :meth:`to_dict`.
    """

    segment: str
    nbytes: int
    kind: str
    version: int
    columns: tuple[ColumnSpec, ...]
    meta: tuple[tuple[str, Any], ...] = field(default=())

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise KeyError(f"segment {self.segment!r} has no column {name!r}")

    @property
    def meta_dict(self) -> dict[str, Any]:
        return dict(self.meta)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.core/shm-layout@1",
            "segment": self.segment,
            "nbytes": self.nbytes,
            "kind": self.kind,
            "version": self.version,
            "columns": [spec.to_dict() for spec in self.columns],
            "meta": {key: value for key, value in self.meta},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BufferLayout":
        return cls(
            segment=data["segment"],
            nbytes=data["nbytes"],
            kind=data["kind"],
            version=data["version"],
            columns=tuple(ColumnSpec.from_dict(col)
                          for col in data["columns"]),
            meta=tuple(sorted(dict(data.get("meta", {})).items())),
        )


def read_version(buf) -> int:
    """The ``int64`` version slot at the head of a segment buffer."""
    return int(_np.frombuffer(buf, dtype=_np.int64, count=1)[0])


@_contextlib.contextmanager
def _attach_untracked():
    """Keep a pure attach out of the resource tracker's books.

    Python < 3.13 registers *attached* segments with the resource
    tracker exactly like created ones, so a worker exiting would unlink
    segments it does not own (and warn about leaked resources it never
    leaked).  Worse, fork-pool workers share the parent's tracker
    process, whose cache is a *set*: a worker's redundant register
    collapses into the creator's entry and the later unregister pair
    then spews ``KeyError`` tracebacks from the tracker.  Suppressing
    registration during the attach (instead of unregistering after)
    leaves the tracker's books exactly as the creator wrote them —
    ownership here is the registry's job, not the tracker's.
    """
    try:  # pragma: no cover - interpreter-internal API
        from multiprocessing import resource_tracker
    except Exception:
        yield
        return
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        yield
    finally:
        resource_tracker.register = original


class _Entry:
    """Registry bookkeeping for one tracked segment."""

    __slots__ = ("shm", "kind", "creator_pid", "nbytes", "refs")

    def __init__(self, shm, kind: str, creator_pid: int,
                 nbytes: int) -> None:
        self.shm = shm
        self.kind = kind
        self.creator_pid = creator_pid
        self.nbytes = nbytes
        self.refs = 1


class SegmentRegistry:
    """Tracks, reference-counts, and unlinks shared-memory segments.

    One instance (:data:`REGISTRY`) lives for the whole process and is
    swept at interpreter exit.  Entries carry the *creator pid*: a fork
    child inherits the dict, but :meth:`release` only unlinks when the
    current process created the segment, so worker exits can never tear
    down the parent's plane.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._seq = 0
        self._gauge_kinds: set[str] = set()

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.sweep()

    # -- internals -------------------------------------------------------

    def _next_name(self) -> str:
        with self._lock:
            self._seq += 1
            return f"repro-{os.getpid()}-{self._seq}"

    def _gauge_refresh_locked(self) -> None:
        totals: dict[str, int] = {}
        for entry in self._entries.values():
            totals[entry.kind] = totals.get(entry.kind, 0) + entry.nbytes
        seen = set(totals)
        seen.update(self._gauge_kinds)
        for kind in seen:
            _SEGMENT_BYTES.set(totals.get(kind, 0), kind=kind)
        self._gauge_kinds = set(totals)

    def _check_version(self, layout: BufferLayout, buf,
                       expected_version: int | None) -> None:
        if expected_version is None:
            return
        actual = read_version(buf)
        if actual != expected_version:
            raise ShmStaleError(
                f"segment {layout.segment!r} is at version {actual}, "
                f"but the descriptor was minted at version "
                f"{expected_version}")

    def _column_views(self, layout: BufferLayout, buf,
                      writable: bool) -> dict:
        views = {}
        for spec in layout.columns:
            view = _np.ndarray(spec.shape, dtype=_np.dtype(spec.dtype),
                               buffer=buf, offset=spec.offset)
            view.flags.writeable = writable
            views[spec.name] = view
        return views

    # -- publishing ------------------------------------------------------

    def publish(self, kind: str, columns: Mapping[str, Any],
                version: int = 0,
                meta: Mapping[str, Any] | None = None,
                ) -> tuple[BufferLayout, dict]:
        """Create a segment holding ``columns`` and return its plane.

        Returns ``(layout, views)`` where ``views`` maps column name to
        a *writable* numpy array backed by the segment — the publisher
        keeps these as its live arrays so later in-place updates are
        visible to every attached reader (after a version bump).
        """
        if not HAVE_SHM:
            raise ShmAttachError(
                "shared memory is unavailable on this platform")
        specs = []
        offset = HEADER_BYTES
        arrays = {}
        for name, array in columns.items():
            array = _np.ascontiguousarray(array)
            arrays[name] = array
            specs.append(ColumnSpec(name=name, dtype=str(array.dtype),
                                    shape=tuple(array.shape),
                                    offset=offset))
            offset += array.nbytes
            offset = (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        nbytes = max(offset, HEADER_BYTES)
        install_signal_handlers()
        segment = self._next_name()
        shm = _shared_memory.SharedMemory(
            name=segment, create=True, size=nbytes)
        header = _np.ndarray((1,), dtype=_np.int64, buffer=shm.buf)
        header[0] = version
        layout = BufferLayout(
            segment=segment, nbytes=nbytes, kind=kind, version=version,
            columns=tuple(specs),
            meta=tuple(sorted((meta or {}).items())))
        views = {}
        for spec in layout.columns:
            view = _np.ndarray(spec.shape, dtype=_np.dtype(spec.dtype),
                               buffer=shm.buf, offset=spec.offset)
            view[...] = arrays[spec.name]
            views[spec.name] = view
        with self._lock:
            self._entries[segment] = _Entry(shm, kind, os.getpid(), nbytes)
            self._gauge_refresh_locked()
        return layout, views

    def version_slot(self, layout: BufferLayout):
        """The writable 1-element ``int64`` version array (owner only)."""
        with self._lock:
            entry = self._entries.get(layout.segment)
        if entry is None or entry.creator_pid != os.getpid():
            raise ShmAttachError(
                f"this process does not own segment {layout.segment!r}")
        return _np.ndarray((1,), dtype=_np.int64, buffer=entry.shm.buf)

    # -- attaching -------------------------------------------------------

    def views(self, layout: BufferLayout,
              expected_version: int | None = None) -> dict:
        """Resolve ``layout`` to column arrays in this process.

        Three paths, cheapest first:

        * **owner** — this process published the segment: trusted live
          buffer, no fault checks, version still validated so a stale
          descriptor is caught even in-process.
        * **inherited** — a fork child whose registry dict (and mmap)
          came from the owner: the pages are genuinely shared, but the
          read is subject to ``shm.attach`` / ``shm.stale`` chaos like
          any worker.
        * **attach** — map the named segment fresh, cache it in the
          registry so subsequent tasks in this worker reuse the
          mapping.

        Returned views are read-only except on the owner path's
        original publish views (which are not re-derived here).
        """
        with self._lock:
            entry = self._entries.get(layout.segment)
        if entry is not None and entry.creator_pid == os.getpid():
            self._check_version(layout, entry.shm.buf, expected_version)
            return self._column_views(layout, entry.shm.buf, writable=False)
        if entry is not None:
            faults.check("shm.attach")
            faults.check("shm.stale")
            self._check_version(layout, entry.shm.buf, expected_version)
            return self._column_views(layout, entry.shm.buf, writable=False)
        faults.check("shm.attach")
        try:
            with self._lock, _attach_untracked():
                shm = _shared_memory.SharedMemory(name=layout.segment)
        except Exception as exc:
            raise ShmAttachError(
                f"cannot attach segment {layout.segment!r}: {exc}") from exc
        with self._lock:
            # Another thread may have raced the attach; keep the first.
            entry = self._entries.get(layout.segment)
            if entry is None:
                entry = _Entry(shm, layout.kind, -1, layout.nbytes)
                self._entries[layout.segment] = entry
                shm = None
                self._gauge_refresh_locked()
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass
        faults.check("shm.stale")
        self._check_version(layout, entry.shm.buf, expected_version)
        return self._column_views(layout, entry.shm.buf, writable=False)

    # -- releasing -------------------------------------------------------

    def retain(self, segment: str) -> None:
        """Bump ``segment``'s reference count (pairs with release)."""
        with self._lock:
            entry = self._entries.get(segment)
            if entry is not None:
                entry.refs += 1

    def release(self, segment: str) -> None:
        """Drop one reference; close (and unlink, if owner) at zero.

        Safe to call for unknown segments (no-op) and safe against
        live numpy views: a ``BufferError`` on close defers the munmap
        to garbage collection, but the unlink still happens — POSIX
        keeps the mapping valid until the last reference drops.
        """
        with self._lock:
            entry = self._entries.get(segment)
            if entry is None:
                return
            entry.refs -= 1
            if entry.refs > 0:
                return
            del self._entries[segment]
            self._gauge_refresh_locked()
        owner = entry.creator_pid == os.getpid()
        try:
            entry.shm.close()
        except BufferError:
            pass
        if owner:
            try:
                entry.shm.unlink()
            except FileNotFoundError:
                pass

    def sweep(self) -> None:
        """Release every tracked segment (exit / broken-pool recovery)."""
        with self._lock:
            segments = list(self._entries)
            for entry in self._entries.values():
                entry.refs = 1
        for segment in segments:
            self.release(segment)

    def sweep_kind(self, kind: str) -> None:
        """Release every tracked segment of one ``kind``."""
        with self._lock:
            segments = [name for name, entry in self._entries.items()
                        if entry.kind == kind]
            for name in segments:
                self._entries[name].refs = 1
        for segment in segments:
            self.release(segment)

    # -- introspection ---------------------------------------------------

    def segments(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def owned_segments(self) -> tuple[str, ...]:
        pid = os.getpid()
        with self._lock:
            return tuple(name for name, entry in self._entries.items()
                         if entry.creator_pid == pid)

    def tracked_bytes(self, kind: str | None = None) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values()
                       if kind is None or entry.kind == kind)


#: The process-lifetime registry; swept at interpreter exit.
REGISTRY = SegmentRegistry()
atexit.register(REGISTRY.sweep)

#: Signals whose default disposition kills the process *without*
#: running ``atexit`` hooks, which would orphan owned ``/dev/shm``
#: segments until a reboot.
_SWEEP_SIGNALS = (_signal.SIGTERM, _signal.SIGINT)

_HANDLERS_INSTALLED = False
_PREVIOUS_HANDLERS: dict[int, Any] = {}


def _signal_sweep(signum, frame) -> None:
    """Sweep owned segments, then deliver the signal's original fate."""
    REGISTRY.sweep()
    previous = _PREVIOUS_HANDLERS.get(signum)
    if callable(previous):
        previous(signum, frame)
        return
    if previous is _signal.SIG_IGN:
        return
    # SIG_DFL: restore the default disposition and re-raise so the
    # process still dies by the signal with the proper wait status.
    _signal.signal(signum, _signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def install_signal_handlers() -> bool:
    """Chain SIGTERM/SIGINT handlers that sweep owned segments.

    ``atexit`` does not run when the process dies by an unhandled
    signal, so a publisher killed with SIGTERM would leak its segments.
    The installed handlers are *chained* (a previously installed Python
    handler still runs afterwards) and *re-raising* (a default-action
    signal still terminates the process, preserving the wait status
    observed by the parent).  Idempotent; called automatically on first
    publish.  Returns ``False`` without installing anything when called
    off the main thread, where CPython forbids ``signal.signal`` — the
    main thread's handlers, if any, stay in place.
    """
    global _HANDLERS_INSTALLED
    if _HANDLERS_INSTALLED:
        return True
    if threading.current_thread() is not threading.main_thread():
        return False
    for signum in _SWEEP_SIGNALS:
        previous = _signal.getsignal(signum)
        if previous is _signal_sweep:  # pragma: no cover - paranoia
            continue
        _PREVIOUS_HANDLERS[signum] = previous
        _signal.signal(signum, _signal_sweep)
    _HANDLERS_INSTALLED = True
    return True
