"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitStructureError(ReproError):
    """The circuit netlist or timing graph is structurally invalid.

    Raised for problems such as combinational cycles, dangling FF pins,
    clock-tree nodes with multiple parents, or edges referencing unknown
    pins.
    """


class TimingConstraintError(ReproError):
    """A timing constraint is missing, inconsistent, or out of range."""


class AnalysisError(ReproError):
    """A timing analysis step could not be completed.

    Raised, for example, when path queries are issued before arrival times
    have been propagated, or when a requested analysis mode is unknown.
    """


class ExecutionError(AnalysisError):
    """A query's task execution failed beyond recovery.

    Raised by the resilient scheduler (:mod:`repro.cppr.parallel`) and
    :class:`repro.cppr.engine.CpprEngine` when a task keeps failing
    after every configured retry and every fallback rung — or, with
    ``strict=True``, on the *first* fault instead of degrading.  The
    original failure is chained as ``__cause__``.
    """


class DeadlineExpired(AnalysisError):
    """A cooperative deadline ran out before the work completed.

    Raised by the resilient scheduler (and other deadline-aware loops)
    when the ambient :func:`repro.cppr.parallel.deadline_scope` budget
    is exhausted.  The partial work is discarded — a deadline-expired
    query never returns a partial report; the timing server maps this
    to a structured 408 response.
    """


class StaleStateError(ReproError):
    """A process cannot serve a task from the state it holds.

    Raised when a process resolves a
    :class:`~repro.cppr.shard.FamilyDescriptor` whose design or batch it
    lacks, or whose core values version differs from the core it holds:
    a pool worker forked before the design was published, or a core
    edited in place after the descriptor was minted.  Stale state is
    detected, never served.  The error is *recoverable* by design: the
    resilient scheduler treats it as an ordinary task failure, so the
    task walks the ``process -> thread -> serial`` ladder and the
    parent's live objects still return the exact report.
    """


class DegradedResultWarning(RuntimeWarning):
    """A query completed, but only by degrading its execution strategy.

    Emitted (via :mod:`warnings`) when the engine fell back to a safer
    executor or compute backend mid-query.  The result is still exact —
    every degradation rung is bit-for-bit equivalent — but the run was
    slower than configured, which operators may want to alert on.
    """


class SourceLocation:
    """A ``path:line:col`` position inside a design source file.

    The shared diagnostics vocabulary of every frontend parser: the
    tokenizer (or line scanner) tracks one of these and hands it to
    :class:`FormatError` via :meth:`error`, so all formats — TAU text,
    JSON, Verilog, Yosys JSON, SDF — report positions identically.
    Lines and columns are 1-based; either may be omitted when the
    format has no meaningful notion of it (``col`` for line-oriented
    formats, both for whole-file errors).
    """

    __slots__ = ("path", "line", "col")

    def __init__(self, path: str | None = None, line: int | None = None,
                 col: int | None = None) -> None:
        self.path = None if path is None else str(path)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        parts = [] if self.path is None else [self.path]
        if self.line is not None:
            parts.append(str(self.line))
            if self.col is not None:
                parts.append(str(self.col))
        return ":".join(parts)

    def __repr__(self) -> str:
        return (f"SourceLocation(path={self.path!r}, line={self.line!r}, "
                f"col={self.col!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.path, self.line, self.col) == \
            (other.path, other.line, other.col)

    def error(self, message: str) -> "FormatError":
        """A :class:`FormatError` pinned to this location."""
        return FormatError(message, path=self.path, line=self.line,
                           col=self.col)


class FormatError(ReproError):
    """A design file could not be parsed or serialized.

    The message is prefixed with the offending position as
    ``path:line:col:`` (each part optional, rendered by
    :class:`SourceLocation`), the diagnostic shape editors and CI log
    scrapers already understand.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 path: str | None = None, col: int | None = None) -> None:
        location = str(SourceLocation(path, line, col))
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col
        self.path = path
