"""Analysis modes: the setup/hold duality.

Every algorithm in the paper comes in a setup and a hold flavour that
differ only in which delay bound they propagate (late vs early), which
direction "more critical" points (larger vs smaller arrival), and the
slack formula at the capture pin.  :class:`AnalysisMode` centralizes those
choices so each algorithm is written once.
"""

from __future__ import annotations

import enum

__all__ = ["AnalysisMode"]


class AnalysisMode(enum.Enum):
    """Setup (max/late) or hold (min/early) analysis."""

    SETUP = "setup"
    HOLD = "hold"

    def __init__(self, value: str) -> None:
        # Plain attributes, set once per member: the propagation and
        # search loops read them tens of thousands of times per query.
        self.is_setup = value == "setup"
        #: Identity element for this mode's arrival merge.  Setup
        #: propagates the *latest* arrival, so an absent arrival is
        #: ``-inf``; hold propagates the earliest, so absent is ``+inf``.
        self.empty_time = float("-inf") if self.is_setup else float("inf")

    def prefer(self, candidate: float, incumbent: float) -> bool:
        """True when ``candidate`` is more pessimistic than ``incumbent``.

        The data-path propagation keeps the most pessimistic arrival:
        the largest for setup, the smallest for hold.
        """
        if self.is_setup:
            return candidate > incumbent
        return candidate < incumbent

    def edge_delay(self, early: float, late: float) -> float:
        """The delay bound this mode propagates along a data edge."""
        return late if self.is_setup else early

    @classmethod
    def coerce(cls, value: "AnalysisMode | str") -> "AnalysisMode":
        """Accept a mode or its string name (``"setup"``/``"hold"``)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError):
            raise ValueError(
                f"unknown analysis mode {value!r}; expected 'setup' or "
                f"'hold'") from None
