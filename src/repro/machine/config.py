"""Machine cost model.

All constants are simulated cycles on a 33 MHz SPARC-class node (one
cycle ~ 30 ns).  They are deliberately CM-5-flavoured — a short active
message costs a few microseconds end to end — but only *relative*
magnitudes matter for the reproduced figures, and every experiment can
override them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineConfig:
    """Cycle costs for the simulated multicomputer.

    Attributes
    ----------
    n_procs:
        Number of processing nodes (the paper uses 32).
    am_send_overhead:
        Cycles the *sender's* CPU spends injecting an active message.
    am_receive_overhead:
        Cycles of dispatch overhead at the receiver before the handler runs.
    network_latency:
        Wire/switch latency for the first word of a message.
    per_word_transfer:
        Additional cycles per 8-byte payload word (bulk-transfer rate).
    """

    n_procs: int = 32
    am_send_overhead: int = 60
    am_receive_overhead: int = 40
    network_latency: int = 100
    per_word_transfer: int = 4

    def __post_init__(self):
        if self.n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {self.n_procs}")
        for field in (
            "am_send_overhead",
            "am_receive_overhead",
            "network_latency",
            "per_word_transfer",
        ):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")

    def message_cost(self, payload_words: int = 0) -> int:
        """One-way delivery time for a message carrying ``payload_words`` words."""
        return self.network_latency + self.per_word_transfer * payload_words

    def with_(self, **kw) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)
