"""Simulated distributed-memory multicomputer with Active Messages.

Models the paper's evaluation platform — a 32-node Thinking Machines
CM-5 running CMAML active messages — as a configurable cost model on
top of :mod:`repro.sim`.  All higher layers (the CRL baseline, the Ace
runtime, every protocol) communicate exclusively through
:meth:`Machine.am_request` / :meth:`Machine.rpc` / :meth:`Machine.reply`,
mirroring the paper's claim that "Ace is portable to any system that
supports an Active Messages mechanism".
"""

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine, Node
from repro.machine.stats import PhaseScopeError, Stats

__all__ = ["Machine", "MachineConfig", "Node", "PhaseScopeError", "Stats"]
