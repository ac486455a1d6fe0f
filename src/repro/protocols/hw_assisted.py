"""Hardware-assisted SC: the §6 Typhoon/FLASH integration path.

"On Typhoon, which provides hardware support for access-fault control,
protocol designers could implement certain protocols by registering
null handlers with the Ace system and appropriate system handlers with
Typhoon ... Separating application and protocol views permits the use
of hardware mechanisms by protocols, independent of application code."

``HwSC`` runs the same home-based MSI state machine as the default SC
protocol, but its access checks are performed by a modeled hardware
fine-grain access-control unit: the fast-path check costs a couple of
cycles instead of tens, and the runtime's software dispatch is skipped
(``spec.hardware``).  Misses still go through the full software
directory — hardware accelerates the hit path, exactly the hybrid the
paper sketches.  Applications switch with one ``Ace_ChangeProtocol``
call and no other change.
"""

from __future__ import annotations

from repro.dsm import CoherenceEngine, DSMCosts
from repro.dsm.msi import HW_SC_TABLE
from repro.protocols.registry import default_registry
from repro.protocols.sc_invalidate import SCProtocol

#: the hardware unit checks access tags in a couple of cycles; the
#: software-only miss machinery is unchanged from the Ace SC table.
HW_SC_COSTS = DSMCosts(
    create=100,
    map_hit=2,
    map_cold=60,
    map_needs_lookup=False,
    unmap=2,
    start_hit=2,
    start_miss=45,
    end_op=1,
    inval_handler=32,
    flush=40,
)


@default_registry.register
class HwAssistedSCProtocol(SCProtocol):
    """Sequentially consistent invalidation with hardware access checks."""

    table = HW_SC_TABLE

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._bind_engine(
            CoherenceEngine(
                runtime.transport,
                runtime.regions,
                HW_SC_COSTS,
                stats_prefix="ace.hwsc",
                table=HW_SC_TABLE,
            )
        )
