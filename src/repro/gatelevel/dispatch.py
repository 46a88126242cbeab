"""Engine dispatch for fault simulation and detectability.

One factory, :func:`make_fault_simulator`, resolves a
:class:`repro.core.config.FaultSimConfig` engine choice into a concrete
simulator: the PPSFP behavioral-table engine
(:class:`repro.gatelevel.ppsfp.PpsfpSimulator`) or the compiled big-int
parallel-fault engine
(:class:`repro.gatelevel.compiled.CompiledFaultSimulator`).  Both expose
``detect_mask`` / ``detect_masks`` / ``detects`` /
``make_effective_simulator`` over the same fault-bit order, and produce
bit-identical masks — the dispatch decision only ever affects speed.

Whether a universe gets PPSFP tables is decided once, by
:func:`uses_ppsfp_tables`, which the factory and the perf engine's chunking
share.  :func:`detectable_partition` then derives the universe's
(detectable, undetectable) split from the simulator actually built: a
reduction of the PPSFP tables when there are any, otherwise the
exhaustive cone walk of :mod:`repro.gatelevel.detectability` over the
simulator's own faults.  Both are exact over all ``2**(SV+PI)`` patterns.

The module exists so call sites (harness selections, the perf engine, the
fuzz oracle) need neither import both engines nor re-implement the
``auto`` heuristic; it imports only the two engines, the cone walk and the
config, which keeps the package free of import cycles.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.config import FaultSimConfig
from repro.fsm.state_table import StateTable
from repro.gatelevel.compiled import CompiledFaultSimulator
from repro.gatelevel.detectability import detectable_faults
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault
from repro.gatelevel.bridging import BridgingFault

__all__ = [
    "FaultSimulator",
    "detectable_partition",
    "make_fault_simulator",
    "partition_source",
    "uses_ppsfp_tables",
]

Fault = Union[StuckAtFault, BridgingFault]
FaultSimulator = Union[PpsfpSimulator, CompiledFaultSimulator]


def uses_ppsfp_tables(
    config: FaultSimConfig,
    n_faults: int,
    n_pattern_bits: int,
    n_primary_outputs: int,
    total_test_cycles: int | None = None,
) -> bool:
    """Does this universe get a :class:`PpsfpSimulator` (and its tables)?

    ``config.select_engine`` decides, except that ``auto`` never picks
    PPSFP for more than 32 output bits: the tables hold output combos in
    uint32 cells.  An empty universe always gets PPSFP (see
    :func:`make_fault_simulator`).
    """
    if n_faults == 0:
        return True
    engine = config.select_engine(n_faults, n_pattern_bits, total_test_cycles)
    if engine != "ppsfp":
        return False
    return config.engine != "auto" or n_primary_outputs <= 32


def make_fault_simulator(
    circuit: ScanCircuit,
    table: StateTable,
    faults: Sequence[Fault],
    config: FaultSimConfig | None = None,
    *,
    total_test_cycles: int | None = None,
) -> FaultSimulator:
    """Build the fault simulator ``config`` selects for this universe.

    ``total_test_cycles`` — when the caller already knows how many clock
    cycles it is about to simulate (sum of test lengths x expected passes)
    — lets the ``auto`` heuristic reject a PPSFP table build that would
    cost more than the big-int simulation it replaces.

    An *empty* universe always gets the PPSFP engine (the compiled engine
    rejects empty universes; PPSFP returns mask 0 for every test), so
    callers can treat "nothing to simulate" uniformly.
    """
    config = config or FaultSimConfig()
    if uses_ppsfp_tables(
        config,
        len(faults),
        circuit.n_state_variables + circuit.n_primary_inputs,
        circuit.n_primary_outputs,
        total_test_cycles,
    ):
        return PpsfpSimulator(circuit, table, faults, config)
    return CompiledFaultSimulator(circuit, table, faults)


def partition_source(simulator: FaultSimulator) -> str:
    """``"tables"`` or ``"cone"``: where :func:`detectable_partition` of
    ``simulator`` comes from."""
    return "tables" if isinstance(simulator, PpsfpSimulator) else "cone"


def detectable_partition(
    simulator: FaultSimulator,
) -> tuple[set[Fault], set[Fault]]:
    """``(detectable, undetectable)`` split of ``simulator``'s faults.

    A PPSFP simulator already holds every fault's complete behavioral
    table, so the split is a reduction of those tables
    (:meth:`PpsfpSimulator.detectable_rows`); a big-int simulator has no
    tables, so its faults go through the cone walk.  Both judge all
    ``2**(SV+PI)`` patterns and give the same partition.
    """
    if not isinstance(simulator, PpsfpSimulator):
        return detectable_faults(simulator.circuit.netlist, simulator.faults)
    detectable: set[Fault] = set()
    undetectable: set[Fault] = set()
    for fault, hit in zip(simulator.faults, simulator.detectable_rows()):
        (detectable if hit else undetectable).add(fault)
    return detectable, undetectable
