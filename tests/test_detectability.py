"""Unit tests for the exhaustive combinational detectability oracle."""

from __future__ import annotations

import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.detectability import detectable_faults, fault_free_values
from repro.gatelevel.netlist import GateType, Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions
from repro.perf.bench import default_bench_circuits

#: The 21 committed benchmark-set circuits (small tier plus bbara, ex4, mark1).
_BENCH_CIRCUITS = default_bench_circuits()


def redundant_netlist():
    """y = a OR (a AND b): the AND gate is functionally redundant."""
    netlist = Netlist()
    a = netlist.add_input()
    b = netlist.add_input()
    t = netlist.add_gate(GateType.AND, (a, b))
    y = netlist.add_gate(GateType.OR, (a, t))
    netlist.set_outputs([y])
    return netlist, a, b, t, y


class TestStuckAtDetectability:
    def test_redundant_fault_found_undetectable(self):
        netlist, a, b, t, y = redundant_netlist()
        # t stuck-at-0 never changes y = a OR (a AND b) = a ... wait, b matters
        # when a=0? a=0 -> t=0 -> y=0 either way; a=1 -> y=1 either way. So
        # t/sa0 is undetectable; t/sa1 is detectable (a=0, b=anything -> y=1).
        detectable, undetectable = detectable_faults(
            netlist, [StuckAtFault(t, None, 0), StuckAtFault(t, None, 1)]
        )
        assert StuckAtFault(t, None, 0) in undetectable
        assert StuckAtFault(t, None, 1) in detectable

    def test_output_faults_always_detectable(self):
        netlist, a, b, t, y = redundant_netlist()
        detectable, _ = detectable_faults(
            netlist, [StuckAtFault(y, None, 0), StuckAtFault(y, None, 1)]
        )
        assert len(detectable) == 2

    def test_pin_fault_detectability(self):
        netlist, a, b, t, y = redundant_netlist()
        # OR pin 0 (reading a) stuck-at-1 forces y = 1: detectable with a=0.
        detectable, _ = detectable_faults(netlist, [StuckAtFault(y, 0, 1)])
        assert detectable

    def test_brute_force_agreement_on_lion(self):
        """Oracle vs exhaustive single-fault truth-table comparison."""
        from repro.gatelevel.fault_sim import detects
        from repro.core.baseline import per_transition_tests

        table = load_circuit("lion")
        circuit = ScanCircuit.from_machine(load_kiss_machine("lion"))
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        detectable, undetectable = detectable_faults(circuit.netlist, reps)
        # The per-transition baseline applies every (state, input) pattern
        # with direct observation: it detects exactly the detectable faults.
        baseline = per_transition_tests(table)
        found = set()
        for test in baseline:
            found |= detects(circuit, table, test, reps)
        assert found == detectable

    def test_chunking_invariant(self):
        netlist, a, b, t, y = redundant_netlist()
        faults = [StuckAtFault(t, None, 0), StuckAtFault(t, None, 1)]
        for chunk in (1, 2, 64):
            detectable, undetectable = detectable_faults(
                netlist, faults, chunk_words=chunk
            )
            assert StuckAtFault(t, None, 0) in undetectable
            assert StuckAtFault(t, None, 1) in detectable

    def test_bad_chunk_rejected(self):
        netlist, *_ = redundant_netlist()
        from repro.errors import FaultSimulationError

        with pytest.raises(FaultSimulationError):
            detectable_faults(netlist, [], chunk_words=0)


class TestBridgingDetectability:
    def test_bridge_between_identical_lines_is_undetectable(self):
        """Two lines computing the same function: bridging them changes
        nothing."""
        netlist = Netlist()
        a = netlist.add_input()
        b = netlist.add_input()
        t1 = netlist.add_gate(GateType.AND, (a, b))
        t2 = netlist.add_gate(GateType.AND, (a, b))  # duplicate logic
        y1 = netlist.add_gate(GateType.NOT, (t1,))
        y2 = netlist.add_gate(GateType.NOT, (t2,))
        netlist.set_outputs([y1, y2])
        faults = enumerate_bridging_faults(netlist)
        assert faults
        detectable, undetectable = detectable_faults(netlist, faults)
        assert not detectable
        assert set(undetectable) == set(faults)

    def test_bridge_on_lion_multilevel(self):
        circuit = ScanCircuit.from_machine(
            load_kiss_machine("lion"), SynthesisOptions(max_fanin=4)
        )
        faults = enumerate_bridging_faults(circuit.netlist)
        detectable, undetectable = detectable_faults(circuit.netlist, faults)
        assert len(detectable) + len(undetectable) == len(faults)
        assert detectable  # some bridges must matter


class TestFaultFreeValues:
    def test_shape(self):
        netlist, *_ = redundant_netlist()
        values = fault_free_values(netlist)
        assert values.shape == (netlist.n_gates, 1)


# ------------------------------------------- partition from the PPSFP tables


def _table_partition(circuit, table, faults, config=None):
    from repro.gatelevel.dispatch import detectable_partition
    from repro.gatelevel.ppsfp import PpsfpSimulator

    return detectable_partition(PpsfpSimulator(circuit, table, faults, config))


class TestTableDerivedPartition:
    """The PPSFP table reduction must equal the exhaustive cone walk."""

    @pytest.mark.parametrize("name", _BENCH_CIRCUITS)
    def test_bench_circuits_both_models(self, name):
        from repro.harness.experiments import get_study

        study = get_study(name)
        netlist = study.scan_circuit.netlist
        for faults in (study.stuck_at_faults, study.bridging_faults):
            partition = _table_partition(study.scan_circuit, study.table, faults)
            assert partition == detectable_faults(netlist, faults)

    def test_slabs_blocks_and_row_blocks_do_not_change_it(self, monkeypatch):
        from repro.core.config import FaultSimConfig
        from repro.gatelevel import ppsfp

        table = load_circuit("dk16")  # 2^7 patterns: two 64-pattern blocks
        circuit = ScanCircuit.from_machine(
            load_kiss_machine("dk16"), SynthesisOptions(max_fanin=4)
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        faults += enumerate_bridging_faults(circuit.netlist, limit=200, seed=0)
        expected = detectable_faults(circuit.netlist, faults)
        assert _table_partition(circuit, table, faults) == expected

        cuts: set[tuple[int, int]] = set()
        extract = ppsfp.PpsfpSimulator._extract

        def spy(self, values, lo, hi, word_lo, word_hi):
            cuts.add((lo, word_lo))
            return extract(self, values, lo, hi, word_lo, word_hi)

        monkeypatch.setattr(ppsfp.PpsfpSimulator, "_extract", spy)
        monkeypatch.setattr(
            ppsfp, "SLAB_BYTES_BUDGET", circuit.netlist.n_gates * 8 * 37
        )
        monkeypatch.setattr(ppsfp, "COMPARE_CELLS", 3 * 128)
        config = FaultSimConfig(ppsfp_pattern_block=64)
        assert _table_partition(circuit, table, faults, config) == expected
        assert len({lo for lo, _ in cuts}) > 1  # several fault slabs
        assert len({word for _, word in cuts}) > 1  # several pattern blocks

    def test_empty_universe(self):
        from repro.gatelevel.dispatch import detectable_partition, make_fault_simulator

        table = load_circuit("lion")
        circuit = ScanCircuit.from_machine(load_kiss_machine("lion"))
        assert _table_partition(circuit, table, []) == (set(), set())
        simulator = make_fault_simulator(circuit, table, [])
        assert detectable_partition(simulator) == (set(), set())

    @pytest.mark.parametrize("seed", range(4))
    def test_unassigned_state_codes_match_unmasked_oracle(self, seed):
        from repro.fsm.builders import random_dense_table

        table = random_dense_table(2, 5, 2, seed)  # 5 states in 3 state bits
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        assert table.n_states < 1 << circuit.n_state_variables
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        faults += enumerate_bridging_faults(circuit.netlist, limit=100, seed=seed)
        assert _table_partition(circuit, table, faults) == detectable_faults(
            circuit.netlist, faults
        )


class TestDispatchedPartition:
    """The PPSFP-or-big-int decision is one predicate for the simulator
    factory and the perf engine's chunking; big-int universes keep the cone
    walk."""

    @pytest.fixture(scope="class")
    def wide(self):
        from repro.core.generator import generate_tests
        from repro.fsm.builders import random_dense_table

        table = random_dense_table(2, 4, 33, 7)  # 33 output bits
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        tests = tuple(generate_tests(table).test_set.by_decreasing_length())
        return table, circuit, faults, tests

    def test_wide_outputs_get_balanced_bigint_chunks(self, wide, monkeypatch):
        from repro.core.config import FaultSimConfig
        from repro.gatelevel import dispatch
        from repro.gatelevel.compiled import CompiledFaultSimulator
        from repro.perf.engine import _fault_chunks, _simulate_task

        table, circuit, faults, tests = wide
        config = FaultSimConfig(max_batch_bits=128)  # engine="auto"
        pattern_bits = circuit.n_state_variables + circuit.n_primary_inputs
        cycles = sum(len(test.inputs) for test in tests)
        assert config.select_engine(len(faults), pattern_bits, cycles) == "ppsfp"
        chunks = _fault_chunks(
            faults, config, pattern_bits, cycles,
            n_primary_outputs=circuit.n_primary_outputs,
        )
        size = config.resolved_batch_bits(len(faults))
        assert len(chunks) > 1
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert [fault for chunk in chunks for fault in chunk] == faults

        walked: list[int] = []
        cone = dispatch.detectable_faults

        def counting(netlist, chunk_faults, *args, **kwargs):
            walked.append(len(chunk_faults))
            return cone(netlist, chunk_faults, *args, **kwargs)

        monkeypatch.setattr(dispatch, "detectable_faults", counting)
        snapshot = {
            "circuits": {"wide": (circuit, table, tests)},
            "chunks": [("wide", chunk) for chunk in chunks],
            "faultsim": config,
        }
        detectable: set = set()
        undetectable: set = set()
        for index, chunk in enumerate(chunks):
            simulator = dispatch.make_fault_simulator(
                circuit, table, chunk, config, total_test_cycles=cycles
            )
            assert isinstance(simulator, CompiledFaultSimulator)
            assert dispatch.partition_source(simulator) == "cone"
            result = _simulate_task(snapshot, index)
            detectable |= result.partition[0]
            undetectable |= result.partition[1]
        assert walked == [len(chunk) for chunk in chunks]
        assert (detectable, undetectable) == cone(circuit.netlist, faults)

    def test_predicate_matches_factory(self, wide):
        from repro.core.config import FaultSimConfig
        from repro.gatelevel.dispatch import make_fault_simulator, uses_ppsfp_tables
        from repro.gatelevel.ppsfp import PpsfpSimulator

        table, circuit, faults, _ = wide
        bits = circuit.n_state_variables + circuit.n_primary_inputs
        for engine in ("auto", "bigint"):
            config = FaultSimConfig(engine=engine)
            simulator = make_fault_simulator(circuit, table, faults, config)
            assert isinstance(simulator, PpsfpSimulator) == uses_ppsfp_tables(
                config, len(faults), bits, circuit.n_primary_outputs
            )
        assert uses_ppsfp_tables(FaultSimConfig(), 0, bits, 33)
        assert uses_ppsfp_tables(FaultSimConfig(), len(faults), bits, 32)
        assert not uses_ppsfp_tables(FaultSimConfig(), len(faults), bits, 33)
