"""The simulator never executes a wrong path, so the tracker keeps one
PID per register and a store's alias update waits only for the end of
its instruction.

The paper's front end tracks PIDs on speculatively fetched instructions
(Section V-D): each register tag keeps a finalized PID plus transient
PIDs, store PIDs wait in the store buffer until commit, and a squash
discards what is younger than the mispredicting instruction.  This
simulator executes in program order and charges a mispredict as penalty
cycles (``pipeline/timing.py``), so at a squash no younger instruction
has run and nothing is left to discard.  These runs check that, on
every tracked variant, over fuzz programs (stepped and replayed) and
the 14 benchmarks:

* mispredicts and pointer spills happen, and ``squashed_tags`` stays 0;
* the store buffer's one slot is empty after every instruction, a
  trapping one included, so it is not machine state.

On a small program under both executors, a store's alias update is
absent from the alias table and cache until its instruction ends, and
present after.
"""

import pytest

from repro.core import Chex86Machine, Variant
from repro.core.variants import traits_of
from repro.fuzz import generate, install_protect_hook
from repro.fuzz.generator import DEFAULT_BUDGET
from repro.isa import Reg, assemble
from repro.pipeline.multicore import MulticoreMachine
from repro.telemetry.tracer import Observer
from repro.workloads import BENCHMARK_ORDER, build

from conftest import assemble_main

TRACKED = tuple(variant for variant in Variant
                if traits_of(variant).tracks_pointers)


def _guard(machine: Chex86Machine) -> None:
    """Check the slot after every stepped instruction (replay keeps the
    update in locals and never fills the slot)."""
    sbuf = machine.store_buffer
    step = machine.step

    def checked_step():
        try:
            step()
        finally:
            assert sbuf.pending is None, \
                "an alias update outlived its instruction"

    machine.step = checked_step


def _check_end(cores, seen: dict) -> None:
    for core in cores:
        assert core.store_buffer.pending is None
        assert core.tracker.stats.squashed_tags == 0
        seen["squashes"] += core.tracker.stats.squashes
        seen["spills"] += core.alias_table.stats.entries_set


@pytest.mark.parametrize("variant", TRACKED, ids=lambda v: v.value)
def test_fuzz_programs(variant):
    seen = {"squashes": 0, "spills": 0}
    for seed in range(24):
        fuzz = generate(seed)
        program = assemble(fuzz.source, name=fuzz.name)
        # Once through step() alone, once through replay wherever a
        # superblock forms.
        for replay in (False, True):
            machine = Chex86Machine(program, variant=variant)
            machine.block_cache_enabled = replay
            machine.superblock_compile_entry = 1
            if fuzz.uses_protect_hook:
                install_protect_hook(machine)
            _guard(machine)
            machine.run(max_instructions=DEFAULT_BUDGET)
            _check_end([machine], seen)
    assert seen["squashes"] and seen["spills"]


@pytest.mark.parametrize("variant", TRACKED, ids=lambda v: v.value)
def test_benchmarks(variant):
    seen = {"squashes": 0, "spills": 0}
    for name in BENCHMARK_ORDER:
        workload = build(name, 1)
        if workload.threads > 1:
            runner = MulticoreMachine(workload, variant=variant,
                                      halt_on_violation=False)
            for core in runner.cores:
                _guard(core)
            runner.run()
            cores = runner.cores
        else:
            machine = Chex86Machine(
                assemble(workload.source, name=workload.name),
                variant=variant, halt_on_violation=False)
            _guard(machine)
            machine.run()
            cores = [machine]
        _check_end(cores, seen)
    assert seen["squashes"] and seen["spills"]


#: Spills a heap pointer with ``push``, then ``call``s so that the call's
#: return-address store (PID 0) lands on the spilled word.
SPILL_THEN_CALL = """
    mov rdi, 64
    call malloc
    push rax
    pop rbx
    call leaf
    halt
leaf:
    ret
"""


class _AliasAtCall(Observer):
    """Records the alias state of the word a ``call`` stores to, from
    the call's jump: after its store, before its instruction ends."""

    def __init__(self, machine: Chex86Machine) -> None:
        self.machine = machine
        self.seen = []

    def on_call(self, ts, pc):
        machine = self.machine
        word = machine.regs[int(Reg.RSP)]
        self.seen.append((word, machine.alias_table.peek(word),
                          machine.alias_cache.cache.lookup(word)))


@pytest.mark.parametrize("replay", (False, True), ids=("step", "replay"))
def test_alias_update_lands_at_instruction_end(replay):
    machine = Chex86Machine(assemble_main(SPILL_THEN_CALL),
                            halt_on_violation=False)
    machine.block_cache_enabled = replay
    machine.superblock_compile_entry = 1
    observer = _AliasAtCall(machine)
    machine.attach(observer)
    machine.run(max_instructions=10_000)
    assert machine.halted and not machine.violations.count()
    replayed = machine._superblock_instructions
    assert replayed if replay else not replayed
    word, table_pid, cached_pid = observer.seen[-1]
    # Mid-instruction the spilled pointer's alias is still in place...
    assert table_pid == machine.tracker.current_pid(int(Reg.RBX)) > 0
    assert cached_pid == table_pid
    # ...and the call's store of a return address has cleared it since.
    assert machine.alias_table.peek(word) == 0
    assert machine.alias_cache.cache.lookup(word) is None
