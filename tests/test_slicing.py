"""Replay cut at any quantum boundary computes the stepped run.

``run_quantum`` enters a compiled superblock at whatever member a
quantum starts on, and stops the replay after the member at which the
budget runs out.  Each entry and each exit point must leave the machine
where ``step()``, the reference semantics, leaves it.  This oracle runs
the 14 benchmarks at scale 1 under insecure, hardware-only and
ucode-prediction, and fuzz seeds 0-23 under the same variants, in
quanta of 1, 3, 7 and 64 instructions, with superblocks compiled on a
pc's first entry and at the default threshold.  A stepping machine runs
each quantum alongside (multithreaded benchmarks run their cores round
robin, as ``MulticoreMachine`` does), and:

* after every quantum, the boundary state (:func:`_boundary`) equals
  the stepping machine's;
* every :data:`FULL_EVERY` instructions and at the end, the whole
  ``comparable_state`` tree (``state()`` less ``frontend.*``) does;
* every start index and every stop index of every formed superblock
  is exercised at least once (in a fuzz program that traps, up to the
  trapping member: the run halts there).

A pc can lie in more than one superblock; the lookup table enters the
first that covered it.  Any member at that pc is a correct entry, so
before each quantum the oracle points the table at a superblock whose
start index at the pc has not been entered yet.  With quanta of one
instruction, a replay entered at member ``k`` stops at ``k + 1``, so
entering every start also reaches every stop.

The benchmarks run for their first :data:`WINDOW` instructions, which
keeps the oracle within about 20 s of tier-1 time; the superblocks they
form in that window are the ones checked.
"""

from collections import defaultdict
from typing import Callable, List

import pytest

from repro.core import Chex86Machine, Variant
from repro.core.violations import CapabilityException
from repro.fuzz import generate, install_protect_hook
from repro.fuzz.generator import DEFAULT_BUDGET
from repro.fuzz.oracles import comparable_state
from repro.isa import assemble
from repro.pipeline.multicore import MulticoreMachine
from repro.workloads import BENCHMARK_ORDER, build

QUANTA = (1, 3, 7, 64)
THRESHOLDS = (1, Chex86Machine.superblock_compile_entry)
VARIANTS = (Variant.INSECURE, Variant.HW_ONLY, Variant.UCODE_PREDICTION)

#: Instructions of each benchmark run (over all its cores).
WINDOW = 2_000

#: Whole-state comparisons happen once per this many instructions.
FULL_EVERY = 512

Cores = List[Chex86Machine]


def _boundary(machine: Chex86Machine) -> tuple:
    """The state a quantum boundary moves: architectural state, the
    retire counters, tracker tags, MCU counters and the whole timing
    state (counters, register-ready times, ROB, LQ/SQ, unit pools, the
    live issue window, the fetch and commit cursors, the private
    caches).  It is cheap enough to compare after every quantum; the
    rest of ``state()`` is compared every :data:`FULL_EVERY`
    instructions."""
    machine.timing.finish()
    return (machine.rip, list(machine.regs), machine.flags, machine.halted,
            machine.instructions, machine.total_uops, machine.native_uops,
            machine.tracker.state(), machine.mcu.stats.state(),
            machine.timing.state(), len(machine.violations.violations))


class _Entries:
    """The superblocks one threshold's machines form, the start and stop
    indices their replays used, and which members cover each pc."""

    def __init__(self) -> None:
        self.formed = {}  # (entry, length) -> superblock
        self.starts = defaultdict(set)
        self.stops = defaultdict(set)
        self.traps = {}  # (entry, length) -> first member that trapped
        self._members = {}  # core -> pc -> [(superblock, index)]

    def watch(self, core: Chex86Machine) -> None:
        members = self._members[core] = defaultdict(list)
        compile_superblock = core._compile_superblock

        def compiled(pc):
            sb = compile_superblock(pc)
            if sb is None:
                return sb
            key = (sb.entry, sb.length)
            self.formed[key] = sb
            for index, fields in enumerate(sb.members):
                members[fields[0]].append((sb, index))
            replay = sb.replay

            def recorded(machine, start, stop):
                self.starts[key].add(start)
                before = machine.instructions
                try:
                    retired = replay(machine, start, stop)
                except CapabilityException:
                    trapped = start + machine.instructions - before
                    self.traps[key] = min(self.traps.get(key, trapped),
                                          trapped)
                    raise
                self.stops[key].add(start + retired)
                return retired

            sb.replay = recorded
            return sb

        core._compile_superblock = compiled

    def steer(self, core: Chex86Machine) -> None:
        """Point the table at a member at ``rip`` not yet entered."""
        for sb, index in self._members[core].get(core.rip, ()):
            if index not in self.starts[(sb.entry, sb.length)]:
                core._sb_members[core.rip] = (sb, index)
                return

    def check_coverage(self) -> None:
        """Every member entered and every stop reached, up to the member
        whose trap ended the run (a program that traps halts there)."""
        for key, sb in self.formed.items():
            trapped = self.traps.get(key)
            starts = sb.length if trapped is None else trapped + 1
            stops = sb.length if trapped is None else trapped
            assert self.starts[key] == set(range(starts)), \
                (hex(sb.entry), "starts", self.starts[key])
            assert self.stops[key] == set(range(1, stops + 1)), \
                (hex(sb.entry), "stops", self.stops[key])


def _check_slicing(make: Callable[[], Cores], window: int) -> None:
    entries = {threshold: _Entries() for threshold in THRESHOLDS}
    for quantum in QUANTA:
        reference = make()
        for core in reference:
            core.block_cache_enabled = False
        fast = {}
        for threshold in THRESHOLDS:
            fast[threshold] = make()
            for core in fast[threshold]:
                core.superblock_compile_entry = threshold
                entries[threshold].watch(core)
        done, mark = 0, FULL_EVERY
        progressing = True
        while progressing and done < window:
            progressing = False
            for index, stepped in enumerate(reference):
                if stepped.halted:
                    continue
                count = stepped.run_quantum(quantum)
                done += count
                progressing = progressing or count > 0
                expected = _boundary(stepped)
                full = None
                if done >= mark:
                    mark += FULL_EVERY
                    full = comparable_state(stepped)
                for threshold in THRESHOLDS:
                    core = fast[threshold][index]
                    entries[threshold].steer(core)
                    where = (quantum, threshold, index, done)
                    assert core.run_quantum(quantum) == count, where
                    assert _boundary(core) == expected, where
                    if full is not None:
                        assert comparable_state(core) == full, where
        for index, stepped in enumerate(reference):
            full = comparable_state(stepped)
            for threshold in THRESHOLDS:
                assert comparable_state(fast[threshold][index]) == full
    for threshold in THRESHOLDS:
        entries[threshold].check_coverage()
    assert entries[1].formed, "no superblock formed"


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_benchmark_slices(name, variant):
    workload = build(name, 1)

    def make() -> Cores:
        return MulticoreMachine(workload, variant=variant,
                                halt_on_violation=False).cores

    _check_slicing(make, WINDOW)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_fuzz_slices(variant):
    for seed in range(24):
        fuzz = generate(seed)
        program = assemble(fuzz.source, name=fuzz.name)

        def make() -> Cores:
            machine = Chex86Machine(program, variant=variant)
            if fuzz.uses_protect_hook:
                install_protect_hook(machine)
            return [machine]

        _check_slicing(make, DEFAULT_BUDGET)
