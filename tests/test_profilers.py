"""The two profiling observers: Figure 3's per-interval PIDs
(:class:`IntervalPids`) and SimPoint's basic-block vectors
(:class:`BasicBlockVectors`).

They ride the machine's one observer slot, so attaching them must leave
the run as it was: the same ``state()`` and the same counters, the
superblock meters (``frontend.*``) included.  The pinned values were
produced by the profiling code the machine carried before these
observers replaced it: the Figure 3 interval counts of mcf and of the
four-thread blackscholes (budget 600k, interval 400, counted per core),
and the perlbench and gcc BBVs at interval 500.
"""

import hashlib
import json

import pytest

from repro.analysis.allocprofile import (
    PROFILE_INTERVAL, IntervalPids, profile_workload)
from repro.analysis.simpoint import BasicBlockVectors, profile_bbvs
from repro.core import Chex86Machine, Variant
from repro.fuzz import PROFILES, generate
from repro.isa import assemble
from repro.isa.instructions import INSTR_SLOT
from repro.pipeline.multicore import MulticoreMachine
from repro.workloads import build


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _figure3_counts(name):
    """Per-interval PID counts of one Figure 3 benchmark, per core."""
    workload = build(name, 1)
    if workload.threads > 1:
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION,
                                  halt_on_violation=False)
        profilers = [core.attach(IntervalPids(PROFILE_INTERVAL))
                     for core in runner.cores]
        runner.run(max_instructions_per_core=600_000)
    else:
        machine = Chex86Machine(assemble(workload.source, name=name),
                                halt_on_violation=False)
        profilers = [machine.attach(IntervalPids(PROFILE_INTERVAL))]
        machine.run(max_instructions=600_000)
    return [count for profiler in profilers for count in profiler.finish()]


class TestPinnedToTheMachineCounts:
    @pytest.mark.parametrize("name, intervals, total, digest, average", [
        ("mcf", 75, 2523, "7e102594324d2793", 33.64),
        ("blackscholes", 200, 108, "9524c46cac4cdc78", 0.54),
    ])
    def test_figure3_interval_counts(self, name, intervals, total, digest,
                                     average):
        counts = _figure3_counts(name)
        assert (len(counts), sum(counts), _digest(counts)) \
            == (intervals, total, digest)
        profile = profile_workload(build(name, 1))
        assert profile.intervals == intervals
        assert profile.avg_in_use_per_interval == pytest.approx(average)

    @pytest.mark.parametrize("name, intervals, instructions, digest", [
        ("perlbench", 37, 18039, "95577286d21b35b1"),
        ("gcc", 33, 16153, "432f263a3e6c3561"),
    ])
    def test_bbvs(self, name, intervals, instructions, digest):
        vectors, machine = profile_bbvs(build(name, 1), interval=500)
        assert machine.instructions == instructions
        assert len(vectors) == intervals
        assert _digest([sorted(vector.items()) for vector in vectors]) \
            == digest


def _programs():
    for name in ("mcf", "lbm", "deepsjeng"):
        workload = build(name, 1)
        yield name, assemble(workload.source, name=name)
    for seed in range(4):
        fuzz = generate(seed, PROFILES[seed % len(PROFILES)])
        yield fuzz.name, assemble(fuzz.source, name=fuzz.name)


@pytest.mark.parametrize("name, program", list(_programs()),
                         ids=lambda value: value if isinstance(value, str)
                         else "")
def test_observing_leaves_the_run_unchanged(name, program):
    """Profiling observers change neither state nor any counter; short
    intervals put a boundary inside nearly every superblock."""
    runs = []
    for observed in (False, True):
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        if observed:
            pids = machine.attach(IntervalPids(7))
            bbvs = machine.attach(BasicBlockVectors(13, program))
        machine.run(max_instructions=200_000)
        runs.append((machine.state(), machine.metrics_snapshot()))
    (plain_state, plain_metrics), (state, metrics) = runs
    assert state == plain_state
    assert metrics == plain_metrics
    assert pids.finish() and bbvs.finish()
    assert sum(sum(vector.values()) for vector in bbvs.vectors) \
        == metrics["machine.instructions"]


class TestIntervalRules:
    def test_pids_close_complete_intervals_even_when_empty(self):
        profiler = IntervalPids(2)
        for pid, ok in ((5, True), (6, False), (0, True), (-1, True)):
            profiler.on_instr(0, 0x1000)
            profiler.on_capcheck(0, 0x1000, pid, 0, ok)
        assert profiler.finish() == [1, 0]
        assert profiler.finish() == [1, 0]

    def test_pids_drop_an_empty_partial_interval(self):
        profiler = IntervalPids(2)
        for _ in range(3):
            profiler.on_instr(0, 0x1000)
        assert profiler.finish() == [0]
        profiler.on_instr(0, 0x1000)
        profiler.on_capcheck(0, 0x1000, 3, 0, True)
        assert profiler.finish() == [0, 1]

    def test_pid_counted_in_the_interval_of_its_instruction(self):
        profiler = IntervalPids(1)
        profiler.on_instr(0, 0x1000)
        profiler.on_capcheck(0, 0x1000, 3, 0, True)
        profiler.on_instr(0, 0x1008)
        profiler.on_capcheck(0, 0x1008, 4, 0, True)
        profiler.on_capcheck(0, 0x1008, 5, 0, True)
        assert profiler.finish() == [1, 2]

    def test_bbvs_keyed_by_macro_index(self):
        program = assemble("main:\n    nop\n    nop\n    halt\n",
                           name="tiny")
        profiler = BasicBlockVectors(2, program)
        main = program.labels["main"]
        for pc in (main, main + INSTR_SLOT, main + INSTR_SLOT):
            profiler.on_instr(0, pc)
        first = (main - program.text_base) // INSTR_SLOT
        assert profiler.finish() == [{first: 1, first + 1: 1},
                                     {first + 1: 1}]
        assert profiler.finish() == [{first: 1, first + 1: 1},
                                     {first + 1: 1}]
