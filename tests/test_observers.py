"""Observing a run does not change the run.

The machine has one observer slot (:meth:`Chex86Machine.attach`) and
one protocol (:class:`repro.telemetry.tracer.Observer`).  Superblocks
compiled while an observer is attached emit its hooks where ``step()``'s
handlers call them, so:

* a stepped machine (``block_cache_enabled = False``) and a replaying
  one (``superblock_compile_entry = 1``) report identical tracer records
  and provenance exports, violation chains included;
* an armed run's full metrics snapshot, ``frontend.*`` coverage
  included, equals the unarmed run's;
* an observer attached mid-run, after superblocks have compiled, loses
  no event relative to a stepped reference attached at the same point;
* the hardware checker validates the same results in the same order,
  and an execution trace records the same instructions, whether the run
  steps or replays, on the expert seed rules and on Table I.
"""

import pytest

from repro.core import Chex86Machine, HardwareChecker, RuleDatabase, Variant
from repro.eval.table1 import PROFILE_BENCHMARKS
from repro.exploits.how2heap import generate_suite
from repro.fuzz import DEFAULT_BUDGET, generate, install_protect_hook
from repro.isa import assemble
from repro.telemetry import EventTracer, ProvenanceRecorder
from repro.telemetry.tracer import ExecutionTrace, FanOut, Observer
from repro.workloads import build

from conftest import assemble_main

BUDGET = 200_000


def _workload(name):
    workload = build(name, 1)
    return assemble(workload.source, name=workload.name), False, BUDGET


def _first_fit():
    [exploit] = [e for e in generate_suite() if e.name == "first_fit"]
    return assemble(exploit.build(), name=exploit.name), False, BUDGET


#: A user function called in a loop: its RET is replayed (heap-library
#: stubs return through interception sites, which always step).
CALL_RET_LOOP = """
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov r12, 0
loop:
    call helper
    add r12, 1
    cmp r12, 40
    jne loop
    jmp done
helper:
    mov rcx, [rbx + 8]
    add rcx, r12
    mov [rbx + 8], rcx
    ret
done:
"""


#: A load the reload predictor blacklists as a data load until the slot
#: starts holding a pointer: the stale-blacklist alias walk.
STALE_BLACKLIST = """
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, 64
    call malloc
    mov r13, rax
    mov [r13], 5
    mov r12, 0
loop:
    mov rcx, [r13]
    add r12, 1
    cmp r12, 4
    jne skip
    mov [r13], rbx
skip:
    cmp r12, 8
    jne loop
"""


def _asm(body, name):
    return lambda: (assemble_main(body, name=name), False, BUDGET)


def _fuzz(seed):
    fuzz_program = generate(seed)
    return (assemble(fuzz_program.source, name=fuzz_program.name),
            fuzz_program.profile == "permission", DEFAULT_BUDGET)


PROGRAMS = ([("mcf", lambda: _workload("mcf")),
             ("deepsjeng", lambda: _workload("deepsjeng")),
             ("how2heap-first_fit", _first_fit),
             ("call-ret-loop", _asm(CALL_RET_LOOP, "call_ret_loop")),
             ("stale-blacklist", _asm(STALE_BLACKLIST, "stale_blacklist"))]
            + [(f"fuzz{seed}", lambda seed=seed: _fuzz(seed))
               for seed in range(32)])


def machine_for(program, protect_hook, replay, rules=None):
    machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                            rules=rules, halt_on_violation=False)
    if protect_hook:
        install_protect_hook(machine)
    if replay:
        machine.superblock_compile_entry = 1
    else:
        machine.block_cache_enabled = False
    return machine


def observe(machine):
    tracer = machine.attach(EventTracer(capacity=1 << 20))
    recorder = machine.attach(ProvenanceRecorder(machine.program))
    return tracer, recorder


def assert_same_observations(machine, tracer, recorder, reference,
                             ref_tracer, ref_recorder):
    assert tracer.dropped == ref_tracer.dropped == 0
    assert tracer.records() == ref_tracer.records()
    assert recorder.export() == ref_recorder.export()
    assert [v.provenance for v in machine.violations.violations] \
        == [v.provenance for v in reference.violations.violations]


@pytest.mark.parametrize("build_program", [p for _, p in PROGRAMS],
                         ids=[name for name, _ in PROGRAMS])
def test_stepped_and_replayed_observations_agree(build_program):
    program, protect_hook, budget = build_program()
    stepped = machine_for(program, protect_hook, replay=False)
    replayed = machine_for(program, protect_hook, replay=True)
    stepped_obs = observe(stepped)
    replayed_obs = observe(replayed)
    stepped.run(max_instructions=budget)
    replayed.run(max_instructions=budget)

    assert replayed.instructions == stepped.instructions
    assert stepped.metrics_snapshot()["frontend.superblock_instructions"] \
        == 0
    if program.name == "first_fit":
        [violation] = replayed.violations.violations
        assert violation.provenance["free"] is not None
    assert_same_observations(replayed, *replayed_obs, stepped, *stepped_obs)


@pytest.mark.parametrize("name", ("mcf", "deepsjeng", "perlbench", "leela"))
@pytest.mark.parametrize("observers", ("tracer", "provenance", "both",
                                       "checker", "trace"))
def test_armed_metrics_equal_unarmed(name, observers):
    program, _, _ = _workload(name)
    plain = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                          halt_on_violation=False)
    armed = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                          halt_on_violation=False)
    if observers in ("tracer", "both"):
        armed.attach(EventTracer())
    if observers in ("provenance", "both"):
        armed.attach(ProvenanceRecorder(program))
    if observers == "checker":
        armed.attach(HardwareChecker(armed.captable))
    if observers == "trace":
        armed.attach(ExecutionTrace(BUDGET))
    plain.run(max_instructions=BUDGET)
    armed.run(max_instructions=BUDGET)

    snapshot = armed.metrics_snapshot()
    assert snapshot["frontend.superblock_instructions"] > 0
    assert snapshot["frontend.superblock_bailouts"] == 0
    assert snapshot == plain.metrics_snapshot()


@pytest.mark.parametrize("name", ("mcf", "deepsjeng"))
def test_mid_run_attach_loses_no_events(name):
    program, _, _ = _workload(name)
    replayed = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                             halt_on_violation=False)
    stepped = machine_for(program, False, replay=False)
    split = 5_000
    assert replayed.run_quantum(split) == stepped.run_quantum(split) == split
    assert any(replayed._superblocks.values()), "nothing compiled yet"
    before = replayed.metrics_snapshot()["frontend.superblock_instructions"]

    replayed_obs = observe(replayed)
    stepped_obs = observe(stepped)
    assert not replayed._superblocks, "attach kept hook-less code"
    replayed.run(max_instructions=BUDGET)
    stepped.run(max_instructions=BUDGET)

    after = replayed.metrics_snapshot()["frontend.superblock_instructions"]
    assert after > before, "the observed tail did not replay"
    assert replayed_obs[0].records()
    assert_same_observations(replayed, *replayed_obs, stepped, *stepped_obs)


class TestAttachSlot:
    def test_one_slot_fans_out_and_unwraps(self):
        machine = Chex86Machine(assemble_main("    mov rax, 1"))
        tracer, recorder = EventTracer(), ProvenanceRecorder()
        assert machine.attach(tracer) is tracer
        assert machine._observer is tracer
        machine.attach(recorder)
        assert isinstance(machine._observer, FanOut)
        assert machine.observers == (tracer, recorder)
        assert machine.provenance is recorder
        assert machine.detach(tracer) is tracer
        assert machine._observer is recorder
        machine.detach(recorder)
        assert machine._observer is None and machine.provenance is None
        assert machine.detach(recorder) is recorder  # already detached
        assert machine._observer is None

    def test_fan_out_returns_the_first_chain(self):
        class Chain(Observer):
            def __init__(self, name):
                self.name = name

            def on_violation(self, ts, pc, violation):
                return {"by": self.name, "pc": pc}

        fan = FanOut((Observer(), Chain("first"), Chain("second")))
        assert fan.on_walk(0, 0x40) is None
        assert fan.on_violation(0, 0x40, None) == {"by": "first", "pc": 0x40}


class HookLog(Observer):
    """Every ``on_result`` and ``on_instr`` call, arguments included."""

    def __init__(self):
        self.calls = []

    def on_result(self, ts, pc, uop, pid, value):
        self.calls.append((ts, pc, uop.kind, uop.dst, pid, value))

    def on_instr(self, ts, pc):
        self.calls.append((ts, pc))


#: Table 1's profiling corpus plus generated programs.
CHECKED_PROGRAMS = ([(name, lambda name=name: _workload(name))
                     for name in PROFILE_BENCHMARKS]
                    + [(f"fuzz{seed}", lambda seed=seed: _fuzz(seed))
                       for seed in range(32)])


@pytest.mark.parametrize("rules", ("seed", "table1"))
@pytest.mark.parametrize("build_program", [p for _, p in CHECKED_PROGRAMS],
                         ids=[name for name, _ in CHECKED_PROGRAMS])
def test_stepped_and_replayed_checkers_and_traces_agree(build_program,
                                                        rules):
    program, protect_hook, budget = build_program()

    def run(replay):
        machine = machine_for(program, protect_hook, replay,
                              rules=getattr(RuleDatabase, rules)())
        checker = machine.attach(HardwareChecker(machine.captable))
        trace = machine.attach(ExecutionTrace(budget))
        log = machine.attach(HookLog())
        machine.run(max_instructions=budget)
        return machine, checker, trace, log

    stepped, checker, trace, log = run(replay=False)
    replayed, replayed_checker, replayed_trace, replayed_log = run(
        replay=True)

    assert replayed.instructions == stepped.instructions
    assert len(trace.pcs) == stepped.instructions
    assert checker.stats.validations > 0
    assert replayed_checker.stats == checker.stats
    assert replayed_checker.mismatches == checker.mismatches
    assert replayed_trace.format_trace(program) \
        == trace.format_trace(program)
    assert replayed_log.calls == log.calls
    if program.name in PROFILE_BENCHMARKS:
        assert replayed.metrics_snapshot()[
            "frontend.superblock_instructions"] > 0
        if rules == "seed":
            assert checker.stats.mismatches > 0


def test_hooks_no_observer_overrides_emit_nothing():
    """Replay calls only the hooks an attached observer overrides: a
    tracer-armed superblock has no result or instruction hook, and an
    unobserved one calls no hook at all."""
    program, _, _ = _workload("mcf")
    observers = {"none": None,
                 "tracer": lambda machine: EventTracer(),
                 "trace": lambda machine: ExecutionTrace(10),
                 "checker": lambda machine: HardwareChecker(machine.captable)}
    sources = {}
    for name, make in observers.items():
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        if make is not None:
            machine.attach(make(machine))
        machine.run(max_instructions=BUDGET)
        sources[name] = "\n".join(sb.replay.source for sb in
                                  machine._superblocks.values()
                                  if sb is not None)
    assert "obs." not in sources["none"]
    assert "obs.on_result" not in sources["tracer"]
    assert "obs.on_instr" not in sources["tracer"]
    assert "obs.on_instr" in sources["trace"]
    assert "obs.on_result" not in sources["trace"]
    assert "obs.on_result" in sources["checker"]
    assert "obs.on_capcheck" not in sources["checker"]


@pytest.mark.parametrize("replay", (False, True), ids=("step", "replay"))
def test_hardware_only_lsu_checks_reach_the_observer(replay):
    """The hardware-only variant checks capabilities in the load/store
    unit, without a ``capCheck`` uop; each check with a nonzero base PID
    is one ``capcheck`` event, stepped and replayed alike."""
    program, _, _ = _workload("mcf")

    def run(replaying):
        machine = Chex86Machine(program, variant=Variant.HW_ONLY,
                                halt_on_violation=False)
        if replaying:
            machine.superblock_compile_entry = 1
        else:
            machine.block_cache_enabled = False
        checked = []
        lsu_check = machine._lsu_check

        def counted(uop, address, write, pc):
            if machine.tracker.base_pid(uop):
                checked.append(pc)
            lsu_check(uop, address, write, pc)

        machine._lsu_check = counted
        tracer = machine.attach(EventTracer(capacity=1 << 20))
        machine.run(max_instructions=BUDGET)
        return machine, tracer, checked

    machine, tracer, checked = run(replay)
    events = [event for event in tracer.records() if event.kind == "capcheck"]
    assert tracer.dropped == 0
    assert checked and [event.pc for event in events] == checked
    if replay:
        assert machine.metrics_snapshot()[
            "frontend.superblock_instructions"] > 0
        _, stepped, _ = run(False)
        assert tracer.records() == stepped.records()
