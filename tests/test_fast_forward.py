"""The timing fast-forward changes nothing a run computes.

``TimingModel.fast_forward`` schedules one period of a periodic loop and
only checks that later periods repeat it (see ``FastForward``).  Every
test here runs a program twice, with the fast-forward on and with it
off (``_FF_PERIOD`` patched to 0), and asserts the two runs are one:
the same metrics, results and ``state()`` trees, at the end and at the
points named in each test (after every replay, every quantum, a trap, a
snapshot, a rule change, an attach, an L1d flush).  Each also asserts
the fast-forward actually skipped something where it should, so an
equality that holds only because nothing was forwarded shows up.
"""

import hashlib
import random

import pytest

from repro.core import Chex86Machine, Variant, ViolationKind
from repro.eval.common import FIG6_LABELS
from repro.isa import assemble
from repro.pipeline import timing as timing_module
from repro.pipeline.multicore import MulticoreMachine
from repro.telemetry.tracer import ExecutionTrace
from repro.workloads import BENCHMARK_ORDER, build

from conftest import assemble_main

STEADY = ("mcf", "deepsjeng", "lbm", "canneal")


def _off(patch):
    patch.setattr(timing_module, "_FF_PERIOD", 0)


def _timing_digest(timing) -> str:
    """The part of ``timing.state()`` a skipped period stands in for:
    all of it but the private caches, which stay live and are compared
    at the end."""
    tree = (timing.stats.state(), timing._scoreboard(), timing._fetch_cycle,
            timing._group_used, timing._last_iline, timing._last_commit,
            timing._commit_used)
    return hashlib.sha256(repr(tree).encode()).hexdigest()


def _outcome(process):
    """Everything a process run produces, in comparable form."""
    results = [core.result() for core in process.cores]
    return (
        [(run.halted, run.instructions, run.uops, run.native_uops,
          run.injected_uops, run.cycles) for run in results],
        [core.metrics_snapshot() for core in process.cores],
        [core.state() for core in process.cores],
        process.system.state(),
    )


def _one_replay(machine) -> int:
    """Run one whole superblock replay (or one step where none is
    compiled), so the quantum ends on a superblock boundary and the
    fast-forward may stay mid-period."""
    member = machine._sb_members.get(machine.rip)
    if member is None:
        return machine.run_quantum(1)
    sb, first = member
    return machine.run_quantum(sb.length - first)


def _run_process(workload, defense, forward, *, every_replay=False):
    """Run ``workload`` under ``defense``; returns its outcome, the
    timing digests taken after every replay (one replay per quantum,
    cores in turn) if asked, and the uops the fast-forward forwarded."""
    digests = []
    with pytest.MonkeyPatch.context() as patch:
        if not forward:
            _off(patch)
        process = MulticoreMachine(workload, defense, halt_on_violation=False)
        if every_replay:
            while not all(core.halted for core in process.cores):
                for core in process.cores:
                    if not core.halted:
                        _one_replay(core)
                        digests.append(_timing_digest(core.timing))
        else:
            process.run()
    forwarded = sum(core.timing.fast_forward.forwarded_uops
                    for core in process.cores)
    return _outcome(process), digests, forwarded


class TestFigureSixGrid:
    """Every benchmark at scale 1 under every Figure 6 defense."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_on_and_off_are_one_run(self, name):
        workload = build(name, 1)
        for label, defense in FIG6_LABELS:
            on, _, _ = _run_process(workload, defense, True)
            off, _, forwarded = _run_process(workload, defense, False)
            assert forwarded == 0
            assert on == off, f"{name}/{label}"


class TestSteadyPrograms:
    """The four steady programs at scale 2, one replay per quantum:
    equal after every replay, caught up mid-period included."""

    @pytest.mark.parametrize("variant", (Variant.INSECURE,
                                         Variant.UCODE_PREDICTION),
                             ids=lambda v: v.value)
    @pytest.mark.parametrize("name", STEADY)
    def test_state_after_every_replay(self, name, variant):
        workload = build(name, 2)
        on, on_digests, forwarded = _run_process(
            workload, variant, True, every_replay=True)
        off, off_digests, _ = _run_process(
            workload, variant, False, every_replay=True)
        assert on == off
        assert len(on_digests) == len(off_digests) > 100
        first_diff = next((index for index, (left, right)
                           in enumerate(zip(on_digests, off_digests))
                           if left != right), None)
        assert first_diff is None, f"timing state differs after replay " \
                                   f"{first_diff}"
        if name in ("lbm", "deepsjeng"):
            uops = sum(stats["timing.uops"] for stats in on[1])
            assert forwarded > 0.5 * uops


# -- single-core helpers --------------------------------------------------------

def _machine(program, variant=Variant.INSECURE, **kwargs):
    kwargs.setdefault("halt_on_violation", False)
    return Chex86Machine(program, variant=variant, **kwargs)


def _lbm():
    workload = build("lbm", 1)
    return assemble(workload.source, name=workload.name)


def _skipping(machine) -> bool:
    return machine.timing.fast_forward.mode == timing_module._SKIP


def _until_skipping(machine, limit=20_000):
    """Replay until the fast-forward is skipping a period."""
    for _ in range(limit):
        _one_replay(machine)
        if _skipping(machine) and machine.timing.fast_forward.forwarded_uops:
            return
    raise AssertionError("the fast-forward never reached a period")


def _twins(program, action, variant=Variant.INSECURE, **kwargs):
    """Run ``program`` with the fast-forward on until it skips, apply
    ``action(machine)``, and run to the end; run a twin with it off
    through the same replays and the same action.  Returns both
    machines, after asserting their states were equal at the action and
    at the end."""
    on = _machine(program, variant, **kwargs)
    _until_skipping(on)
    replays = on.instructions
    with pytest.MonkeyPatch.context() as patch:
        _off(patch)
        off = _machine(program, variant, **kwargs)
        while off.instructions < replays:
            _one_replay(off)
        assert off.instructions == replays
        assert off.state() == on.state()
        action(off)
        off.run()
    action(on)
    on.run()
    assert on.halted and off.halted
    assert on.metrics_snapshot() == off.metrics_snapshot()
    assert on.state() == off.state()
    return on, off


class TestEdgeCases:
    def test_quantum_boundaries_mid_period(self):
        """Quanta of odd sizes end anywhere in a period: the model is
        caught up at each boundary, and the period carries on."""
        program = _lbm()
        rng = random.Random(5)
        budgets = [rng.randrange(37, 3_000) for _ in range(400)]
        on = _machine(program)
        with pytest.MonkeyPatch.context() as patch:
            _off(patch)
            off = _machine(program)
            off_states = []
            for budget in budgets:
                off.run_quantum(budget)
                off_states.append(off.state())
        for budget, expected in zip(budgets, off_states):
            on.run_quantum(budget)
            assert on.state() == expected
        assert on.timing.fast_forward.forwarded_uops > 0

    def test_trap_inside_a_forwarded_loop(self):
        """A heap overflow trapping in a loop the fast-forward is
        skipping unwinds with the model caught up."""
        program = assemble_main("""
    mov rdi, 8192
    call malloc
    mov rbx, rax
    mov rcx, 0
fill:
    mov [rbx + rcx*8], rcx
    add rcx, 1
    cmp rcx, 1100
    jne fill
""")
        results = []
        for forward in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not forward:
                    _off(patch)
                machine = _machine(program, Variant.UCODE_PREDICTION,
                                   halt_on_violation=True)
                result = machine.run()
            results.append((machine, result))
        (on, on_result), (off, off_result) = results
        assert on_result.violations.count(ViolationKind.OUT_OF_BOUNDS) == 1
        assert on.timing.fast_forward.forwarded_uops > 0
        assert on.timing.fast_forward.mode == timing_module._IDLE
        assert (on_result.cycles, on_result.instructions) == \
            (off_result.cycles, off_result.instructions)
        assert on.metrics_snapshot() == off.metrics_snapshot()
        assert on.state() == off.state()

    def test_snapshot_and_restore_mid_period(self):
        """A snapshot taken mid-period is the unforwarded run's, and a
        machine restored from it runs on to the same end."""
        program = _lbm()
        on = _machine(program)
        _until_skipping(on)
        blob = on.snapshot()
        restored = Chex86Machine.restore(blob)
        assert restored.state() == on.state()

        def nothing(machine):
            pass

        on, off = _twins(program, nothing)
        restored.run()
        # A restored machine compiles its code afresh: only its front-end
        # counters may differ.
        expected = off.state()
        del expected["frontend"]
        ran = restored.state()
        del ran["frontend"]
        assert ran == expected

    def test_rule_change_mid_period(self):
        """A changed rule database drops every superblock, and the
        fast-forward with them."""
        def drop_a_rule(machine):
            rules = machine.tracker.rules
            rules.remove(next(iter(rules)).name)

        on, _ = _twins(_lbm(), drop_a_rule, Variant.UCODE_PREDICTION)
        assert on.timing.fast_forward.forwarded_uops > 0

    def test_attach_mid_loop(self):
        """An observer attached mid-period stops the fast-forward for
        good: its hooks read the clock mid-replay."""
        forwarded = []

        def attach(machine):
            forwarded.append(machine.timing.fast_forward.forwarded_uops)
            machine.attach(ExecutionTrace(50))

        on, off = _twins(_lbm(), attach)
        assert on.timing.fast_forward.forwarded_uops == forwarded[1] > 0
        assert on.observers[0].pcs == off.observers[0].pcs

    def test_l1d_miss_breaks_the_period(self):
        """A flushed L1d makes the next replay miss: its log differs
        from the tape, so it is scheduled for real, from a caught-up
        model."""
        def flush(machine):
            machine.timing.l1d.flush()
            _one_replay(machine)
            assert not _skipping(machine)

        on, _ = _twins(_lbm(), flush)
        assert on.timing.fast_forward.forwarded_uops > 0

    def test_step_ends_a_period(self):
        def step(machine):
            machine.step()
            assert not _skipping(machine)

        _twins(_lbm(), step)


class TestNeverForwarded:
    def test_observed_core(self):
        machine = _machine(_lbm())
        machine.attach(ExecutionTrace(10))
        machine.run()
        assert machine.timing.fast_forward.forwarded_uops == 0

    def test_superblock_with_a_generic_handler(self):
        """A loop that calls malloc replays its ``hostop`` through the
        machine's handler, which schedules on the model itself."""
        program = assemble_main("""
    mov rcx, 0
again:
    mov rdi, 32
    call malloc
    add rcx, 1
    cmp rcx, 300
    jne again
""")
        machine = _machine(program)
        machine.run()
        assert machine.halted
        compiled = [sb for sb in machine._superblocks.values() if sb]
        assert compiled and machine.timing.fast_forward.forwarded_uops == 0
        assert any(not sb.forwardable for sb in compiled)
