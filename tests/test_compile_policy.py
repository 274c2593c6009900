"""Every superblock compile policy computes the same run.

``Chex86Machine.superblock_compile_entry`` chooses on which entry to a
pc ``run_quantum`` compiles that pc's superblock, and
``block_cache_enabled = False`` steps every instruction.  Both decide
only which executor runs an instruction, so each setting must leave the
machine in the same state.  That state is ``fuzz.oracles.comparable_state``:
the whole ``state()`` tree without the ``frontend`` counters that
measure the caches.  The frontend counters must still partition the
commit count, and a pc that executes fewer times than the threshold
cannot have been entered often enough to have a superblock.
"""

import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core import Chex86Machine, Variant
from repro.core import sbcompile
from repro.eval.engine import CellSpec
from repro.fuzz import generate, install_protect_hook
from repro.fuzz.generator import DEFAULT_BUDGET
from repro.fuzz.oracles import comparable_state
from repro.isa import assemble
from repro.pipeline.multicore import MulticoreMachine
from repro.workloads import build

GOLDEN = Path(__file__).parent / "golden" / \
    "fig6_cell_lbm_ucode-prediction.json"

#: Compile thresholds under test; ``None`` is ``block_cache_enabled =
#: False``.  ``10**9`` never compiles within any budget here.
POLICIES = (1, 2, Chex86Machine.superblock_compile_entry, 10**9, None)

#: Per core index, how many times the stepped reference executed each pc.
Executions = Dict[int, Counter]


def _apply(machine: Chex86Machine, policy, executions: Counter) -> None:
    """Set ``policy`` on the machine.  A stepped machine runs every
    instruction through ``step()``, which also counts each pc it
    executes into ``executions``."""
    if policy is not None:
        machine.superblock_compile_entry = policy
        return
    machine.block_cache_enabled = False
    step = machine.step

    def counted() -> None:
        executions[machine.rip] += 1
        step()

    machine.step = counted


def _check_frontend(cores: List[Chex86Machine], policy,
                    executions: Executions) -> None:
    for index, core in enumerate(cores):
        counters = core.metrics_snapshot()
        replayed = counters["frontend.superblock_instructions"]
        stepped = counters["frontend.fallback_instructions"]
        assert replayed + stepped == core.instructions
        if policy is None:
            assert replayed == 0
            continue
        # A pc's entries are a subset of its executions on this core.
        compiled = set(core._superblocks)
        assert not {pc for pc in compiled
                    if executions[index][pc] < policy}, (index, policy)
        if policy == 1:
            assert compiled and replayed > 0
        if policy == 10**9:
            assert not compiled and replayed == 0


def _fuzz_run(seed: int, policy, executions: Executions):
    fuzz = generate(seed)
    sbcompile._CODE_CACHE.clear()
    machine = Chex86Machine(assemble(fuzz.source, name=fuzz.name),
                            variant=Variant.UCODE_PREDICTION)
    if fuzz.uses_protect_hook:
        install_protect_hook(machine)
    _apply(machine, policy, executions[0])
    machine.run(max_instructions=DEFAULT_BUDGET)
    return [machine]


def _lbm_run(policy, executions: Executions):
    spec = CellSpec.from_payload(json.loads(GOLDEN.read_text())["spec"])
    workload = build(spec.workload, spec.scale)
    machine = Chex86Machine(assemble(workload.source, name=workload.name),
                            variant=Variant(spec.defense),
                            halt_on_violation=False)
    _apply(machine, policy, executions[0])
    machine.run(max_instructions=spec.max_instructions)
    return [machine]


def _canneal_run(policy, executions: Executions):
    runner = MulticoreMachine(build("canneal", 1),
                              variant=Variant.UCODE_PREDICTION,
                              halt_on_violation=False)
    assert len(runner.cores) == 4
    for index, core in enumerate(runner.cores):
        _apply(core, policy, executions[index])
    runner.run()
    return runner.cores


def _check_policies(run) -> None:
    """Run every policy, the stepped reference first so its execution
    counts are known before the compiled runs are checked."""
    executions: Executions = defaultdict(Counter)
    reference = run(None, executions)
    expected = [comparable_state(core) for core in reference]
    _check_frontend(reference, None, executions)
    for policy in POLICIES[:-1]:
        cores = run(policy, executions)
        assert [comparable_state(core) for core in cores] == expected, \
            f"superblock_compile_entry = {policy} changed the run"
        _check_frontend(cores, policy, executions)


@pytest.mark.parametrize("seed", range(16))
def test_fuzz_programs(seed):
    _check_policies(lambda policy, executions:
                    _fuzz_run(seed, policy, executions))


def test_golden_lbm_cell():
    _check_policies(_lbm_run)


def test_four_core_canneal():
    _check_policies(_canneal_run)
