"""Every piece of run state is declared in some component's ``state()``.

A run mutates a machine.  A fresh machine that loads the run's
``state()`` tree must then match it attribute by attribute, everywhere
reachable from the machine: registers, components, stats, the shared
system, observers.  An attribute that a run mutates but that no
``state()`` covers keeps its initial value on the loaded machine and
shows up here as a differing path; so does a ``load`` that restores a
field wrongly.  The only attributes exempt are the declared caches in
:data:`CACHES`: compiled front-end products and memo tables, which a
machine rebuilds on demand and which never change what it computes.
The attributes in :data:`OBSERVED` are compared through what a later
observation can read of them: of the timing scoreboard, its canonical
form above the dispatch floor.
"""

import enum
import functools
import random
import types
from collections import OrderedDict, deque

import pytest

from repro.core import Chex86Machine, Variant
from repro.core.rules import RuleDatabase
from repro.fuzz import PROFILES, generate, install_protect_hook
from repro.isa import assemble
from repro.microop.decoder import Decoder
from repro.pipeline.branch import LTagePredictor
from repro.pipeline.timing import TimingModel
from repro.telemetry.provenance import ProvenanceRecorder
from repro.translator import translate
from repro.workloads import build

#: Declared caches, by owning class: never part of a state tree.
CACHES = {
    Chex86Machine: {"_blocks", "_superblocks", "_sb_members", "_sb_entries",
                    "_superblock_rules"},
    Decoder: {"_cache"},
    RuleDatabase: {"_memo"},
    LTagePredictor: {"_folded_idx", "_folded_tag"},
    ProvenanceRecorder: {"_symbols"},
    # The fast-forward's tape and the port replay calls through it.
    TimingModel: {"port", "fast_forward"},
}

#: Attributes compared through an observation, by owning class: cycles
#: of the scoreboard at or below its dispatch floor can never be read
#: again, so only its canonical form is state.
OBSERVED = {
    TimingModel: ({"_issue", "_pools", "_reg_ready", "_rob", "_lq", "_sq",
                   "_queues"}, TimingModel._scoreboard),
}

_ATOMS = (int, float, str, bytes, bool, type(None), enum.Enum)
_CODE = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
         types.BuiltinMethodType, functools.partial, type, types.ModuleType)


def _attributes(obj):
    names = list(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        names += [name for name in ((slots,) if isinstance(slots, str)
                                    else slots) if name not in names]
    skipped = set()
    for cls, caches in CACHES.items():
        if isinstance(obj, cls):
            skipped |= caches
    for cls, (observed, _) in OBSERVED.items():
        if isinstance(obj, cls):
            skipped |= observed
    return [name for name in names
            if name not in skipped and not name.startswith("__")]


def differences(ran, loaded, path="machine", seen=None, out=None):
    """Paths at which two object graphs differ (callables are skipped:
    they are wiring, rebuilt by construction)."""
    seen = set() if seen is None else seen
    out = [] if out is None else out
    if ran is loaded or isinstance(ran, _CODE):
        return out
    if isinstance(ran, _ATOMS) or type(ran) is not type(loaded):
        if ran != loaded:
            out.append(f"{path}: {ran!r:.60} != {loaded!r:.60}")
        return out
    if (id(ran), id(loaded)) in seen:
        return out
    seen.add((id(ran), id(loaded)))
    if isinstance(ran, (list, tuple, deque)):
        if len(ran) != len(loaded):
            out.append(f"{path}: length {len(ran)} != {len(loaded)}")
        for index, (left, right) in enumerate(zip(ran, loaded)):
            differences(left, right, f"{path}[{index}]", seen, out)
    elif isinstance(ran, dict):
        keys = list(ran)
        if (keys if isinstance(ran, OrderedDict) else set(keys)) != \
                (list(loaded) if isinstance(ran, OrderedDict)
                 else set(loaded)):
            out.append(f"{path}: keys differ")
        for key in keys:
            if key in loaded:
                differences(ran[key], loaded[key], f"{path}[{key!r}]",
                            seen, out)
    elif isinstance(ran, (set, frozenset)):
        if ran != loaded:
            out.append(f"{path}: set differs")
    elif hasattr(ran, "__dict__") or hasattr(type(ran), "__slots__"):
        for cls, (_, observe) in OBSERVED.items():
            if isinstance(ran, cls) and observe(ran) != observe(loaded):
                out.append(f"{path}.{observe.__name__}() differs")
        for name in _attributes(ran):
            differences(getattr(ran, name, None), getattr(loaded, name, None),
                        f"{path}.{name}", seen, out)
    elif ran != loaded:
        out.append(f"{path}: {ran!r:.60} != {loaded!r:.60}")
    return out


def _machine(program, variant, fast, *, protect=False, provenance=False,
             **kwargs):
    machine = Chex86Machine(program, variant=variant, **kwargs)
    machine.block_cache_enabled = fast
    if protect:
        install_protect_hook(machine)
    if provenance:
        machine.attach(ProvenanceRecorder(program))
    return machine


def assert_state_covers(program, variant, fast, steps, **options):
    """Run, load the run's state into a fresh machine, walk both."""
    ran = _machine(program, variant, fast, **options)
    for budget in steps:
        ran.run_quantum(budget)
    loaded = _machine(program, variant, fast, **options)
    loaded.load(ran.state())
    found = differences(ran, loaded)
    assert not found, (
        f"{program.name} ({variant.value}, fast={fast}): run state not "
        "covered by any state() (declare it, or list a cache in CACHES):\n"
        + "\n".join(found[:20]))


_VARIANTS = (Variant.INSECURE, Variant.HW_ONLY, Variant.BINARY_TRANSLATION,
             Variant.UCODE_ALWAYS_ON, Variant.UCODE_PREDICTION)


class TestEveryMutationIsDeclared:
    @pytest.mark.parametrize("seed", range(len(PROFILES) * 2))
    def test_fuzz_programs_every_variant(self, seed):
        fuzz = generate(seed, PROFILES[seed % len(PROFILES)])
        program = assemble(fuzz.source, name=fuzz.name)
        variant = _VARIANTS[seed % len(_VARIANTS)]
        # Generated programs retire 40-160 instructions: some of these
        # walks end mid-run, the rest after the halt.
        rng = random.Random(seed)
        steps = [rng.randrange(1, 60) for _ in range(4)]
        for fast in (False, True):
            assert_state_covers(program, variant, fast, steps,
                                halt_on_violation=bool(seed % 2),
                                protect=fuzz.uses_protect_hook,
                                provenance=seed % 3 == 0)

    @pytest.mark.parametrize("variant", _VARIANTS, ids=lambda v: v.value)
    def test_workload_mid_run(self, variant):
        workload = build("mcf", 1)
        program = assemble(workload.source, name=workload.name)
        assert_state_covers(program, variant, True, (1_500, 2_500),
                            halt_on_violation=False)

    def test_binary_translated_program(self):
        fuzz = generate(0, PROFILES[0])
        translated, _ = translate(assemble(fuzz.source, name=fuzz.name))
        assert_state_covers(translated, Variant.BT_ISA_EXTENSION, True,
                            (300, 3_000), halt_on_violation=False)


class TestTheWalkSeesUndeclaredState:
    """The walk is not blind: state a run leaves outside every tree is
    reported at its path."""

    def test_undeclared_attribute_is_reported(self):
        program = assemble(generate(1, PROFILES[0]).source, name="fuzz1")
        ran = Chex86Machine(program)
        ran.run_quantum(200)
        ran.timing.undeclared = 1
        loaded = Chex86Machine(program)
        loaded.load(ran.state())
        loaded.timing.undeclared = 0
        assert differences(ran, loaded) == \
            ["machine.timing.undeclared: 1 != 0"]

    def test_issue_ring_is_compared_through_its_live_window(self):
        """And so is the rest of the scoreboard: a ROB entry below the
        floor reads as the floor."""
        program = assemble(generate(1, PROFILES[0]).source, name="fuzz1")
        ran = Chex86Machine(program)
        ran.run_quantum(200)
        loaded = Chex86Machine(program)
        loaded.load(ran.state())
        stale = ran.timing._fetch_cycle  # below the window: unobservable
        loaded.timing._issue[stale] = 1
        loaded.timing._rob[0] = min(loaded.timing._rob[0], stale)
        assert differences(ran, loaded) == []
        [cycle, _] = ran.timing._issue_window()[0]
        loaded.timing._issue[cycle] += 1
        assert differences(ran, loaded) == \
            ["machine.timing._scoreboard() differs"]

    def test_declared_cache_is_exempt(self):
        program = assemble(generate(1, PROFILES[0]).source, name="fuzz1")
        ran = Chex86Machine(program)
        ran.run_quantum(200)
        assert ran._superblocks or ran._sb_entries
        loaded = Chex86Machine(program)
        loaded.load(ran.state())
        assert differences(ran, loaded) == []
