"""Metric-coverage completeness: no stats counter is unreachable.

Every integer counter on the per-subsystem stats dataclasses — the
values ``Chex86Machine.stats_summary()`` and the paper figures consume —
must be bridged into the machine's :class:`MetricsRegistry` as a
pull-gauge (via ``register_object``), so that ``--metrics-out``
sidecars, quantum deltas, and ``repro metrics diff`` can see it.
``register_metrics`` derives the names from the dataclass fields, so a
stats object that is never registered fails here, not silently in a
dashboard.
"""

import dataclasses
import inspect
import re

import pytest

from repro.core import Chex86Machine, Variant
from repro.heap import heap_library_asm
from repro.isa import assemble

PROGRAM = """
main:
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov [rbx], rdi
    mov rax, [rbx]
    mov rdi, rbx
    call free
    halt
"""


@pytest.fixture(scope="module")
def machine():
    program = assemble(PROGRAM + heap_library_asm(), name="coverage")
    machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION)
    machine.run(max_instructions=100_000)
    return machine


#: Stats objects deliberately outside the registry: their counters are
#: in their owners' ``state()`` trees (and so in checkpoints) but no
#: sidecar, figure or summary reads them, and adding a metric would
#: change every cell's snapshot.
UNREGISTERED = {
    "memory.stats",          # MemoryStats: system-shared word traffic
    "captable.stats",        # CapTableStats: system-shared table ops
    "alias_table.stats",     # AliasTableStats: system-shared walks
    "predictors.stats",      # BranchStats: conditional/indirect branches
    "tlb.stats",             # TlbStats: DTLB hits/misses
    "timing.l2.stats",       # CacheStats: the shared L2
}


def _is_stats(value) -> bool:
    return (dataclasses.is_dataclass(value) and not isinstance(value, type)
            and type(value).__name__.endswith("Stats"))


def stats_objects(machine):
    """Every ``*Stats`` dataclass the machine or its timing model holds,
    directly or as a component's ``.stats``, found by walking their
    attributes (so a new stats object cannot be missed)."""
    found = {}
    for prefix, owner in (("", machine), ("timing.", machine.timing)):
        for name, value in vars(owner).items():
            for label, candidate in ((name, value),
                                     (f"{name}.stats",
                                      getattr(value, "stats", None))):
                # Once per object: ``timing.port`` is the model itself.
                if _is_stats(candidate) and not any(
                        candidate is seen for seen in found.values()):
                    found[prefix + label] = candidate
    return found


class TestStatsCoverage:
    def test_every_integer_stat_is_a_registered_gauge(self, machine):
        registry = machine.telemetry
        missing = []
        for owner, stats in stats_objects(machine).items():
            if owner in UNREGISTERED:
                continue
            registered = registry.registered_attributes(stats)
            for field in dataclasses.fields(stats):
                if field.type not in ("int", int):
                    continue
                if field.name not in registered:
                    missing.append(f"{owner}.{field.name}")
        assert not missing, (
            "stats counters not reachable through the metrics registry "
            f"(add them to register_metrics): {missing}")

    def test_walk_finds_every_registered_stats_object(self, machine):
        found = stats_objects(machine)
        assert set(UNREGISTERED) <= set(found)
        assert {"mcu.stats", "tracker.stats", "reload_predictor.stats",
                "capcache.stats", "alias_cache.stats", "timing.stats",
                "timing.l1i.stats", "timing.l1d.stats",
                "allocator.stats"} <= set(found)

    def test_machine_level_counters_registered(self, machine):
        registered = machine.telemetry.registered_attributes(machine)
        assert {"instructions", "total_uops", "native_uops",
                "_blocks_compiled", "_superblocks_compiled",
                "_superblock_instructions", "_superblock_bailouts",
                "_fallback_instructions"} <= set(registered)

    def test_registered_gauges_reflect_live_values(self, machine):
        """The bridge is by reference: the snapshot equals the raw
        attribute at read time for every registered source."""
        snap = machine.metrics_snapshot()
        for stats in stats_objects(machine).values():
            for attribute, metric in \
                    machine.telemetry.registered_attributes(stats).items():
                assert snap[metric] == getattr(stats, attribute), metric

    def test_stats_summary_reads_only_registered_names(self, machine):
        """Every ``snap['...']`` reference in the summary renderer
        resolves in the snapshot — the summary can never outrun the
        registry."""
        source = inspect.getsource(Chex86Machine.stats_summary)
        names = set(re.findall(r"snap\['([^']+)'\]", source))
        assert len(names) >= 15
        snap = machine.metrics_snapshot()
        unresolved = sorted(names - set(snap))
        assert not unresolved

    def test_registered_attributes_empty_for_strangers(self, machine):
        assert machine.telemetry.registered_attributes(object()) == {}


class TestViolationKindGauges:
    """Every ViolationKind has a per-kind gauge with CWE metadata, and
    the gauges partition the total violation count."""

    def test_every_kind_has_a_gauge(self, machine):
        from repro.core.violations import ViolationKind

        snap = machine.metrics_snapshot()
        for kind in ViolationKind:
            assert f"violations.{kind.value}" in snap

    def test_gauges_carry_cwe_metadata(self, machine):
        from repro.core.violations import ViolationKind

        for kind in ViolationKind:
            meta = machine.telemetry.metadata(f"violations.{kind.value}")
            assert meta == {"cwe": kind.cwe}

    def test_metadata_empty_for_plain_metrics(self, machine):
        assert machine.telemetry.metadata("machine.instructions") == {}

    def test_kind_gauges_partition_total(self):
        from repro.core.violations import ViolationKind

        program = assemble("""
main:
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov [rbx + 72], 1
    mov rdi, rbx
    call free
    mov rcx, [rbx]
    halt
""" + heap_library_asm(), name="kinds")
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        machine.run(max_instructions=100_000)
        snap = machine.metrics_snapshot()
        per_kind = sum(snap[f"violations.{kind.value}"]
                       for kind in ViolationKind)
        assert per_kind == len(machine.violations.violations) > 0
        assert snap["violations.out-of-bounds"] == 1
        assert snap["violations.use-after-free"] == 1
