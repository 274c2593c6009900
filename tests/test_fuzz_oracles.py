"""Oracle-sensitivity tests: every bug-injection kind is caught by the
oracle it targets, and the shrinker reduces the failing program.

An oracle that never fires is a green checkmark over a blind spot, so
each of the four ``BugInjection`` kinds gets the same treatment: the
uninjected run must pass, the injected run must fail *in the targeted
oracle*, and the failure must survive shrinking to a strictly smaller
reproducer.
"""

import pytest

from repro.core import Chex86Machine
from repro.eval.engine import EvalEngine
from repro.fuzz import (BugInjection, Corpus, FuzzOptions, generate,
                        oracles, profile_for_seed, run_campaign,
                        run_oracles, shrink)
from repro.fuzz.faults import ENV_VAR

#: kind -> (seed whose profile exercises it, oracle that must catch it).
#: ``skip-capcheck`` and ``drop-violation`` hide enforcement, so they
#: need a *violating* seed; the other two corrupt state/metrics and fire
#: on any program.
SENSITIVITY = {
    "skip-capcheck": (3, "differential"),
    "drop-violation": (7, "transparency"),
    "corrupt-snapshot": (0, "snapshot"),
    "skew-metric": (1, "conservation"),
}


@pytest.fixture(scope="module")
def programs():
    return {seed: generate(seed, profile_for_seed(seed))
            for seed, _ in SENSITIVITY.values()}


class TestSensitivity:
    def test_chosen_seeds_have_the_right_profiles(self):
        """The table above bakes in the seed->profile rotation; fail
        loudly here (not deep in an oracle) if it ever changes."""
        assert profile_for_seed(3) == "out-of-bounds"
        assert profile_for_seed(7) == "use-after-free"
        assert profile_for_seed(0) == "well-behaved"
        assert profile_for_seed(1) == "well-behaved"

    @pytest.mark.parametrize("kind", sorted(SENSITIVITY))
    def test_clean_run_passes(self, kind, programs):
        seed, oracle = SENSITIVITY[kind]
        report = run_oracles(programs[seed], only=(oracle,))
        assert report.ok, [str(f) for f in report.failures]

    @pytest.mark.parametrize("kind", sorted(SENSITIVITY))
    def test_injected_bug_is_caught(self, kind, programs):
        seed, oracle = SENSITIVITY[kind]
        injection = BugInjection.parse(kind)
        report = run_oracles(programs[seed], injection=injection)
        assert injection.fired > 0, f"{kind}: injection never fired"
        caught = {failure.oracle for failure in report.failures}
        assert oracle in caught, (
            f"{kind}: expected the {oracle} oracle to fail, got "
            f"{[str(f) for f in report.failures]}")

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupt_snapshot_is_caught_on_every_seed(self, seed):
        """The corruption is one no later instruction can overwrite, so
        the snapshot oracle sees it whatever the program does after the
        cut (a flipped register was caught on only half the seeds)."""
        report = run_oracles(generate(seed, profile_for_seed(seed)),
                             injection=BugInjection.parse("corrupt-snapshot"),
                             only=("snapshot",))
        assert [failure.oracle for failure in report.failures] == \
            ["snapshot"]

    @pytest.mark.parametrize("kind", sorted(SENSITIVITY))
    def test_failure_shrinks_to_a_smaller_reproducer(self, kind, programs):
        seed, oracle = SENSITIVITY[kind]
        program = programs[seed]

        def still_failing(candidate):
            # Fresh injection per check: firings are stateful counters.
            report = run_oracles(candidate,
                                 injection=BugInjection.parse(kind),
                                 only=(oracle,))
            return not report.ok

        result = shrink(program, still_failing, max_checks=48)
        assert result.shrank, f"{kind}: shrinker removed nothing"
        assert result.program.statement_count < program.statement_count
        # The minimized program still reproduces the failure.
        assert still_failing(result.program)


class TestInjectionPlumbing:
    def test_env_var_round_trip(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "skew-metric:conservation:*@2")
        injection = BugInjection.from_env()
        assert injection is not None
        assert injection.kind == "skew-metric"
        assert injection.role == "conservation:*"
        assert injection.index == 2

    def test_env_var_absent(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert BugInjection.from_env() is None

    def test_indexed_injection_fires_once(self, programs):
        seed, oracle = SENSITIVITY["skew-metric"]
        injection = BugInjection.parse("skew-metric@1")
        run_oracles(programs[seed], injection=injection, only=(oracle,))
        assert injection.fired == 1

    def test_mismatched_role_never_fires(self, programs):
        seed, oracle = SENSITIVITY["skew-metric"]
        injection = BugInjection.parse("skew-metric:no-such-role")
        report = run_oracles(programs[seed], injection=injection,
                             only=(oracle,))
        assert injection.fired == 0
        assert report.ok


class TestDifferentialFastLeg:
    """The differential oracle's fast leg compiles superblocks on first
    entry, unlike the machine default, so replay runs the generated
    program's cold code; a trapping run under the same policy unwinds
    from inside a replayed superblock."""

    @pytest.fixture
    def fast_leg(self, monkeypatch, programs):
        seed, _ = SENSITIVITY["skip-capcheck"]
        built = {}
        make = oracles._OracleContext.machine

        def machine(ctx, variant, mode, role, **kwargs):
            built[role] = made = make(ctx, variant, mode, role, **kwargs)
            return made

        monkeypatch.setattr(oracles._OracleContext, "machine", machine)
        report = run_oracles(programs[seed], only=("differential",))
        assert report.ok, [str(f) for f in report.failures]
        return programs[seed], built["diff:superblock"]

    def test_fast_leg_compiles_on_first_entry(self, fast_leg):
        _, machine = fast_leg
        assert machine.superblock_compile_entry == 1
        assert Chex86Machine.superblock_compile_entry > 1
        # No pc was stepped while waiting for a later entry.
        assert machine._sb_entries == {}
        counters = machine.metrics_snapshot()
        assert counters["frontend.superblocks_compiled"] > 0
        assert counters["frontend.superblock_instructions"] > 0

    def test_trapping_seed_unwinds_mid_superblock(self, fast_leg):
        program, leg = fast_leg
        assert program.expected_kinds
        machine = Chex86Machine(leg.program, variant=leg.variant,
                                halt_on_violation=True)
        machine.superblock_compile_entry = leg.superblock_compile_entry
        if program.uses_protect_hook:
            oracles.install_protect_hook(machine)
        machine.run(max_instructions=20_000)
        assert machine.violations.count()
        assert machine.metrics_snapshot()[
            "frontend.superblock_bailouts"] > 0


class _MachineRecorder:
    """Stands in for a ``BugInjection``: corrupts nothing and keeps each
    machine an oracle hands it, by role."""

    def __init__(self):
        self.machines = {}

    def arm(self, machine, role):
        self.machines[role] = machine

    mutate = arm


class TestEveryOracleReplaysColdCode:
    """Every oracle machine compiles on a pc's second entry, not at the
    machine default, which no generated program reaches: the snapshot
    oracle then checks lazy recompile after a restore, the conservation
    oracle replay cut into random slices, and the transparency oracle
    replay under every variant."""

    @pytest.fixture(scope="class")
    def recorded(self, programs):
        recorder = _MachineRecorder()
        report = run_oracles(programs[0], injection=recorder)
        assert report.ok, [str(f) for f in report.failures]
        return recorder.machines

    @pytest.mark.parametrize("role", [
        "snapshot:restored", "conservation:chunked",
        "transparency:insecure", "transparency:bt-isa-extension"])
    def test_machine_replays(self, recorded, role):
        machine = recorded[role]
        assert machine.superblock_compile_entry == 2
        assert machine.metrics_snapshot()[
            "frontend.superblock_instructions"] > 0


def test_conservation_slices_cut_superblocks():
    """The conservation oracle's slices are drawn from the run's length,
    so on most short generated programs a slice ends inside a superblock
    or the next one starts inside it, and the chunked machine replays
    that superblock in part."""
    cut = 0
    for seed in range(8):
        recorder = _MachineRecorder()
        report = run_oracles(generate(seed, profile_for_seed(seed)),
                             injection=recorder, only=("conservation",))
        assert report.ok, [str(f) for f in report.failures]
        chunked = recorder.machines["conservation:chunked"]
        if chunked.metrics_snapshot()["frontend.partial_replays"]:
            cut += 1
    assert cut > 4


class TestCampaignWithInjection:
    def test_bug_campaign_fails_and_writes_reproducers(self, tmp_path):
        engine = EvalEngine(jobs=1, use_cache=False,
                            cache_dir=tmp_path / "cache")
        options = FuzzOptions(seeds=1, seed_base=1,
                              corpus_dir=str(tmp_path / "corpus"),
                              bug="skew-metric")
        report = run_campaign(engine, options)
        assert not report.ok
        assert report.reproducers, "failing campaign produced no reproducer"
        repro = report.reproducers[0]
        assert repro.shrunk_statements < repro.original_statements
        assert "conservation" in repro.oracles
        # The reproducer record landed under failures/, and the tainted
        # run contributed nothing to the corpus proper.
        corpus = Corpus(tmp_path / "corpus")
        assert [str(path) for path in corpus.failures()] == [repro.path]
        assert len(corpus) == 0
        assert "oracle failures:" in report.format_text()
        assert "reproducer:" in report.format_text()
