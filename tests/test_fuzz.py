"""Unit tests for the ``repro.fuzz`` subsystem: generator grammar,
corpus persistence, shrinker, bug-spec parsing, and the ``kind="fuzz"``
engine cell (including cache-key compatibility for pre-existing kinds).
"""

import json

import pytest

from repro.eval.engine import (CellSpec, EvalEngine, compute_cell,
                               decode_result, encode_result)
from repro.fuzz import (BugInjection, BugSpecError, Corpus, CorpusEntry,
                        FuzzCellResult, FuzzOptions, PROFILES,
                        VIOLATION_PROFILES, WELL_BEHAVED, generate,
                        profile_for_seed, run_campaign, shrink)
from repro.isa import assemble


class TestGenerator:
    def test_deterministic(self):
        assert generate(5).source == generate(5).source
        assert generate(5, "out-of-bounds").source \
            == generate(5, "out-of-bounds").source

    def test_profiles_differ(self):
        assert generate(5, WELL_BEHAVED).source \
            != generate(5, "out-of-bounds").source

    def test_seeds_differ(self):
        assert generate(5).source != generate(6).source

    def test_profile_rotation_covers_everything(self):
        seen = {profile_for_seed(seed) for seed in range(28)}
        assert seen == set(PROFILES)

    def test_well_behaved_expects_nothing(self):
        program = generate(7, WELL_BEHAVED)
        assert program.expected_kinds == ()
        assert not program.uses_protect_hook

    @pytest.mark.parametrize("profile", VIOLATION_PROFILES)
    def test_violation_profiles_expect_their_class(self, profile):
        program = generate(7, profile)
        assert program.expected_kinds == (profile,)
        assert program.uses_protect_hook == (profile == "permission")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_profile_assembles(self, profile):
        program = generate(11, profile)
        assemble(program.source, name=program.name)

    def test_statements_are_independently_removable(self):
        """The shrinker's soundness contract: any single-statement
        deletion still assembles (self-contained labels)."""
        program = generate(3)
        assert program.statement_count >= 2
        for index in range(program.statement_count):
            candidate = program.with_body(program.body[:index]
                                          + program.body[index + 1:])
            assemble(candidate.source, name=candidate.name)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate(0, "nonsense")


class TestShrinker:
    def test_shrinks_to_empty_when_body_is_irrelevant(self):
        program = generate(2)
        result = shrink(program, lambda candidate: True)
        assert result.program.statement_count == 0
        assert result.removed == program.statement_count

    def test_keeps_needed_statements(self):
        program = generate(2)
        keep = program.body[0]

        result = shrink(program, lambda candidate: keep in candidate.body,
                        max_checks=500)
        assert result.program.body == (keep,)

    def test_non_failing_program_untouched(self):
        program = generate(2)
        result = shrink(program, lambda candidate: False)
        assert result.program is program
        assert result.removed == 0

    def test_check_budget_respected(self):
        program = generate(2)
        calls = []

        def predicate(candidate):
            calls.append(1)
            return candidate.statement_count == program.statement_count

        shrink(program, predicate, max_checks=5)
        assert len(calls) <= 6  # initial confirmation + 5 budgeted


class TestBugSpec:
    def test_defaults(self):
        injection = BugInjection.parse("skip-capcheck")
        assert injection.kind == "skip-capcheck"
        assert injection.role == "diff:superblock"
        assert injection.index == 0

    def test_role_and_index(self):
        injection = BugInjection.parse("drop-violation:diff:*@3")
        assert injection.role == "diff:*"
        assert injection.index == 3
        assert injection.matches("diff:slow")
        assert not injection.matches("snapshot:restored")
        assert BugInjection.parse(injection.spec()) == injection

    def test_unknown_kind_rejected(self):
        with pytest.raises(BugSpecError):
            BugInjection.parse("segfault")

    def test_bad_index_rejected(self):
        with pytest.raises(BugSpecError):
            BugInjection.parse("skip-capcheck@two")


class TestCorpus:
    def _entry(self, seed, features, profile=WELL_BEHAVED):
        return CorpusEntry(seed=seed, profile=profile, budget=1000,
                           source_sha256="0" * 64,
                           features=tuple(features))

    def test_admission_needs_new_coverage(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        assert corpus.consider(self._entry(0, ["rule:ld"])) == {"rule:ld"}
        assert corpus.consider(self._entry(1, ["rule:ld"])) == set()
        assert corpus.consider(self._entry(2, ["rule:ld", "rule:st"])) \
            == {"rule:st"}
        assert len(corpus) == 2

    def test_persistence_round_trip(self, tmp_path):
        directory = tmp_path / "corpus"
        corpus = Corpus(directory)
        corpus.consider(self._entry(4, ["violation:permission"]))
        reloaded = Corpus(directory)
        assert len(reloaded) == 1
        assert reloaded.coverage() == {"violation:permission"}
        [entry] = reloaded.entries.values()
        assert entry.seed == 4
        # Idempotent: the same recipe is never re-admitted.
        assert reloaded.consider(self._entry(4, ["violation:permission",
                                                 "rule:ld"])) == set()

    def test_failure_artifacts(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        path = corpus.record_failure("seed00001-well-behaved",
                                     {"seed": 1, "detail": "boom"})
        assert path.exists()
        assert corpus.failures() == [path]
        assert json.loads(path.read_text())["seed"] == 1

    def test_schema_mismatch_fails_loudly(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "seed00000-well-behaved.json").write_text(
            json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            Corpus(directory)


class TestFuzzCells:
    def test_fuzz_spec_needs_a_seed(self):
        with pytest.raises(ValueError):
            CellSpec(workload="fuzz0", defense=WELL_BEHAVED, kind="fuzz")

    def test_payload_round_trip(self):
        spec = CellSpec(workload="fuzz7", defense="use-after-free",
                        kind="fuzz", fuzz_seed=7,
                        fuzz_profile="use-after-free",
                        fuzz_bug="skip-capcheck", max_instructions=5000)
        assert CellSpec.from_payload(spec.payload()) == spec

    def test_benchmark_payload_has_no_fuzz_keys(self):
        """Cache-key compatibility: pre-existing cell kinds hash exactly
        the payload they always did."""
        payload = CellSpec(workload="mcf", defense="insecure").payload()
        assert "fuzz_seed" not in payload
        assert "fuzz_profile" not in payload
        assert "fuzz_bug" not in payload

    def test_bug_spec_changes_the_cache_key(self):
        clean = CellSpec(workload="fuzz7", defense=WELL_BEHAVED,
                         kind="fuzz", fuzz_seed=7)
        bugged = CellSpec(workload="fuzz7", defense=WELL_BEHAVED,
                          kind="fuzz", fuzz_seed=7,
                          fuzz_bug="skip-capcheck")
        assert clean.cache_key() != bugged.cache_key()

    def test_compute_and_encode_round_trip(self):
        spec = CellSpec(workload="fuzz0", defense=WELL_BEHAVED,
                        kind="fuzz", fuzz_seed=0,
                        fuzz_profile=WELL_BEHAVED,
                        max_instructions=20_000)
        result = compute_cell(spec)
        assert isinstance(result, FuzzCellResult)
        assert result.ok, result.failures
        assert result.instructions > 0
        assert result.features
        decoded = decode_result(spec, json.loads(
            json.dumps(encode_result(spec, result))))
        assert decoded == result


class TestCampaign:
    def test_end_to_end_through_the_engine(self, tmp_path):
        engine = EvalEngine(jobs=1, use_cache=False,
                            cache_dir=tmp_path / "cache")
        options = FuzzOptions(seeds=3, budget=20_000,
                              corpus_dir=str(tmp_path / "corpus"))
        report = run_campaign(engine, options)
        assert report.ok
        assert len(report.results) == 3
        assert report.new_entries > 0
        assert report.new_features > 0
        assert report.corpus_size == report.new_entries
        text = report.format_text()
        assert "oracle failures: none" in text
        assert "corpus:" in text
        # A second identical campaign adds nothing (idempotent corpus).
        again = run_campaign(engine, options)
        assert again.new_entries == 0
