"""Replay the committed regression corpus through the full oracle set.

Each record under ``tests/corpus/`` is a (seed, profile, budget) recipe
plus the source digest and coverage features observed when it was
admitted.  Replay regenerates the program (the generator is
deterministic), verifies the digest — so a silently changed grammar
fails loudly instead of replaying a different program — and re-runs all
four oracles expecting zero failures and the exact recorded coverage.

The completeness test is the coverage-map audit: the corpus as a whole
must reach every protection variant, every Table I rule class, and
every violation kind, and it names what is missing when it does not.
"""

from pathlib import Path

import pytest

from repro.fuzz import Corpus, generate, run_oracles, unreached_classes

CORPUS_DIR = Path(__file__).parent / "corpus"

CORPUS = Corpus(CORPUS_DIR)
ENTRIES = [CORPUS.entries[name] for name in sorted(CORPUS.entries)]


def test_corpus_is_committed_and_nonempty():
    assert CORPUS_DIR.is_dir(), f"missing regression corpus: {CORPUS_DIR}"
    assert len(ENTRIES) >= 10, (
        f"suspiciously small regression corpus: {len(ENTRIES)} entries")


@pytest.mark.parametrize(
    "entry", ENTRIES,
    ids=[entry.filename.removesuffix(".json") for entry in ENTRIES])
def test_replay_entry(entry):
    program = generate(entry.seed, entry.profile)
    assert program.source_digest() == entry.source_sha256, (
        f"seed {entry.seed} ({entry.profile}): generator output changed "
        f"since this corpus entry was recorded; regenerate tests/corpus "
        f"with `repro fuzz --corpus-dir tests/corpus` if intentional")
    report = run_oracles(program, budget=entry.budget)
    assert report.ok, (
        f"seed {entry.seed} ({entry.profile}) regressed:\n  "
        + "\n  ".join(str(failure) for failure in report.failures))
    assert report.coverage == set(entry.features), (
        f"seed {entry.seed} ({entry.profile}): coverage features drifted "
        f"from the recorded set")


def test_coverage_map_is_complete():
    """Every variant, Table I rule class, and violation kind is reached
    by at least one committed seed."""
    missing = unreached_classes(CORPUS.coverage())
    assert not missing, (
        "regression corpus leaves coverage classes unreached:\n"
        + "\n".join(f"  {family}: {', '.join(sorted(names))}"
                    for family, names in sorted(missing.items())))
