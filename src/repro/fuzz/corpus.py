"""Persistent on-disk corpus: the seeds worth keeping.

A corpus directory holds one small JSON record per interesting seed
(one that contributed at least one coverage feature no earlier entry
had), plus a ``failures/`` subdirectory of shrunk reproducers.  Records
store the *recipe* — ``(seed, profile, budget)`` — not the program
text: the generator is deterministic, so replay regenerates the source
and verifies it against the recorded digest (a changed generator fails
loudly instead of silently replaying a different program).

The committed regression corpus under ``tests/corpus/`` is exactly one
of these directories; ``tests/test_corpus_replay.py`` replays it
through the full oracle set on every tier-1 run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple, Union

CORPUS_SCHEMA = 1

FAILURE_DIR = "failures"


class CorpusError(ValueError):
    """A malformed or schema-incompatible corpus record."""


@dataclass(frozen=True)
class CorpusEntry:
    """One kept seed and the coverage features that earned its place."""

    seed: int
    profile: str
    budget: int
    source_sha256: str
    features: Tuple[str, ...]

    @property
    def filename(self) -> str:
        return f"seed{self.seed:05d}-{self.profile}.json"

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CORPUS_SCHEMA,
            "seed": self.seed,
            "profile": self.profile,
            "budget": self.budget,
            "source_sha256": self.source_sha256,
            "features": sorted(self.features),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "CorpusEntry":
        schema = record.get("schema")
        if schema != CORPUS_SCHEMA:
            raise CorpusError(f"corpus schema {schema!r} != {CORPUS_SCHEMA}")
        return cls(seed=int(record["seed"]), profile=str(record["profile"]),
                   budget=int(record["budget"]),
                   source_sha256=str(record["source_sha256"]),
                   features=tuple(record["features"]))


class Corpus:
    """A directory of corpus entries with a cached coverage union."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.entries: Dict[str, CorpusEntry] = {}
        self._coverage: Set[str] = set()
        self._load()

    def _load(self) -> None:
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except ValueError as error:
                raise CorpusError(f"{path}: not valid JSON: {error}") \
                    from error
            entry = CorpusEntry.from_dict(record)
            self.entries[entry.filename] = entry
            self._coverage |= set(entry.features)

    def __len__(self) -> int:
        return len(self.entries)

    def coverage(self) -> Set[str]:
        return set(self._coverage)

    def consider(self, entry: CorpusEntry) -> Set[str]:
        """Keep ``entry`` if it contributes new coverage.

        Returns the set of features it newly contributed (empty when the
        entry was not kept).  Already-present recipes are never
        re-written, so replaying a corpus range is idempotent.
        """
        if entry.filename in self.entries:
            return set()
        new = set(entry.features) - self._coverage
        if not new:
            return set()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / entry.filename
        path.write_text(json.dumps(entry.to_dict(), indent=1,
                                   sort_keys=True) + "\n")
        self.entries[entry.filename] = entry
        self._coverage |= new
        return new

    # -- failure artifacts ----------------------------------------------------------

    def failure_dir(self) -> Path:
        return self.directory / FAILURE_DIR

    def record_failure(self, name: str,
                       payload: Dict[str, object]) -> Path:
        """Write one shrunk-reproducer record under ``failures/``."""
        directory = self.failure_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path

    def failures(self) -> List[Path]:
        directory = self.failure_dir()
        if not directory.is_dir():
            return []
        return sorted(directory.glob("*.json"))
