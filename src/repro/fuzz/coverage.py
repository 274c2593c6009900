"""Coverage features for the fuzzing loop.

A *feature* is a short string naming one behavior a program exhibited;
the corpus keeps any seed contributing a feature nobody else has.  Four
families:

* ``rule:<name>`` — a Table I rule fired dynamically during tracking
  (``rule:default`` is the "all other operations" fallthrough row),
  recorded by a counting :class:`RuleHitRecorder` as the *stepping*
  reference machine's rule database (replay looks none up per uop);
* ``violation:<kind>`` — a violation class the detection variant
  observed;
* ``variant:<value>`` — a CHEx86 design point the oracles executed the
  program under;
* ``metric:<name>:<bucket>`` — a registered counter reached a new
  power-of-two magnitude (``bucket`` is ``value.bit_length()``), over
  the frontend/machine/predictor/heap/cache metric families.  This is
  the cheap stand-in for branch coverage: a program that makes any
  meter move an order of magnitude is worth keeping.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Set

from ..core import RuleDatabase, Variant
from ..core.violations import ViolationKind

#: Metric families that contribute ``metric:`` features.
METRIC_PREFIXES = ("frontend.", "machine.", "predictor.", "heap.", "cache.")

#: The default-policy pseudo-rule (Table I's "all other operations").
DEFAULT_RULE = "default"


class RuleHitRecorder(RuleDatabase):
    """A Table I rule database that counts dynamic ``lookup`` hits.

    Ride a stepping machine (``block_cache_enabled=False``): replay
    resolves rules at compile time, while ``step()`` looks one up per
    tracked micro-op (the memo is consulted *inside* the override).
    """

    def __init__(self, rules=()) -> None:
        super().__init__(rules)
        self.hits: Counter = Counter()

    def lookup(self, uop):
        rule = super().lookup(uop)
        self.hits[rule.name if rule is not None else DEFAULT_RULE] += 1
        return rule

    def features(self) -> Set[str]:
        return {f"rule:{name}" for name in self.hits}


def metric_features(snapshot: Dict[str, object]) -> Set[str]:
    """Bucketed magnitude features for one ``metrics_snapshot()``."""
    features: Set[str] = set()
    for name, value in snapshot.items():
        if not isinstance(value, int) or isinstance(value, bool):
            continue
        if not name.startswith(METRIC_PREFIXES):
            continue
        bucket = value.bit_length() if value > 0 else 0
        features.add(f"metric:{name}:{bucket}")
    return features


def violation_features(kinds: Iterable[ViolationKind]) -> Set[str]:
    return {f"violation:{kind.value}" for kind in kinds}


def variant_feature(variant: Variant) -> str:
    return f"variant:{variant.value}"


def all_rule_names() -> List[str]:
    """Every Table I rule class the coverage map must reach, plus the
    default row."""
    return [rule.name for rule in RuleDatabase.table1()] + [DEFAULT_RULE]


def unreached_classes(features: Iterable[str]) -> Dict[str, List[str]]:
    """Which enumerable classes no feature covers — the completeness
    test prints this verbatim, so a hole names itself."""
    have = set(features)
    missing: Dict[str, List[str]] = {
        "variants": [variant.value for variant in Variant
                     if f"variant:{variant.value}" not in have],
        "rules": [name for name in all_rule_names()
                  if f"rule:{name}" not in have],
        "violations": [kind.value for kind in ViolationKind
                       if f"violation:{kind.value}" not in have],
    }
    return {family: names for family, names in missing.items() if names}
