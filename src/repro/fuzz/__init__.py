"""Coverage-guided differential fuzzing for the CHEx86 simulator.

The simulator's headline property is *exactness*: every performance
transform (decoded blocks, superblock chains, snapshot/restore,
chunked execution) and every protection variant must be architecturally
invisible except for the violations it flags.  This package turns that
claim into a closed loop:

* :mod:`~repro.fuzz.generator` — deterministic grammar-based mini-x86
  programs covering every Table I rule class and violation profile;
* :mod:`~repro.fuzz.oracles` — the pluggable correctness oracles
  (2-mode differential, variant transparency, snapshot round-trip,
  metric conservation);
* :mod:`~repro.fuzz.coverage` — rule/violation/variant/metric-bucket
  coverage features;
* :mod:`~repro.fuzz.corpus` — the persistent on-disk corpus plus
  shrunk-failure artifacts;
* :mod:`~repro.fuzz.shrink` — ddmin-style statement minimization;
* :mod:`~repro.fuzz.faults` — deliberate bug injection proving each
  oracle can actually fail;
* :mod:`~repro.fuzz.cell` / :mod:`~repro.fuzz.campaign` — ``kind="fuzz"``
  evaluation-engine cells and the ``repro fuzz`` campaign driver.

See ``docs/fuzzing.md`` for the workflow.
"""

from .campaign import (DEFAULT_CORPUS_DIR, FuzzOptions, FuzzReport,
                       Reproducer, run_campaign, shrink_failure)
from .cell import FuzzCellResult, compute_fuzz_cell
from .corpus import CORPUS_SCHEMA, Corpus, CorpusEntry, CorpusError
from .coverage import (DEFAULT_RULE, RuleHitRecorder, all_rule_names,
                       metric_features, unreached_classes)
from .faults import BugInjection, BugSpecError, DEFAULT_ROLES, KINDS
from .generator import (DATA_REGS, DEFAULT_BUDGET, FuzzProgram, PROFILES,
                        PROTECT_HOOK, PTR_REGS, VIOLATION_PROFILES,
                        WELL_BEHAVED, generate, profile_for_seed)
from .oracles import (DETECTION_VARIANT, MODES, MODE_IDS, ORACLE_NAMES,
                      ORACLES, OracleFailure, OracleReport,
                      PROTECTED_VARIANTS, architectural_state,
                      install_protect_hook, run_oracles, strip_frontend)
from .shrink import DEFAULT_MAX_CHECKS, ShrinkResult, shrink

__all__ = [
    "BugInjection", "BugSpecError", "CORPUS_SCHEMA", "Corpus",
    "CorpusEntry", "CorpusError", "DATA_REGS", "DEFAULT_BUDGET",
    "DEFAULT_CORPUS_DIR", "DEFAULT_MAX_CHECKS", "DEFAULT_ROLES",
    "DEFAULT_RULE", "DETECTION_VARIANT", "FuzzCellResult", "FuzzOptions",
    "FuzzProgram", "FuzzReport", "KINDS", "MODES", "MODE_IDS",
    "ORACLES", "ORACLE_NAMES", "OracleFailure", "OracleReport",
    "PROFILES", "PROTECTED_VARIANTS", "PROTECT_HOOK", "PTR_REGS",
    "Reproducer", "RuleHitRecorder", "ShrinkResult",
    "VIOLATION_PROFILES", "WELL_BEHAVED", "all_rule_names",
    "architectural_state", "compute_fuzz_cell", "generate",
    "install_protect_hook", "metric_features", "profile_for_seed",
    "run_campaign", "run_oracles", "shrink",
    "shrink_failure", "strip_frontend", "unreached_classes",
]
