"""Minimizing shrinker for oracle failures.

Delta-debugging over body *statements*: the generator guarantees every
statement is independently removable (self-contained labels, floor-size
allocations), so any subset of the body is a valid program with the
same profile payload.  The shrinker greedily deletes chunks, halving
the chunk size ddmin-style, re-checking the caller's predicate after
every deletion — typically collapsing a 30-statement failing program to
the handful of statements (often zero) the failure actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .generator import FuzzProgram

#: Predicate cap: each check re-runs the failing oracle, so the budget
#: bounds shrink time at roughly ``max_checks`` oracle runs.
DEFAULT_MAX_CHECKS = 96


@dataclass(frozen=True)
class ShrinkResult:
    program: FuzzProgram
    checks: int
    removed: int


def shrink(program: FuzzProgram,
           predicate: Callable[[FuzzProgram], bool], *,
           max_checks: int = DEFAULT_MAX_CHECKS) -> ShrinkResult:
    """Smallest body subset (greedy ddmin) still satisfying
    ``predicate``.

    ``predicate(candidate)`` must return True when the candidate still
    *fails* the oracle in question.  ``program`` itself is assumed
    failing; if the predicate rejects it outright (a flaky failure),
    the original is returned untouched.
    """
    checks = 0
    if not predicate(program):
        return ShrinkResult(program=program, checks=1, removed=0)
    best = program
    chunk = max(1, len(best.body) // 2)
    while chunk >= 1 and checks < max_checks:
        index = 0
        removed_this_pass = False
        while index < len(best.body) and checks < max_checks:
            candidate = best.with_body(
                best.body[:index] + best.body[index + chunk:])
            checks += 1
            if predicate(candidate):
                best = candidate
                removed_this_pass = True
            else:
                index += chunk
        if chunk == 1 and not removed_this_pass:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else 1
        if chunk == 1 and not best.body:
            break
    return ShrinkResult(program=best, checks=checks,
                        removed=len(program.body) - len(best.body))
