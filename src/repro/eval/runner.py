"""One-shot reproduction runner: every artifact, saved to disk.

``python -m repro reproduce --out results/`` regenerates every table and
figure, writing for each a text rendering (``<name>.txt``) plus a combined
``summary.json`` of the headline metrics — the artifact bundle a paper
reproduction hands to reviewers.

All figure/table drivers that consume simulation cells share one
:class:`~repro.eval.engine.EvalEngine`: the full set of unique
(workload, defense, configuration) cells is enumerated up front,
simulated at most once across a process pool, and each artifact then
slices the shared records.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import fig1, fig3, fig6, fig7, fig8, fig9, security
from . import table1, table2, table3, table4
from .engine import CellSpec, EvalEngine


@dataclass
class ArtifactRecord:
    name: str
    seconds: float
    headline: Dict[str, object]


def _artifacts(scale: int, ripe_limit: Optional[int], engine: EvalEngine
               ) -> List[Tuple[str, Callable]]:
    return [
        ("fig1", lambda: fig1.run()),
        ("table3", lambda: table3.run()),
        ("fig3", lambda: fig3.run(scale=scale)),
        ("table1", lambda: table1.run(scale=scale)),
        ("table2", lambda: table2.run(scale=scale, engine=engine)),
        ("fig6", lambda: fig6.run(scale=scale, engine=engine)),
        ("fig7", lambda: fig7.run(scale=scale, engine=engine)),
        ("fig8", lambda: fig8.run(scale=scale, engine=engine)),
        ("fig9", lambda: fig9.run(scale=scale, engine=engine)),
        ("table4", lambda: table4.run(scale=scale, engine=engine)),
        ("security", lambda: security.run(ripe_limit=ripe_limit)),
    ]


def _metric_cell_specs(scale: int) -> Dict[str, List[CellSpec]]:
    """The cells backing each engine-fed artifact, keyed by artifact
    name — the layout of the ``results/metrics/`` sidecar directory."""
    return {
        "table2": table2.cell_specs(scale=scale),
        "fig6": fig6.cell_specs(scale=scale),
        "fig7": fig7.cell_specs(scale=scale),
        "fig8": fig8.cell_specs(scale=scale),
        "fig9": fig9.cell_specs(scale=scale),
        "table4": table4.cell_specs(scale=scale),
    }


def shared_cell_specs(scale: int) -> List[CellSpec]:
    """Every cell the engine-backed artifacts will ask for, deduplicated
    by the engine itself (e.g. Figure 7's default-sized sweeps resolve
    to the very cells Figure 6 plots)."""
    return [spec for specs in _metric_cell_specs(scale).values()
            for spec in specs]


def _headline(name: str, result) -> Dict[str, object]:
    """Pull each artifact's headline numbers for summary.json."""
    if name == "fig1":
        return {"avg_memory_safety_pct":
                round(result.average_memory_safety, 1)}
    if name == "fig3":
        return {"avg_in_use_per_interval": round(result.average_in_use(), 1),
                "gaps_hold": result.gaps_hold()}
    if name == "fig6":
        return {
            "spec_slowdown_pct": round(
                100 * result.mean_slowdown("ucode-prediction", "SPEC"), 1),
            "parsec_slowdown_pct": round(
                100 * result.mean_slowdown("ucode-prediction", "PARSEC"), 1),
            "speedup_over_asan_spec": round(
                result.speedup_over_asan("SPEC"), 2),
            "speedup_over_asan_parsec": round(
                result.speedup_over_asan("PARSEC"), 2),
        }
    if name == "fig7":
        return {
            "capcache64_miss_pct": round(
                100 * result.average_capcache_miss(64), 2),
            "aliascache256_miss_pct": round(
                100 * result.average_aliascache_miss(256), 2),
        }
    if name == "fig8":
        return {
            "predictor_accuracy_pct": round(
                100 * result.average_accuracy(1024), 1),
            "squash_increase_pct": round(
                100 * result.average_squash_increase(), 2),
        }
    if name == "fig9":
        return {
            "chex86_storage_le_asan": result.chex86_no_worse_than_asan(),
            "median_bandwidth_increase_pct": round(
                100 * result.median_bandwidth_increase(), 1),
        }
    if name == "table1":
        return {"converged": result.converged,
                "rules_learned": result.rules_learned}
    if name == "table2":
        return {"predictable_fraction": round(
            result.predictable_fraction(), 3)}
    if name == "table4":
        return {"measured_avg_pct": round(result.measured_average_pct, 1),
                "measured_worst_pct": round(result.measured_worst_pct, 1)}
    if name == "security":
        return {
            suite: f"{r.detected}/{r.total}"
            for suite, r in result.chex86.items()
        } | {"all_flagged": result.all_flagged()}
    return {}


def reproduce(out_dir: str = "results", scale: int = 1,
              ripe_limit: Optional[int] = None,
              echo: Callable[[str], None] = print,
              engine: Optional[EvalEngine] = None,
              profile: bool = False) -> List[ArtifactRecord]:
    """Run everything; returns per-artifact records (also saved to disk).

    Every engine-backed artifact shares ``engine`` (default: an
    :class:`EvalEngine` with its defaults, echoing through ``echo``);
    build one to choose workers, the cache and the fault-tolerance knobs
    (``docs/robustness.md``).  ``profile`` additionally writes a cProfile
    dump (``profile.prof``) and a ``"profile"`` section in
    ``summary.json`` naming the heaviest functions; the per-cell counters
    are in the ``metrics/<artifact>.json`` sidecars.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if engine is None:
        engine = EvalEngine(echo=echo)
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    specs = shared_cell_specs(scale)
    unique = len(set(specs))
    echo(f"prewarming {unique} unique simulation cells "
         f"({len(specs)} requested) with {engine.jobs} worker(s)")
    engine.run_cells(specs, artifact="reproduce")
    records: List[ArtifactRecord] = []
    for name, runner in _artifacts(scale, ripe_limit, engine):
        started = time.time()
        result = runner()
        elapsed = time.time() - started
        text = result.format_text()
        (out / f"{name}.txt").write_text(text + "\n")
        record = ArtifactRecord(name=name, seconds=round(elapsed, 1),
                                headline=_headline(name, result))
        records.append(record)
        echo(f"[{elapsed:6.1f}s] {name}: {record.headline}")
    metrics_dir = out / "metrics"
    for name, specs in _metric_cell_specs(scale).items():
        engine.write_metrics(metrics_dir / f"{name}.json", specs, name)
    echo(f"wrote per-cell metrics sidecars to {metrics_dir}/")
    summary = {
        "scale": scale,
        "artifacts": {r.name: {"seconds": r.seconds, **r.headline}
                      for r in records},
        "engine": {
            "jobs": engine.jobs,
            **engine.stats.state(),
            "wall_seconds": round(engine.stats.wall_seconds, 1),
            "simulated_mips": round(engine.stats.simulated_mips, 4),
        },
    }
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(str(out / "profile.prof"))
        summary["profile"] = {
            "cprofile": "profile.prof",
            "top_functions": _top_functions(profiler),
        }
        echo(f"profile: wrote {out / 'profile.prof'}")
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    echo(engine.stats.summary())
    echo(f"wrote {len(records)} artifacts + summary.json to {out}/")
    return records


def _top_functions(profiler, limit: int = 10) -> List[Dict[str, object]]:
    """The heaviest functions by cumulative time, JSON-shaped."""
    import pstats

    stats = pstats.Stats(profiler)
    entries = []
    for (filename, lineno, name), (_cc, ncalls, _tt, cumulative, _callers) \
            in stats.stats.items():
        entries.append({
            "function": f"{Path(filename).name}:{lineno}({name})",
            "calls": ncalls,
            "cumulative_seconds": round(cumulative, 3),
        })
    entries.sort(key=lambda e: e["cumulative_seconds"], reverse=True)
    return entries[:limit]
