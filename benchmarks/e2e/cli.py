"""Run ``python -m repro ARGS`` with a host-speed probe in each worker.

Usage::

    python benchmarks/e2e/cli.py OUT_DIR {timed,sampled} ARGS...

Every process that ``multiprocessing`` forks from this one (the evaluation
engine's cell workers) times the reference kernel before its cell and
again on its way out, and writes both times to
``OUT_DIR/kernel-<pid>.json``: the workers run on both CPUs for the whole
regeneration, so their kernel times describe the host over the same
interval and on the same CPUs as the figure and its cells.

With ``sampled``, this process and every worker also run a layer sampler;
each worker writes its totals to ``OUT_DIR/layers-<pid>.json`` from a
``multiprocessing.util.Finalize`` hook, which the worker runs on its way
out, and this process writes its own when the command returns.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
from pathlib import Path

from hostspeed import HostProbe
from layers import StackSampler

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


class _ForkAnchor:
    """``register_after_fork`` keys its hooks by a weakly held object."""


_ANCHOR = _ForkAnchor()


def _start_sampler(out_dir: Path):
    sampler = StackSampler(PACKAGE)
    sampler.start()

    def finish() -> None:
        sampler.stop()
        sampler.dump(out_dir / f"layers-{os.getpid()}.json")

    return finish


def _in_worker(probe: HostProbe, out_dir: Path, sampled: bool) -> None:
    probe.time()  # copies the pages the kernel touches out of the parent's
    before = probe.time()

    def after() -> None:
        (out_dir / f"kernel-{os.getpid()}.json").write_text(
            json.dumps([before, probe.time()]))

    # Finalizers of equal priority run newest first: the sampler stops
    # before the closing kernel run.
    multiprocessing.util.Finalize(None, after, exitpriority=0)
    if sampled:
        multiprocessing.util.Finalize(None, _start_sampler(out_dir),
                                      exitpriority=0)


def main(argv) -> int:
    out_dir, mode, args = Path(argv[0]), argv[1], argv[2:]
    if mode not in ("timed", "sampled"):
        raise SystemExit(f"unknown mode {mode!r}")
    sampled = mode == "sampled"
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = HostProbe()
    multiprocessing.util.register_after_fork(
        _ANCHOR, lambda _anchor: _in_worker(probe, out_dir, sampled))
    finish = _start_sampler(out_dir) if sampled else None
    try:
        from repro.__main__ import main as repro_main

        return repro_main(args)
    finally:
        if finish is not None:
            finish()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
