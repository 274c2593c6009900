"""Module -> layer table and the stack sampler that charges host time to it.

Every file under ``src/repro`` belongs to exactly one layer: a file named
in :data:`LAYER_OF` takes that layer, any other file takes the layer of
its package directory.  Generated superblock replay functions have no
file (their code objects are named ``<superblock 0x...>``) and form the
``replay`` layer.  A sample whose stack holds no repo frame at all is
charged to ``host``.

:class:`StackSampler` is a daemon thread that wakes about once per
millisecond, reads the target thread's stack with ``sys._current_frames()``
and charges the target thread's CPU time since the previous sample to the
layer of the innermost repo frame.  Weighting by CPU time rather than
counting samples keeps a thread that is blocked (the engine parent waiting
on its workers) from being charged for wall time it did not use, and
charges a long C call, during which no sample can be taken, in full.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional

#: Layers in report order.
LAYERS = (
    "replay", "frontend", "compile", "timing", "tracker", "capability",
    "predictor", "memory", "heap", "workload", "telemetry", "engine", "host",
)

#: Paths relative to ``src/repro``: a file entry overrides its directory's.
LAYER_OF = {
    "__init__.py": "engine",
    "__main__.py": "engine",
    "debugger.py": "engine",
    "analysis": "engine",
    "eval": "engine",
    "core/__init__.py": "frontend",
    "core/machine.py": "frontend",
    "core/fastpath.py": "frontend",
    "core/sbcompile.py": "compile",
    "core/tracker.py": "tracker",
    "core/alias.py": "tracker",
    "core/rules.py": "tracker",
    "core/checker.py": "tracker",
    "core/capability.py": "capability",
    "core/mcu.py": "capability",
    "core/violations.py": "capability",
    "core/variants.py": "capability",
    "core/predictor.py": "predictor",
    "core/snapshot.py": "engine",
    "microop": "frontend",
    "kernel": "frontend",
    "pipeline/__init__.py": "timing",
    "pipeline/timing.py": "timing",
    "pipeline/branch.py": "timing",
    "pipeline/config.py": "timing",
    "pipeline/multicore.py": "frontend",
    "pipeline/system.py": "memory",
    "memory": "memory",
    "heap": "heap",
    "sanitizer/__init__.py": "heap",
    "sanitizer/runtime.py": "heap",
    "sanitizer/shadow.py": "heap",
    "sanitizer/instrument.py": "workload",
    "workloads": "workload",
    "isa": "workload",
    "translator": "workload",
    "fuzz": "workload",
    "exploits": "workload",
    "telemetry": "telemetry",
}

SUPERBLOCK_PREFIX = "<superblock"

#: Seconds between two samples.
SAMPLE_INTERVAL_S = 0.001


def layer_of(relative: str) -> Optional[str]:
    """Layer of a file given by its path relative to ``src/repro``
    (``None`` when neither the file nor its directory is in the table)."""
    if relative in LAYER_OF:
        return LAYER_OF[relative]
    directory = relative.rpartition("/")[0]
    return LAYER_OF.get(directory) if directory else None


class Classifier:
    """Maps code-object file names to layers, memoised per file name."""

    def __init__(self, package_dir: Path) -> None:
        self._prefix = str(package_dir.resolve()) + "/"
        self._memo: Dict[str, Optional[str]] = {}

    def file_layer(self, filename: str) -> Optional[str]:
        try:
            return self._memo[filename]
        except KeyError:
            pass
        if filename.startswith(SUPERBLOCK_PREFIX):
            layer = "replay"
        elif filename.startswith(self._prefix):
            layer = layer_of(filename[len(self._prefix):])
        else:
            layer = None
        self._memo[filename] = layer
        return layer

    def stack_layer(self, frame) -> str:
        """Layer of the innermost repo frame on ``frame``'s stack."""
        while frame is not None:
            layer = self.file_layer(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "host"


class StackSampler:
    """Charges the constructing thread's CPU time to layers by periodic
    stack samples.

    Each sample charges the CPU time the thread used since the previous
    sample to the layer of the thread's innermost repo frame, so a long
    call into C (``compile()``, say) is charged in full to the layer that
    made it.  ``pause()`` and ``resume()``, called from the sampled
    thread, leave out the work between them; the time since the last
    sample before a pause goes to that sample's layer.
    """

    def __init__(self, package_dir: Path) -> None:
        self.classifier = Classifier(package_dir)
        self.thread_id = threading.get_ident()
        self.cpu_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.samples = 0
        self._clock = time.pthread_getcpuclockid(self.thread_id)
        self._lock = threading.Lock()
        self._last = 0.0
        self._layer = "host"
        self._paused = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        # A sample needs the interpreter lock, which a busy thread hands
        # over once per switch interval (5 ms by default): shorten that to
        # the sampling interval while the sampler runs.
        self._switch_s = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_INTERVAL_S)
        self._last = time.clock_gettime(self._clock)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="layer-sampler")
        self._thread.start()

    def stop(self) -> None:
        self.pause()
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_s)

    def pause(self) -> None:
        with self._lock:
            if not self._paused:
                self._charge(self._layer)
                self._paused = True

    def resume(self) -> None:
        with self._lock:
            self._last = time.clock_gettime(self._clock)
            self._paused = False

    def _charge(self, layer: str) -> None:
        now = time.clock_gettime(self._clock)
        self.cpu_s[layer] += now - self._last
        self._last = now
        self._layer = layer

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            if self._paused:
                continue  # re-checked under the lock below
            frame = sys._current_frames().get(self.thread_id)
            if frame is None:
                return  # the sampled thread has exited
            layer = self.classifier.stack_layer(frame)
            del frame
            with self._lock:
                if not self._paused:
                    self._charge(layer)
                    self.samples += 1

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"cpu_s": self.cpu_s,
                                    "samples": self.samples}))
