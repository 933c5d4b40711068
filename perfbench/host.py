"""Checkout paths and peak resident memory of a measured region."""

from __future__ import annotations

import os
import resource
import sys
import threading
from pathlib import Path

#: The checkout the benchmark runs from (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parents[1]
#: Everything the benchmark writes (spill runs, span files) goes here.
WORK_DIR = ROOT / ".perfbench"


def add_import_paths() -> None:
    """Make ``repro`` (from ``src/``) importable; raise
    ``FileNotFoundError`` when the checkout lacks it."""
    src = ROOT / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"benchmark needs {src} in the checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env() -> dict:
    """The environment of a benchmark child process (``python -m
    perfbench.<module>``): ``perfbench`` and ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _status_kb(field: str) -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _descendants(root: int) -> list[int]:
    """PIDs of the live descendants of ``root``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child)
    return found


def _private_kb(pid: int) -> int:
    """Memory only ``pid`` maps (USS): pages a forked child still shares
    with its parent are already in the parent's RSS."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith((b"Private_Clean:", b"Private_Dirty:")):
                    total += int(line.split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return total


class PeakRss:
    """Peak memory (MB) of a measured region: this process's RSS
    high-water mark plus the peak summed private memory of its live
    descendants (workers, merge pools, the daemon process), sampled.

    The high-water mark is reset on entry through ``/proc/self/clear_refs``
    so earlier work (input generation, reference runs) does not count;
    without that file the lifetime ``ru_maxrss`` is used.
    """

    INTERVAL = 0.05

    def __init__(self) -> None:
        self._root = os.getpid()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._reset = False
        self._children_kb = 0
        self.mb = 0.0

    def _sample(self) -> None:
        pids = _descendants(self._root)
        if pids:
            self._children_kb = max(self._children_kb, sum(_private_kb(pid) for pid in pids))

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._sample()

    def __enter__(self) -> "PeakRss":
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
            self._reset = True
        except OSError:
            self._reset = False
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        own_kb = _status_kb("VmHWM") if self._reset else None
        if own_kb is None:
            own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.mb = (own_kb + self._children_kb) / 1024.0
