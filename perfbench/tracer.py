"""Per-layer timing from outside the program.

A ``Tracer`` replaces chosen functions and methods of the ``drls`` package
with timing wrappers while it is installed, and puts the originals back
when it is removed. A function is wrapped at every name the package binds
it to (``drls.harness.run_ensemble`` and ``drls.cli.run_ensemble`` are the
same object), so the wrapper sees every caller's lookups. Methods are
wrapped on their class. Nothing inside ``src/`` is changed.

Each wrapped call adds to a per-name aggregate: calls, total seconds and
self seconds (total minus the time of wrapped calls made inside it). While
``tag`` is set, calls are also aggregated under ``name@tag``. The
aggregates stay in memory and are written out by the caller.

Memory is sampled, not traced: ``tracemalloc`` doubles the time of the
covariance iteration, while a thread reading the resident set size every
2 ms costs little. The sampled peak is what the operating system
sees, the same quantity as the benchmark's ``peak_rss_mb``.
"""

import os
import sys
import threading
import time

_PACKAGE = "drls"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))]


def _resolve(path):
    """Object, owner and attribute for a dotted path such as
    ``drls.estimators.DrlsState.step``; owner is None when it is missing."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        owner = sys.modules.get(".".join(parts[:cut]))
        if owner is None:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None, None, None
        target = getattr(owner, parts[-1], None)
        return (target, owner, parts[-1]) if target is not None else (None, None, None)
    return None, None, None


class _RssSampler(threading.Thread):
    """Largest resident set size seen while it runs, in bytes (0 if unknown)."""

    def __init__(self):
        super().__init__(daemon=True)
        self._done = threading.Event()
        try:
            self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:
            self._fd = None
        self.start_rss = self.peak = self._rss()

    def _rss(self):
        if self._fd is None:
            return 0
        return int(os.pread(self._fd, 128, 0).split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def run(self):
        while not self._done.wait(0.002):
            self.peak = max(self.peak, self._rss())

    def finish(self):
        """Stop sampling; returns the peak above the resident size at start."""
        self._done.set()
        self.join()
        self.peak = max(self.peak, self._rss())
        if self._fd is not None:
            os.close(self._fd)
        return self.peak - self.start_rss


class Tracer:
    """Timing wrappers around named package functions, with self time."""

    def __init__(self):
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.peaks = {}        # name -> largest resident-size growth during a call, bytes
        self.samples = {}      # name -> list of values taken from results
        self.missing = []      # paths that do not exist in this version
        self.tag = None
        self._stack = []       # child seconds of each open wrapped call
        self._undo = []

    def _add(self, key, total, own):
        entry = self.stats.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += total
        entry[2] += own

    def _wrapper(self, fn, name, on_result, memory):
        def wrapped(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            sampler = _RssSampler() if memory else None
            if sampler is not None:
                sampler.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                if sampler is not None:
                    self.peaks[name] = max(self.peaks.get(name, 0), sampler.finish())
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += total
                self._add(name, total, total - frame[0])
                if self.tag is not None:
                    self._add(f"{name}@{self.tag}", total, total - frame[0])
            if on_result is not None:
                self.samples.setdefault(name, []).append(on_result(args, result))
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def wrap(self, path, on_result=None, memory=False):
        """Time calls to ``path``; ``on_result(args, result)`` records a sample."""
        target, owner, attr = _resolve(path)
        if target is None:
            self.missing.append(path)
            return
        wrapped = self._wrapper(target, path, on_result, memory)
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapped)
            return
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is target:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapped)

    def remove(self):
        """Put every original back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)    # the class inherited it
            else:
                setattr(owner, attr, value)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def own(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self):
        return {
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.stats.items())},
            "peak_bytes": dict(sorted(self.peaks.items())),
            "missing": list(self.missing),
        }
