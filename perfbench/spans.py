"""In-memory span tracer for the benchmark's traced runs.

The package modules import each other's functions by name
(``from .qdot import spectrum``), so a layer is traced by rebinding that name
in the module that *calls* it, e.g. ``regimes.run_cycle_closed_form`` or
``thermo.gibbs_state``. Nothing under ``src/`` is edited; ``Tracer.install``
swaps wrappers in and ``Tracer.uninstall`` puts the original objects back.

Spans are kept per thread (each record carries its thread id), so the
threaded sweep nests correctly: a span's self time is its duration minus the
durations of its direct children *on the same thread*. Statistics are
aggregated as spans close, into per-thread tables that only their own thread
writes, and merged when the traced unit ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from dqdcycle import channels, cli, qdot, regimes, sweep, thermo, verify
from harness import VERIFY_CHECKS

# (consumer module, attribute, span name). Every call site of a traced layer
# reaches it through one of these names; the benchmark itself calls
# ``sweep.run_sweep``, ``sweep.write_csv`` and ``cli.main`` as module attributes.
_PATCHES = [
    (qdot, "spectrum", "qdot.spectrum"),
    (thermo, "spectrum", "qdot.spectrum"),
    (regimes, "spectrum", "qdot.spectrum"),
    (cli, "spectrum", "qdot.spectrum"),
    (thermo, "gibbs_state", "qdot.gibbs_state"),
    (thermo, "von_neumann_entropy", "qdot.von_neumann_entropy"),
    (verify, "is_density_matrix", "qdot.is_density_matrix"),
    (channels, "kraus_operators", "channels.kraus_operators"),
    (channels, "apply_kraus", "channels.apply_kraus"),
    (verify, "apply_kraus", "channels.apply_kraus"),
    (regimes, "run_cycle_closed_form", "thermo.run_cycle_closed_form"),
    (verify, "run_cycle_closed_form", "thermo.run_cycle_closed_form"),
    (cli, "run_cycle_closed_form", "thermo.run_cycle_closed_form"),
    (verify, "run_cycle_matrix", "thermo.run_cycle_matrix"),
    (cli, "run_cycle_matrix", "thermo.run_cycle_matrix"),
    (sweep, "classify", "regimes.classify"),
    (cli, "classify", "regimes.classify"),
    (regimes, "constrained_strength", "regimes.thresholds"),
    (cli, "constrained_strength", "regimes.thresholds"),
    (sweep, "write_csv", "sweep.write_csv"),
    (cli, "write_csv", "sweep.write_csv"),
    (cli, "to_json_document", "sweep.to_json_document"),
    (cli, "main", "cli.main"),
]
for _mod in (sweep, verify, cli):
    for _fn in ("engine_branch_quantities", "refrigerator_plus_quantities",
                "refrigerator_minus_quantities"):
        _PATCHES.append((_mod, _fn, "regimes.branch_quantities"))
for _mod in (verify, cli):
    for _fn in ("engine_branch_thresholds", "refrigerator_branch_thresholds"):
        _PATCHES.append((_mod, _fn, "regimes.thresholds"))
for _check in VERIFY_CHECKS:
    _PATCHES.append((verify, f"check_{_check}", f"verify.{_check}"))


class _ThreadState:
    """One thread's open-span stack and closed-span totals."""

    def __init__(self, tid: int, is_main: bool):
        self.tid = tid
        self.is_main = is_main
        self.stack: list[list[float]] = []  # one [child_seconds] cell per open span
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.root_s = 0.0                   # summed duration of spans with no parent
        self.row_cpu_s = 0.0                # CPU time inside thread-pool sweep rows


class _JsonProxy:
    """Stands in for ``cli.json`` so that ``json.dumps`` is one more span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Aggregates span statistics; install around a unit of work, then read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []
        self.sweeps: list[tuple[float, int, float]] = []  # (wall_s, workers, caller_cpu_s)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident(),
                                 threading.current_thread() is threading.main_thread())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span called ``name`` per call."""
        perf = time.perf_counter
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            cell = [0.0]
            stack.append(cell)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    state.root_s += dt
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - cell[0]

        return traced

    def _wrap_run_sweep(self, fn):
        """``sweep.run_sweep`` span that also records wall, workers and caller CPU."""
        traced = self.wrap("sweep.run_sweep", fn)

        @functools.wraps(fn)
        def recorded(spec, workers=1):
            c0, t0 = time.thread_time(), time.perf_counter()
            out = traced(spec, workers)
            self.sweeps.append((time.perf_counter() - t0, workers, time.thread_time() - c0))
            return out

        return recorded

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                def row(*args):
                    state = tracer._state()
                    c0 = time.thread_time()
                    try:
                        return fn(*args)
                    finally:
                        state.row_cpu_s += time.thread_time() - c0

                return super().map(row, *iterables, **kwargs)

        return TracedExecutor

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replacements = [(m, a, self.wrap(n, getattr(m, a))) for m, a, n in _PATCHES]
        for module in (sweep, cli):
            replacements.append((module, "run_sweep", self._wrap_run_sweep(module.run_sweep)))
        replacements.append((cli, "json", _JsonProxy(self.wrap("sweep.json_dumps", json.dumps))))
        replacements.append((sweep, "ThreadPoolExecutor", self._executor_class()))
        for module, attr, new in replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, old = self._saved.pop()
            setattr(module, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), summed over threads."""
        out: dict[str, list] = {}
        for state in self._threads:
            for name, (calls, total, self_s) in state.stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def main_root_s(self) -> float:
        """Main-thread time covered by spans that have no parent span."""
        return sum(s.root_s for s in self._threads if s.is_main)

    def worker_busy(self) -> tuple[float, float]:
        """(busy CPU seconds in sweep rows, wall seconds x workers) over all sweeps.

        A pooled sweep's rows report their own thread CPU time; a single-worker
        sweep runs its rows on the calling thread, whose CPU time is used.
        """
        pooled = sum(s.row_cpu_s for s in self._threads)
        inline = sum(cpu for _, workers, cpu in self.sweeps if workers == 1)
        capacity = sum(wall * workers for wall, workers, _ in self.sweeps)
        return pooled + inline, capacity
