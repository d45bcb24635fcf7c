"""In-memory span recorder that wraps kanoa's public functions from outside.

Each wrapped name is patched where its caller looks it up (for example
``kanoa.scheduling.build_mdp``, not ``kanoa.mdp.build_mdp``), so the program
itself is unchanged.  A span is (name, start, end, parent); spans stay in
memory until the run ends, and :meth:`Tracer.restore` puts every original
back.  Names that a later version of the program no longer has are skipped
and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name): every call site on the planning path
TARGETS = [
    ("kanoa.reporting", "parse_problem", "parser"),
    ("kanoa.reporting", "validate_problem", "validation"),
    ("kanoa.reporting", "expand_mission", "taskgraph"),
    ("kanoa.reporting", "debug_report", "taskgraph"),
    ("kanoa.reporting", "prepare_search", "optimizer.prepare"),
    ("kanoa.reporting", "nsga2_run", "optimizer"),
    ("kanoa.reporting", "check_plan", "plans.check"),
    ("kanoa.reporting", "emit_gantt", "gantt"),
    ("kanoa.reporting", "format_gantt_text", "gantt"),
    ("kanoa.optimizer", "expand_mission", "taskgraph"),
    ("kanoa.optimizer", "prune_subtrees", "taskgraph"),
    ("kanoa.optimizer", "enumerate_allocations", "allocation"),
    ("kanoa.optimizer", "cluster_robots", "clustering"),
    ("kanoa.optimizer", "random_task_permutation", "permutations"),
    ("kanoa.optimizer", "evaluate", "optimizer.evaluate"),
    ("kanoa.optimizer", "schedule_cluster", "scheduling"),
    ("kanoa.optimizer", "fast_nondominated_sort", "optimizer.sort"),
    ("kanoa.optimizer", "crowding_distance", "optimizer.crowding"),
    ("kanoa.scheduling", "build_mdp", "mdp"),
    ("kanoa.scheduling", "max_reach_probability", "solver.reach"),
    ("kanoa.scheduling", "min_expected_reward_policy", "solver.policy"),
    ("kanoa.scheduling", "extract_plan", "plans.extract"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.notes: dict[str, list] = defaultdict(list)  # span name -> summaries
        self.missing: list[str] = []
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module_name: str, attr: str, name: str, summarize=None):
        """Patch ``module_name.attr`` so each call records a span; when
        ``summarize(args, result)`` is given, its value is appended to
        ``notes[name]``."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return

        def traced(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if summarize is not None:
                try:
                    self.notes[name].append(summarize(args, result))
                except Exception as exc:  # a changed signature must not end the run
                    self.errors.append(f"{name}: {exc!r}")
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def install(self, summaries: dict | None = None):
        """Wrap every target; ``summaries`` maps span names to summarizers."""
        summaries = summaries or {}
        for module_name, attr, name in TARGETS:
            self.wrap(module_name, attr, name, summaries.get(name))

    def restore(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return dict(inclusive), dict(own), dict(calls)

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent], times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]
