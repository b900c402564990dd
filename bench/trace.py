"""Spans recorded from outside the program, at the boundaries of its layers.

:class:`Tracer` replaces public callables at the binding their callers look
up -- a module global such as ``repro.core.kernel.run_row_sender`` (which the
fused and the native tier both call), or a class attribute such as
``PriorityScheduler.allocate`` -- with a wrapper that records one span per
call: name, start, end, parent span and pass id.  Spans stay in memory as
flat arrays and are written out once, at the end.  ``installed()`` puts the
original objects back, so a traced process leaves no trace in the library.

A layer's self time is the time its spans cover minus the time their child
spans cover.  The harness opens one ``harness`` span around each pass, so the
self times of all layers in a pass sum to that pass's wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: ``(owner, attribute, layer)``; an owner is ``module`` or ``module:Class``.
#: Each attribute is the binding the callers look up, so wrapping it sees
#: every call.  Layer names are the per-layer metric prefixes.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.batch", "run_sessions_batch", "batch.driver"),
    ("repro.serve.fastpath", "serve_sessions_fast", "fastpath.execute"),
    ("repro.serve.service:StreamingService", "run", "service.replay"),
    ("repro.serve.service", "estimate_demand", "admission.demand"),
    ("repro.serve.bandwidth:PriorityScheduler", "allocate", "bandwidth.allocate"),
    ("repro.serve.bandwidth:FairShareScheduler", "allocate", "bandwidth.allocate"),
    ("repro.serve.shedding:LayeredShedPolicy", "select", "shedding.select"),
    ("repro.serve.hierarchy", "plan_hierarchy", "hierarchy.fanout"),
    ("repro.serve.hierarchy", "run_hierarchy", "hierarchy.fanout"),
    ("repro.core.kernel", "step_fleet", "kernel.fleet"),
    ("repro.core.kernel", "step_window", "kernel.step"),
    ("repro.core.kernel", "plan_refills", "kernel.prefetch"),
    ("repro.core.kernel", "prefetch_flags", "kernel.prefetch"),
    ("repro.core.kernel:WindowShape", "plan_for", "kernel.plan"),
    ("repro.core.kernel", "drain_acks", "kernel.feedback"),
    ("repro.core.kernel", "row_bounds", "kernel.feedback"),
    ("repro.core.kernel", "send_ack", "kernel.feedback"),
    ("repro.core.kernel", "run_row_sender", "kernel.sender"),
    ("repro.accel", "gilbert_states_batch", "accel.gilbert"),
    ("repro.accel", "gilbert_states", "accel.gilbert"),
    ("repro.accel", "batch_worst_clf", "accel.clf"),
)

#: Wrapped only in the cold pass, where permutation search really runs; in
#: warm passes the call is a memo hit and counts as plan time.
COLD_TARGETS = TARGETS + (
    ("repro.core.layered", "calculate_permutation", "cpo.search"),
)

#: The span the harness opens around each whole pass.
ROOT_SPAN = "harness"

#: Every layer a warm pass attributes self time to.
LAYERS: Tuple[str, ...] = (ROOT_SPAN,) + tuple(
    dict.fromkeys(layer for _, _, layer in TARGETS)
)


def resolve_owner(path: str):
    """The module or class an owner path names."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder with install/restore of wrapped callables."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.passes = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = [-1]
        self._roots: Dict[int, int] = {}
        #: Pass id stamped on every span opened from now on.
        self.pass_id = 0

    def _intern(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def open(self, name_id: int) -> int:
        index = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.passes.append(self.pass_id)
        self.ends.append(0)
        self._stack.append(index)
        # Read the clock last, so the bookkeeping above is not in the span.
        self.starts.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        top_level = self._stack[-1] < 0
        index = self.open(self._intern(name))
        if top_level:
            self._roots[self.pass_id] = index
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        name_id = self._intern(name)
        open_span = self.open
        close_span = self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator[None]:
        """Wrap every target for the duration of the block, then restore it."""
        patches = []
        try:
            for owner_path, attribute, name in targets:
                owner = resolve_owner(owner_path)
                original = vars(owner)[attribute]
                patches.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name))
            yield
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> Dict[int, Dict[str, Tuple[float, int]]]:
        """``{pass: {layer: (self seconds, calls)}}`` over every recorded span."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        totals: Dict[Tuple[int, int], List[int]] = {}
        for index, (pass_id, name_id) in enumerate(zip(self.passes, self.name_ids)):
            entry = totals.setdefault((pass_id, name_id), [0, 0])
            entry[0] += durations[index] - covered[index]
            entry[1] += 1
        result: Dict[int, Dict[str, Tuple[float, int]]] = {}
        for (pass_id, name_id), (self_ns, calls) in totals.items():
            result.setdefault(pass_id, {})[self.names[name_id]] = (
                self_ns / 1e9,
                calls,
            )
        return result

    def durations_s(self, name: str, passes) -> List[float]:
        """Inclusive durations, in seconds, of every ``name`` span in ``passes``."""
        name_id = self._ids.get(name)
        wanted = set(passes)
        return [
            (self.ends[index] - self.starts[index]) / 1e9
            for index in range(len(self.name_ids))
            if self.name_ids[index] == name_id and self.passes[index] in wanted
        ]

    def pass_wall_s(self, pass_id: int) -> float:
        """Duration of the top-level span opened with :meth:`span` in a pass."""
        index = self._roots[pass_id]
        return (self.ends[index] - self.starts[index]) / 1e9

    def write(self, path) -> None:
        """All spans as gzipped tab-separated lines; the parent is a span id."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tpass\tname\tstart_ns\tend_ns\n")
            names = self.names
            for index, (parent, pass_id, name_id, start, end) in enumerate(
                zip(self.parents, self.passes, self.name_ids, self.starts, self.ends)
            ):
                out.write(
                    f"{index}\t{parent}\t{pass_id}\t{names[name_id]}\t{start}\t{end}\n"
                )
