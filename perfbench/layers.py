"""Per-layer tracing of steermap from outside the package.

A layer group names one or more public functions of a steermap module.
While a :class:`Tracer` is installed, every binding of each named
function in every loaded ``steermap`` module is replaced by a timing
wrapper: the defining module's attribute and each ``from``-import of it
(``constructions.born_joint``, ``mapping.make_density``,
``cli.model_from_separable``, ...).  Uninstalling restores the originals.

Each call is a span with a group, a parent span (the innermost traced
call it ran under) and a duration.  Its self time is the duration minus
the durations of its direct child spans, so the self times of all spans
under one request sum to that request's root span (``cli``).  Spans are
aggregated in memory per group and per (parent, child) edge.

Functions are looked up by name.  A name the package no longer defines
is skipped and its group reads 0 calls, so the benchmark keeps running
when functions merge or go away.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "steermap"

# group -> (module, function names).  Several names share a group where
# they do the same job: map_m/map_n (and a merged ``mix``) are one mixing
# step, the two biased partners one partner step.
GROUPS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("cli", ("main",)),
    "cli.atomic_write": ("cli", ("_atomic_write",)),
    "linalg.hermitian_eigen": ("linalg", ("hermitian_eigen",)),
    "linalg.kron": ("linalg", ("kron",)),
    "linalg.partial_trace": ("linalg", ("partial_trace",)),
    "states.make_density": ("states", ("make_density",)),
    "states.json": ("states", ("load_state", "state_from_json", "state_to_json", "save_state")),
    "states.conditional_state": ("states", ("conditional_state",)),
    "states.random_separable": ("states", ("random_separable",)),
    "measurements.build": ("measurements", ("qubit_measurement", "qudit_measurement")),
    "models.born_joint": ("models", ("born_joint",)),
    "models.response_prob": ("models", ("response_prob",)),
    "constructions.lhs_certificate": ("constructions", ("lhs_certificate",)),
    "constructions.verify_lhs_identity": ("constructions", ("verify_lhs_identity",)),
    "constructions.spm_certificate": ("constructions", ("spm_certificate",)),
    "constructions.verify_spm_identity": ("constructions", ("verify_spm_identity",)),
    "witnesses.negativity": ("witnesses", ("negativity",)),
    "witnesses.f3_steering": ("witnesses", ("f3_steering",)),
    "witnesses.chsh_horodecki": ("witnesses", ("chsh_horodecki",)),
    "mapping.mix": ("mapping", ("map_m", "map_n", "mix")),
    "mapping.partner": ("mapping", ("bob_biased_partner", "alice_biased_partner", "biased_partner")),
    "mapping.feasible": ("mapping", ("feasible",)),
    "mapping.region_scan": ("mapping", ("region_scan",)),
}

EIGEN = "linalg.hermitian_eigen"
MAKE_DENSITY = "states.make_density"
STATE_BOUNDARY = "states.json"


@dataclass
class GroupStats:
    calls: int = 0
    self_s: float = 0.0
    dim_sum: int = 0  # eigen only: summed matrix dimension
    boundary_calls: int = 0  # make_density only: calls made under states.json


class Tracer:
    """Span recorder that patches steermap's functions while installed."""

    def __init__(self) -> None:
        self.stats = {group: GroupStats() for group in GROUPS}
        self.edges: Counter = Counter()
        self.self_total = 0.0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new aggregation window (edges keep accumulating)."""
        self.stats = {group: GroupStats() for group in GROUPS}

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for group, (module_name, names) in GROUPS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for name in names:
                fn = getattr(module, name, None)
                # An alias of a function already wrapped is one function.
                if not callable(fn) or hasattr(fn, "_layer_group"):
                    continue
                wrapper = self._wrap(group, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, fn))

    def _uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, group: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                self._record(group, parent, elapsed - frame[1], args)

        traced._layer_group = group
        return traced

    def _record(self, group: str, parent, self_s: float, args) -> None:
        stats = self.stats[group]
        stats.calls += 1
        stats.self_s += self_s
        self.self_total += self_s
        parent_group = parent[0] if parent is not None else None
        self.edges[(parent_group, group)] += 1
        if group == EIGEN and args:
            stats.dim_sum += len(args[0])
        elif group == MAKE_DENSITY and parent_group == STATE_BOUNDARY:
            stats.boundary_calls += 1
