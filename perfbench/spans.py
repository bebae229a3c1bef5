"""In-memory span tracer that wraps bregopt's public callables from outside.

A hook names a span (``<layer>.<callable>``, the layer being the module) and
the attribute path of its target inside the package, either a module-level
function (``dynamics.newton_solve``) or a method of a class
(``manifolds.Stiefel.retract``).  Installing a hook replaces the attribute
with a wrapper that records one span per call: name, start, end and parent
span.  A function is also replaced wherever another package module imported
it by name, so ``from .dynamics import newton_solve`` callers are traced too.

Targets are looked up by attribute when the tracer is installed, so the
package may rename or delete them: a span whose every target is missing is
reported as absent and its time lands in the nearest traced caller.
Everything is restored when the tracer is removed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "bregopt"

# (span name, target path inside the package, result attribute to record).
HOOKS = (
    ("cli.main", "cli.main", None),
    ("cli.build_problem", "cli.build_problem", None),
    ("cli.build_run_config", "cli.build_run_config", None),
    ("problems.make_instance", "problems.make_instance", None),
    ("problems.rayleigh", "problems.rayleigh", None),
    ("problems.brockett", "problems.brockett", None),
    ("problems.procrustes", "problems.procrustes", None),
    ("problems.jacobi_eigen", "problems.jacobi_eigen", None),
    ("problems.svd_small", "problems.svd_small", None),
    ("manifolds.constraint", "manifolds.Sphere.constraint", None),
    ("manifolds.constraint", "manifolds.Stiefel.constraint", None),
    ("manifolds.constraint_jacobian", "manifolds.Sphere.constraint_jacobian", None),
    ("manifolds.constraint_jacobian", "manifolds.Stiefel.constraint_jacobian", None),
    ("manifolds.constraint_violation", "manifolds.EmbeddedManifold.constraint_violation", None),
    ("manifolds.riemannian_gradient", "manifolds.EmbeddedManifold.riemannian_gradient", None),
    ("manifolds.tangent_project", "manifolds.Sphere.tangent_project", None),
    ("manifolds.tangent_project", "manifolds.Stiefel.tangent_project", None),
    ("manifolds.retract", "manifolds.Sphere.retract", None),
    ("manifolds.retract", "manifolds.Stiefel.retract", None),
    ("manifolds.transport", "manifolds.Sphere.transport", None),
    ("manifolds.transport", "manifolds.Stiefel.transport", None),
    ("bregman.step_coefficients", "bregman.step_coefficients", None),
    ("dynamics.newton_solve", "dynamics.newton_solve", "iterations"),
    ("dynamics.constrained_lagrangian_map", "dynamics.constrained_lagrangian_map", None),
    ("dynamics.project_momentum", "dynamics.project_momentum", None),
    ("dynamics.order_check", "dynamics.order_check", None),
    ("optimizers.run", "optimizers.run", None),
    ("optimizers.htvi_step", "optimizers.htvi_step", None),
    ("optimizers.el_step", "optimizers.el_step", None),
    ("optimizers.rgd_step", "optimizers.rgd_step", None),
)

# Objective callables live on each generated ProblemSpec, not in a module.
PROBLEM_HOOKS = (("problems.f", "f"), ("problems.ambient_grad", "ambient_grad"))

LAYERS = ("problems", "manifolds", "bregman", "dynamics", "optimizers", "cli")


@dataclasses.dataclass
class SpanStats:
    """Totals of one span name: calls, inclusive and self seconds, calls
    that raised, and the sum of the recorded result attribute."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    value_sum: float = 0.0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.raised += other.raised
        self.value_sum += other.value_sum


@dataclasses.dataclass
class Summary:
    """Per-name totals of one or more traced phases.  ``wall_s`` is the
    summed duration of root spans, which the self times add up to."""

    stats: dict
    wall_s: float = 0.0

    def merge(self, other: "Summary") -> None:
        for name, stats in other.stats.items():
            self.stats.setdefault(name, SpanStats()).add(stats)
        self.wall_s += other.wall_s

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))


def _resolve(path: str):
    """Return ``(owner, attribute, original)`` or ``None`` when missing."""
    module_name, _, rest = path.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *owners, attribute = rest.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original) or isinstance(original, type):
        return None
    return owner, attribute, original


class Tracer:
    """Records spans into flat arrays while installed (use as a context
    manager).  Not reentrant: one tracer is installed at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._raised = array("b")
        self._value = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wanted = {}
        for span, path, value_attr in HOOKS:
            wanted.setdefault(span, [])
            target = _resolve(path)
            if target is not None:
                wanted[span].append((target, value_attr))
        for span, targets in wanted.items():
            if not targets:
                self.absent.add(span)
                continue
            for (owner, attribute, original), value_attr in targets:
                wrapper = self._wrap(original, self._id(span), value_attr)
                self._patch(owner, attribute, wrapper)
                if not isinstance(owner, type):
                    self._patch_aliases(original, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _patch(self, owner, attribute, wrapper) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _patch_aliases(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(PACKAGE + "."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapper)

    def wrap_problem(self, problem):
        """Copy of a ProblemSpec whose objective callables are traced."""
        changes = {}
        for span, field in PROBLEM_HOOKS:
            original = getattr(problem, field, None)
            if callable(original):
                changes[field] = self._wrap(original, self._id(span), None)
            else:
                self.absent.add(span)
        return dataclasses.replace(problem, **changes)

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, fn, name_id: int, value_attr: str | None):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        raised, values, stack = self._raised, self._value, self._stack
        clock = time.perf_counter
        nan = float("nan")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            values.append(nan)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                starts[index] = start
                raised[index] = 1
                stack.pop()
                value = None if value_attr is None else getattr(exc, value_attr, None)
                if value is not None:
                    values[index] = float(value)
                raise
            ends[index] = clock()
            starts[index] = start
            stack.pop()
            if value_attr is not None:
                values[index] = float(getattr(result, value_attr, nan))
            return result

        traced.perfbench_span = self.names[name_id]
        return traced

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self._raised, dtype=np.int8).copy(),
            "value": np.frombuffer(self._value, dtype=np.float64).copy(),
        }

    def summary(self) -> Summary:
        """Per-name totals; a span's self time is its duration minus the
        durations of its direct children."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = parent >= 0
        children_s = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        self_s = duration - children_s
        stats = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            values = spans["value"][mask]
            stats[name] = SpanStats(
                calls=int(np.count_nonzero(mask)),
                total_s=float(duration[mask].sum()),
                self_s=float(self_s[mask].sum()),
                raised=int(spans["raised"][mask].sum()),
                value_sum=float(values[np.isfinite(values)].sum()),
            )
        return Summary(stats=stats, wall_s=float(duration[~child].sum()))

    def write(self, path) -> None:
        """Write every span; ``name`` indexes ``names``, ``parent`` is -1
        for a root span."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
