"""Span recording from outside the library.

The benchmark never edits ``arcgate``.  Instead :class:`Tracer` rebinds
every module attribute (and class attribute, for the classmethods) that
refers to one of the library's public functions to a wrapper that records
a span, and puts the originals back on exit.  This works because the
library looks callees up through module globals at call time, e.g.
``engine.train`` calls ``forward``/``backward``/``adamw_step`` and
``core.batch_eval`` by name.

Spans are aggregated in memory by name as they close: call count, total
duration, self time (duration minus the time covered by child spans), and
an optional work count (elements, rows, iterations).  Self time of root
spans (those opened with no span open) is also summed apart, so the time
attributed to inner layers can be told from the roots' own time.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

PACKAGE = "arcgate"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _x_size(args, kwargs, result) -> int:
    return _arg(args, kwargs, 0, "x").size


def _cotangent_size(args, kwargs, result) -> int:
    return _arg(args, kwargs, 1, "cotangent").size


def _rows(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "dataset")[0])


def _iterations(args, kwargs, result) -> int:
    return result.iterations


def _gradcheck_draws(args, kwargs, result) -> int:
    argv = list(_arg(args, kwargs, 0, "argv"))
    return int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 0


def _train_key(args, kwargs, result):
    """Identity of one training: (spec, config, dataset object)."""
    dataset = _arg(args, kwargs, 1, "dataset")
    return (repr(_arg(args, kwargs, 0, "model_spec")), repr(_arg(args, kwargs, 2, "config")),
            id(dataset[0]), id(dataset[2]))


@dataclass(frozen=True)
class Target:
    """One public function to wrap, named ``<module>.<attr>`` or ``<module>.<Class>.<attr>``."""

    name: str
    work: object = None      # (args, kwargs, result) -> work count
    key: object = None       # (args, kwargs, result) -> hashable; repeats are counted
    within: str | None = None  # count calls made while this span name is open


TARGETS = (
    Target("core.batch_eval", work=_x_size),
    Target("core.batch_vjp", work=_cotangent_size, within="fitter.fit"),
    Target("core.eval_F"),
    Target("core.grad"),
    Target("core.raw_from_effective"),
    Target("core.ArcGateParams.from_effective"),
    Target("zoo.act_batch"),
    Target("zoo.act_grad_batch"),
    Target("engine.build_model"),
    Target("engine.forward"),
    Target("engine.backward"),
    Target("engine.softmax_cross_entropy"),
    Target("engine.adamw_step"),
    Target("engine.train", key=_train_key),
    Target("engine.evaluate", work=_rows),
    Target("fitter.FitTarget.from_kind"),
    Target("fitter.fit", work=_iterations),
    Target("fitter.replicate_classics"),
    Target("experiments.noise_sweep"),
    Target("experiments.init_ablation"),
    Target("experiments.granularity_ablation"),
    Target("idx.synthesize_arrays"),
    Target("idx.write_idx_images"),
    Target("idx.write_idx_labels"),
    Target("idx.load_idx"),
    Target("cli.run", work=_gradcheck_draws),
)


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "work", "repeats", "within")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0
        self.repeats = 0
        self.within = 0


class Tracer:
    """Context manager that installs span wrappers on entry and removes them on exit."""

    def __init__(self):
        self.stats = {t.name: Stats() for t in TARGETS}
        self._stack: list[float] = []      # child time accumulated per open span
        self._open = {t.name: 0 for t in TARGETS}
        self._seen: set = set()
        self._root_self = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def reset_keys(self) -> None:
        """Forget keys seen so far; repeats are counted from here on."""
        self._seen.clear()

    def inner_self_s(self) -> float:
        """Self time of all spans that had a parent span."""
        return sum(s.self_s for s in self.stats.values()) - self._root_self[0]

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for target in TARGETS:
            module_name, *path = target.name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if len(path) == 2:          # classmethod on a class
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                wrapped = classmethod(self._wrap(target, original.__func__))
                self._rebind(cls, path[1], wrapped)
                continue
            original = getattr(owner, path[0])
            wrapped = self._wrap(target, original)
            for module in modules:     # every alias, e.g. ``from .engine import train``
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, target: Target, fn):
        stats = self.stats[target.name]
        stack = self._stack
        is_open = self._open
        seen = self._seen
        root_self = self._root_self
        name, work, key, within = target.name, target.work, target.key, target.within
        clock = time.perf_counter

        def span(*args, **kwargs):
            if within is not None and is_open[within]:
                stats.within += 1
            is_open[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                is_open[name] -= 1
                if stack:
                    stack[-1] += duration
                else:
                    root_self[0] += duration - child
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child
            if work is not None:
                stats.work += work(args, kwargs, result)
            if key is not None:
                k = key(args, kwargs, result)
                stats.repeats += k in seen
                seen.add(k)
            return result

        return span
