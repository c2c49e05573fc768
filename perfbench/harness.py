"""Arithmetic and tracing for the benchmark; imports nothing heavy.

Spans are recorded from outside the package: `Tracer.install` replaces a
public function (or model method) with a timing wrapper in every module
of the package that holds it by name, because `from .linalg import
matexp` copies the binding into the importing module and wrapping only
the home module would miss those calls. `restore` puts every original
back.

A span is recorded only at a layer boundary: a wrapped call made while a
span of the same layer is open runs unrecorded and counts as that span's
self time. So the block exponential inside `matexp_vjp` belongs to
`linalg.matexp_vjp`, and `rx_encode` -> `rx_encode_raw` is one
`circuit.encode` span.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Span name -> (module, attribute) pairs it covers; a dotted attribute is a
# method on a class of that module.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "linalg.matexp": (("linalg", "matexp"),),
    "linalg.matexp_vjp": (("linalg", "matexp_vjp"),),
    "liegroup.assemble": (("liegroup", "assemble"),),
    "liegroup.param_grad": (("liegroup", "param_grad"),),
    "circuit.encode": (("circuit", "rx_encode"), ("circuit", "rx_encode_raw")),
    "circuit.decode": (("circuit", "z_expectations"), ("circuit", "z_expectations_raw")),
    "models.forward": tuple(
        ("models", f"{cls}.forward") for cls in ("FullUnitaryModel", "PartitionedModel", "AnsatzModel")
    ),
    "models.backward": tuple(
        ("models", f"{cls}.backward") for cls in ("FullUnitaryModel", "PartitionedModel", "AnsatzModel")
    ),
    "optim.loss_and_grad": (("optim", "loss_and_grad"),),
    "optim.adam_step": (("optim", "adam_step"),),
    "quanv.train": (("quanv", "train_quanv_demo"),),
    "quanv.forward": (("quanv", "quanv_forward"),),
}


def tail_rank(n: int) -> int:
    """1-based rank of the highest sample with at least ten samples above it."""
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return n - 10


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail rule on `samples`.

    The value is the (n-10)-th smallest sample, so exactly ten samples
    rank above it; its percentile is 100 * (n - 10) / n.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = tail_rank(n)
    return ordered[rank - 1], 100.0 * rank / n, n


def median(samples) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def time_to_tol(step_seconds, losses, tol: float) -> tuple[int, float] | None:
    """(index, seconds) of the first step whose pre-update loss is below tol.

    The seconds sum every step up to and including that one, since its
    loss is only known once it has run. None when no step gets there.
    """
    total = 0.0
    for i, (seconds, loss) in enumerate(zip(step_seconds, losses)):
        total += seconds
        if loss < tol:
            return i, total
    return None


class Tracer:
    """Per-span call counts and self time from wrapped public functions."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls: dict[str, int] = {name: 0 for name in SPANS}
        self.self_ns: dict[str, int] = {name: 0 for name in SPANS}
        self.top_ns = 0  # time covered by spans with no open parent
        self._stack: list[list] = []  # open spans as [layer, start_ns, child_ns]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Wrap fn so each call records one `name` span (see module doc)."""
        layer = name.split(".", 1)[0]
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                else:
                    self.top_ns += elapsed

        wrapper.__wrapped_span__ = name
        return wrapper

    def install(self, package: types.ModuleType) -> None:
        """Wrap every binding of every SPANS target inside `package`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(prefix)]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                home = getattr(package, module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self.span(name, cls.__dict__[meth]))
                    continue
                original = getattr(home, attr)
                wrapper = self.span(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every attribute install replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def results(self) -> dict[str, float]:
        """`<span>.calls` and `<span>.self_s` for every span in SPANS."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        return out

