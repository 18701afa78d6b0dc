"""Span tracing of hrt from outside the program.

The tracer replaces hrt's entry points at the sites where their callers look
them up (``hrt.encoder`` binds the routing functions by name, ``hrt.model``
binds ``encode`` and the decoder functions, ``hrt.train`` binds the losses and
``optimizer_step``; the tensor ops are looked up on the ``hrt.tensor`` module
at every call).  Each call becomes a span: name, start, end, parent span and
sample id, kept in flat in-memory columns until the run ends.

Two kinds of span:

* layer spans (the hook table below).  A layer's self time is its duration
  minus that of its direct child *layer* spans, so the forward layers, the
  losses, backward and the optimizer partition the step time;
* op spans (every public op function of ``hrt.tensor``).  They nest inside
  layer spans and are reported as a cross-cut (count, time, output bytes,
  computed MACs), never subtracted from a layer's self time.

Backward closures run inside ``Tensor.backward`` and are not op calls, so
einsum time is forward-only; backward einsum MACs are computed as 2x the
forward MACs of every einsum/matmul whose output joined the graph.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array

import numpy as np

# (module where the name is looked up, attribute path, layer name)
LAYER_HOOKS = (
    ("hrt.model", "HrtModel.forward", "model.forward"),
    ("hrt.model", "encode", "encoder.attention"),
    ("hrt.encoder", "batched_primary_capsules", "routing.primary"),
    ("hrt.encoder", "batched_em_routing", "routing.em"),
    ("hrt.encoder", "inverted_routing", "routing.inverted"),
    ("hrt.model", "adjust_class_attributes", "decoder"),
    ("hrt.model", "content_attribute_scores", "decoder"),
    ("hrt.model", "class_scores", "decoder"),
    ("hrt.train", "cross_entropy", "losses"),
    ("hrt.train", "calibration_loss", "losses"),
    ("hrt.train", "attribute_regression_loss", "losses"),
    ("hrt.train", "predict", "losses"),
    ("hrt.train", "optimizer_step", "optim"),
    ("hrt.tensor", "Tensor.backward", "tensor.backward"),
    ("hrt.model", "compact_semantics", "semantics.compact"),
    # reached only through the CLI
    ("hrt.cli", "generate_synthetic", "data.generate"),
    ("hrt.cli", "save_dataset", "data.save"),
    ("hrt.cli", "load_features", "data.load"),
    ("hrt.cli", "save_checkpoint", "train.save_checkpoint"),
    ("hrt.cli", "load_checkpoint", "train.load_checkpoint"),
)
# public functions of hrt.tensor that build no graph node
NOT_OPS = frozenset({"as_tensor", "no_grad"})
KERNEL_OPS = ("einsum", "matmul")


class HookError(RuntimeError):
    """A hook target is missing or was not called as expected."""


def _resolve(module: str, path: str):
    """Return (owner, attribute, current value) for ``module`` + ``path``."""
    try:
        owner = importlib.import_module(module)
    except ImportError as e:
        raise HookError(f"hook target {module}.{path}: {e}") from e
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook target {module}.{path} does not exist")
    value = getattr(owner, parts[-1], None)
    if not callable(value):
        raise HookError(f"hook target {module}.{path} does not exist")
    return owner, parts[-1], value


def _einsum_macs(args) -> int:
    subscripts, a, b = args[0], args[1], args[2]
    inputs = subscripts.replace(" ", "").split("->")[0].split(",")
    extent = {}
    for sub, t in zip(inputs, (a, b)):
        extent.update(zip(sub, t.data.shape))
    return math.prod(extent.values())


def _matmul_macs(args) -> int:
    a, b = args[0].data.shape, args[1].data.shape
    return a[0] * a[1] * b[1]


def op_names() -> list[str]:
    """The public op functions defined in hrt.tensor."""
    tensor = importlib.import_module("hrt.tensor")
    names = sorted(name for name, fn in vars(tensor).items()
                   if inspect.isfunction(fn) and fn.__module__ == "hrt.tensor"
                   and not name.startswith("_") and name not in NOT_OPS)
    for name in KERNEL_OPS:
        if name not in names:
            raise HookError(f"hook target hrt.tensor.{name} does not exist")
    return names


def layer_targets() -> list[str]:
    return [f"{module}.{path}" for module, path, _ in LAYER_HOOKS]


def expect_calls(calls: dict[str, int], expected: dict[str, int]) -> None:
    """Raise HookError naming every target whose call count differs."""
    wrong = [f"{t} called {calls.get(t)} times, expected {n}"
             for t, n in expected.items() if calls.get(t) != n]
    if wrong:
        raise HookError("; ".join(wrong))


class Tracer:
    """Installs the hooks, records spans, and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.is_op: list[bool] = []
        self._name_ids: dict[str, int] = {}
        self.calls: dict[str, int] = {}     # "module.path" -> calls
        self.name = array("i")
        self.parent = array("i")
        self.sample = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self.macs = array("q")
        self.grad = array("b")
        self._stack = [-1]
        self._sample_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, is_op: bool) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.is_op.append(is_op)
        return self._name_ids[name]

    def _wrap(self, fn, target: str, name: str, is_op: bool, macs=None,
              new_sample: bool = False):
        nid = self._name_id(name, is_op)
        self.calls.setdefault(target, 0)
        calls, stack = self.calls, self._stack
        cols = (self.name, self.parent, self.sample, self.start, self.end,
                self.nbytes, self.macs, self.grad)
        c_name, c_parent, c_sample, c_start, c_end, c_bytes, c_macs, c_grad = cols
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[target] += 1
            if new_sample:
                tracer._sample_id += 1
            i = len(c_start)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_sample.append(tracer._sample_id)
            c_start.append(0.0)
            c_end.append(0.0)
            c_bytes.append(0)
            c_macs.append(0)
            c_grad.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                c_start[i] = t0
                c_end[i] = t1
            if is_op:
                c_bytes[i] = out.data.nbytes
                c_grad[i] = out.requires_grad
                if macs is not None:
                    c_macs[i] = macs(args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every hook target; a missing one raises HookError naming it."""
        targets = []
        for module, path, layer in LAYER_HOOKS:
            targets.append((module, path, layer, False))
        for op in op_names():
            targets.append(("hrt.tensor", op, f"tensor.{op}", True))
        resolved = [(_resolve(m, p), m, p, layer, is_op)
                    for m, p, layer, is_op in targets]
        for (owner, attr, fn), module, path, layer, is_op in resolved:
            macs = {"einsum": _einsum_macs, "matmul": _matmul_macs}.get(path) \
                if is_op else None
            wrapped = self._wrap(fn, f"{module}.{path}", layer, is_op, macs,
                                 new_sample=(layer == "model.forward"))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {key: np.array(getattr(self, key)) for key in
                ("name", "parent", "sample", "start", "end", "nbytes", "macs",
                 "grad")}

    def totals(self) -> dict[str, dict]:
        """Per span name: count, self seconds, inclusive seconds, output
        bytes, forward MACs and computed backward MACs."""
        col = self.columns()
        n = col["name"].size
        dur = col["end"] - col["start"]
        is_op = np.asarray(self.is_op, dtype=bool)[col["name"]] \
            if n else np.zeros(0, dtype=bool)
        parent = col["parent"]
        has_parent = parent >= 0
        child_time = np.zeros(n)
        for child_kind in (False, True):
            sel = has_parent & (is_op == child_kind)
            same_kind = sel.copy()
            same_kind[sel] = is_op[parent[sel]] == child_kind
            child_time += np.bincount(parent[same_kind],
                                      weights=dur[same_kind], minlength=n)
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            sel = col["name"] == nid
            if not sel.any():
                continue
            macs = col["macs"][sel]
            out[name] = {
                "count": int(sel.sum()),
                "self_s": float(self_time[sel].sum()),
                "incl_s": float(dur[sel].sum()),
                "bytes": int(col["nbytes"][sel].sum()),
                "macs_fwd": int(macs.sum()),
                "macs_bwd": int(2 * macs[col["grad"][sel] == 1].sum()),
                "is_op": bool(self.is_op[nid]),
            }
        return out

    def per_sample_op_counts(self) -> np.ndarray:
        """[samples, 3]: op calls, output bytes and forward MACs per sample id."""
        col = self.columns()
        is_op = np.asarray(self.is_op, dtype=bool)
        sel = is_op[col["name"]] & (col["sample"] >= 0) if col["name"].size \
            else np.zeros(0, dtype=bool)
        sample = col["sample"][sel]
        if sample.size == 0:
            return np.zeros((0, 3), dtype=np.int64)
        sample = sample - sample.min()
        return np.stack([np.bincount(sample),
                         np.bincount(sample, weights=col["nbytes"][sel]),
                         np.bincount(sample, weights=col["macs"][sel])],
                        axis=1).astype(np.int64)

    def save(self, path, **meta) -> None:
        """Write the spans and their name table to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            is_op=np.array(self.is_op), **self.columns(),
                            meta=np.array(repr(meta)))


class StepClock:
    """Records one timestamp each time one of its hook targets returns: by
    default ``hrt.train.optimizer_step`` (one stamp per minibatch), or e.g.
    ``hrt.model.HrtModel.forward`` (one stamp per sample) or the draws of
    ``hrt.rng.SeededRng``.

    Installed over any tracer hook, so it costs one ``perf_counter`` call and
    one list append per call in both traced and untraced runs: well under a
    microsecond against a minibatch of about 100 ms, a forward pass of about
    4 ms or the about 17 us between two draws of the data generation, at the
    default config.
    """

    def __init__(self, module: str = "hrt.train", *paths: str):
        self.stamps: list[float] = []
        self._targets = [(module, path) for path in paths or ("optimizer_step",)]
        self._saved = []

    def __enter__(self):
        stamps, clock = self.stamps, time.perf_counter
        for target in self._targets:
            owner, attr, fn = _resolve(*target)

            def stamped(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                stamps.append(clock())
                return out

            self._saved.append((owner, attr, fn))
            setattr(owner, attr, stamped)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False
