"""Dense float64 tensors with reverse-mode gradient accumulation.

Every differentiable computation in the package (routing, encoder, decoder,
losses) is expressed through the ops in this module, so the analytic gradients
produced by :meth:`Tensor.backward` are exactly what the finite-difference
checker in ``gradcheck.py`` validates.

Design notes:
  * float64 everywhere; central differences are meaningless at float32.
  * a contraction that is one matrix product runs on BLAS: each letter is
    free (in one operand and the output) or contracted (in both operands,
    not the output), and the output lists one operand's free letters, then
    the other's.  It is one ``np.matmul`` on transposed, reshaped views of
    the operands.  Any other contraction, with a batch letter (in both
    operands and the output) or a letter summed out of one operand only, is
    a non-optimized ``np.einsum``, which reduces in a fixed left-to-right
    order.  Both repeat their bytes for operands of one memory layout, and
    BLAS's do not depend on its thread count; they do depend on the kernels
    OpenBLAS picks for the CPU, as do the BLAS and LAPACK calls of
    ``hrt gen`` and ``compact_semantics``.  ``matmul`` is the 2-D spelling
    ``ik,kj->ij`` of the same contraction as ``einsum``.
  * each op checks the shapes its backward relies on, so callers check
    none: a contraction needs one axis per letter in each operand and one
    extent per letter, as ``np.einsum`` broadcasts an extent of 1 against
    any extent of the same letter.
  * a contraction resolves its plan once per subscripts and operand shapes
    (``_plan``, cached): the extent check, then for its forward product and
    both gradients the einsum or the BLAS transposes and reshapes.
  * a parameter's gradient that runs on BLAS and has at least 2**18
    elements (``enc.proj``'s from d_feat 128 on, as in the benchmark's
    train_wide_grid, and not at the default shape) is computed on one
    helper thread, which also adds it to ``.grad``, while the calling thread
    goes on to the next sample's forward.  The calling thread allocates the
    arrays the products are written into: the first becomes ``.grad``, and
    each later one goes into one spare array the parameter keeps.  The one
    worker runs its tasks first in first out, and a parameter has at most
    one task in flight, so every product and every sum is the one the
    calling thread would make, in the same order, and the bytes do not
    move.  Reading ``.grad`` waits for the parameter's task and raises what
    it raised, at every read; setting it waits and drops a task that
    failed.  A parameter used twice in one graph
    sums its contributions on the calling thread, out of place, as any
    shared node does.  Until ``.grad`` is read, the task reads the upstream
    gradient and the other operand's data, so neither may be written in
    place before then: the optimizer and ``grad_check`` read every gradient
    before they write a parameter.  The helper starts on first use in each
    process id (a forked child makes its own, and a fork waits for the
    helper's tasks), and only when the process may run on two CPUs or more.
    A tracer's time for ``Tensor.backward`` no longer holds these products:
    they overlap the next forward.
  * every op validates finiteness of its result; NaN/Inf raises NumericError
    instead of propagating silently.
  * backward computes only the gradients something reads: an op's closure
    returns None for an operand that does not require a gradient.
  * every array an op's backward returns has its operand's shape, so
    backward adds it as it is: no op broadcasts an operand, and none has a
    gradient to sum back down.
  * every array an op's backward returns is one it allocated: it shares
    memory with no input, output, operand or other returned array, and the
    closure holds on to none of them.  So a leaf adopts its first gradient
    as its ``.grad``, which training then scales in place.
  * backward visits the graph in one fixed order (a depth-first topological
    sort over the parents in argument order), and that order fixes the order
    in which the contributions to a shared node's gradient are summed.  Float
    addition is not associative, so the visiting order is part of the byte
    contract: changing it changes trained weights in the last bits.
  * each loss term is one node (``log_softmax_nll``, ``squared_distance``)
    with its own backward, and the weighted loss total is one more
    (``weighted_sum``), as is EM's activation-weighted mean of the poses
    (``weighted_mean``).  Constants such as the calibration offsets, the
    regression target and the loss weights enter a node as arrays or floats.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

_GRAD_ENABLED = [True]
_F64 = np.dtype(np.float64)
_all = np.logical_and.reduce


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    # the reduction .all() runs, without its Python wrapper
    if not _all(np.isfinite(arr), axis=None):
        raise NumericError(f"non-finite value produced by {what}")
    return arr


class Tensor:
    """A numpy-backed value node in a reverse-mode computation graph."""

    # _spare is set only on a parameter whose gradient runs on the helper
    __slots__ = ("data", "_grad", "_pending", "_spare", "requires_grad",
                 "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = _check_finite(arr, "tensor construction")
        self._grad: np.ndarray | None = None
        self._pending: Future | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def parameter(cls, data: np.ndarray) -> "Tensor":
        """A leaf that requires a gradient and holds ``data``, a finite
        float64 array, as it is.  Unlike the constructor it does not check
        ``data`` again: that check builds a boolean mask the size of the
        array, and a model's parameters are drawn finite or checked as a
        checkpoint is read."""
        out = cls.__new__(cls)
        out.data = data
        out._grad = None
        out._pending = None
        out.requires_grad = True
        out._parents = ()
        out._backward = None
        return out

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None], what: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        out.data = _check_finite(data, what)
        out._grad = None
        out._pending = None
        out._parents = ()
        out._backward = None
        out.requires_grad = False
        if _GRAD_ENABLED[-1]:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
                    break
        return out

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into leaf .grad fields."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if node in seen or not node.requires_grad:
                continue
            seen.add(node)
            stack.append((node, True))
            # a parent that needs no gradient would be popped and skipped
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(node)
            if node._backward is None:
                # g is this node's alone (see the design notes)
                if type(g) is _Deferred:
                    _accumulate_on_helper(node, g)
                elif node.grad is None:
                    node.grad = g
                else:
                    node.grad += g
                continue
            # an op's closure returns None for each parent that needs no
            # gradient
            for parent, contrib in zip(node._parents, node._backward(g)):
                if contrib is None:
                    continue
                if parent in grads:
                    # a parameter used twice sums its products here, not
                    # on the helper thread
                    first = grads[parent]
                    if type(first) is _Deferred:
                        first = first()
                    if type(contrib) is _Deferred:
                        contrib = contrib()
                    # not +=, which keeps the first array's memory layout:
                    # einsum's summation order follows its operands' layouts
                    grads[parent] = first + contrib
                else:
                    grads[parent] = contrib

    # -- convenience --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient accumulated into this leaf.  It waits for the
        leaf's gradient product still running on the helper thread; if that
        raised, every read raises it until the gradient is set."""
        if self._pending is not None:
            self._pending.result()
            self._pending = None
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        # waits for the task; one that failed is dropped with what it left
        if self._pending is not None:
            self._pending.exception()
            self._pending = None
        self._grad = value

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# -- elementwise ops ---------------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function, elementwise."""
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return Tensor._from_op(out_data, (a,),
                           lambda g: (g * out_data * (1.0 - out_data),),
                           "sigmoid")


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with a fixed left-to-right inner reduction."""
    return _contract("ik,kj->ij", a, b, "matmul")


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum where each index letter appears at most once per
    operand; the gradient is the einsum with subscripts swapped accordingly."""
    return _contract(subscripts, a, b, "einsum")


@functools.cache
def _plan(subscripts: str, a_shape: tuple[int, ...], b_shape: tuple[int, ...],
          what: str) -> tuple[tuple, tuple, tuple]:
    """The ``_product`` recipes of a two-operand einsum of operands shaped
    ``a_shape`` and ``b_shape``: its forward product, then the gradients of
    a and b.  DimensionError unless each operand has one axis per letter and
    each letter one extent."""
    inputs, out = subscripts.replace(" ", "").split("->")
    a_sub, b_sub = inputs.split(",")
    extents: dict[str, int] = {}
    for sub, shape in ((a_sub, a_shape), (b_sub, b_shape)):
        if len(sub) != len(shape) or any(
                extents.setdefault(c, n) != n for c, n in zip(sub, shape)):
            raise DimensionError(f"{what} {subscripts!r} does not fit "
                                 f"shapes {a_shape} and {b_shape}")
    return (_recipe(a_sub, b_sub, out, extents),
            _recipe(out, b_sub, a_sub, extents),
            _recipe(out, a_sub, b_sub, extents))


def _recipe(x_sub: str, y_sub: str, out: str, extents: dict) -> tuple:
    """``(subscripts, blas)``: ``blas`` is None unless the product is one
    matrix product (see the design notes), else ``(swap, x_axes, y_axes,
    x_2d, y_2d, shape)``: swap the operands if the second's free letters lead
    the output, transpose each by its axes, reshape it to its 2-D shape,
    multiply them and reshape the product to ``shape``; a transpose or
    reshape that would change nothing is None."""
    subscripts = f"{x_sub},{y_sub}->{out}"
    if (any(len(set(s)) != len(s) for s in (x_sub, y_sub, out))
            or set(out) != set(x_sub) ^ set(y_sub)):
        return subscripts, None
    for swap, first, second in ((False, x_sub, y_sub), (True, y_sub, x_sub)):
        summed = "".join(c for c in first if c in second)
        n = len(first) - len(summed)
        if set(out[:n]) <= set(first):
            break
    else:
        return subscripts, None
    orders = (out[:n] + summed, summed + out[n:], out)
    axes = [None if order == sub else tuple(map(sub.index, order))
            for sub, order in zip((first, second), orders)]
    m, k, p = (math.prod(extents[c] for c in s)
               for s in (out[:n], summed, out[n:]))
    x_2d, y_2d, out_2d = (
        None if tuple(extents[c] for c in order) == shape_2d else shape_2d
        for order, shape_2d in zip(orders, ((m, k), (k, p), (m, p))))
    shape = None if out_2d is None else tuple(extents[c] for c in out)
    return subscripts, (swap, *axes, x_2d, y_2d, shape)


# an overflow is left to the op's finiteness check
_blas_matmul = np.errstate(over="ignore", invalid="ignore")(np.matmul)


def _product(recipe: tuple, x: np.ndarray, y: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """One product of a ``_plan``: one BLAS matrix product on transposed,
    reshaped views, else the fixed-order ``np.einsum``.  A BLAS product may
    be written into ``out``, a C-contiguous array of the product's shape;
    it has the same bytes."""
    subscripts, blas = recipe
    if blas is None:
        return np.einsum(subscripts, x, y, optimize=False)
    swap, x_axes, y_axes, x_2d, y_2d, shape = blas
    if swap:
        x, y = y, x
    if x_axes is not None:
        x = x.transpose(x_axes)
    if x_2d is not None:
        x = x.reshape(x_2d)
    if y_axes is not None:
        y = y.transpose(y_axes)
    if y_2d is not None:
        y = y.reshape(y_2d)
    if out is not None:
        _blas_matmul(x, y, out=out if shape is None
                     else out.reshape(len(x), -1))
        return out
    xy = _blas_matmul(x, y)
    return xy if shape is None else xy.reshape(shape)


def _contract(subscripts: str, a: Tensor, b: Tensor, what: str) -> Tensor:
    # matmul and einsum share this body: one public op calling the other
    # would count as two ops to a tracer that wraps each
    forward, grad_a, grad_b = _plan(subscripts, a.shape, b.shape, what)
    out_data = _product(forward, a.data, b.data)

    def backward(g):
        return (_gradient(grad_a, g, b.data, a) if a.requires_grad else None,
                _gradient(grad_b, g, a.data, b) if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), backward, what)


# -- the helper thread -------------------------------------------------------
#
# A parameter's gradient product that runs on BLAS and has at least
# _HELPER_MIN_SIZE elements is left to ``Tensor.backward``, which runs it on
# one helper thread (see the design notes).  A task costs the calling thread
# about five thread switches, so it pays only for a large enough product.
# enc.proj's product sums over only R rows, so its cost follows its size,
# not its multiply-adds: in wall-clock training on a 2-vCPU VM
# (BENCH_33.json, threshold_wall_clock), the helper's median gain was +10 %
# at R 9 and +34 % at R 36 with d_feat 128 (2**18 elements), and -12 % and
# -1 % at d_feat 64 (2**17, the default shape), whose R 36 has twice the
# multiply-adds of R 9 at d_feat 128.

_HELPER_MIN_SIZE = 1 << 18


def _gradient(recipe: tuple, g: np.ndarray, other: np.ndarray,
              operand: Tensor):
    """The gradient of a contraction's ``operand``, the product of the
    upstream ``g`` and the ``other`` operand's data: deferred when it is a
    large parameter gradient on BLAS and this process has a helper."""
    if (operand._backward is None and recipe[1] is not None
            and operand.data.size >= _HELPER_MIN_SIZE
            and _helper() is not None):
        return _Deferred(recipe, g, other)
    return _product(recipe, g, other)


class _Deferred:
    """A parameter's gradient product, not yet computed; calling it
    computes it, into ``out`` if given."""

    __slots__ = ("recipe", "x", "y")

    def __init__(self, recipe: tuple, x: np.ndarray, y: np.ndarray):
        self.recipe, self.x, self.y = recipe, x, y

    def __call__(self, out: np.ndarray | None = None) -> np.ndarray:
        return _product(self.recipe, self.x, self.y, out)


class _Helper:
    """This process's helper thread, which runs gradient products first in
    first out; it is made on first use, in each process id, and only when
    the process may run on two CPUs or more (``pool`` is None otherwise)."""

    pid: int | None = None
    pool: ThreadPoolExecutor | None = None
    last: Future | None = None     # the task submitted last


def _usable_cpus() -> int:
    """How many CPUs this process may run on; 1 where the platform cannot
    say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _helper() -> ThreadPoolExecutor | None:
    if _Helper.pid != os.getpid():
        _Helper.pid = os.getpid()
        _Helper.pool = _Helper.last = None
        if _usable_cpus() >= 2:
            # imported here: a process that never trains does not pay for it
            from concurrent.futures import ThreadPoolExecutor
            _Helper.pool = ThreadPoolExecutor(1, thread_name_prefix="hrt-grad")
    return _Helper.pool


def _accumulate_on_helper(leaf: Tensor, product: _Deferred) -> None:
    """Run ``product`` on the helper thread into an array allocated here:
    ``leaf`` adopts it as its gradient, or the same task writes it into the
    leaf's spare array and adds that to the gradient the leaf has.
    ``leaf.grad`` waits for the task."""
    grad = leaf.grad    # waits for the leaf's last product: one in flight
    if grad is None:
        out = leaf._grad = np.empty(leaf.data.shape)
    else:
        # one spare array per parameter, not a new array per sample freed
        # on the helper thread: that raised train_wide_grid's peak_rss_mb
        # by about 4 MB
        out = getattr(leaf, "_spare", None)
        if out is None:
            out = leaf._spare = np.empty(leaf.data.shape)
    leaf._pending = _Helper.last = _helper().submit(_add_product, product,
                                                    out, grad)


def _add_product(product: _Deferred, out: np.ndarray,
                 grad: np.ndarray | None) -> None:
    product(out)
    if grad is not None:
        grad += out


def _drain() -> None:
    """Wait for the helper's tasks before the process forks.  Else the
    child would copy a gradient half computed and wait for a task that no
    thread of its own runs, and OpenBLAS, which stops its threads at a
    fork, could stall a product running on the helper."""
    if _Helper.pid == os.getpid() and _Helper.last is not None:
        _Helper.last.exception()    # waits; the exception is .grad's to raise


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_drain)


# -- composite primitives ---------------------------------------------------


def softmax(a: Tensor, axis: int) -> Tensor:
    """Stable softmax along ``axis``; outputs are nonnegative and sum to 1."""
    if a.data.ndim == 0 or a.data.shape[axis] == 0:
        raise DimensionError(f"softmax needs a nonempty axis, shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._from_op(out_data, (a,), backward, "softmax")


def weighted_mean(x: Tensor, w: Tensor) -> Tensor:
    """sum_n w[r, n] * x[r, n] / sum_n w[r, n] of x [R, N, d] and weights
    w [R, N], shape [R, d]."""
    _plan("rn,rnh->rh", w.shape, x.shape, "weighted_mean")
    num = np.einsum("rn,rnh->rh", w.data, x.data, optimize=False)
    den = w.data.sum(axis=1, keepdims=True)

    def backward(g):
        gn = g / den
        gx = (np.einsum("rh,rn->rnh", gn, w.data, optimize=False)
              if x.requires_grad else None)
        gw = (np.einsum("rh,rnh->rn", gn, x.data, optimize=False)
              + (-g * num / (den ** 2)).sum(axis=1, keepdims=True)
              if w.requires_grad else None)
        return gx, gw

    return Tensor._from_op(num / den, (x, w), backward, "weighted_mean")


def log_softmax_nll(s: Tensor, label: int, offset=None) -> Tensor:
    """-log softmax(s + offset)[label] of a 1-D tensor, in stable log-sum-exp
    form; ``offset``, if given, is a constant array shaped like ``s``."""
    if s.data.ndim != 1:
        raise DimensionError(f"log_softmax_nll needs a vector, got {s.shape}")
    if offset is not None and offset.shape != s.shape:
        raise DimensionError(f"offset {offset.shape} != scores {s.shape}")
    if not 0 <= label < s.data.shape[0]:
        raise IndexError(f"label {label} out of range for {s.data.shape[0]} classes")
    z = s.data if offset is None else _check_finite(s.data + offset,
                                                    "log_softmax_nll offset")
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    soft = np.exp(z - lse)

    def backward(g):
        grad = g * soft
        grad[label] += -g
        return (grad,)

    return Tensor._from_op(lse + -z[label], (s,), backward, "log_softmax_nll")


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """sum(w * t) over the terms and their float weights, added left to
    right; the terms have one shape and one weight each."""
    if len({t.data.shape for t in terms}) > 1 or len(weights) != len(terms):
        raise DimensionError(f"weighted_sum got {len(weights)} weights for "
                             f"terms {[t.shape for t in terms]}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = terms[0].data * weights[0]
        for t, w in zip(terms[1:], weights[1:]):
            total = total + t.data * w

    def backward(g):
        return tuple(g * w if t.requires_grad else None
                     for t, w in zip(terms, weights))

    return Tensor._from_op(total, terms, backward, "weighted_sum")


def squared_distance(a: Tensor, target: np.ndarray) -> Tensor:
    """Squared Euclidean distance sum((a - target) ** 2); ``target`` is a
    constant float64 array shaped like ``a``."""
    if target.shape != a.data.shape:
        raise DimensionError(f"squared_distance target {target.shape} is not "
                             f"shaped like {a.shape}")
    d = a.data + -target
    return Tensor._from_op((d ** 2).sum(), (a,), lambda g: (g * 2.0 * d,),
                           "squared_distance")


def layer_norm(a: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis to mean 0 / variance 1 (no affine terms)."""
    if a.data.shape[-1] < 1:
        raise DimensionError("layer_norm needs a nonempty last axis")
    # sum / n is how numpy forms a float64 mean, without its call overhead
    n = a.data.shape[-1]
    mu = a.data.sum(axis=-1, keepdims=True) / n
    centered = a.data - mu
    var = (centered ** 2).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def backward(g):
        gm = g.sum(axis=-1, keepdims=True) / n
        gy = (g * y).sum(axis=-1, keepdims=True) / n
        return (inv * (g - gm - y * gy),)

    return Tensor._from_op(y, (a,), backward, "layer_norm")
