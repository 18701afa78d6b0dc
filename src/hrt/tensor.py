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
  * a constant is a ``Tensor``, and a ``Parameter`` is the one leaf that
    requires a gradient: it holds ``.grad`` and decides how each backward
    pass's gradient reaches it (``Parameter._stack`` and
    ``Parameter._accumulate``).  Every tensor
    is checked finite when built; a parameter by its minimum and maximum,
    which builds no mask the size of the array.
  * a parameter's gradient that runs on BLAS is stacked, not multiplied,
    per sample.  After its recipe's swap, transposes and reshapes it is
    ``x @ y``, x [m, k] and y [k, p]; the op's backward copies x's
    transpose and y into two row buffers the parameter owns, k more rows
    each, in the order backward visits them, and returns None for it.  Once
    the buffers hold at least m rows (k * ceil(m / k), whole samples, so the
    stack is about the size of the gradient) they are multiplied as one
    [m, K] x [K, p] product, which is added to ``.grad``; reading ``.grad``
    multiplies the rows left, and setting it drops them.  A product of
    another m, or whose rows do not fit, first multiplies the rows stacked
    so far, and new buffers are made for its shape.  A gradient that
    reaches the parameter as an array (``Parameter._accumulate``) is added
    after the stacked rows are multiplied in.  The sum is the per-sample
    products' to about 1e-15 relative, not bit for bit: the block
    boundaries and the row order are part of the byte contract.  The
    buffers hold copies, so a caller may write any array once backward
    returns.
  * every op validates finiteness of its result; NaN/Inf raises NumericError
    instead of propagating silently.
  * backward computes only the gradients something reads: an op's closure
    returns None for an operand that does not require a gradient, and for
    a parameter whose gradient it stacked.
  * every array an op's backward returns has its operand's shape, so
    backward adds it as it is: no op broadcasts an operand, and none has a
    gradient to sum back down.
  * every array an op's backward returns is one it allocated: it shares
    memory with no input, output, operand or other returned array, and the
    closure holds on to none of them.  So a parameter adopts its first
    gradient as its ``.grad``, which training then scales in place.
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
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

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
    """A numpy-backed value node in a reverse-mode computation graph:
    built from ``data`` it is a constant, and an op builds the others."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        self.data = _check_finite(arr, "tensor construction")
        self.requires_grad = False
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None], what: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        out.data = _check_finite(data, what)
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
        """Accumulate gradients of this (scalar) tensor into the .grad of
        each parameter it depends on."""
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
            g = grads.pop(node, None)
            if g is None:
                # a parameter whose every gradient was stacked
                continue
            if node._backward is None:
                # a leaf that requires a gradient is a parameter
                node._accumulate(g)
                continue
            # an op's closure returns None for each parent that needs no
            # gradient
            for parent, contrib in zip(node._parents, node._backward(g)):
                if contrib is None:
                    continue
                if parent in grads:
                    # not +=, which keeps the first array's memory layout:
                    # einsum's summation order follows its operands' layouts
                    grads[parent] = grads[parent] + contrib
                else:
                    grads[parent] = contrib

    # -- convenience --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A leaf that requires a gradient, holding ``data``, a finite float64
    array, as it is (a float64 array is not copied: the optimizer and
    ``load_checkpoint`` rely on that).  Each backward pass adds its
    gradient to ``.grad``: stacked as rows if it runs on BLAS (``_stack``),
    else as an array (``_accumulate``)."""

    __slots__ = ("_grad", "_x_rows", "_y_rows", "_stacked")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        # a NaN carries through min and max, and an infinity is one of them,
        # so no mask the size of the array is built
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise NumericError("non-finite value in parameter construction")
        self.data = arr
        self.requires_grad = True
        self._parents = ()
        self._backward = None
        self._grad: np.ndarray | None = None
        # the row buffers of the stacked gradient and how many rows they hold
        self._x_rows: np.ndarray | None = None
        self._y_rows: np.ndarray | None = None
        self._stacked = 0

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient accumulated into this parameter, with the rows
        still stacked multiplied in."""
        if self._stacked:
            self._multiply_stacked()
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._stacked = 0    # drops the stacked rows
        self._grad = value

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g``, a gradient array, to ``.grad`` after the stacked rows,
        adopting it if there is none."""
        grad = self.grad
        if grad is None:
            # g is this parameter's alone (see the design notes)
            self._grad = g
        else:
            grad += g

    def _stack(self, x: np.ndarray, y: np.ndarray) -> None:
        """Stack the gradient ``x @ y``, x [m, k] and y [k, p], as k rows of
        x's transpose and of y, and multiply the rows once there are at
        least m."""
        m, k = x.shape
        rows = self._x_rows
        if rows is None or rows.shape[1] != m or self._stacked + k > len(rows):
            if self._stacked:
                self._multiply_stacked()
            n = k * -(-m // k)
            rows = self._x_rows = np.empty((n, m))
            self._y_rows = np.empty((n, y.shape[1]))
        s = self._stacked
        rows[s:s + k] = x.T
        self._y_rows[s:s + k] = y
        self._stacked = s + k
        if self._stacked >= m:
            self._multiply_stacked()

    def _multiply_stacked(self) -> None:
        n, self._stacked = self._stacked, 0
        self._accumulate(_blas_matmul(self._x_rows[:n].T, self._y_rows[:n])
                         .reshape(self.data.shape))


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


def _views(blas: tuple, x: np.ndarray,
           y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two matrices a BLAS recipe multiplies: x and y, swapped if it
    says so, each transposed and reshaped to 2-D."""
    swap, x_axes, y_axes, x_2d, y_2d, _ = blas
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
    return x, y


def _product(recipe: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One product of a ``_plan``: one BLAS matrix product on transposed,
    reshaped views, else the fixed-order ``np.einsum``."""
    subscripts, blas = recipe
    if blas is None:
        return np.einsum(subscripts, x, y, optimize=False)
    xy = _blas_matmul(*_views(blas, x, y))
    return xy if blas[-1] is None else xy.reshape(blas[-1])


def _gradient(recipe: tuple, g: np.ndarray, other: np.ndarray,
              operand: Tensor) -> np.ndarray | None:
    """The gradient of a contraction's ``operand``, the product of the
    upstream ``g`` and the ``other`` operand's data; a parameter's on BLAS
    is stacked into the parameter, and None returned."""
    if recipe[1] is None or not isinstance(operand, Parameter):
        return _product(recipe, g, other)
    operand._stack(*_views(recipe[1], g, other))
    return None


def _contract(subscripts: str, a: Tensor, b: Tensor, what: str) -> Tensor:
    # matmul and einsum share this body: one public op calling the other
    # would count as two ops to a tracer that wraps each
    forward, grad_a, grad_b = _plan(subscripts, a.shape, b.shape, what)
    out_data = _product(forward, a.data, b.data)

    def backward(g):
        return (_gradient(grad_a, g, b.data, a) if a.requires_grad else None,
                _gradient(grad_b, g, a.data, b) if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), backward, what)


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
