"""Array-valued reverse-mode automatic differentiation on an explicit tape.

Values are double-precision numpy arrays (scalars are 0-d). Operations
append nodes to a Tape in execution order; the backward pass walks the
tape in reverse, which is a valid reverse topological order because
inputs are always recorded before their consumers.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[float, int, Sequence, np.ndarray]


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested primitive."""


class Var:
    """One tape value: a numpy array plus its accumulated gradient."""

    __slots__ = ("value", "grad", "_backward")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape})"


def _accum(var: Var, g: np.ndarray) -> None:
    if var.grad is None:
        var.grad = np.zeros_like(var.value)
    var.grad += g


class Tape:
    """Records primitive ops for one forward pass.

    With ``record=False`` the same code runs forward-only (no gradient
    bookkeeping), which is the fast path for evaluation.
    """

    def __init__(self, record: bool = True, check_finite: bool = False):
        self.record = record
        self.check_finite = check_finite
        self._nodes: list[Var] = []

    # -- construction ----------------------------------------------------

    def leaf(self, value: ArrayLike) -> Var:
        """Wrap an input (parameter or constant). Not recorded: leaves have
        no backward of their own; gradients accumulate into them from
        consumers."""
        return Var(np.asarray(value, dtype=np.float64))

    def _lift(self, x) -> Var:
        return x if isinstance(x, Var) else self.leaf(x)

    def _emit(self, value: np.ndarray, backward) -> Var:
        out = Var(value)
        if self.check_finite and not np.all(np.isfinite(value)):
            raise FloatingPointError("non-finite value produced on tape")
        if self.record:
            out._backward = backward
            self._nodes.append(out)
        return out

    # -- primitives ------------------------------------------------------

    def matvec(self, a, x) -> Var:
        a, x = self._lift(a), self._lift(x)
        if a.value.ndim != 2 or x.value.ndim != 1 or a.value.shape[1] != x.value.shape[0]:
            raise ShapeMismatch(f"matvec {a.value.shape} @ {x.value.shape}")
        out_val = a.value @ x.value

        def backward(g):
            _accum(a, np.outer(g, x.value))
            _accum(x, a.value.T @ g)

        return self._emit(out_val, backward)

    def matvec_t(self, a, x) -> Var:
        """Transposed product a.T @ x for a matrix a and vector x."""
        a, x = self._lift(a), self._lift(x)
        if a.value.ndim != 2 or x.value.ndim != 1 or a.value.shape[0] != x.value.shape[0]:
            raise ShapeMismatch(f"matvec_t {a.value.shape}.T @ {x.value.shape}")
        out_val = a.value.T @ x.value

        def backward(g):
            _accum(a, np.outer(x.value, g))
            _accum(x, a.value @ g)

        return self._emit(out_val, backward)

    def vecadd(self, a, b) -> Var:
        a, b = self._lift(a), self._lift(b)
        if a.value.shape != b.value.shape:
            raise ShapeMismatch(f"vecadd {a.value.shape} + {b.value.shape}")
        out_val = a.value + b.value

        def backward(g):
            _accum(a, g)
            _accum(b, g)

        return self._emit(out_val, backward)

    def add_scalar(self, x, s) -> Var:
        """Broadcast-add a scalar onto every entry of x."""
        x, s = self._lift(x), self._lift(s)
        if s.value.ndim != 0:
            raise ShapeMismatch("add_scalar needs a scalar second operand")
        out_val = x.value + s.value

        def backward(g):
            _accum(x, g)
            _accum(s, np.sum(g))

        return self._emit(out_val, backward)

    def concat(self, parts: Sequence) -> Var:
        """Concatenate scalars and 1-d vectors into one vector, or matrices
        with equal column counts along their rows."""
        parts = [self._lift(p) for p in parts]
        if not parts:
            raise ShapeMismatch("concat of empty sequence")
        pieces = [np.atleast_1d(p.value) for p in parts]
        sizes = [piece.shape[0] for piece in pieces]
        out_val = np.concatenate(pieces)

        def backward(g):
            offset = 0
            for p, size in zip(parts, sizes):
                chunk = g[offset : offset + size]
                _accum(p, chunk.reshape(p.value.shape))
                offset += size

        return self._emit(out_val, backward)

    def stack_rows(self, parts: Sequence) -> Var:
        """Stack equal-length vectors into a matrix, one per row."""
        parts = [self._lift(p) for p in parts]
        if not parts or any(p.value.ndim != 1 for p in parts):
            raise ShapeMismatch("stack_rows needs a nonempty list of vectors")
        out_val = np.stack([p.value for p in parts])

        def backward(g):
            for i, p in enumerate(parts):
                _accum(p, g[i])

        return self._emit(out_val, backward)

    def dot(self, a, b) -> Var:
        a, b = self._lift(a), self._lift(b)
        if a.value.ndim != 1 or a.value.shape != b.value.shape:
            raise ShapeMismatch(f"dot {a.value.shape} . {b.value.shape}")
        out_val = np.asarray(a.value @ b.value)

        def backward(g):
            _accum(a, g * b.value)
            _accum(b, g * a.value)

        return self._emit(out_val, backward)

    def scale(self, x, c) -> Var:
        """Multiply x elementwise by a scalar (constant or scalar Var)."""
        x = self._lift(x)
        c = self._lift(c)
        if c.value.ndim != 0:
            raise ShapeMismatch("scale factor must be a scalar")
        out_val = x.value * c.value

        def backward(g):
            _accum(x, g * c.value)
            _accum(c, np.sum(g * x.value))

        return self._emit(out_val, backward)

    def leaky_relu(self, x, slope: float = 0.2) -> Var:
        x = self._lift(x)
        out_val = np.where(x.value > 0, x.value, slope * x.value)

        def backward(g):
            _accum(x, g * np.where(x.value > 0, 1.0, slope))

        return self._emit(out_val, backward)

    def tanh(self, x) -> Var:
        x = self._lift(x)
        out_val = np.tanh(x.value)

        def backward(g):
            _accum(x, g * (1.0 - out_val * out_val))

        return self._emit(out_val, backward)

    def softmax(self, x) -> Var:
        """Stable softmax of a vector (max-subtracted)."""
        x = self._lift(x)
        if x.value.ndim != 1 or x.value.size == 0:
            raise ShapeMismatch("softmax expects a nonempty vector")
        z = x.value - np.max(x.value)
        e = np.exp(z)
        p = e / np.sum(e)

        def backward(g):
            _accum(x, p * (g - np.dot(p, g)))

        return self._emit(p, backward)

    def masked_softmax(self, x, mask: np.ndarray) -> Var:
        """Softmax restricted to `mask`; masked entries are exactly 0.

        Saturation: entries outside the mask produce probability 0 and
        receive zero gradient.
        """
        x = self._lift(x)
        mask = np.asarray(mask, dtype=bool)
        if x.value.shape != mask.shape or x.value.ndim != 1:
            raise ShapeMismatch("masked_softmax mask/logit shape mismatch")
        if not mask.any():
            raise ShapeMismatch("masked_softmax with empty mask")
        z = x.value - np.max(x.value[mask])
        e = np.where(mask, np.exp(np.where(mask, z, 0.0)), 0.0)
        p = e / np.sum(e)

        def backward(g):
            _accum(x, p * (g - np.dot(p, g)))

        return self._emit(p, backward)

    def log(self, x) -> Var:
        x = self._lift(x)
        # log(0) and log(<0) are left to check_finite, not warned about.
        with np.errstate(divide="ignore", invalid="ignore"):
            out_val = np.log(x.value)

        def backward(g):
            _accum(x, g / x.value)

        return self._emit(out_val, backward)

    def plogp(self, x) -> Var:
        """Elementwise x*log(x) with the 0*log(0) = 0 saturation.

        Gradient is likewise saturated to 0 where x == 0, so structurally
        masked probabilities contribute nothing.
        """
        x = self._lift(x)
        pos = x.value > 0
        out_val = np.zeros_like(x.value)
        out_val[pos] = x.value[pos] * np.log(x.value[pos])

        def backward(g):
            d = np.zeros_like(x.value)
            d[pos] = np.log(x.value[pos]) + 1.0
            _accum(x, g * d)

        return self._emit(out_val, backward)

    def vsum(self, x) -> Var:
        x = self._lift(x)
        out_val = np.asarray(np.sum(x.value))

        def backward(g):
            _accum(x, np.broadcast_to(g, x.value.shape).copy())

        return self._emit(out_val, backward)

    def gather_row(self, x, i: int) -> Var:
        """Row i of a matrix (or entry i of a vector)."""
        x = self._lift(x)
        if x.value.ndim not in (1, 2):
            raise ShapeMismatch("gather_row expects a vector or matrix")
        if not 0 <= i < x.value.shape[0]:
            raise ShapeMismatch(f"gather_row index {i} out of range")
        out_val = np.asarray(x.value[i])

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            x.grad[i] += g

        return self._emit(out_val, backward)

    def gather_rows(self, x, idx) -> Var:
        """Rows `idx` of a matrix (entries of a vector), in the given order."""
        x = self._lift(x)
        idx = np.asarray(idx, dtype=np.intp)
        if x.value.ndim not in (1, 2) or idx.ndim != 1:
            raise ShapeMismatch("gather_rows expects a vector or matrix and 1-d indices")
        if idx.size and (idx.min() < 0 or idx.max() >= x.value.shape[0]):
            raise ShapeMismatch(f"gather_rows index out of range 0..{x.value.shape[0] - 1}")
        distinct = len(set(idx.tolist())) == idx.size
        out_val = x.value[idx]

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            if distinct:
                x.grad[idx] += g
            else:
                np.add.at(x.grad, idx, g)

        return self._emit(out_val, backward)

    def matmul_t(self, a, b, bias=None) -> Var:
        """a @ b.T for matrices a (n, k) and b (m, k), plus an optional
        bias vector (m,) added to every row."""
        a, b = self._lift(a), self._lift(b)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
            raise ShapeMismatch(f"matmul_t {a.value.shape} @ {b.value.shape}.T")
        out_val = a.value @ b.value.T
        if bias is not None:
            bias = self._lift(bias)
            if bias.value.shape != (b.value.shape[0],):
                raise ShapeMismatch(f"matmul_t bias {bias.value.shape} for {out_val.shape}")
            out_val += bias.value

        def backward(g):
            _accum(a, g @ b.value)
            _accum(b, g.T @ a.value)
            if bias is not None:
                _accum(bias, g.sum(axis=0))

        return self._emit(out_val, backward)

    def multihead_attention(self, h, nbr_idx, mask, a, slope: float = 0.2) -> Var:
        """HAN node-level attention of row 0 of `h` over R neighborhoods,
        all heads at once (see `attention_weights` for the arguments).

        Row r of the (R, heads * f) result is the concatenation over heads
        k of leaky_relu(sum_j alpha[r, k, j] * h[nbr_idx[r, j]]).
        """
        h, a = self._lift(h), self._lift(a)
        nbr_idx = np.asarray(nbr_idx, dtype=np.intp)
        mask = np.asarray(mask, dtype=bool)
        hn, pre, alpha = attention_weights(h.value, nbr_idx, mask, a.value, slope)
        n_rows, heads, _ = alpha.shape
        f = h.value.shape[1]
        agg = alpha @ hn
        out_val = np.where(agg > 0, agg, slope * agg).reshape(n_rows, heads * f)

        def backward(g):
            a3 = a.value.reshape(n_rows, heads, 2 * f)
            g_agg = g.reshape(agg.shape) * np.where(agg > 0, 1.0, slope)
            g_alpha = g_agg @ hn.transpose(0, 2, 1)
            g_e = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=-1, keepdims=True))
            g_pre = g_e * np.where(pre > 0, 1.0, slope)
            g_self = g_pre.sum(axis=-1)
            g_hn = alpha.transpose(0, 2, 1) @ g_agg + g_pre.transpose(0, 2, 1) @ a3[..., f:]
            g_h = np.zeros_like(h.value)
            np.add.at(g_h, nbr_idx, g_hn)
            g_h[0] += np.einsum("rk,rkf->f", g_self, a3[..., :f])
            _accum(h, g_h)
            g_a = np.concatenate((g_self[..., None] * h.value[0], g_pre @ hn), axis=-1)
            _accum(a, g_a.reshape(a.value.shape))

        return self._emit(out_val, backward)

    def slice1d(self, x, start: int, stop: int) -> Var:
        x = self._lift(x)
        if x.value.ndim != 1:
            raise ShapeMismatch("slice1d expects a vector")
        out_val = x.value[start:stop]

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            x.grad[start:stop] += g

        return self._emit(out_val, backward)

    # -- backward --------------------------------------------------------

    def backward(self, out: Var) -> None:
        """Accumulate d(out)/d(leaf) into every reachable Var's .grad."""
        if out.value.ndim != 0:
            raise ValueError("backward target must be a scalar")
        out.grad = np.ones_like(out.value)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)

    def gradients(self, out: Var, leaves: dict[str, Var]) -> dict[str, np.ndarray]:
        self.backward(out)
        return {
            name: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for name, v in leaves.items()
        }


def attention_weights(
    h: np.ndarray,
    nbr_idx: np.ndarray,
    mask: np.ndarray,
    a: np.ndarray,
    slope: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-head node-level attention weights of HAN, padded neighborhoods.

    `h` (n, f) holds the node features, row 0 the attending node;
    neighborhood r is rows ``nbr_idx[r, j]`` of `h` where ``mask[r, j]``;
    `a` (R * heads, 2f) holds one block of heads per neighborhood, each
    row [a_self || a_nbr]. The logit of head k for neighbor j is
    leaky_relu(a_self . h[0] + a_nbr . h[nbr_idx[r, j]]).

    Returns the gathered neighbors (R, L, f), the logits before the
    leaky ReLU (R, heads, L) and the weights alpha (R, heads, L), which
    are 0 outside the mask and sum to 1 over each neighborhood.
    """
    if nbr_idx.ndim != 2 or mask.shape != nbr_idx.shape or nbr_idx.shape[0] == 0:
        raise ShapeMismatch(f"neighbor index {nbr_idx.shape} with mask {mask.shape}")
    if not mask.any(axis=1).all():
        raise ShapeMismatch("attention over an empty neighborhood")
    n_rows = nbr_idx.shape[0]
    if h.ndim != 2 or a.ndim != 2 or a.shape[1] != 2 * h.shape[1] or a.shape[0] % n_rows:
        raise ShapeMismatch(f"attention over {h.shape} features with weights {a.shape}")
    if nbr_idx.min() < 0 or nbr_idx.max() >= h.shape[0]:
        raise ShapeMismatch(f"neighbor index out of range 0..{h.shape[0] - 1}")
    f = h.shape[1]
    a3 = a.reshape(n_rows, -1, 2 * f)
    hn = h[nbr_idx]
    pre = (a3[..., :f] @ h[0])[..., None] + a3[..., f:] @ hn.transpose(0, 2, 1)
    e = np.where(mask[:, None, :], np.where(pre > 0, pre, slope * pre), -np.inf)
    w = np.exp(e - e.max(axis=-1, keepdims=True))
    return hn, pre, w / w.sum(axis=-1, keepdims=True)


def grad_check(
    fun: Callable[[Tape, dict[str, Var]], Var],
    params: dict[str, np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    `fun(tape, leaves)` must build a scalar Var and be deterministic for
    fixed parameter values (seed any internal randomness per call). The
    error for each entry is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|); the max over all entries comes back.
    """
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    out = fun(tape, leaves)
    analytic = tape.gradients(out, leaves)

    def value_at() -> float:
        t = Tape(record=False)
        lv = {k: t.leaf(v) for k, v in params.items()}
        return float(fun(t, lv).value)

    worst = 0.0
    for name, arr in params.items():
        ana_flat = analytic[name].ravel()
        for i in range(arr.size):
            keep = arr.flat[i]
            arr.flat[i] = keep + eps
            f_plus = value_at()
            arr.flat[i] = keep - eps
            f_minus = value_at()
            arr.flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * eps)
            ana = ana_flat[i]
            err = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
            worst = max(worst, err)
    return worst
