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
        # zeros + g in one pass, bit for bit (-0.0 included), into an array
        # of its own: a caller may hand the same g to several inputs
        var.grad = np.add(g, 0.0, out=np.empty_like(var.value))
    else:
        var.grad += g


class Tape:
    """Records primitive ops for one forward pass.

    With ``record=False`` the same code runs forward-only (no gradient
    bookkeeping), which is the fast path for evaluation.
    """

    def __init__(self, record: bool = True):
        self.record = record
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
        if self.record:
            out._backward = backward
            self._nodes.append(out)
        return out

    # -- primitives ------------------------------------------------------

    def matvec(self, a, x) -> Var:
        """Product a @ x of a vector x and an array a whose last axis has
        x's length: (..., n) @ (n,) -> (...)."""
        a, x = self._lift(a), self._lift(x)
        if a.value.ndim < 2 or x.value.ndim != 1 or a.value.shape[-1] != x.value.shape[0]:
            raise ShapeMismatch(f"matvec {a.value.shape} @ {x.value.shape}")
        out_val = a.value @ x.value

        def backward(g):
            _accum(a, g[..., None] * x.value)
            _accum(x, a.value.reshape(-1, x.value.size).T @ g.reshape(-1))

        return self._emit(out_val, backward)

    def matvec_t(self, a, x) -> Var:
        """Transposed product a.T @ x of a matrix a (n, m) and vector x (n,),
        or one such product per leading index: (..., n, m) and (..., n)
        give (..., m)."""
        a, x = self._lift(a), self._lift(x)
        if a.value.ndim < 2 or a.value.shape[:-1] != x.value.shape:
            raise ShapeMismatch(f"matvec_t {a.value.shape}.T @ {x.value.shape}")
        out_val = (x.value[..., None, :] @ a.value)[..., 0, :]

        def backward(g):
            _accum(a, x.value[..., None] * g[..., None, :])
            _accum(x, (a.value @ g[..., None])[..., 0])

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

    def scale(self, x, c) -> Var:
        """Multiply x elementwise by a scalar: a constant, which gets no
        gradient, or a scalar Var."""
        x = self._lift(x)
        constant = not isinstance(c, Var)
        c = self._lift(c)
        if c.value.ndim != 0:
            raise ShapeMismatch("scale factor must be a scalar")
        out_val = x.value * c.value

        def backward(g):
            _accum(x, g * c.value)
            if not constant:
                _accum(c, np.sum(g * x.value))

        return self._emit(out_val, backward)

    def tanh(self, x) -> Var:
        x = self._lift(x)
        out_val = np.tanh(x.value)

        def backward(g):
            _accum(x, g * (1.0 - out_val * out_val))

        return self._emit(out_val, backward)

    def softmax(self, x, mask=None) -> Var:
        """Stable (max-subtracted) softmax of a vector, or of each row of
        an array along its last axis.

        With a boolean `mask` of x's shape, each row is normalised over
        its masked-in entries only: the others get probability exactly 0
        and zero gradient, and every row must keep at least one entry.
        """
        x = self._lift(x)
        if x.value.ndim == 0 or x.value.size == 0:
            raise ShapeMismatch("softmax expects a nonempty vector or array")
        z = x.value
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != z.shape:
                raise ShapeMismatch(f"softmax mask {mask.shape} for logits {z.shape}")
            if not mask.any(axis=-1).all():
                raise ShapeMismatch("softmax of a row whose mask keeps nothing")
            z = np.where(mask, z, -np.inf)
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        p = e / np.sum(e, axis=-1, keepdims=True)

        def backward(g):
            _accum(x, p * (g - np.sum(p * g, axis=-1, keepdims=True)))

        return self._emit(p, backward)

    def log(self, x) -> Var:
        x = self._lift(x)
        # log(0) and log(<0) are not warned about: a non-finite value is
        # caught where training reads it, at the pretrain loss and in
        # Adam.step.
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

    def vsum(self, x, weights=None) -> Var:
        """Sum of the entries of x or, with constant `weights` of x's
        shape, of each entry times its weight."""
        x = self._lift(x)
        if weights is None:
            out_val = np.asarray(np.sum(x.value))

            def backward(g):
                _accum(x, g)

            return self._emit(out_val, backward)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != x.value.shape:
            raise ShapeMismatch(f"vsum weights {w.shape} for {x.value.shape}")
        out_val = np.asarray(np.sum(x.value * w))

        def backward(g):
            _accum(x, g * w)

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

    def take(self, x, cols) -> Var:
        """Entry ``cols[b]`` of each row b of a matrix: (B, K) -> (B,)."""
        x = self._lift(x)
        cols = np.asarray(cols, dtype=np.intp)
        if x.value.ndim != 2 or cols.shape != x.value.shape[:1]:
            raise ShapeMismatch(f"take of {cols.shape} columns from {x.value.shape}")
        if cols.size and (cols.min() < 0 or cols.max() >= x.value.shape[1]):
            raise ShapeMismatch(f"take column out of range 0..{x.value.shape[1] - 1}")
        rows = np.arange(cols.size)
        out_val = x.value[rows, cols]

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            x.grad[rows, cols] += g

        return self._emit(out_val, backward)

    def gather_rows(self, x, idx) -> Var:
        """Rows `idx` of a matrix (entries of a vector), in the given order."""
        x = self._lift(x)
        idx = np.asarray(idx, dtype=np.intp)
        if x.value.ndim not in (1, 2) or idx.ndim != 1:
            raise ShapeMismatch("gather_rows expects a vector or matrix and 1-d indices")
        if idx.size and (idx.min() < 0 or idx.max() >= x.value.shape[0]):
            raise ShapeMismatch(f"gather_rows index out of range 0..{x.value.shape[0] - 1}")
        out_val = x.value[idx]

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            # strictly increasing ids are distinct, so `+=` adds each row once
            if (idx[1:] > idx[:-1]).all():
                x.grad[idx] += g
            else:
                np.add.at(x.grad, idx, g)

        return self._emit(out_val, backward)

    def matmul_t(self, a, b, bias=None) -> Var:
        """a @ b.T for a vector or array a (..., k) and a matrix b (m, k),
        plus an optional bias vector (m,) added to every row."""
        a, b = self._lift(a), self._lift(b)
        if a.value.ndim < 1 or b.value.ndim != 2 or a.value.shape[-1] != b.value.shape[1]:
            raise ShapeMismatch(f"matmul_t {a.value.shape} @ {b.value.shape}.T")
        out_val = a.value @ b.value.T
        if bias is not None:
            bias = self._lift(bias)
            if bias.value.shape != (b.value.shape[0],):
                raise ShapeMismatch(f"matmul_t bias {bias.value.shape} for {out_val.shape}")
            out_val += bias.value

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            _accum(a, g @ b.value)
            _accum(b, g2.T @ a.value.reshape(g2.shape[0], -1))
            if bias is not None:
                _accum(bias, g2.sum(axis=0))

        return self._emit(out_val, backward)

    def multihead_attention(self, h, nbr_idx, mask, a, slope: float, self_rows) -> Var:
        """HAN node-level attention of B nodes over P neighborhoods each, all
        heads at once (see `attention_weights` for the arguments).

        Row ``self_rows[b]`` of `h` attends over neighborhoods
        ``nbr_idx[b]``, with the same P blocks of attention vectors for
        every b. Entry (b, p) of the (B, P, heads * f) result is the
        concatenation over heads k of
        leaky_relu(sum_j alpha[b, p, k, j] * h[nbr_idx[b, p, j]]).
        """
        h, a = self._lift(h), self._lift(a)
        nbr_idx = np.asarray(nbr_idx, dtype=np.intp)
        mask = np.asarray(mask, dtype=bool)
        rows = np.asarray(self_rows, dtype=np.intp)
        hn, pre, alpha = attention_weights(h.value, nbr_idx, mask, a.value, slope, rows)
        n_nodes, n_paths, heads, _ = alpha.shape
        n, f = h.value.shape
        agg = alpha @ hn
        out_val = np.where(agg > 0, agg, slope * agg).reshape(n_nodes, n_paths, heads * f)

        def backward(g):
            a_self, a_nbr = a.value[:, :f], a.value[:, f:].reshape(n_paths, heads, f)
            g_agg = g.reshape(agg.shape) * np.where(agg > 0, 1.0, slope)
            g_alpha = g_agg @ hn.swapaxes(-1, -2)
            g_e = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=-1, keepdims=True))
            g_pre = g_e * np.where(pre > 0, 1.0, slope)
            g_self = g_pre.sum(axis=-1).reshape(n_nodes, n_paths * heads)
            g_hn = alpha.swapaxes(-1, -2) @ g_agg + g_pre.swapaxes(-1, -2) @ a_nbr
            g_rows = np.concatenate((g_hn.reshape(-1, f), g_self @ a_self))
            _accum(h, scatter_rows(np.concatenate((nbr_idx.ravel(), rows)), g_rows, n))
            g_a_nbr = (g_pre @ hn).sum(axis=0)
            g_a_self = g_self.T @ h.value[rows]
            _accum(a, np.concatenate((g_a_self, g_a_nbr.reshape(-1, f)), axis=1))

        return self._emit(out_val, backward)

    def cross_entropy(self, logits, targets) -> Var:
        """Mean over the rows i of a (n, K) logit matrix of
        -log softmax(logits[i])[targets[i]].

        Computed by log-sum-exp, so a target whose probability underflows
        to 0 gives a large finite loss rather than inf.
        """
        x = self._lift(logits)
        targets = np.asarray(targets, dtype=np.intp)
        if x.value.ndim != 2 or targets.shape != (x.value.shape[0],) or targets.size == 0:
            raise ShapeMismatch(
                f"cross_entropy of {x.value.shape} logits with {targets.shape} targets"
            )
        if targets.min() < 0 or targets.max() >= x.value.shape[1]:
            raise ShapeMismatch(f"cross_entropy target out of range 0..{x.value.shape[1] - 1}")
        n = targets.size
        rows = np.arange(n)
        z = x.value - np.max(x.value, axis=1, keepdims=True)
        e = np.exp(z)
        total = np.sum(e, axis=1)
        out_val = np.asarray(np.mean(np.log(total) - z[rows, targets]))

        def backward(g):
            d = e / total[:, None]
            d[rows, targets] -= 1.0
            _accum(x, d * (g / n))

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
        """Backpropagate from `out` and return each leaf's gradient. A leaf
        whose `.grad` was preset (`ModelParams.training_leaves`) returns
        that array, which the model clears for its next update."""
        self.backward(out)
        return {
            name: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for name, v in leaves.items()
        }


def scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The (n, f) sums of the rows of `rows` (m, f) by their row numbers
    `idx` (m,), each added in order to zeros: ``np.add.at`` into zeros,
    byte for byte, as one ``np.bincount``."""
    f = rows.shape[1]
    bins = (idx[:, None] * f + np.arange(f)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * f).reshape(n, f)


def attention_weights(
    h: np.ndarray,
    nbr_idx: np.ndarray,
    mask: np.ndarray,
    a: np.ndarray,
    slope: float,
    self_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-head node-level attention weights of HAN, padded neighborhoods.

    `h` (n, f) holds the node features. B nodes attend over P
    neighborhoods each: node b is row ``self_rows[b]`` of `h`, and its
    neighborhood p is rows ``nbr_idx[b, p, j]`` of `h` where
    ``mask[b, p, j]``, for (B, P, L) `nbr_idx` and `mask`. `a`
    (P * heads, 2f) holds one block of heads per neighborhood, shared by
    the B nodes, each row [a_self || a_nbr]. The logit of head k for
    neighbor j is leaky_relu(a_self . h[self] + a_nbr . h[nbr_idx[b, p, j]]).

    Returns the gathered neighbors (B, P, L, f), the logits before the
    leaky ReLU (B, P, heads, L) and the weights alpha (B, P, heads, L),
    which are 0 outside the mask and sum to 1 over each neighborhood.
    """
    if nbr_idx.ndim != 3 or mask.shape != nbr_idx.shape or 0 in nbr_idx.shape[:-1]:
        raise ShapeMismatch(f"neighbor index {nbr_idx.shape} with mask {mask.shape}")
    if not mask.any(axis=-1).all():
        raise ShapeMismatch("attention over an empty neighborhood")
    n_nodes, n_paths = nbr_idx.shape[:2]
    if h.ndim != 2 or a.ndim != 2 or a.shape[1] != 2 * h.shape[1] or a.shape[0] % n_paths:
        raise ShapeMismatch(f"attention over {h.shape} features with weights {a.shape}")
    if self_rows.shape != (n_nodes,):
        raise ShapeMismatch(f"attending rows for neighborhoods {nbr_idx.shape}: {self_rows}")
    for idx in (nbr_idx, self_rows):
        if idx.min() < 0 or idx.max() >= h.shape[0]:
            raise ShapeMismatch(f"node row out of range 0..{h.shape[0] - 1}")
    f = h.shape[1]
    hn = h[nbr_idx]
    s_self = (h[self_rows] @ a[:, :f].T).reshape(n_nodes, n_paths, -1)
    pre = s_self[..., None] + a[:, f:].reshape(n_paths, -1, f) @ hn.swapaxes(-1, -2)
    e = np.where(mask[..., None, :], np.where(pre > 0, pre, slope * pre), -np.inf)
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
