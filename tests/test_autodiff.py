import math

import numpy as np
import pytest

import unfused

from hincrec.autodiff import ShapeMismatch, Tape, grad_check, scatter_rows


def leaf_pair(*arrays):
    tape = Tape()
    return tape, [tape.leaf(a) for a in arrays]


class TestForward:
    def test_softmax_closed_form(self):
        tape = Tape()
        p = tape.softmax(tape.leaf([0.0, math.log(3.0)]))
        assert np.allclose(p.value, [0.25, 0.75], atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        tape = Tape()
        for _ in range(50):
            p = tape.softmax(tape.leaf(rng.normal(0, 5, rng.integers(1, 9))))
            assert abs(p.value.sum() - 1.0) < 1e-12
            assert np.all(p.value >= 0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        tape = Tape(record=False)
        z = rng.normal(0, 2, 7)
        a = tape.softmax(tape.leaf(z)).value
        b = tape.softmax(tape.leaf(z + 123.456)).value
        assert np.allclose(a, b, atol=1e-12)

    def test_leaky_relu_negative(self):
        tape = Tape()
        x = tape.leaf(np.asarray(-1.0))
        y = unfused.leaky_relu(tape, x, 0.2)
        assert y.value == pytest.approx(-0.2)
        tape.backward(y)
        # slope passes through on the negative side: d/dx = 0.2
        assert x.grad == pytest.approx(0.2)

    def test_concat_forward(self):
        tape = Tape()
        out = tape.concat([tape.leaf([1.0, 2.0]), tape.leaf([3.0])])
        assert np.array_equal(out.value, [1.0, 2.0, 3.0])

    def test_concat_backward_splits(self):
        tape, (a, b) = leaf_pair(np.array([1.0, 2.0]), np.array([3.0]))
        out = tape.concat([a, b])
        weights = tape.leaf([10.0, 20.0, 30.0])
        loss = unfused.dot(tape, out, weights)
        tape.backward(loss)
        assert np.array_equal(a.grad, [10.0, 20.0])
        assert np.array_equal(b.grad, [30.0])

    def test_masked_softmax_zeros_and_sum(self):
        tape = Tape()
        mask = np.array([True, False, True, False])
        p = tape.softmax(tape.leaf([0.0, 50.0, math.log(3.0), -4.0]), mask)
        assert p.value[1] == 0.0 and p.value[3] == 0.0
        assert abs(p.value.sum() - 1.0) < 1e-12
        assert np.allclose(p.value[[0, 2]], [0.25, 0.75], atol=1e-12)

    def test_masked_softmax_rows(self):
        # each row of a (B, K) batch is normalised over its own mask
        tape = Tape()
        x = tape.leaf([[0.0, 50.0, math.log(3.0)], [7.0, -1.0, 2.0], [1.0, 1.0, 1.0]])
        mask = np.array([[True, False, True], [False, True, False], [True, True, True]])
        p = tape.softmax(x, mask)
        assert np.array_equal(p.value == 0.0, ~mask)
        assert np.allclose(p.value.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(p.value[0, [0, 2]], [0.25, 0.75], atol=1e-12)
        assert p.value[1, 1] == 1.0
        assert np.allclose(p.value[2], 1.0 / 3.0, atol=1e-12)
        tape.backward(tape.vsum(tape.matvec(p, tape.leaf([1.0, -2.0, 0.5]))))
        assert np.all(x.grad[~mask] == 0.0)

    def test_vecadd_backward_distributes(self):
        tape, (a, b) = leaf_pair(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
        out = tape.vsum(tape.vecadd(a, b))
        tape.backward(out)
        assert np.array_equal(a.grad, [1.0, 1.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_plogp_saturation(self):
        tape = Tape()
        x = tape.leaf([0.0, 0.5, 1.0])
        out = tape.plogp(x)
        assert out.value[0] == 0.0
        assert out.value[1] == pytest.approx(0.5 * math.log(0.5))
        assert out.value[2] == pytest.approx(0.0)

    def test_shape_mismatches(self):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            tape.matvec(tape.leaf(np.eye(2)), tape.leaf([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeMismatch):
            tape.vecadd(tape.leaf([1.0]), tape.leaf([1.0, 2.0]))
        with pytest.raises(ShapeMismatch):
            unfused.dot(tape, tape.leaf([1.0]), tape.leaf([1.0, 2.0]))
        # a softmax row whose mask keeps nothing, and a mask of another shape
        x = tape.leaf(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            tape.softmax(x, [[True, False, False], [False, False, False]])
        with pytest.raises(ShapeMismatch):
            tape.softmax(x, [True, False, True])
        # one column per row, each inside the row; weights of x's shape
        with pytest.raises(ShapeMismatch):
            tape.take(x, [0])
        with pytest.raises(ShapeMismatch):
            tape.take(x, [0, 3])
        with pytest.raises(ShapeMismatch):
            tape.take(tape.leaf([1.0, 2.0]), [0, 1])
        with pytest.raises(ShapeMismatch):
            tape.vsum(x, [1.0, 2.0, 3.0])

    def test_concat_rows_of_matrices(self):
        tape, (a, b) = leaf_pair(np.ones((2, 3)), np.zeros((1, 3)))
        out = tape.concat([a, b])
        assert out.value.shape == (3, 3)
        tape.backward(tape.vsum(tape.matmul_t(out, tape.leaf(np.arange(3.0)[None, :]))))
        assert np.array_equal(a.grad, np.tile(np.arange(3.0), (2, 1)))
        assert np.array_equal(b.grad, np.arange(3.0)[None, :])

    def test_gather_rows_rejects_out_of_range(self):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            tape.gather_rows(tape.leaf(np.eye(3)), [0, 3])
        with pytest.raises(ShapeMismatch):
            tape.gather_rows(tape.leaf(np.eye(3)), [-1])

    def test_multihead_attention_masked_entries_inert(self):
        # padding a neighborhood with masked entries changes nothing
        rng = np.random.default_rng(4)
        h, a = rng.normal(size=(4, 2)), rng.normal(size=(3, 4))
        tape = Tape(record=False)
        short = tape.multihead_attention(h, [[[0, 1, 2]]], [[[True] * 3]], a, 0.2, [0]).value
        padded = tape.multihead_attention(
            h, [[[0, 1, 2, 3, 3]]], [[[True, True, True, False, False]]], a, 0.2, [0]
        ).value
        assert short.shape == (1, 1, 6)
        assert np.array_equal(short, padded)

    def test_multihead_attention_rejects_empty_neighborhood(self):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            tape.multihead_attention(
                np.eye(2), [[[0, 1], [1, 0]]], [[[True, True], [False, False]]],
                np.ones((2, 4)), 0.2, [0],
            )

    def test_cross_entropy_log_sum_exp(self):
        tape = Tape()
        logits = np.array([[0.0, -1e4, 5.0], [1.0, 2.0, 3.0]])
        loss = tape.cross_entropy(tape.leaf(logits), [1, 2])
        # the first target's probability underflows to 0
        assert tape.softmax(logits[0]).value[1] == 0.0
        want = (1e4 + 5.0 + np.log1p(np.exp(-5.0) + np.exp(-1e4 - 5.0))
                + 2.0 - 3.0 + np.log(np.sum(np.exp(logits[1] - 2.0))))
        assert float(loss.value) == pytest.approx(want / 2, rel=1e-12)
        with pytest.raises(ShapeMismatch):
            tape.cross_entropy(tape.leaf(logits), [0, 3])

    def test_gather_row(self):
        tape = Tape()
        m = tape.leaf(np.arange(6.0).reshape(3, 2))
        row = tape.gather_row(m, 2)
        assert np.array_equal(row.value, [4.0, 5.0])
        s = tape.vsum(row)
        tape.backward(s)
        assert np.array_equal(m.grad, [[0, 0], [0, 0], [1, 1]])

    def test_take_and_weighted_sum(self):
        tape = Tape()
        m = tape.leaf(np.arange(6.0).reshape(3, 2))
        picked = tape.take(m, [1, 0, 1])
        assert np.array_equal(picked.value, [1.0, 2.0, 5.0])
        s = tape.vsum(picked, [0.5, -1.0, 2.0])
        assert s.value == 0.5 - 2.0 + 10.0
        tape.backward(s)
        assert np.array_equal(m.grad, [[0, 0.5], [-1.0, 0], [0, 2.0]])

    def test_scatter_rows_is_add_at_bytewise(self):
        # rows of neighborhoods padded with the attending user's own row, as
        # the embedding pads them, then the users' rows; node 6 gets none
        nbr = np.array([[[0, 3, 0, 0], [0, 5, 2, 0]], [[1, 4, 4, 1], [1, 1, 1, 1]]])
        idx = np.concatenate((nbr.ravel(), [0, 1]))
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 9, (idx.size, 1))
        rows[[2, 9], 1] = -0.0
        want = np.zeros((7, 3))
        np.add.at(want, idx, rows)
        assert scatter_rows(idx, rows, 7).tobytes() == want.tobytes()


class TestGradCheck:
    def test_square_function(self):
        # analytic d(x^2)/dx at 3 is 6; central difference should agree
        params = {"x": np.array(3.0).reshape(())}

        def f(tape, leaves):
            x = leaves["x"]
            return tape.scale(x, x)

        err = grad_check(f, params, eps=1e-5)
        assert err < 1e-9

    def test_log_softmax_component(self):
        params = {"z": np.array([0.3, -1.2, 0.7])}

        def f(tape, leaves):
            p = tape.softmax(leaves["z"])
            return tape.log(tape.gather_row(p, 1))

        assert grad_check(f, params, eps=1e-5) < 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_primitive_composition_random(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "A": rng.normal(0, 1, (3, 4)),
            "x": rng.normal(0, 1, 4),
            "b": rng.normal(0, 1, 3),
            "q": rng.normal(0, 1, 3),
            "c": np.asarray(rng.normal()),
        }

        def f(tape, leaves):
            h = tape.tanh(tape.vecadd(tape.matvec(leaves["A"], leaves["x"]), leaves["b"]))
            h = unfused.leaky_relu(tape, h, 0.2)
            s = unfused.dot(tape, leaves["q"], tape.softmax(h))
            return tape.scale(s, leaves["c"])

        # compositions accumulate a little finite-difference truncation
        assert grad_check(f, params, eps=1e-5) < 1e-6

    def test_each_primitive_backward(self):
        rng = np.random.default_rng(3)
        cases = {}

        def case(name):
            def deco(fn):
                cases[name] = fn
                return fn
            return deco

        p = {
            "A": rng.normal(0, 1, (4, 3)),
            "x": rng.normal(0, 1, 3),
            "y": rng.normal(0, 1, 3),
            "v4": rng.normal(0, 1, 4),
            "s": np.asarray(0.7),
            "P": np.abs(rng.normal(0, 1, 4)) + 0.1,
            "b5": rng.normal(0, 1, 5),
        }
        # Attention inputs whose logits take both signs in every head, so
        # that the self half of each attention vector gets a gradient; with
        # one sign only it is an exact softmax shift and its gradient is 0.
        att_rng = np.random.default_rng(7)
        p["H"] = att_rng.normal(0, 1, (5, 3))
        p["a1"] = att_rng.normal(0, 1, (2, 6))
        p["a2"] = att_rng.normal(0, 1, (4, 6))
        p["W6"] = att_rng.normal(0, 1, (3, 6))
        p["q6"] = att_rng.normal(0, 1, 6)
        # row 0 of H attends over two padded neighborhoods of its rows, and
        # is in both; row 3 appears twice in the second
        nbr_idx = np.array([[0, 2, 4, 0], [1, 3, 3, 0]])
        nbr_mask = np.array([[True, True, True, False], [True, True, True, True]])

        @case("matvec")
        def _(t, lv):
            return t.vsum(t.matvec(lv["A"], lv["x"]))

        @case("matvec_t")
        def _(t, lv):
            return t.vsum(t.matvec_t(lv["A"], lv["v4"]))

        @case("vecadd")
        def _(t, lv):
            return t.vsum(t.vecadd(lv["x"], lv["y"]))

        @case("add_scalar")
        def _(t, lv):
            return t.vsum(unfused.add_scalar(t, lv["x"], lv["s"]))

        @case("concat")
        def _(t, lv):
            return t.vsum(t.concat([lv["x"], lv["s"], lv["y"]]))

        @case("stack_rows")
        def _(t, lv):
            stacked = unfused.stack_rows(t, [lv["x"], lv["y"]])
            return t.vsum(t.matvec_t(stacked, t.leaf([1.0, 2.0])))

        @case("dot")
        def _(t, lv):
            return unfused.dot(t, lv["x"], lv["y"])

        @case("scale_var")
        def _(t, lv):
            return t.vsum(t.scale(lv["x"], lv["s"]))

        @case("take")
        def _(t, lv):
            return t.vsum(t.tanh(t.take(lv["A"], [2, 0, 1, 2])))

        @case("vsum_weighted")
        def _(t, lv):
            return t.vsum(t.tanh(lv["x"]), [0.5, -2.0, 1.5])

        @case("leaky")
        def _(t, lv):
            return t.vsum(unfused.leaky_relu(t, lv["x"], 0.2))

        @case("tanh")
        def _(t, lv):
            return t.vsum(t.tanh(lv["x"]))

        @case("softmax")
        def _(t, lv):
            return unfused.dot(t, t.softmax(lv["v4"]), t.leaf([1.0, -2.0, 0.5, 3.0]))

        @case("masked_softmax")
        def _(t, lv):
            mask = np.array([True, True, False, True])
            return unfused.dot(t, t.softmax(lv["v4"], mask), t.leaf([1.0, -2.0, 0.5, 3.0]))

        @case("masked_softmax_rows")
        def _(t, lv):
            # a (B, K) batch whose rows keep two, two, one and all three entries
            mask = np.array([[1, 0, 1], [0, 1, 1], [0, 1, 0], [1, 1, 1]]) > 0
            weights = t.leaf([1.0, -2.0, 0.5])
            return t.vsum(t.tanh(t.matvec(t.softmax(lv["A"], mask), weights)))

        @case("log")
        def _(t, lv):
            return t.vsum(t.log(lv["P"]))

        @case("plogp")
        def _(t, lv):
            return t.vsum(t.plogp(lv["P"]))

        @case("slice")
        def _(t, lv):
            return t.vsum(unfused.slice1d(t, lv["v4"], 1, 3))

        @case("gather")
        def _(t, lv):
            return t.gather_row(lv["x"], 1)

        @case("gather_rows")
        def _(t, lv):
            return t.vsum(t.tanh(t.gather_rows(lv["H"], [4, 0, 2])))

        @case("gather_rows_increasing")
        def _(t, lv):
            return t.vsum(t.tanh(t.gather_rows(lv["H"], [0, 2, 4])))

        @case("gather_rows_sorted_repeated")
        def _(t, lv):
            return t.vsum(t.tanh(t.gather_rows(lv["H"], [0, 2, 2, 4])))

        @case("gather_rows_repeated")
        def _(t, lv):
            return t.vsum(t.tanh(t.gather_rows(lv["H"], [1, 3, 1])))

        @case("matmul_t")
        def _(t, lv):
            return t.vsum(t.tanh(t.matmul_t(lv["H"], lv["A"])))

        @case("matmul_t_bias")
        def _(t, lv):
            return t.vsum(t.tanh(t.matmul_t(lv["A"], lv["H"], lv["b5"])))

        @case("concat_rows")
        def _(t, lv):
            return t.vsum(t.tanh(t.concat([lv["A"], lv["H"]])))

        @case("multihead_attention_1_head")
        def _(t, lv):
            out = t.multihead_attention(lv["H"], nbr_idx[None], nbr_mask[None], lv["a1"], 0.2, [0])
            return t.vsum(t.tanh(out))

        @case("multihead_attention_2_heads")
        def _(t, lv):
            out = t.multihead_attention(lv["H"], nbr_idx[None], nbr_mask[None], lv["a2"], 0.2, [0])
            return t.vsum(t.tanh(out))

        # three nodes attending over two neighborhoods each, with the same
        # two blocks of heads; rows 1 and 2 attend, row 2 twice
        batch_idx = np.stack([nbr_idx, nbr_idx[::-1], [[2, 4, 0, 0], [3, 1, 2, 0]]])
        batch_mask = np.stack([nbr_mask, nbr_mask[::-1], [[1, 1, 0, 0], [1, 1, 1, 0]]]) > 0

        @case("multihead_attention_batched")
        def _(t, lv):
            out = t.multihead_attention(
                lv["H"], batch_idx[:2], batch_mask[:2], lv["a2"], 0.2, [1, 2]
            )
            return t.vsum(t.tanh(out))

        @case("multihead_attention_batched_shared_self")
        def _(t, lv):
            out = t.multihead_attention(
                lv["H"], batch_idx, batch_mask, lv["a2"], 0.2, [1, 2, 2]
            )
            return t.vsum(t.tanh(out))

        @case("matmul_t_batched")
        def _(t, lv):
            stacked = t.multihead_attention(
                lv["H"], batch_idx, batch_mask, lv["a2"], 0.2, [0, 1, 2]
            )
            return t.vsum(t.tanh(t.matmul_t(stacked, lv["W6"], lv["x"])))

        @case("softmax_rows")
        def _(t, lv):
            return t.vsum(t.tanh(t.softmax(t.matmul_t(lv["H"], lv["A"]))))

        @case("cross_entropy")
        def _(t, lv):
            return t.cross_entropy(t.matmul_t(lv["H"], lv["A"]), [3, 0, 0, 2, 1])

        for name, fn in cases.items():
            err = grad_check(fn, p, eps=1e-5)
            assert err < 1e-7, f"primitive {name}: relative error {err}"

    def test_batched_path_fusion(self):
        # matvec, softmax and matvec_t over (nodes, paths), as the user
        # embedding fuses the meta-paths of a batch
        # the attention inputs of test_each_primitive_backward, whose logits
        # take both signs in every head
        rng = np.random.default_rng(7)
        p = {"H": rng.normal(0, 1, (5, 3))}
        rng.normal(0, 1, (2, 6))
        p["a"] = rng.normal(0, 1, (4, 6))
        rng.normal(0, 1, (3, 6))
        p["q"] = rng.normal(0, 1, 6)
        idx = np.array([[[0, 2, 4, 0], [1, 3, 3, 0]], [[1, 3, 3, 0], [0, 2, 4, 0]],
                        [[2, 4, 0, 0], [3, 1, 2, 0]]])
        mask = np.array([[[1, 1, 1, 0], [1, 1, 1, 1]], [[1, 1, 1, 1], [1, 1, 1, 0]],
                         [[1, 1, 0, 0], [1, 1, 1, 0]]]) > 0

        def f(t, lv):
            per_path = t.multihead_attention(lv["H"], idx, mask, lv["a"], 0.2, [0, 1, 2])
            weights = t.softmax(t.matvec(per_path, lv["q"]))
            return t.vsum(t.tanh(t.matvec_t(per_path, weights)))

        # compositions accumulate a little finite-difference truncation
        assert grad_check(f, p, eps=1e-5) < 1e-6

    def test_reused_subexpression(self):
        # one Var consumed twice must accumulate both contributions
        params = {"x": np.array([0.4, -0.3])}

        def f(tape, leaves):
            x = leaves["x"]
            y = tape.vecadd(x, x)
            return unfused.dot(tape, y, x)

        assert grad_check(f, params, eps=1e-5) < 1e-8


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        tape = Tape()
        v = tape.vecadd(tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]))
        with pytest.raises(ValueError):
            tape.backward(v)

    def test_no_record_mode_skips_closures(self):
        tape = Tape(record=False)
        out = unfused.dot(tape, tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]))
        assert out.value == pytest.approx(11.0)
        assert tape._nodes == []

    def test_gradient_of_output_is_one(self):
        tape = Tape()
        x = tape.leaf(np.asarray(2.0))
        y = tape.scale(x, 3.0)
        tape.backward(y)
        assert y.grad == pytest.approx(1.0)

    def test_a_gradient_handed_to_two_inputs_is_not_shared(self):
        # y's backward hands one array to both of its inputs; a's later
        # gradient from c must not reach b through it
        tape = Tape()
        x, w = tape.leaf([0.5, -1.0]), tape.leaf([2.0, 0.25])
        a, b = tape.tanh(x), tape.tanh(w)
        c = tape.scale(a, 3.0)
        y = tape.vecadd(a, b)
        tape.backward(tape.vecadd(tape.vsum(y), tape.vsum(c)))
        assert np.array_equal(a.grad, [4.0, 4.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_first_gradient_is_zeros_plus_g(self):
        # a node's first gradient is 0.0 + g: -0.0 arrives as +0.0, as it
        # did when it was added into a zero buffer
        tape = Tape()
        a = tape.tanh(tape.leaf([1.0, -2.0]))
        tape.backward(tape.vsum(tape.scale(a, -0.0)))
        assert a.grad.tolist() == [0.0, 0.0]
        assert not np.signbit(a.grad).any()

    def test_preset_leaf_gradient_accumulates_in_place(self):
        # leaves whose .grad are views of one flat vector, as a model's
        # training leaves are, add into that vector
        tape = Tape()
        m = tape.leaf(np.arange(6.0).reshape(3, 2))
        v = tape.leaf([1.0, 2.0, 3.0])
        grads = np.zeros(9)
        m.grad, v.grad = grads[:6].reshape(3, 2), grads[6:]
        rows = tape.gather_rows(m, [2, 0, 2])
        out = tape.vecadd(tape.vsum(rows), tape.vsum(tape.scale(v, 2.0)))
        tape.backward(out)
        assert m.grad.base is grads and v.grad.base is grads
        assert grads.tolist() == [1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0]
