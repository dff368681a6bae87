import math
import warnings

import numpy as np
import pytest

from hincrec.autodiff import ShapeMismatch, Tape, grad_check


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
        y = tape.leaky_relu(x, 0.2)
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
        loss = tape.dot(out, weights)
        tape.backward(loss)
        assert np.array_equal(a.grad, [10.0, 20.0])
        assert np.array_equal(b.grad, [30.0])

    def test_masked_softmax_zeros_and_sum(self):
        tape = Tape()
        mask = np.array([True, False, True, False])
        p = tape.masked_softmax(tape.leaf([0.0, 50.0, math.log(3.0), -4.0]), mask)
        assert p.value[1] == 0.0 and p.value[3] == 0.0
        assert abs(p.value.sum() - 1.0) < 1e-12
        assert np.allclose(p.value[[0, 2]], [0.25, 0.75], atol=1e-12)

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
            tape.dot(tape.leaf([1.0]), tape.leaf([1.0, 2.0]))

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
        short = tape.multihead_attention(h, [[0, 1, 2]], [[True] * 3], a, 0.2).value
        padded = tape.multihead_attention(
            h, [[0, 1, 2, 3, 3]], [[True, True, True, False, False]], a, 0.2
        ).value
        assert short.shape == (1, 6)
        assert np.array_equal(short, padded)

    def test_multihead_attention_rejects_empty_neighborhood(self):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            tape.multihead_attention(
                np.eye(2), [[0, 1], [1, 0]], [[True, True], [False, False]], np.ones((2, 4)), 0.2
            )

    def test_gather_row(self):
        tape = Tape()
        m = tape.leaf(np.arange(6.0).reshape(3, 2))
        row = tape.gather_row(m, 2)
        assert np.array_equal(row.value, [4.0, 5.0])
        s = tape.vsum(row)
        tape.backward(s)
        assert np.array_equal(m.grad, [[0, 0], [0, 0], [1, 1]])


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
            h = tape.leaky_relu(h, 0.2)
            s = tape.dot(leaves["q"], tape.softmax(h))
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
        # two padded neighborhoods over the rows of H; row 3 appears twice
        # in the second, the attending row 0 in both
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
            return t.vsum(t.add_scalar(lv["x"], lv["s"]))

        @case("concat")
        def _(t, lv):
            return t.vsum(t.concat([lv["x"], lv["s"], lv["y"]]))

        @case("stack_rows")
        def _(t, lv):
            return t.vsum(t.matvec_t(t.stack_rows([lv["x"], lv["y"]]), t.leaf([1.0, 2.0])))

        @case("dot")
        def _(t, lv):
            return t.dot(lv["x"], lv["y"])

        @case("scale_var")
        def _(t, lv):
            return t.vsum(t.scale(lv["x"], lv["s"]))

        @case("leaky")
        def _(t, lv):
            return t.vsum(t.leaky_relu(lv["x"], 0.2))

        @case("tanh")
        def _(t, lv):
            return t.vsum(t.tanh(lv["x"]))

        @case("softmax")
        def _(t, lv):
            return t.dot(t.softmax(lv["v4"]), t.leaf([1.0, -2.0, 0.5, 3.0]))

        @case("masked_softmax")
        def _(t, lv):
            mask = np.array([True, True, False, True])
            return t.dot(
                t.masked_softmax(lv["v4"], mask), t.leaf([1.0, -2.0, 0.5, 3.0])
            )

        @case("log")
        def _(t, lv):
            return t.vsum(t.log(lv["P"]))

        @case("plogp")
        def _(t, lv):
            return t.vsum(t.plogp(lv["P"]))

        @case("slice")
        def _(t, lv):
            return t.vsum(t.slice1d(lv["v4"], 1, 3))

        @case("gather")
        def _(t, lv):
            return t.gather_row(lv["x"], 1)

        @case("gather_rows")
        def _(t, lv):
            return t.vsum(t.tanh(t.gather_rows(lv["H"], [4, 0, 2])))

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
            out = t.multihead_attention(lv["H"], nbr_idx, nbr_mask, lv["a1"], 0.2)
            return t.vsum(t.tanh(out))

        @case("multihead_attention_2_heads")
        def _(t, lv):
            out = t.multihead_attention(lv["H"], nbr_idx, nbr_mask, lv["a2"], 0.2)
            return t.vsum(t.tanh(out))

        for name, fn in cases.items():
            err = grad_check(fn, p, eps=1e-5)
            assert err < 1e-7, f"primitive {name}: relative error {err}"

    def test_reused_subexpression(self):
        # one Var consumed twice must accumulate both contributions
        params = {"x": np.array([0.4, -0.3])}

        def f(tape, leaves):
            x = leaves["x"]
            y = tape.vecadd(x, x)
            return tape.dot(y, x)

        assert grad_check(f, params, eps=1e-5) < 1e-8


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        tape = Tape()
        v = tape.vecadd(tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]))
        with pytest.raises(ValueError):
            tape.backward(v)

    def test_no_record_mode_skips_closures(self):
        tape = Tape(record=False)
        out = tape.dot(tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]))
        assert out.value == pytest.approx(11.0)
        assert tape._nodes == []

    def test_check_finite(self):
        tape = Tape(check_finite=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                tape.log(tape.leaf([0.0, 1.0]))

    def test_gradient_of_output_is_one(self):
        tape = Tape()
        x = tape.leaf(np.asarray(2.0))
        y = tape.scale(x, 3.0)
        tape.backward(y)
        assert y.grad == pytest.approx(1.0)
