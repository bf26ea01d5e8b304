"""Core tensor ops: frozen oracles, invariants, and gradient checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aste.numerics
from aste.errors import NumericError, ShapeError
from aste.numerics import (
    ParamGroup,
    Tensor,
    affine_backward,
    affine_forward,
    checked_once,
    cross_entropy,
    cross_entropy_backward,
    cross_entropy_forward,
    grad_check,
    layer_norm_forward,
    no_grad,
    relu_forward,
)
from reference_ops import layer_norm, matmul, softmax, swapaxes

# Independent 64-bit scalar oracle for softmax([1, 2]):
#   e = exp(1); [1/(1+e), e/(1+e)]
SOFTMAX_1_2 = (0.2689414213699951, 0.7310585786300049)


class TestLinear:
    """The affine core of the fused nodes, ``affine_forward`` and
    ``affine_backward``."""

    def test_identity_weight(self):
        out = affine_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_zero_input_returns_bias(self):
        out = affine_forward(np.zeros((1, 2)), np.array([[5.0, -1.0], [2.0, 7.0]]),
                             np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [[3.0, 4.0]])

    def test_hand_oracle(self):
        # [1, 2] @ [[1, 1], [1, 1]] + [0, 0] = [3, 3] by scalar arithmetic
        out = affine_forward(np.array([[1.0, 2.0]]), np.ones((2, 2)), np.zeros(2))
        np.testing.assert_array_equal(out, [[3.0, 3.0]])

    @pytest.mark.parametrize("shape", [(5, 4), (2, 5, 4), (2, 3, 5, 4)],
                             ids=["2d-bias", "3d-bias", "4d-bias"])
    def test_one_node_with_gradients(self, shape):
        """An (..., k) input's affine map as one tape node on the core, as
        the fused nodes build it: its value is the chain ``x @ w + b``,
        and its gradients pass a finite-difference check at weights of
        scale 3, where a wrong product or bias reduction shows."""
        rng = np.random.default_rng(len(shape))
        g = ParamGroup("parser")
        x = g.add("x", Tensor(rng.normal(0, 1, shape)))
        w = g.add("w", Tensor(rng.normal(0, 3, (4, 6))))
        b = g.add("b", Tensor(rng.normal(0, 3, 6)))

        def node():
            rows = x.data.reshape(-1, 4)

            def back(grad):
                d_rows, d_w, d_b = affine_backward(grad.reshape(-1, 6), rows, w.data)
                return [(x, d_rows.reshape(shape)), (w, d_w), (b, d_b)]

            out = affine_forward(rows, w.data, b.data)
            return Tensor(out.reshape(*shape[:-1], 6), _parents=(x, w, b), _backward=back)

        chain = matmul(x, w) + b
        np.testing.assert_allclose(node().data, chain.data, rtol=1e-14, atol=0)
        weights = Tensor(rng.normal(0, 1, chain.shape))
        assert grad_check(lambda: (node() * weights).sum(), g, samples_per_tensor=200) < 1e-6


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_single_element(self):
        np.testing.assert_array_equal(softmax(Tensor([5.0])).data, [1.0])

    def test_two_element_oracle(self):
        out = softmax(Tensor([1.0, 2.0]))
        np.testing.assert_allclose(out.data, SOFTMAX_1_2, atol=1e-15)

    def test_monotone(self):
        out = softmax(Tensor([0.5, 1.5, -2.0])).data
        assert out[1] > out[0] > out[2]

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=150, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        base = softmax(Tensor(row)).data
        assert abs(base.sum() - 1.0) <= 1e-12
        shifted = softmax(Tensor([v + shift for v in row])).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_masked_columns_get_zero_weight(self):
        mask = np.array([[True, False, True]])
        out = softmax(Tensor([[1.0, 100.0, 2.0]]), mask=mask).data
        assert out[0, 1] == 0.0
        assert abs(out[0].sum() - 1.0) <= 1e-12

    def test_fully_masked_slice_rejected(self):
        with pytest.raises(ShapeError):
            softmax(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        probs = Tensor([[0.0, 1.0, 0.0]])
        assert abs(cross_entropy(probs, np.array([1])).item()) <= 1e-12

    def test_uniform_three_class(self):
        probs = Tensor(np.full((5, 3), 1 / 3))
        assert abs(cross_entropy(probs, np.zeros(5, dtype=int)).item() - math.log(3)) <= 1e-12

    def test_uniform_four_class(self):
        probs = Tensor(np.full((2, 4), 0.25))
        assert abs(cross_entropy(probs, np.array([3, 1])).item() - math.log(4)) <= 1e-12

    def test_masked_slices_contribute_nothing(self):
        probs = Tensor([[0.5, 0.5], [1e-9, 1.0 - 1e-9]])
        mask = np.array([True, False])
        assert abs(cross_entropy(probs, np.array([0, 0]), mask).item() - math.log(2)) <= 1e-12

    def test_all_masked_is_zero(self):
        probs = Tensor([[0.5, 0.5]])
        assert cross_entropy(probs, np.array([0]), np.array([False])).item() == 0.0

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 3)])
    def test_padded_shape_equals_flattened_bit_for_bit(self, shape):
        rng = np.random.default_rng(3)
        raw = rng.random(shape + (4,)) + 1e-3
        data = raw / raw.sum(axis=-1, keepdims=True)
        targets = rng.integers(0, 4, shape)
        mask = rng.random(shape) < 0.7
        padded, flat = Tensor(data, requires_grad=True), Tensor(data.reshape(-1, 4), requires_grad=True)
        a = cross_entropy(padded, targets, mask)
        b = cross_entropy(flat, targets.reshape(-1), mask.reshape(-1))
        assert a.item() == b.item()
        a.backward()
        b.backward()
        assert padded.grad.shape == padded.shape
        np.testing.assert_array_equal(padded.grad.reshape(-1, 4), flat.grad)

    def test_mismatched_shapes_rejected(self):
        probs = Tensor(np.full((2, 3, 4), 0.25))
        targets = np.zeros((2, 3), dtype=int)
        for mask in (np.ones(6, dtype=bool), np.ones((3, 2), dtype=bool), np.ones((2, 3, 1), dtype=bool)):
            with pytest.raises(ShapeError):
                cross_entropy(probs, targets, mask)
        with pytest.raises(ShapeError):
            cross_entropy(probs, targets.reshape(-1))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(0.5), np.zeros((), dtype=int))

    @given(st.integers(0, 3), st.lists(st.floats(0.01, 10), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_non_negative_and_zero_iff_one_hot(self, target, raw):
        row = np.array(raw) / np.sum(raw)
        value = cross_entropy(Tensor(row[None, :]), np.array([target])).item()
        assert value >= 0.0
        assert (value <= 1e-12) == (row[target] >= 1.0 - 1e-12)


class TestCrossEntropyFromLogits:
    """``cross_entropy_forward``/``cross_entropy_backward``, the loss core
    of the training step's loss node."""

    @staticmethod
    def planes_case(rng):
        """(2, 4, 3, 3) label planes with the label axis at -3, targets,
        and a mask with its padded cells."""
        logits = rng.normal(0, 3, (2, 4, 3, 3))
        targets = rng.integers(0, 4, (2, 3, 3))
        mask = rng.random((2, 1, 3, 3)) < 0.7
        cells = np.arange(2).reshape(2, 1, 1) * 4 * 9 + np.arange(9).reshape(3, 3)
        return logits, targets, mask, (cells + targets * 9).ravel()

    def test_value_is_the_masked_mean_of_logsumexp_minus_target(self):
        rng = np.random.default_rng(41)
        logits, targets, mask, positions = self.planes_case(rng)
        value, probs = cross_entropy_forward(logits, positions, mask, int(mask.sum()), axis=-3)
        lse = np.log(np.exp(logits).sum(axis=-3))
        picked = np.take_along_axis(logits, targets[:, None], axis=-3)[:, 0]
        assert value == pytest.approx((lse - picked)[mask[:, 0]].mean(), rel=1e-13)
        np.testing.assert_allclose(probs, np.exp(logits) / np.exp(logits).sum(axis=-3, keepdims=True),
                                   rtol=1e-13)

    def test_gradient_is_softmax_minus_onehot_over_the_count(self):
        rng = np.random.default_rng(43)
        logits, targets, mask, positions = self.planes_case(rng)
        count = int(mask.sum())
        _, probs = cross_entropy_forward(logits, positions, mask, count, axis=-3)
        onehot = np.moveaxis(np.eye(4)[targets], -1, 1)
        np.testing.assert_allclose(cross_entropy_backward(probs, positions, mask, count, 2.0),
                                   (probs - onehot) * mask * 2.0 / count, rtol=1e-15, atol=1e-17)

    def test_no_underflow_at_a_large_gap(self):
        logits = np.array([[800.0, 0.0, 0.0]])
        value, _ = cross_entropy_forward(logits, np.array([1]), np.ones((1, 1), bool), 1)
        assert value == 800.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_in_a_masked_slice_makes_the_value_nan(self, bad):
        logits = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 0.0]])
        logits[1, 2] = bad
        mask = np.array([[True], [False]])
        with np.errstate(invalid="ignore"):
            value, _ = cross_entropy_forward(logits, np.array([0, 3]), mask, 1)
        assert np.isnan(value)


class TestTensorBasics:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf])
        with pytest.raises(NumericError):
            Tensor([[np.nan]])

    def test_overflow_surfaces_as_numeric_error(self):
        big = Tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            _ = big * big

    def test_ops_are_deterministic(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        w = Tensor(np.full((2, 3), 0.5))
        first = softmax(x * w + x).data
        second = softmax(x * w + x).data
        np.testing.assert_array_equal(first, second)

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    @staticmethod
    def _weighted_sum(out, seed=0):
        """A scalar whose gradient differs per element of ``out``."""
        weights = np.random.default_rng(seed).normal(0, 1, out.shape)
        return (out * Tensor(weights)).sum()

    def test_matmul_shared_weight_gradients(self):
        g = ParamGroup("parser")
        rng = np.random.default_rng(0)
        x = g.add("x", Tensor(rng.normal(0, 1, (2, 3, 4))))
        w = g.add("w", Tensor(rng.normal(0, 1, (4, 5))))
        out = matmul(x, w)
        np.testing.assert_allclose(out.data, np.einsum("bmk,kn->bmn", x.data, w.data), atol=1e-14)
        assert grad_check(lambda: self._weighted_sum(matmul(x, w)), g, samples_per_tensor=8) < 1e-6

    def test_matmul_batched_gradients(self):
        g = ParamGroup("parser")
        rng = np.random.default_rng(1)
        a = g.add("a", Tensor(rng.normal(0, 1, (2, 2, 3, 4))))
        b = g.add("b", Tensor(rng.normal(0, 1, (2, 2, 4, 5))))
        shared = g.add("shared", Tensor(rng.normal(0, 1, (2, 1, 4, 5))))
        np.testing.assert_allclose(matmul(a, b).data, np.einsum("xymk,xykn->xymn", a.data, b.data),
                                   atol=1e-14)

        def f():
            # ``shared`` broadcasts over the second axis.
            return self._weighted_sum(matmul(a, b)) + self._weighted_sum(matmul(a, shared), seed=1)

        assert grad_check(f, g, samples_per_tensor=8) < 1e-6

    def test_swapaxes_getitem_gradients(self):
        g = ParamGroup("parser")
        rng = np.random.default_rng(2)
        a = g.add("a", Tensor(rng.normal(0, 1, (2, 3, 4))))
        b = g.add("b", Tensor(rng.normal(0, 1, (2, 3, 4))))
        np.testing.assert_array_equal(swapaxes(a, 0, 1).data, np.swapaxes(a.data, 0, 1))
        np.testing.assert_array_equal(swapaxes(a, -3, -2).data, np.swapaxes(a.data, 0, 1))
        np.testing.assert_array_equal(a[..., 1:3, 0].data, a.data[..., 1:3, 0])

        def f():
            return (self._weighted_sum(swapaxes(a, -3, -2))
                    + self._weighted_sum(swapaxes(b, 0, 2), seed=3)
                    + self._weighted_sum(b[1, :, 1:-1], seed=1))

        assert grad_check(f, g, samples_per_tensor=8) < 1e-6

    def test_getitem_rejects_advanced_indexing(self):
        with pytest.raises(ShapeError):
            _ = Tensor(np.zeros((3, 2)))[np.array([0, 0])]

class TestNoGrad:
    def test_ops_keep_no_tape(self):
        g = ParamGroup("parser")
        w = g.add("w", Tensor(np.ones((2, 3))))
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with no_grad():
            out = softmax(x * w + x)
            loss = out.sum()
        for tensor in (out, loss):
            assert tensor._parents == () and tensor._backward is None
            assert not tensor.requires_grad
        assert w.requires_grad
        loss.backward()
        assert not w.grad.any()
        taped = (x * w).sum()
        assert taped._parents != () and taped.requires_grad

    def test_finiteness_still_checked_and_mode_restored_after_raise(self):
        big = Tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            with no_grad():
                _ = big * big
        w = ParamGroup("parser").add("w", Tensor(np.ones((2, 2))))
        assert (w * w)._parents == (w, w)

    def test_nested_blocks_restore_the_outer_mode(self):
        w = ParamGroup("parser").add("w", Tensor(np.ones((2, 2))))
        with no_grad():
            with no_grad():
                pass
            assert (w * w)._parents == ()
        assert (w * w)._parents == (w, w)


class TestCheckedOnce:
    @staticmethod
    def overflowing():
        big = Tensor(np.full((2, 2), 1e308))
        runs = []

        def compute():
            runs.append(aste.numerics._check_ops)
            return softmax(big * big)

        return compute, runs

    def test_ops_unchecked_inside_and_result_returned(self):
        runs = []

        def compute():
            runs.append(aste.numerics._check_ops)
            return Tensor([1.0]) + Tensor([2.0])

        out = checked_once(compute, lambda t: (("sum", t.data),))
        assert out.data.tolist() == [3.0]
        assert runs == [False]
        assert aste.numerics._check_ops

    def test_non_finite_result_replays_and_names_the_op(self):
        compute, runs = self.overflowing()
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="^mul produced"):
            checked_once(compute, lambda t: (("softmax", t.data),))
        assert runs == [False, True]
        assert aste.numerics._check_ops

    def test_error_names_the_boundary_value_when_no_op_raises(self):
        with pytest.raises(NumericError, match="^gradient produced"):
            checked_once(lambda: np.array([np.nan]), lambda a: (("gradient", a),))

    def test_warnings_are_those_of_a_per_op_run(self):
        def messages(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NumericError):
                    run()
            return [str(w.message) for w in caught]

        compute, _ = self.overflowing()
        per_op = messages(compute)
        assert per_op == ["overflow encountered in multiply"]
        assert messages(lambda: checked_once(compute, lambda t: (("softmax", t.data),))) == per_op


class TestUncheckedOpsKeepNonFiniteValues:
    """With the per-op check off, an op whose result could hide a
    non-finite operand value shows it as NaN; on finite operands it gives
    what it always did, bit for bit."""

    @staticmethod
    def unchecked(op, *values):
        with aste.numerics._op_checks(False), np.errstate(all="ignore"):
            return op(*[Tensor(np.asarray(v, dtype=float)) for v in values]).data

    def test_relu(self):
        finite = np.array([-2.0, -0.0, 0.0, 5e-324, 3.0])
        assert relu_forward(finite).tobytes() == np.where(finite > 0, finite, 0.0).tobytes()
        with np.errstate(all="ignore"):
            out = relu_forward(np.array([np.nan, -np.inf, np.inf, -1.0, 2.0]))
        np.testing.assert_array_equal(out, [np.nan, np.nan, np.inf, 0.0, 2.0])

    def test_softmax(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 5))
        mask = rng.random((3, 5)) > 0.3
        mask[:, 0] = True
        shifted = np.where(mask, data, -np.inf)
        exp = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        expected = exp / exp.sum(axis=-1, keepdims=True)
        assert softmax(Tensor(data), mask=mask).data.tobytes() == expected.tobytes()
        data[0, 1], data[1, 2] = -np.inf, np.nan
        mask[1, 2] = False
        out = self.unchecked(lambda x: softmax(x, mask=mask), data)
        assert np.isnan(out[:2]).all() and np.isfinite(out[2]).all()

    def test_getitem(self):
        data = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(self.unchecked(lambda x: x[1:, :2], data), data[1:, :2])
        data[0, 1] = np.inf
        assert np.isnan(self.unchecked(lambda x: x[1:, :2], data)).all()
        assert Tensor(np.ones((2, 2)))[0].data.tolist() == [1.0, 1.0]

    def test_layer_norm_row_whose_variance_overflows(self):
        """The variance of [1e200, -1e200, 0] overflows; its row turns NaN
        instead of a finite copy of the bias, and finite rows come out bit
        for bit as the textbook formula gives them."""
        rng = np.random.default_rng(0)
        data = np.concatenate([[[1e200, -1e200, 0.0]], rng.normal(0, 3, (4, 3))])
        gain, bias = rng.normal(size=3), rng.normal(size=3)
        with np.errstate(all="ignore"):
            out = layer_norm_forward(data, gain, bias)[0]
        assert np.isnan(out[0]).all()
        finite = data[1:]
        centred = finite - finite.mean(axis=-1, keepdims=True)
        expected = centred * (1.0 / np.sqrt(finite.var(axis=-1, keepdims=True) + 1e-5))
        assert out[1:].tobytes() == (expected * gain + bias).tobytes()


class TestParamGroup:
    def test_duplicate_names_rejected(self):
        g = ParamGroup("encoder")
        g.add("w", Tensor([1.0]))
        with pytest.raises(ValueError):
            g.add("w", Tensor([2.0]))

    def test_multiplier_positive(self):
        with pytest.raises(ValueError):
            ParamGroup("parser", lr_multiplier=0.0)

    def test_members_are_views_of_one_buffer(self):
        """Values and gradients: ``b`` doubles the storage, which moves
        ``a`` with its gradient, and ``c`` lands in the doubled storage."""
        g = ParamGroup("encoder")
        a = g.add("a", Tensor(np.arange(6.0).reshape(2, 3)))
        a.grad[...] = np.arange(6.0).reshape(2, 3)
        b = g.add("b", Tensor(np.asfortranarray([[6.0, 7.0], [8.0, 9.0]])))
        c = g.add("c", Tensor(10.0))
        np.testing.assert_array_equal(g.buffer, np.arange(11.0))
        np.testing.assert_array_equal(g.grad, [0, 1, 2, 3, 4, 5, 0, 0, 0, 0, 0])
        for tensor, shape in ((a, (2, 3)), (b, (2, 2)), (c, ())):
            assert tensor.shape == shape and np.shares_memory(tensor.data, g.buffer)
            assert tensor.grad.shape == shape and np.shares_memory(tensor.grad, g.grad)
        np.testing.assert_array_equal(b.data, [[6.0, 7.0], [8.0, 9.0]])
        g.buffer -= 1.0
        np.testing.assert_array_equal(a.data, np.arange(-1.0, 5.0).reshape(2, 3))
        assert c.item() == 9.0
        g.grad[6:] = np.arange(6.0, 11.0)
        np.testing.assert_array_equal(b.grad, [[6.0, 7.0], [8.0, 9.0]])
        assert c.grad == 10.0
        g.zero_grad()
        assert not (a.grad.any() or b.grad.any() or c.grad.any())


class TestGradCheck:
    def test_square_at_three(self):
        g = ParamGroup("parser")
        w = g.add("w", Tensor([[3.0]]))
        err = grad_check(lambda: (w * w).sum(), g)
        assert err <= 1e-8
        # analytic gradient is exactly 2w = 6
        g.zero_grad()
        loss = (w * w).sum()
        loss.backward()
        assert abs(w.grad[0, 0] - 6.0) <= 1e-12

    def test_composed_loss_path(self):
        rng = np.random.default_rng(1)
        g = ParamGroup("parser")
        w = g.add("w", Tensor(rng.normal(0, 0.5, (4, 3))))
        b = g.add("b", Tensor(rng.normal(0, 0.5, (3,))))
        x = Tensor(rng.normal(0, 1, (3, 4)))
        targets = np.array([0, 2, 1])
        err = grad_check(lambda: cross_entropy(softmax(matmul(x, w) + b), targets), g,
                         samples_per_tensor=8)
        assert err < 1e-4

    def test_constant_function(self):
        g = ParamGroup("parser")
        g.add("w", Tensor([[1.0, 2.0]]))
        assert grad_check(lambda: Tensor(0.0) + Tensor(0.0), g) == 0.0

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(2)
        g = ParamGroup("encoder")
        gain = g.add("g", Tensor(np.ones(5)))
        bias = g.add("b", Tensor(np.zeros(5)))
        w = g.add("w", Tensor(rng.normal(0, 0.3, (5, 5))))
        x = Tensor(rng.normal(0, 1, (4, 5)))

        def f():
            h = layer_norm(matmul(x, w), gain, bias)
            return (h * h).sum()

        assert grad_check(f, g, samples_per_tensor=8) < 1e-4

    def test_perturbations_write_through_to_the_buffer(self):
        g = ParamGroup("parser")
        w = g.add("w", Tensor([[3.0, -1.0]]))
        g.add("b", Tensor([0.5]))
        before = g.buffer.copy()
        seen = []

        def f():
            seen.append(g.buffer.copy())
            return (w * w).sum()

        grad_check(f, g)
        assert np.shares_memory(w.data, g.buffer)
        assert any(not np.array_equal(values, before) for values in seen)
        np.testing.assert_array_equal(g.buffer, before)

    def test_non_finite_objective_rejected(self):
        g = ParamGroup("parser")
        w = g.add("w", Tensor([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            grad_check(lambda: (w * w).sum(), g)

    def test_nan_analytic_gradient_rejected(self):
        g = ParamGroup("parser")
        w = g.add("w", Tensor(np.ones((2, 2))))

        def f():
            return Tensor((w.data ** 2).sum(), _parents=(w,), _op="planted",
                          _backward=lambda grad: ((w, np.full(w.shape, np.nan)),))

        with pytest.raises(NumericError, match="analytic gradient of w"):
            grad_check(f, g)

    def test_nan_perturbed_objective_rejected(self):
        g = ParamGroup("parser")
        w = g.add("w", Tensor(np.ones((2, 2))))

        def f():
            value = (w.data ** 2).sum() if (w.data == 1.0).all() else np.nan
            with aste.numerics._op_checks(False):
                return Tensor(value, _parents=(w,), _op="planted",
                              _backward=lambda grad: ((w, 2.0 * grad * w.data),))

        with pytest.raises(NumericError, match="perturbed"):
            grad_check(f, g)
