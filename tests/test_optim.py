"""Adam optimizer tests against a line-by-line textbook reimplementation."""

import numpy as np
import pytest

import pillarptq.autodiff as ad
from pillarptq.autodiff import Tensor
from pillarptq.optim import Adam, AdamState, adam_step


def reference_adam(param, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam trajectory computed with explicit running sums."""
    p = np.array(param, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    out = []
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(p.copy())
    return out


class TestAdamStep:
    def test_first_step_is_signed_lr(self):
        # m_hat = g, v_hat = g^2 after bias correction, so step ~ lr * sign(g)
        state = AdamState(m=np.zeros(1), v=np.zeros(1))
        new = adam_step(np.zeros(1), np.array([3.0]), state, lr=0.1)
        assert new[0] == pytest.approx(-0.1, rel=1e-7)
        assert state.t == 1

    def test_trajectory_matches_reference(self, rng):
        param = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(50)]
        want = reference_adam(param, grads, lr=0.02)

        state = AdamState(m=np.zeros_like(param), v=np.zeros_like(param))
        p = param.copy()
        for g, expected in zip(grads, want):
            p = adam_step(p, g, state, lr=0.02)
            np.testing.assert_allclose(p, expected, atol=1e-12)
        assert state.t == 50

    def test_shape_mismatch_rejected(self):
        state = AdamState(m=np.zeros(2), v=np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            adam_step(np.zeros(2), np.zeros(3), state, lr=0.1)

    def test_momentum_persists_after_zero_grad_step(self):
        # a zero gradient still moves the param while m carries history
        state = AdamState(m=np.zeros(1), v=np.zeros(1))
        p = adam_step(np.zeros(1), np.array([1.0]), state, lr=0.1)
        p2 = adam_step(p, np.array([0.0]), state, lr=0.1)
        assert p2[0] < p[0]


class TestAdamDriver:
    def test_matches_reference_through_tensors(self, rng):
        data = rng.normal(size=5)
        grads = [rng.normal(size=5) for _ in range(20)]
        want = reference_adam(data, grads, lr=0.01)

        with ad.using_dtype(np.float64):
            t = Tensor(data.copy(), requires_grad=True)
        opt = Adam({"p": t}, lr=0.01)
        for g, expected in zip(grads, want):
            t.grad = g.copy()
            opt.step()
            np.testing.assert_allclose(t.data, expected, atol=1e-10)

    def test_per_name_learning_rates(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam({"a": a, "b": b}, lr={"a": 0.1, "b": 0.001})
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        assert a.data[0] == pytest.approx(-0.1, rel=1e-6)
        assert b.data[0] == pytest.approx(-0.001, rel=1e-6)

    def test_missing_name_in_lr_dict_is_an_error(self):
        t = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam({"p": t}, lr={"other": 0.1})
        t.grad = np.array([1.0])
        with pytest.raises(KeyError):
            opt.step()

    def test_none_grad_skipped(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": t}, lr=0.1)
        opt.step()
        assert t.data[0] == 1.0
        assert opt._states["p"].t == 0

    def test_dtype_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = Adam({"p": t}, lr=0.1)
        t.grad = np.ones(3, dtype=np.float32)
        opt.step()
        assert t.data.dtype == np.float32
