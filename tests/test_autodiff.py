"""Reverse-mode autodiff checks: every operator against central finite differences.

All numeric comparisons run under the float64 context so the finite-difference
step is not drowned by float32 noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pillarptq.autodiff as ad
from pillarptq.autodiff import Tensor
from pillarptq.quant import QuantParams, fake_quant, steered_level

F64 = np.float64


def numeric_grads(f, arrays, eps=1e-6):
    """Central-difference gradient of scalar f(*arrays) w.r.t. each array."""
    grads = []
    for i, a in enumerate(arrays):
        a = np.asarray(a, dtype=F64)
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = f(*arrays)
            flat[j] = orig - eps
            lo = f(*arrays)
            flat[j] = orig
            gf[j] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check_op(build, arrays, eps=1e-6, rtol=1e-6, atol=1e-9):
    """Compare tape gradients of scalar build(*tensors) against finite differences."""
    arrays = [np.asarray(a, dtype=F64) for a in arrays]
    with ad.using_dtype(F64):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*tensors)
        out.backward()
        got = [t.grad for t in tensors]

        def scalar(*arrs):
            ts = [Tensor(x) for x in arrs]
            return float(build(*ts).data)

        want = numeric_grads(scalar, arrays, eps=eps)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=rtol, atol=atol)


# -- dtype context ---------------------------------------------------------------------


class TestDtypeContext:
    def test_default_is_float32(self):
        assert ad.current_dtype() == np.float32
        assert Tensor(np.arange(3)).data.dtype == np.float32

    def test_context_switches_and_restores(self):
        with ad.using_dtype(F64):
            assert Tensor([1.0]).data.dtype == F64
        assert ad.current_dtype() == np.float32

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with ad.using_dtype(F64):
                raise RuntimeError("boom")
        assert ad.current_dtype() == np.float32


# -- tape mechanics ---------------------------------------------------------------------


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(t, 2.0).backward()

    def test_grad_accumulates_across_reuse(self):
        with ad.using_dtype(F64):
            x = Tensor(np.array([3.0]), requires_grad=True)
            y = ad.tsum(ad.add(ad.mul(x, x), x))  # x^2 + x
            y.backward()
            np.testing.assert_allclose(x.grad, [7.0])  # 2x + 1

    def test_detach_blocks_gradient(self):
        # a Tensor rebuilt from another's data is a constant on the tape
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.tsum(ad.mul(Tensor(x.data), x))
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0])  # only the live branch

    def test_constants_get_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        ad.tsum(ad.mul(x, c)).backward()
        assert c.grad is None

    def test_zero_grad_clears(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        ad.tsum(x).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_operator_sugar_matches_named_ops(self):
        with ad.using_dtype(F64):
            x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
            y = ad.tsum((-x + 3.0) * 2.0 - (x**2.0) / 4.0)
            y.backward()
            np.testing.assert_allclose(y.data, 2.0 * (1.5 + 5.0) - (1.5**2 + 4.0) / 4.0)
            np.testing.assert_allclose(x.grad, [-2.0 - 0.75, -2.0 + 1.0])

    def test_division_by_tensor_rejected(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) / Tensor([2.0])

    def test_diamond_graph_counts_both_paths(self):
        with ad.using_dtype(F64):
            x = Tensor(np.array([2.0]), requires_grad=True)
            a = ad.mul(x, 3.0)
            loss = ad.tsum(ad.add(a, ad.mul(a, a)))  # 3x + 9x^2
            loss.backward()
            np.testing.assert_allclose(x.grad, [3.0 + 18.0 * 2.0])

    def test_shared_incoming_gradient_gets_its_own_buffers(self):
        # `add` hands its incoming gradient to both parents unchanged; each
        # parent's first gradient becomes its buffer, so later accumulation
        # into one must not leak into the other or into the add node.
        with ad.using_dtype(F64):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            a, b = ad.mul(x, 3.0), ad.mul(x, 5.0)
            s = ad.add(a, b)
            loss = ad.tsum(ad.add(s, ad.mul(a, a)))  # 8x + 9x^2
            loss.backward()
            np.testing.assert_array_equal(s.grad, [1.0, 1.0])
            np.testing.assert_array_equal(a.grad, 1.0 + 2.0 * a.data)
            np.testing.assert_array_equal(b.grad, [1.0, 1.0])
            np.testing.assert_array_equal(x.grad, 8.0 + 18.0 * x.data)
            buffers = [t.grad for t in (x, a, b, s)]
            assert not any(
                np.may_share_memory(p, q) for i, p in enumerate(buffers) for q in buffers[i + 1 :]
            )

    def test_first_gradient_buffer_has_the_zeros_like_layout(self):
        # A vjp's own array is taken as the buffer only when zeros_like would
        # lay it out the same way; a gapped gradient of a gapped parent is
        # copied into a packed buffer instead.
        with ad.using_dtype(F64):
            for cols in (3, 6):
                x = Tensor(np.arange(24.0).reshape(4, 6)[:, :cols], requires_grad=True)
                seen = []

                def vjp(g, cols=cols):
                    gx = np.zeros((4, 6))[:, :cols]
                    gx += 2.0 * g
                    seen.append(gx)
                    return (gx,)

                y = Tensor._from_op(2.0 * x.data, [x], vjp)
                ad.tsum(y).backward()
                np.testing.assert_array_equal(x.grad, np.full((4, cols), 2.0))
                assert x.grad.strides == np.zeros_like(x.data).strides
                assert (x.grad is seen[0]) == (cols == 6)

    def test_same_tensor_twice_in_add_counts_both_paths(self):
        with ad.using_dtype(F64):
            x = Tensor(np.array([1.5]), requires_grad=True)
            ad.tsum(ad.add(x, x)).backward()
            np.testing.assert_array_equal(x.grad, [2.0])


# -- elementwise and reduction gradients -------------------------------------------------


class TestGradientsAgainstFiniteDifferences:
    def test_add_with_broadcast(self, rng):
        check_op(
            lambda a, b: ad.tsum(ad.add(a, b)),
            [rng.normal(size=(3, 4)), rng.normal(size=(4,))],
        )

    def test_mul_with_broadcast(self, rng):
        check_op(
            lambda a, b: ad.tsum(ad.mul(a, b)),
            [rng.normal(size=(2, 3)), rng.normal(size=(3,))],
        )

    def test_pow_const(self, rng):
        check_op(
            lambda a: ad.tsum(ad.pow_const(a, 3.0)), [rng.normal(size=6)]
        )
        check_op(
            lambda a: ad.tsum(ad.pow_const(a, -0.5)),
            [np.abs(rng.normal(size=6)) + 0.5],
        )

    def test_log(self, rng):
        check_op(lambda a: ad.tsum(ad.log(a)), [np.abs(rng.normal(size=8)) + 0.1])

    def test_absolute_away_from_zero(self, rng):
        x = rng.normal(size=10)
        x[np.abs(x) < 0.1] = 0.5
        check_op(lambda a: ad.tsum(ad.absolute(a)), [x])

    def test_relu_away_from_zero(self, rng):
        x = rng.normal(size=10)
        x[np.abs(x) < 0.1] = -0.7
        check_op(lambda a: ad.tsum(ad.relu(a)), [x])

    def test_sigmoid(self, rng):
        check_op(lambda a: ad.tsum(ad.sigmoid(a)), [rng.normal(size=8) * 3])

    def test_clip_interior_and_exterior(self):
        x = np.array([-2.0, -0.4, 0.3, 1.8])
        check_op(lambda a: ad.tsum(ad.clip(a, -1.0, 1.0)), [x])

    def test_sigmoid_saturates_without_overflow(self):
        x = Tensor(np.array([-1000.0, 1000.0]))
        with np.errstate(over="raise"):
            out = ad.sigmoid(x)
        np.testing.assert_allclose(out.data, [0.0, 1.0])


# -- convolution -------------------------------------------------------------------------


def naive_conv2d(x, w, b, stride, pad):
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wdt + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    patch = xp[ni, :, oi * stride : oi * stride + kh, oj * stride : oj * stride + kw]
                    out[ni, co, oi, oj] = np.sum(patch * w[co]) + (b[co] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_direct_convolution(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        with ad.using_dtype(F64):
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, pad), rtol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1)])
    def test_gradients_match_finite_differences(self, rng, stride, pad):
        x = rng.normal(size=(1, 2, 5, 5)) * 0.5
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        b = rng.normal(size=3) * 0.5
        check_op(
            lambda tx, tw, tb: ad.tsum(
                ad.pow_const(ad.conv2d(tx, tw, tb, stride, pad), 2.0)
            ),
            [x, w, b],
            rtol=1e-5,
            atol=1e-8,
        )

    def test_bias_is_optional(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 1, 1))
        with ad.using_dtype(F64):
            out = ad.conv2d(Tensor(x), Tensor(w), None, 1, 0)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, 1, 0), rtol=1e-12)


# -- the per-sample im2col conv, the reference the library conv must match bitwise ---


def ref_im2col(x, kh, kw, stride, pad):
    """(B, C, H, W) -> (B, C*kh*kw, Ho*Wo) patch matrix."""
    b, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(b, c * kh * kw, ho * wo), ho, wo


def ref_col2im(cols, x_shape, kh, kw, stride, pad):
    b, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(b, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += cols[
                :, :, i, j
            ]
    if pad:
        out = out[:, :, pad : hp - pad, pad : wp - pad]
    return out


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    x, weight = ad.as_tensor(x), ad.as_tensor(weight)
    if bias is not None:
        bias = ad.as_tensor(bias)
    cout, cin, kh, kw = weight.data.shape
    cols, ho, wo = ref_im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    bsz = x.data.shape[0]
    flat = cols.transpose(1, 0, 2).reshape(cin * kh * kw, bsz * ho * wo)
    out = (w2 @ flat).reshape(cout, bsz, ho * wo).transpose(1, 0, 2)
    out = out.reshape(bsz, cout, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    def vjp(g):
        gflat = g.reshape(bsz, cout, ho * wo)
        gout = gflat.transpose(1, 0, 2).reshape(cout, bsz * ho * wo)
        gw = gout @ flat.T
        gx = None
        if x.requires_grad:
            gcols = (w2.T @ gout).reshape(cin * kh * kw, bsz, ho * wo).transpose(1, 0, 2)
            gx = ref_col2im(gcols, x.data.shape, kh, kw, stride, padding)
        gb = gflat.sum(axis=(0, 2)) if bias is not None else None
        grads = [gx, gw.reshape(weight.data.shape)]
        if bias is not None:
            grads.append(gb)
        return tuple(grads)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, vjp)


def assert_bitwise(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def run_conv(conv, arrays, needs_grad, upstream, stride, pad):
    """Output and x/w/b gradients of sum(conv(...) * upstream)."""
    tensors = [
        None if a is None else Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)
    ]
    out = conv(*tensors, stride, pad)
    if out.requires_grad:
        ad.tsum(ad.mul(out, Tensor(upstream))).backward()
    return out.data, [None if t is None else t.grad for t in tensors]


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1]))
    lo = max(1, k - 2 * pad)
    h, w = draw(st.integers(lo, 9)), draw(st.integers(lo, 9))
    b, cin, cout = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return dict(
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        shape=(b, cin, h, w),
        w_shape=(cout, cin, k, k),
        stride=stride,
        pad=pad,
        # a (C, B, H, W) buffer seen as (B, C, H, W): the layout of a conv's input gradient
        transposed_input=draw(st.booleans()),
        with_bias=draw(st.booleans()),
        needs_grad=draw(st.tuples(st.booleans(), st.booleans(), st.booleans())),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(case=conv_cases())
def test_conv_matches_the_per_sample_im2col_bitwise(case):
    rng = np.random.default_rng(case["seed"])
    dtype, (b, cin, h, w) = case["dtype"], case["shape"]
    if case["transposed_input"]:
        x = rng.normal(size=(cin, b, h, w)).astype(dtype).transpose(1, 0, 2, 3)
    else:
        x = rng.normal(size=(b, cin, h, w)).astype(dtype)
    weight = rng.normal(size=case["w_shape"]).astype(dtype)
    bias = rng.normal(size=case["w_shape"][0]).astype(dtype) if case["with_bias"] else None
    stride, pad = case["stride"], case["pad"]
    ho = (h + 2 * pad - weight.shape[2]) // stride + 1
    wo = (w + 2 * pad - weight.shape[3]) // stride + 1
    upstream = rng.normal(size=(b, weight.shape[0], ho, wo)).astype(dtype)
    args = ((x, weight, bias), case["needs_grad"], upstream, stride, pad)
    with ad.using_dtype(dtype):
        want_out, want_grads = run_conv(ref_conv2d, *args)
        got_out, got_grads = run_conv(ad.conv2d, *args)
    if ho * wo == 1:
        # The reference's patch matrix is then a column-major view, so BLAS may
        # sum in another order: equal to rounding, not bitwise.
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got_out, want_out, rtol=tol, atol=tol)
        for got, want in zip(got_grads, want_grads):
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        return
    assert_bitwise(got_out, want_out)
    for got, want in zip(got_grads, want_grads):
        assert_bitwise(got, want)


def test_conv_vjp_skips_constant_weight_and_bias(rng):
    x = rng.normal(size=(3, 2, 5, 5))
    w, b = rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4)
    upstream = rng.normal(size=(3, 4, 3, 3))
    with ad.using_dtype(F64):
        tensors = Tensor(x, requires_grad=True), Tensor(w), Tensor(b)
        gx, gw, gb = ad.conv2d(*tensors, 2, 1)._vjp(upstream)
        want_gx = ref_conv2d(*tensors, 2, 1)._vjp(upstream)[0]
        args = ((x, w, b), (True, False, False), upstream, 2, 1)
        _, want = run_conv(ref_conv2d, *args)
        _, got = run_conv(ad.conv2d, *args)
    assert gw is None and gb is None
    assert_bitwise(gx, want_gx)
    assert_bitwise(got[0], want[0])


def test_mul_vjp_skips_constant_parent():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 4.0]))
    ga, gc = ad.mul(a, c)._vjp(np.ones(2))
    np.testing.assert_array_equal(ga, [3.0, 4.0])
    assert gc is None
    gc, ga = ad.mul(c, a)._vjp(np.ones(2))
    assert gc is None
    np.testing.assert_array_equal(ga, [3.0, 4.0])


# -- straight-through fake quantization ----------------------------------------------------


class TestFakeQuantOp:
    def test_forward_matches_quant_module(self, rng):
        x = rng.normal(size=(4, 4))
        with ad.using_dtype(F64):
            out = ad.fake_quant_op(Tensor(x), Tensor(0.05), bits=8)
        np.testing.assert_array_equal(out.data, fake_quant(x, QuantParams(0.05, 8)))

    def test_forward_with_offsets_matches_quant_module(self, rng):
        x = rng.normal(size=(3, 3))
        th = rng.uniform(-0.02, 0.07, size=(3, 3))
        with ad.using_dtype(F64):
            out = ad.fake_quant_op(Tensor(x), Tensor(0.05), bits=8, theta=Tensor(th))
        level = np.clip(steered_level(x, 0.05, np.clip(th, 0.0, 0.05)), -128, 127)
        np.testing.assert_array_equal(out.data, level * 0.05)

    def test_offset_moves_at_most_one_level(self):
        # same examples as the quant module's: float error and a negative tie
        x, th = np.array([0.15, -0.05]), np.array([1.0, 0.1])
        with ad.using_dtype(F64):
            out = ad.fake_quant_op(Tensor(x), Tensor(0.1), bits=8, theta=Tensor(th))
        np.testing.assert_allclose(out.data, [0.2, 0.0], atol=1e-15)

    def test_pass_through_gradient_masks_saturated_entries(self):
        with ad.using_dtype(F64):
            x = Tensor(np.array([0.5, 20.0, -20.0]), requires_grad=True)
            out = ad.fake_quant_op(x, Tensor(0.1), bits=8)  # range +-12.8
            ad.tsum(out).backward()
            np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_scale_gradient_is_sum_of_integer_levels(self, rng):
        with ad.using_dtype(F64):
            x = Tensor(np.array([0.32, -0.11, 5.0]))
            s = Tensor(0.1, requires_grad=True)
            out = ad.fake_quant_op(x, s, bits=4)  # clamps 5.0 at q_max=7
            ad.tsum(out).backward()
            np.testing.assert_allclose(s.grad, [3.0 - 1.0 + 7.0])

    def test_scale_gradient_matches_finite_differences_off_boundary(self, rng):
        # away from rounding boundaries the local map is s * k with k frozen,
        # so central differences on the hard forward agree with the tape
        x = rng.normal(size=64)
        with ad.using_dtype(F64):
            s0 = 0.0731
            s = Tensor(s0, requires_grad=True)
            out = ad.tsum(ad.fake_quant_op(Tensor(x), s, bits=8))
            out.backward()
            h = 1e-9
            hi = fake_quant(x, QuantParams(s0 + h, 8)).sum()
            lo = fake_quant(x, QuantParams(s0 - h, 8)).sum()
            fd = (hi - lo) / (2 * h)
        np.testing.assert_allclose(float(s.grad), fd, rtol=1e-3)

    def test_offset_gradient_obeys_mask_and_box(self):
        with ad.using_dtype(F64):
            s = 0.1
            x = Tensor(np.array([0.52, 0.52, 0.52, 20.0]))
            th = Tensor(np.array([0.05, -0.02, 0.12, 0.05]), requires_grad=True)
            out = ad.fake_quant_op(x, Tensor(s), bits=8, theta=th)
            ad.tsum(out).backward()
            # interior offset passes; outside [0, s] the clip kills it;
            # saturated x kills it regardless of the offset
            np.testing.assert_array_equal(th.grad, [1.0, 0.0, 0.0, 0.0])

    def test_zero_offsets_match_plain_op(self, rng):
        x = rng.normal(size=10)
        with ad.using_dtype(F64):
            a = ad.fake_quant_op(Tensor(x), Tensor(0.07), bits=8)
            b = ad.fake_quant_op(
                Tensor(x), Tensor(0.07), bits=8, theta=Tensor(np.zeros(10))
            )
        np.testing.assert_array_equal(a.data, b.data)

    def test_rejects_vector_scale_and_bad_shapes(self):
        x = Tensor(np.ones(4))
        with pytest.raises(ValueError):
            ad.fake_quant_op(x, Tensor(np.ones(2)), bits=8)
        with pytest.raises(ValueError):
            ad.fake_quant_op(x, Tensor(0.1), bits=8, theta=Tensor(np.ones(5)))
        with pytest.raises(ValueError):
            ad.fake_quant_op(x, Tensor(0.0), bits=8)
