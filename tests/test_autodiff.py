"""Reverse-mode autodiff checks: every operator against central finite differences.

All numeric comparisons run under the float64 context so the finite-difference
step is not drowned by float32 noise.
"""

import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pillarptq.autodiff as ad
from pillarptq.autodiff import Tensor
from pillarptq.detector import GridConfig, build_detector
from pillarptq.losses import pow2
from pillarptq.network import LayerSpec, freeze
from pillarptq.quant import QuantParams, fake_quant, level

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
            y = ad.tsum(2.0 * (3.0 - x) + (x - 1.0) * x + (1.0 + x))
            y.backward()
            # 6 - 2x + x^2 - x + 1 + x = x^2 - 2x + 7, gradient 2x - 2
            np.testing.assert_allclose(y.data, (2.25 - 3.0 + 7.0) + (4.0 + 4.0 + 7.0))
            np.testing.assert_allclose(x.grad, [1.0, -6.0])

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

    def test_pass_through_gradient_is_adopted_by_its_only_receiver(self):
        # `add` with a constant hands its incoming gradient to one parent,
        # which takes that array as its buffer; no copy is made
        with ad.using_dtype(F64):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            a = ad.mul(x, 3.0)
            s = ad.add(a, 1.0)
            ad.tsum(ad.mul(s, s)).backward()
            assert a.grad is s.grad
            np.testing.assert_array_equal(x.grad, 6.0 * (3.0 * x.data + 1.0))

    def test_elementwise_vjp_adopts_a_gradient_in_any_layout(self):
        # relu only multiplies its gradient elementwise, so a Fortran-order
        # gradient of its C-order output is taken as is; a leaf, or a conv
        # whose bias gradient sums over it, copies it into its own layout
        with ad.using_dtype(F64):
            x = Tensor(np.arange(-8.0, 8.0).reshape(2, 2, 2, 2), requires_grad=True)
            b = Tensor(np.zeros(2), requires_grad=True)
            relu, conv = ad.relu(x), ad.conv2d(x, np.ones((2, 2, 1, 1)), b)
            for node, adopts in ((relu, True), (conv, False), (x, False)):
                handed = []

                def vjp(g):
                    handed.append(np.asfortranarray(g))
                    return (handed[-1],)

                x.grad = None
                ad.tsum(Tensor._from_op(node.data.copy(), [node], vjp)).backward()
                assert (node.grad is handed[0]) == adopts
                assert adopts or node.grad.strides == node.data.strides
                np.testing.assert_array_equal(node.grad, np.ones(node.data.shape))

    def test_same_tensor_twice_in_add_counts_both_paths(self):
        with ad.using_dtype(F64):
            x = Tensor(np.array([1.5]), requires_grad=True)
            ad.tsum(ad.add(x, x)).backward()
            np.testing.assert_array_equal(x.grad, [2.0])

    def test_backward_frees_the_interior_of_its_tape(self, rng):
        # Holding only the loss keeps no array between it and the leaves once
        # backward has run, and the leaves still hold their gradients.
        with ad.using_dtype(F64):
            x = Tensor(rng.normal(size=(2, 3, 6, 6)))
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            conv = ad.conv2d(x, w, b, 1, 1)
            conv_out = weakref.ref(conv.data)
            live = conv.data > 0
            loss = ad.tsum(ad.relu(conv))
            del conv
            loss.backward()
        assert conv_out() is None
        assert loss._parents == () and loss._vjp is None
        np.testing.assert_array_equal(b.grad, live.sum(axis=(0, 2, 3)))
        xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want_w = np.zeros_like(w.data)
        for i in range(3):
            for j in range(3):
                window = xp[:, :, i : i + 6, j : j + 6]
                want_w[:, :, i, j] = np.einsum("bohw,bchw->oc", live, window)
        np.testing.assert_allclose(w.grad, want_w, rtol=1e-12)


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

    def test_quad_form(self, rng):
        # the vjp 2g (d @ G) is the gradient for a symmetric G, as P @ P.T is
        p = rng.normal(size=(6, 20))
        gram = p @ p.T
        assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()
        check_op(lambda d: ad.quad_form(d, gram), [rng.normal(size=(2, 3, 1, 2))])

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
                pow2(ad.conv2d(tx, tw, tb, stride, pad))
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


def ref_conv2d(x, weight, bias=None, stride=1, padding=0, per_sample=True):
    """Forward: one GEMM per sample, w2 @ cols[b], or with `per_sample`
    False one whole-batch GEMM on the (C*kh*kw, B*Ho*Wo) patch matrix; the
    output is channel-major either way, as the library's is. The vjp takes
    the weight gradient over the whole batch."""
    x, weight = ad.as_tensor(x), ad.as_tensor(weight)
    if bias is not None:
        bias = ad.as_tensor(bias)
    cout, cin, kh, kw = weight.data.shape
    cols, ho, wo = ref_im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    bsz = x.data.shape[0]
    flat = cols.transpose(1, 0, 2).reshape(cin * kh * kw, bsz * ho * wo)
    if per_sample:
        out = np.stack([w2 @ cols[i] for i in range(bsz)], axis=1)
    else:
        out = (w2 @ flat).reshape(cout, bsz, ho * wo)
    out = out.transpose(1, 0, 2).reshape(bsz, cout, ho, wo)
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
# A one-row GEMM per frame goes to BLAS's GEMV, which may sum in another
# order than the whole-batch GEMM: the reference's GEMMs are per sample too.
@example(
    case=dict(
        dtype=np.float64,
        shape=(2, 1, 3, 4),
        w_shape=(1, 1, 3, 3),
        stride=1,
        pad=0,
        transposed_input=False,
        with_bias=False,
        needs_grad=(False, False, False),
        seed=0,
    )
)
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
    assert_bitwise(got_out, want_out)
    if ho * wo == 1:
        # The reference's whole-batch patch matrix is then a column-major view,
        # so its gradient GEMMs may sum in another order: equal to rounding.
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for got, want in zip(got_grads, want_grads):
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        return
    for got, want in zip(got_grads, want_grads):
        assert_bitwise(got, want)


def _detector_convs():
    """Every conv of the detector, with the height and width of its input."""
    net = build_detector(GridConfig())
    side = net.input_spec[1]
    for layer in net.layers:
        yield pytest.param(layer, side, id=layer.name)
        side = (side + 2 * layer.padding - layer.weight.shape[2]) // layer.stride + 1
    for layer in net.heads.values():
        yield pytest.param(layer, side, id=layer.name)


@pytest.mark.parametrize("channel_major", [False, True], ids=["c_order", "channel_major"])
@pytest.mark.parametrize("b", [1, 2, 4, 8])
@pytest.mark.parametrize("layer,side", list(_detector_convs()))
def test_conv_matches_the_reference_at_the_detector_shapes(layer, side, b, channel_major):
    # float32, as the engine runs; the upstream gradient holds zeros of both
    # signs, as a relu mask leaves them
    rng = np.random.default_rng(0)
    shape = (layer.in_ch, b, side, side) if channel_major else (b, layer.in_ch, side, side)
    x = rng.normal(size=shape).astype(np.float32)
    x = x.transpose(1, 0, 2, 3) if channel_major else x
    ho = (side + 2 * layer.padding - layer.weight.shape[2]) // layer.stride + 1
    g = rng.normal(size=(b, layer.out_ch, ho, ho)).astype(np.float32)
    upstream = g * (rng.random(g.shape) < 0.5)
    arrays = (x, layer.weight, layer.bias)
    args = (arrays, (True, True, True), upstream, layer.stride, layer.padding)
    # the whole-batch GEMM: the per-frame forward gives the same columns
    want_out, want_grads = run_conv(partial(ref_conv2d, per_sample=False), *args)
    got_out, got_grads = run_conv(ad.conv2d, *args)
    assert_bitwise(got_out, want_out)
    for got, want in zip(got_grads, want_grads):
        assert_bitwise(got, want)


@pytest.mark.parametrize("channel_major", [True, False], ids=["channel_major", "c_order"])
@pytest.mark.parametrize("k,pad", [(1, 0), (3, 1)])
def test_backward_adopts_the_conv_input_gradient_without_a_copy(rng, k, pad, channel_major):
    # the vjp adds the taps into zeros laid out as the input is, so its array
    # is the gradient; a 1x1 conv's is a view of w.T @ g, channel-major, as
    # every conv output is (a C-order input's is copied into its layout)
    shape = (32, 4, 16, 16) if channel_major else (4, 32, 16, 16)
    x = rng.normal(size=shape).astype(np.float32)
    x = Tensor(x.transpose(1, 0, 2, 3) if channel_major else x, requires_grad=True)
    w = Tensor(rng.normal(size=(2, 32, k, k)), requires_grad=True)
    out = ad.conv2d(x, w, None, 1, pad)
    vjp, handed = out._vjp, []
    out._vjp = lambda g: handed.append(vjp(g)) or handed[-1]
    ad.tsum(out).backward()
    gx = handed[0][0]
    assert (x.grad is gx) == (channel_major or k == 3)
    assert x.grad.strides == x.data.strides
    if k == 1:
        assert gx.base.shape == (32, 4 * 16 * 16)


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
        th = rng.uniform(0.0, 0.05, size=(3, 3))
        with ad.using_dtype(F64):
            out = ad.fake_quant_op(Tensor(x), Tensor(0.05), bits=8, theta=Tensor(th))
        np.testing.assert_array_equal(out.data, level(x, QuantParams(0.05, 8), th) * 0.05)

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
            x = Tensor(np.array([0.52, 0.52, 20.0]))
            th = Tensor(np.array([0.0, 0.05, 0.05]), requires_grad=True)
            out = ad.fake_quant_op(x, Tensor(s), bits=8, theta=th)
            ad.tsum(out).backward()
            # offsets in [0, s] pass; saturated x kills it regardless
            np.testing.assert_array_equal(th.grad, [1.0, 1.0, 0.0])
            # the box itself is kept by the optimizer's projection, and
            # `freeze` clips the offsets it folds: outside [0, s] they act as
            # its ends
            w = np.full((4, 1, 1, 1), 0.52)
            raw, boxed = LayerSpec("c", w, np.zeros(4)), LayerSpec("c", w, np.zeros(4))
            a = QuantParams(1.0)
            freeze(raw, QuantParams(s), a, np.array([-0.02, 0.0, 0.12, 5.0]).reshape(w.shape))
            freeze(boxed, QuantParams(s), a, np.array([0.0, 0.0, s, s]).reshape(w.shape))
            np.testing.assert_array_equal(raw.weight, boxed.weight)
            np.testing.assert_array_equal(raw.weight.ravel(), [5, 5, 6, 6])

    def test_vjp_skips_constant_input_and_scale(self, rng):
        # the task loss quantizes a constant layer input at a live scale
        g = np.ones((3, 4))
        x, s = rng.normal(size=(3, 4)), 0.1
        gx, gs = ad.fake_quant_op(Tensor(x), Tensor(s, requires_grad=True), 8)._vjp(g)
        assert gx is None and gs is not None
        gx, gs = ad.fake_quant_op(Tensor(x, requires_grad=True), Tensor(s), 8)._vjp(g)
        assert gs is None
        np.testing.assert_array_equal(gx, g)

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
        with pytest.raises(ValueError):
            ad.fake_quant_op(x, Tensor(np.inf), bits=8)
        with pytest.raises(ValueError):
            ad.fake_quant_op(x, Tensor(0.1), bits=1)
