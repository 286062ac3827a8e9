import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import numeric_grad, rel_err
from tbcalib.nn import ops


def rand(rng, shape):
    return rng.normal(size=shape).astype(np.float64)


# --- convolution ---------------------------------------------------------------

def test_conv_output_shape():
    assert ops.conv3d_output_shape((48, 48, 48), 3, 1, 1, 1) == (48, 48, 48)
    assert ops.conv3d_output_shape((12, 12, 12), 3, 1, 2, 2) == (12, 12, 12)
    with pytest.raises(ValueError):
        ops.conv3d_output_shape((5, 5, 5), 2, 2, 1, 0)  # non-integral
    with pytest.raises(ValueError):
        ops.conv3d_output_shape((2, 2, 2), 3, 1, 2, 0)  # kernel too large


def test_conv_matches_naive_reference():
    rng = np.random.default_rng(0)
    x = rand(rng, (2, 5, 5, 5))
    w = rand(rng, (3, 2, 3, 3, 3))
    b = rand(rng, (3,))
    y = ops.conv3d_forward(x, w, b, stride=1, dilation=1, padding=0)
    ref = np.empty_like(y)
    for co in range(3):
        for z in range(3):
            for yy in range(3):
                for xx in range(3):
                    ref[co, z, yy, xx] = b[co] + np.sum(
                        w[co] * x[:, z:z + 3, yy:yy + 3, xx:xx + 3])
    np.testing.assert_allclose(y, ref, atol=1e-12)


def test_conv_gradients():
    rng = np.random.default_rng(1)
    for stride, dilation, padding in [(1, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 2)]:
        side = 7 if stride == 2 else 6
        x = rand(rng, (2, side, side, side))
        w = rand(rng, (3, 2, 3, 3, 3))
        b = rand(rng, (3,))
        y = ops.conv3d_forward(x, w, b, stride, dilation, padding)
        r = rand(rng, y.shape)

        def loss():
            return float(np.sum(ops.conv3d_forward(x, w, b, stride, dilation, padding) * r))

        gx, gw, gb = ops.conv3d_backward(x, w, r, stride, dilation, padding)
        assert rel_err(gx, numeric_grad(loss, x)) < 1e-6
        assert rel_err(gw, numeric_grad(loss, w)) < 1e-6
        assert rel_err(gb, numeric_grad(loss, b)) < 1e-6


def test_dilated_equals_zero_inflated_kernel():
    rng = np.random.default_rng(2)
    for dilation in (2, 3):
        x = rand(rng, (2, 9, 9, 9))
        w = rand(rng, (2, 2, 3, 3, 3))
        b = rand(rng, (2,))
        k_eff = dilation * 2 + 1
        w_inflated = np.zeros((2, 2, k_eff, k_eff, k_eff))
        w_inflated[:, :, ::dilation, ::dilation, ::dilation] = w
        a = ops.conv3d_forward(x, w, b, stride=1, dilation=dilation, padding=dilation)
        c = ops.conv3d_forward(x, w_inflated, b, stride=1, dilation=1, padding=dilation)
        np.testing.assert_allclose(a, c, atol=1e-10)


def per_tap_conv(x, w, b, stride, dilation, padding):
    """Direct per-tap reference: one strided view of the padded input per
    kernel tap.  Returns (y, backward) where backward(g) -> (gx, gw, gb)."""
    k = w.shape[2]
    p = padding
    do, ho, wo = ops.conv3d_output_shape(x.shape[1:], k, stride, dilation, p)
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))

    def view(kd, kh, kw):
        z0, y0, x0 = kd * dilation, kh * dilation, kw * dilation
        return (slice(None),
                slice(z0, z0 + (do - 1) * stride + 1, stride),
                slice(y0, y0 + (ho - 1) * stride + 1, stride),
                slice(x0, x0 + (wo - 1) * stride + 1, stride))

    y = np.broadcast_to(b[:, None, None, None], (w.shape[0], do, ho, wo)).copy()
    for tap in np.ndindex(k, k, k):
        y += np.tensordot(w[(slice(None), slice(None)) + tap], xp[view(*tap)], axes=(1, 0))

    def backward(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w)
        for tap in np.ndindex(k, k, k):
            sl = view(*tap)
            gw[(slice(None), slice(None)) + tap] = np.tensordot(
                g, xp[sl], axes=([1, 2, 3], [1, 2, 3]))
            gxp[sl] += np.tensordot(w[(slice(None), slice(None)) + tap].T, g, axes=(1, 0))
        d, h, wd = x.shape[1:]
        return gxp[:, p:p + d, p:p + h, p:p + wd], gw, g.sum(axis=(1, 2, 3))

    return y, backward


# (ci, co, side, k, stride, dilation, padding)
ORACLE_CASES = [
    (3, 2, 6, 1, 1, 1, 0),
    (3, 2, 7, 3, 1, 1, 1),
    (2, 3, 9, 3, 1, 2, 2),
    (2, 2, 11, 3, 1, 3, 3),
    (1, 4, 7, 3, 1, 1, 0),
    (3, 2, 9, 3, 2, 1, 1),
    (2, 3, 11, 3, 2, 2, 1),
    (8, 6, 26, 3, 1, 1, 1),  # flat length spans several full-im2col chunks
    (8, 6, 40, 3, 1, 1, 1),  # ... and several depth-stacked chunks
    (3, 16, 53, 1, 1, 1, 0),  # a 1^3 backward over more voxels than one chunk of 16 rows
    (8, 6, 41, 3, 2, 1, 1),  # stride 2 across several depth-stacked plane chunks
    (1, 4, 41, 3, 2, 1, 1),  # ... and several every-tap plane chunks
    (16, 1, 53, 1, 1, 1, 0),  # a one-output-channel 1^3 conv over several chunks
]


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("ci,co,side,k,stride,dilation,padding", ORACLE_CASES)
def test_conv_matches_per_tap_oracle(ci, co, side, k, stride, dilation, padding, dtype, rtol):
    """Forward and backward against the per-tap loop run in float64 on the
    same (dtype-rounded) inputs; tolerances are relative to the largest
    reference entry."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(ci, side, side, side)).astype(dtype)
    w = rng.normal(size=(co, ci, k, k, k)).astype(dtype)
    b = rng.normal(size=co).astype(dtype)
    y = ops.conv3d_forward(x, w, b, stride, dilation, padding)
    ref, ref_backward = per_tap_conv(x.astype(np.float64), w.astype(np.float64),
                                     b.astype(np.float64), stride, dilation, padding)
    g = rng.normal(size=y.shape).astype(dtype)
    got = (y,) + ops.conv3d_backward(x, w, g, stride, dilation, padding)
    want = (ref,) + ref_backward(g.astype(np.float64))
    for name, a, r in zip(("y", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.dtype == dtype and a.shape == r.shape, name
        np.testing.assert_allclose(a, r, rtol=rtol, atol=rtol * np.abs(r).max(), err_msg=name)


def test_oracle_cases_cross_an_im2col_chunk_boundary():
    """A chunk of n flat positions costs rows·(n + span) elements of the
    COLS_BYTES budget.  The forward stacks k·ci rows and writes k²·co
    partial rows, with span the largest in-plane shift, when (k²-1)·ci >
    2k·co, and otherwise k³·ci rows and co rows with no span; its n is the
    whole number of stride-plane quanta nearest the budget, at least one.
    The backward stacks k³·co rows.  At least one oracle case must need two
    chunks on both sides, even in float32."""
    def crosses(ci, co, side, k, stride, dilation, padding):
        p = side + 2 * padding
        span = dilation * (k - 1) * (p + 1)
        fwd_flat = p ** 3 - dilation * (k - 1) * p * p - span
        if (k * k - 1) * ci > 2 * k * co:
            rows = k * ci + k * k * co
        else:
            rows, span = k ** 3 * ci + co, 0
        quantum = stride * p * p
        fwd = quantum * max(1, round((ops.COLS_BYTES // (rows * 4) - span) / quantum))
        bwd = ops.COLS_BYTES // (k ** 3 * co * 4)
        bwd_flat = (side - 1) * (p * p + p + 1) + 1
        return fwd_flat > fwd and bwd_flat > bwd

    assert any(crosses(*case) for case in ORACLE_CASES)


def test_conv_peak_allocation_is_bounded_by_cols_budget():
    """Peak traced allocation of the dec2 conv (32->16 channels, 3^3, 48^3,
    float32) stays within its padded input and gradient arrays plus the
    im2col budget.  Measured with the 8 MiB budget: forward 30.5 MB against
    a 32.5 MB bound, backward 48.9 MB against 49.8 MB; with the whole im2col
    matrix in one chunk, forward reached 445 MB."""
    ci, co, n = 32, 16, 48
    rng = np.random.default_rng(14)
    x = rng.normal(size=(ci, n, n, n)).astype(np.float32)
    w = rng.normal(size=(co, ci, 3, 3, 3)).astype(np.float32)
    b = np.zeros(co, np.float32)
    g = rng.normal(size=(co, n, n, n)).astype(np.float32)
    padded = (n + 2) ** 3 * 4
    margin = 2 * ((n + 2) ** 2 + (n + 2) + 1) * 4
    slack = 1 << 20
    bounds = {
        # padded x, the output
        "forward": ci * padded + co * n ** 3 * 4,
        # padded x, padded grad_out behind its margin, padded grad_x
        "backward": ci * padded + co * (padded + margin) + ci * padded,
    }
    calls = {
        "forward": lambda: ops.conv3d_forward(x, w, b, 1, 1, 1),
        "backward": lambda: ops.conv3d_backward(x, w, g, 1, 1, 1),
    }
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bounds[name] + ops.COLS_BYTES + slack, (name, peak / 1e6)


@pytest.mark.parametrize("k,stride,dilation,padding", [
    (1, 1, 1, -1), (3, 1, 1, -1), (3, 2, 1, -1), (3, 1, 2, -2)])
def test_conv_negative_padding_leaves_the_caller_border_out(k, stride, dilation, padding):
    """A negative padding reads x without its outer -padding voxels: the
    per-tap conv of the cropped input, unpadded."""
    rng = np.random.default_rng(20)
    x = rand(rng, (3, 9, 11, 13))
    w = rand(rng, (2, 3, k, k, k))
    b = rand(rng, (2,))
    q = -padding
    ref, _ = per_tap_conv(x[:, q:-q, q:-q, q:-q], w, b, stride, dilation, 0)
    y = ops.conv3d_forward(x, w, b, stride, dilation, padding)
    assert y.shape == ref.shape
    np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


# (ci, co, k, stride, dilation, border): padding dilation*(k//2) for a 3^3 kernel
BORDER_CASES = {
    "depth_stacked": (8, 2, 3, 1, 1, 1),
    "full_im2col": (2, 6, 3, 1, 2, 2),
    "stride_2": (3, 2, 3, 2, 1, 1),
    "one_voxel_kernel": (4, 3, 1, 1, 1, 1),
    "border_wider_than_padding": (8, 2, 3, 1, 1, 2),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(BORDER_CASES))
def test_conv_backward_reads_the_caller_border(case, dtype):
    """conv3d_backward on an input that carries a zero border, with the
    forward's padding convention, gives the bits of the call on the bare
    input; a border exactly as wide as the padding is read in place, and
    grad_x is then a view of the padded layout."""
    ci, co, k, stride, dilation, border = BORDER_CASES[case]
    padding = dilation * (k // 2)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(ci, 9, 7, 11)).astype(dtype)
    w = rng.normal(size=(co, ci, k, k, k)).astype(dtype)
    g = rng.normal(size=(co,) + ops.conv3d_output_shape(x.shape[1:], k, stride, dilation,
                                                        padding)).astype(dtype)
    xb = np.zeros((ci,) + tuple(n + 2 * border for n in x.shape[1:]), dtype)
    xb[:, border:-border, border:-border, border:-border] = x
    want = ops.conv3d_backward(x, w, g, stride, dilation, padding)
    got = ops.conv3d_backward(xb, w, g, stride, dilation, padding - border, border)
    for name, a, r in zip(("grad_x", "grad_w", "grad_b"), got, want):
        assert a.dtype == dtype and a.shape == r.shape, name
        np.testing.assert_array_equal(a, r, err_msg=name)
    if k > 1:
        assert got[0].base is not None and not got[0].flags.c_contiguous
    with pytest.raises(ValueError, match="border"):
        ops.conv3d_backward(xb, w, g, stride, dilation, -padding - 1, 0)


def out_cases(dtype):
    """call(out=...) for each conv path and the transposed conv, on fixed
    random inputs of the given dtype."""
    rng = np.random.default_rng(19)

    def arr(*shape):
        return rng.normal(size=shape).astype(dtype)

    x, xs = arr(4, 6, 7, 8), arr(4, 7, 9, 5)
    return {
        "depth_stacked": partial(ops.conv3d_forward, x, arr(2, 4, 3, 3, 3), arr(2), 1, 1, 1),
        "full_im2col": partial(ops.conv3d_forward, x, arr(6, 4, 3, 3, 3), arr(6), 1, 2, 2),
        "one_voxel_kernel": partial(ops.conv3d_forward, x, arr(3, 4, 1, 1, 1), arr(3)),
        "stride_2": partial(ops.conv3d_forward, xs, arr(3, 4, 3, 3, 3), arr(3), 2, 1, 1),
        "caller_border": partial(ops.conv3d_forward, x, arr(3, 4, 1, 1, 1), arr(3), 1, 1, -1),
        "transposed": partial(ops.conv_transpose3d_forward, x, arr(4, 3, 2, 2, 2), arr(3)),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(out_cases(np.float32)))
def test_out_view_gets_the_bits_of_the_allocating_call(case, dtype):
    """A strided view as `out` receives exactly the allocating call's
    result, is what the call returns, and nothing around it is written."""
    call = out_cases(dtype)[case]
    want = call()
    buf = np.full((want.shape[0] + 2,) + tuple(n + 4 for n in want.shape[1:]), np.nan, dtype)
    out = buf[1:-1, 2:-2, 2:-2, 2:-2]
    assert not out.flags.c_contiguous
    assert call(out=out) is out
    np.testing.assert_array_equal(out, want)
    assert np.isnan(buf).sum() == buf.size - out.size


@pytest.mark.parametrize("case", list(out_cases(np.float32)))
def test_out_of_wrong_shape_or_dtype_is_refused(case):
    for dtype, wrong in ((np.float32, np.float64), (np.float64, np.float32)):
        call = out_cases(dtype)[case]
        shape = call().shape
        for bad in (np.zeros(shape, wrong),
                    np.zeros(shape[:-1] + (shape[-1] + 1,), dtype),
                    np.zeros(shape[1:], dtype)):
            with pytest.raises(ValueError, match="out must be"):
                call(out=bad)
            assert not bad.any()


# (ci, co, spatial, k, dilation, padding, border): x carries a zero border of
# `border` voxels per side around the spatial extent
RELU_CASES = {
    "one_voxel_kernel": (4, 3, (6, 7, 8), 1, 1, 0, 0),
    "depth_stacked": (8, 2, (6, 7, 8), 3, 1, 1, 0),
    "depth_stacked_chunks": (8, 6, (40, 40, 40), 3, 1, 1, 0),
    "one_channel_stem": (1, 8, (41, 40, 40), 3, 1, 1, 0),
    "dilation_3": (4, 4, (11, 10, 12), 3, 3, 3, 0),
    "caller_border_1x1": (4, 3, (6, 7, 8), 1, 1, -1, 1),
    "caller_border_3x3": (8, 2, (6, 7, 8), 3, 1, -1, 2),
}


def relu_case(case, dtype):
    """(x, w, b, dilation, padding) of a RELU_CASES entry on fixed random
    inputs; the bias straddles zero so that ReLU clips part of every channel."""
    ci, co, spatial, k, dilation, padding, border = RELU_CASES[case]
    rng = np.random.default_rng(23)
    x = np.zeros((ci,) + tuple(n + 2 * border for n in spatial), dtype)
    x[(slice(None),) + tuple(slice(border, border + n) for n in spatial)] = \
        rng.normal(size=(ci,) + spatial)
    w = rng.normal(size=(co, ci, k, k, k)).astype(dtype)
    b = rng.normal(size=co).astype(dtype)
    return x, w, b, dilation, padding


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(RELU_CASES))
def test_conv_relu_equals_conv_then_relu(case, dtype):
    """relu=True applies max(·, 0) to each chunk's planes of the result
    right after they get their bias: the bits of conv, bias, then ReLU,
    allocating or into a strided `out`."""
    x, w, b, dilation, padding = relu_case(case, dtype)
    want = np.maximum(ops.conv3d_forward(x, w, b, 1, dilation, padding), 0)
    assert 0 < np.count_nonzero(want) < want.size
    got = ops.conv3d_forward(x, w, b, 1, dilation, padding, relu=True)
    assert got.dtype == dtype and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    buf = np.full((want.shape[0] + 2,) + tuple(n + 4 for n in want.shape[1:]), np.nan, dtype)
    out = buf[1:-1, 2:-2, 2:-2, 2:-2]
    assert ops.conv3d_forward(x, w, b, 1, dilation, padding, out=out, relu=True) is out
    np.testing.assert_array_equal(out, want)
    assert np.isnan(buf).sum() == buf.size - out.size


@pytest.mark.parametrize("k,spatial,ahead", [
    (1, (7, 6, 8), 0), (3, (7, 6, 8), 0), (3, (60, 60, 60), 0),
    (1, (60, 60, 60), 1), (1, (60, 60, 60), -1)],
    ids=["1", "3", "3-chunks", "1-chunks-ahead", "1-chunks-behind"])
def test_conv_relu_out_inside_the_input(k, spatial, ahead):
    """As in a dense block's reduction, a 1^3 conv's `out` may be channels
    of the input's own interior, which the conv reads through its border:
    the result is that of the call on an untouched copy.  A 3^3 conv's
    `out` there, or a 1^3 one `ahead` planes off it, is refused before
    anything is written: the 60^3 input spans several chunks, each of which
    reads planes that the one before it would have written; with a 1^3
    `out` one plane ahead, each chunk would write the first plane that the
    next one reads."""
    rng = np.random.default_rng(24)
    x = np.zeros((6,) + tuple(n + 2 for n in spatial))
    x[:, 1:-1, 1:-1, 1:-1] = rng.normal(size=(6,) + spatial)
    w, b = rng.normal(size=(4, 6, k, k, k)), rng.normal(size=4)
    padding = k // 2 - 1
    want = ops.conv3d_forward(x.copy(), w, b, padding=padding, relu=True)
    out = x[1:5, 1 + ahead:x.shape[1] - 1 + ahead, 1:-1, 1:-1]
    if k == 1 and not ahead:
        assert ops.conv3d_forward(x, w, b, padding=padding, out=out, relu=True) is out
        np.testing.assert_array_equal(out, want)
    else:
        before = x.tobytes()
        with pytest.raises(ValueError, match="overlaps"):
            ops.conv3d_forward(x, w, b, padding=padding, out=out, relu=True)
        assert x.tobytes() == before


# (ci, co, spatial, k, stride, dilation, padding, border): x carries a zero
# border of `border` voxels per side around the spatial extent
BIAS_CASES = {
    "caller_border_1x1": (6, 4, (9, 8, 10), 1, 1, 1, -1, 1),
    "depth_stacked": (8, 6, (40, 40, 40), 3, 1, 1, 1, 0),
    "one_channel_every_tap": (1, 8, (41, 40, 40), 3, 1, 1, 1, 0),
    "stride_2": (3, 2, (9, 7, 11), 3, 2, 1, 1, 0),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(BIAS_CASES))
def test_conv_bias_is_one_add_after_the_tap_sum(case, dtype):
    """Each chunk gets its bias right after its GEMM: byte for byte the
    conv without bias plus b, allocating or into a strided `out`."""
    ci, co, spatial, k, stride, dilation, padding, border = BIAS_CASES[case]
    rng = np.random.default_rng(25)
    x = np.zeros((ci,) + tuple(n + 2 * border for n in spatial), dtype)
    x[(slice(None),) + tuple(slice(border, border + n) for n in spatial)] = \
        rng.normal(size=(ci,) + spatial)
    w = rng.normal(size=(co, ci, k, k, k)).astype(dtype)
    b = rng.normal(size=co).astype(dtype)
    args = (stride, dilation, padding)
    want = ops.conv3d_forward(x, w, np.zeros_like(b), *args) + b[:, None, None, None]
    got = ops.conv3d_forward(x, w, b, *args)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    buf = np.full((want.shape[0] + 2,) + tuple(n + 4 for n in want.shape[1:]), np.nan, dtype)
    out = buf[1:-1, 2:-2, 2:-2, 2:-2]
    assert ops.conv3d_forward(x, w, b, *args, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert np.isnan(buf).sum() == buf.size - out.size


@pytest.mark.parametrize("k", [1, 3])
def test_conv_output_takes_the_input_dtype(k):
    """Every path of both conv forwards casts into an output of x's dtype,
    whatever the weights' and bias's dtypes, and `out` must have that
    dtype."""
    rng = np.random.default_rng(27)
    x = rng.normal(size=(4, 6, 7, 8)).astype(np.float32)
    w, b = rng.normal(size=(3, 4, k, k, k)), rng.normal(size=3)
    y = ops.conv3d_forward(x, w, b, padding=k // 2)
    assert y.dtype == np.float32
    out = np.empty_like(y)
    assert ops.conv3d_forward(x, w, b, padding=k // 2, out=out) is out
    np.testing.assert_array_equal(out, y)
    with pytest.raises(ValueError, match="out must be"):
        ops.conv3d_forward(x, w, b, padding=k // 2, out=y.astype(np.float64))
    wt = rng.normal(size=(4, 3, k, k, k)).astype(np.float32)
    yt = ops.conv_transpose3d_forward(x, wt, b)
    assert yt.dtype == np.float32
    out = np.empty_like(yt)
    assert ops.conv_transpose3d_forward(x, wt, b, out=out) is out
    np.testing.assert_array_equal(out, yt)
    with pytest.raises(ValueError, match="out must be"):
        ops.conv_transpose3d_forward(x, wt, b, out=yt.astype(np.float64))


@pytest.mark.parametrize("k, padding", [(1, 0), (1, 1), (3, 0), (3, 1)])
@pytest.mark.parametrize("xt, wt, gt", list(itertools.product([np.float32, np.float64], repeat=3)))
def test_conv_backward_gradients_take_their_operands_dtypes(k, padding, xt, wt, gt):
    """grad_x takes x's dtype, grad_w w's and grad_b grad_out's, for every
    kernel size and padding, and each matches the float64 gradients."""
    rng = np.random.default_rng(28)
    x = rng.normal(size=(4, 6, 7, 8))
    w = rng.normal(size=(3, 4, k, k, k))
    g = rng.normal(size=(3,) + ops.conv3d_output_shape(x.shape[1:], k, 1, 1, padding))
    want = ops.conv3d_backward(x, w, g, padding=padding)
    got = ops.conv3d_backward(x.astype(xt), w.astype(wt), g.astype(gt), padding=padding)
    assert [a.dtype for a in got] == [np.dtype(xt), np.dtype(wt), np.dtype(gt)]
    for a, ref in zip(got, want):
        np.testing.assert_allclose(a, ref, rtol=1e-4, atol=1e-4)


def test_one_voxel_conv_reads_its_input_in_place():
    """A 1^3 conv over a bordered stack, as a dense block's reduction reads
    it (40 channels of 50^3 float32, padding -1, 20 MB), allocates its
    output and its chunk's GEMM buffer and nothing of the input's size: its
    one tap's `cols` is a view of the stack, not a copy.  Measured: 9.5 MB
    against a 10.6 MB bound; the padded-layout output and crop of an earlier
    design reached 14.8 MB.  With `out` on the stack's own voxels, as the
    reduction writes in eval, it allocates only the GEMM buffer: 2.5 MB
    against a 3.5 MB bound, where a copy of the output would add 7.1 MB."""
    ci, co, n = 40, 16, 48
    rng = np.random.default_rng(26)
    x = np.zeros((ci, n + 2, n + 2, n + 2), np.float32)
    x[:, 1:-1, 1:-1, 1:-1] = rng.normal(size=(ci, n, n, n))
    w = rng.normal(size=(co, ci, 1, 1, 1)).astype(np.float32)
    b = rng.normal(size=co).astype(np.float32)
    want = ops.conv3d_forward(x, w, b, 1, 1, -1, relu=True)
    out = x[co:2 * co, 1:-1, 1:-1, 1:-1]
    peaks = []
    for o in (None, out):
        tracemalloc.start()
        try:
            ops.conv3d_forward(x, w, b, 1, 1, -1, out=o, relu=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    np.testing.assert_array_equal(out, want)
    output = co * n ** 3 * 4
    # co of the ci + co budgeted rows, give or take half a plane
    part = co * (ops.COLS_BYTES // ((ci + co) * 4) + (n + 2) ** 2 // 2) * 4
    assert peaks[0] <= output + part + (1 << 20), peaks[0] / 1e6
    assert peaks[1] <= part + (1 << 20), peaks[1] / 1e6


# --- transposed convolution ------------------------------------------------------

def test_conv_transpose_output_shape():
    rng = np.random.default_rng(3)
    x = rand(rng, (2, 5, 5, 5))
    w = rand(rng, (2, 3, 2, 2, 2))
    y = ops.conv_transpose3d_forward(x, w, np.zeros(3))
    assert y.shape == (3, 10, 10, 10)


def test_conv_transpose_is_adjoint_of_strided_conv():
    """<conv(x), y> == <x, conv_transpose(y)> with the shared kernel (the
    defining property of the transpose; bias zero)."""
    rng = np.random.default_rng(4)
    ci, co, k, s = 3, 2, 2, 2
    x = rand(rng, (ci, 6, 6, 6))
    w = rand(rng, (co, ci, k, k, k))  # conv layout
    y = ops.conv3d_forward(x, w, np.zeros(co), stride=s)
    u = rand(rng, y.shape)
    # the conv layout (co, ci, k, k, k) reads as the transpose's (in, out, ...)
    xt = ops.conv_transpose3d_forward(u, w, np.zeros(ci))
    assert np.allclose(np.sum(y * u), np.sum(x * xt), atol=1e-9)


def test_conv_transpose_gradients():
    rng = np.random.default_rng(5)
    x = rand(rng, (2, 4, 4, 4))
    w = rand(rng, (2, 3, 2, 2, 2))
    b = rand(rng, (3,))
    y = ops.conv_transpose3d_forward(x, w, b)
    r = rand(rng, y.shape)

    def loss():
        return float(np.sum(ops.conv_transpose3d_forward(x, w, b) * r))

    gx, gw, gb = ops.conv_transpose3d_backward(x, w, r)
    assert rel_err(gx, numeric_grad(loss, x)) < 1e-6
    assert rel_err(gw, numeric_grad(loss, w)) < 1e-6
    assert rel_err(gb, numeric_grad(loss, b)) < 1e-6


def per_tap_conv_transpose(x, w, b, stride):
    """The former per-tap transposed conv: every kernel tap adds its
    (Co, D, H, W) product into a strided view of the output.  Returns
    (y, backward) where backward(g) -> (gx, gw, gb)."""
    ci, d, h, wd = x.shape
    co, k = w.shape[1], w.shape[2]

    def view(kd, kh, kw):
        return (slice(None),
                slice(kd, kd + (d - 1) * stride + 1, stride),
                slice(kh, kh + (h - 1) * stride + 1, stride),
                slice(kw, kw + (wd - 1) * stride + 1, stride))

    y = np.zeros((co,) + tuple((n - 1) * stride + k for n in (d, h, wd)), dtype=x.dtype)
    for tap in np.ndindex(k, k, k):
        y[view(*tap)] += np.tensordot(w[(slice(None), slice(None)) + tap], x, axes=(0, 0))
    y += b[:, None, None, None]

    def backward(g):
        gx = np.zeros_like(x)
        gw = np.zeros_like(w)
        for tap in np.ndindex(k, k, k):
            gs = g[view(*tap)]
            gx += np.tensordot(w[(slice(None), slice(None)) + tap], gs, axes=(1, 0))
            gw[(slice(None), slice(None)) + tap] = np.tensordot(
                x, gs, axes=([1, 2, 3], [1, 2, 3]))
        return gx, gw, g.sum(axis=(1, 2, 3))

    return y, backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,dhw", [
    (3, 2, (5, 5, 5)),
    (2, 3, (3, 5, 4)),      # distinct extents keep the axis interleave honest
    (1, 1, (12, 12, 12)),   # deep-supervision heads
    (64, 32, (12, 12, 12)),  # MFFNet up1
    (32, 16, (12, 12, 12)),  # MFFNet up2 channels
])
def test_conv_transpose_matches_per_tap_oracle(ci, co, dhw, dtype):
    """Forward exactly equal to the per-tap reference at the same dtype
    (windows never overlap, so every output is one product plus the bias);
    backward within rtol 1e-5 of the largest reference entry."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(ci,) + dhw).astype(dtype)
    w = rng.normal(size=(ci, co, 2, 2, 2)).astype(dtype)
    b = rng.normal(size=co).astype(dtype)
    y = ops.conv_transpose3d_forward(x, w, b)
    ref, ref_backward = per_tap_conv_transpose(x, w, b, 2)
    assert y.dtype == dtype and y.shape == ref.shape
    np.testing.assert_array_equal(y, ref)
    g = rng.normal(size=y.shape).astype(dtype)
    for name, a, r in zip(("grad_x", "grad_w", "grad_b"),
                          ops.conv_transpose3d_backward(x, w, g), ref_backward(g)):
        assert a.dtype == dtype and a.shape == r.shape, name
        np.testing.assert_allclose(a, r, rtol=1e-5, atol=1e-5 * np.abs(r).max(), err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,dhw", [(3, 2, (3, 5, 4)), (64, 32, (12, 8, 28)), (1, 1, (7, 2, 5))])
def test_conv_transpose_interleave_matches_reshape_formula(ci, co, dhw, dtype):
    """The strided-slice tap writes give the bits of the former single
    reshape/transpose interleave of the bias-added GEMM output."""
    rng = np.random.default_rng(18)
    x = rng.normal(size=(ci,) + dhw).astype(dtype)
    w = rng.normal(size=(ci, co, 2, 2, 2)).astype(dtype)
    b = rng.normal(size=co).astype(dtype)
    d, h, wd = dhw
    taps = (w.reshape(ci, -1).T @ x.reshape(ci, -1)).reshape(co, -1)
    taps += b[:, None]
    ref = taps.reshape(co, 2, 2, 2, d, h, wd).transpose(0, 4, 1, 5, 2, 6, 3)
    ref = ref.reshape(co, 2 * d, 2 * h, 2 * wd)
    y = ops.conv_transpose3d_forward(x, w, b)
    assert y.dtype == dtype and y.flags.c_contiguous
    np.testing.assert_array_equal(y, ref)


@pytest.mark.parametrize("k,stride", [(2, 1), (3, 2), (2, 3)])
def test_conv_transpose_needs_kernel_equal_to_stride(k, stride):
    """The stride is the kernel side: a kernel that mixes sides k and stride
    is refused, and a cubic kernel of side k upsamples by k."""
    x = np.zeros((1, 4, 4, 4))
    for kernel in [(k, k, stride), (stride, k, k), (k, stride, k)]:
        w = np.zeros((1, 1) + kernel)
        with pytest.raises(ValueError, match="cubic kernel"):
            ops.conv_transpose3d_forward(x, w, np.zeros(1))
        with pytest.raises(ValueError, match="cubic kernel"):
            ops.conv_transpose3d_backward(x, w, np.zeros((1, 8, 8, 8)))
    w = np.ones((1, 1, k, k, k))
    y = ops.conv_transpose3d_forward(x, w, np.zeros(1))
    assert y.shape == (1, 4 * k, 4 * k, 4 * k)
    gx, gw, _ = ops.conv_transpose3d_backward(x, w, np.ones_like(y))
    assert gx.shape == x.shape and gw.shape == w.shape


# --- pooling ------------------------------------------------------------------

def naive_pool(x, k, stride, padding, mode):
    """Nested-loop pooling reference; average divides by in-bounds taps only."""
    c, d, h, w = x.shape
    out = tuple((n + 2 * padding - k) // stride + 1 for n in (d, h, w))
    y = np.empty((c,) + out)
    for ci in range(c):
        for oz in range(out[0]):
            for oy in range(out[1]):
                for ox in range(out[2]):
                    vals = []
                    for kz in range(k):
                        for ky in range(k):
                            for kx in range(k):
                                z = oz * stride + kz - padding
                                yy = oy * stride + ky - padding
                                xx = ox * stride + kx - padding
                                if 0 <= z < d and 0 <= yy < h and 0 <= xx < w:
                                    vals.append(x[ci, z, yy, xx])
                    y[ci, oz, oy, ox] = max(vals) if mode == "max" else \
                        sum(vals) / len(vals)
    return y


@pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 2, 1)])
def test_pooling_matches_nested_loops(k, stride, padding):
    rng = np.random.default_rng(6)
    for side in (4, 6, 8):
        x = rand(rng, (2, side, side, side))
        ymax, _ = ops.maxpool3d_forward(x, k, stride, padding)
        yavg, _ = ops.avgpool3d_forward(x, k, stride, padding)
        np.testing.assert_allclose(ymax, naive_pool(x, k, stride, padding, "max"), atol=1e-12)
        np.testing.assert_allclose(yavg, naive_pool(x, k, stride, padding, "avg"), atol=1e-12)


def test_pool_branch_shapes_agree():
    rng = np.random.default_rng(7)
    for side in (4, 6, 8):
        x = rand(rng, (3, side, side, side))
        shapes = {
            ops.maxpool3d_forward(x, 2, 2, 0)[0].shape,
            ops.avgpool3d_forward(x, 2, 2, 0)[0].shape,
            ops.maxpool3d_forward(x, 3, 2, 1)[0].shape,
            ops.avgpool3d_forward(x, 3, 2, 1)[0].shape,
        }
        assert shapes == {(3, side // 2, side // 2, side // 2)}


def test_avgpool_constant_preserved_at_border():
    x = np.full((1, 4, 4, 4), 3.5)
    y, _ = ops.avgpool3d_forward(x, 3, 2, 1)
    np.testing.assert_allclose(y, 3.5)


def test_maxpool_padding_never_wins():
    x = np.full((1, 4, 4, 4), -5.0)
    y, _ = ops.maxpool3d_forward(x, 3, 2, 1)
    np.testing.assert_allclose(y, -5.0)


def test_pool_gradients():
    rng = np.random.default_rng(8)
    for k, stride, padding in [(2, 2, 0), (3, 2, 1)]:
        x = rand(rng, (2, 6, 6, 6))
        ym, arg = ops.maxpool3d_forward(x, k, stride, padding)
        ya, counts = ops.avgpool3d_forward(x, k, stride, padding)
        r = rand(rng, ym.shape)

        def loss_max():
            return float(np.sum(ops.maxpool3d_forward(x, k, stride, padding)[0] * r))

        def loss_avg():
            return float(np.sum(ops.avgpool3d_forward(x, k, stride, padding)[0] * r))

        gmax = ops.maxpool3d_backward(x.shape, arg, r, k, stride, padding)
        gavg = ops.avgpool3d_backward(x.shape, counts, r, k, stride, padding)
        assert rel_err(gmax, numeric_grad(loss_max, x)) < 1e-6
        assert rel_err(gavg, numeric_grad(loss_avg, x)) < 1e-6


def per_tap_pool(x, k, stride, padding):
    """Reference pooling over a padded copy, one strided slice per tap in
    scan order: (max y, argmax tap, avg y, counts)."""
    p = int(padding)
    out = tuple((n + 2 * p - k) // stride + 1 for n in x.shape[1:])
    pads = ((0, 0), (p, p), (p, p), (p, p))
    xmax = np.pad(x, pads, constant_values=-np.inf)
    xsum = np.pad(x, pads)
    ones = np.pad(np.ones(x.shape, dtype=x.dtype), pads)
    ymax = np.full((x.shape[0],) + out, -np.inf, dtype=x.dtype)
    arg = np.zeros(ymax.shape, dtype=np.int8)
    ysum = np.zeros(ymax.shape, dtype=x.dtype)
    counts = np.zeros(ymax.shape, dtype=x.dtype)
    for tap, sl in enumerate(_pool_tap_slices(out, k, stride)):
        np.copyto(arg, np.int8(tap), where=xmax[sl] > ymax)
        np.maximum(ymax, xmax[sl], out=ymax)
        ysum += xsum[sl]
        counts += ones[sl]
    return ymax, arg, ysum / counts, counts


def _pool_tap_slices(out, k, stride):
    for kd, kh, kw in np.ndindex(k, k, k):
        yield (slice(None),) + tuple(slice(j, j + (n - 1) * stride + 1, stride)
                                     for j, n in zip((kd, kh, kw), out))


def per_tap_pool_backward(x_shape, arg, counts, g, k, stride, padding):
    """Reference (max, avg) input gradients, scattered one tap at a time."""
    p = int(padding)
    c, d, h, w = x_shape
    gmax = np.zeros((c, d + 2 * p, h + 2 * p, w + 2 * p), dtype=g.dtype)
    gavg = np.zeros_like(gmax)
    for tap, sl in enumerate(_pool_tap_slices(g.shape[1:], k, stride)):
        gmax[sl] += np.where(arg == tap, g, 0)
        gavg[sl] += g / counts
    crop = (slice(None), slice(p, p + d), slice(p, p + h), slice(p, p + w))
    return gmax[crop], gavg[crop]


def tie_heavy_inputs(rng, shape, dtype):
    """Gaussian values; ReLU output with whole zero blocks; values rounded
    to a coarse grid, so that many windows hold tied maxima."""
    relu = np.maximum(rng.normal(size=shape), 0)
    relu[:, : shape[1] // 2, : shape[2] // 2] = 0
    quantised = np.round(rng.normal(size=shape) * 2) / 2
    return [a.astype(dtype) for a in (rng.normal(size=shape), relu, quantised)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)])
@pytest.mark.parametrize("shape", [(3, 8, 6, 10), (2, 7, 9, 5)])
def test_pooling_matches_per_tap_oracle(shape, k, stride, padding, dtype):
    """Forward outputs, argmax and max-pool gradient equal the per-tap
    reference exactly (a max over tied +0 and -0 may keep either sign,
    which compare equal).  The separable avg-pool gradient sums in another
    order, so it matches to 1e-6 of the largest reference entry."""
    rng = np.random.default_rng(15)
    for x in tie_heavy_inputs(rng, shape, dtype):
        ref_max, ref_arg, ref_avg, ref_counts = per_tap_pool(x, k, stride, padding)
        ymax, arg = ops.maxpool3d_forward(x, k, stride, padding)
        yavg, counts = ops.avgpool3d_forward(x, k, stride, padding)
        for got, want in ((ymax, ref_max), (arg, ref_arg), (yavg, ref_avg),
                          (ops.maxpool3d_inference(x, k, stride, padding), ymax)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        g = rng.normal(size=ymax.shape).astype(dtype)
        ref_gmax, ref_gavg = per_tap_pool_backward(x.shape, ref_arg, ref_counts, g,
                                                   k, stride, padding)
        np.testing.assert_array_equal(
            ops.maxpool3d_backward(x.shape, arg, g, k, stride, padding), ref_gmax)
        np.testing.assert_allclose(
            ops.avgpool3d_backward(x.shape, counts, g, k, stride, padding), ref_gavg,
            rtol=1e-6, atol=1e-6 * np.abs(ref_gavg).max())


def masked_tap_maxpool_backward(x_shape, arg, grad_out, k, stride, padding):
    """The max-pool backward as a loop over the k³ taps: each tap adds
    grad_out times its 0/1 argmax mask into the input's strided slice."""
    _, axes = ops._pool_taps(x_shape, k, stride, padding)
    gx = np.zeros(x_shape, dtype=grad_out.dtype)
    for tap, (dst, src) in enumerate(ops._taps3(axes)):
        gx[src] += grad_out[dst] * (arg[dst] == tap)
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)])
@pytest.mark.parametrize("shape", [(3, 8, 6, 10), (2, 7, 9, 5)])
def test_maxpool_scatter_equals_the_masked_tap_loop_bit_for_bit(shape, k, stride, padding,
                                                                 dtype):
    """The one ordered scatter adds each input's window gradients in tap
    order, as the tap loop does, so the bytes match, signed zeros included."""
    rng = np.random.default_rng(26)
    for x in tie_heavy_inputs(rng, shape, dtype):
        _, arg = ops.maxpool3d_forward(x, k, stride, padding)
        g = rng.normal(size=arg.shape).astype(dtype)
        g[:, ::2] *= -0.0  # signed zeros among the contributions
        got = ops.maxpool3d_backward(x.shape, arg, g, k, stride, padding)
        want = masked_tap_maxpool_backward(x.shape, arg, g, k, stride, padding)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k,padding", [(2, 0), (3, 1)])
def test_maxpool_backward_allocates_no_sort(k, padding):
    """The backward of a stride-2 pool on (16, 48^3) float32, as in a
    multi-pool module, allocates the gradient and two output-sized int64
    index arrays, one of them a temporary: no argsort order or gathered
    copies of the indices and grad_out."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(16, 48, 48, 48)).astype(np.float32)
    _, arg = ops.maxpool3d_forward(x, k, 2, padding)
    g = rng.normal(size=arg.shape).astype(np.float32)
    tracemalloc.start()
    try:
        ops.maxpool3d_backward(x.shape, arg, g, k, 2, padding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 2 * 8 * arg.size + (1 << 20), peak / 1e6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)])
@pytest.mark.parametrize("shape", [(3, 8, 6, 10), (2, 7, 9, 5)])
def test_separable_inference_pools_match_the_per_tap_oracle(shape, k, stride, padding, dtype):
    """The eval pools reduce one spatial axis at a time, each axis starting
    from two taps that cover its whole output or from a copy of the only
    one: a 3-wide window has only its middle tap in bounds for every output
    at stride 1, and at stride 2 on an odd side.  The max equals the
    per-tap reference bit for bit; the average sums in another order than
    avgpool3d_forward's scan-order y, so it matches to a few ulps of the
    largest entry."""
    rng = np.random.default_rng(25)
    tol = 1e-6 if dtype == np.float32 else 1e-14
    for x in tie_heavy_inputs(rng, shape, dtype):
        ref_max = per_tap_pool(x, k, stride, padding)[0]
        yavg, _ = ops.avgpool3d_forward(x, k, stride, padding)
        got_max = ops.maxpool3d_inference(x, k, stride, padding)
        got_avg = ops.avgpool3d_inference(x, k, stride, padding)
        assert got_max.dtype == got_avg.dtype == dtype
        np.testing.assert_array_equal(got_max, ref_max)
        np.testing.assert_allclose(got_avg, yavg, rtol=tol, atol=tol * np.abs(yavg).max())


# --- batch norm ------------------------------------------------------------------

def test_batchnorm_training_statistics():
    rng = np.random.default_rng(9)
    x = rand(rng, (3, 4, 4, 4)) * 2.0 + 1.0
    gamma, beta = np.ones(3), np.zeros(3)
    rm, rv = np.zeros(3), np.ones(3)
    y, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, training=True)
    yr = y.reshape(3, -1)
    np.testing.assert_allclose(yr.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(yr.var(axis=1), 1.0, atol=1e-4)  # eps offset
    # running buffers updated with momentum 0.9
    np.testing.assert_allclose(rm, 0.1 * x.reshape(3, -1).mean(axis=1), atol=1e-12)


def test_batchnorm_inference_uses_running_stats():
    rng = np.random.default_rng(10)
    x = rand(rng, (2, 3, 3, 3))
    gamma, beta = np.array([2.0, 0.5]), np.array([1.0, -1.0])
    rm, rv = np.array([0.3, -0.2]), np.array([4.0, 0.25])
    y, _ = ops.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(),
                                 training=False)
    expect = gamma[:, None] * ((x.reshape(2, -1) - rm[:, None])
                               / np.sqrt(rv[:, None] + 1e-5)) + beta[:, None]
    np.testing.assert_allclose(y.reshape(2, -1), expect, atol=1e-10)


def test_batchnorm_gradients():
    rng = np.random.default_rng(11)
    for training in (True, False):
        x = rand(rng, (2, 4, 4, 4))
        gamma = rng.uniform(0.5, 1.5, 2)
        beta = rand(rng, (2,))
        rm, rv = rand(rng, (2,)), np.abs(rand(rng, (2,))) + 0.5

        def loss():
            y, _ = ops.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(),
                                         training=training)
            return float(np.sum(y * r))

        y, cache = ops.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(),
                                         training=training)
        r = rand(rng, y.shape)
        gx, ggamma, gbeta = ops.batchnorm_backward(cache, r)
        assert rel_err(gx, numeric_grad(loss, x)) < 1e-6
        assert rel_err(ggamma, numeric_grad(loss, gamma)) < 1e-6
        assert rel_err(gbeta, numeric_grad(loss, beta)) < 1e-6


# --- activations ---------------------------------------------------------------

def test_relu_and_sigmoid_gradients():
    rng = np.random.default_rng(12)
    x = rand(rng, (2, 4, 4, 4))
    x[np.abs(x) < 0.05] = 0.1  # keep away from the ReLU kink
    r = rand(rng, x.shape)

    y, mask = ops.relu_forward(x)
    np.testing.assert_array_equal(y, np.maximum(x, 0))
    g = ops.relu_backward(mask, r)
    num = numeric_grad(lambda: float(np.sum(ops.relu_forward(x)[0] * r)), x)
    assert rel_err(g, num) < 1e-6

    y, cache = ops.sigmoid_forward(x)
    g = ops.sigmoid_backward(cache, r)
    num = numeric_grad(lambda: float(np.sum(ops.sigmoid_forward(x)[0] * r)), x)
    assert rel_err(g, num) < 1e-6


def test_sigmoid_extreme_inputs():
    y, _ = ops.sigmoid_forward(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)
