"""From-scratch 3D network primitives on (channels, depth, height, width)
arrays, each with an exact analytic backward pass.

All convolutions are cross-correlations.  Spatial dims are ordered
(depth, height, width) = (z, y, x).

Conv3d runs on a flat padded layout: the zero-padded input (C, Dp, Hp, Wp)
is viewed as (C, Dp·Hp·Wp), where kernel tap (kd, kh, kw) is the shift
dilation·(kd·Hp·Wp + kh·Wp + kw) along the flat axis, so every tap is a
plain slice.  The forward pass stacks the k³ shifted slices of the input
into an im2col buffer `cols` of shape (k³·Ci, n) and makes one GEMM per
chunk of n flat positions; the output is computed on the padded layout and
its valid region cropped out.  The backward pass places grad_out on the
same layout behind a margin of the largest shift and im2cols it on the Co
side, so one (k³·Co, n) chunk gives both grad_x (wᵀ @ cols) and grad_w
(cols @ x_padᵀ).  A stride s keeps every s-th stride-1 output, and its
gradient is grad_out scattered to every s-th position with zeros between.
COLS_BYTES bounds each `cols` buffer, whatever the volume size.

The transposed convolution takes kernel = stride, so its output windows
never overlap (Dumoulin & Visin, arXiv:1603.07285, §4): the forward pass is
one GEMM wᵀ @ x giving every (output channel, tap) row at once, then each
tap's rows are written, bias added, into their strided slice of the
upsampled grid; the backward pass undoes that interleave on grad_out and
makes one GEMM each for grad_x and grad_w.

The forward functions return what their backward pass needs.  Inference
needs none of it: `batchnorm_inference_inplace` is the running-statistics
batch norm without a cache, applied in place.
"""

from __future__ import annotations

import numpy as np
from scipy import special

COLS_BYTES = 8 << 20  # bound on the im2col buffer of one conv call


def _triple(v):
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected scalar or 3-tuple, got {v}")
    return t


def conv3d_output_shape(spatial, k, stride, dilation, padding):
    """Exact per-axis output size; raises if stride does not divide evenly."""
    out = []
    pads = _triple(padding)
    for n, p in zip(spatial, pads):
        span = n + 2 * p - dilation * (k - 1) - 1
        if span < 0:
            raise ValueError(
                f"padded extent {n + 2 * p} smaller than dilated kernel {dilation * (k - 1) + 1}"
            )
        if span % stride != 0:
            raise ValueError(
                f"non-integral output size: ({n} + 2*{p} - {dilation}*({k}-1) - 1) / {stride}"
            )
        out.append(span // stride + 1)
    return tuple(out)


def _flat_padded(x, padding, k, dilation):
    """x zero-padded and flattened to (C, Dp·Hp·Wp), its padded spatial
    shape, and the flat shift of each kernel tap in (kd, kh, kw) order."""
    pd, ph, pw = _triple(padding)
    xp = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw))) if pd or ph or pw else x
    _, dp, hp, wp = xp.shape
    offs = [dilation * (kd * hp * wp + kh * wp + kw) for kd, kh, kw in np.ndindex(k, k, k)]
    return xp.reshape(x.shape[0], -1), (dp, hp, wp), offs


def _im2col_chunks(src, starts, lo, hi):
    """Yield (a, b, cols) over chunks [a, b) of [lo, hi); row block t of the
    reused (len(starts)·C, b - a) buffer cols holds src[:, starts[t] + a :
    starts[t] + b].  cols holds at most COLS_BYTES, or one column."""
    c = src.shape[0]
    n = max(1, COLS_BYTES // (len(starts) * c * src.itemsize))
    cols = np.empty((len(starts) * c, min(n, hi - lo)), dtype=src.dtype)
    for a in range(lo, hi, n):
        b = min(a + n, hi)
        for t, s in enumerate(starts):
            cols[t * c:(t + 1) * c, :b - a] = src[:, s + a:s + b]
        yield a, b, cols[:, :b - a]


def conv3d_forward(x, w, b, stride=1, dilation=1, padding=0):
    """Dilated cross-correlation with bias.

    x: (Ci, D, H, W); w: (Co, Ci, k, k, k); b: (Co,).
    """
    ci, d, h, wd = x.shape
    co, ci_w, k, k2, k3 = w.shape
    if ci_w != ci:
        raise ValueError(f"in-channel mismatch: x has {ci}, kernel expects {ci_w}")
    if not (k == k2 == k3):
        raise ValueError("kernel must be cubic")
    conv3d_output_shape((d, h, wd), k, stride, dilation, padding)  # stride divides
    d1, h1, w1 = conv3d_output_shape((d, h, wd), k, 1, dilation, padding)
    xf, (_, hp, wp), offs = _flat_padded(x, padding, k, dilation)
    wm = w.transpose(0, 2, 3, 4, 1).reshape(co, -1)
    yf = np.empty((co, d1 * hp * wp), dtype=x.dtype)
    for a, e, cols in _im2col_chunks(xf, offs, 0, xf.shape[1] - offs[-1]):
        np.matmul(wm, cols, out=yf[:, a:e])
    del xf, cols  # free before the crop copy; cols views the im2col buffer
    return yf.reshape(co, d1, hp, wp)[:, ::stride, :h1:stride, :w1:stride] + b[:, None, None, None]


def conv3d_backward(x, w, grad_out, stride=1, dilation=1, padding=0):
    """Gradients of conv3d_forward; returns (grad_x, grad_w, grad_b)."""
    ci, d, h, wd = x.shape
    co, k = w.shape[0], w.shape[2]
    do, ho, wo = conv3d_output_shape((d, h, wd), k, stride, dilation, padding)
    if grad_out.shape != (co, do, ho, wo):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(co, do, ho, wo)}")
    d1, h1, w1 = conv3d_output_shape((d, h, wd), k, 1, dilation, padding)
    xf, (dp, hp, wp), offs = _flat_padded(x, padding, k, dilation)
    # grad_out on the stride-1 padded layout, behind a margin of the largest
    # shift: grad_x at flat q reads tap t at q + margin - offs[t].
    margin = offs[-1]
    gf = np.zeros((co, margin + xf.shape[1]), dtype=x.dtype)
    g1 = gf[:, margin:margin + d1 * hp * wp].reshape(co, d1, hp, wp)
    g1[:, ::stride, :h1:stride, :w1:stride] = grad_out
    # Nonzero x and kept grad_x lie between the first and last unpadded voxel.
    pd, ph, pw = _triple(padding)
    lo = (pd * hp + ph) * wp + pw
    hi = ((pd + d - 1) * hp + ph + h - 1) * wp + pw + wd
    wm_t = w.transpose(1, 2, 3, 4, 0).reshape(ci, -1)
    gxf = np.empty_like(xf)
    gw_t = np.zeros((len(offs) * co, ci), dtype=w.dtype)
    for a, e, cols in _im2col_chunks(gf, [margin - o for o in offs], lo, hi):
        np.matmul(wm_t, cols, out=gxf[:, a:e])
        gw_t += cols @ xf[:, a:e].T
    del xf, gf, cols  # free before the crop copy
    gx = gxf.reshape(ci, dp, hp, wp)[:, pd:pd + d, ph:ph + h, pw:pw + wd].copy()
    gw = gw_t.reshape(k, k, k, co, ci).transpose(3, 4, 0, 1, 2).copy()
    return gx, gw, grad_out.sum(axis=(1, 2, 3))


def _check_transpose_kernel(w, stride):
    k = w.shape[2]
    if w.shape[2:] != (k, k, k) or k != stride:
        raise ValueError(f"transposed conv needs a cubic kernel equal to the stride, "
                         f"got kernel {w.shape[2:]} and stride {stride}")
    return k


def conv_transpose3d_forward(x, w, b, stride=2):
    """Transposed convolution (adjoint of a strided conv) with kernel = stride.

    x: (Ci, D, H, W); w: (Ci, Co, k, k, k); output spatial n*k.
    """
    ci, d, h, wd = x.shape
    ci_w, co = w.shape[:2]
    if ci_w != ci:
        raise ValueError(f"in-channel mismatch: x has {ci}, kernel expects {ci_w}")
    k = _check_transpose_kernel(w, stride)
    taps = (w.reshape(ci, -1).T @ x.reshape(ci, -1)).reshape(co, k, k, k, d, h, wd)
    y = np.empty((co, d * k, h * k, wd * k), dtype=taps.dtype)
    bias = b[:, None, None, None]
    for kd, kh, kw in np.ndindex(k, k, k):
        np.add(taps[:, kd, kh, kw], bias, out=y[:, kd::k, kh::k, kw::k])
    return y


def conv_transpose3d_backward(x, w, grad_out, stride=2):
    """Gradients of conv_transpose3d_forward; returns (grad_x, grad_w, grad_b)."""
    ci, d, h, wd = x.shape
    co = w.shape[1]
    k = _check_transpose_kernel(w, stride)
    g = grad_out.reshape(co, d, k, h, k, wd, k).transpose(0, 2, 4, 6, 1, 3, 5)
    g = g.reshape(co * k ** 3, -1)  # (Co·k³, D·H·W), one row per output channel and tap
    gx = (w.reshape(ci, -1) @ g).reshape(x.shape)
    gw = (x.reshape(ci, -1) @ g.T).reshape(w.shape)
    return gx, gw, grad_out.sum(axis=(1, 2, 3))


def _pool_prepare(x, k, stride, padding, pad_value):
    c, d, h, w = x.shape
    p = int(padding)
    out = tuple((n + 2 * p - k) // stride + 1 for n in (d, h, w))
    if any(n <= 0 for n in out):
        raise ValueError(f"pooling window {k} too large for input {x.shape[1:]}")
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)), constant_values=pad_value) if p else x
    return xp, out, p


def _pool_slices(out, k, stride):
    do, ho, wo = out
    for kd in range(k):
        for kh in range(k):
            for kw in range(k):
                yield (kd * k + kh) * k + kw, (
                    slice(None),
                    slice(kd, kd + (do - 1) * stride + 1, stride),
                    slice(kh, kh + (ho - 1) * stride + 1, stride),
                    slice(kw, kw + (wo - 1) * stride + 1, stride))


def maxpool3d_forward(x, k, stride, padding=0):
    """Max pooling; returns (y, argmax tap index) for the backward pass.

    Out-of-bounds positions are -inf so padding never wins; ties go to the
    first tap in scan order.
    """
    xp, out, _ = _pool_prepare(x, k, stride, padding, -np.inf)
    y = np.full((x.shape[0],) + out, -np.inf, dtype=x.dtype)
    arg = np.zeros((x.shape[0],) + out, dtype=np.int8)
    for tap, sl in _pool_slices(out, k, stride):
        xs = xp[sl]
        np.copyto(arg, np.int8(tap), where=xs > y)
        np.maximum(y, xs, out=y)
    return y, arg


def maxpool3d_backward(x_shape, arg, grad_out, k, stride, padding=0):
    c, d, h, w = x_shape
    p = int(padding)
    gxp = np.zeros((c, d + 2 * p, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
    out = grad_out.shape[1:]
    for tap, sl in _pool_slices(out, k, stride):
        gxp[sl] += np.where(arg == tap, grad_out, 0)
    return np.ascontiguousarray(gxp[:, p:p + d, p:p + h, p:p + w])


def avgpool3d_forward(x, k, stride, padding=0):
    """Average pooling over the in-bounds taps only (padding excluded from
    the divisor, so a constant input stays constant at the border).

    Returns (y, counts) for the backward pass.
    """
    xp, out, p = _pool_prepare(x, k, stride, padding, 0.0)
    ones = np.pad(np.ones(x.shape, dtype=x.dtype),
                  ((0, 0), (p, p), (p, p), (p, p)))
    y = np.zeros((x.shape[0],) + out, dtype=x.dtype)
    counts = np.zeros((x.shape[0],) + out, dtype=x.dtype)
    for _, sl in _pool_slices(out, k, stride):
        y += xp[sl]
        counts += ones[sl]
    return y / counts, counts


def avgpool3d_backward(x_shape, counts, grad_out, k, stride, padding=0):
    c, d, h, w = x_shape
    p = int(padding)
    gxp = np.zeros((c, d + 2 * p, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
    g = grad_out / counts
    ones = np.pad(np.ones((c, d, h, w), dtype=grad_out.dtype),
                  ((0, 0), (p, p), (p, p), (p, p)))
    out = grad_out.shape[1:]
    for _, sl in _pool_slices(out, k, stride):
        gxp[sl] += g * ones[sl]
    return np.ascontiguousarray(gxp[:, p:p + d, p:p + h, p:p + w])


def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      training, momentum=0.9, eps=1e-5):
    """Per-channel normalization over spatial positions.

    Training mode uses batch statistics and updates the running buffers in
    place; inference mode uses the running statistics.  Either is applied
    as one per-channel scale and shift, cast to x.dtype.  Returns (y, cache).
    """
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"BN parameter shape mismatch for {c} channels")
    xr = x.reshape(c, -1)
    if training:
        mean = xr.mean(axis=1)
        var = xr.var(axis=1)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mean, var = running_mean.copy(), running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    scale, shift = _bn_scale_shift(gamma, beta, mean, inv_std, x.dtype)
    y = xr * scale[:, None] + shift[:, None]
    return y.reshape(x.shape), (xr, mean, inv_std, gamma, training)


def _bn_scale_shift(gamma, beta, mean, inv_std, dtype):
    scale = gamma * inv_std
    return scale.astype(dtype), (beta - mean * scale).astype(dtype)


def batchnorm_inference_inplace(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """batchnorm_forward(training=False) written over x, with no cache:
    the same per-channel scale and shift, so the same bits.  Returns x."""
    scale, shift = _bn_scale_shift(gamma, beta, running_mean,
                                   1.0 / np.sqrt(running_var + eps), x.dtype)
    x *= scale[:, None, None, None]
    x += shift[:, None, None, None]
    return x


def batchnorm_backward(cache, grad_out):
    """Returns (grad_x, grad_gamma, grad_beta)."""
    xr, mean, inv_std, gamma, training = cache
    c = grad_out.shape[0]
    gy = grad_out.reshape(c, -1)
    xhat = (xr - mean[:, None]) * inv_std[:, None]
    ggamma = (gy * xhat).sum(axis=1)
    gbeta = gy.sum(axis=1)
    if training:
        gxhat = gy * gamma[:, None]
        gx = (gxhat
              - gxhat.mean(axis=1, keepdims=True)
              - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)) * inv_std[:, None]
    else:
        gx = gy * (gamma * inv_std)[:, None]
    return gx.reshape(grad_out.shape).astype(grad_out.dtype), ggamma, gbeta


def relu_forward(x):
    return np.maximum(x, 0), x > 0


def relu_backward(mask, grad_out):
    return np.where(mask, grad_out, 0)


def sigmoid_forward(x):
    y = special.expit(x)
    return y, y


def sigmoid_backward(y, grad_out):
    return grad_out * y * (1.0 - y)
