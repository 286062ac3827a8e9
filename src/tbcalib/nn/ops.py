"""From-scratch 3D network primitives on (channels, depth, height, width)
arrays, each with an exact analytic backward pass.

All convolutions are cross-correlations.  Spatial dims are ordered
(depth, height, width) = (z, y, x).

Conv3d runs on a flat padded layout: the input, zero-padded by np.pad to
(C, Dp, Hp, Wp), is viewed as (C, Dp·Hp·Wp), where kernel tap (kd, kh, kw)
is the shift dilation·(kd·Hp·Wp + kh·Wp + kw) along the flat axis, so every
tap is a plain slice.  The output is computed on the padded layout, one
chunk of n flat positions at a time; each chunk gets its bias, and its ReLU
in a conv followed by one, right after its GEMM, while it is in cache, and
the valid region is then cropped out in one copy, into a new array or the
caller's `out`.  The forward pass stacks only the k depth-shifted slabs of
the input into `cols`, of shape (k·Ci, n + span), span being the largest
in-plane shift; one GEMM with the kernel laid out as (k²·Co, k·Ci) gives a
partial output for each in-plane tap (kh, kw), and the chunk is the sum of
the k² partials, each read at its shift dilation·(kh·Wp + kw) (the
im2col/kn2row hybrid of Anderson et al., arXiv:1709.03395).  That copies
k·Ci rows and writes k²·Co partial rows in place of the k³·Ci rows of a
full im2col, so it is used when (k² - 1)·Ci > 2k·Co; with fewer input
channels, as in the one-channel stem, `cols` stacks all k³ shifted slices
and one (Co, k³·Ci) GEMM writes the chunk.  A 1³ conv takes that loop with
its one tap, whose `cols` is a view of the input, read in place.  The
backward pass, for every kernel size, places grad_out on the padded layout
behind a margin of the largest shift and stacks its k³ shifted slices on
the Co side, so one (k³·Co, n) chunk gives both grad_x (wᵀ @ cols) and
grad_w (cols @ x_padᵀ): grad_w needs every tap's slice of grad_out, which
a depth-stacked chunk would only give through k² narrow GEMMs.  grad_x is
returned as the interior view of its padded-layout buffer, with no crop
copy.  A stride s keeps every s-th stride-1 output, and its gradient is
grad_out scattered to every s-th position with zeros between.  COLS_BYTES
bounds `cols` and the partial buffer together, whatever the volume size.

The border may be the caller's.  An input that already carries its zero
border is passed with padding 0 and read in place, with no padded copy; a
negative padding leaves the outer -padding voxels of the input out, as a
1³ conv does on such an input.  Both conv forward passes write their
output only after their last read of the input, so `out` may lie inside
the input.  The conv backward pass takes the same input and padding and
the border's width: it reads the border in place as padding in the same
way, and returns grad_x for the input inside the border.

Pooling never pads: each kernel tap reads the outputs whose input position
lies inside the volume, a strided slice per axis, which is all that padding
would have let through.  The inference pools compute no argmax and reduce
one spatial axis at a time, k taps per axis: each axis starts from the max
or sum of two taps that cover its whole output, or a copy of the only one,
so no array is filled first.  The max is exact, because max does not depend
on order, and a training max pool then finds the argmax in one pass over
the taps, last to first, so the first tap in scan order wins ties.  Its
backward pass is one `np.add.at` scatter onto the winning inputs, ordered
by tap, so each input sums its gradients as a loop over the taps would.  A
training average pool sums its k³ taps in scan order, like the nested-loop
definition, and scatters its gradient one axis at a time; the inference one
sums in the separable order, so its bits differ by rounding.  Both divide
by the outer product of the per-axis in-bounds counts.

The transposed convolution's stride is its kernel side, so its output
windows never overlap (Dumoulin & Visin, arXiv:1603.07285, §4): the forward
pass is one GEMM wᵀ @ x giving every (output channel, tap) row at once,
then each tap's rows are written, bias added, into their strided slice of
the upsampled grid, in a new array or the caller's `out`; the backward pass
undoes that interleave on grad_out and makes one GEMM each for grad_x and
grad_w.

The forward functions return what their backward pass needs.  Batch norm
and ReLU, forward and backward, write into the caller's `out` when it is
given, which may be their own input.  Batch norm's cache is its input as
given, with no copy; ReLU's cache is its output, positive exactly where its
input is.  At inference a batch norm after a conv is a per-channel affine
map, folded into the conv's weight and bias by `fold_batchnorm`, and the
ReLU after it runs inside the conv.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import special

COLS_BYTES = 8 << 20  # bound on the chunk buffers of one conv call
BN_MOMENTUM = 0.9  # share of the running statistics kept at each training step
BN_EPS = 1e-5


def conv3d_output_shape(spatial, k, stride, dilation, padding):
    """Exact per-axis output size; raises if stride does not divide evenly."""
    out = []
    for n in spatial:
        span = n + 2 * padding - dilation * (k - 1) - 1
        if span < 0:
            raise ValueError(f"padded extent {n + 2 * padding} smaller than "
                             f"dilated kernel {dilation * (k - 1) + 1}")
        if span % stride != 0:
            raise ValueError(
                f"non-integral output size: ({n} + 2*{padding} - {dilation}*({k}-1) - 1) / {stride}"
            )
        out.append(span // stride + 1)
    return tuple(out)


def _flat_padded(x, p, k, dilation):
    """x zero-padded by p (np.pad) and flattened to (C, Dp·Hp·Wp), its padded
    shape, the flat shift of each depth tap kd and of each in-plane tap
    (kh, kw) in scan order; tap (kd, kh, kw) is the sum of the two."""
    xp = np.pad(x, ((0, 0),) + ((p, p),) * 3) if p else x
    _, dp, hp, wp = xp.shape
    depth = [dilation * kd * hp * wp for kd in range(k)]
    plane = [dilation * (kh * wp + kw) for kh, kw in np.ndindex(k, k)]
    return xp.reshape(x.shape[0], -1), (dp, hp, wp), depth, plane


def _stacked_chunks(src, starts, span, lo, hi, part_rows):
    """Yield (a, b, cols, part) over chunks [a, b) of [lo, hi): row block t
    of cols holds src[:, starts[t] + a : starts[t] + b + span], and part is
    an uninitialised (part_rows, b - a + span) buffer for the GEMM on cols.
    The two reused buffers hold at most COLS_BYTES together, or one chunk
    of one column.  A single start stacks nothing: cols is then a view of
    src, read in place."""
    rows = len(starts) * src.shape[0]
    n = max(1, COLS_BYTES // ((rows + part_rows) * src.itemsize) - span)
    n = min(n, hi - lo)
    cols = np.empty((rows, n + span), dtype=src.dtype) if len(starts) > 1 else None
    part = np.empty((part_rows, n + span), dtype=src.dtype)
    for a in range(lo, hi, n):
        b = min(a + n, hi)
        m = b - a + span
        slabs = [src[:, s + a:s + a + m] for s in starts]
        stacked = slabs[0] if cols is None else np.concatenate(slabs, out=cols[:, :m])
        yield a, b, stacked, part[:, :m]


def _shift_add(part, shifts, out):
    """out = sum over t of row block t of part, read from column shifts[t]."""
    r, n = out.shape
    np.add(part[:r, shifts[0]:shifts[0] + n], part[r:2 * r, shifts[1]:shifts[1] + n], out=out)
    for t, s in enumerate(shifts[2:], start=2):
        out += part[t * r:(t + 1) * r, s:s + n]


def _check_out(out, shape, dtype):
    """Raise unless out is None or an array of this shape and dtype."""
    if out is not None and (out.shape != shape or out.dtype != dtype):
        raise ValueError(f"out must be a {np.dtype(dtype)} array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")


def interior(a, border=1):
    """a without its outer `border` voxels on each spatial side."""
    return a[:, border:-border, border:-border, border:-border] if border else a


def _bias_relu(y, b, relu):
    """y + b per row of y, then max(·, 0) when relu is set, in place."""
    y += b[:, None]
    if relu:
        np.maximum(y, 0, out=y)


def conv3d_forward(x, w, b, stride=1, dilation=1, padding=0, out=None, relu=False):
    """Dilated cross-correlation with bias, followed by max(·, 0) when
    `relu` is set.

    x: (Ci, D, H, W); w: (Co, Ci, k, k, k); b: (Co,).  A negative padding
    leaves out the outer -padding voxels of x, a border the caller put
    there.  The result, of x's dtype, is written into `out` when it is
    given, and returned.  Each chunk of the padded-layout output gets its
    bias, and its ReLU with `relu`, right after its GEMM; the crop is one
    copy.  A 1³ conv reads x in place, as the every-tap loop's one tap.
    """
    ci, d, h, wd = x.shape
    co, ci_w, k, k2, k3 = w.shape
    if ci_w != ci:
        raise ValueError(f"in-channel mismatch: x has {ci}, kernel expects {ci_w}")
    if not (k == k2 == k3):
        raise ValueError("kernel must be cubic")
    shape = (co,) + conv3d_output_shape((d, h, wd), k, stride, dilation, padding)
    _check_out(out, shape, x.dtype)
    d1, h1, w1 = conv3d_output_shape((d, h, wd), k, 1, dilation, padding)
    xf, (_, hp, wp), depth, plane = _flat_padded(x, max(padding, 0), k, dilation)
    q = max(-padding, 0)
    xf = xf[:, (q * hp + q) * wp + q:]  # from the first output's corner
    n_out = min(d1 * hp * wp, xf.shape[1] - depth[-1] - plane[-1])  # last tap still in range
    yf = np.empty((co, d1 * hp * wp), dtype=x.dtype)
    if (k * k - 1) * ci > 2 * k * co:  # depth-stacked moves fewer rows
        wz = w.transpose(3, 4, 0, 2, 1).reshape(k * k * co, k * ci)  # rows (kh, kw, co)
        for a, e, cols, part in _stacked_chunks(xf, depth, plane[-1], 0, n_out, k * k * co):
            np.matmul(wz, cols, out=part)
            _shift_add(part, plane, yf[:, a:e])
            _bias_relu(yf[:, a:e], b, relu)
    else:
        wm = w.transpose(0, 2, 3, 4, 1).reshape(co, -1)
        offs = [z + s for z in depth for s in plane]
        for a, e, cols, part in _stacked_chunks(xf, offs, 0, 0, n_out, 0):
            np.matmul(wm, cols, out=yf[:, a:e])
            _bias_relu(yf[:, a:e], b, relu)
    del xf, cols, part  # drop the chunk buffers before the crop copy
    y = np.empty(shape, dtype=x.dtype) if out is None else out
    y[...] = yf.reshape(co, d1, hp, wp)[:, ::stride, :h1:stride, :w1:stride]
    return y


def conv3d_backward(x, w, grad_out, stride=1, dilation=1, padding=0, border=0):
    """Gradients of conv3d_forward(x, w, b, stride, dilation, padding);
    returns (grad_x, grad_w, grad_b).

    The outer `border` voxels of x are a zero border that the caller put
    there, not input: grad_x is the gradient with respect to the rest of x,
    and the conv pads that rest by padding + border >= 0.  A border of
    exactly that width is read in place as the padding.  grad_x takes x's
    dtype, grad_w w's and grad_b grad_out's, whatever the kernel size.
    """
    p = padding + border
    if border < 0 or p < 0:
        raise ValueError(f"border {border} must be >= max(0, -padding) for padding {padding}")
    xi = interior(x, border)
    ci, d, h, wd = xi.shape
    co, k = w.shape[0], w.shape[2]
    do, ho, wo = conv3d_output_shape((d, h, wd), k, stride, dilation, p)
    if grad_out.shape != (co, do, ho, wo):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(co, do, ho, wo)}")
    gb = grad_out.sum(axis=(1, 2, 3))
    d1, h1, w1 = conv3d_output_shape((d, h, wd), k, 1, dilation, p)
    xf, (dp, hp, wp), depth, plane = (_flat_padded(x, 0, k, dilation) if border == p
                                      else _flat_padded(xi, p, k, dilation))
    offs = [z + s for z in depth for s in plane]
    # grad_out on the stride-1 padded layout, behind a margin of the largest
    # shift: grad_x at flat q reads tap t at q + margin - offs[t].
    margin = offs[-1]
    gf = np.zeros((co, margin + xf.shape[1]), dtype=x.dtype)
    g1 = gf[:, margin:margin + d1 * hp * wp].reshape(co, d1, hp, wp)
    g1[:, ::stride, :h1:stride, :w1:stride] = grad_out
    # Nonzero x and kept grad_x lie between the first and last unpadded voxel.
    lo = (p * hp + p) * wp + p
    hi = ((p + d - 1) * hp + p + h - 1) * wp + p + wd
    wm_t = w.transpose(1, 2, 3, 4, 0).reshape(ci, -1)
    gxf = np.empty_like(xf)
    gw_t = np.zeros((len(offs) * co, ci), dtype=w.dtype)
    for a, e, cols, _ in _stacked_chunks(gf, [margin - o for o in offs], 0, lo, hi, 0):
        np.matmul(wm_t, cols, out=gxf[:, a:e])
        gw_t += cols @ xf[:, a:e].T
    gx = interior(gxf.reshape(ci, dp, hp, wp), p)
    return gx, gw_t.reshape(k, k, k, co, ci).transpose(3, 4, 0, 1, 2).copy(), gb


def _check_transpose_kernel(w):
    k = w.shape[2]
    if w.shape[2:] != (k, k, k):
        raise ValueError(f"transposed conv needs a cubic kernel, got kernel {w.shape[2:]}")
    return k


def conv_transpose3d_forward(x, w, b, out=None):
    """Transposed convolution (adjoint of a strided conv) whose stride is
    the kernel side k.

    x: (Ci, D, H, W); w: (Ci, Co, k, k, k); output spatial n*k, of x's
    dtype, written into `out` when it is given, and returned.
    """
    ci, d, h, wd = x.shape
    ci_w, co = w.shape[:2]
    if ci_w != ci:
        raise ValueError(f"in-channel mismatch: x has {ci}, kernel expects {ci_w}")
    k = _check_transpose_kernel(w)
    shape = (co, d * k, h * k, wd * k)
    _check_out(out, shape, x.dtype)
    taps = (w.reshape(ci, -1).T @ x.reshape(ci, -1)).reshape(co, k, k, k, d, h, wd)
    y = np.empty(shape, dtype=x.dtype) if out is None else out
    bias = b[:, None, None, None]
    for kd, kh, kw in np.ndindex(k, k, k):
        np.add(taps[:, kd, kh, kw], bias, out=y[:, kd::k, kh::k, kw::k])
    return y


def conv_transpose3d_backward(x, w, grad_out):
    """Gradients of conv_transpose3d_forward; returns (grad_x, grad_w, grad_b)."""
    ci, d, h, wd = x.shape
    co = w.shape[1]
    k = _check_transpose_kernel(w)
    g = grad_out.reshape(co, d, k, h, k, wd, k).transpose(0, 2, 4, 6, 1, 3, 5)
    g = g.reshape(co * k ** 3, -1)  # (Co·k³, D·H·W), one row per output channel and tap
    gx = (w.reshape(ci, -1) @ g).reshape(x.shape)
    gw = (x.reshape(ci, -1) @ g.T).reshape(w.shape)
    return gx, gw, grad_out.sum(axis=(1, 2, 3))


def _pool_taps(x_shape, k, stride, p):
    """Output spatial shape and, per spatial axis, the (dst, src) slices of
    each kernel tap j: the outputs o whose input position stride·o + j - p
    lies inside the input, and those positions.  Skipping the others is all
    that padding p contributed."""
    out = tuple((n + 2 * p - k) // stride + 1 for n in x_shape[1:])
    if any(o <= 0 for o in out):
        raise ValueError(f"pooling window {k} too large for input {x_shape[1:]}")
    axes = []
    for n, o in zip(x_shape[1:], out):
        taps = []
        for j in range(k):
            lo = max(0, -((j - p) // stride))
            hi = max(lo, min(o, (n - 1 - j + p) // stride + 1))
            start = stride * lo + j - p
            taps.append((slice(lo, hi), slice(start, start + stride * (hi - lo), stride)))
        axes.append(taps)
    return out, axes


def _taps3(axes):
    """(dst, src) indices of the k³ taps, in scan order (kd, kh, kw)."""
    for (dd, sd), (dh, sh), (dw, sw) in itertools.product(*axes):
        yield (slice(None), dd, dh, dw), (slice(None), sd, sh, sw)


def _along(axis, sl):
    return (slice(None),) * axis + (sl,)


def _separable_pool(x, k, stride, padding, ufunc):
    """ufunc reduced over the in-bounds taps of one spatial axis at a time.

    Each axis starts from ufunc of two taps that cover its whole output,
    or from a copy of the only one that does, and folds in the rest; with
    padding at most (k - 1) // 2, tap `padding` always covers it.
    Returns (y, output spatial shape, per-axis taps)."""
    out, axes = _pool_taps(x.shape, k, stride, padding)
    for axis, (size, taps) in enumerate(zip(out, axes), start=1):
        full = [j for j, (dst, _) in enumerate(taps) if dst == slice(0, size)][:2]
        first = [x[_along(axis, taps[j][1])] for j in full]
        y = ufunc(*first) if len(first) == 2 else first[0].copy()
        for j, (dst, src) in enumerate(taps):
            if j not in full:
                yd = y[_along(axis, dst)]
                ufunc(yd, x[_along(axis, src)], out=yd)
        x = y
    return x, out, axes


def maxpool3d_inference(x, k, stride, padding=0):
    """The y of maxpool3d_forward without the argmax: a separable running
    max, exact because max does not depend on order."""
    return _separable_pool(x, k, stride, padding, np.maximum)[0]


def maxpool3d_forward(x, k, stride, padding=0):
    """Max pooling; returns (y, argmax tap index) for the backward pass.

    Out-of-bounds taps never win; ties go to the first tap in scan order,
    since the taps are visited last to first and each tap that reaches the
    max overwrites the index.
    """
    y = maxpool3d_inference(x, k, stride, padding)
    _, axes = _pool_taps(x.shape, k, stride, padding)
    arg = np.zeros(y.shape, dtype=np.int8)
    for tap, (dst, src) in reversed(list(enumerate(_taps3(axes)))):
        np.copyto(arg[dst], np.int8(tap), where=x[src] == y[dst])
    return y, arg


def maxpool3d_backward(x_shape, arg, grad_out, k, stride, padding=0):
    """One scatter of grad_out onto each output's winning input, whose flat
    index is its window's tap-0 corner plus the offset of tap `arg`.  The
    contributions are sorted stably by tap, so each input voxel adds its
    windows' gradients in tap order, as a loop over the taps would."""
    c, d, h, w = x_shape
    corner = [stride * np.arange(n, dtype=np.int64) - padding for n in arg.shape[1:]]
    corner = (np.arange(c, dtype=np.int64)[:, None, None, None] * (d * h * w)
              + corner[0][:, None, None] * (h * w) + corner[1][:, None] * w + corner[2])
    taps = np.arange(k, dtype=np.int64)
    offset = (taps[:, None, None] * (h * w) + taps[:, None] * w + taps).ravel()
    order = np.argsort(arg, axis=None, kind="stable")
    gx = np.zeros(c * d * h * w, dtype=grad_out.dtype)
    np.add.at(gx, (corner + offset[arg]).ravel()[order], grad_out.ravel()[order])
    return gx.reshape(x_shape)


def _pool_counts(out, axes, dtype):
    """The in-bounds taps of each output: the outer product of the per-axis
    counts."""
    per_axis = [np.zeros(size, dtype=dtype) for size in out]
    for c, taps in zip(per_axis, axes):
        for dst, _ in taps:
            c[dst] += 1
    cd, ch, cw = per_axis
    return cd[:, None, None] * ch[:, None] * cw


def avgpool3d_forward(x, k, stride, padding=0):
    """Average pooling over the in-bounds taps only (padding excluded from
    the divisor, so a constant input stays constant at the border).  The
    taps are summed in scan order, as the nested-loop definition does.

    Returns (y, counts) for the backward pass; counts, the in-bounds taps
    of each output, is the outer product of the per-axis counts.
    """
    out, axes = _pool_taps(x.shape, k, stride, padding)
    y = np.zeros((x.shape[0],) + out, dtype=x.dtype)
    for dst, src in _taps3(axes):
        y[dst] += x[src]
    counts = _pool_counts(out, axes, x.dtype)
    y /= counts
    return y, counts


def avgpool3d_inference(x, k, stride, padding=0):
    """The y of avgpool3d_forward, summed one spatial axis at a time: k
    taps per axis rather than k³, in another order, so the bits differ
    from the scan-order sum."""
    y, out, axes = _separable_pool(x, k, stride, padding, np.add)
    y /= _pool_counts(out, axes, x.dtype)
    return y


def avgpool3d_backward(x_shape, counts, grad_out, k, stride, padding=0):
    """The adjoint of the tap sum, scattered along one spatial axis at a time."""
    _, axes = _pool_taps(x_shape, k, stride, padding)
    g = grad_out / counts
    for axis in (3, 2, 1):
        gx = np.zeros(g.shape[:axis] + (x_shape[axis],) + g.shape[axis + 1:], dtype=g.dtype)
        for dst, src in axes[axis - 1]:
            gx[_along(axis, src)] += g[_along(axis, dst)]
        g = gx
    return g


def batchnorm_forward(x, gamma, beta, running_mean, running_var, training, out=None):
    """Per-channel normalization over spatial positions.

    Training mode uses batch statistics and updates the running buffers in
    place with momentum BN_MOMENTUM; inference mode uses the running
    statistics.  Either is applied as one per-channel scale and shift, cast
    to x.dtype, and written into `out` when it is given, which may be x
    itself.  Returns (y, cache); the cache holds x itself, so an eval call on
    a strided view copies nothing.
    """
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"BN parameter shape mismatch for {c} channels")
    if training:
        xr = x.reshape(c, -1)
        mean = xr.mean(axis=1)
        var = xr.var(axis=1)
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mean
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        mean, var = running_mean.copy(), running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std
    y = np.multiply(x, _per_channel(scale, x.dtype), out=out)
    y += _per_channel(beta - mean * scale, x.dtype)
    return y, (x, mean, inv_std, gamma, training)


def fold_batchnorm(w, b, gamma, beta, mean, var):
    """Weight and bias of the conv (w, b) followed by an eval batch norm:
    w·s and (b - mean)·s + beta with s = gamma / sqrt(var + BN_EPS), worked
    out in float64 and cast to w's dtype (Jacob et al., arXiv:1712.05877,
    §3.2)."""
    s = np.asarray(gamma, np.float64) / np.sqrt(np.asarray(var, np.float64) + BN_EPS)
    return ((w * s[:, None, None, None, None]).astype(w.dtype),
            ((b - mean) * s + beta).astype(w.dtype))


def _per_channel(v, dt):
    """v cast to dt, shaped to broadcast over (C, D, H, W)."""
    return v.astype(dt)[:, None, None, None]


def batchnorm_backward(cache, grad_out, out=None):
    """Returns (grad_x, grad_gamma, grad_beta); grad_x is written into `out`
    when it is given, which may be grad_out itself.

    Per channel, grad_x = a·gy + b·x + c with coefficients from Σgy and
    Σgy·x, so x̂ is never formed.  Both sums accumulate in float64: the
    float32 products are exact there, and Σgy·x − mean·Σgy then keeps the
    digits the subtraction cancels.
    """
    x, mean, inv_std, gamma, training = cache
    c = grad_out.shape[0]
    dt = grad_out.dtype
    gy = grad_out.reshape(c, -1)
    n = gy.shape[1]
    sg = gy.sum(axis=1, dtype=np.float64)
    mean, inv_std = mean.astype(np.float64), inv_std.astype(np.float64)
    xr = x.reshape(c, -1)
    ggamma = (np.einsum("ij,ij->i", gy, xr, dtype=np.float64) - mean * sg) * inv_std
    a = gamma * inv_std
    # Both sums are taken, so out may be grad_out.
    gx = np.multiply(grad_out, _per_channel(a, dt), out=out)
    if training:
        b = -a * inv_std * ggamma / n
        gx += x * _per_channel(b, dt)
        gx += _per_channel(-a * sg / n - b * mean, dt)
    return gx, ggamma.astype(dt), sg.astype(dt)


def relu_forward(x, out=None):
    """max(x, 0), written into `out` when it is given.  Returns (y, y): the
    output is the backward pass's cache, since y > 0 exactly where x > 0."""
    y = np.maximum(x, 0, out=out)
    return y, y


def relu_backward(y, grad_out, out=None):
    """grad_out where y > 0, else 0, written into `out` when it is given."""
    return np.multiply(grad_out, y > 0, out=out)


def sigmoid_forward(x):
    y = special.expit(x)
    return y, y


def sigmoid_backward(y, grad_out):
    return grad_out * y * (1.0 - y)
