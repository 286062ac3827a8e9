"""Stateful layer wrappers around the functional primitives.

`forward(x, training)`: a training forward keeps what the backward pass
needs in the layer's one cache slot, and that backward pass takes the cache
and empties the slot.  A cache so lives from a training forward to its
backward, and while backward runs memory follows the live set.  An eval
forward empties the slot and keeps nothing.  ReLU works in place on the
array the caller hands over, in both passes, and so does every batch-norm
backward; a batch norm writes its result into the caller's `out` when it
is given, and a training one keeps its input for the backward pass.  An
eval `ConvBnRelu` is one conv call, with the batch norm folded into its
weights and the ReLU applied per chunk, and the eval pools are the
separable inference ops.  Backward accumulates parameter gradients into
Param.grad and returns the gradient with respect to the input, possibly
as a view.

Every convolution has stride 1 and reads a zero border of
dilation·(kernel // 2) voxels per side, so it keeps the spatial size.  The
op pads a copy of the input unless the caller hands over an input that
carries the border already (`border`, as in a `bordered` buffer).  A
`ConvBnRelu` and a transposed conv write their output into the caller's
`out` when it is given; a bare `Conv3d`, used only for the three
one-channel output convs, returns a new array.  A training conv keeps its input, border and
all, and its backward pass reads the border in place in the same way.
Every pool has stride 2 and padding (kernel - 1) // 2 per side, so it
halves an even spatial size.
"""

from __future__ import annotations

import numpy as np

from . import ops


class Param:
    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = np.zeros_like(data)

    def zero_grad(self):
        self.grad[...] = 0


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """Base: subclasses define .params (dict name -> Param) and .buffers;
    a leaf layer keeps its training forward's cache in ._cache."""

    def __init__(self):
        self.params: dict[str, Param] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._cache = None

    def _take_cache(self):
        """The cache of the last training forward, emptying its slot."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward needs a training forward")
        return cache


def bordered(channels, spatial, dtype):
    """Zeros of shape (channels, D + 2, H + 2, W + 2): a buffer whose
    interior layers write through `out=` and whose one-voxel border stays
    zero, so a 3^3 conv reads it with no padded copy."""
    return np.zeros((channels,) + tuple(n + 2 for n in spatial), dtype=dtype)


class Conv3d(Layer):
    def __init__(self, in_ch, out_ch, kernel, rng, dilation=1, dtype=np.float32):
        super().__init__()
        self.dilation = dilation
        self.padding = dilation * (kernel // 2)
        fan_in = in_ch * kernel ** 3
        fan_out = out_ch * kernel ** 3
        w = glorot_uniform(rng, (out_ch, in_ch, kernel, kernel, kernel),
                           fan_in, fan_out, dtype)
        self.params = {"w": Param(w), "b": Param(np.zeros(out_ch, dtype=dtype))}

    def forward(self, x, training, border=0):
        """x carries a zero border `border` voxels wide that the caller put
        there: the conv reads it as padding and leaves any excess out of
        its output.  A training forward keeps x, border and all, and the
        backward pass reads it the same way."""
        self._cache = (x, border) if training else None
        return ops.conv3d_forward(x, self.params["w"].data, self.params["b"].data,
                                  dilation=self.dilation, padding=self.padding - border)

    def backward(self, gy):
        x, border = self._take_cache()
        gx, gw, gb = ops.conv3d_backward(x, self.params["w"].data, gy, dilation=self.dilation,
                                         padding=self.padding - border, border=border)
        self.params["w"].grad += gw
        self.params["b"].grad += gb
        return gx


class ConvTranspose3d(Layer):
    """Stride-2 upsampling with a 2^3 kernel."""

    def __init__(self, in_ch, out_ch, rng, dtype=np.float32):
        super().__init__()
        w = glorot_uniform(rng, (in_ch, out_ch, 2, 2, 2), in_ch * 8, out_ch * 8, dtype)
        self.params = {"w": Param(w), "b": Param(np.zeros(out_ch, dtype=dtype))}

    def forward(self, x, training, out=None):
        self._cache = x if training else None
        return ops.conv_transpose3d_forward(x, self.params["w"].data, self.params["b"].data,
                                            out=out)

    def backward(self, gy):
        gx, gw, gb = ops.conv_transpose3d_backward(self._take_cache(), self.params["w"].data, gy)
        self.params["w"].grad += gw
        self.params["b"].grad += gb
        return gx


class BatchNorm3d(Layer):
    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.params = {
            "gamma": Param(np.ones(channels, dtype=dtype)),
            "beta": Param(np.zeros(channels, dtype=dtype)),
        }
        self.buffers = {
            "running_mean": np.zeros(channels, dtype=np.float64),
            "running_var": np.ones(channels, dtype=np.float64),
        }

    def forward(self, x, training, out=None):
        """The result is written into `out` when it is given; a training
        forward keeps x for backward."""
        args = (self.params["gamma"].data, self.params["beta"].data,
                self.buffers["running_mean"], self.buffers["running_var"])
        y, cache = ops.batchnorm_forward(x, *args, training, out=out)
        self._cache = cache if training else None
        return y

    def backward(self, gy):
        """Works in place on gy, which the caller hands over."""
        gx, ggamma, gbeta = ops.batchnorm_backward(self._take_cache(), gy, out=gy)
        self.params["gamma"].grad += ggamma
        self.params["beta"].grad += gbeta
        return gx


class ReLU(Layer):
    """Both passes work in place on the array the caller hands over."""

    def forward(self, x, training):
        y, cache = ops.relu_forward(x, out=x)
        self._cache = cache if training else None
        return y

    def backward(self, gy):
        return ops.relu_backward(self._take_cache(), gy, out=gy)


class Sigmoid(Layer):
    def forward(self, x, training):
        y, cache = ops.sigmoid_forward(x)
        self._cache = cache if training else None
        return y

    def backward(self, gy):
        return ops.sigmoid_backward(self._take_cache(), gy)


class MaxPool3d(Layer):
    def __init__(self, kernel):
        super().__init__()
        self.pool = (kernel, 2, (kernel - 1) // 2)  # (kernel, stride, padding)

    def forward(self, x, training):
        if not training:
            self._cache = None
            return ops.maxpool3d_inference(x, *self.pool)
        y, arg = ops.maxpool3d_forward(x, *self.pool)
        self._cache = (x.shape, arg)
        return y

    def backward(self, gy):
        return ops.maxpool3d_backward(*self._take_cache(), gy, *self.pool)


class AvgPool3d(Layer):
    def __init__(self, kernel):
        super().__init__()
        self.pool = (kernel, 2, (kernel - 1) // 2)  # (kernel, stride, padding)

    def forward(self, x, training):
        if not training:
            self._cache = None
            return ops.avgpool3d_inference(x, *self.pool)
        y, counts = ops.avgpool3d_forward(x, *self.pool)
        self._cache = (x.shape, counts)
        return y

    def backward(self, gy):
        return ops.avgpool3d_backward(*self._take_cache(), gy, *self.pool)


class ConvBnRelu(Layer):
    """3D conv followed by batch-norm and ReLU, the standard building unit.

    An eval forward is one conv: batch norm is folded into the conv's
    weight and bias, and each chunk of the conv's output gets its bias and
    ReLU while it is in cache.  A training forward runs the three layers."""

    def __init__(self, in_ch, out_ch, kernel, rng, dilation=1, dtype=np.float32):
        super().__init__()
        self.conv = Conv3d(in_ch, out_ch, kernel, rng, dilation=dilation, dtype=dtype)
        self.bn = BatchNorm3d(out_ch, dtype=dtype)
        self.relu = ReLU()

    def forward(self, x, training, out=None, border=0):
        """`border` as in Conv3d.forward.  With `out`, the result lands
        there: in eval the folded conv writes it; in training, whose batch
        norm backward keeps the conv's output, batch norm writes it and
        ReLU then works in place."""
        if training:
            y = self.bn.forward(self.conv.forward(x, True, border=border), True, out)
            return self.relu.forward(y, True)
        conv, bn = self.conv, self.bn
        conv._cache = bn._cache = self.relu._cache = None
        w, b = ops.fold_batchnorm(conv.params["w"].data, conv.params["b"].data,
                                  bn.params["gamma"].data, bn.params["beta"].data,
                                  bn.buffers["running_mean"], bn.buffers["running_var"])
        return ops.conv3d_forward(x, w, b, dilation=conv.dilation,
                                  padding=conv.padding - border, out=out, relu=True)

    def backward(self, gy):
        """Works in place on gy, which the caller hands over."""
        return self.conv.backward(self.bn.backward(self.relu.backward(gy)))

    def children(self):
        return {"conv": self.conv, "bn": self.bn}


class FusionModule(Layer):
    """Parallel branches on one input whose outputs, of equal channel count,
    are concatenated and fused by the `reduce` layer.  Backward splits the
    reduce gradient into equal parts and sums the branch gradients in order."""

    def __init__(self, branches, reduce):
        super().__init__()
        self.branches = branches
        self.reduce = reduce

    def forward(self, x, training, out=None):
        cat = np.concatenate([b.forward(x, training) for b in self.branches], axis=0)
        return self.reduce.forward(cat, training, out)

    def backward(self, gy):
        parts = np.split(self.reduce.backward(gy), len(self.branches))
        gx = self.branches[0].backward(parts[0])
        for branch, g in zip(self.branches[1:], parts[1:]):
            gx += branch.backward(g)
        return gx

    def children(self):
        return {**{f"branch{i + 1}": b for i, b in enumerate(self.branches)}, "reduce": self.reduce}


def named_layers(obj, prefix=""):
    """Depth-first (name, Layer) pairs of the leaves, the objects without
    .children(); a composite contributes its children under dotted names."""
    if not hasattr(obj, "children"):
        return [(prefix, obj)]
    out = []
    for name, child in obj.children().items():
        out.extend(named_layers(child, f"{prefix}.{name}" if prefix else name))
    return out
