"""The segmentation network: encoder with dense blocks and a dilated
convolution module, multi-scale/multi-mode pooling, decoder with transposed
convolutions and skip connections, and two deep-supervision heads.

The encoder's two feature-fusion modules are one `FusionModule` layer in two
configurations: dilated convolutions and multi-mode poolings.

Spatial ladder for a 48^3 input: 48 -> 24 -> 12 -> 24 -> 48.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (AvgPool3d, ConvBnRelu, Conv3d, ConvTranspose3d, FusionModule,
                     Layer, MaxPool3d, Sigmoid, bordered, named_layers)
from .ops import interior


@dataclass
class NetworkConfig:
    stem_channels: int = 8        # C0
    growth: int = 8               # dense-block growth rate
    dense_layers: int = 4
    enc1_channels: int = 16       # C1, 48^3 level
    enc2_channels: int = 32       # C2, 24^3 level
    dcm_channels: int = 64        # C3, dilated-module output

    def __post_init__(self):
        for name in ("stem_channels", "growth", "dense_layers",
                     "enc1_channels", "enc2_channels", "dcm_channels"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def receptive_radius(self) -> int:
        """Voxels on each side of an output voxel that can change its main
        output.  Back from the output: dec2 and the full-resolution skip
        (stem, L dense layers) reach L + 2 voxels; through the 24^3 stage,
        dec1 (1 at scale 2), the dilated module (3 at scale 4), each
        multi-pool (1 at its input scale), the second dense block (L at
        scale 2), then the first block and the stem (L + 1) give at most
        22 + 3L once the /2 and /4 grid alignments are counted."""
        return 22 + 3 * self.dense_layers


class DenseBlock(Layer):
    """n layers of 3^3 conv + BN + ReLU, each appending its g output
    channels to the running feature stack; a 1^3 conv reduces the stack
    to out_ch.

    The forward pass runs on the caller's stack: one zero-bordered array
    (see `bordered`) of at least pre_reduction_channels channels, whose
    interior holds the block's input in its first in_ch channels.  Layer i
    reads its first in_ch + i*g channels in place, border and all, as its
    padding, and writes its g channels into the interior behind them, so
    the border stays zero.  The reduction reads the whole bordered stack and
    leaves the border out of its output, which it may write into the
    stack's own interior channels (see `ops.conv3d_forward`).  In training
    the stack holds each layer's output, which its ReLU keeps for backward,
    and each conv's backward pass reads its input in place there too.
    Backward adds each layer's input gradient, last layer first, into the
    leading channels of the reduction's: those it read."""

    def __init__(self, in_ch, out_ch, rng, growth, n_layers, dtype=np.float32):
        super().__init__()
        self.in_ch = in_ch
        self.growth = growth
        self.layers = []
        ch = in_ch
        for _ in range(n_layers):
            self.layers.append(ConvBnRelu(ch, growth, 3, rng, dtype=dtype))
            ch += growth
        self.pre_reduction_channels = ch
        self.reduce = ConvBnRelu(ch, out_ch, 1, rng, dtype=dtype)

    def forward(self, stack, training, out=None):
        """The reduction's result, written into `out` when it is given."""
        inner = interior(stack)
        ch = self.in_ch
        for layer in self.layers:
            layer.forward(stack[:ch], training, out=inner[ch:ch + self.growth], border=1)
            ch += self.growth
        return self.reduce.forward(stack[:ch], training, out, border=1)

    def backward(self, gy):
        g = self.reduce.backward(gy)
        ch = self.pre_reduction_channels
        for layer in reversed(self.layers):
            ch -= self.growth
            g[:ch] += layer.backward(g[ch:ch + self.growth])
        return g[:self.in_ch]

    def children(self):
        return {**{f"layer{i}": l for i, l in enumerate(self.layers)}, "reduce": self.reduce}


class DilatedConvModule(FusionModule):
    """Three parallel 3^3 convolutions with dilation (and so padding) 1, 2, 3,
    each BN + ReLU keeping the input channel count; outputs concatenated then
    reduced by a 1^3 conv."""

    def __init__(self, in_ch, out_ch, rng, dtype=np.float32):
        super().__init__(
            [ConvBnRelu(in_ch, in_ch, 3, rng, dilation=d, dtype=dtype)
             for d in (1, 2, 3)],
            ConvBnRelu(3 * in_ch, out_ch, 1, rng, dtype=dtype))


class MultiPoolModule(FusionModule):
    """Four stride-2 pooling branches (2^3 max, 2^3 avg, 3^3 max with
    padding 1, 3^3 avg with padding 1) concatenated and reduced back to the
    input channel count by a 1^3 conv.  Spatial dims halve (must be even)."""

    def __init__(self, channels, rng, dtype=np.float32):
        super().__init__(
            [MaxPool3d(2), AvgPool3d(2), MaxPool3d(3), AvgPool3d(3)],
            ConvBnRelu(4 * channels, channels, 1, rng, dtype=dtype))

    def forward(self, x, training, out=None):
        if any(n % 2 for n in x.shape[1:]):
            raise ValueError(f"multi-pool needs even spatial dims, got {x.shape[1:]}")
        return super().forward(x, training, out)


class MFFNet:
    """Encoder-decoder segmentation net with feature-fusion modules and two
    deep-supervision heads (from the 12^3 bottleneck and the 24^3 decoder
    stage), each upsampled to the input resolution."""

    def __init__(self, config: NetworkConfig | None = None, seed: int = 0,
                 dtype=np.float32):
        self.config = config or NetworkConfig()
        self.dtype = dtype
        cfg = self.config
        rng = np.random.default_rng(seed)
        c0, c1, c2, c3 = (cfg.stem_channels, cfg.enc1_channels,
                          cfg.enc2_channels, cfg.dcm_channels)
        self.stem = ConvBnRelu(1, c0, 3, rng, dtype=dtype)
        self.db1 = DenseBlock(c0, c1, rng, cfg.growth, cfg.dense_layers, dtype)
        self.mp1 = MultiPoolModule(c1, rng, dtype)
        self.db2 = DenseBlock(c1, c2, rng, cfg.growth, cfg.dense_layers, dtype)
        self.mp2 = MultiPoolModule(c2, rng, dtype)
        self.dcm = DilatedConvModule(c2, c3, rng, dtype)
        self.up1 = ConvTranspose3d(c3, c2, rng, dtype=dtype)
        self.dec1 = ConvBnRelu(2 * c2, c2, 3, rng, dtype=dtype)
        self.up2 = ConvTranspose3d(c2, c1, rng, dtype=dtype)
        self.dec2 = ConvBnRelu(2 * c1, c1, 3, rng, dtype=dtype)
        self.out_conv = Conv3d(c1, 1, 1, rng, dtype=dtype)
        self.out_sig = Sigmoid()
        # Deep-supervision heads: 1^3 conv to one channel, transposed-conv
        # upsampling back to input resolution, sigmoid.
        self.head12_conv = Conv3d(c3, 1, 1, rng, dtype=dtype)
        self.head12_up1 = ConvTranspose3d(1, 1, rng, dtype=dtype)
        self.head12_up2 = ConvTranspose3d(1, 1, rng, dtype=dtype)
        self.head12_sig = Sigmoid()
        self.head24_conv = Conv3d(c2, 1, 1, rng, dtype=dtype)
        self.head24_up = ConvTranspose3d(1, 1, rng, dtype=dtype)
        self.head24_sig = Sigmoid()
        self._c1, self._c2 = c1, c2
        self._forward_done = False

    def children(self):
        """Every Layer-valued attribute, in the order __init__ set them."""
        return {name: v for name, v in vars(self).items() if isinstance(v, Layer)}

    def named_params(self):
        for lname, layer in named_layers(self):
            for pname, p in layer.params.items():
                yield f"{lname}.{pname}", p

    def named_buffers(self):
        for lname, layer in named_layers(self):
            for bname, b in layer.buffers.items():
                yield f"{lname}.{bname}", b

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    def forward(self, x, training=False):
        """x: (1, D, H, W) normalized cuboid with spatial dims divisible by 4.

        Returns (main, [aux_12, aux_24]) probability maps at input resolution.
        Only a training forward keeps what backward needs; an eval forward
        keeps nothing and drops each stage's input once it is used.

        Each dense block's stack and each decoder conv's input are
        zero-bordered (see `bordered`), so their 3^3 convs read them in
        place.  The stem and the first multi-pool write into the stacks'
        interiors.  Each block's reduction writes the skip connection
        straight into the second half of its decoder input, and the
        upsampling writes the first half.  An eval forward builds each
        decoder input in its block's stack, dead once the block is reduced;
        a training forward keeps that stack for backward and gives the
        decoder input a buffer of its own.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"input must be (C, D, H, W), got shape {x.shape}")
        if any(n % 4 for n in x.shape[1:]):
            raise ValueError(f"spatial dims must be divisible by 4, got {x.shape[1:]}")
        self._forward_done = False
        c1, c2, dt = self._c1, self._c2, self.dtype
        full = x.shape[1:]
        half = tuple(n // 2 for n in full)
        stack1 = bordered(max(self.db1.pre_reduction_channels, 2 * c1), full, dt)
        self.stem.forward(x, training, out=interior(stack1)[:self.db1.in_ch])
        del x
        cat1 = bordered(2 * c1, full, dt) if training else stack1
        s1 = self.db1.forward(stack1, training, out=interior(cat1)[c1:2 * c1])
        del stack1
        stack2 = bordered(max(self.db2.pre_reduction_channels, 2 * c2), half, dt)
        self.mp1.forward(s1, training, out=interior(stack2)[:self.db2.in_ch])
        del s1
        cat2 = bordered(2 * c2, half, dt) if training else stack2
        s2 = self.db2.forward(stack2, training, out=interior(cat2)[c2:2 * c2])
        del stack2
        m = self.dcm.forward(self.mp2.forward(s2, training), training)
        del s2
        aux12 = self.head12_sig.forward(self.head12_up2.forward(self.head12_up1.forward(
            self.head12_conv.forward(m, training), training), training), training)
        self.up1.forward(m, training, out=interior(cat2)[:c2])
        del m
        d1 = self.dec1.forward(cat2[:2 * c2], training, border=1)
        del cat2
        aux24 = self.head24_sig.forward(self.head24_up.forward(
            self.head24_conv.forward(d1, training), training), training)
        self.up2.forward(d1, training, out=interior(cat1)[:c1])
        del d1
        d2 = self.dec2.forward(cat1[:2 * c1], training, border=1)
        del cat1
        main = self.out_sig.forward(self.out_conv.forward(d2, training), training)
        self._forward_done = training
        return main, [aux12, aux24]

    def backward(self, grad_main, grad_aux):
        """Accumulate parameter gradients; returns the input gradient.

        grad_aux holds the gradients for the 12^3-head and 24^3-head
        outputs, in that order.
        """
        if not self._forward_done:
            raise RuntimeError("backward needs a training forward since the last "
                               "backward or eval forward")
        dt = self.dtype
        g12, g24 = (np.asarray(g, dtype=dt) for g in grad_aux)
        gm = self.head12_conv.backward(self.head12_up1.backward(
            self.head12_up2.backward(self.head12_sig.backward(g12))))
        gd1_aux = self.head24_conv.backward(self.head24_up.backward(
            self.head24_sig.backward(g24)))
        # Each decoder input's gradient, a view, splits into the upsampling's,
        # copied so that grad_b sums a contiguous array, and the skip
        # connection's.  Every branch sum adds into an array that a backward
        # call just returned, and each gradient is dropped once it is added.
        gc2 = self.dec2.backward(self.out_conv.backward(self.out_sig.backward(
            np.asarray(grad_main, dtype=dt))))
        g = self.up2.backward(np.ascontiguousarray(gc2[:self._c1]))
        g += gd1_aux
        gc1 = self.dec1.backward(g)
        gm += self.up1.backward(np.ascontiguousarray(gc1[:self._c2]))
        g = self.mp2.backward(self.dcm.backward(gm))
        del gm
        g += gc1[self._c2:]
        del gc1
        g = self.mp1.backward(self.db2.backward(g))
        g += gc2[self._c1:]
        del gc2
        g = self.db1.backward(g)
        self._forward_done = False
        return self.stem.backward(g)
