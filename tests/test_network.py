import copy
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import cached_arrays, reachable_layers, rel_err
from tbcalib.nn import (Adam, DenseBlock, DilatedConvModule, MFFNet,
                        MultiPoolModule, NetworkConfig, ops)
from tbcalib.nn.layers import (AvgPool3d, BatchNorm3d, Conv3d, ConvBnRelu, ConvTranspose3d,
                               MaxPool3d, ReLU, Sigmoid, bordered, named_layers)


def tiny_config():
    return NetworkConfig(stem_channels=2, growth=2, dense_layers=2,
                         enc1_channels=4, enc2_channels=4, dcm_channels=8)


def test_shape_ladder_48():
    net = MFFNet(NetworkConfig(), seed=0)
    x = np.random.default_rng(0).random((1, 48, 48, 48)).astype(np.float32)
    main, auxes = net.forward(x, training=False)
    assert main.shape == (1, 48, 48, 48)
    assert len(auxes) == 2
    assert all(a.shape == (1, 48, 48, 48) for a in auxes)
    assert np.all((main >= 0) & (main <= 1))


def test_input_validation():
    net = MFFNet(tiny_config(), seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 10, 10, 10)))  # not divisible by 4
    with pytest.raises(ValueError):
        net.forward(np.zeros((8, 8, 8)))  # missing channel axis
    with pytest.raises(RuntimeError):
        MFFNet(tiny_config()).backward(np.zeros((1, 8, 8, 8)),
                                       [np.zeros((1, 8, 8, 8))] * 2)


def test_backward_needs_a_training_forward_after_any_eval_forward():
    """An eval forward clears the caches, so train -> eval -> backward must
    not differentiate the older training forward; eval -> train -> backward
    differentiates the training one."""
    x = np.random.default_rng(12).random((1, 8, 8, 8))
    grads = (np.ones((1, 8, 8, 8)), [np.ones((1, 8, 8, 8))] * 2)
    net = MFFNet(tiny_config(), seed=0, dtype=np.float64)
    net.forward(x, training=False)
    with pytest.raises(RuntimeError):
        net.backward(*grads)
    net.forward(x, training=True)
    net.forward(x, training=False)
    with pytest.raises(RuntimeError):
        net.backward(*grads)
    net.forward(x, training=False)
    net.forward(x, training=True)
    gx = net.backward(*grads)
    assert gx.shape == x.shape and np.all(np.isfinite(gx))
    with pytest.raises(RuntimeError):
        net.backward(*grads)


def test_dense_block_channel_arithmetic():
    """Stack grows by g per layer: C0 + n*g channels before the reduction."""
    rng = np.random.default_rng(1)
    db = DenseBlock(8, 16, rng, growth=8, n_layers=4)
    assert db.pre_reduction_channels == 8 + 4 * 8  # 40
    x = rng.random((8, 6, 6, 6)).astype(np.float32)
    stack = bordered(db.pre_reduction_channels, x.shape[1:], x.dtype)
    ops.interior(stack)[:8] = x
    y = db.forward(stack, training=False)
    assert y.shape == (16, 6, 6, 6)


def test_dense_block_concat_composition():
    """First dense layer must see exactly the block input; the second must see
    input and first-layer output concatenated."""
    rng = np.random.default_rng(2)
    db = DenseBlock(3, 4, rng, growth=2, n_layers=2)
    x = rng.random((3, 4, 4, 4)).astype(np.float32)
    stack = bordered(db.pre_reduction_channels, x.shape[1:], x.dtype)
    ops.interior(stack)[:3] = x
    y = db.forward(stack, training=False)
    f1 = db.layers[0].forward(x, training=False)
    f2 = db.layers[1].forward(np.concatenate([x, f1], axis=0), training=False)
    expect = db.reduce.forward(np.concatenate([x, f1, f2], axis=0), training=False)
    np.testing.assert_allclose(y, expect, atol=1e-6)


def test_dilated_module_composition():
    rng = np.random.default_rng(3)
    dcm = DilatedConvModule(4, 8, rng)
    x = rng.random((4, 12, 12, 12)).astype(np.float32)
    y = dcm.forward(x, training=False)
    assert y.shape == (8, 12, 12, 12)
    outs = [b.forward(x, training=False) for b in dcm.branches]
    assert all(o.shape == (4, 12, 12, 12) for o in outs)
    expect = dcm.reduce.forward(np.concatenate(outs, axis=0), training=False)
    np.testing.assert_allclose(y, expect, atol=1e-6)


def test_multipool_halves_and_reduces():
    rng = np.random.default_rng(4)
    mp = MultiPoolModule(5, rng)
    x = rng.random((5, 8, 8, 8)).astype(np.float32)
    outs = [p.forward(x, training=False) for p in mp.branches]
    assert [o.shape for o in outs] == [(5, 4, 4, 4)] * 4
    y = mp.forward(x, training=False)
    assert y.shape == (5, 4, 4, 4)
    with pytest.raises(ValueError):
        mp.forward(rng.random((5, 7, 8, 8)).astype(np.float32), training=False)


def randomized_net(seed, dtype=np.float32):
    """Default-config net with random BN statistics and affine parameters,
    so every batch-norm scale and shift is far from the identity."""
    net = MFFNet(NetworkConfig(), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, p in net.named_params():
        if name.endswith((".gamma", ".beta", ".b")):
            p.data[...] = rng.uniform(0.5, 1.5, p.data.shape) * rng.choice((-1, 1), p.data.shape)
    for name, b in net.named_buffers():
        b[...] = (rng.uniform(0.5, 2.0, b.shape) if name.endswith("var")
                  else rng.normal(0.0, 0.3, b.shape))
    return net


def reference_forward(net, x, training, folded=True):
    """The network composed from public ops the unbordered way: every conv
    pads its own copy of its input, and each dense-block input and skip
    connection is an np.concatenate.  Returns (main, [aux12, aux24],
    backward), where backward(grad_main, grad_aux) accumulates into the
    net's Param.grad and returns the input gradient, summing branch
    gradients in the order MFFNet.backward does.  A training forward
    updates the net's running statistics.

    An eval forward uses the eval ops: each conv + batch norm + ReLU is one
    conv with the batch norm folded in and a fused ReLU, and the pools are
    the separable `*_inference` ones.  With folded=False it composes the
    training ops in eval mode instead: conv, then eval batch norm, then
    ReLU, and the scan-order pools."""
    eval_ops = folded and not training

    def conv(layer, u):
        w, b = layer.params["w"], layer.params["b"]
        args = (1, layer.dilation, layer.padding)

        def back(g):
            gx, gw, gb = ops.conv3d_backward(u, w.data, g, *args)
            w.grad += gw
            b.grad += gb
            return gx
        return ops.conv3d_forward(u, w.data, b.data, *args), back

    def cbr(unit, u):
        if eval_ops:
            c, bn = unit.conv, unit.bn
            w, b = ops.fold_batchnorm(c.params["w"].data, c.params["b"].data,
                                      bn.params["gamma"].data, bn.params["beta"].data,
                                      bn.buffers["running_mean"], bn.buffers["running_var"])
            return ops.conv3d_forward(u, w, b, 1, c.dilation, c.padding, relu=True), None
        z, conv_back = conv(unit.conv, u)
        gamma, beta = unit.bn.params["gamma"], unit.bn.params["beta"]
        n, cache = ops.batchnorm_forward(z, gamma.data, beta.data,
                                         unit.bn.buffers["running_mean"],
                                         unit.bn.buffers["running_var"], training)
        y, mask = ops.relu_forward(n)

        def back(g):
            gn, ggamma, gbeta = ops.batchnorm_backward(cache, ops.relu_backward(mask, g))
            gamma.grad += ggamma
            beta.grad += gbeta
            return conv_back(gn)
        return y, back

    def up(layer, u):
        w, b = layer.params["w"], layer.params["b"]

        def back(g):
            gx, gw, gb = ops.conv_transpose3d_backward(u, w.data, g)
            w.grad += gw
            b.grad += gb
            return gx
        return ops.conv_transpose3d_forward(u, w.data, b.data), back

    def sig(u):
        y = ops.sigmoid_forward(u)[0]
        return y, lambda g: ops.sigmoid_backward(y, g)

    def chain(u, *stages):
        backs = []
        for stage in stages:
            u, back = stage(u)
            backs.append(back)

        def back(g):
            for b in reversed(backs):
                g = b(g)
            return g
        return u, back

    def pool(forward, backward, inference, k):
        def stage(u):
            if eval_ops:
                return inference(u, k, 2, (k - 1) // 2), None
            y, cache = forward(u, k, 2, (k - 1) // 2)
            return y, lambda g: backward(u.shape, cache, g, k, 2, (k - 1) // 2)
        return stage

    def dense(block, u):
        feats, backs = [u], []
        for layer in block.layers:
            f, back = cbr(layer, np.concatenate(feats))
            feats.append(f)
            backs.append(back)
        y, reduce_back = cbr(block.reduce, np.concatenate(feats))
        bounds = np.cumsum([f.shape[0] for f in feats[:-1]])

        def back(g):
            gfeats = [p.copy() for p in np.split(reduce_back(g), bounds)]
            for i in range(len(backs), 0, -1):
                for j, gpart in enumerate(np.split(backs[i - 1](gfeats[i]), bounds[:i - 1])):
                    gfeats[j] += gpart
            return gfeats[0]
        return y, back

    def fusion(module, branches, u):
        outs = [branch(u) for branch in branches]
        y, reduce_back = cbr(module.reduce, np.concatenate([o for o, _ in outs]))

        def back(g):
            gx = None
            for (_, branch_back), part in zip(outs, np.split(reduce_back(g), len(outs))):
                gb = branch_back(np.ascontiguousarray(part))
                gx = gb if gx is None else gx + gb
            return gx
        return y, back

    max_ops = (ops.maxpool3d_forward, ops.maxpool3d_backward, ops.maxpool3d_inference)
    avg_ops = (ops.avgpool3d_forward, ops.avgpool3d_backward, ops.avgpool3d_inference)
    pools = [pool(*max_ops, 2), pool(*avg_ops, 2), pool(*max_ops, 3), pool(*avg_ops, 3)]
    c1, c2 = net.config.enc1_channels, net.config.enc2_channels
    t, stem_back = cbr(net.stem, x)
    s1, db1_back = dense(net.db1, t)
    p1, mp1_back = fusion(net.mp1, pools, s1)
    s2, db2_back = dense(net.db2, p1)
    p2, mp2_back = fusion(net.mp2, pools, s2)
    m, dcm_back = fusion(net.dcm, [partial(cbr, b) for b in net.dcm.branches], p2)
    aux12, aux12_back = chain(m, partial(conv, net.head12_conv), partial(up, net.head12_up1),
                              partial(up, net.head12_up2), sig)
    u1, up1_back = up(net.up1, m)
    d1, dec1_back = cbr(net.dec1, np.concatenate([u1, s2]))
    aux24, aux24_back = chain(d1, partial(conv, net.head24_conv), partial(up, net.head24_up), sig)
    u2, up2_back = up(net.up2, d1)
    d2, dec2_back = cbr(net.dec2, np.concatenate([u2, s1]))
    main, main_back = chain(d2, partial(conv, net.out_conv), sig)

    def backward(grad_main, grad_aux):
        gm = aux12_back(grad_aux[0])
        gd1_aux = aux24_back(grad_aux[1])
        gc2 = dec2_back(main_back(grad_main))
        gd1 = up2_back(np.ascontiguousarray(gc2[:c1])) + gd1_aux
        gc1 = dec1_back(gd1)
        gm = gm + up1_back(np.ascontiguousarray(gc1[:c2]))
        gs2 = np.ascontiguousarray(gc1[c2:]) + mp2_back(dcm_back(gm))
        gs1 = np.ascontiguousarray(gc2[c1:]) + mp1_back(db2_back(gs2))
        return stem_back(db1_back(gs1))

    return main, [aux12, aux24], backward


@pytest.mark.parametrize("shape", [(48, 48, 48), (24, 40, 16)])
def test_cache_free_eval_forward_equals_cached_forward(shape):
    net = randomized_net(13)
    x = np.random.default_rng(14).normal(size=(1,) + shape).astype(np.float32)
    main, auxes = net.forward(x, training=False)
    ref_main, ref_auxes, _ = reference_forward(net, x, training=False)
    assert not np.allclose(ref_main, ref_main.ravel()[0])
    for got, ref in zip([main] + auxes, [ref_main] + ref_auxes):
        assert got.dtype == ref.dtype and got.shape == (1,) + shape
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 5e-6)])
def test_eval_forward_matches_the_unfolded_composition(dtype, atol):
    """The eval forward folds each batch norm into its conv, applies ReLU
    to each conv chunk and sums the average pools one axis at a time; the
    training ops in eval mode (conv, eval batch norm, ReLU, scan-order
    pools) round differently.  Measured: 6.7e-16 in float64 and 3.6e-7 in
    float32, on probabilities in [0.05, 0.97]."""
    net = randomized_net(13, dtype)
    x = np.random.default_rng(14).normal(size=(1, 24, 40, 16)).astype(dtype)
    main, auxes = net.forward(x, training=False)
    ref_main, ref_auxes, _ = reference_forward(net, x, training=False, folded=False)
    for got, ref in zip([main] + auxes, [ref_main] + ref_auxes):
        assert got.dtype == ref.dtype == dtype
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


def test_bordered_network_matches_unbordered_reference():
    """On a non-cubic cuboid, the eval forward, the training forward and
    the backward (every parameter gradient, the input gradient and the
    running statistics) equal the unbordered composition bit for bit."""
    net = randomized_net(21)
    ref = copy.deepcopy(net)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(1, 16, 16, 24)).astype(np.float32)
    for training in (False, True):
        main, auxes = net.forward(x, training=training)
        ref_main, ref_auxes, ref_backward = reference_forward(ref, x, training)
        for got, want in zip([main] + auxes, [ref_main] + ref_auxes):
            assert got.shape == (1, 16, 16, 24)
            np.testing.assert_array_equal(got, want)
    grad_main, *grad_aux = (rng.normal(size=main.shape).astype(np.float32) for _ in range(3))
    net.zero_grad()
    ref.zero_grad()
    np.testing.assert_array_equal(net.backward(grad_main, grad_aux),
                                  ref_backward(grad_main, grad_aux))
    for (name, p), (_, q) in zip(net.named_params(), ref.named_params()):
        assert np.any(p.grad), name
        np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)
    for (name, b), (_, c) in zip(net.named_buffers(), ref.named_buffers()):
        np.testing.assert_array_equal(b, c, err_msg=name)


def test_eval_forward_peak_allocation_on_reduced_field():
    """Peak traced allocation of one eval forward of the default net on a
    112x64x64 field.  Measured 143.8 MB; with an unbordered dense stack, a
    padded copy of every conv input and np.concatenate skip connections it
    was 175.7 MB."""
    net = MFFNet(NetworkConfig(), seed=0)
    x = np.random.default_rng(16).normal(size=(1, 112, 64, 64)).astype(np.float32)
    net.forward(x)
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6, peak / 1e6


def test_training_step_peak_allocation_on_a_cuboid():
    """Peak traced allocation of one 48^3 training forward plus backward of
    the default net.  Measured 168.9 MB; it was 221.7 MB when every conv
    backward padded a copy of its input and cropped a copy of grad_x, batch
    norm, ReLU and its mask made new arrays that were then copied into the
    stacks, and the backward kept each gradient until it returned."""
    net = MFFNet(NetworkConfig(), seed=0)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(1, 48, 48, 48)).astype(np.float32)
    grad_main, *grad_aux = (rng.normal(size=x.shape).astype(np.float32) for _ in range(3))

    def step():
        net.forward(x, training=True)
        net.backward(grad_main, grad_aux)

    step()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180e6, peak / 1e6


@pytest.fixture(scope="module")
def traced_training_step():
    """(net, held, peak) of one traced 48^3 training forward plus backward
    of the default net, after an untraced warm-up step: the traced bytes
    still allocated after the backward, and the step's peak."""
    net = MFFNet(NetworkConfig(), seed=0)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 48, 48, 48)).astype(np.float32)
    grad_main, *grad_aux = (rng.normal(size=x.shape).astype(np.float32) for _ in range(3))
    net.forward(x, training=True)
    net.backward(grad_main, grad_aux)
    tracemalloc.start()
    try:
        net.forward(x, training=True)
        net.backward(grad_main, grad_aux)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return net, held, peak


def test_training_backward_empties_every_cache(traced_training_step):
    """Each layer's backward pass takes its cache and empties the slot, so
    nothing of the step's activations outlives it.  Measured 0.0 MB held;
    101.8 MB stayed held when every layer kept its cache until the next
    forward."""
    net, held, _ = traced_training_step
    assert all(layer._cache is None for layer in reachable_layers(net))
    assert cached_arrays(net) == []
    assert held < 2e6, held / 1e6


def test_training_step_peak_follows_the_live_set(traced_training_step):
    """Peak traced allocation of one 48^3 training forward plus backward,
    with each cache freed by its own backward.  Measured 128.3 MB; it was
    168.9 MB when the backward's peak also held every cache it had used."""
    _, _, peak = traced_training_step
    assert peak < 140e6, peak / 1e6


LEAF_LAYERS = {
    "Conv3d": lambda: Conv3d(2, 3, 3, np.random.default_rng(0)),
    "ConvTranspose3d": lambda: ConvTranspose3d(2, 3, np.random.default_rng(0)),
    "BatchNorm3d": lambda: BatchNorm3d(2),
    "ReLU": ReLU,
    "Sigmoid": Sigmoid,
    "MaxPool3d": lambda: MaxPool3d(3),
    "AvgPool3d": lambda: AvgPool3d(2),
}


@pytest.mark.parametrize("name", list(LEAF_LAYERS))
def test_layer_backward_needs_a_training_forward(name):
    """A leaf layer's backward raises on a fresh layer, after an eval
    forward, and a second time after one training forward."""
    layer, fresh = LEAF_LAYERS[name](), LEAF_LAYERS[name]()
    x = np.random.default_rng(19).normal(size=(2, 4, 4, 4)).astype(np.float32)
    gy = np.ones_like(layer.forward(x.copy(), training=False))
    for untrained in (fresh, layer):
        with pytest.raises(RuntimeError, match="training forward"):
            untrained.backward(gy.copy())
    layer.forward(x.copy(), training=True)
    assert layer.backward(gy.copy()).shape == x.shape
    with pytest.raises(RuntimeError, match="training forward"):
        layer.backward(gy.copy())


def test_eval_forward_leaves_no_cached_array():
    net = MFFNet(tiny_config(), seed=0)
    x = np.random.default_rng(15).random((1, 8, 8, 8)).astype(np.float32)
    net.forward(x, training=True)
    names = {name.split(".")[0] for name, _ in cached_arrays(net)}
    assert names >= {"Conv3d", "ConvTranspose3d", "BatchNorm3d", "ReLU", "Sigmoid",
                     "MaxPool3d", "AvgPool3d"}
    net.forward(x, training=False)
    assert [name for name, _ in cached_arrays(net)] == []
    fresh = MFFNet(tiny_config(), seed=0)
    fresh.forward(x, training=False)
    assert [name for name, _ in cached_arrays(fresh)] == []


def test_forward_deterministic():
    x = np.random.default_rng(5).random((1, 8, 8, 8)).astype(np.float32)
    a = MFFNet(tiny_config(), seed=3).forward(x)[0]
    b = MFFNet(tiny_config(), seed=3).forward(x)[0]
    c = MFFNet(tiny_config(), seed=4).forward(x)[0]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_end_to_end_input_gradient_matches_finite_differences():
    """Backward through the whole reduced net checked against central
    differences on a random subset of input coordinates (float64)."""
    net = MFFNet(tiny_config(), seed=6, dtype=np.float64)
    rng = np.random.default_rng(7)
    x = rng.random((1, 8, 8, 8))
    rm = rng.normal(size=(1, 8, 8, 8))
    ra = [rng.normal(size=(1, 8, 8, 8)) for _ in range(2)]

    def loss():
        main, auxes = net.forward(x, training=True)
        return float(np.sum(main * rm) + sum(np.sum(a * r) for a, r in zip(auxes, ra)))

    loss()
    gx = net.backward(rm, ra)
    h = 1e-6
    flat = x.ravel()
    idxs = rng.choice(flat.size, size=12, replace=False)
    for i in idxs:
        old = flat[i]
        flat[i] = old + h
        fp = loss()
        flat[i] = old - h
        fm = loss()
        flat[i] = old
        num = (fp - fm) / (2 * h)
        ana = gx.ravel()[i]
        assert abs(ana - num) / max(abs(ana), abs(num), 1e-8) < 1e-3


def test_gradient_step_decreases_loss():
    """A small step along the negative parameter gradient must reduce the
    surrogate loss (first-order line-search property)."""
    net = MFFNet(tiny_config(), seed=8, dtype=np.float64)
    rng = np.random.default_rng(9)
    x = rng.random((1, 8, 8, 8))
    g = (rng.random((1, 8, 8, 8)) < 0.3).astype(np.float64)

    from tbcalib.losses import joint_loss

    def run():
        main, auxes = net.forward(x, training=True)
        return joint_loss(main, auxes, g)

    total0, _, gm, ga = run()
    net.zero_grad()
    net.backward(gm, ga)
    step = 1e-3
    for _, p in net.named_params():
        p.data -= step * p.grad
    total1, _, _, _ = run()
    assert total1 < total0


def test_adam_converges_on_quadratic():
    from tbcalib.nn.layers import Param
    p = Param(np.array([5.0, -3.0]))
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(300):
        p.grad[...] = 2.0 * p.data  # d/dp ||p||^2
        opt.step()
    assert np.abs(p.data).max() < 1e-2


def test_adam_bias_correction_first_step():
    from tbcalib.nn.layers import Param
    p = Param(np.array([1.0]))
    opt = Adam([("p", p)], lr=0.5)
    p.grad[...] = 0.04
    opt.step()
    # after bias correction the first update magnitude is ~lr regardless of g
    assert p.data[0] == pytest.approx(1.0 - 0.5, abs=1e-6)


def test_named_params_reach_every_layer_with_state():
    """The net's children are its Layer attributes in definition order, so
    every layer holding parameters or buffers is named exactly once, a
    layer attached later included: Adam and the checkpoint see them all."""
    net = MFFNet()
    net.extra = Conv3d(2, 1, 1, np.random.default_rng(0))
    names = [name for name, _ in named_layers(net)]
    layers = [id(layer) for _, layer in named_layers(net)]
    assert len(set(names)) == len(names) and len(set(layers)) == len(layers)
    assert {id(l) for l in reachable_layers(net) if l.params or l.buffers} <= set(layers)
    assert [name for name, _ in net.named_params()][-2:] == ["extra.w", "extra.b"]
