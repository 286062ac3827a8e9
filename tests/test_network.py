import numpy as np
import pytest

from conftest import rel_err
from tbcalib.nn import (Adam, DenseBlock, DilatedConvModule, MFFNet,
                        MultiPoolModule, NetworkConfig, ops)
from tbcalib.nn.layers import ConvBnRelu, Layer


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
    y = db.forward(x, training=False)
    assert y.shape == (16, 6, 6, 6)


def test_dense_block_concat_composition():
    """First dense layer must see exactly the block input; the second must see
    input and first-layer output concatenated."""
    rng = np.random.default_rng(2)
    db = DenseBlock(3, 4, rng, growth=2, n_layers=2)
    x = rng.random((3, 4, 4, 4)).astype(np.float32)
    y = db.forward(x, training=False)
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


def randomized_net(seed):
    """Default-config net with random BN statistics and affine parameters,
    so every batch-norm scale and shift is far from the identity."""
    net = MFFNet(NetworkConfig(), seed=seed)
    rng = np.random.default_rng(seed)
    for name, p in net.named_params():
        if name.endswith((".gamma", ".beta", ".b")):
            p.data[...] = rng.uniform(0.5, 1.5, p.data.shape) * rng.choice((-1, 1), p.data.shape)
    for name, b in net.named_buffers():
        b[...] = (rng.uniform(0.5, 2.0, b.shape) if name.endswith("var")
                  else rng.normal(0.0, 0.3, b.shape))
    return net


def reference_eval_forward(net, x):
    """The former eval forward: every op out of place and returning its
    backward cache, and np.concatenate for each dense-block input."""
    def conv(layer, u):
        return ops.conv3d_forward(u, layer.params["w"].data, layer.params["b"].data,
                                  1, layer.dilation, layer.padding)

    def cbr(unit, u):
        bn = unit.bn
        y, _ = ops.batchnorm_forward(conv(unit.conv, u), bn.params["gamma"].data,
                                     bn.params["beta"].data, bn.buffers["running_mean"],
                                     bn.buffers["running_var"], False)
        return ops.relu_forward(y)[0]

    def dense(block, u):
        feats = [u]
        for layer in block.layers:
            feats.append(cbr(layer, np.concatenate(feats)))
        return cbr(block.reduce, np.concatenate(feats))

    def multipool(module, u):
        outs = [ops.maxpool3d_forward(u, 2, 2, 0)[0], ops.avgpool3d_forward(u, 2, 2, 0)[0],
                ops.maxpool3d_forward(u, 3, 2, 1)[0], ops.avgpool3d_forward(u, 3, 2, 1)[0]]
        return cbr(module.reduce, np.concatenate(outs))

    def up(layer, u):
        return ops.conv_transpose3d_forward(u, layer.params["w"].data, layer.params["b"].data)

    def sig(u):
        return ops.sigmoid_forward(u)[0]

    s1 = dense(net.db1, cbr(net.stem, x))
    s2 = dense(net.db2, multipool(net.mp1, s1))
    m = cbr(net.dcm.reduce, np.concatenate([cbr(b, multipool(net.mp2, s2))
                                            for b in net.dcm.branches]))
    d1 = cbr(net.dec1, np.concatenate([up(net.up1, m), s2]))
    d2 = cbr(net.dec2, np.concatenate([up(net.up2, d1), s1]))
    return (sig(conv(net.out_conv, d2)),
            [sig(up(net.head12_up2, up(net.head12_up1, conv(net.head12_conv, m)))),
             sig(up(net.head24_up, conv(net.head24_conv, d1)))])


@pytest.mark.parametrize("shape", [(48, 48, 48), (24, 40, 16)])
def test_cache_free_eval_forward_equals_cached_forward(shape):
    net = randomized_net(13)
    x = np.random.default_rng(14).normal(size=(1,) + shape).astype(np.float32)
    main, auxes = net.forward(x, training=False)
    ref_main, ref_auxes = reference_eval_forward(net, x)
    assert not np.allclose(ref_main, ref_main.ravel()[0])
    for got, ref in zip([main] + auxes, [ref_main] + ref_auxes):
        assert got.dtype == ref.dtype and got.shape == (1,) + shape
        np.testing.assert_array_equal(got, ref)


def cached_arrays(net):
    """(layer attribute, value) for every array a layer holds outside its
    params and buffers, over every Layer reachable from the net."""
    found, stack, seen = [], [net], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for name, value in vars(obj).items():
            items = value if isinstance(value, (list, tuple)) else [value]
            if isinstance(obj, Layer) and name not in ("params", "buffers") and any(
                    isinstance(v, np.ndarray) for v in items):
                found.append((f"{type(obj).__name__}.{name}", value))
            stack.extend(v for v in items if isinstance(v, Layer))
    return found


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
