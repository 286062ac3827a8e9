import numpy as np
import pytest

from tbcalib.nn import MFFNet, NetworkConfig
from tbcalib.nn.checkpoint import (CheckpointError, load_checkpoint,
                                   read_checkpoint_arrays, save_checkpoint)
from tbcalib.nn.optim import Adam
from tbcalib.phantom import PhantomSpec, generate_phantom
from tbcalib.segment import (EmptySegmentationError, keep_largest_components,
                             sliding_window_infer, threshold_segment)
from tbcalib.train import train_network
from tbcalib.volume import Volume


def tiny_config():
    return NetworkConfig(stem_channels=2, growth=2, dense_layers=2,
                         enc1_channels=4, enc2_channels=4, dcm_channels=8)


def phantom():
    return generate_phantom(PhantomSpec(dims=(160, 64, 48)))


# --- threshold segmentation ----------------------------------------------------

def test_threshold_segment_recovers_exact_mask():
    vol, mask, _ = phantom()
    seg = threshold_segment(vol, (300.0, 900.0))
    assert np.array_equal(seg.voxels, mask.voxels)


def test_threshold_segment_empty_band():
    vol, _, _ = phantom()
    with pytest.raises(EmptySegmentationError):
        threshold_segment(vol, (10_000.0, 20_000.0))


def test_threshold_segment_bad_band():
    vol, _, _ = phantom()
    with pytest.raises(ValueError):
        threshold_segment(vol, (900.0, 300.0))


def test_keep_largest_components():
    binary = np.zeros((30, 30, 30), dtype=bool)
    binary[2:8, 2:8, 2:8] = True      # 216
    binary[20:24, 20:24, 20:24] = True  # 64
    binary[12:15, 12:15, 12:15] = True  # 27, third largest: dropped
    out = keep_largest_components(binary, n_keep=2)
    assert out.sum() == 216 + 64
    assert out[13, 13, 13] == 0


def test_keep_largest_components_size_floor():
    binary = np.zeros((10, 10, 10), dtype=bool)
    binary[2, 2, 2] = True
    out = keep_largest_components(binary)
    assert out.sum() == 0


# --- training loop ---------------------------------------------------------------

def test_train_zero_iterations_returns_fresh_net():
    vol, mask, _ = phantom()
    net, history = train_network(vol, mask, iterations=0, config=tiny_config())
    ref = MFFNet(tiny_config(), seed=0)
    for (na, pa), (nb, pb) in zip(net.named_params(), ref.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    assert history == []


def test_train_deterministic_in_seed():
    vol, mask, _ = phantom()
    net_a, hist_a = train_network(vol, mask, iterations=2, seed=5,
                                  config=tiny_config(), batch_size=1)
    net_b, hist_b = train_network(vol, mask, iterations=2, seed=5,
                                  config=tiny_config(), batch_size=1)
    assert [h["total"] for h in hist_a] == [h["total"] for h in hist_b]
    for (_, pa), (_, pb) in zip(net_a.named_params(), net_b.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_train_writes_csv_log(tmp_path):
    vol, mask, _ = phantom()
    log = tmp_path / "loss.csv"
    _, history = train_network(vol, mask, iterations=2, config=tiny_config(),
                               batch_size=1, log_path=log)
    lines = log.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "iteration"
    assert "dsc_main" in header and "ce_main" in header and "total" in header
    assert len(lines) == 1 + 2
    assert float(lines[1].split(",")[header.index("total")]) == \
        pytest.approx(history[0]["total"], rel=1e-6)


# --- checkpointing -----------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    net = MFFNet(tiny_config(), seed=1)
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path)
    other = MFFNet(tiny_config(), seed=2)
    load_checkpoint(other, path)
    for (_, pa), (_, pb) in zip(net.named_params(), other.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data)
    for (_, ba), (_, bb) in zip(net.named_buffers(), other.named_buffers()):
        np.testing.assert_array_equal(ba, bb)


def test_checkpoint_with_optimizer_state(tmp_path):
    vol, mask, _ = phantom()
    net, _ = train_network(vol, mask, iterations=1, config=tiny_config(),
                           batch_size=1)
    opt = Adam(net.named_params())
    opt.t = 7
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path, optimizer=opt)
    other = MFFNet(tiny_config(), seed=9)
    opt2 = Adam(other.named_params())
    load_checkpoint(other, path, optimizer=opt2)
    assert opt2.t == 7
    for k in opt.m:
        np.testing.assert_array_equal(opt.m[k], opt2.m[k])


def test_checkpoint_header_magic(tmp_path):
    net = MFFNet(tiny_config(), seed=0)
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path)
    assert path.read_bytes()[:4] == b"MFFW"
    entries, _ = read_checkpoint_arrays(path)
    assert "stem.conv.w" in entries


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    net = MFFNet(tiny_config(), seed=0)
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path)
    bigger = MFFNet(NetworkConfig(), seed=0)
    with pytest.raises(CheckpointError):
        load_checkpoint(bigger, path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.mffw"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(CheckpointError):
        read_checkpoint_arrays(path)


@pytest.mark.parametrize("cut", [13, 20, 40, 53])
def test_checkpoint_truncated_manifest(tmp_path, cut):
    """Cut inside the first entry (bytes 12-54): name length, name, dims,
    payload offset."""
    net = MFFNet(tiny_config(), seed=0)
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(CheckpointError, match="truncated manifest"):
        read_checkpoint_arrays(path)


# --- sliding-window inference --------------------------------------------------------

def test_sliding_window_output_grid_and_range():
    rng = np.random.default_rng(0)
    vol = Volume(voxels=rng.normal(500, 200, size=(48, 52, 60)).astype(np.float32),
                 spacing=(0.5, 0.5, 0.5), origin=(-1.0, 0.0, 2.0))
    net = MFFNet(tiny_config(), seed=0)
    mask = sliding_window_infer(net, vol, stride=24)
    assert mask.voxels.shape == vol.voxels.shape
    assert mask.same_grid(vol)
    assert set(np.unique(mask.voxels)) <= {0, 1}


def test_sliding_window_pads_small_volumes():
    rng = np.random.default_rng(1)
    vol = Volume(voxels=rng.normal(size=(20, 24, 30)).astype(np.float32))
    net = MFFNet(tiny_config(), seed=0)
    mask = sliding_window_infer(net, vol)
    assert mask.voxels.shape == (20, 24, 30)
