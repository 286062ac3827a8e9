import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import cached_arrays, reachable_layers
from tbcalib import segment, train
from tbcalib.nn import MFFNet, NetworkConfig
from tbcalib.nn.checkpoint import (CheckpointError, load_checkpoint,
                                   read_checkpoint_arrays, save_checkpoint)
from tbcalib.phantom import PhantomSpec, generate_phantom
from tbcalib.segment import (EmptySegmentationError, keep_largest_components,
                             predict_probabilities, sliding_window_infer, threshold_segment)
from tbcalib.train import CHECK_EVERY, train_network
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
    out = keep_largest_components(binary)
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


@pytest.mark.parametrize("kwargs", [dict(batch_size=0), dict(iterations=-3),
                                    dict(batch_size=2, fixed_offset=(0, 0, 0))],
                         ids=["batch_size_0", "iterations_-3", "batch_size_2_fixed_offset"])
def test_train_rejects_sizes_it_would_ignore(kwargs):
    vol, mask, _ = phantom()
    with pytest.raises(ValueError):
        train_network(vol, mask, config=tiny_config(), **kwargs)


@pytest.mark.parametrize("lambdas", [(2, 0), (0.5,), (0.5, 0.25, 0.1), (float("nan"), 0.25)],
                         ids=["above_1", "one_weight", "three_weights", "nan"])
def test_train_rejects_lambdas_before_building_the_net(lambdas, tmp_path, monkeypatch):
    def no_net(*args, **kwargs):
        raise AssertionError("the net was built before the weights were checked")

    monkeypatch.setattr(train, "MFFNet", no_net)
    vol, mask, _ = phantom()
    log = tmp_path / "loss.csv"
    with pytest.raises(ValueError, match="lambdas must be two weights in"):
        train_network(vol, mask, lambdas=lambdas, log_path=log)
    assert not log.exists()


def test_train_deterministic_in_seed():
    vol, mask, _ = phantom()
    net_a, hist_a = train_network(vol, mask, iterations=2, seed=5,
                                  config=tiny_config(), batch_size=1)
    net_b, hist_b = train_network(vol, mask, iterations=2, seed=5,
                                  config=tiny_config(), batch_size=1)
    assert [h["total"] for h in hist_a] == [h["total"] for h in hist_b]
    for (_, pa), (_, pb) in zip(net_a.named_params(), net_b.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_trained_net_holds_no_cached_activations():
    """Each backward pass empties its layers' caches, so the net that
    train_network returns keeps no activation of its last sample."""
    vol, mask, _ = phantom()
    net, _ = train_network(vol, mask, iterations=1, config=tiny_config())
    assert all(layer._cache is None for layer in reachable_layers(net))
    assert cached_arrays(net) == []


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


def test_train_stop_dsc_stops_at_the_first_check():
    vol, mask, _ = phantom()
    _, history = train_network(vol, mask, iterations=25, config=tiny_config(),
                               fixed_offset=(56, 8, 0), stop_dsc=0.0)
    assert [h["iteration"] for h in history] == list(range(CHECK_EVERY))


def test_train_loss_log_header_and_cells(tmp_path):
    vol, mask, _ = phantom()
    log = tmp_path / "loss.csv"
    _, history = train_network(vol, mask, iterations=2, config=tiny_config(), log_path=log)
    keys = ["dsc_main", "ce_main", "ce_aux_0", "ce_aux_1", "dsc_aux_0", "dsc_aux_1", "total"]
    rows = [f"{h['iteration']}," + ",".join(f"{h[k]:.8g}" for k in keys) + "\n"
            for h in history]
    assert log.read_text() == "".join(["iteration," + ",".join(keys) + "\n"] + rows)
    assert [h["iteration"] for h in history] == [0, 1]


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


def test_checkpoint_header_magic(tmp_path):
    net = MFFNet(tiny_config(), seed=0)
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path)
    assert path.read_bytes()[:4] == b"MFFW"
    entries = read_checkpoint_arrays(path)
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


def first_entry_dims_at(raw):
    """Byte offset of the first manifest entry's dims, after its name and ndim."""
    (nlen,) = struct.unpack_from("<H", raw, 12)
    return 14 + nlen + 1


def test_checkpoint_name_not_utf8(tmp_path):
    path = tmp_path / "net.mffw"
    save_checkpoint(MFFNet(tiny_config(), seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[14] = 0xFF  # first byte of the first entry name
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="utf-8"):
        read_checkpoint_arrays(path)


def test_checkpoint_dims_product_beyond_int64(tmp_path):
    path = tmp_path / "net.mffw"
    save_checkpoint(MFFNet(tiny_config(), seed=0), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2I", raw, first_entry_dims_at(raw), 2**32 - 1, 2**32 - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="payload truncated"):
        read_checkpoint_arrays(path)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_checkpoint_payload_cut_inside_last_value(tmp_path, cut):
    path = tmp_path / "net.mffw"
    save_checkpoint(MFFNet(tiny_config(), seed=0), path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CheckpointError, match="payload truncated"):
        read_checkpoint_arrays(path)


def test_checkpoint_buffer_shape_mismatch_rejected(tmp_path):
    net = MFFNet(tiny_config(), seed=0)
    wrong = [(name, np.zeros(b.size + 1)) for name, b in net.named_buffers()]
    path = tmp_path / "net.mffw"
    save_checkpoint(SimpleNamespace(named_params=net.named_params,
                                    named_buffers=lambda: wrong), path)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_checkpoint(net, path)


def test_checkpoint_missing_buffer_rejected(tmp_path):
    net = MFFNet(tiny_config(), seed=0)
    path = tmp_path / "net.mffw"
    save_checkpoint(SimpleNamespace(named_params=net.named_params,
                                    named_buffers=lambda: []), path)
    with pytest.raises(CheckpointError, match="missing buffer"):
        load_checkpoint(net, path)


def test_checkpoint_flags_byte_is_ignored(tmp_path):
    net = MFFNet(tiny_config(), seed=1)
    path = tmp_path / "net.mffw"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[5] = 1
    path.write_bytes(bytes(raw))
    other = MFFNet(tiny_config(), seed=2)
    load_checkpoint(other, path)
    for (_, pa), (_, pb) in zip(net.named_params(), other.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_checkpoint_unexpected_entry_rejected(tmp_path):
    """An entry the net does not have (here one extra parameter) is an error,
    not a value that is read and then ignored."""
    net = MFFNet(tiny_config(), seed=1)
    extra = ("extra.w", SimpleNamespace(data=np.ones(3)))
    path = tmp_path / "net.mffw"
    save_checkpoint(SimpleNamespace(named_params=lambda: list(net.named_params()) + [extra],
                                    named_buffers=net.named_buffers), path)
    with pytest.raises(CheckpointError, match="unexpected entry extra.w"):
        load_checkpoint(MFFNet(tiny_config(), seed=2), path)


def entry_offset_at(raw, i):
    """Byte offset of manifest entry i's payload offset."""
    pos = 12
    for _ in range(i + 1):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        pos += 2 + nlen
        pos += 1 + 4 * raw[pos] + 8
    return pos - 8


def second_entry_at_offset_0(net, path):
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, entry_offset_at(raw, 1), 0)
    path.write_bytes(bytes(raw))


def first_entry_repeated(net, path):
    params = list(net.named_params())
    save_checkpoint(SimpleNamespace(named_params=lambda: params + params[:1],
                                    named_buffers=net.named_buffers), path)


def bytes_after_last_entry(net, path):
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes() + bytes(16))


@pytest.mark.parametrize("damage,message", [
    (second_entry_at_offset_0, "entry stem.conv.b at offset 0, expected 54"),
    (first_entry_repeated, "entry stem.conv.w repeated"),
    (bytes_after_last_entry, "16 bytes after the last entry")],
    ids=["offsets-overlap", "name-repeated", "bytes-after-last-entry"])
def test_checkpoint_layout_the_writer_never_makes_rejected(tmp_path, damage, message):
    """Each entry starts where the one before it ends, no name repeats, and
    the payload ends with the last entry: any other layout is an error, not
    weights that load."""
    path = tmp_path / "net.mffw"
    damage(MFFNet(tiny_config(), seed=1), path)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(MFFNet(tiny_config(), seed=2), path)


COMMITTED_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "infer.mffw"


def test_committed_benchmark_checkpoint_loads():
    path = COMMITTED_CHECKPOINT
    arrays = read_checkpoint_arrays(path)
    net = MFFNet(NetworkConfig(), seed=0)
    load_checkpoint(net, path)
    for name, p in net.named_params():
        np.testing.assert_array_equal(p.data, arrays[name])


def test_checkpoint_entry_names_do_not_drift():
    """The default net's parameter then buffer names are the committed
    checkpoint's entries in order: a refactor that renames, adds or moves a
    layer's state would orphan saved weights."""
    net = MFFNet(NetworkConfig(), seed=0)
    names = [n for n, _ in net.named_params()] + [n for n, _ in net.named_buffers()]
    assert len(names) == 130
    assert names == list(read_checkpoint_arrays(COMMITTED_CHECKPOINT))


# --- sliding-window inference --------------------------------------------------------

def test_sliding_window_output_grid_and_range():
    rng = np.random.default_rng(0)
    vol = Volume(voxels=rng.normal(500, 200, size=(48, 52, 60)).astype(np.float32),
                 spacing=(0.5, 0.5, 0.5), origin=(-1.0, 0.0, 2.0))
    net = MFFNet(tiny_config(), seed=0)
    mask = sliding_window_infer(net, vol)
    assert mask.voxels.shape == vol.voxels.shape
    assert mask.same_grid(vol)
    assert set(np.unique(mask.voxels)) <= {0, 1}


class ShapeLog:
    """Passes forwards to the net and records each input shape."""

    def __init__(self, net):
        self.net, self.dtype, self.config = net, net.dtype, net.config
        self.shapes = []

    def forward(self, x, training=False):
        self.shapes.append(x.shape[1:])
        return self.net.forward(x, training=training)


def test_tiled_inference_equals_whole_field(monkeypatch):
    """A field forced into 2 x 2 tiles with the receptive-radius halo gives
    the one-forward probabilities."""
    rng = np.random.default_rng(2)
    vol = Volume(voxels=rng.normal(500, 200, size=(94, 96, 34)).astype(np.float32))
    net = ShapeLog(MFFNet(tiny_config(), seed=1))
    whole = predict_probabilities(net, vol)
    assert net.shapes == [(96, 96, 36)]
    assert tiny_config().receptive_radius == 28  # halo 28: no rounding slack
    monkeypatch.setattr(segment, "TILE_VOXELS", 76 * 76 * 36)
    net.shapes = []
    tiled = predict_probabilities(net, vol)
    assert net.shapes == [(76, 76, 36)] * 4
    assert tiled.shape == whole.shape == vol.voxels.shape
    assert np.ptp(whole) > 0.01
    np.testing.assert_allclose(tiled, whole, rtol=0, atol=1e-6)


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_sliding_window_rejects_threshold_outside_unit_interval(threshold):
    vol = Volume(voxels=np.zeros((8, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="threshold"):
        sliding_window_infer(MFFNet(tiny_config(), seed=0), vol, threshold=threshold)


def test_sliding_window_empty_result_raises(monkeypatch):
    vol = Volume(voxels=np.zeros((8, 8, 8), dtype=np.float32))
    monkeypatch.setattr(segment, "predict_probabilities",
                        lambda net, vol: np.zeros(vol.voxels.shape, dtype=np.float32))
    with pytest.raises(EmptySegmentationError, match="no component"):
        sliding_window_infer(MFFNet(tiny_config(), seed=0), vol)


def test_sliding_window_pads_small_volumes():
    rng = np.random.default_rng(1)
    vol = Volume(voxels=rng.normal(size=(20, 24, 30)).astype(np.float32))
    net = MFFNet(tiny_config(), seed=0)
    mask = sliding_window_infer(net, vol)
    assert mask.voxels.shape == (20, 24, 30)
