"""Property tests: a truncated or byte-flipped `.mffw` or `.mvol` file makes
its decoder raise only its own typed error (`CheckpointError`, `MvolError`),
and a damaged `spec.txt` read back through `phantom --config` ends in exit
status 0 or 2, never in a traceback.

Each example writes a file of its own: on ext4, truncating and rewriting an
existing file costs tens of milliseconds, creating a new one well under one."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tbcalib import cli  # noqa: E402
from tbcalib.nn import MFFNet, NetworkConfig  # noqa: E402
from tbcalib.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint  # noqa: E402
from tbcalib.phantom import RigidPose  # noqa: E402
from tbcalib.volume import LabelMask, MvolError, Volume, read_mvol, write_mvol  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def damaged(data: bytes, hot: int):
    """Truncations anywhere, and 1-4 byte flips, half of them in the first
    `hot` bytes (header and manifest), where a flip changes the structure."""
    index = st.one_of(st.integers(0, hot - 1), st.integers(0, len(data) - 1))
    flips = st.lists(st.tuples(index, st.integers(1, 255)), min_size=1, max_size=4)

    def flip(pairs):
        out = bytearray(data)
        for i, x in pairs:
            out[i] ^= x
        return bytes(out)

    return st.one_of(st.integers(0, len(data) - 1).map(lambda n: data[:n]), flips.map(flip))


def fresh_paths(directory, suffix):
    """A new file name in `directory` for every example."""
    return (directory / f"{i}{suffix}" for i in itertools.count())


def tiny_net():
    return MFFNet(NetworkConfig(stem_channels=1, growth=1, dense_layers=1, enc1_channels=1,
                                enc2_channels=1, dcm_channels=1), seed=0)


def saved_bytes(tmp_path_factory, name, save):
    path = tmp_path_factory.mktemp("fuzz") / name
    save(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    return saved_bytes(tmp_path_factory, "net.mffw", lambda p: save_checkpoint(tiny_net(), p))


@pytest.fixture(scope="module", params=["volume", "mask"])
def mvol_bytes(tmp_path_factory, request):
    rng = np.random.default_rng(0)
    obj = (Volume(voxels=rng.normal(size=(3, 4, 5)), spacing=(0.5, 0.6, 0.7))
           if request.param == "volume"
           else LabelMask(voxels=rng.random((3, 4, 5)) < 0.5, spacing=(0.5, 0.6, 0.7)))
    return saved_bytes(tmp_path_factory, "x.mvol", lambda p: write_mvol(obj, p))


def test_damaged_checkpoint_raises_only_checkpoint_error(checkpoint_bytes, tmp_path):
    net = tiny_net()
    payload = 4 * (sum(p.data.size for _, p in net.named_params())
                   + sum(b.size for _, b in net.named_buffers()))
    paths = fresh_paths(tmp_path, ".mffw")

    @FUZZ
    @given(damaged(checkpoint_bytes, hot=len(checkpoint_bytes) - payload))
    def check(data):
        path = next(paths)
        path.write_bytes(data)
        try:
            load_checkpoint(net, path)
        except CheckpointError:
            pass

    check()


def test_damaged_mvol_raises_only_mvol_error(mvol_bytes, tmp_path):
    paths = fresh_paths(tmp_path, ".mvol")

    @FUZZ
    @given(damaged(mvol_bytes, hot=48))
    def check(data):
        path = next(paths)
        path.write_bytes(data)
        try:
            read_mvol(path)
        except MvolError:
            pass

    check()


def test_damaged_spec_config_exits_0_or_2(tmp_path, monkeypatch):
    tiny = (Volume(voxels=np.zeros((1, 1, 1))), LabelMask(voxels=np.zeros((1, 1, 1))),
            RigidPose.identity())
    monkeypatch.setattr(cli, "generate_phantom", lambda spec: tiny)  # decode only, no render
    assert cli.main(["phantom", "--output", str(tmp_path / "spec"), "--noise", "50",
                     "--seed", "7", "--skew-euler", "5,-3,2",
                     "--skew-translation", "0.5,1,-1.5"]) == 0
    data = (tmp_path / "spec" / "spec.txt").read_bytes()
    names = itertools.count()

    @FUZZ
    @given(damaged(data, hot=len(data)))
    def check(damaged_data):
        i = next(names)
        path = tmp_path / f"{i}.txt"
        path.write_bytes(damaged_data)
        try:
            assert cli.main(["phantom", "--config", str(path),
                             "--output", str(tmp_path / f"out{i}")]) in (0, 2)
        except SystemExit as exc:
            assert exc.code == 2

    check()
