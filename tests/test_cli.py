import json
import struct
import warnings

import numpy as np
import pytest

from tbcalib import cli, segment, train
from tbcalib.cli import _per_component_dsc, main
from tbcalib.losses import DEFAULT_LAMBDAS, joint_loss
from tbcalib.nn import MFFNet, save_checkpoint
from tbcalib.phantom import (PoseError, RigidPose, read_pose, rotation_from_euler_deg,
                             write_pose)
from tbcalib.train import train_network
from tbcalib.volume import LabelMask, Volume, read_mvol, write_mvol


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    rc = run("phantom", "--output", out, "--dims", "160,64,48", "--seed", "1")
    assert rc == 0
    return out


def test_phantom_outputs(phantom_dir):
    vol = read_mvol(phantom_dir / "volume.mvol")
    mask = read_mvol(phantom_dir / "mask.mvol")
    pose = read_pose(phantom_dir / "pose.txt")
    assert vol.dims == (160, 64, 48)
    assert mask.same_grid(vol)
    assert mask.foreground_count() > 0
    np.testing.assert_array_equal(pose.rotation, np.eye(3))
    assert (phantom_dir / "spec.txt").exists()


def test_phantom_deterministic(tmp_path, phantom_dir):
    out = tmp_path / "again"
    assert run("phantom", "--output", out, "--dims", "160,64,48", "--seed", "1") == 0
    assert (out / "volume.mvol").read_bytes() == \
        (phantom_dir / "volume.mvol").read_bytes()


def test_phantom_skew_flags(tmp_path):
    out = tmp_path / "skewed"
    rc = run("phantom", "--output", out, "--dims", "176,80,64",
             "--skew-euler", "5,-4,8", "--skew-translation", "1,0,-1")
    assert rc == 0
    pose = read_pose(out / "pose.txt")
    assert not np.allclose(pose.rotation, np.eye(3))
    np.testing.assert_allclose(pose.translation, [1.0, 0.0, -1.0])


def test_phantom_invalid_spec_exit_code(tmp_path):
    rc = run("phantom", "--output", tmp_path / "x", "--tube-radius", "99")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("--dims", "96,64,48", "--skew-euler", "5,-4,8"),  # canals leave the grid
    ("--separation", "nan"),
    ("--seed", "-3", "--noise", "100"),
    ("--seed", str(2 ** 64)),
    ("--canal-intensity", "inf"),
    ("--noise", "-5"),
    ("--noise", "nan"),
    ("--dims", "160,64,48", "--arc-span", "120", "--skew-translation", "0,14,0"),  # a gap ball
])
def test_phantom_bad_spec_exits_2(tmp_path, capsys, argv):
    assert run("phantom", "--output", tmp_path / "x", *argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_spec_txt_rebuilds_the_phantom_byte_for_byte(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("phantom", "--output", first, "--dims", "176,80,64", "--tube-radius", "0.7",
               "--noise", "150", "--seed", "9", "--skew-euler", "5,-4,8",
               "--skew-translation", "1,0,-1.5") == 0
    assert run("phantom", "--config", first / "spec.txt", "--output", again) == 0
    for name in ("volume.mvol", "mask.mvol", "pose.txt", "spec.txt"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    assert len(np.unique(read_mvol(again / "volume.mvol").voxels)) > 3
    assert not np.allclose(read_pose(again / "pose.txt").rotation, np.eye(3))


def test_default_spec_txt_text(tmp_path):
    assert run("phantom", "--output", tmp_path) == 0
    assert (tmp_path / "spec.txt").read_text() == (
        "seed=0\nmajor_radius=3.0\ntube_radius=0.6\narc_span_deg=240.0\n"
        "half_separation=30.0\ncanal_intensity=600.0\nbackground_intensity=0.0\n"
        "shell_intensity=1800.0\nnoise_amplitude=0.0\ndims=160,96,96\nspacing=0.5,0.5,0.5\n")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dims=160,64,48\nnoise_amplitude=50\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("phantom", "--output", out_a, "--config", cfg) == 0
    # flag wins over the config file
    assert run("phantom", "--output", out_b, "--config", cfg, "--noise", "0") == 0
    va = read_mvol(out_a / "volume.mvol")
    vb = read_mvol(out_b / "volume.mvol")
    assert va.dims == vb.dims == (160, 64, 48)
    assert len(np.unique(va.voxels)) > 3      # noisy
    assert len(np.unique(vb.voxels)) == 3     # noiseless


def test_segment_threshold(phantom_dir, tmp_path):
    out = tmp_path / "seg.mvol"
    rc = run("segment-threshold", "--input", phantom_dir / "volume.mvol",
             "--output", out, "--band", "300,900")
    assert rc == 0
    seg = read_mvol(out)
    truth = read_mvol(phantom_dir / "mask.mvol")
    assert np.array_equal(seg.voxels, truth.voxels)


def test_segment_threshold_empty_band_exit_code(phantom_dir, tmp_path):
    rc = run("segment-threshold", "--input", phantom_dir / "volume.mvol",
             "--output", tmp_path / "seg.mvol", "--band", "10000,20000")
    assert rc == 1


def test_calibrate_and_evaluate(phantom_dir, tmp_path):
    out = tmp_path / "cal"
    rc = run("calibrate", "--input", phantom_dir / "volume.mvol",
             "--mask", phantom_dir / "mask.mvol", "--output", out)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rank"] == "Excellent"
    assert (out / "calibrated_volume.mvol").exists()
    cal_mask = read_mvol(out / "calibrated_mask.mvol")
    assert cal_mask.foreground_count() > 0

    metrics_path = tmp_path / "metrics.json"
    rc = run("evaluate", "--pred", out / "calibrated_mask.mvol",
             "--pose-true", phantom_dir / "pose.txt",
             "--pose-est", out / "est_pose.txt",
             "--output", metrics_path)
    assert rc == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["rank"] == "Excellent"
    assert metrics["rotation_error_deg"] < 1.0
    assert metrics["translation_error_mm"] < 1.0


def test_evaluate_reports_the_rotation_error_about_each_calibrated_axis(phantom_dir, tmp_path):
    """An estimate that undoes a skewed true pose and then rolls 2° about
    calibrated x reads a residual of [2, 0, 0] degrees."""
    true_pose = RigidPose(rotation_from_euler_deg(5, -4, 8), np.array([1.0, 0.0, -1.0]))
    roll = RigidPose(rotation_from_euler_deg(2, 0, 0), np.zeros(3))
    write_pose(true_pose, tmp_path / "true.txt")
    write_pose(roll.compose(true_pose.inverse()), tmp_path / "est.txt")
    metrics_path = tmp_path / "m.json"
    assert run("evaluate", "--pred", phantom_dir / "mask.mvol",
               "--pose-true", tmp_path / "true.txt", "--pose-est", tmp_path / "est.txt",
               "--output", metrics_path) == 0
    metrics = json.loads(metrics_path.read_text())
    np.testing.assert_allclose(metrics["rotation_error_xyz_deg"], [2, 0, 0], atol=1e-6)
    assert metrics["rotation_error_deg"] == pytest.approx(2.0, abs=1e-6)
    assert metrics["translation_error_mm"] < 1e-6


def test_calibrate_failure_exit_code(phantom_dir, tmp_path):
    truth = read_mvol(phantom_dir / "mask.mvol")
    half = truth.voxels.copy()
    half[:, :, : half.shape[2] // 2] = 0  # remove the left canal
    single = LabelMask(voxels=half, spacing=truth.spacing, origin=truth.origin)
    mask_path = tmp_path / "single.mvol"
    write_mvol(single, mask_path)
    out = tmp_path / "cal"
    rc = run("calibrate", "--input", phantom_dir / "volume.mvol",
             "--mask", mask_path, "--output", out)
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["rank"] == "Failed"
    assert report["error"]


IDENTITY_POSE = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0.5", "-1", "2"]


@pytest.mark.parametrize("values,message", [
    (IDENTITY_POSE[:2], "must hold 12 values, got 2"),
    (IDENTITY_POSE[:4] + ["one"] + IDENTITY_POSE[5:], "could not convert"),
    (IDENTITY_POSE[:9] + ["nan"] + IDENTITY_POSE[10:], "must be finite"),
    (["1.1"] + IDENTITY_POSE[1:], "not orthonormal"),
    (["-1"] + IDENTITY_POSE[1:], "determinant"),
])
def test_evaluate_malformed_pose_exits_2(phantom_dir, tmp_path, capsys, values, message):
    """Each malformed pose file, as --pose-true or --pose-est, ends in a
    PoseError that the CLI reports as `error:` with exit 2."""
    bad = tmp_path / "pose.txt"
    bad.write_text("\n".join(values) + "\n")
    with pytest.raises(PoseError, match=message):
        read_pose(bad)
    for flags in (("--pose-true", bad, "--pose-est", phantom_dir / "pose.txt"),
                  ("--pose-true", phantom_dir / "pose.txt", "--pose-est", bad)):
        assert run("evaluate", "--pred", phantom_dir / "mask.mvol", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err


def test_evaluate_against_truth(phantom_dir, tmp_path):
    metrics_path = tmp_path / "m.json"
    rc = run("evaluate", "--pred", phantom_dir / "mask.mvol",
             "--truth", phantom_dir / "mask.mvol", "--output", metrics_path)
    assert rc == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["dsc"] == 1.0
    assert len(metrics["per_component_dsc"]) == 2


def test_per_component_dsc_scores_left_then_right(phantom_dir):
    truth = read_mvol(phantom_dir / "mask.mvol")
    nx = truth.dims[0]
    left = truth.voxels * (np.arange(nx) < nx // 2)[None, None, :]
    n_left, n_all = int(left.sum()), truth.foreground_count()
    pred = LabelMask(voxels=left, spacing=truth.spacing, origin=truth.origin)
    assert _per_component_dsc(pred, truth) == [1.0, 0.0]
    assert _per_component_dsc(truth, truth) == [2.0 * n_left / (n_left + n_all),
                                                2.0 * (n_all - n_left) / (n_all - n_left + n_all)]
    assert _per_component_dsc(truth, pred) == []


def test_train_and_infer(tmp_path):
    out = tmp_path / "ph"
    assert run("phantom", "--output", out, "--dims", "80,56,48",
               "--separation", "12", "--seed", "2") == 0
    ckpt = tmp_path / "net.mffw"
    rc = run("train", "--input", out / "volume.mvol", "--mask", out / "mask.mvol",
             "--output", ckpt, "--iterations", "1", "--batch-size", "1",
             "--loss-log", tmp_path / "loss.csv")
    assert rc == 0
    assert ckpt.exists()
    assert (tmp_path / "loss.csv").read_text().startswith("iteration,")
    pred = tmp_path / "pred.mvol"
    rc = run("infer", "--checkpoint", ckpt, "--input", out / "volume.mvol",
             "--output", pred)
    assert rc == 0
    mask = read_mvol(pred)
    assert mask.voxels.shape == read_mvol(out / "volume.mvol").voxels.shape


def test_infer_missing_checkpoint(tmp_path):
    rc = run("infer", "--checkpoint", tmp_path / "nope.mffw",
             "--input", tmp_path / "nope.mvol", "--output", tmp_path / "o.mvol")
    assert rc == 2


@pytest.fixture(scope="module")
def small_phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert run("phantom", "--output", out, "--dims", "80,56,48",
               "--separation", "12", "--seed", "2") == 0
    return out


def train_argv(ph, out, *extra):
    return ("train", "--input", ph / "volume.mvol", "--mask", ph / "mask.mvol",
            "--output", out, "--iterations", "1", "--batch-size", "1") + extra


def test_train_rejects_zero_batch_size(small_phantom_dir, tmp_path):
    assert run(*train_argv(small_phantom_dir, tmp_path / "net.mffw", "--batch-size", "0")) == 2
    assert not (tmp_path / "net.mffw").exists()


@pytest.mark.parametrize("source, lambdas", [("default", DEFAULT_LAMBDAS), ("flag", (0.4, 0.2)),
                                             ("config", (0.3, 0.1))],
                         ids=["default", "flag", "config"])
def test_train_lambdas_reach_the_joint_loss(small_phantom_dir, tmp_path, monkeypatch,
                                            source, lambdas):
    """The weights that train_network hands to joint_loss are the flag's,
    the config file's, or the defaults."""
    seen = []

    def spy(*args, lambdas):
        seen.append(tuple(lambdas))
        return joint_loss(*args, lambdas=lambdas)

    monkeypatch.setattr(train, "joint_loss", spy)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lambdas=0.3,0.1\n")
    extra = {"default": (), "flag": ("--lambdas", "0.4,0.2"), "config": ("--config", cfg)}[source]
    assert run(*train_argv(small_phantom_dir, tmp_path / "net.mffw", *extra)) == 0
    assert seen == [lambdas]  # one iteration of one sample


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_lambdas_outside_unit_interval(small_phantom_dir, tmp_path, source):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lambdas=2,0\n")
    extra = ("--lambdas", "2,0") if source == "flag" else ("--config", cfg)
    assert run(*train_argv(small_phantom_dir, tmp_path / "net.mffw", *extra)) == 2
    assert not (tmp_path / "net.mffw").exists()


@pytest.mark.parametrize("argv", [
    ("segment-threshold", "--input", "v.mvol", "--output", "m.mvol", "--band", "300,900"),
    ("infer", "--checkpoint", "n.mffw", "--input", "v.mvol", "--output", "m.mvol"),
    ("calibrate", "--input", "v.mvol", "--mask", "m.mvol", "--output", "out"),
    ("evaluate", "--pred", "m.mvol"),
])
@pytest.mark.parametrize("flag", [("--seed", "1"), ("--config", "cfg.txt")])
def test_subcommands_without_options_reject_seed_and_config(argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(*argv, *flag)
    assert exc.value.code == 2


def test_train_config_supplies_every_option(small_phantom_dir, tmp_path, monkeypatch):
    log = tmp_path / "cfg_loss.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"iterations=2\nbatch-size=1\nseed=3\nlr=0.002\nloss_log={log}\n")
    seen = []

    def spy(vol, mask, **kwargs):
        seen.append(kwargs)
        if kwargs["iterations"] != 2:  # the 500-iteration default would run for minutes
            raise RuntimeError(f"iterations {kwargs['iterations']} not taken from the config")
        return train_network(vol, mask, **kwargs)

    monkeypatch.setattr(cli, "train_network", spy)
    ph = small_phantom_dir
    assert run("train", "--input", ph / "volume.mvol", "--mask", ph / "mask.mvol",
               "--output", tmp_path / "net.mffw", "--config", cfg) == 0
    assert {k: seen[0][k] for k in ("iterations", "batch_size", "seed", "lr", "log_path")} == \
        {"iterations": 2, "batch_size": 1, "seed": 3, "lr": 0.002, "log_path": str(log)}
    rows = log.read_text().splitlines()
    assert rows[0].startswith("iteration,") and len(rows) == 3


def test_train_flag_beats_config(small_phantom_dir, tmp_path):
    log = tmp_path / "cfg_loss.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"iterations=3\nloss_log={log}\n")
    # train_argv passes --iterations 1, which must win over the file's 3
    assert run(*train_argv(small_phantom_dir, tmp_path / "net.mffw", "--config", cfg)) == 0
    assert len(log.read_text().splitlines()) == 2


def exit_code_and_stderr(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["phantom", "train"])
def test_unknown_config_key_exits_2(small_phantom_dir, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=1\nnoise-level=5\n")
    argv = (("phantom", "--output", tmp_path / "ph") if command == "phantom"
            else train_argv(small_phantom_dir, tmp_path / "net.mffw"))
    code, err = exit_code_and_stderr(capsys, *argv, "--config", cfg)
    assert code == 2
    assert "unknown config key 'noise_level'" in err
    assert not (tmp_path / "ph").exists() and not (tmp_path / "net.mffw").exists()


@pytest.mark.parametrize("command, text, key", [
    ("phantom", "seed=1\nseed=7\n", "seed"),
    ("train", "batch-size=1\nbatch_size=4\n", "batch_size")],
    ids=["phantom-config-repeated-key", "train-config-repeated-key-spellings"])
def test_repeated_config_key_exits_2(small_phantom_dir, tmp_path, capsys, command, text, key):
    """A key given twice, in one spelling or in the flag's and the
    attribute's, is an error that names it, not a first value read and then
    ignored; the stage writes nothing."""
    cfg, out, log = tmp_path / "cfg.txt", tmp_path / "out", tmp_path / "loss.csv"
    cfg.write_text(text)
    ph = small_phantom_dir
    argv = {"phantom": ("phantom", "--output", out, "--dims", "80,56,48", "--separation", "12"),
            "train": ("train", "--input", ph / "volume.mvol", "--mask", ph / "mask.mvol",
                      "--output", out, "--iterations", "1", "--loss-log", log)}[command]
    code, err = exit_code_and_stderr(capsys, *argv, "--config", cfg)
    assert code == 2
    assert f"{cfg}: key {key!r} given twice" in err
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command, key", [("phantom", "output"), ("train", "output"),
                                          ("train", "input"), ("train", "mask")])
def test_required_flag_as_config_key_exits_2(small_phantom_dir, tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key}={tmp_path / 'elsewhere'}\n")
    argv = (("phantom", "--output", tmp_path / "ph") if command == "phantom"
            else train_argv(small_phantom_dir, tmp_path / "net.mffw"))
    code, err = exit_code_and_stderr(capsys, *argv, "--config", cfg)
    assert code == 2
    assert f"unknown config key {key!r}" in err
    assert not any((tmp_path / name).exists() for name in ("ph", "net.mffw", "elsewhere"))


@pytest.mark.parametrize("content", [None, b"dims=\xff\n"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.txt"
    if content is not None:
        cfg.write_bytes(content)
    code, err = exit_code_and_stderr(capsys, "phantom", "--output", tmp_path / "ph",
                                     "--config", cfg)
    assert code == 2
    assert f"cannot read config {cfg}" in err


@pytest.mark.parametrize("command, text, flag", [
    ("phantom", "dims=1,2\n", "--dims"),
    ("phantom", "dims=inf,96,96\n", "--dims"),
    ("phantom", "dims=160.7,96.9,96\n", "--dims"),
    ("train", "lr=fast\n", "--lr"),
])
def test_malformed_config_value_exits_2(small_phantom_dir, tmp_path, capsys, command, text, flag):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    argv = (("phantom", "--output", tmp_path / "ph") if command == "phantom"
            else train_argv(small_phantom_dir, tmp_path / "net.mffw"))
    code, err = exit_code_and_stderr(capsys, *argv, "--config", cfg)
    assert code == 2
    assert f"argument {flag}" in err


def test_non_integral_dims_flag_exits_2(tmp_path, capsys):
    code, err = exit_code_and_stderr(capsys, "phantom", "--output", tmp_path / "ph",
                                     "--dims", "160.7,96.9,96")
    assert code == 2
    assert "argument --dims: dims must be whole numbers" in err
    assert not (tmp_path / "ph").exists()


def test_config_accepts_flag_spelling_of_keys(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dims=176,80,64\nskew-euler=5,-4,8\nskew-translation=1,0,-1\n")
    assert run("phantom", "--output", tmp_path / "a", "--config", cfg) == 0
    assert run("phantom", "--output", tmp_path / "b", "--dims", "176,80,64",
               "--skew-euler", "5,-4,8", "--skew-translation", "1,0,-1") == 0
    assert (tmp_path / "a" / "pose.txt").read_text() == (tmp_path / "b" / "pose.txt").read_text()
    assert not np.allclose(read_pose(tmp_path / "a" / "pose.txt").rotation, np.eye(3))


@pytest.fixture(scope="module")
def nan_origin_mvol(tmp_path_factory):
    """A well-formed volume file whose header origin x is NaN."""
    path = tmp_path_factory.mktemp("bad") / "nan_origin.mvol"
    write_mvol(LabelMask(voxels=np.zeros((4, 4, 4), dtype=np.uint8)), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 32, np.nan)  # origin x, bytes 32-35
    path.write_bytes(bytes(raw))
    return path


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "net.mffw"
    save_checkpoint(MFFNet(), path)
    return path


@pytest.fixture(scope="module")
def long_payload_mvol(small_phantom_dir, tmp_path_factory):
    """small_phantom_dir's volume with 16 bytes after its payload."""
    path = tmp_path_factory.mktemp("long") / "volume.mvol"
    path.write_bytes((small_phantom_dir / "volume.mvol").read_bytes() + bytes(16))
    return path


@pytest.mark.parametrize("stage", ["segment-threshold", "train", "infer", "calibrate", "evaluate"])
def test_nan_origin_volume_exits_2(stage, nan_origin_mvol, checkpoint_path, tmp_path, capsys):
    bad, out = nan_origin_mvol, tmp_path / "out"
    argv = {
        "segment-threshold": ("--input", bad, "--output", out, "--band", "300,900"),
        "train": ("--input", bad, "--mask", bad, "--output", out, "--iterations", "1"),
        "infer": ("--checkpoint", checkpoint_path, "--input", bad, "--output", out),
        "calibrate": ("--input", bad, "--mask", bad, "--output", out),
        "evaluate": ("--pred", bad, "--truth", bad),
    }[stage]
    assert run(stage, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "origin must be finite" in err
    assert not out.exists()


def test_infer_truncated_checkpoint_exits_2(small_phantom_dir, checkpoint_path, tmp_path, capsys):
    ckpt = tmp_path / "cut.mffw"
    ckpt.write_bytes(checkpoint_path.read_bytes()[:-3])
    out = tmp_path / "pred.mvol"
    assert run("infer", "--checkpoint", ckpt, "--input", small_phantom_dir / "volume.mvol",
               "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "payload truncated" in err
    assert not out.exists()


def write_rods(directory, voxels):
    """voxels as mask.mvol, and as the float32 intensities of volume.mvol on
    the same grid, in directory."""
    write_mvol(LabelMask(voxels=voxels), directory / "mask.mvol")
    write_mvol(Volume(voxels=voxels.astype(np.float32)), directory / "volume.mvol")
    return directory


@pytest.fixture(scope="module")
def collinear_rods_dir(tmp_path_factory):
    """Two 26-voxel rods on one line along x: two anchors, but no canal plane."""
    voxels = np.zeros((8, 8, 64), dtype=np.uint8)
    voxels[4, 4, 2:28] = voxels[4, 4, 36:62] = 1
    return write_rods(tmp_path_factory.mktemp("rods"), voxels)


@pytest.fixture(scope="module")
def one_rod_dir(tmp_path_factory):
    """One 26-voxel rod: a single component, so too few anchors."""
    voxels = np.zeros((8, 8, 64), dtype=np.uint8)
    voxels[4, 4, 2:28] = 1
    return write_rods(tmp_path_factory.mktemp("rod"), voxels)


@pytest.fixture(scope="module")
def coarse_phantom_dir(tmp_path_factory):
    """small_phantom_dir's phantom rendered on a 0.6 mm grid of the same dims."""
    out = tmp_path_factory.mktemp("coarse")
    assert run("phantom", "--output", out, "--dims", "80,56,48", "--separation", "12",
               "--seed", "2", "--spacing", "0.6,0.6,0.6") == 0
    return out


# {vol}, {mask}, {ckpt}, {rods} and {rod} are valid inputs, {rods_vol} and
# {rod_vol} the rods' voxels as volumes, {vol06} and {mask06} the same
# phantom on a 0.6 mm grid, and {vol_long} its volume with bytes past the
# payload; {missing} names no file; {dir} is a directory;
# {out} is the output and {log} a loss log, which only a stage that ran may
# write.  The two allocations beyond any memory ask for more than 2^57 bytes
# and less than 2^63, so numpy raises MemoryError, not ValueError, whatever
# the host's overcommit policy, and touches no page.
STAGE_FAILURES = [
    pytest.param(2, ("segment-threshold", "--input", "{missing}", "--output", "{out}",
                  "--band", "300,900"), id="segment-threshold-missing-input"),
    pytest.param(2, ("train", "--input", "{missing}", "--mask", "{mask}", "--output", "{out}",
                  "--iterations", "1"), id="train-missing-input"),
    pytest.param(2, ("infer", "--checkpoint", "{ckpt}", "--input", "{missing}",
                  "--output", "{out}"), id="infer-missing-input"),
    pytest.param(2, ("calibrate", "--input", "{missing}", "--mask", "{mask}", "--output", "{out}"),
                 id="calibrate-missing-input"),
    pytest.param(2, ("evaluate", "--pred", "{missing}", "--output", "{out}"),
                 id="evaluate-missing-pred"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--l0", "0"), id="calibrate-zero-l0"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--max-iter", "0"), id="calibrate-zero-max-iter"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--spacing", "0"), id="calibrate-zero-spacing"),
    pytest.param(2, ("segment-threshold", "--input", "{vol}", "--output", "{out}",
                  "--band", "900,300"), id="segment-threshold-reversed-band"),
    pytest.param(2, ("infer", "--checkpoint", "{dir}", "--input", "{vol}", "--output", "{out}"),
                 id="infer-checkpoint-directory"),
    pytest.param(1, ("calibrate", "--input", "{rods_vol}", "--mask", "{rods}",
                  "--output", "{out}"), id="calibrate-collinear-rods"),
    pytest.param(2, ("calibrate", "--input", "{vol06}", "--mask", "{mask}", "--output", "{out}"),
                 id="calibrate-mask-off-grid"),
    pytest.param(2, ("evaluate", "--pred", "{mask}", "--truth", "{mask06}", "--output", "{out}"),
                 id="evaluate-truth-off-grid"),
    pytest.param(2, ("infer", "--checkpoint", "{ckpt}", "--input", "{vol}", "--output", "{out}",
                  "--threshold", "2"), id="infer-threshold-2"),
    pytest.param(2, ("train", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--iterations", "0", "--loss-log", "{log}"), id="train-zero-iterations"),
    pytest.param(2, ("train", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--iterations", "1", "--lr", "nan", "--loss-log", "{log}"), id="train-nan-lr"),
    pytest.param(2, ("train", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--iterations", "1", "--lr=-0.001", "--loss-log", "{log}"),
                 id="train-negative-lr"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--l0", "nan"), id="calibrate-nan-l0"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--spacing", "nan"), id="calibrate-nan-spacing"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--spacing", "inf"), id="calibrate-inf-spacing"),
    pytest.param(2, ("calibrate", "--input", "{rods_vol}", "--mask", "{rods}", "--output", "{out}",
                  "--spacing", "nan"), id="calibrate-rods-nan-spacing"),
    pytest.param(2, ("calibrate", "--input", "{rod_vol}", "--mask", "{rod}", "--output", "{out}",
                  "--l0", "nan"), id="calibrate-one-rod-nan-l0"),
    pytest.param(2, ("calibrate", "--input", "{rod_vol}", "--mask", "{rod}", "--output", "{out}",
                  "--max-iter", "0"), id="calibrate-one-rod-zero-max-iter"),
    pytest.param(2, ("segment-threshold", "--input", "{vol_long}", "--output", "{out}",
                  "--band", "300,900"), id="segment-threshold-bytes-past-the-payload"),
    pytest.param(2, ("phantom", "--output", "{out}", "--dims", "1000000,1000000,1000000"),
                 id="phantom-dims-beyond-any-memory"),
    pytest.param(2, ("calibrate", "--input", "{vol}", "--mask", "{mask}", "--output", "{out}",
                  "--spacing", "5e-5"), id="calibrate-spacing-beyond-any-memory"),
]


@pytest.mark.parametrize("code, argv", STAGE_FAILURES)
def test_stage_failure_is_one_error_line(small_phantom_dir, coarse_phantom_dir, checkpoint_path,
                                         collinear_rods_dir, one_rod_dir, long_payload_mvol,
                                         tmp_path, capsys, code, argv):
    """Bad input exits 2 and writes nothing; a stage that ran without a
    result exits 1.  Either way stderr is one `error:` line."""
    out, log = tmp_path / "out", tmp_path / "loss.csv"
    paths = {"vol": small_phantom_dir / "volume.mvol", "mask": small_phantom_dir / "mask.mvol",
             "vol06": coarse_phantom_dir / "volume.mvol",
             "mask06": coarse_phantom_dir / "mask.mvol",
             "ckpt": checkpoint_path,
             "rods": collinear_rods_dir / "mask.mvol", "rod": one_rod_dir / "mask.mvol",
             "rods_vol": collinear_rods_dir / "volume.mvol",
             "rod_vol": one_rod_dir / "volume.mvol", "vol_long": long_payload_mvol,
             "missing": tmp_path / "missing.mvol", "dir": tmp_path, "out": out, "log": log}
    assert run(*(a.format(**paths) for a in argv)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if code == 2:
        assert not out.exists() and not log.exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["rank"] == "Failed" and "collinear" in report["error"]


# Each `.mvol` that a stage reads, given a file of the other kind: the
# phantom's mask where a Volume is read, its volume where a LabelMask is.
WRONG_KIND_READS = [
    pytest.param(("segment-threshold", "--input", "{mask}", "--output", "{out}",
                  "--band", "300,900"), "Volume", id="segment-threshold-input"),
    pytest.param(("train", "--input", "{mask}", "--mask", "{mask}", "--output", "{out}",
                  "--iterations", "1", "--loss-log", "{log}"), "Volume", id="train-input"),
    pytest.param(("train", "--input", "{vol}", "--mask", "{vol}", "--output", "{out}",
                  "--iterations", "1", "--loss-log", "{log}"), "LabelMask", id="train-mask"),
    pytest.param(("infer", "--checkpoint", "{ckpt}", "--input", "{mask}", "--output", "{out}"),
                 "Volume", id="infer-input"),
    pytest.param(("calibrate", "--input", "{mask}", "--mask", "{mask}", "--output", "{out}"),
                 "Volume", id="calibrate-input"),
    pytest.param(("calibrate", "--input", "{vol}", "--mask", "{vol}", "--output", "{out}"),
                 "LabelMask", id="calibrate-mask"),
    pytest.param(("evaluate", "--pred", "{vol}", "--output", "{out}"), "LabelMask",
                 id="evaluate-pred"),
    pytest.param(("evaluate", "--pred", "{mask}", "--truth", "{vol}", "--output", "{out}"),
                 "LabelMask", id="evaluate-truth"),
]


@pytest.mark.parametrize("argv, expected", WRONG_KIND_READS)
def test_mvol_of_the_wrong_kind_exits_2(small_phantom_dir, checkpoint_path, tmp_path, capsys,
                                        argv, expected):
    """The error line names the file, the kind the stage expected and the
    kind the file holds, and the stage writes nothing."""
    vol, mask = small_phantom_dir / "volume.mvol", small_phantom_dir / "mask.mvol"
    out, log = tmp_path / "out", tmp_path / "loss.csv"
    paths = {"vol": vol, "mask": mask, "ckpt": checkpoint_path, "out": out, "log": log}
    assert run(*(a.format(**paths) for a in argv)) == 2
    wrong, found = (mask, "LabelMask") if expected == "Volume" else (vol, "Volume")
    assert capsys.readouterr().err == f"error: {wrong} holds a {found}, expected a {expected}\n"
    assert not out.exists() and not log.exists()


def strict_json(path):
    """The JSON document at path, refusing the NaN and Infinity that only
    Python's parser accepts."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_failed_calibration_writes_strict_json(one_rod_dir, tmp_path):
    """A Failed calibration has no iteration error, plane RMS or rank
    inputs: report.json holds null for them, which a strict parser reads."""
    out = tmp_path / "out"
    assert run("calibrate", "--input", one_rod_dir / "volume.mvol",
               "--mask", one_rod_dir / "mask.mvol", "--output", out) == 1
    report = strict_json(out / "report.json")
    assert report["rank"] == "Failed" and "anchors" in report["error"]
    assert [report[k] for k in ("l1_mm", "rms_mm", "slice_gap", "mirror_dsc")] == [None] * 4


def test_evaluate_writes_strict_json(one_rod_dir, tmp_path):
    """evaluate's metrics of a one-component mask, whose rank has no slice
    gap or mirror Dice, hold null for them."""
    out = tmp_path / "metrics.json"
    assert run("evaluate", "--pred", one_rod_dir / "mask.mvol", "--output", out) == 0
    metrics = strict_json(out)
    assert metrics["rank"] == "Failed"
    assert metrics["slice_gap"] is None and metrics["mirror_dsc"] is None


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_calibrate_non_finite_spacing_is_refused_before_resampling(small_phantom_dir, tmp_path,
                                                                   capsys, value):
    """The output spacing is checked before any sampling arithmetic, so
    numpy warns about nothing: under warnings-as-errors the run still
    exits 2 with the spacing's own message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("calibrate", "--input", small_phantom_dir / "volume.mvol",
                   "--mask", small_phantom_dir / "mask.mvol", "--output", tmp_path / "out",
                   "--spacing", value) == 2
    assert capsys.readouterr().err == f"error: spacing must be positive and finite, got {value}\n"


def test_infer_empty_segmentation_exits_1(small_phantom_dir, checkpoint_path, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.setattr(segment, "predict_probabilities",
                        lambda net, vol: np.zeros(vol.voxels.shape, dtype=np.float32))
    out = tmp_path / "pred.mvol"
    assert run("infer", "--checkpoint", checkpoint_path,
               "--input", small_phantom_dir / "volume.mvol", "--output", out) == 1
    err = capsys.readouterr().err
    assert err == "error: no component survived filtering\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pose-true", "--pose-est"])
def test_evaluate_one_pose_flag_alone_exits_2(phantom_dir, tmp_path, capsys, flag):
    out = tmp_path / "metrics.json"
    assert run("evaluate", "--pred", phantom_dir / "mask.mvol", flag, phantom_dir / "pose.txt",
               "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--pose-true and --pose-est" in err
    assert not out.exists()
