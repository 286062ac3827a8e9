"""Command-line surface: phantom generation, baseline and network
segmentation, training, calibration, and evaluation.

For `phantom` and `train`, option precedence is defaults < config file
(key=value lines) < flags: `main` hands the config to the subcommand's parser
as defaults, so argparse casts and overrides both sources alike (`config` and
the required options are flags only).  `phantom` writes the options it ran
with to `spec.txt` in that same format, so `phantom --config <dir>/spec.txt`
renders the phantom again byte for byte.

Every stage exits 0 when done, 1 when it ran but produced no result (an
empty threshold or network segmentation, a diverged training, a `Failed`
calibration, which includes a mask whose canals are degenerate), and 2 on a
bad flag, file or file content (an `infer --threshold` outside (0, 1), a
`train --iterations` below 1, a non-finite or non-positive `train --lr` or
`calibrate --spacing`, a NaN or non-positive `calibrate --l0`, a mask off
its volume's grid, a mask `.mvol` where a volume is read or the reverse,
an `.mvol` with bytes past the values its dims give, an `.mffw` whose
entries repeat a name, overlap or leave bytes after the last one, a config
key given twice, `-` and `_` spellings of one key included, and an array
too large for any machine to allocate included).  `calibrate`
refuses a bad option before any calibration work, whatever the mask, so a
mask that calibration would reject cannot turn a bad flag into exit 1.  A
nonzero exit prints one `error: <message>` line on stderr and `infer` then
writes no mask; `main` alone maps exceptions to these codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np
from scipy.spatial.transform import Rotation

from . import calibration as cal
from .losses import DEFAULT_LAMBDAS, dsc_metric
from .nn import CheckpointError, MFFNet, load_checkpoint, save_checkpoint
from .phantom import (PhantomSpec, RigidPose, generate_phantom, read_pose,
                      rotation_angle_deg, rotation_from_euler_deg, write_pose)
from .segment import (EmptySegmentationError, largest_components, sliding_window_infer,
                      threshold_segment)
from .train import TrainingDivergedError, train_network
from .volume import LabelMask, MvolError, Volume, jsonable, parse_key_values, read_mvol, write_mvol


# Parsed-argument keys that a --config file may not set: the parser's own
# entries, `config` itself, and the required flags, which argparse demands
# on the command line, so a config value for them would never be used.
FLAG_ONLY = ("command", "func", "config", "output", "input", "mask")


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _triple(text):
    parts = _floats(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    return parts


def _pair(text):
    parts = _floats(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return parts


def _dims(text):
    parts = _triple(text)
    if not all(v.is_integer() for v in parts):  # inf and nan included
        raise argparse.ArgumentTypeError(f"dims must be whole numbers, got {text!r}")
    return tuple(int(v) for v in parts)


def _read(path, kind):
    """The Volume or LabelMask at path, refused unless it is of that kind."""
    obj = read_mvol(path)
    if not isinstance(obj, kind):
        raise ValueError(f"{path} holds a {type(obj).__name__}, expected a {kind.__name__}")
    return obj


def cmd_phantom(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(PhantomSpec)
                 if getattr(args, f.name, None) is not None}
    if args.skew_euler is not None or args.skew_translation is not None:
        rot = rotation_from_euler_deg(*(args.skew_euler or (0, 0, 0)))
        overrides["skew"] = RigidPose(rot, np.array(args.skew_translation or (0.0, 0.0, 0.0)))
    spec = PhantomSpec(**overrides)
    vol, mask, pose = generate_phantom(spec)  # ValueError when the canals leave the grid
    os.makedirs(args.output, exist_ok=True)
    write_mvol(vol, os.path.join(args.output, "volume.mvol"))
    write_mvol(mask, os.path.join(args.output, "mask.mvol"))
    write_pose(pose, os.path.join(args.output, "pose.txt"))
    with open(os.path.join(args.output, "spec.txt"), "w") as f:
        # One --config line per option: a PhantomSpec field as resolved
        # (defaults included), a skew flag only when given.
        for key, value in vars(args).items():
            value = getattr(spec, key, value)
            if key not in FLAG_ONLY and value is not None:
                text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
                f.write(f"{key}={text}\n")
    print(f"phantom written to {args.output} "
          f"({mask.foreground_count()} foreground voxels)")
    return 0


def cmd_segment_threshold(args) -> int:
    mask = threshold_segment(_read(args.input, Volume), args.band)
    write_mvol(mask, args.output)
    print(f"mask written to {args.output} ({mask.foreground_count()} voxels)")
    return 0


def cmd_train(args) -> int:
    if args.iterations < 1:
        raise ValueError(f"--iterations must be at least 1, got {args.iterations}")
    net, history = train_network(
        _read(args.input, Volume), _read(args.mask, LabelMask),
        iterations=args.iterations,
        lr=args.lr,
        seed=args.seed,
        batch_size=args.batch_size,
        lambdas=args.lambdas,
        log_path=args.loss_log,
    )
    save_checkpoint(net, args.output)
    print(f"checkpoint written to {args.output} "
          f"({len(history)} iterations, final loss {history[-1]['total']:.4f})")
    return 0


def cmd_infer(args) -> int:
    vol = _read(args.input, Volume)
    net = MFFNet()
    load_checkpoint(net, args.checkpoint)
    mask = sliding_window_infer(net, vol, threshold=args.threshold)
    write_mvol(mask, args.output)
    print(f"mask written to {args.output} ({mask.foreground_count()} voxels)")
    return 0


def cmd_calibrate(args) -> int:
    vol = _read(args.input, Volume)
    mask = _read(args.mask, LabelMask)
    cal_vol, cal_mask, report, pose = cal.calibrate(
        vol, mask, l0=args.l0, max_iter=args.max_iter, spacing=args.spacing)
    os.makedirs(args.output, exist_ok=True)
    report_path = os.path.join(args.output, "report.json")
    with open(report_path, "w") as f:
        f.write(report.to_json() + "\n")
    if cal_vol is not None:
        write_mvol(cal_vol, os.path.join(args.output, "calibrated_volume.mvol"))
        write_mvol(cal_mask, os.path.join(args.output, "calibrated_mask.mvol"))
        write_pose(pose, os.path.join(args.output, "est_pose.txt"))
    if report.rank == "Failed":
        reason = report.error or "the calibrated canals rank Failed"
        print(f"error: calibration failed: {reason}", file=sys.stderr)
        return 1
    print(f"calibration rank {report.rank}; report at {report_path}")
    return 0


def cmd_evaluate(args) -> int:
    if (args.pose_true is None) != (args.pose_est is None):
        raise ValueError("--pose-true and --pose-est must be given together")
    pred = _read(args.pred, LabelMask)
    metrics = {}
    if args.truth:
        truth = _read(args.truth, LabelMask)
        if not truth.same_grid(pred):
            raise ValueError("--truth is not on --pred's grid (dims, spacing and origin)")
        metrics["dsc"] = dsc_metric(pred, truth)
        if metrics["dsc"] == 0.0 and pred.foreground_count() == 0:
            print("warning: prediction is empty", file=sys.stderr)
        metrics["per_component_dsc"] = _per_component_dsc(pred, truth)
    rank, gap, mirror = cal.rank_result(pred)
    metrics["rank"] = rank
    metrics["slice_gap"] = gap
    metrics["mirror_dsc"] = mirror
    if args.pose_true is not None:
        true_pose = read_pose(args.pose_true)   # canonical -> world skew
        est_pose = read_pose(args.pose_est)     # world -> calibrated
        resid = est_pose.compose(true_pose)     # should be near identity
        metrics["rotation_error_deg"] = rotation_angle_deg(resid.rotation, np.eye(3))
        # The residual's rotation vector: its parts about calibrated x (roll), y and z.
        metrics["rotation_error_xyz_deg"] = Rotation.from_matrix(
            resid.rotation).as_rotvec(degrees=True).tolist()
        metrics["translation_error_mm"] = float(np.linalg.norm(resid.translation))
    text = json.dumps(jsonable(metrics), indent=2, allow_nan=False)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


def _per_component_dsc(pred, truth):
    """Dice per ground-truth component (left, then right), against the whole prediction."""
    labeled, keep, box = largest_components(truth.voxels)
    if len(keep) < 2:
        return []
    out = []
    for lab in sorted(keep, key=lambda lab: np.nonzero(labeled == lab)[2].mean()):
        comp = np.zeros_like(truth.voxels)
        comp[box] = labeled == lab
        out.append(dsc_metric(comp, pred))
    return out


def build_parser():
    """The top-level parser and its subparsers action (`choices` maps each
    subcommand to its parser)."""
    parser = argparse.ArgumentParser(prog="tbcalib",
                                     description="Temporal-bone CT canal segmentation "
                                                 "and geometric calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic canal phantom")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--major-radius", dest="major_radius", type=float)
    p.add_argument("--tube-radius", dest="tube_radius", type=float)
    p.add_argument("--arc-span", dest="arc_span_deg", type=float)
    p.add_argument("--separation", dest="half_separation", type=float)
    p.add_argument("--canal-intensity", dest="canal_intensity", type=float)
    p.add_argument("--background-intensity", dest="background_intensity", type=float)
    p.add_argument("--shell-intensity", dest="shell_intensity", type=float)
    p.add_argument("--noise", dest="noise_amplitude", type=float)
    p.add_argument("--dims", type=_dims, help="nx,ny,nz")
    p.add_argument("--spacing", type=_triple, help="sx,sy,sz in mm")
    p.add_argument("--skew-euler", dest="skew_euler", type=_triple, help="rx,ry,rz in degrees")
    p.add_argument("--skew-translation", dest="skew_translation", type=_triple,
                   help="tx,ty,tz in mm")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("segment-threshold", help="intensity-band baseline segmentation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--band", type=_pair, required=True, help="lo,hi intensity band")
    p.set_defaults(func=cmd_segment_threshold)

    p = sub.add_parser("train", help="train the segmentation network")
    p.add_argument("--input", required=True, help="volume.mvol")
    p.add_argument("--mask", required=True, help="mask.mvol")
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=2)
    p.add_argument("--lambdas", type=_floats, default=DEFAULT_LAMBDAS,
                   help="deep-supervision weights, comma-separated")
    p.add_argument("--loss-log", dest="loss_log", help="CSV loss log path")
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="network inference over the whole volume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("calibrate", help="geometric calibration from a mask")
    p.add_argument("--input", required=True, help="volume.mvol")
    p.add_argument("--mask", required=True, help="mask.mvol")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--l0", type=float, default=cal.DEFAULT_L0_MM)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=cal.DEFAULT_MAX_ITER)
    p.add_argument("--spacing", type=float, default=cal.DEFAULT_OUT_SPACING)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="evaluate a predicted mask")
    p.add_argument("--pred", required=True, help="predicted mask.mvol")
    p.add_argument("--truth", help="ground-truth mask.mvol")
    p.add_argument("--pose-true", dest="pose_true", help="ground-truth pose file")
    p.add_argument("--pose-est", dest="pose_est", help="estimated pose file")
    p.add_argument("--output", help="metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    return parser, sub


def main(argv=None) -> int:
    parser, sub = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        command = sub.choices[args.command]
        try:
            with open(args.config) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            command.error(f"cannot read config {args.config}: {exc}")
        try:
            pairs = parse_key_values(text)
        except ValueError as exc:
            command.error(f"{args.config}: {exc}")
        config = {}
        for key, value in pairs.items():
            key = key.replace("-", "_")
            if key in config:
                command.error(f"{args.config}: key {key!r} given twice")
            if key not in vars(args) or key in FLAG_ONLY:
                command.error(f"{args.config}: unknown config key {key!r}")
            config[key] = value
        command.set_defaults(**config)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmptySegmentationError, TrainingDivergedError) as exc:  # ran, no result
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, MvolError, CheckpointError) as exc:  # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
