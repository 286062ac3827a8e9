"""tbcalib: temporal-bone CT canal segmentation and geometric calibration."""

from .calibration import (CalibrationError, CalibrationReport, InsufficientAnchorsError,
                          build_frame, calibrate, fit_lsc_plane, rank_result,
                          refine_sagittal, resample, split_components)
from .losses import class_weight, dsc_loss, dsc_metric, joint_loss, weighted_ce
from .phantom import (PhantomSpec, PoseError, RigidPose, generate_phantom, read_pose,
                      rotation_angle_deg, rotation_from_euler_deg,
                      sample_training_pair, write_pose)
from .segment import EmptySegmentationError, sliding_window_infer, threshold_segment
from .train import TrainingDivergedError, train_network
from .volume import (BadDtypeError, BadMagicError, BadSpacingError, Cuboid,
                     LabelMask, MvolError, TruncatedFileError, Volume,
                     extract_cuboid, normalize_intensity, read_mvol, write_mvol)

__version__ = "0.1.0"
