from . import ops
from .checkpoint import CheckpointError, load_checkpoint, read_checkpoint_arrays, save_checkpoint
from .layers import (AvgPool3d, BatchNorm3d, Conv3d, ConvBnRelu, ConvTranspose3d,
                     MaxPool3d, Param, ReLU, Sigmoid)
from .network import DenseBlock, DilatedConvModule, MFFNet, MultiPoolModule, NetworkConfig
from .optim import Adam

__all__ = [
    "ops", "Adam", "AvgPool3d", "BatchNorm3d", "CheckpointError", "Conv3d",
    "ConvBnRelu", "ConvTranspose3d", "DenseBlock", "DilatedConvModule",
    "MFFNet", "MaxPool3d", "MultiPoolModule", "NetworkConfig", "Param",
    "ReLU", "Sigmoid", "load_checkpoint", "read_checkpoint_arrays",
    "save_checkpoint",
]
