"""Patch-based pixel classification with a spatial smoothness loss.

Trains a small convolutional patch classifier from sparsely labeled
images.  The training objective adds a total-variation penalty on the
classifier's per-image probability maps, backpropagated through the
network as per-neighborhood subgradient coefficients, so unlabeled
pixels shape the decision boundaries.  An ICM/Potts smoothing baseline
and a multi-trial evaluation protocol are included for comparison.
"""

__version__ = "0.1.0"

from .data import (LabeledImage, SparseLabelSet, SynthConfig, UNLABELED,
                   load_dataset, load_image, load_labels, load_prob_map,
                   load_sparse, merge_sparse, pad_mirror,
                   sample_sparse_labels, save_dataset, save_image,
                   save_labels, save_prob_map, save_sparse, synth_dataset,
                   synth_generate)
from .errors import NumericalError
from .evaluate import (ExperimentConfig, ExperimentResult, ExperimentRow,
                       emit_table, pixel_error, run_experiment)
from .mrf import MrfConfig, argmax_labels, icm_smooth, potts_energy
from .network import (LayerSpec, Network, default_specs, load_checkpoint,
                      save_checkpoint, sgd_step)
from .pnm import PnmError, read_pnm, write_pnm
from .tv_loss import (SOBEL_X, SOBEL_X_VEC, SOBEL_Y, SOBEL_Y_VEC,
                      TotalVariation, tv_grad_image, tv_theta,
                      tv_theta_coeffs, tv_value_image, validate_prob_map)
from .trainer import (TrainConfig, TrainReport, predict_image,
                      supervised_grad, train, unsupervised_grad)

__all__ = [
    "ExperimentConfig", "ExperimentResult", "ExperimentRow", "LabeledImage",
    "LayerSpec", "MrfConfig", "Network", "NumericalError", "PnmError",
    "SOBEL_X", "SOBEL_X_VEC", "SOBEL_Y", "SOBEL_Y_VEC", "SparseLabelSet",
    "SynthConfig", "TotalVariation", "TrainConfig", "TrainReport",
    "UNLABELED", "argmax_labels", "default_specs", "emit_table",
    "icm_smooth", "load_checkpoint", "load_dataset", "load_image",
    "load_labels", "load_prob_map", "load_sparse", "merge_sparse",
    "pad_mirror", "pixel_error", "potts_energy", "predict_image", "read_pnm",
    "run_experiment", "sample_sparse_labels", "save_checkpoint",
    "save_dataset", "save_image", "save_labels", "save_prob_map",
    "save_sparse", "sgd_step", "supervised_grad", "synth_dataset",
    "synth_generate", "train", "tv_grad_image", "tv_theta",
    "tv_theta_coeffs", "tv_value_image", "unsupervised_grad",
    "validate_prob_map", "write_pnm",
]
