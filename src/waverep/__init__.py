"""Unsupervised, interpretable representation learning for music signals.

A denoising autoencoder maps 44100 Hz waveforms to non-negative,
spectrogram-like matrices: a strided + dilated convolutional analysis front
end, and a synthesis back end of amplitude-modulated cosine kernels whose
carrier frequency, phase and envelope are the trainable quantities.
Representations can be regularized toward smoothness (total variation) or
low transport cost between time frames (entropic Sinkhorn distances), and
are evaluated with SI-SDR, oracle binary masking, additivity and W-DO.
"""

from .autodiff import Node, Tape, as_node
from .checkpoint import load_model, save_model
from .dataset import (
    SAMPLE_RATE,
    TrainingPair,
    is_active,
    load_and_downmix,
    make_training_pairs,
    segment,
)
from .decoder import (
    DecoderParameters,
    build_kernels,
    decode_chunks,
    decode_values,
    init_decoder,
    kernel_matrix,
    mel_init_frequencies,
    synthesize,
)
from .encoder import (
    EncoderParameters,
    encode,
    encode_chunks,
    encode_values,
    init_encoder,
    num_frames,
)
from .errors import CheckpointError, DataError, NumericalError, SaturationError
from .evaluation import (
    EvalReport,
    additivity,
    binary_mask,
    evaluate,
    istft,
    oracle_separate,
    si_sdr,
    stft,
    w_do,
)
from .export import export_representation
from .losses import (
    LossConfig,
    TransportPlan,
    neg_snr,
    normalize_simplex,
    pairwise_cost,
    sinkhorn_loss,
    sinkhorn_plan,
    total_loss,
    tv_loss,
)
from .synth import synth_data
from .training import AdamState, TrainConfig, TrainResult, adam_step, init_adam, train

__version__ = "0.1.0"
