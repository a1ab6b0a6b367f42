"""Unsupervised, interpretable representation learning for music signals.

A denoising autoencoder maps 44100 Hz waveforms to non-negative,
spectrogram-like matrices: a strided + dilated convolutional analysis front
end, and a synthesis back end of amplitude-modulated cosine kernels whose
carrier frequency, phase and envelope are the trainable quantities.
Representations can be regularized toward smoothness (total variation) or
low transport cost between time frames (entropic Sinkhorn distances), and
are evaluated with SI-SDR, oracle binary masking, additivity and W-DO.

The package exports the names that the README's library example imports,
plus ``save_model`` and the ``synth`` module; every other name is imported
from its module.
"""

from . import synth
from .checkpoint import save_model
from .decoder import decode_values, init_decoder
from .encoder import encode_values, init_encoder
from .evaluation import si_sdr
from .losses import LossConfig
from .training import TrainConfig, train

__version__ = "0.1.0"
