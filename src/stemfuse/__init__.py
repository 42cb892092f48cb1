"""stemfuse: source-separation fusion and evaluation toolkit.

Pieces: WAV stem I/O, an STFT front end, complex-spectrogram and
waveform losses, multichannel Wiener filtering, per-source weighted
blending of several models' stems (with grid search over the weight
simplex), BSS-eval SDR scoring with framewise medians, and a pipeline
plus CLI tying it together. Built-in band-mask toy models let the whole
flow run without trained networks.
"""

from . import errors
from .core import (
    SOURCE_NAMES,
    SourceSpectrogramSet,
    SourceWaveformSet,
    Spectrogram,
    StftConfig,
    Waveform,
    source_labels,
)
from .audio_io import read_wav, write_wav
from .stft import istft, magnitude, stft
from .losses import combined_loss, freq_mse, freq_mse_grad, l1_waveform, time_domain_loss
from .wiener import (
    MwfConfig,
    SpatialModel,
    apply_filter,
    em_iterate,
    estimate_spatial_model,
    initial_estimates,
    mwf,
)
from .blend import (
    BlendWeights,
    blend,
    default_weights,
    load_weights,
    save_weights,
    search_weights,
    validate_weights,
)
from .toy_models import (
    BandMaskModel,
    MultiDecoderSpec,
    band_mask_separate,
    conv_layer_params,
    conv_param_count,
    decoder_interior_weight_count,
    demucs_like_spec,
    multi_decoder_forward,
)
from .bsseval import (
    AggregateReport,
    EvalConfig,
    SdrReport,
    aggregate,
    median_sdr,
    project_subspace,
    report_to_csv,
    report_to_json_dict,
    save_report_csv,
    save_report_json,
    sdr_frames,
)
from .pipeline import (
    ModelEntry,
    PipelineConfig,
    load_pipeline_config,
    load_stem_dir,
    read_magnitudes,
    run,
    write_magnitudes,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "BandMaskModel",
    "BlendWeights",
    "EvalConfig",
    "ModelEntry",
    "MultiDecoderSpec",
    "MwfConfig",
    "PipelineConfig",
    "SOURCE_NAMES",
    "SdrReport",
    "SourceSpectrogramSet",
    "SourceWaveformSet",
    "SpatialModel",
    "Spectrogram",
    "StftConfig",
    "Waveform",
    "aggregate",
    "apply_filter",
    "band_mask_separate",
    "blend",
    "combined_loss",
    "conv_layer_params",
    "conv_param_count",
    "decoder_interior_weight_count",
    "default_weights",
    "demucs_like_spec",
    "em_iterate",
    "errors",
    "estimate_spatial_model",
    "freq_mse",
    "freq_mse_grad",
    "initial_estimates",
    "istft",
    "l1_waveform",
    "load_pipeline_config",
    "load_stem_dir",
    "load_weights",
    "magnitude",
    "median_sdr",
    "multi_decoder_forward",
    "mwf",
    "project_subspace",
    "read_magnitudes",
    "read_wav",
    "report_to_csv",
    "report_to_json_dict",
    "run",
    "save_report_csv",
    "save_report_json",
    "save_weights",
    "sdr_frames",
    "search_weights",
    "source_labels",
    "stft",
    "time_domain_loss",
    "validate_weights",
    "write_magnitudes",
    "write_wav",
]
