"""The public surface, pinned: the names `stemfuse` exports, the parameters
of every public callable, the code and bases of every error class, and the
public attributes of the stem sets.

A change that drops or renames a public name or parameter, or moves an
error in the hierarchy, fails here; update the pin and say why in
CHANGES.md.
"""

import inspect

import numpy as np

import stemfuse
from stemfuse import errors

ALL = [
    "AggregateReport", "BandMaskModel", "BlendWeights", "EvalConfig", "ModelEntry",
    "MultiDecoderSpec", "MwfConfig", "PipelineConfig", "SOURCE_NAMES", "SdrReport",
    "SourceSpectrogramSet", "SourceWaveformSet", "SpatialModel", "Spectrogram", "StftConfig",
    "Waveform", "aggregate", "apply_filter", "band_mask_separate", "blend", "combined_loss",
    "conv_layer_params", "conv_param_count", "decoder_interior_weight_count", "default_weights",
    "demucs_like_spec", "em_iterate", "errors", "estimate_spatial_model", "freq_mse",
    "freq_mse_grad", "initial_estimates", "istft", "l1_waveform", "load_pipeline_config",
    "load_stem_dir", "load_weights", "magnitude", "median_sdr", "multi_decoder_forward", "mwf",
    "project_subspace", "read_magnitudes", "read_wav", "report_to_csv", "report_to_json_dict",
    "run", "save_report_csv", "save_report_json", "save_weights", "sdr_frames", "search_weights",
    "source_labels", "stft", "time_domain_loss", "validate_weights", "write_magnitudes",
    "write_wav",
]

# parameters without annotations: (name=default, ...) as `inspect` prints them
SIGNATURES = {
    "AggregateReport": "(per_source_median, overall_avg)",
    "BandMaskModel": "(band_edges, leakage=0.0)",
    "BlendWeights": "(weights, model_names, source_names=('drums', 'bass', 'other', 'vocals'))",
    "EvalConfig": "(filter_len=512, win=1.0, hop=1.0)",
    "ModelEntry": "(name, domain, source, leakage=0.1)",
    "MultiDecoderSpec": "(encoder_channels, decoder_channels, num_decoders, kernel_size, layers)",
    "MwfConfig": "(iterations=1, eps=1e-10, mask_power=2.0)",
    "PipelineConfig": "(model_entries, stft=<factory>, mwf=<factory>, weights=None)",
    "SdrReport": "(per_source_frames, per_source_median, overall_avg)",
    "SourceSpectrogramSet": "(sources)",
    "SourceWaveformSet": "(sources)",
    "SpatialModel": "(psd, spatial_cov)",
    "Spectrogram": "(bins, config, sample_rate)",
    "StftConfig": "(fft_size=4096, hop=1024, window='hann', center_pad=True)",
    "Waveform": "(samples, sample_rate)",
    "aggregate": "(reports)",
    "apply_filter": "(models, mix, eps)",
    "band_mask_separate": ("(mix, model, cfg=StftConfig(fft_size=4096, hop=1024, window='hann', "
                           "center_pad=True))"),
    "blend": "(per_model_stems, w)",
    "combined_loss": "(truth_specs, est_specs, truth_waves, est_waves, mix_weight=0.5)",
    "conv_layer_params": "(in_channels, out_channels, kernel_size)",
    "conv_param_count": "(spec)",
    "decoder_interior_weight_count": "(spec)",
    "default_weights": "()",
    "demucs_like_spec": ("(decoder_hidden=48, num_decoders=1, *, encoder_hidden=48, layers=6, "
                         "audio_channels=2, num_sources=4, kernel_size=8)"),
    "em_iterate": "(est, mix, cfg=MwfConfig(iterations=1, eps=1e-10, mask_power=2.0))",
    "estimate_spatial_model": "(est, eps)",
    "freq_mse": "(truth, est)",
    "freq_mse_grad": "(truth, est)",
    "initial_estimates": "(mags, mix, mask_power=2.0)",
    "istft": "(s, cfg=None, length=None)",
    "l1_waveform": "(truth, est)",
    "load_pipeline_config": "(path)",
    "load_stem_dir": "(directory, like=None, length_tolerance=0)",
    "load_weights": "(path)",
    "magnitude": "(s)",
    "median_sdr": ("(references, estimate, source_index, cfg=EvalConfig(filter_len=512, win=1.0, "
                   "hop=1.0))"),
    "multi_decoder_forward": "(mix, spec, seed=0)",
    "mwf": "(mags, mix, cfg=MwfConfig(iterations=1, eps=1e-10, mask_power=2.0))",
    "project_subspace": "(references, estimate, filter_len, source_index)",
    "read_magnitudes": "(path)",
    "read_wav": "(path)",
    "report_to_csv": "(report)",
    "report_to_json_dict": "(report)",
    "run": "(mix, cfg, names=('drums', 'bass', 'other', 'vocals'))",
    "save_report_csv": "(report, path)",
    "save_report_json": "(report, path)",
    "save_weights": "(w, path)",
    "sdr_frames": "(references, estimates, cfg=EvalConfig(filter_len=512, win=1.0, hop=1.0))",
    "search_weights": ("(per_model_stems, references, grid_step=0.01, eval_config=None, "
                       "model_names=None)"),
    "source_labels": "(count)",
    "stft": "(w, cfg=StftConfig(fft_size=4096, hop=1024, window='hann', center_pad=True))",
    "time_domain_loss": "(truth, est)",
    "validate_weights": ("(raw, model_names=None, source_names=('drums', 'bass', 'other', "
                         "'vocals'))"),
    "write_magnitudes": "(path, mags)",
    "write_wav": "(w, path, encoding='float32')",
}

# class: (code, names of its bases)
ERRORS = {
    "StemfuseError": ("error", ("Exception",)),
    "MalformedHeader": ("malformed-header", ("StemfuseError",)),
    "UnsupportedEncoding": ("unsupported-encoding", ("StemfuseError",)),
    "TruncatedData": ("truncated-data", ("StemfuseError",)),
    "IoFailure": ("io-failure", ("StemfuseError",)),
    "EmptySignal": ("empty-signal", ("StemfuseError",)),
    "ConfigMismatch": ("config-mismatch", ("StemfuseError",)),
    "ShapeMismatch": ("shape-mismatch", ("StemfuseError",)),
    "SampleRateMismatch": ("sample-rate-mismatch", ("StemfuseError",)),
    "LengthMismatch": ("length-mismatch", ("ShapeMismatch",)),
    "NonFiniteSamples": ("non-finite-samples", ("StemfuseError", "ValueError")),
    "NegativeMagnitude": ("negative-magnitude", ("StemfuseError", "ValueError")),
    "SingularMixCovariance": ("singular-mix-covariance", ("StemfuseError",)),
    "NegativeWeight": ("negative-weight", ("StemfuseError",)),
    "ColumnSumViolation": ("column-sum-violation", ("StemfuseError",)),
    "ModelCountMismatch": ("model-count-mismatch", ("StemfuseError",)),
    "SilentReference": ("silent-reference", ("StemfuseError",)),
    "RankDeficient": ("rank-deficient", ("StemfuseError",)),
    "EmptyInput": ("empty-input", ("StemfuseError",)),
    "MissingStem": ("missing-stem", ("StemfuseError",)),
    "WeightModelMismatch": ("weight-model-mismatch", ("StemfuseError",)),
    "LengthIncompatible": ("length-incompatible", ("StemfuseError",)),
}

# the public attributes of a stem set of each kind
SET_ATTRIBUTES = {
    "SourceWaveformSet": ["channels", "length", "num_sources", "sample_rate", "sources", "stacked"],
    "SourceSpectrogramSet": ["channels", "num_sources", "sample_rate", "sources", "stacked"],
}


def bare_signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_exported_names():
    assert stemfuse.__all__ == ALL
    assert stemfuse.SOURCE_NAMES == ("drums", "bass", "other", "vocals")


def test_public_callables_keep_their_parameters():
    found = {name: bare_signature(getattr(stemfuse, name))
             for name in stemfuse.__all__ if callable(getattr(stemfuse, name))}
    assert found == SIGNATURES


def test_error_codes_and_hierarchy():
    found = {name: (cls.code, tuple(base.__name__ for base in cls.__bases__))
             for name, cls in vars(errors).items()
             if inspect.isclass(cls) and issubclass(cls, BaseException)}
    assert found == ERRORS


def test_stem_sets_keep_their_attributes():
    cfg = stemfuse.StftConfig(fft_size=4, hop=2)
    sets = [stemfuse.SourceWaveformSet([stemfuse.Waveform(np.zeros((1, 4)), 8000)]),
            stemfuse.SourceSpectrogramSet([stemfuse.Spectrogram(np.zeros((1, 1, 3)), cfg, 8000)])]
    found = {type(s).__name__: sorted(a for a in dir(s) if not a.startswith("_")) for s in sets}
    assert found == SET_ATTRIBUTES
    for s in sets:  # and each one can be read
        assert all(getattr(s, a) is not None for a in found[type(s).__name__])
