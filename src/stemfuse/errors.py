"""Exception hierarchy for the toolkit.

Every exception carries a stable machine-readable ``code`` which the
command-line interface prints as a one-line greppable diagnostic.
"""


class StemfuseError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


# --- audio_io ---------------------------------------------------------

class MalformedHeader(StemfuseError):
    """Not a RIFF/WAVE file, or required chunks are absent/inconsistent."""

    code = "malformed-header"


class UnsupportedEncoding(StemfuseError):
    """WAV encoding other than PCM16, PCM24 or IEEE float32."""

    code = "unsupported-encoding"


class TruncatedData(StemfuseError):
    """Declared data size exceeds the bytes actually present."""

    code = "truncated-data"


class IoFailure(StemfuseError):
    """Underlying file read/write failed."""

    code = "io-failure"


# --- stft -------------------------------------------------------------

class EmptySignal(StemfuseError):
    """Signal too short to transform."""

    code = "empty-signal"


class ConfigMismatch(StemfuseError):
    """Spectrogram and transform configuration disagree."""

    code = "config-mismatch"


# --- shared shape/rate contracts ---------------------------------------

class ShapeMismatch(StemfuseError):
    """Operands have incompatible shapes or channel counts."""

    code = "shape-mismatch"


class SampleRateMismatch(StemfuseError):
    """Operands have different sample rates."""

    code = "sample-rate-mismatch"


class LengthMismatch(ShapeMismatch):
    """Signals differ in length (or frames) beyond the allowed tolerance; a shape mismatch."""

    code = "length-mismatch"


class NonFiniteSamples(StemfuseError, ValueError):
    """A waveform or magnitude file holds NaN or infinite values; also a ValueError."""

    code = "non-finite-samples"


class NegativeMagnitude(StemfuseError, ValueError):
    """A magnitude file holds a negative magnitude; also a ValueError."""

    code = "negative-magnitude"


# --- wiener ------------------------------------------------------------

class SingularMixCovariance(StemfuseError):
    """Mixture covariance could not be inverted even with regularization."""

    code = "singular-mix-covariance"


# --- blend --------------------------------------------------------------

class NegativeWeight(StemfuseError):
    """A blend weight is negative."""

    code = "negative-weight"


class ColumnSumViolation(StemfuseError):
    """A source's weight column does not sum to one."""

    code = "column-sum-violation"


class ModelCountMismatch(StemfuseError):
    """Number of stem sets does not match the number of weight rows."""

    code = "model-count-mismatch"


# --- bsseval -------------------------------------------------------------

class SilentReference(StemfuseError):
    """The reference of the evaluated source is identically zero."""

    code = "silent-reference"


class RankDeficient(StemfuseError):
    """Gram matrix is singular beyond regularization."""

    code = "rank-deficient"


class EmptyInput(StemfuseError):
    """An aggregate was requested over zero items."""

    code = "empty-input"


# --- pipeline --------------------------------------------------------------

class MissingStem(StemfuseError):
    """A stems directory lacks one of the expected per-source files."""

    code = "missing-stem"


class WeightModelMismatch(StemfuseError):
    """Pipeline model entries and blend weight rows disagree."""

    code = "weight-model-mismatch"


# --- toy_models --------------------------------------------------------------

class LengthIncompatible(StemfuseError):
    """Input length cannot pass through the conv stride stack."""

    code = "length-incompatible"
