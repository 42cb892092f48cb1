"""Exception hierarchy for the toolkit.

Every exception carries a stable machine-readable ``code`` which the
command-line interface prints as a one-line greppable diagnostic.
"""

import re


class StemfuseError(Exception):
    """Base class for all errors raised by this package. Its `code` is
    "error"; a subclass's is its class name in kebab case
    (`IoFailure` -> "io-failure")."""

    code = "error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = re.sub(r"(?<!^)(?=[A-Z])", "-", cls.__name__).lower()


# --- audio_io ---------------------------------------------------------

class MalformedHeader(StemfuseError):
    """Not a RIFF/WAVE file, or required chunks are absent/inconsistent."""


class UnsupportedEncoding(StemfuseError):
    """WAV encoding other than PCM16, PCM24 or IEEE float32."""


class TruncatedData(StemfuseError):
    """Declared data size exceeds the bytes actually present."""


class IoFailure(StemfuseError):
    """Underlying file read/write failed."""


# --- stft -------------------------------------------------------------

class EmptySignal(StemfuseError):
    """Signal too short to transform."""


class ConfigMismatch(StemfuseError):
    """Spectrogram and transform configuration disagree."""


# --- shared shape/rate contracts ---------------------------------------

class ShapeMismatch(StemfuseError):
    """Operands have incompatible shapes or channel counts."""


class SampleRateMismatch(StemfuseError):
    """Operands have different sample rates."""


class LengthMismatch(ShapeMismatch):
    """Signals differ in length (or frames) beyond the allowed tolerance; a shape mismatch."""


class NonFiniteSamples(StemfuseError, ValueError):
    """A waveform or magnitude file holds NaN or infinite values; also a ValueError."""


class NegativeMagnitude(StemfuseError, ValueError):
    """A magnitude file holds a negative magnitude; also a ValueError."""


# --- wiener ------------------------------------------------------------

class SingularMixCovariance(StemfuseError):
    """Mixture covariance could not be inverted even with regularization."""


# --- blend --------------------------------------------------------------

class NegativeWeight(StemfuseError):
    """A blend weight is negative."""


class ColumnSumViolation(StemfuseError):
    """A source's weight column does not sum to one."""


class ModelCountMismatch(StemfuseError):
    """Number of stem sets does not match the number of weight rows."""


# --- bsseval -------------------------------------------------------------

class SilentReference(StemfuseError):
    """The reference of the evaluated source is identically zero."""


class RankDeficient(StemfuseError):
    """Gram matrix is singular beyond regularization."""


class EmptyInput(StemfuseError):
    """An aggregate was requested over zero items."""


# --- pipeline --------------------------------------------------------------

class MissingStem(StemfuseError):
    """A stems directory lacks one of the expected per-source files."""


class WeightModelMismatch(StemfuseError):
    """Pipeline model entries and blend weight rows disagree."""


# --- toy_models --------------------------------------------------------------

class LengthIncompatible(StemfuseError):
    """Input length cannot pass through the conv stride stack."""
