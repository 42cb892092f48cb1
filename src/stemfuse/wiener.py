"""Multichannel Wiener filtering.

Per-source magnitude estimates are refined into complex, spatially
consistent spectrograms. A power-ratio mask initializes the estimates;
each expectation-maximization pass then (1) re-estimates every source's
power spectral density as the channel-mean squared magnitude, (2) pools
outer products over time into a per-bin spatial covariance, and (3)
re-filters the mixture with the resulting Wiener gains. Mono and stereo
mixtures are supported; the 2x2 inversion uses the closed adjugate form.

Internally every step works on one (sources, channels, frames, bins)
array, and a spatial covariance is kept as its unique Hermitian entries:
the real diagonal (sources, channels, bins) and, for stereo, the complex
off-diagonal R01 (sources, bins), with R10 = conj(R01). The public
functions wrap these arrays in `Spectrogram` and `SpatialModel` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeMismatch, SingularMixCovariance
from .core import Spectrogram, SourceSpectrogramSet, _is_int, _is_real

_EPS_DIV = 1e-12  # guards the initialization mask against all-zero bins
_HERMITIAN_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10

# psd (J, T, F), diagonal of R (J, C, F) real, R01 (J, F) complex or None (mono)
_Model = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


@dataclass(frozen=True)
class MwfConfig:
    """iterations: EM passes (0 keeps the initial mask estimates);
    eps: covariance regularizer (diagonal loading); mask_power:
    exponent applied to magnitudes when building the initial mask."""

    iterations: int = 1
    eps: float = 1e-10
    mask_power: float = 2.0

    def __post_init__(self):
        if not (_is_int(self.iterations) and self.iterations >= 0):
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations!r}")
        _require_positive_finite("eps", self.eps)
        _require_positive_finite("mask_power", self.mask_power)


def _require_positive_finite(name: str, value) -> None:
    if not (_is_real(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass
class SpatialModel:
    """Gaussian source model: PSD v(t, f) and spatial covariance R(f).

    psd : (frames, bins) nonnegative float64
    spatial_cov : (bins, channels, channels) complex128, Hermitian PSD
    """

    psd: np.ndarray
    spatial_cov: np.ndarray

    def __post_init__(self):
        psd = np.asarray(self.psd, dtype=np.float64)
        cov = np.asarray(self.spatial_cov, dtype=np.complex128)
        if psd.ndim != 2 or cov.ndim != 3 or cov.shape[1] != cov.shape[2]:
            raise ValueError(
                f"bad spatial model shapes: psd {psd.shape}, spatial_cov {cov.shape}"
            )
        if np.any(psd < 0):
            raise ValueError("psd must be nonnegative")
        asym = np.max(np.abs(cov - np.conj(np.swapaxes(cov, 1, 2))))
        if asym > _HERMITIAN_TOL:
            raise ValueError(f"spatial covariance departs from Hermitian by {asym:.3e}")
        if np.min(np.linalg.eigvalsh(cov)) < _EIGENVALUE_FLOOR:
            raise ValueError("spatial covariance has a significantly negative eigenvalue")
        self.psd = psd
        self.spatial_cov = cov


def _check_channels(channels: int) -> None:
    if channels > 2:
        raise ShapeMismatch(f"only mono and stereo are supported, got {channels} channels")


def _as_set(y: np.ndarray, mix: Spectrogram) -> SourceSpectrogramSet:
    return SourceSpectrogramSet([Spectrogram(s, mix.config, mix.sample_rate) for s in y])


# --- array steps ----------------------------------------------------------

def _masked_mixture(mags: Sequence[np.ndarray], x: np.ndarray, mask_power: float) -> np.ndarray:
    """(J, C, T, F) soft-masked mixture from J (C, T, F) magnitude arrays.

    Works one source at a time (each power is formed twice) so that no
    (J, C, T, F) real temporary is allocated.
    """
    mags = [np.asarray(v, dtype=np.float64) for v in mags]
    if not mags:
        raise ValueError("need at least one magnitude estimate")
    for v in mags:
        if v.shape != x.shape:
            raise ShapeMismatch(f"magnitudes of shape {v.shape} do not match mixture {x.shape}")
        if np.any(v < 0):
            raise ValueError("magnitudes must be nonnegative")

    def power(v):
        return v * v if mask_power == 2.0 else v ** mask_power

    with np.errstate(over="ignore", invalid="ignore"):
        total = power(mags[0])
        for v in mags[1:]:
            total += power(v)
    # every term is >= 0 or NaN, so a finite total means finite masks
    if not np.all(np.isfinite(total)):
        raise ValueError(
            f"initial masks are not finite: magnitudes ** {mask_power} overflow or "
            "the magnitudes contain non-finite values"
        )
    total += _EPS_DIV
    y = np.empty((len(mags),) + x.shape, dtype=np.complex128)
    for j, v in enumerate(mags):
        mask = power(v)
        mask /= total
        np.multiply(mask, x, out=y[j])
    return y


def _model_step(y: np.ndarray, eps: float) -> _Model:
    """EM model step on (J, C, T, F) estimates.

    R_cc sums |y_c|^2 over frames and R01 = sum_t y0 conj(y1), each
    times 1 / (sum_t v + eps); R10 = conj(R01) is exactly Hermitian.
    """
    num_sources, channels, frames, bins = y.shape
    psd = np.empty((num_sources, frames, bins))
    r_diag = np.empty((num_sources, channels, bins))
    r01 = np.empty((num_sources, bins), dtype=np.complex128) if channels == 2 else None
    with np.errstate(over="ignore", invalid="ignore"):
        for j, yj in enumerate(y):
            power = yj.real ** 2 + yj.imag ** 2
            psd[j] = np.mean(power, axis=0)
            scale = 1.0 / (np.sum(psd[j], axis=0) + eps)
            r_diag[j] = np.sum(power, axis=1) * scale
            if r01 is not None:
                r01[j] = np.einsum("tf,tf->f", yj[0], np.conj(yj[1])) * scale
    finite = np.all(np.isfinite(psd)) and np.all(np.isfinite(r_diag))
    if not (finite and (r01 is None or np.all(np.isfinite(r01)))):
        raise SingularMixCovariance(
            "covariance estimation overflowed; eps is too small for the input scale"
        )
    return psd, r_diag, r01


def _require_invertible(det: np.ndarray) -> None:
    if not np.all(np.isfinite(det)) or np.any(det == 0):
        raise SingularMixCovariance(
            "mixture covariance is singular even with diagonal loading; increase eps"
        )


def _filter_step(model: _Model, x: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Wiener step: y_j = v_j R_j (sum_k v_k R_k + eps I)^-1 x, into (J, C, T, F) `out`.

    The shared term z = (sum_k v_k R_k + eps I)^-1 x is computed once
    with the closed 1x1/2x2 inverse: real diagonal, real determinant,
    one reciprocal.
    """
    psd, r_diag, r01 = model

    def mix_cov(r):  # sum_k v_k r_k, accumulated in source order
        acc = psd[0] * r[0]
        for v, rk in zip(psd[1:], r[1:]):
            acc += v * rk
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        c00 = mix_cov(r_diag[:, 0])
        c00 += eps
        if r01 is None:
            _require_invertible(c00)
            z0 = x[0] * (1.0 / c00)
            for j, v in enumerate(psd):
                np.multiply(v * r_diag[j, 0], z0, out=out[j, 0])
            return out
        c11 = mix_cov(r_diag[:, 1])
        c11 += eps
        c01 = mix_cov(r01)
        det = c00 * c11 - (c01.real ** 2 + c01.imag ** 2)
    _require_invertible(det)
    inv_det = 1.0 / det
    z0 = (c11 * x[0] - c01 * x[1]) * inv_det
    z1 = (c00 * x[1] - np.conj(c01) * x[0]) * inv_det
    for j, v in enumerate(psd):
        np.multiply(v, r_diag[j, 0] * z0 + r01[j] * z1, out=out[j, 0])
        np.multiply(v, np.conj(r01[j]) * z0 + r_diag[j, 1] * z1, out=out[j, 1])
    return out


def _em_passes(y: np.ndarray, x: np.ndarray, cfg: MwfConfig) -> np.ndarray:
    """cfg.iterations EM passes, each overwriting the (J, C, T, F) estimates `y`."""
    for _ in range(cfg.iterations):
        _filter_step(_model_step(y, cfg.eps), x, cfg.eps, out=y)
    return y


# --- public entry points --------------------------------------------------

def initial_estimates(
    mags: Sequence[np.ndarray], mix: Spectrogram, mask_power: float = 2.0
) -> SourceSpectrogramSet:
    """Soft-mask the mixture: y_j = v_j**a / (sum_k v_k**a + eps) * x.

    All-zero bins across sources get a zero mask rather than 0/0.
    """
    _require_positive_finite("mask_power", mask_power)
    return _as_set(_masked_mixture(mags, mix.bins, mask_power), mix)


def estimate_spatial_model(est: SourceSpectrogramSet, eps: float) -> List[SpatialModel]:
    """EM model step: per-source PSD and time-pooled spatial covariance.

    v_j(t, f) is the channel mean of |y_j|^2; R_j(f) sums y_j y_j^H over
    frames, normalized by the summed PSD plus eps, exactly Hermitian.
    """
    _check_channels(est.channels)
    psd, r_diag, r01 = _model_step(est.stacked(), eps)
    num_sources, channels, bins = r_diag.shape
    cov = np.zeros((num_sources, bins, channels, channels), dtype=np.complex128)
    for c in range(channels):
        cov[:, :, c, c] = r_diag[:, c]
    if r01 is not None:
        cov[:, :, 0, 1] = r01
        cov[:, :, 1, 0] = np.conj(r01)
    return [SpatialModel(p, r) for p, r in zip(psd, cov)]


def apply_filter(
    models: Sequence[SpatialModel], mix: Spectrogram, eps: float
) -> SourceSpectrogramSet:
    """Wiener step: y_j = v_j R_j (sum_k v_k R_k + eps I)^-1 x.

    Reads the diagonal and upper triangle of each (Hermitian) R_j.
    """
    _check_channels(mix.channels)
    psd = np.stack([m.psd for m in models])
    cov = np.stack([m.spatial_cov for m in models])
    r_diag = np.stack([cov[:, :, c, c].real for c in range(mix.channels)], axis=1)
    r01 = cov[:, :, 0, 1] if mix.channels == 2 else None
    out = np.empty((len(models),) + mix.bins.shape, dtype=np.complex128)
    return _as_set(_filter_step((psd, r_diag, r01), mix.bins, eps, out), mix)


def em_iterate(
    est: SourceSpectrogramSet, mix: Spectrogram, cfg: MwfConfig = MwfConfig()
) -> SourceSpectrogramSet:
    """Run cfg.iterations EM passes; zero iterations returns the input."""
    if est.sources[0].bins.shape != mix.bins.shape:
        raise ShapeMismatch(
            f"estimates of shape {est.sources[0].bins.shape} do not match "
            f"mixture {mix.bins.shape}"
        )
    _check_channels(mix.channels)
    if cfg.iterations == 0:
        return est
    return _as_set(_em_passes(est.stacked(), mix.bins, cfg), mix)


def mwf(
    mags: Sequence[np.ndarray], mix: Spectrogram, cfg: MwfConfig = MwfConfig()
) -> SourceSpectrogramSet:
    """Full filter: mask initialization followed by cfg.iterations EM passes."""
    _check_channels(mix.channels)
    y = _masked_mixture(mags, mix.bins, cfg.mask_power)
    del mags  # freed here unless the caller keeps them
    return _as_set(_em_passes(y, mix.bins, cfg), mix)
