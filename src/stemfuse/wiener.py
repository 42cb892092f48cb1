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

The initial estimates are y_j = g_j x with real mask gains
g_j = v_j**a / (sum_k v_k**a + eps), each power raised once. Since g_j
is real, the first pass needs only |y_jc|^2 = g_jc^2 |x_c|^2 and
y_j0 conj(y_j1) = g_j0 g_j1 x0 conj(x1): it runs on the gains and the
mixture products |x_c|^2 and x0 conj(x1), shared by every source, and
the complex g x is formed only when no pass runs. Later passes work on
the filtered estimates. The model step only needs sums over frames
(`_SpatialSums`) and the filter step treats each frame on its own, so
the same steps also run on a long signal one block of frames at a time
(see `pipeline.run`).
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

# diagonal of every R_j (J, C, F) real, R01 (J, F) complex or None (mono)
_Spatial = Tuple[np.ndarray, Optional[np.ndarray]]


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

def _mask_gains(g: np.ndarray, mask_power: float) -> np.ndarray:
    """Turn J stacked (J, C, T, F) magnitudes into mask gains, in place.

    g_j = v_j**a / (sum_k v_k**a + eps), each power raised once; bins
    where every magnitude is zero get a zero gain rather than 0/0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g **= mask_power
        total = np.sum(g, axis=0)  # in source order, one source at a time
    # every term is >= 0 or NaN, so a finite total means finite masks
    if not np.all(np.isfinite(total)):
        raise ValueError(
            f"initial masks are not finite: magnitudes ** {mask_power} overflow or "
            "the magnitudes contain non-finite values"
        )
    total += _EPS_DIV
    g /= total
    return g


def _stacked_gains(mags: Sequence[np.ndarray], shape: tuple, mask_power: float) -> np.ndarray:
    """(J, C, T, F) mask gains of J magnitude arrays, checked against mixture `shape`."""
    mags = list(mags)
    if not mags:
        raise ValueError("need at least one magnitude estimate")
    g = np.empty((len(mags),) + shape)
    for j, v in enumerate(mags):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != shape:
            raise ShapeMismatch(f"magnitudes of shape {v.shape} do not match mixture {shape}")
        if np.any(v < 0):
            raise ValueError("magnitudes must be nonnegative")
        g[j] = v
    return _mask_gains(g, mask_power)


class _Mixture:
    """Mixture frames x (C, T, F) and the products of them that every
    branch filtering these frames shares, each made once, when first
    asked for: |x| for models that mask the mixture magnitude, and for
    the first EM pass |x_c|^2 (C, T, F) and, for stereo, x0 conj(x1)
    (T, F). Not shared between threads."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self._magnitude = self._power = self._cross = None

    @property
    def magnitude(self) -> np.ndarray:
        if self._magnitude is None:
            self._magnitude = np.abs(self.x)
        return self._magnitude

    @property
    def power(self) -> np.ndarray:
        if self._power is None:
            with np.errstate(over="ignore"):
                self._power = _power(self.x)
        return self._power

    @property
    def cross(self) -> Optional[np.ndarray]:
        if self._cross is None and self.x.shape[0] == 2:
            self._cross = _cross(self.x[0], self.x[1])
        return self._cross


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a conj(b), elementwise, with the rounding of one `einsum` sum over frames."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("...,...->...", a, np.conj(b))


def _power(y: np.ndarray) -> np.ndarray:
    """|y|^2 of complex estimates."""
    return y.real ** 2 + y.imag ** 2


def _gain_power(g: np.ndarray, x_power: np.ndarray) -> np.ndarray:
    """|y|^2 of the estimates y = g x: g^2 |x|^2."""
    power = g * g
    power *= x_power
    return power


def _psd(powers, shape: tuple) -> np.ndarray:
    """(J, T, F) PSDs of (J, C, T, F) estimates: the channel mean of each
    source's |y|^2 (C, T, F), yielded one source at a time by `powers`."""
    psd = np.empty(shape[:1] + shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):
        for j, power in enumerate(powers):
            psd[j] = np.mean(power, axis=0)
    return psd


def _terms(per_source, shape: tuple, first: bool) -> tuple:
    """What `_SpatialSums` needs of a block of (J, C, b, F) estimates.

    `per_source` yields each source's |y_c|^2 (C, b, F) and, for stereo,
    y0 conj(y1) (b, F). Returns (psd, p, cross): the (J, b, F) PSD, then
    the terms of sum_t |y_c|^2 and sum_t y0 conj(y1). For the `first`
    block of a sweep nothing comes before it, so these are already its
    sums; for a later block they are the per-frame terms.
    Work goes one source at a time, so a whole-signal block makes no
    (J, C, T, F) temporary. Nothing here depends on other blocks, so
    blocks can be prepared in any order, on any thread.
    """
    num_sources, channels, frames, bins = shape
    kept = (bins,) if first else (frames, bins)
    psd = np.empty((num_sources, frames, bins))
    power = np.empty((num_sources, channels) + kept)
    cross = None if channels == 1 else np.empty((num_sources,) + kept, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (power_j, cross_j) in enumerate(per_source):
            psd[j] = np.mean(power_j, axis=0)
            power[j] = np.sum(power_j, axis=1) if first else power_j
            if cross is not None:
                cross[j] = np.sum(cross_j, axis=0) if first else cross_j
    if not np.all(np.isfinite(psd)):
        _overflowed()
    return psd, power, cross


def _block_terms(y: np.ndarray, first: bool) -> tuple:
    """`_terms` of complex (J, C, b, F) estimates."""
    stereo = y.shape[1] == 2
    per_source = ((_power(yj), _cross(yj[0], yj[1]) if stereo else None) for yj in y)
    return _terms(per_source, y.shape, first)


def _gain_terms(g: np.ndarray, mixture: _Mixture, first: bool) -> tuple:
    """`_terms` of the estimates y = g x of the first EM pass, from the real gains.

    g is real, so |y_c|^2 = g_c^2 |x_c|^2 and y0 conj(y1) =
    g0 g1 x0 conj(x1): the complex estimates are never formed.
    """
    x_power, x_cross = mixture.power, mixture.cross
    per_source = ((_gain_power(gj, x_power), None if x_cross is None else gj[0] * gj[1] * x_cross)
                  for gj in g)
    return _terms(per_source, g.shape, first)


class _SpatialSums:
    """The EM model step as per-bin sums over frames, fed in frame order.

    `add` takes the `_terms` of the next block of estimates and keeps
    sum_t v, sum_t |y_c|^2 and, for stereo, sum_t y0 conj(y1); `spatial`
    normalizes them into R: R_cc = sum_t |y_c|^2 and
    R01 = sum_t y0 conj(y1), each times 1 / (sum_t v + eps), with
    R10 = conj(R01) exactly Hermitian. The sums are bitwise those of one
    whole-array reduction, whatever the block sizes: numpy sums a frame
    axis of rows of two or more bins one frame at a time, so a later
    block adds its frames to all three sums in place, row by row.
    """

    def __init__(self):
        self._psd = self._power = self._cross = None  # running sums, one row per source

    def add(self, terms: tuple) -> np.ndarray:
        """Add the `_terms` of the next block; return its (J, b, F) PSD."""
        psd, power, cross = terms
        with np.errstate(over="ignore", invalid="ignore"):
            if self._psd is None:
                self._psd, self._power, self._cross = np.sum(psd, axis=1), power, cross
                return psd
            for t in range(psd.shape[1]):
                self._psd += psd[:, t]
                self._power += power[:, :, t]
                if cross is not None:
                    self._cross += cross[:, t]
        return psd

    def spatial(self, eps: float) -> _Spatial:
        """The diagonal (J, C, F) and, for stereo, R01 (J, F) of every R_j."""
        with np.errstate(over="ignore", invalid="ignore"):
            scale = 1.0 / (self._psd + eps)
            r_diag = self._power * scale[:, None]
            r01 = None if self._cross is None else self._cross * scale
        if not (np.all(np.isfinite(r_diag)) and (r01 is None or np.all(np.isfinite(r01)))):
            _overflowed()
        return r_diag, r01


def _overflowed():
    raise SingularMixCovariance(
        "covariance estimation overflowed; eps is too small for the input scale"
    )


def _require_invertible(det: np.ndarray) -> None:
    if not np.all(np.isfinite(det)) or np.any(det == 0):
        raise SingularMixCovariance(
            "mixture covariance is singular even with diagonal loading; increase eps"
        )


def _filter_step(
    psd: np.ndarray, spatial: _Spatial, x: np.ndarray, eps: float, out: np.ndarray
) -> np.ndarray:
    """Wiener step: y_j = v_j R_j (sum_k v_k R_k + eps I)^-1 x, into (J, C, T, F) `out`.

    The shared term z = (sum_k v_k R_k + eps I)^-1 x is computed once
    with the closed 1x1/2x2 inverse: real diagonal, real determinant,
    one reciprocal. Every frame is filtered on its own, so any range of
    frames can be filtered apart from the rest.
    """
    r_diag, r01 = spatial

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


def _refilter(g: np.ndarray, mixture: _Mixture, spatials: Sequence[_Spatial],
              eps: float) -> np.ndarray:
    """The estimates of some frames after the filter steps of finished EM passes.

    Starts from their mask gains `g` and the `_Mixture` of those frames;
    with no finished pass they are the masked mixture g x. An EM pass
    filters each frame with that frame's PSD and the R of the whole
    signal, so given every earlier pass's R this rebuilds the estimates
    of any range of frames. The first step's PSD comes from the gains.
    """
    if not spatials:
        return np.multiply(g, mixture.x)
    y = np.empty(g.shape, dtype=np.complex128)
    psd = _psd((_gain_power(gj, mixture.power) for gj in g), g.shape)
    _filter_step(psd, spatials[0], mixture.x, eps, out=y)
    for spatial in spatials[1:]:
        _filter_step(_psd((_power(yj) for yj in y), y.shape), spatial, mixture.x, eps, out=y)
    return y


def _em_passes(y: np.ndarray, x: np.ndarray, passes: int, eps: float) -> np.ndarray:
    """`passes` EM passes, each overwriting the (J, C, T, F) estimates `y`."""
    for _ in range(passes):
        sums = _SpatialSums()
        psd = sums.add(_block_terms(y, first=True))
        _filter_step(psd, sums.spatial(eps), x, eps, out=y)
    return y


# --- public entry points --------------------------------------------------

def initial_estimates(
    mags: Sequence[np.ndarray], mix: Spectrogram, mask_power: float = 2.0
) -> SourceSpectrogramSet:
    """Soft-mask the mixture: y_j = v_j**a / (sum_k v_k**a + eps) * x.

    All-zero bins across sources get a zero mask rather than 0/0.
    """
    _require_positive_finite("mask_power", mask_power)
    return _as_set(np.multiply(_stacked_gains(mags, mix.bins.shape, mask_power), mix.bins), mix)


def estimate_spatial_model(est: SourceSpectrogramSet, eps: float) -> List[SpatialModel]:
    """EM model step: per-source PSD and time-pooled spatial covariance.

    v_j(t, f) is the channel mean of |y_j|^2; R_j(f) sums y_j y_j^H over
    frames, normalized by the summed PSD plus eps, exactly Hermitian.
    """
    _check_channels(est.channels)
    sums = _SpatialSums()
    psd = sums.add(_block_terms(est.stacked(), first=True))
    r_diag, r01 = sums.spatial(eps)
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
    return _as_set(_filter_step(psd, (r_diag, r01), mix.bins, eps, out), mix)


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
    return _as_set(_em_passes(est.stacked(), mix.bins, cfg.iterations, cfg.eps), mix)


def mwf(
    mags: Sequence[np.ndarray], mix: Spectrogram, cfg: MwfConfig = MwfConfig()
) -> SourceSpectrogramSet:
    """Full filter: mask initialization followed by cfg.iterations EM passes.

    The first pass runs on the real mask gains; the complex masked
    mixture is formed only when there is no pass to run.
    """
    _check_channels(mix.channels)
    x = mix.bins
    g = _stacked_gains(mags, x.shape, cfg.mask_power)
    del mags  # freed here unless the caller keeps them
    if cfg.iterations == 0:
        return _as_set(np.multiply(g, x), mix)
    sums = _SpatialSums()
    psd = sums.add(_gain_terms(g, _Mixture(x), first=True))
    del g  # the first filter step needs only the PSD and R
    y = _filter_step(psd, sums.spatial(cfg.eps), x, cfg.eps,
                     out=np.empty((len(psd),) + x.shape, dtype=np.complex128))
    del psd
    return _as_set(_em_passes(y, x, cfg.iterations - 1, cfg.eps), mix)
