"""Multichannel Wiener filtering.

Per-source magnitude estimates are refined into complex, spatially
consistent spectrograms. A power-ratio mask initializes the estimates;
each expectation-maximization pass then (1) re-estimates every source's
power spectral density as the channel-mean squared magnitude, (2) pools
outer products over time into a per-bin spatial covariance, and (3)
re-filters the mixture with the resulting Wiener gains. Mono and stereo
mixtures are supported; the 2x2 inversion uses the closed adjugate form.

The model step only needs per-bin sums over frames and the filter step
treats each frame on its own, so every step works on (sources,
channels, frames, bins) blocks of a few frames, and each EM pass is one
sweep over them (`_em_pass`, also run by `pipeline.run`) on the block
engine of `sweeps`, whose workspaces hold every temporary. A
spatial covariance is kept as its unique Hermitian entries: the real
diagonal (sources, channels, bins) and, for stereo, the complex
off-diagonal R01 (sources, bins), with R10 = conj(R01). The public
functions wrap these arrays in `Spectrogram` and `SpatialModel` values.

The initial estimates are y_j = g_j x with real mask gains
g_j = v_j**a / (sum_k v_k**a + eps), each power raised once. Since g_j
is real, the first pass needs only |y_jc|^2 = g_jc^2 |x_c|^2 and
y_j0 conj(y_j1) = g_j0 g_j1 x0 conj(x1): `_pass_terms` makes them from
the gains and the mixture products |x_c|^2 and x0 conj(x1), shared by
every source, or from the complex estimates of later passes, and the
complex g x is formed only when no pass runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeMismatch, SingularMixCovariance
from .core import Spectrogram, SourceSpectrogramSet, _is_int, _is_positive_finite
from .sweeps import _Sweeps, _Workspace, _blocks

_EPS_DIV = 1e-12  # guards the initialization mask against all-zero bins
_HERMITIAN_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10

# Each EM pass is a full sweep over the track: 1000 passes is already hours
# on one song, and a bound keeps a config from running without end.
_MAX_ITERATIONS = 1000

# diagonal of every R_j (J, C, F) real, R01 (J, F) complex, R10 =
# conj(R01) and the diagonal as complex, the last three None for mono
_Spatial = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]


@dataclass(frozen=True)
class MwfConfig:
    """iterations: EM passes (0 keeps the initial mask estimates);
    eps: covariance regularizer (diagonal loading); mask_power:
    exponent applied to magnitudes when building the initial mask."""

    iterations: int = 1
    eps: float = 1e-10
    mask_power: float = 2.0

    def __post_init__(self):
        if not (_is_int(self.iterations) and 0 <= self.iterations <= _MAX_ITERATIONS):
            raise ValueError(f"iterations must be an integer in [0, {_MAX_ITERATIONS}], "
                             f"got {self.iterations!r}")
        _require_positive_finite("eps", self.eps)
        _require_positive_finite("mask_power", self.mask_power)


def _require_positive_finite(name: str, value) -> None:
    if not _is_positive_finite(value):
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


def _stacked(arrays: Sequence[np.ndarray], start: int, stop: int, space, name: str,
             dtype=None) -> np.ndarray:
    """Frames start .. stop - 1 of the (..., T, F) `arrays`, stacked into
    the buffer `name` of workspace `space`."""
    blocks = [a[..., start:stop, :] for a in arrays]
    dtype = dtype or np.result_type(*blocks)
    return np.stack(blocks, out=space.take(name, (len(blocks),) + blocks[0].shape, dtype))


# --- array steps ----------------------------------------------------------

def _mask_gains(g: np.ndarray, mask_power: float, total: Optional[np.ndarray] = None) -> np.ndarray:
    """Turn J stacked (J, C, T, F) magnitudes into mask gains, in place.

    g_j = v_j**a / (sum_k v_k**a + eps), each power raised once; bins
    where every magnitude is zero get a zero gain rather than 0/0. The
    sum over sources goes into `total` (C, T, F) when given.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g **= mask_power
        total = np.sum(g, axis=0, out=total)  # in source order, one source at a time
    # every term is >= 0 or NaN, so a finite total means finite masks
    if not np.all(np.isfinite(total)):
        raise ValueError(
            f"initial masks are not finite: magnitudes ** {mask_power} overflow or "
            "the magnitudes contain non-finite values"
        )
    total += _EPS_DIV
    g /= total
    return g


class _Mixture:
    """Mixture frames x (C, T, F) and the products of them that every
    branch filtering these frames shares, each made once, when first
    asked for: |x| for models that mask the mixture magnitude, and for
    the first EM pass |x_c|^2 (C, T, F) and, for stereo, x0 conj(x1)
    (T, F), each of which overwrites the buffer "scratch" as it is made.
    They and the temporaries of every step on these frames live in
    `space`, a fresh `_Workspace` unless given. Not shared between threads."""

    def __init__(self, x: np.ndarray, space: Optional[_Workspace] = None):
        self.x = x
        self.space = space or _Workspace()
        self._magnitude = self._power = self._cross = None

    @property
    def magnitude(self) -> np.ndarray:
        if self._magnitude is None:
            self._magnitude = np.abs(self.x, out=self.space.take("magnitude", self.x.shape))
        return self._magnitude

    @property
    def power(self) -> np.ndarray:
        if self._power is None:
            self._power = _power(self.x, self.space.take("x_power", self.x.shape), self.space)
        return self._power

    @property
    def cross(self) -> Optional[np.ndarray]:
        if self._cross is None and self.x.shape[0] == 2:
            self._cross = _cross(self.x[0], self.x[1], self.space.take(
                "x_cross", self.x.shape[1:], np.complex128), self.space)
        return self._cross


def _cross(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None,
           space: Optional[_Workspace] = None) -> np.ndarray:
    """a conj(b), elementwise, with the rounding of one `einsum` sum over frames."""
    conj = None if space is None else space.take("scratch", b.shape, np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("...,...->...", a, np.conj(b, out=conj), out=out)


def _power(y: np.ndarray, out: Optional[np.ndarray] = None, space: Optional[_Workspace] = None,
           mixture: Optional[_Mixture] = None) -> np.ndarray:
    """|y|^2 of estimates y: complex, or the real mask gains g of the
    estimates g x of the `mixture` frames."""
    if not np.iscomplexobj(y):
        return _gain_power(y, mixture.power, out)
    square = None if space is None else space.take("scratch", y.shape)
    with np.errstate(over="ignore"):
        out = np.square(y.real, out=out)
        out += np.square(y.imag, out=square)
        return out


def _gain_power(g: np.ndarray, x_power: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """|y|^2 of the estimates y = g x: g^2 |x|^2."""
    power = np.multiply(g, g, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        power *= x_power
    return power


def _psd(power: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(J, b, F) PSDs of (J, C, b, F) estimates from their |y|^2: the channel mean."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.mean(power, axis=1, out=out)


def _pass_terms(y: np.ndarray, space: _Workspace, mixture: Optional[_Mixture] = None) -> tuple:
    """What `_SpatialSums` needs of a block of (J, C, b, F) estimates, once
    every frame's PSD is found finite: the per-frame terms of sum_t v
    (J, b, F), sum_t |y_c|^2 (J, C, b, F) and, for stereo, sum_t y0
    conj(y1) (J, b, F), in arrays kept for the ordered work.

    y is complex, or the real mask gains g of the first pass's estimates
    g x of the `mixture` frames: then |y_c|^2 = g_c^2 |x_c|^2 and y0
    conj(y1) = g0 g1 x0 conj(x1), and g x is never formed.
    """
    gains = not np.iscomplexobj(y)
    frames = y.shape[:1] + y.shape[2:]
    if y.shape[1] == 1:
        (power, psd), cross = space.keep((y.shape, np.float64), (frames, np.float64)), None
    else:
        power, cross, psd = space.keep((y.shape, np.float64), (frames, np.complex128),
                                       (frames, np.float64))
        if gains:  # x0 conj(x1) is made in "scratch", so before g0 g1 takes it
            x_cross, g01 = mixture.cross, space.take("scratch", frames[1:])
            with np.errstate(over="ignore", invalid="ignore"):
                for gj, cross_j in zip(y, cross):
                    np.multiply(np.multiply(gj[0], gj[1], out=g01), x_cross, out=cross_j)
        else:
            _cross(y[:, 0], y[:, 1], cross, space)
    _psd(_power(y, power, space, mixture), psd)
    if not np.all(np.isfinite(psd)):
        _overflowed()
    return psd, power, cross


class _SpatialSums:
    """The EM model step as per-bin sums over frames, fed in frame order.

    `add` takes the `_pass_terms` of the next block of estimates, which it
    overwrites, and keeps sum_t v, sum_t |y_c|^2 and, for stereo,
    sum_t y0 conj(y1); `spatial`
    normalizes them into R: R_cc = sum_t |y_c|^2 and
    R01 = sum_t y0 conj(y1), each times 1 / (sum_t v + eps), with
    R10 = conj(R01) exactly Hermitian. The sums are bitwise those of one
    whole-array `np.sum`, whatever the block sizes: numpy sums a frame
    axis of rows of two or more bins one frame at a time, so a later
    block's first row takes the running sum (addition commutes) and one
    `np.sum` over the block's frames goes on from there. The first block
    is summed by `np.sum` itself, which sets where a sum starts: from
    +0.0 in numpy 2.4, so a sum of -0.0 terms is +0.0, not a copy of a
    row, and no running sum is -0.0.
    """

    def __init__(self):
        self._sums = None  # sum_t v, sum_t |y_c|^2, sum_t y0 conj(y1) (None for mono)

    def add(self, terms: tuple) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # every term's frame axis is -2
            if self._sums is None:
                self._sums = [None if t is None else np.sum(t, axis=-2) for t in terms]
                return
            for total, t in zip(self._sums, terms):
                if total is not None:
                    t[..., 0, :] += total
                    np.sum(t, axis=-2, out=total)

    def spatial(self, eps: float) -> _Spatial:
        """The diagonal (J, C, F), R01 and R10 (J, F, for stereo) of every R_j."""
        psd, power, cross = self._sums
        with np.errstate(over="ignore", invalid="ignore"):
            scale = 1.0 / (psd + eps)
            r_diag = power * scale[:, None]
            r01 = None if cross is None else cross * scale
        if not (np.all(np.isfinite(r_diag)) and (r01 is None or np.all(np.isfinite(r01)))):
            _overflowed()
        return _spatial(r_diag, r01)


def _spatial(r_diag: np.ndarray, r01: Optional[np.ndarray]) -> _Spatial:
    """A `_Spatial` of R's diagonal and R01: R10 = conj(R01) and, for
    stereo, the diagonal cast to complex are made here, once, not in every
    filter step."""
    if r01 is None:
        return r_diag, None, None, None
    return r_diag, r01, np.conj(r01), r_diag.astype(np.complex128)


def _overflowed():
    raise SingularMixCovariance(
        "covariance estimation overflowed; eps is too small for the input scale"
    )


def _require_invertible(det: np.ndarray) -> None:
    if not np.all(np.isfinite(det)) or np.any(det == 0):
        raise SingularMixCovariance(
            "mixture covariance is singular even with diagonal loading; increase eps"
        )


def _filter_step(psd: np.ndarray, spatial: _Spatial, x: np.ndarray, eps: float,
                 out: np.ndarray, space: Optional[_Workspace] = None) -> np.ndarray:
    """Wiener step: y_j = v_j R_j (sum_k v_k R_k + eps I)^-1 x, into (J, C, T, F) `out`
    (see `_filter_sources`)."""
    for _ in _filter_sources(psd, spatial, x, eps, out, space or _Workspace()):
        pass
    return out


def _filter_sources(psd: np.ndarray, spatial: _Spatial, x: np.ndarray, eps: float,
                    out: np.ndarray, space: _Workspace):
    """Yield y_j = v_j R_j (sum_k v_k R_k + eps I)^-1 x, source by source, in
    `out[j]`, or in `out[0]` when `out` holds one (C, T, F) estimate.

    The shared term z = (sum_k v_k R_k + eps I)^-1 x is computed once
    with the closed 1x1/2x2 inverse: real diagonal, real determinant,
    one reciprocal. Every frame is filtered on its own, so any range of
    frames can be filtered apart from the rest. The (T, F) temporaries
    live in `space`. A real factor of a complex product is cast to
    complex in a buffer of `space` first: numpy would cast it itself,
    bitwise alike, but into a buffer it allocates for every call.
    """
    r_diag, r01, r10, r_diag_c = spatial

    def take(name, dtype=np.float64):
        return space.take(name, x.shape[1:], dtype)

    def mix_cov(v, r, name, dtype=np.float64):  # sum_k v_k r_k, accumulated in source order
        acc = np.multiply(v[0], r[0], out=take(name, dtype))
        term = take("scratch", dtype)
        for vk, rk in zip(v[1:], r[1:]):
            acc += np.multiply(vk, rk, out=term)
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        c00 = mix_cov(psd, r_diag[:, 0], "c00")
        c00 += eps
        if r01 is None:
            _require_invertible(c00)
            z0 = np.multiply(x[0], np.divide(1.0, c00, out=c00), out=take("z0", complex))
    if r01 is None:
        for j, v in enumerate(psd):
            y = out[j % len(out)]
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(np.multiply(v, r_diag[j, 0], out=take("scratch")), z0, out=y[0])
            yield y
        return
    psd_c = space.copy("psd_c", psd, np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        c11 = mix_cov(psd, r_diag[:, 1], "c11")
        c11 += eps
        c01 = mix_cov(psd_c, r01, "c01", complex)
        det = np.multiply(c00, c11, out=take("det"))
        norm, imag2 = space.take("scratch", (2,) + x.shape[1:])
        norm = np.square(c01.real, out=norm)
        norm += np.square(c01.imag, out=imag2)
        det -= norm
    _require_invertible(det)
    z0 = space.copy("z0", c11, np.complex128)
    z0 *= x[0]
    z0 -= np.multiply(c01, x[1], out=take("scratch", complex))
    z1 = space.copy("z1", c00, np.complex128)
    z1 *= x[1]
    conj_c01 = np.conj(c01, out=take("scratch", complex))
    z1 -= np.multiply(conj_c01, x[0], out=conj_c01)
    inv_det = space.copy("inv_det", np.divide(1.0, det, out=det), np.complex128)
    z0 *= inv_det
    z1 *= inv_det
    a, b = c01, take("scratch", complex)  # c01 is done with
    for j, v in enumerate(psd_c):
        y = out[j % len(out)]
        np.multiply(r_diag_c[j, 0], z0, out=a)
        a += np.multiply(r01[j], z1, out=b)
        np.multiply(v, a, out=y[0])
        np.multiply(r10[j], z0, out=a)
        a += np.multiply(r_diag_c[j, 1], z1, out=b)
        np.multiply(v, a, out=y[1])
        yield y


def _block_psd(y: np.ndarray, mixture: _Mixture) -> np.ndarray:
    """The (J, b, F) PSD of estimates y of the `_Mixture` frames, mask gains or complex."""
    space = mixture.space
    psd, power = space.take("psd", y.shape[:1] + y.shape[2:]), space.take("power", y.shape[1:])
    for yj, psd_j in zip(y, psd):  # one source's |y|^2 at a time, so the block stays in cache
        _psd(_power(yj, power, space, mixture)[None], psd_j[None])
    return psd


def _refilter(y: np.ndarray, mixture: _Mixture, spatials: Sequence[_Spatial], eps: float,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """The estimates of some frames after the filter steps of finished EM passes.

    `y` holds their estimates before those passes: real mask gains g,
    for the masked mixture g x of the `_Mixture` frames, whose first PSD
    comes from the gains, or complex estimates. An EM pass filters each
    frame with that frame's PSD and the R of the whole signal, so this
    rebuilds the estimates of any range of frames. They go into `out`,
    which may be complex `y` itself; by default complex `y` is
    overwritten and gains give the workspace buffer "estimates". With no
    pass, `y` is returned as it is.
    """
    if not spatials:
        return y
    if out is None:
        out = y if np.iscomplexobj(y) else mixture.space.take(
            "estimates", (len(y),) + mixture.x.shape, np.complex128)
    for k, spatial in enumerate(spatials):
        _filter_step(_block_psd(out if k else y, mixture), spatial, mixture.x, eps, out,
                     mixture.space)
    return out


# --- sweeps over blocks of frames -----------------------------------------

def _frame_blocks(sources: int, shape: tuple) -> List[Tuple[int, int]]:
    """The blocks of the frames of (C, T, F) spectra of `sources` sources:
    `sweeps._blocks` of complex (sources, C, frames, F) spectra."""
    return _blocks(shape[1], sources * shape[0] * shape[2] * 16)


def _em_pass(sweeps: _Sweeps, terms: Callable, eps: float) -> List[_Spatial]:
    """The R of one EM pass of each of several filters, in one sweep of
    `sweeps`, where `terms(start, stop)` gives, one per filter, the
    `_pass_terms` of its estimates of frames start .. stop - 1."""
    sums = []

    def add(block):
        sums.extend(_SpatialSums() for _ in block[len(sums):])
        for filter_sums, filter_terms in zip(sums, block):
            filter_sums.add(filter_terms)

    sweeps.ordered(terms, add)
    return [filter_sums.spatial(eps) for filter_sums in sums]


def _em(x: np.ndarray, num_sources: int, first: Callable, iterations: int,
        eps: float) -> np.ndarray:
    """(J, C, T, F) estimates after `iterations` EM passes over mixture x (C, T, F).

    `first(start, stop, space)` gives the estimates of frames start ..
    stop - 1 before the first pass, in either form `_refilter` takes, in
    workspace `space`. A sweep over C-ordered copies of the blocks
    filters each block with the R of the last finished pass into the
    returned array, where the next sweep filters it again in place, and,
    but for the last sweep, gives the terms of its pass.
    """
    out = np.empty((num_sources,) + x.shape, dtype=np.complex128)
    spatials = []
    sweeps = _Sweeps(_frame_blocks(num_sources, x.shape))
    space = sweeps.workspace

    def sweep(start, stop):
        mixture = _Mixture(space.copy("x", x[:, start:stop]), space)
        y = first(start, stop, space) if len(spatials) < 2 else out[:, :, start:stop]
        if spatials:
            y = _refilter(y, mixture, spatials[-1:], eps, out[:, :, start:stop])
        elif iterations == 0:  # the masked mixture g x
            np.multiply(y, mixture.x, out=out[:, :, start:stop])
        if len(spatials) < iterations:
            return [_pass_terms(y, space, mixture)]

    for _ in range(iterations):
        spatials += _em_pass(sweeps, sweep, eps)
    sweeps.ordered(sweep, lambda _: None)  # the blocks write their own output
    return out


# --- public entry points --------------------------------------------------

def initial_estimates(
    mags: Sequence[np.ndarray], mix: Spectrogram, mask_power: float = 2.0
) -> SourceSpectrogramSet:
    """Soft-mask the mixture: y_j = v_j**a / (sum_k v_k**a + eps) * x.

    All-zero bins across sources get a zero mask rather than 0/0.
    """
    return _masked(mags, mix, MwfConfig(iterations=0, mask_power=mask_power))


def estimate_spatial_model(est: SourceSpectrogramSet, eps: float) -> List[SpatialModel]:
    """EM model step: per-source PSD and time-pooled spatial covariance.

    v_j(t, f) is the channel mean of |y_j|^2; R_j(f) sums y_j y_j^H over
    frames, normalized by the summed PSD plus eps, exactly Hermitian.
    """
    _check_channels(est.channels)
    bins = [s.bins for s in est.sources]
    psd = np.empty((len(bins),) + bins[0].shape[1:])
    sweeps = _Sweeps(_frame_blocks(len(bins), bins[0].shape))
    space = sweeps.workspace

    def terms(start, stop):
        block = _pass_terms(_stacked(bins, start, stop, space, "estimates"), space)
        psd[:, start:stop] = block[0]
        return [block]

    [(r_diag, r01, r10, _)] = _em_pass(sweeps, terms, eps)
    num_sources, channels, num_bins = r_diag.shape
    cov = np.zeros((num_sources, num_bins, channels, channels), dtype=np.complex128)
    for c in range(channels):
        cov[:, :, c, c] = r_diag[:, c]
    if r01 is not None:
        cov[:, :, 0, 1] = r01
        cov[:, :, 1, 0] = r10
    return [SpatialModel(p, r) for p, r in zip(psd, cov)]


def apply_filter(
    models: Sequence[SpatialModel], mix: Spectrogram, eps: float
) -> SourceSpectrogramSet:
    """Wiener step: y_j = v_j R_j (sum_k v_k R_k + eps I)^-1 x.

    Reads the diagonal and upper triangle of each (Hermitian) R_j. Filters
    C-ordered copies of blocks of frames into the output, so beyond it
    only the blocks in flight are held.
    """
    _check_channels(mix.channels)
    for m in models:
        if m.psd.shape != mix.bins.shape[1:]:
            raise ShapeMismatch(f"psd of shape {m.psd.shape} does not match mixture "
                                f"frames and bins {mix.bins.shape[1:]}")
    cov = np.stack([m.spatial_cov for m in models])
    spatial = _spatial(np.stack([cov[:, :, c, c].real for c in range(mix.channels)], axis=1),
                       cov[:, :, 0, 1] if mix.channels == 2 else None)
    out = np.empty((len(models),) + mix.bins.shape, dtype=np.complex128)
    sweeps = _Sweeps(_frame_blocks(len(models), mix.bins.shape))
    space = sweeps.workspace

    def block(start, stop):
        psd = _stacked([m.psd for m in models], start, stop, space, "psd")
        x = space.copy("x", mix.bins[:, start:stop])
        _filter_step(psd, spatial, x, eps, out[:, :, start:stop], space)

    sweeps.ordered(block, lambda _: None)
    return _as_set(out, mix)


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
    bins = [s.bins for s in est.sources]
    return _as_set(_em(mix.bins, len(bins), lambda start, stop, space: _stacked(
        bins, start, stop, space, "estimates"), cfg.iterations, cfg.eps), mix)


def mwf(
    mags: Sequence[np.ndarray], mix: Spectrogram, cfg: MwfConfig = MwfConfig()
) -> SourceSpectrogramSet:
    """Full filter: mask initialization followed by cfg.iterations EM passes.

    The first pass runs on the real mask gains; the complex masked
    mixture is formed only when there is no pass to run.
    """
    _check_channels(mix.channels)
    return _masked(mags, mix, cfg)


def _masked(mags: Sequence[np.ndarray], mix: Spectrogram, cfg: MwfConfig) -> SourceSpectrogramSet:
    """`mwf` without the channel check: `initial_estimates` takes any channel count."""
    mags = [np.asarray(v) for v in mags]
    if not mags:
        raise ValueError("need at least one magnitude estimate")
    for v in mags:
        if v.shape != mix.bins.shape:
            raise ShapeMismatch(
                f"magnitudes of shape {v.shape} do not match mixture {mix.bins.shape}")
        if np.any(v < 0):
            raise ValueError("magnitudes must be nonnegative")

    def gains(start, stop, space):
        g = _stacked(mags, start, stop, space, "gains", np.float64)
        return _mask_gains(g, cfg.mask_power, space.take("scratch", g.shape[1:]))

    return _as_set(_em(mix.bins, len(mags), gains, cfg.iterations, cfg.eps), mix)
