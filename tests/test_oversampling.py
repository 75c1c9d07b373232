"""Half-spectrum zero padding against the full-complex oversampling it replaces.

``_oversample_full_complex`` is the oversampling formula ``HalfSpectrum.inv_fine``
replaced: a full-complex
``fft2``, an ``fftshift``ed zero-padded copy with the unpaired Nyquist row and
column split evenly across ``+-N/2``, and a full-complex ``ifft2``.  The
continuation integrand of the Eulerian solver is checked against the six
oversampled derivative fields it was computed from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd2d import eulerian as eul
from mhd2d.fields import random_band_field
from mhd2d.grid import RealField, half_spectrum, make_grid

TWO_PI = 2.0 * np.pi


def _oversample_full_complex(samples: np.ndarray, factor: int) -> np.ndarray:
    nx, ny = samples.shape
    c = np.fft.fftshift(np.fft.fft2(samples) / (nx * ny))
    fx, fy = factor * nx, factor * ny
    pad = np.zeros((fx, fy), dtype=complex)
    x0, y0 = (fx - nx) // 2, (fy - ny) // 2
    pad[x0 : x0 + nx, y0 : y0 + ny] = c
    pad[x0 + nx, y0 : y0 + ny] = 0.5 * pad[x0, y0 : y0 + ny]
    pad[x0, y0 : y0 + ny] *= 0.5
    pad[x0 : x0 + nx + 1, y0 + ny] = 0.5 * pad[x0 : x0 + nx + 1, y0]
    pad[x0 : x0 + nx + 1, y0] *= 0.5
    return np.real(np.fft.ifft2(np.fft.ifftshift(pad) * (fx * fy)))


def _rel(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from([(16, 16), (32, 16), (16, 48), (24, 8)]),
    batch=st.sampled_from([(), (3,), (2, 2)]),
)
def test_inv_fine_matches_full_complex_oversample(seed, shape, batch):
    """White-noise samples, so every mode is live, the Nyquist ones included."""
    g = make_grid(*shape, TWO_PI, 3.0)
    c = half_spectrum(g)
    a = np.random.default_rng(seed).standard_normal(batch + shape)
    fine = c.inv_fine(c.fwd(a))
    assert fine.shape == batch + (2 * shape[0], 2 * shape[1])
    for idx in np.ndindex(*batch):
        assert _rel(fine[idx], _oversample_full_complex(a[idx], 2)) <= 1e-14


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([32, 64]))
def test_blowup_integrand_matches_six_oversampled_fields(seed, n):
    g = make_grid(n, n, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    rng = np.random.default_rng(seed)
    psi, u1, u2 = (random_band_field(g, rng, 1.0, n / 4.0, 1e-2) for _ in range(3))
    u = eul.leray_project((u1, u2))
    state = eul.EulerState(psi, u, RealField(g, np.zeros(g.shape)), 0.0)

    def fine_grad(f):
        fh = c.fwd(f.samples)
        return (_oversample_full_complex(c.inv(ik * fh), 2) for ik in (c.ik1, c.ik2))

    gp1, gp2 = fine_grad(psi)
    acc = None
    for comp in u:
        g1, g2 = fine_grad(comp)
        acc = g1**2 + g2**2 if acc is None else acc + g1**2 + g2**2
    ref = float(np.max(np.sqrt(acc))) + float(np.max(gp1**2 + gp2**2))
    got = eul._blowup_hat(c, *(c.fwd(f.samples) for f in (state.psi, *state.u)))
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("n", [32, 128, 256])
@pytest.mark.parametrize("seed", [0, 1])
def test_blowup_hat_matches_the_six_field_stack_bit_for_bit(n, seed):
    """``_blowup_hat`` takes its six derivatives to the finer grid one field at
    a time; on random dealiased states it equals the evaluation on one stack
    of six, bit for bit."""
    g = make_grid(n, n, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    rng = np.random.default_rng(seed)
    psih, u1h, u2h = (c.fwd(rng.standard_normal(g.shape)) * c.deal for _ in range(3))
    gp1, gp2, d1u1, d2u1, d1u2, d2u2 = c.inv_fine(
        np.stack([c.ik1 * psih, c.ik2 * psih, c.ik1 * u1h, c.ik2 * u1h, c.ik1 * u2h, c.ik2 * u2h])
    )
    grad_psi_sq = float(np.max(gp1**2 + gp2**2))
    stacked = float(np.max(np.sqrt(((d1u1**2 + d2u1**2) + d1u2**2) + d2u2**2))) + grad_psi_sq
    assert eul._blowup_hat(c, psih, u1h, u2h) == stacked
