import numpy as np
import pytest

from triladder import ModelParams


@pytest.fixture
def ladder():
    """The workhorse model: gaps of 11 and 13 oscillator quanta, huge n0."""
    return ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)


@pytest.fixture
def rng():
    return np.random.default_rng(987231)


def random_params(rng, n0=100, max_coupling=1.5):
    e1 = rng.uniform(-5.0, 5.0)
    e2 = e1 + rng.uniform(0.5, 15.0)
    e3 = e2 + rng.uniform(0.5, 15.0)
    return ModelParams(e1, e2, e3, rng.uniform(0.0, max_coupling),
                       rng.uniform(0.0, max_coupling), n0)


def _sinc_kinetic(npts, dx):
    """Infinite-order symmetric central-difference Laplacian (times -1/2).

    Entries of (1/2) * (-d^2/dy^2) discretized on a uniform grid; exact for
    band-limited functions up to the grid Nyquist wavenumber pi/dx.  The
    grid references of the tests build their one-dimensional problems on it.
    """
    i = np.arange(npts)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(diff == 0, np.pi**2 / 3.0, 2.0 * (-1.0) ** diff / diff.astype(float) ** 2)
    return t / (2.0 * dx * dx)


def _count_nodes(vec):
    """Sign changes of a grid eigenfunction.

    Samples below 1e-6 of the peak are ignored: the sinc basis rings at about
    1e-8 relative in the classically forbidden region, while genuine lobes
    keep at least one sample far above this cut.
    """
    keep = np.abs(vec) > 1e-6 * np.max(np.abs(vec))
    s = np.sign(vec[keep])
    return int(np.sum(s[1:] * s[:-1] < 0))
