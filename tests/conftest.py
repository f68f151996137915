import numpy as np
import pytest
from scipy.special import roots_hermite

from triladder import ModelParams
import triladder.coupling as coupling


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


# Gauss-Hermite reference for the bare derivative-coupling elements.  The
# dimensionless oscillator (1/2)(-d^2/dy^2 + y^2) has orthonormal
# eigenfunctions phi_n with the three-term recurrence
#     phi_{n+1}(y) = sqrt(2/(n+1)) * y * phi_n(y) - sqrt(n/(n+1)) * phi_{n-1}(y)
# and the ladder identity phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}.

#: rebase the shared power-of-two exponent roughly this often during recurrence
_REBASE_EVERY = 16

_LOG_PI_QUARTER = 0.25 * np.log(np.pi)
_LOG2 = np.log(2.0)

#: coupling functions are only evaluated this far beyond the classical turning
#: point; eigenfunction products there are already below double precision
_TURNING_MARGIN = 12.0


def eigenfunction_rows(y, rows):
    """Evaluate phi_k(y) for the requested quantum numbers ``rows``.

    The recurrence runs upward on the eigenfunctions themselves while carrying
    a per-point power-of-two exponent, so evaluation stays correct far outside
    the classically allowed region where phi_0 alone would underflow.  Values
    that genuinely fall below the double range materialize as 0.

    Returns an array of shape ``(len(rows), y.size)``.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rows = [int(k) for k in rows]
    if any(k < 0 for k in rows):
        raise ValueError(f"quantum numbers must be >= 0, got {rows}")
    kmax = max(rows)
    want = {}
    for pos, k in enumerate(rows):
        want.setdefault(k, []).append(pos)
    out = np.zeros((len(rows), y.size))

    log2_phi0 = (-0.5 * y * y - _LOG_PI_QUARTER) / _LOG2
    expo = np.floor(log2_phi0)
    cur = np.exp2(log2_phi0 - expo)
    prev = np.zeros_like(cur)
    expo = expo.astype(np.int64)

    def emit(k, mantissa):
        for pos in want.get(k, ()):
            out[pos] = np.ldexp(mantissa, np.clip(expo, -2100, 2100).astype(np.int32))

    emit(0, cur)
    for k in range(kmax):
        cur, prev = (np.sqrt(2.0 / (k + 1)) * y * cur
                     - np.sqrt(k / (k + 1.0)) * prev), cur
        if (k + 1) % _REBASE_EVERY == 0:
            _, shift = np.frexp(cur)
            shift = shift.astype(np.int64)
            scale = np.exp2(-shift.astype(float))
            cur = cur * scale
            prev = prev * scale
            expo = expo + shift
        emit(k + 1, cur)
    return out


def derivative_from_rows(n, row_below, row_above):
    """phi_n'(y) from the neighbouring eigenfunctions via the ladder identity."""
    d = -np.sqrt((n + 1) / 2.0) * row_above
    if n > 0:
        d = d + np.sqrt(n / 2.0) * row_below
    return d


def product_quadrature(order):
    """Quadrature integrating products of oscillator eigenfunctions.

    Returns nodes ``y`` and weights ``w`` such that sum(w * g(y)) equals
    integral g(y) dy exactly whenever g = p(y) * exp(-y^2) with p a polynomial
    of degree <= 2*order - 1.  The weights are the Gauss-Hermite ones with the
    Gaussian divided out, computed through the Christoffel identity
    w_i = 1 / (order * phi_{order-1}(y_i)^2), which stays in range at any
    order because the eigenfunction is evaluated at quadrature nodes only.
    """
    order = int(order)
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    y = roots_hermite(order)[0]
    phi = eigenfunction_rows(y, [order - 1])[0]
    return y, 1.0 / (order * phi * phi)


def _hermite_terms(params, pair, n, m, order):
    """Quadrature value of integral F * (phi_n phi_m' - phi_n' phi_m) dy.

    The integrand is the integrated-by-parts form of the derivative-coupling
    kernel; boundary terms vanish for bound states.  Also returns the
    magnitude sum of the terms as the noise floor of the refinement.
    """
    y, w = product_quadrature(order)
    need = sorted({n, m, abs(n - 1), n + 1, abs(m - 1), m + 1})
    row = dict(zip(need, eigenfunction_rows(y, need)))
    dn = derivative_from_rows(n, row[abs(n - 1)], row[n + 1])
    dm = derivative_from_rows(m, row[abs(m - 1)], row[m + 1])
    inside = np.abs(y) <= np.sqrt(2.0 * max(n, m) + 1.0) + _TURNING_MARGIN
    f = np.zeros(y.size)
    f[inside] = coupling._coupling_batch(params, y[inside])[:, pair[0] - 1, pair[1] - 1]
    terms = w * f * (row[n] * dm - dn * row[m])
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def hermite_element(params, j, k, n, m):
    """Gauss-Hermite reference for ``v_matrix_element(params, j, k, n, m)``.

    The quadrature order starts at 2 max(n, m) + 64 and doubles through the
    library's ``_refine`` until the value is stable to 1e-8 relative.
    """
    sigma, pair = coupling._ordered_pair(j, k, n, m)
    value = coupling._refine(lambda order: _hermite_terms(params, pair, n, m, order),
                             2 * max(n, m) + 64,
                             f"Gauss-Hermite element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value
