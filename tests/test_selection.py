import pytest
from hypothesis import given, strategies as st

from triladder import fock, selection
from triladder.selection import _exchange, _nearest_exchange, _sector_of, central_quantum


def test_fock_keeps_the_sector_rule_as_an_import():
    assert fock._sector_of is _sector_of
    assert fock._nearest_exchange is _nearest_exchange
    assert fock.central_quantum is central_quantum


@given(jk=st.sampled_from([(1, 2), (2, 3), (1, 3)]), delta_n=st.integers(1, 64),
       half=st.integers(32, 10**9), odd=st.booleans())
def test_rule_admits_exactly_the_exchanges_within_one_sector(jk, delta_n, half, odd):
    j, k = jk
    n0 = 2 * half + odd
    nj = central_quantum(j, n0)
    try:
        _sector_of([(j, nj), (k, nj - delta_n)])
        shared = True
    except ValueError:
        shared = False
    try:
        admitted = _exchange(jk, delta_n) == jk
    except ValueError:
        admitted = False
    assert admitted == shared


@pytest.mark.parametrize("jk,delta_n,kind", [((1, 2), 12, "odd"), ((2, 3), 14, "odd"),
                                             ((1, 3), 27, "even"), ((1, 3), 0, "even"),
                                             ((1, 2), -13, "odd")])
def test_refused_exchange_names_the_parity(jk, delta_n, kind):
    with pytest.raises(ValueError, match=f"only at {kind} positive quantum exchanges.*"
                                         f"got delta_n = {delta_n}$"):
        _exchange(jk, delta_n)


@pytest.mark.parametrize("jk", [(2, 1), (0, 1), (1, 4), (1, 5), (2, 2), (1.5, 3)])
def test_bad_transition_refused(jk):
    with pytest.raises(ValueError, match=r"1 <= j < k <= 3"):
        _exchange(jk, 13)


def test_admitted_exchanges():
    assert _exchange((1, 2), 13) == (1, 2)
    assert _exchange([2, 3], 1) == (2, 3)
    assert _exchange((1, 3), 28) == (1, 3)
    assert selection._check_transition((1, 3)) == (1, 3)


@given(jk=st.sampled_from([(1, 2), (2, 3), (1, 3)]),
       diff=st.floats(-10.0, 200.0, allow_nan=False))
def test_map_label_is_the_nearest_admitted_exchange(jk, diff):
    label = _nearest_exchange(jk, diff)
    assert _exchange(jk, label) == jk
    for delta_n in range(1, 212):
        try:
            _exchange(jk, delta_n)
        except ValueError:
            continue
        assert abs(delta_n - diff) >= abs(label - diff)
