"""Which states couple: the parity sectors and the one quantum-exchange rule.

The Hamiltonian conserves the parity of level + oscillator quantum, so a (j, k)
resonance joins (j, n) and (k, n - delta_n) only when delta_n = k - j (mod 2).
Plain Python, so the contour path loads no scipy.
"""


def _check_level(j):
    if j not in (1, 2, 3):
        raise ValueError(f"level index must be 1, 2 or 3, got {j}")


def _check_transition(transition):
    """``(j, k)`` when it names levels 1 <= j < k <= 3, else ValueError."""
    j, k = transition
    if not (j in (1, 2, 3) and k in (1, 2, 3) and j < k):
        raise ValueError(f"transition must be two levels (j, k) with 1 <= j < k <= 3, "
                         f"got {tuple(transition)}")
    return j, k


def _exchange(transition, delta_n):
    """``(j, k)`` when the transition couples at ``delta_n`` quanta, else ValueError."""
    j, k = _check_transition(transition)
    if delta_n <= 0 or (delta_n - (k - j)) % 2:
        kind = "odd" if (k - j) % 2 else "even"
        raise ValueError(f"the ({j},{k}) transition is resonant only at {kind} positive "
                         f"quantum exchanges, where (j, n) and (k, n - delta_n) share one "
                         f"parity sector; got delta_n = {delta_n}")
    return j, k


def _nearest_exchange(transition, diff):
    """The exchange ``_exchange`` admits nearest the transition energy ``diff``."""
    j, k = transition
    return max(k - j, 2 * int(round((diff - (k - j)) / 2.0)) + k - j)


def _sector_of(which):
    """The parity sector of the (level, n) labels ``which``: level + n even or odd.

    ValueError when the labels lie in different sectors: such states are not
    coupled, so they cross exactly, and no sweep or gap can join them.
    """
    bits = {(j + nq) % 2 for j, nq in which}
    if len(bits) != 1:
        raise ValueError(f"states {which} must share one parity sector; "
                         f"states of different sectors do not couple")
    return "even" if bits.pop() == 0 else "odd"


def central_quantum(level, n0):
    """Quantum number n nearest n0 (n0 or n0 + 1) with level + n even: (level, n)
    and every partner (k, n - delta_n) that ``_exchange`` admits are in the even sector."""
    return n0 if (level + n0) % 2 == 0 else n0 + 1
