"""Hypothesis strategies and a CohClass helper shared by the kernel tests."""

from fractions import Fraction

from hypothesis import strategies as st

from gwmirror import CohClass

# Mixed signs, and denominators from 1 up to 2^64, so that the common
# denominator of a kernel's operands and outputs changes from one entry to
# the next and the integer numerators must be rescaled.
wide_fractions = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
)


# Numerators and denominators up to 10^6, so that the common denominators of
# the operands differ and every sum and product must rescale.
million = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


def hpow(k: int, ring_len: int) -> CohClass:
    """H^k in Q[H]/(H^ring_len) from its coefficient tuple (0 if k >= ring_len)."""
    return CohClass(tuple(int(i == k) for i in range(ring_len)))
