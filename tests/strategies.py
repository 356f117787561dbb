"""Hypothesis strategies shared by the kernel tests."""

from fractions import Fraction

from hypothesis import strategies as st

# Mixed signs, and denominators from 1 up to 2^64, so that the common
# denominator of a kernel's operands and outputs changes from one entry to
# the next and the integer numerators must be rescaled.
wide_fractions = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
)
