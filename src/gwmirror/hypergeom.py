"""Hypergeometric building blocks for hypersurfaces in projective space.

For a degree-l hypersurface Y in P^n (cohomology class Y = l*H) the three
ingredients are:

* ``ambient_I(n, d)``: the degree-d coefficient of the genus-zero 1-point
  series of P^n itself, prod_{i=1}^{d} (H+i)^{-(n+1)}.
* ``hyper_factor(l, d, ring_len)``: the finite twist product
  prod_{i=0}^{l*d} (l*H + i) that raises the tangency multiplicity
  to Y one step at a time; its i = 0 factor l*H is the class of Y itself.
* ``naive_series(n, l, dmax)``: their product as a q-series, the
  generating series Y would have if reducible-curve corrections never
  contributed, returned as its n+1 scalar H-components.

Each linear factor is one O(r) integer shift-add in a ring of length r
(``cohomology._linear_product``).  One loop, ``_twist_classes``, grows
every twist product from degree to degree, for ``naive_series`` and for
the plane-cubic series, which stops one factor short: degree d shift-adds
its l new factors and multiplies them in by one truncated integer product
(``cohomology._int_product``), O(l*r + r^2) a degree.  ``ambient_I``
multiplies degree d-1, kept in a bounded cache (``_ambient``), by
(H+d)^{-(n+1)} = sum_k (-1)^k C(n+k, k) d^{n-k} H^k / d^{2n+1}, one
such product.  Each degree's class is one ``CohClass`` product of the
twist numerators and ``ambient_I``, and the H-components are assembled
from the numerators (``_h_components``), with no ``Fraction`` between.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import comb

from .cohomology import CohClass, _common, _int_product, _linear_product, _lowest
from .series import DSeries


def ambient_I(n: int, d: int) -> CohClass:
    """prod_{i=1}^{d} (H+i)^{-(n+1)} in Q[H]/(H^{n+1}); d = 0 gives 1.

    >>> str(ambient_I(2, 1))
    '1 - 3*H + 6*H^2'
    """
    if n < 2:
        raise ValueError("ambient projective space needs n >= 2")
    if d < 0:
        raise ValueError("curve degree must be non-negative")
    for e in range(64, d, 64):  # a cold cache fills upward, recursing 64 degrees at most
        _ambient(n, e)
    return CohClass._new(*_ambient(n, d))


@lru_cache(maxsize=256, typed=True)  # typed: n = 2.0 must raise, not find n = 2
def _ambient(n: int, d: int) -> tuple[tuple[int, ...], int]:
    """The stored form (nums, den) of ambient_I(n, d), one step from d-1."""
    if d == 0:
        return (1,) + (0,) * n, 1
    nums, den = _ambient(n, d - 1)
    step = [(-1) ** k * comb(n + k, k) * d ** (n - k) for k in range(n + 1)]
    return _lowest(_int_product(nums, step, n + 1), den * d ** (2 * n + 1))


def hyper_factor(l: int, d: int, ring_len: int) -> CohClass:
    """prod_{i=0}^{l*d} (l*H + i) in Q[H]/(H^ring_len); d = 0 gives the
    single factor l*H."""
    if l < 1 or d < 0 or ring_len < 1:
        raise ValueError("need l >= 1, d >= 0, ring_len >= 1")
    return CohClass(_linear_product(ring_len, l, range(l * d + 1)))


def naive_series(n: int, l: int, dmax: int) -> tuple[DSeries, ...]:
    """The q-series with index-d coefficient
    hyper_factor(l, d, n+1) * ambient_I(n, d), graded with step l,
    as its H-components: entry k is the scalar series of H^k parts,
    for k = 0..n.

    Requires 1 <= l <= n+1: for larger l the anticanonical class of the
    hypersurface fails to be nef and the construction does not apply.

    The quintic's degree-1 coefficient, H^0..H^4 parts:

    >>> [str(h.coeffs[1]) for h in naive_series(4, 5, 1)]
    ['0', '600', '3850', '2875', '-5750']
    """
    return _h_components(_naive_classes(n, l, dmax), l)


def _naive_classes(n: int, l: int, dmax: int) -> list[CohClass]:
    """The coefficients of ``naive_series(n, l, dmax)`` as classes, index d
    for degree d, after the same checks."""
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    if not 1 <= l <= n + 1:
        raise ValueError(
            f"degree l={l} exceeds n+1={n + 1}: -K_Y nef required"
        )
    return _twist_classes(n, l, 0, range(dmax + 1))


def _twist_classes(n: int, l: int, short: int, degrees: range) -> list[CohClass]:
    """prod_{i=0}^{l*d-short} (l*H + i) * ambient_I(n, d) in Q[H]/(H^{n+1})
    for each d of the consecutive ``degrees``; each degree multiplies the
    twist by the factors its predecessor did not reach."""
    twist, lo, classes = (1,) + (0,) * n, 0, []
    for d in degrees:
        hi = l * d - short + 1
        twist = _int_product(twist, _linear_product(n + 1, l, range(lo, hi)), n + 1)
        lo = hi
        classes.append(CohClass._new(tuple(twist), 1) * ambient_I(n, d))
    return classes


def _h_components(classes: Sequence[CohClass], step: int) -> tuple[DSeries, ...]:
    """The H-components of the q-series whose index-d coefficient is
    classes[d]: entry k is the scalar series of their H^k parts, built
    from the classes' numerators."""
    dens = [c._den for c in classes]
    return tuple(
        DSeries._new(*_common([c._nums[k] for c in classes], dens), step)
        for k in range(classes[0].ring_len)
    )
