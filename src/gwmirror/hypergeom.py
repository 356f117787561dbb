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
(``cohomology._linear_product``).  One loop, ``_twist_classes``, builds
both twisted series whole, the naive one and the plane-cubic one, which
stops one factor short (its degree-0 class is 1); degree d shift-adds
its l new factors into the running twist in place, O(l*r) a degree.
``ambient_I`` multiplies degree d-1, kept in a bounded cache
(``_ambient``), by (H+d)^{-(n+1)} = sum_k (-1)^k C(n+k, k) d^{n-k} H^k /
d^{2n+1}, one truncated integer product (``cohomology._int_product``).
Each degree's class is one ``CohClass`` product of the twist numerators
and ``ambient_I``, and the H-components are assembled from the
numerators (``_h_components``), with no ``Fraction`` between.
``naive_series`` keeps its last result in a typed one-entry cache, so
the two quintic routes of a crosscheck, which ask for the same
(n, l, dmax), run the twist loop once.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import comb

from .cohomology import CohClass, _check_int, _common, _int_product, _linear_product, _lowest
from .series import DSeries


def ambient_I(n: int, d: int) -> CohClass:
    """prod_{i=1}^{d} (H+i)^{-(n+1)} in Q[H]/(H^{n+1}); d = 0 gives 1.

    >>> str(ambient_I(2, 1))
    '1 - 3*H + 6*H^2'
    """
    _check_int(n=n, d=d)
    if n < 2:
        raise ValueError("ambient projective space needs n >= 2")
    if d < 0:
        raise ValueError("curve degree must be non-negative")
    for e in range(64, d, 64):  # a cold cache fills upward, recursing 64 degrees at most
        _ambient(n, e)
    return CohClass._new(*_ambient(n, d))


@lru_cache(maxsize=256)
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
    _check_int(l=l, d=d, ring_len=ring_len)
    if l < 1 or d < 0 or ring_len < 1:
        raise ValueError("need l >= 1, d >= 0, ring_len >= 1")
    return CohClass(_linear_product((1,) + (0,) * (ring_len - 1), l, range(l * d + 1)))


@lru_cache(maxsize=1, typed=True)  # typed: n = 4.0 must raise, not find n = 4
def naive_series(n: int, l: int, dmax: int) -> tuple[DSeries, ...]:
    """The q-series with index-d coefficient
    hyper_factor(l, d, n+1) * ambient_I(n, d), index d standing for
    q^{l*d}, as its H-components: entry k is the scalar series of H^k
    parts, for k = 0..n.

    Requires 1 <= l <= n+1: for larger l the anticanonical class of the
    hypersurface fails to be nef and the construction does not apply.
    The last result is kept in a one-entry cache, so callers that ask for
    the same (n, l, dmax) in a row share one tuple of series: build new
    series from it and never write to its fields.

    The quintic's degree-1 coefficient, H^0..H^4 parts:

    >>> [str(h.coeffs[1]) for h in naive_series(4, 5, 1)]
    ['0', '600', '3850', '2875', '-5750']
    """
    _check_int(n=n, l=l, dmax=dmax)
    if not 1 <= l <= n + 1:
        raise ValueError(
            f"degree l={l} exceeds n+1={n + 1}: -K_Y nef required"
        )
    return _h_components(_twist_classes(n, l, 0, dmax))


def _twist_classes(n: int, l: int, short: int, dmax: int) -> list[CohClass]:
    """The classes prod_{i=0}^{l*d-short} (l*H + i) * ambient_I(n, d) in
    Q[H]/(H^{n+1}), index d for degree d = 0..dmax: the naive series
    with short = 0, and with short = 1 the contact series, which stops
    one factor short, so its degree-0 class is the unit class; that is
    written here, not asked of ``ambient_I``, only so that the contact
    series makes no ambient_I(n, 0) call.  Each degree shift-adds into
    the twist the factors its predecessor did not reach."""
    _check_int(dmax=dmax)
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    twist, lo = (1,) + (0,) * n, 0
    classes = [CohClass._new(twist, 1)] if short else []
    for d in range(short, dmax + 1):
        hi = l * d - short + 1
        twist, lo = _linear_product(twist, l, range(lo, hi)), hi
        classes.append(CohClass._new(tuple(twist), 1) * ambient_I(n, d))
    return classes


def _h_components(classes: Sequence[CohClass]) -> tuple[DSeries, ...]:
    """The H-components of the q-series whose index-d coefficient is
    classes[d]: entry k is the scalar series of their H^k parts, built
    from the classes' numerators."""
    dens = [c._den for c in classes]
    return tuple(
        DSeries._new(*_common([c._nums[k] for c in classes], dens))
        for k in range(classes[0].ring_len)
    )
