"""End-to-end invariant pipelines.

Three computations share one backbone.  ``naive_series`` gives the naive
hypergeometric series of a hypersurface Y = l*H in P^n with Y's own
factor l*H in it; with that factor taken out, write it as
F_0 + F_1 H + F_2 H^2 + ..., each F_k a scalar q-series:

* quintic threefold (n = 4, l = 5) and plane cubic (n = 2, l = 3):
  corrections from curves inside Y turn the naive series into the true
  one.  Both cases solve one recursion order by order,
      F_2 = F_1^2/(2 F_0) + sum_{d>0} w_d u_d q^{ld} F_0 exp(d F_1/F_0).
  For the quintic w_d = d/5 and the unknowns u_d are the virtual counts
  n_d of degree-d rational curves on the quintic.  An independent route
  (divide by the scaling series F_0 exp(H F_1/F_0), revert the variable
  change q -> q exp(F_1/(5 F_0)), read off coefficients) must reproduce
  the same table; that route divides the naive series itself, factor
  5H and all.  The plane-cubic series stops one twist factor short and
  has no H^0 part, so there F_k is its H^k part, F_0 = 1 and w_d = 1,
  and u_d = v_d is the virtual number of degree-d rational plane curves
  meeting a smooth cubic at a single point with multiplicity 3d.  These
  repackage as local invariants K_d of the canonical bundle of P^2 via
  v_d = (-1)^d * 3d * K_d.

* low degree (l <= n-1): no corrections arise at all, so the naive series
  coefficients, factor l*H included, ARE the invariants of Y.

All recursions are solved strictly order by order in exact arithmetic.
Both twisted series come from one loop in ``hypergeom``, which grows the
twist product prod_{i=0}^{l*d-s}(l*H+i) from degree to degree: the
naive series with s = 0, the plane-cubic series with s = 1.

This module uses only the public operations of ``CohClass`` and
``DSeries``; their stored integer form belongs to ``cohomology`` and
``series``.  ``quintic_f`` takes out the factor 5 by the scalar product
with 1/5.  The recursion, divided once by F_0, reads
    (F_2 - F_1 m/2)/F_0 = U(Q exp(m)),   m = F_1/F_0,
with U = sum_{d>0} w_d u_d Q^d, so the solver is ``DSeries.unsubstitute``
by m alone; w_d is the only case data, and each case applies its own to
U's coefficients (n_d = 5 U_d/d, v_d = U_d).  The reversion route is
``DSeries.substitute`` by the reverted exponent of m, after an
H-division by F_0.  The change of variables and its kernels belong to
``series``; this module passes it series only.  ``MirrorData`` is an
immutable record (``cohomology._Record``) that forms 1/F_0 and m once,
from its fields; a table is a tuple of exact values whose entry i
belongs to curve degree i + 1.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import CohClass, _check_int, _Record
from .hypergeom import _h_components, _naive_classes, _twist_classes, naive_series
from .series import DSeries

QUINTIC_RING = 5  # cohomology of P^4
CUBIC_RING = 3  # cohomology of P^2


class MirrorData(_Record):
    """Scalar H-components F_0, F_1, F_2 of a series with corrections;
    the case, not the record, holds the weights w_d.

    ``f0`` is None for the plane-cubic case, whose series has no H^0 part;
    the recursion then reads with F_0 = 1, which is never multiplied in.
    ``inv0`` = 1/F_0 (None without F_0) and ``m`` = F_1/F_0 are formed
    here, once for every reader; they follow from the fields and are not
    fields.
    """

    __slots__ = ("f0", "f1", "f2", "inv0", "m")

    def __init__(self, f0: DSeries | None, f1: DSeries, f2: DSeries) -> None:
        self.f0, self.f1, self.f2 = f0, f1, f2
        self.inv0 = None if f0 is None else f0.inv()
        self.m = f1 if f0 is None else f1 * self.inv0

    def _key(self) -> tuple:
        # the three fields lead __slots__, so _Record's repr shows just them
        return self.f0, self.f1, self.f2


# -- the correction recursion shared by the quintic and the plane cubic --------


def _solve(md: MirrorData) -> tuple[Fraction, ...]:
    """U_d = w_d u_d from the recursion divided once by F_0: with m =
    F_1/F_0, base = (F_2 - F_1 m/2)/F_0 equals sum_d U_d Q^d exp(d m)."""
    base = md.f2 - md.f1 * md.m * Fraction(1, 2)
    if md.inv0 is not None:  # the plane cubic has F_0 = 1
        base = base * md.inv0
    return solve_correction_series(base, md.m)


# -- quintic threefold -------------------------------------------------------


def quintic_f(dmax: int) -> MirrorData:
    """F_0, F_1, F_2 of the quintic naive series with its factor 5H taken
    out: the H^{k+1} part of the series is 5 F_k.  The quintic's weight
    w_d = d/5 is applied by ``quintic_invariants``."""
    f0, f1, f2 = (h * Fraction(1, 5) for h in naive_series(4, 5, dmax)[1:4])
    return MirrorData(f0, f1, f2)


def reconstruct_p_quintic(md: MirrorData) -> tuple[DSeries, ...]:
    """H-components of the correction series P_0 = F_0 exp(H F_1/F_0) in
    Q[H]/(H^5).

    The H^k component is F_0 m^k / k! with m = F_1/F_0, so the expansion
    starts F_0 + H F_1 + (H^2/2) F_1^2/F_0.
    """
    if md.f0 is None:
        raise ValueError("needs quintic-style mirror data (F_0 present)")
    out = [md.f0]
    for k in range(1, QUINTIC_RING):
        out.append(out[-1] * md.m * Fraction(1, k))
    return tuple(out)


def quintic_invariants(dmax: int) -> tuple[Fraction, ...]:
    """Virtual counts n_1..n_dmax of rational curves on the quintic,
    solved degree by degree from the H^3 component of the corrected series:
    U_d = (d/5) n_d.

    >>> quintic_invariants(3)
    (Fraction(2875, 1), Fraction(4876875, 8), Fraction(8564575000, 27))
    """
    return tuple(5 * u / d for d, u in enumerate(_solve(quintic_f(dmax)), start=1))


def quintic_crosscheck(dmax: int) -> tuple[Fraction, ...]:
    """The same table by the reversion route.

    Divide the naive series (which carries the factor 5H) by the
    scaling series P_0 and rewrite it in the transformed variable; for
    d >= 1 the index-d coefficient is the true 1-point class of the
    quintic, with H^0..H^2 parts zero and H^3 part d*n_d.
    """
    md = quintic_f(dmax)
    p0 = reconstruct_p_quintic(md)
    # H-components of the quotient by truncated convolution over H powers,
    # q_k = (N_k - sum_{j=1..k} p0_j q_{k-j}) / F_0 for the naive series N;
    # only H^0..H^3 are read, so it stops there.
    quotient: list[DSeries] = []
    for k, acc in enumerate(naive_series(4, 5, dmax)[:4]):
        for j in range(1, k + 1):
            acc = acc - p0[j] * quotient[k - j]
        quotient.append(acc * md.inv0)
    # In Q = q^5 the change q -> q exp(F_1/(5 F_0)) reads Q -> Q exp(F_1/F_0).
    # revert_exp runs on the kernels of m, and its round trip builds and
    # keeps those of h, so these substitutions build no further chain.
    h = md.m.revert_exp()
    corrected = [c.substitute(h) for c in quotient]
    entries = []
    for d in range(1, dmax + 1):
        residue = [c.coeff(d) for c in corrected[:3]]
        if any(residue):
            raise RuntimeError(
                "reversion route left a low H-power residue at degree "
                f"{d}: H^0..H^2 parts {', '.join(map(str, residue))}"
            )
        entries.append(corrected[3].coeff(d) / d)
    return tuple(entries)


# -- plane cubic / local P^2 --------------------------------------------------


def localp2_f(dmax: int) -> MirrorData:
    """F_1, F_2 of the plane-cubic series
    sum_{d>0} 3H prod_{i=1}^{3d-1}(3H+i) / prod_{i=1}^{d}(H+i)^3 q^{3d};
    its weight is w_d = 1, so U_d is the count itself."""
    _check_int(dmax=dmax)
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    # The twist product prod_{i=0}^{3d-1}(3H+i) stops one factor short of
    # hyper_factor(3, d, 3): the final multiplicity step is the invariant
    # being defined, not a factor of the series.  The series has no
    # degree-0 term.
    zero = CohClass((0,) * CUBIC_RING)
    _, f1, f2 = _h_components([zero] + _twist_classes(2, 3, 1, range(1, dmax + 1)))
    return MirrorData(None, f1, f2)


def localp2_invariants(dmax: int) -> tuple[Fraction, ...]:
    """Virtual counts of degree-d rational plane curves with a single point
    of multiplicity-3d contact with a smooth cubic: v_d = U_d."""
    return _solve(localp2_f(dmax))


def localp2_kd(dmax: int) -> tuple[Fraction, ...]:
    """Local invariants K_d of the canonical bundle of P^2, repackaging the
    contact counts via K_d = (-1)^d v_d / (3d)."""
    return tuple(
        v / ((-1) ** d * 3 * d) for d, v in enumerate(localp2_invariants(dmax), start=1)
    )


# -- correction-free low degrees ----------------------------------------------


def naive_invariants(n: int, l: int, dmax: int) -> tuple[CohClass, ...]:
    """1-point classes of a degree-l hypersurface in P^n for l <= n-1, where
    no corrections arise: the d-th entry is
    prod_{i=0}^{l*d}(l*H+i) * ambient_I(n, d) for d = 1..dmax, the
    index-d coefficient of ``naive_series(n, l, dmax)``.

    The degree-0 class (which is Y itself by convention) is not emitted.
    """
    if not 1 <= l <= n - 1:
        raise ValueError(
            f"degree l={l} out of range: correction terms vanish only for "
            f"hypersurfaces of degree at most n-1={n - 1} in P^{n}"
        )
    return tuple(_naive_classes(n, l, dmax)[1:])


# -- shared solver -------------------------------------------------------------


def solve_correction_series(base: DSeries, m: DSeries) -> tuple[Fraction, ...]:
    """The coefficients U_1..U_dmax of U with base = U(Q exp(m)), that is
    base = sum_{d>=1} U_d Q^d exp(d*m); a case reads its u_d = U_d/w_d.

    U is ``base.unsubstitute(m)``; m must share base's dmax and have zero
    constant term, and base must have none either, since U has none;
    that is checked before any work.
    """
    if base.coeff(0):
        raise ValueError("base must have zero constant term")
    return base.unsubstitute(m).coeffs[1:]
