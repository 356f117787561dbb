"""Brute-force oracles, deliberately independent of the package.

Everything here works on plain lists of Fractions (index = power of H, or
power of the series variable) with schoolbook algorithms, so the main
implementation can be checked against a second, simpler code path.  The
one exception is ``recursion_rhs``, which puts a solved table back into
the correction recursion with the public ``DSeries`` operations only.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction
from math import comb, factorial

import pytest

from gwmirror import DSeries


def pmul(a: list[Fraction], b: list[Fraction], r: int) -> list[Fraction]:
    """Product of dense polynomials, truncated to r coefficients."""
    out = [Fraction(0)] * r
    for i, x in enumerate(a[:r]):
        for j, y in enumerate(b[: r - i]):
            out[i + j] += x * y
    return out


def ppow(a: list[Fraction], e: int, r: int) -> list[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for _ in range(e):
        out = pmul(out, a, r)
    return out


def pinv(a: list[Fraction], r: int) -> list[Fraction]:
    """Inverse by long division: solve (a * b)[m] = [m == 0] for b."""
    if a[0] == 0:
        raise ZeroDivisionError("not a unit")
    b = [Fraction(0)] * r
    b[0] = 1 / a[0]
    for m in range(1, r):
        acc = Fraction(0)
        for k in range(1, min(m, len(a) - 1) + 1):
            acc += a[k] * b[m - k]
        b[m] = -acc / a[0]
    return b


def linear(c0, c1, r: int) -> list[Fraction]:
    """The polynomial c0 + c1*H, padded to r coefficients."""
    out = [Fraction(0)] * r
    out[0] = Fraction(c0)
    if r > 1:
        out[1] = Fraction(c1)
    return out


def hyper_poly(l: int, d: int, i_from: int, r: int) -> list[Fraction]:
    """prod_{i=i_from}^{l*d} (i + l*H), truncated mod H^r."""
    out = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for i in range(i_from, l * d + 1):
        out = pmul(out, linear(i, l, r), r)
    return out


def ambient_poly(n: int, d: int) -> list[Fraction]:
    """prod_{i=1}^{d} (i + H)^{-(n+1)}, truncated mod H^{n+1}."""
    r = n + 1
    prod = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for i in range(1, d + 1):
        prod = pmul(prod, linear(i, 1, r), r)
    return pinv(ppow(prod, n + 1, r), r)


def naive_coeff(n: int, l: int, d: int, i_from: int) -> list[Fraction]:
    r = n + 1
    return pmul(hyper_poly(l, d, i_from, r), ambient_poly(n, d), r)


def localp2_coeff(d: int) -> list[Fraction]:
    """3H * prod_{i=1}^{3d-1}(i + 3H) * prod(i+H)^{-3}, mod H^3."""
    r = 3
    out = linear(0, 3, r)
    for i in range(1, 3 * d):
        out = pmul(out, linear(i, 3, r), r)
    return pmul(out, ambient_poly(2, d), r)


def lambert_w(dmax: int) -> list[Fraction]:
    """Series coefficients of W(x) = sum_{n>=1} (-n)^{n-1}/n! x^n, the
    inverse of x = w e^w."""
    return [Fraction(0)] + [
        Fraction((-n) ** (n - 1), factorial(n)) for n in range(1, dmax + 1)
    ]


def mobius(n: int) -> int:
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def bps_numbers(values: list[Fraction]) -> list[Fraction]:
    """Moebius inversion of the multiple-cover formula
    N_d = sum_{k|d} n_{d/k} / k^3, where values[d-1] is N_d.

    Returns [n_1, ..., n_dmax]; for genuine genus-zero invariants every
    n_d is an integer.
    """
    out = []
    for d in range(1, len(values) + 1):
        divisors = [k for k in range(1, d + 1) if d % k == 0]
        out.append(sum(Fraction(mobius(k), k**3) * values[d // k - 1] for k in divisors))
    return out


# -- resubstitution ----------------------------------------------------------------


def recursion_rhs(md, table, weight) -> DSeries:
    """F_1^2/(2 F_0) + sum_d w_d u_d Q^d F_0 exp(d m), m = F_1/F_0, with the
    table's values u_d put back and the case's weight w_d = weight(d);
    equals F_2 when the table solves the recursion.  The sum over d is
    F_0 times U = sum_d w_d u_d Q^d sent through Q -> Q exp(m); F_0 = 1
    when absent."""
    f0 = md.f0 if md.f0 is not None else DSeries.monomial(0, md.f1.dmax)
    m = md.f1 * f0.inv()
    u = [Fraction(0)] * (m.dmax + 1)
    for d, v in enumerate(table, start=1):
        u[d] = weight(d) * v
    return md.f1 * m * Fraction(1, 2) + f0 * DSeries(tuple(u)).substitute(m)


# -- records ----------------------------------------------------------------------


def check_record(record, **fields) -> None:
    """The contract of the package's immutable records, against a frozen
    dataclass of the same name and fields as the oracle: the fields read
    back, positional construction, field-wise == and hash, the dataclass
    repr, no equality with the twin or a plain tuple, AttributeError on
    assigning or deleting a field, and copy and pickle round trips."""
    cls, values = type(record), tuple(fields.values())
    twin = make_dataclass(cls.__name__, list(fields), frozen=True)(*values)
    assert tuple(getattr(record, name) for name in fields) == values
    again = cls(*values)
    assert again == record and not again != record
    assert hash(again) == hash(record) == hash(twin) == hash(values)
    assert repr(record) == repr(twin)
    assert record != twin and record != values
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


# -- power-summing series kernels ------------------------------------------------
#
# The package computes exp by its O(n^2) derivative recurrence and log as
# theta f / f, and reverts a change of variables by running it backwards on
# the kernels exp(d*g).  These are the textbook definitions they replaced:
# sums of truncated powers, and a fixed-point iteration that gains one
# coefficient per pass.


def exp_by_powers(g: list[Fraction], r: int) -> list[Fraction]:
    """exp(g) = sum_k g^k / k!, truncated to r coefficients; g[0] must be 0."""
    if g[0] != 0:
        raise ValueError("exp needs constant coefficient 0")
    out = [Fraction(0)] * r
    term = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for k in range(1, r + 1):
        out = [a + b for a, b in zip(out, term)]
        term = [c / k for c in pmul(term, g, r)]
    return out


def log_by_powers(f: list[Fraction], r: int) -> list[Fraction]:
    """log(f) = sum_{m>=1} (-1)^(m+1) (f-1)^m / m, truncated to r
    coefficients; f[0] must be 1."""
    if f[0] != 1:
        raise ValueError("log needs constant coefficient 1")
    u = [Fraction(0)] + list(f[1:r])
    out = [Fraction(0)] * r
    for m in range(1, r):
        out = [a + Fraction((-1) ** (m + 1), m) * b for a, b in zip(out, ppow(u, m, r))]
    return out


def substitute_by_powers(a: list[Fraction], g: list[Fraction], r: int) -> list[Fraction]:
    """sum_d a_d Q^d exp(g)^d: the series a after Q -> Q exp(g(Q)), with
    every kernel exp(g)^d formed to full length."""
    e1 = exp_by_powers(g, r)
    out = [Fraction(0)] * r
    kernel = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for d in range(r):
        for e in range(d, r):
            out[e] += a[d] * kernel[e - d]
        kernel = pmul(kernel, e1, r)
    return out


def revert_by_fixed_point(g: list[Fraction], r: int) -> list[Fraction]:
    """h with Q = Qt exp(h(Qt)) when Qt = Q exp(g(Q)): iterate
    h <- -g(Qt exp(h(Qt))), which fixes one more coefficient per pass."""
    h = [Fraction(0)] * r
    for _ in range(r - 1):
        h = [-c for c in substitute_by_powers(g, h, r)]
    return h


# -- power-summing truncated polynomials in x_1..x_v, t, z -------------------------
#
# A polynomial is a plain dict {(k_1..k_v, t_exp, z_exp): Fraction}; terms of
# total x-degree above xdeg_max are dropped.  ``MultiPoly.log``/``exp`` solve
# the Euler-operator recurrences on x-degree blocks; these are the sums of
# truncated powers they replaced.


def mp_mul(a: dict, b: dict, xdeg_max: int) -> dict:
    """Schoolbook product, truncated in x-degree, zero terms dropped."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(i + j for i, j in zip(ka, kb))
            if sum(key[:-2]) <= xdeg_max:
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def mp_add(a: dict, b: dict, scale: Fraction) -> dict:
    """a + scale * b, zero terms dropped."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + scale * c
    return {k: c for k, c in out.items() if c != 0}


def mp_partial(a: dict, pos: int) -> dict:
    """Derivative in the variable at key position pos, term by term."""
    out: dict = {}
    for k, c in a.items():
        if k[pos]:
            nk = k[:pos] + (k[pos] - 1,) + k[pos + 1 :]
            out[nk] = out.get(nk, Fraction(0)) + c * k[pos]
    return {k: c for k, c in out.items() if c != 0}


def mp_shear(a: dict, c: int) -> dict:
    """p(x, t, z + c t): t^a z^b -> sum_j C(b, j) c^j t^(a+j) z^(b-j), term
    by term, with no limit on an exponent."""
    out: dict = {}
    for k, v in a.items():
        *x, te, ze = k
        for j in range(ze + 1):
            nk = (*x, te + j, ze - j)
            out[nk] = out.get(nk, Fraction(0)) + v * comb(ze, j) * c**j
    return {k: v for k, v in out.items() if v != 0}

def mp_log_by_powers(p: dict, nvars: int, xdeg_max: int) -> dict:
    """log p = sum_{m=1..xdeg_max} (-1)^(m+1) u^m / m with u = p - 1; the
    x-degree-0 part of p must be exactly 1."""
    one = (0,) * (nvars + 2)
    if {k: c for k, c in p.items() if sum(k[:-2]) == 0} != {one: 1}:
        raise ValueError("log needs x-degree-0 part 1")
    u = {k: c for k, c in p.items() if k != one}
    out: dict = {}
    power = {one: Fraction(1)}
    for m in range(1, xdeg_max + 1):
        power = mp_mul(power, u, xdeg_max)
        out = mp_add(out, power, Fraction((-1) ** (m + 1), m))
    return out


def mp_exp_by_powers(g: dict, nvars: int, xdeg_max: int) -> dict:
    """exp g = sum_{m=0..xdeg_max} g^m / m!; every term of g must have
    positive x-degree."""
    if any(sum(k[:-2]) == 0 for k in g):
        raise ValueError("exp needs positive x-degree")
    one = (0,) * (nvars + 2)
    out = {one: Fraction(1)}
    power = {one: Fraction(1)}
    for m in range(1, xdeg_max + 1):
        power = mp_mul(power, g, xdeg_max)
        out = mp_add(out, power, Fraction(1, factorial(m)))
    return out


# -- Fraction kernels ---------------------------------------------------------------
#
# The package's kernels run on integer numerators over one common denominator
# and make no Fraction.  These are the bodies they replaced, with every
# product and sum done on Fractions.


def convolve_fractions(a: list[Fraction], b: list[Fraction], length: int) -> list[Fraction]:
    """The first ``length`` coefficients of a*b."""
    return [
        sum((a[i] * b[j - i] for i in range(j + 1)), Fraction(0)) for j in range(length)
    ]


def inverse_fractions(a: list[Fraction]) -> list[Fraction]:
    """b_0 = 1/a_0, b_m = -b_0 * sum_{k=1..m} a_k b_{m-k}."""
    b0 = 1 / Fraction(a[0])
    out = [b0]
    for m in range(1, len(a)):
        out.append(-b0 * sum((a[k] * out[m - k] for k in range(1, m + 1)), Fraction(0)))
    return out


def exp_coeffs_fractions(g: list[Fraction], scale: int, length: int) -> list[Fraction]:
    """exp(scale*g) for g_0 = 0: n E_n = scale * sum_{k=1..n} k g_k E_{n-k}."""
    e = [Fraction(1)]
    for n in range(1, length):
        s = sum((k * g[k] * e[n - k] for k in range(1, n + 1)), Fraction(0))
        e.append(s * Fraction(scale, n))
    return e


def revert_by_lagrange(g: list[Fraction], r: int) -> list[Fraction]:
    """The first r coefficients of h with Q = Qt exp(h(Qt)) when
    Qt = Q exp(g(Q)), by Lagrange-Buermann inversion (Brent & Kung, J. ACM
    1978): h_m = -(1/m) [Q^(m-1)] g'(Q) exp(-m g(Q)) = [Q^m] exp(-m g) / m."""
    return [Fraction(0)] + [exp_coeffs_fractions(g, -m, m + 1)[m] / m for m in range(1, r)]


def log_fractions(f: list[Fraction]) -> list[Fraction]:
    """log(f) for f_0 = 1: n L_n = n f_n - sum_{k=1..n-1} k L_k f_{n-k}."""
    nl = [Fraction(0)]
    for n in range(1, len(f)):
        nl.append(n * f[n] - sum((nl[k] * f[n - k] for k in range(1, n)), Fraction(0)))
    return [Fraction(0)] + [c / n for n, c in enumerate(nl) if n]


def fraction_rows(kernels: tuple[list[list[int]], int]) -> list[list[Fraction]]:
    """The rows of (integer rows, den) as lists of Fractions."""
    rows, den = kernels
    return [[Fraction(x, den) for x in row] for row in rows]


def substitute_fractions(c: list[Fraction], kernels: list[list[Fraction]]) -> list[Fraction]:
    """sum_d c_d Q^d kernels[d], truncated to len(c) coefficients."""
    out = [Fraction(0)] * len(c)
    for d, (cd, kernel) in enumerate(zip(c, kernels)):
        for e, k in enumerate(kernel[: len(c) - d], start=d):
            out[e] += cd * k
    return out


def solve_fractions(base: list[Fraction], kernels: list[list[Fraction]]) -> list[Fraction]:
    """U_1..U_dmax with base = sum_{d>=1} U_d Q^d kernels[d], the kernels'
    constant coefficients taken as 1."""
    out: list[Fraction] = []
    for e in range(1, len(base)):
        s = Fraction(0)
        for d in range(1, e):
            s += out[d - 1] * kernels[d][e - d]
        out.append(base[e] - s)
    return out


def multi_indices_recursive(nvars: int, total_max: int):
    """Multi-indices of length nvars with sum <= total_max in lexicographic
    order, by recursion on the first entry."""
    if nvars == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in multi_indices_recursive(nvars - 1, total_max - head):
            yield (head,) + tail
