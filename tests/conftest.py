"""The CLI tests start ``python -m gwmirror`` in subprocesses.  pytest's
``pythonpath`` setting only reaches this process, so hand the checkout's
``src`` to the children through PYTHONPATH as well.

Five package memos keep their results in caches shared by the whole
process: ``naive_series``, the kernel chain ``series._power_rows``,
``hypergeom._ambient``, the lemma's shape tables ``loglinear._shape``
and its closed forms ``loglinear._closed_forms``.  Each test starts with
all five empty, so that a test which spoils code beneath them (say
``_int_product``, ``DSeries.exp`` or ``MultiPoly.log``) computes anew and
never reads a value that an earlier test cached.  A hypothesis test runs
many examples per test and clears a memo itself where it needs to."""

import os
from pathlib import Path

import pytest

from gwmirror import hypergeom, loglinear
from gwmirror.series import _power_rows

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def _empty_caches():
    for memo in (
        hypergeom.naive_series,
        _power_rows,
        hypergeom._ambient,
        loglinear._shape,
        loglinear._closed_forms,
    ):
        memo.cache_clear()
