"""The CLI tests start ``python -m gwmirror`` in subprocesses.  pytest's
``pythonpath`` setting only reaches this process, so hand the checkout's
``src`` to the children through PYTHONPATH as well.

``naive_series`` and the kernel chain ``series._power_rows`` keep their
results in caches shared by the whole process.  Each test starts with
both empty, so that a test which spoils code beneath them (say
``_int_product`` or ``DSeries.exp``) computes anew and never reads a
series or a chain that an earlier test cached."""

import os
from pathlib import Path

import pytest

from gwmirror.hypergeom import naive_series
from gwmirror.series import _power_rows

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def _empty_caches():
    naive_series.cache_clear()
    _power_rows.cache_clear()
