"""The CLI tests start ``python -m gwmirror`` in subprocesses.  pytest's
``pythonpath`` setting only reaches this process, so hand the checkout's
``src`` to the children through PYTHONPATH as well.

``naive_series`` keeps its results in a cache shared by the whole
process.  Each test starts with it empty, so that a test which spoils
code beneath it computes the series anew and never reads a series that
an earlier test cached."""

import os
from pathlib import Path

import pytest

from gwmirror.hypergeom import naive_series

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def _empty_naive_series_cache():
    naive_series.cache_clear()
