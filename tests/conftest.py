"""The CLI tests start ``python -m gwmirror`` in subprocesses.  pytest's
``pythonpath`` setting only reaches this process, so hand the checkout's
``src`` to the children through PYTHONPATH as well."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
