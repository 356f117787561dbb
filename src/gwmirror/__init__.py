"""Exact genus-zero Gromov-Witten invariants of hypersurfaces via the
mirror transformation, with a side lab for the power-series identities
behind it.  Everything is exact rational arithmetic; no floats anywhere.
"""

from .cohomology import CohClass
from .hypergeom import ambient_I, hyper_factor, naive_series
from .loglinear import (
    LemmaConfig,
    build_p,
    build_q,
    check_a1,
    check_a2,
    check_closed_forms,
    sample_config,
)
from .mirror import (
    MirrorData,
    localp2_f,
    localp2_invariants,
    localp2_kd,
    naive_invariants,
    quintic_crosscheck,
    quintic_f,
    quintic_invariants,
    reconstruct_p_quintic,
    solve_correction_series,
)
from .multipoly import MultiPoly
from .series import DSeries

__version__ = "0.1.0"

__all__ = [
    "CohClass",
    "DSeries",
    "MultiPoly",
    "MirrorData",
    "LemmaConfig",
    "ambient_I",
    "hyper_factor",
    "naive_series",
    "quintic_f",
    "quintic_invariants",
    "quintic_crosscheck",
    "reconstruct_p_quintic",
    "localp2_f",
    "localp2_invariants",
    "localp2_kd",
    "naive_invariants",
    "solve_correction_series",
    "build_p",
    "build_q",
    "check_a1",
    "check_a2",
    "check_closed_forms",
    "sample_config",
]
