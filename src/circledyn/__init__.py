"""circledyn: exact rational-arithmetic toolkit for circle dynamics.

Piecewise-linear circle maps, exactly push-forward-closed measures,
shredding perturbations with verified trapping regions, expanding-map
conjugacy charts with window perturbations, and finite-scale ergodic
classification.
"""

from .exact import Arc, mod1, circle_dist
from .plmaps import Observable, PLCircleMap
from .measures import CircleMeasure, CylinderSpec
from .partitions import ConsistentFamily, family_from_homeo, homeo_from_family
from .shredder import ShredConfig, TrappingReport, shred, verify_shredding
from .expanding import (
    ExpandingConjugacy,
    PerturbedConjugator,
    conjugate,
    expanding_map,
    rotation_companions,
    wicked_perturb,
)
from .classifier import (
    BasinDecomposition,
    WDiagnostics,
    WProtocol,
    basin_decomposition,
    classify,
    rotation_number,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "mod1",
    "circle_dist",
    "Observable",
    "PLCircleMap",
    "CircleMeasure",
    "CylinderSpec",
    "ConsistentFamily",
    "family_from_homeo",
    "homeo_from_family",
    "ShredConfig",
    "TrappingReport",
    "shred",
    "verify_shredding",
    "ExpandingConjugacy",
    "PerturbedConjugator",
    "conjugate",
    "expanding_map",
    "rotation_companions",
    "wicked_perturb",
    "BasinDecomposition",
    "WDiagnostics",
    "WProtocol",
    "basin_decomposition",
    "classify",
    "rotation_number",
    "__version__",
]
