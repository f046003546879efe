"""Ascending runs in Cayley trees and random mappings.

Exact counting through Stirling numbers, the marked-tree/mapping and
run-partition bijections, exact truncated series for the generating
functions, singularity and limit-law constants, and seeded Monte Carlo
validation of the Gaussian limit.

Only ``kernels`` and ``montecarlo`` import numpy when they load, so
importing the package, parsing arguments and every command but ``mc``,
``verify-all`` and ``table --oracle`` run without numpy.  The package
resolves those two modules, and montecarlo's exports, on first access
(``__getattr__``).
"""

import importlib

from .asymptotics import (
    CltConstants,
    SingularityData,
    clt_constants,
    lambert_w,
    singularity_data,
)
from .bijections import (
    InvalidLinkSequenceError,
    MarkedTree,
    OrderedSetPartition,
    RootPath,
    count_valid_pairs,
    decode_partition,
    encode_partition,
    forbidden_links,
    make_partition,
    mapping_to_tree,
    right_to_left_maxima,
    root_path,
    tree_to_mapping,
)
from .config import Config, McTolerances, load_config
from .core import (
    CayleyTree,
    ComponentDecomposition,
    CycleDetectedError,
    InvalidTreeError,
    LabelOutOfRangeError,
    Mapping,
    MultipleRootsError,
    NoRootError,
    components,
    cyclic_nodes,
    load_mapping,
    load_tree,
    make_mapping,
    make_tree,
    preimages,
)
from .exact import (
    CountTable,
    ExactMoments,
    SizeTooLargeError,
    brute_force_tables,
    exact_moments,
    mapping_run_table,
    mapping_runs,
    stirling2,
    tree_run_table,
    tree_runs,
    tree_runs_alternating,
)
from .runs import RunProfile, count_ascents, run_starts_mapping, run_starts_tree
from .series import (
    BivariateSeries,
    auxiliary_series,
    check_aux_tree_relation,
    check_exp_connected_is_mapping,
    check_mapping_from_tree_derivative,
    connected_run_table,
    connected_series,
    mapping_series,
    pde_residual,
    series_count_table,
    tree_series,
)

__version__ = "0.1.0"

_LAZY_MODULES = ("kernels", "montecarlo")
_MONTECARLO_EXPORTS = (
    "DegenerateVarianceError",
    "NormalityReport",
    "RunStatistics",
    "normality_check",
    "run_statistics",
    "sample_mapping",
    "sample_tree",
)


def __getattr__(name: str):
    """The numpy-backed modules and montecarlo's exports, imported on first access.

    montecarlo's attribute is looked up afresh on every access and never
    bound here, so a name patched in montecarlo is the name seen here.
    """
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MONTECARLO_EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.montecarlo"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULES, *_MONTECARLO_EXPORTS})
