"""Kernel-independent fast summation with greedy per-level interpolation."""

from .fmm import (
    ParticleSystem,
    SummationPlan,
    ToleranceNotReachedWarning,
    direct_sum,
    evaluate,
)
from .kernels import Kernel, builtin_kernel_names, make_builtin_kernel
from .operators import (
    CacheCorruptError,
    CacheError,
    CacheKey,
    CacheMismatchError,
    CacheVersionError,
    OperatorCache,
    assemble_l2l,
    assemble_m2l,
    assemble_m2m,
    build_level_eims,
    build_operator_cache,
    load_cache,
    save_cache,
)
from .tree import (
    BoxId,
    TreeConfig,
    build_tree,
    interaction_list,
    transfer_offsets,
)

__version__ = "0.1.0"

__all__ = [
    "BoxId",
    "CacheCorruptError",
    "CacheError",
    "CacheKey",
    "CacheMismatchError",
    "CacheVersionError",
    "Kernel",
    "OperatorCache",
    "ParticleSystem",
    "SummationPlan",
    "ToleranceNotReachedWarning",
    "TreeConfig",
    "assemble_l2l",
    "assemble_m2l",
    "assemble_m2m",
    "build_level_eims",
    "build_operator_cache",
    "build_tree",
    "builtin_kernel_names",
    "direct_sum",
    "evaluate",
    "interaction_list",
    "load_cache",
    "make_builtin_kernel",
    "save_cache",
    "transfer_offsets",
]
