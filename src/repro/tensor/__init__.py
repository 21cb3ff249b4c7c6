"""Dense tensor algebra substrate used throughout the SOFIA reproduction.

This subpackage replaces the MATLAB tensor toolbox / tensorly dependency:
matricization, Khatri-Rao and Hadamard products, the Kruskal operator,
masked-tensor helpers, and seeded random constructions.
"""

from repro.tensor.dense import (
    fold,
    frobenius_norm,
    mode_lengths_product,
    relative_error,
    unfold,
    vec,
)
from repro.tensor.masked import (
    apply_mask,
    impute,
    masked_frobenius_norm,
    masked_relative_error,
    observed_fraction,
    scatter_flat,
)
from repro.tensor.products import (
    hadamard_all,
    khatri_rao,
    kruskal_to_tensor,
    kruskal_to_tensors,
    normalize_columns,
    outer,
)
from repro.tensor.random import as_generator, random_factors, random_kruskal_tensor
from repro.tensor import kernels

__all__ = [
    "kernels",
    "apply_mask",
    "as_generator",
    "fold",
    "frobenius_norm",
    "hadamard_all",
    "impute",
    "khatri_rao",
    "kruskal_to_tensor",
    "kruskal_to_tensors",
    "masked_frobenius_norm",
    "masked_relative_error",
    "mode_lengths_product",
    "normalize_columns",
    "observed_fraction",
    "outer",
    "random_factors",
    "random_kruskal_tensor",
    "relative_error",
    "scatter_flat",
    "unfold",
    "vec",
]
