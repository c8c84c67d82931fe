"""Exact construction, verification, and cardinality counting of quantum
Latin squares of order 4m, for every attainable cardinality.

The namespace is lazy: ``import qlatin`` loads no submodule, and a public
name imports its home module on first use (PEP 562), so a process loads
only the modules it reaches. ``_HOMES`` lists each public name under that
module; submodules import as usual (``from qlatin import synthesis``).
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule it comes from
_HOMES = {
    "algebraic": ("RadExt", "Scalar", "sqrt_rational", "squarefree_decompose"),
    "vectors": (
        "QVector", "basis_vector", "canonicalize", "format_vector", "inner_product", "ket",
        "phase_equal", "phase_equal_by_inner", "tensor", "vec_add", "vec_neg", "vec_scale",
    ),
    "qls_core": (
        "CardinalityReport", "QLSGrid", "RowQLR", "VerificationReport", "canonical_set",
        "cardinality", "cardinality_oracle", "count_new_elements", "distinct_elements",
        "grid_from_json", "grid_to_json", "verify_qls", "verify_row_qlr",
    ),
    "generators": (
        "GeneratorId", "make_H", "make_Hprime", "make_V", "make_W", "make_W0", "make_Wk",
        "parse_generator_id", "product_construct", "realize_generator",
    ),
    "synthesis": (
        "CardinalityRange", "CardinalityRangeError", "ImpossibleCardinalityError",
        "SynthPlan", "execute_plan", "plan_for", "synth", "valid_cardinalities",
    ),
    "claims": ("ClaimConfig", "ClaimResult", "run_all_claims"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
