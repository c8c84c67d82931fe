import importlib
import os
import subprocess
import sys

import pytest

import qlatin

# the public names, by the module each one comes from
HOMES = {
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
NAMES = sorted(name for names in HOMES.values() for name in names)


def test_all_lists_every_public_name():
    assert len(NAMES) == 50
    assert qlatin.__all__ == NAMES


@pytest.mark.parametrize("home,name", [(h, n) for h, names in HOMES.items() for n in names])
def test_name_is_its_home_modules_object(home, name):
    assert getattr(qlatin, name) is getattr(importlib.import_module(f"qlatin.{home}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qlatin import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(qlatin, name)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(qlatin))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        qlatin.nope


def test_submodules_import_as_attributes():
    from qlatin import synthesis

    assert synthesis is sys.modules["qlatin.synthesis"]


def test_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(qlatin.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, qlatin; print(sorted(k for k in sys.modules if k.startswith('qlatin')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "['qlatin']\n")
