from fractions import Fraction

import pytest

from qlatin.algebraic import sqrt_rational
from qlatin.generators import make_H, make_V, make_W
from qlatin.qls_core import (
    QLSGrid,
    RowQLR,
    canonical_set,
    cardinality,
    cardinality_oracle,
    count_new_elements,
    distinct_elements,
    grid_from_json,
    grid_from_json_dict,
    grid_to_json,
    grid_to_json_dict,
    verify_qls,
    verify_row_qlr,
)
from qlatin.vectors import QVector, basis_vector, canonicalize, vec_neg, vec_scale

F = Fraction


def cyclic_grid(n: int) -> QLSGrid:
    return QLSGrid(
        [[basis_vector(n, (i + j) % n) for j in range(n)] for i in range(n)],
        provenance=f"cyclic({n})",
    )


class TestVerification:
    def test_classical_cyclic_lift_passes(self):
        g = cyclic_grid(4)
        report = verify_qls(g)
        assert report.ok and report.message is None
        assert cardinality(g).cardinality == 4
        assert cardinality_oracle(g) == 4

    def test_repeated_cell_in_a_row_fails(self):
        cells = [[basis_vector(2, 0), basis_vector(2, 0)], [basis_vector(2, 1), basis_vector(2, 0)]]
        report = verify_qls(QLSGrid(cells))
        assert not report.ok
        assert report.location is not None and report.location[0] in ("row", "col")

    def test_non_unit_cell_fails_with_location(self):
        half = vec_scale(basis_vector(2, 0), F(1, 2))
        cells = [[half, basis_vector(2, 1)], [basis_vector(2, 1), basis_vector(2, 0)]]
        report = verify_qls(QLSGrid(cells))
        assert not report.ok and report.location == ("unit", 0, 0)

    def test_orthogonal_but_sign_flipped_passes(self):
        g = QLSGrid(
            [
                [basis_vector(2, 0), vec_neg(basis_vector(2, 1))],
                [basis_vector(2, 1), basis_vector(2, 0)],
            ]
        )
        assert verify_qls(g).ok
        assert cardinality(g).cardinality == 2  # -|1> and |1> share a class

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QLSGrid([[basis_vector(2, 0)]])  # cell dim != order
        with pytest.raises(ValueError):
            QLSGrid([[basis_vector(2, 0), basis_vector(2, 1)]])  # not square
        with pytest.raises(ValueError):
            QLSGrid([])

    def test_cardinality_requires_a_valid_grid(self):
        cells = [[basis_vector(2, 0), basis_vector(2, 0)], [basis_vector(2, 1), basis_vector(2, 0)]]
        with pytest.raises(ValueError, match="not a QLS"):
            cardinality(QLSGrid(cells))


class TestRowRectangles:
    def test_v_rectangle_verifies(self):
        report = verify_row_qlr(make_V(0, 1))
        assert report.ok and report.duplicate_rows == ()

    def test_duplicate_rows_flagged(self):
        row = [basis_vector(2, 0), basis_vector(2, 1)]
        report = verify_row_qlr(RowQLR([row, row]))
        assert report.ok  # rows are individually orthonormal
        assert report.duplicate_rows == ((0, 1),)

    def test_non_orthogonal_row_fails(self):
        half = sqrt_rational(F(1, 2))
        v = QVector([half, half])
        report = verify_row_qlr(RowQLR([[v, v]]))
        assert not report.ok


class TestCounting:
    def test_known_generator_cardinalities(self):
        assert cardinality(make_H(0)).cardinality == 4
        assert cardinality(make_H(1)).cardinality == 8
        assert cardinality(make_W(5, 6)).cardinality == 16

    def test_distinct_elements_are_canonical(self):
        for v in distinct_elements(make_H(1)):
            assert canonicalize(v) == v

    def test_count_new_elements(self):
        base = distinct_elements(make_H(0))
        assert count_new_elements(make_H(0), base) == 0
        assert count_new_elements(make_H(0), frozenset()) == 4

    def test_canonical_set_merges_phases(self):
        v = QVector([F(3, 5), F(4, 5)])
        assert len(canonical_set([v, vec_neg(v)])) == 1


class TestSerialization:
    def test_byte_exact_round_trip(self):
        g = make_W(5, 6)
        text = grid_to_json(g)
        again = grid_from_json(text)
        assert grid_to_json(again) == text
        assert again == g and again.provenance == g.provenance

    def test_pretty_output_parses_identically(self):
        g = make_H(3)
        assert grid_from_json(grid_to_json(g, pretty=True)) == g

    def test_compact_json_is_deterministic(self):
        g = cyclic_grid(3)
        assert grid_to_json(g) == grid_to_json(cyclic_grid(3))
        assert grid_to_json(g).endswith("\n")

    def test_strict_schema(self):
        obj = grid_to_json_dict(make_H(0))
        assert set(obj) == {"order", "provenance", "cells"}
        with pytest.raises(ValueError):
            grid_from_json_dict({**obj, "extra": 1})
        with pytest.raises(ValueError):
            grid_from_json_dict({"order": obj["order"], "cells": obj["cells"]})
        bad = {**obj, "order": 5}
        with pytest.raises(ValueError):
            grid_from_json_dict(bad)

    def test_malformed_text_raises(self):
        with pytest.raises(ValueError):
            grid_from_json("{not json")
        with pytest.raises(ValueError):
            grid_from_json('{"order": 2}')
