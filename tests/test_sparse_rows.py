"""Sparse rows stay in normal form: no stored zero, every column in range.

A row is a dict column -> nonzero CycloNum, so `==` is equality and `not
row` is the zero test.  That holds for the action of every catalog module,
for the rows `spin` and `decompose` return and for intertwiner matrices;
the GradedModule constructor brings dense and dict input to that form.
"""

import pytest

from liecolour import (
    GradedModule,
    commutant,
    decompose,
    direct_sum,
    intertwiners,
    linalg,
    parity_shift,
    spin,
)
from liecolour.errors import InvalidInput
from liecolour.workbench import catalog_modules, make_sl2_graded


def _normal(rows, ncols):
    return all(
        type(c) is int and 0 <= c < ncols and not x.is_zero()
        for r in rows
        for c, x in r.items()
    )


@pytest.fixture(scope="module")
def catalog():
    return catalog_modules(3)


def test_catalog_action_is_in_normal_form(catalog):
    for name, module in catalog.items():
        for mat in module.action:
            assert len(mat) == module.dim and _normal(mat, module.dim), name


def test_spin_decompose_and_intertwiner_rows_are_in_normal_form(catalog):
    for name, module in catalog.items():
        one = module.field.one
        for i in range(module.dim):
            assert _normal(spin(module, [{i: one}]).rows, module.dim), name
        double = direct_sum(module, module)
        for s in decompose(double):
            assert _normal(s.rows, double.dim), name
        for m in commutant(double):
            assert len(m) == double.dim and _normal(m, double.dim), name
        for m in intertwiners(module, parity_shift(module, (1, 1))):
            assert len(m) == module.dim and _normal(m, module.dim), name


def _dense_and_sparse(module):
    dense = [module.matrix(k) for k in range(module.algebra.dim())]
    return dense, [[linalg.sparse(r) for r in mat] for mat in dense]


def test_dense_rows_with_zeros_build_the_module_that_dict_rows_build():
    E = make_sl2_graded(2, "E+")
    dense, sparse = _dense_and_sparse(E)
    assert any(x.is_zero() for mat in dense for r in mat for x in r)
    # a zero given explicitly in a dict row is dropped as well
    sparse[0][0] = {**sparse[0][0], 2: E.field.zero}
    a = GradedModule(E.algebra, E.hsub, E.degrees, dense)
    b = GradedModule(E.algebra, E.hsub, E.degrees, sparse)
    assert a == b == E
    assert a.action == b.action and _normal(b.action[0], E.dim)


@pytest.mark.parametrize("column", ["dim", -1, "1"])
def test_dict_row_with_a_column_outside_the_module_is_invalid(column):
    E = make_sl2_graded(2, "E+")
    _, sparse = _dense_and_sparse(E)
    sparse[1][0] = {E.dim if column == "dim" else column: E.field.one}
    with pytest.raises(InvalidInput):
        GradedModule(E.algebra, E.hsub, E.degrees, sparse)


def test_dense_row_of_the_wrong_length_is_invalid():
    E = make_sl2_graded(2, "E+")
    dense, _ = _dense_and_sparse(E)
    dense[0][1] = dense[0][1] + [E.field.zero]
    with pytest.raises(InvalidInput):
        GradedModule(E.algebra, E.hsub, E.degrees, dense)
