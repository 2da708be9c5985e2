import random
from fractions import Fraction

import pytest

from liecolour import direct_sum, field, modp, parity_shift, trivial_subgroup
from liecolour.colouralg import ColourAlgebra
from liecolour.gmodule import (
    GradedModule,
    _closure_rank_exact,
    _generator_matrices,
    _sector_blocks,
)
from liecolour.loopfunctor import loop
from liecolour.workbench import GROUP, catalog_modules, sl2c_factor


def _fp_by_coefficient(x, p, omega):
    """The F_p image computed one Fraction coordinate at a time."""
    acc, w = 0, 1
    for c in x.coeffs:
        if c:
            acc = (acc + c.numerator % p * pow(c.denominator % p, -1, p) * w) % p
        w = w * omega % p
    return acc


@pytest.mark.parametrize("m", [3, 4, 12])
def test_scalar_to_fp_matches_the_per_coefficient_formula(m):
    f = field(m)
    p, omega = modp.fp_for_field(f)
    rng = random.Random(3000 + m)

    def rand():
        big = rng.random() < 0.3
        return f.num([
            Fraction(rng.randint(-10**9, 10**9) if big else rng.randint(-40, 40),
                     rng.randint(1, 10**7) if big else rng.randint(1, 30))
            for _ in range(f.degree)
        ])

    for _ in range(200):
        a, b = rand(), rand()
        image = modp.scalar_to_fp(a, p, omega)
        assert image == _fp_by_coefficient(a, p, omega)
        # zeta -> omega is a ring map
        assert modp.scalar_to_fp(a * b, p, omega) == image * modp.scalar_to_fp(b, p, omega) % p
        assert modp.scalar_to_fp(a + b, p, omega) == (image + modp.scalar_to_fp(b, p, omega)) % p


@pytest.mark.parametrize("m", [3, 4, 12])
def test_scalar_to_fp_refuses_a_denominator_divisible_by_p(m):
    f = field(m)
    p, omega = modp.fp_for_field(f)
    for x in (f.from_rational(Fraction(3, p)),
              f.num([Fraction(1, 2)] + [Fraction(1, 2 * p)] * (f.degree - 1))):
        with pytest.raises(ValueError):
            modp.scalar_to_fp(x, p, omega)


def _block_closure_rank(module):
    p, omega = modp.fp_for_field(module.field)
    sizes, blocks = _sector_blocks(module)
    fp = [(s, t, modp.mat_to_fp(g, p, omega, sizes[t])) for s, t, g in blocks]
    return modp.closure_rank((sizes, fp), p, module.dim)


def test_block_closure_rank_equals_the_exact_closure():
    modules = catalog_modules(4)
    modules["loopE2"] = loop(modules["E2"], trivial_subgroup(GROUP)).module
    # reducible: closures below d^2, ungraded and graded
    modules["V1+V2"] = direct_sum(modules["V1"], modules["V2"])
    modules["E+2+O-2"] = direct_sum(modules["E+2"], modules["O-2"])
    # one vector in Z2 x Z2: three empty sectors
    modules["E+0 shifted"] = parity_shift(modules["E+0"], (1, 0))
    # a degree-0 generator that is no bracket, so its block from a sector
    # into itself is needed
    abelian = ColourAlgebra(GROUP, sl2c_factor(), [("x", (0, 0))], {})
    modules["diag(1, 2)"] = GradedModule(
        abelian, trivial_subgroup(GROUP), [(0, 0)] * 2, [[{0: 1}, {1: 2}]]
    )
    ranks = {}
    for name, m in modules.items():
        exact = _closure_rank_exact(m.field, _generator_matrices(m), m.dim)
        ranks[name] = (_block_closure_rank(m), exact)
    assert {name: r for name, r in ranks.items() if r[0] != r[1]} == {}
    assert len(ranks) == 62
    below = [name for name, (_, exact) in ranks.items() if exact < modules[name].dim ** 2]
    assert {"loopE2", "V1+V2", "E+2+O-2", "diag(1, 2)"} <= set(below)
