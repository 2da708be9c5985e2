"""Seeded input files for the `cli_dense` workload.

Catalog modules are taken from the library's public constructors and
serialised with `liecolour.jsonio`; everything derived from them (direct
sums, dense conjugates) is computed here, on the JSON matrices, with
Gaussian rationals of our own.  The library therefore sees only the files.

A dense conjugate replaces every action matrix A by P A P^-1, where P is
sector-preserving (block diagonal over the module's sectors) and each block
is D L U: D a diagonal of units {1, -1, i, -i}, L and U unit triangular with
every off-diagonal entry a unit too.  So P has small Gaussian-integer
entries and a unit determinant, and P^-1 is integral too.  For the catalog
modules L and U are the same for every seed and the seed picks D.
Conjugating by D multiplies each entry of L U A (L U)^-1 by a unit, so the
files differ from seed to seed while the fill and the size of every entry,
and with them the work of the measured session, stay the same.  The direct
sums U (+) U draw L and U from the seed too: the witness search on their
conjugates is the registered known defect, and whether it fails depends on
the conjugator.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Catalog modules the session works on, by file stem: (lambda, variant).
# Variant "V" is the ungraded weight module V_lambda.
CATALOG = {
    "V3": (3, "V"),
    "V4": (4, "V"),
    "Eplus4": (4, "E+"),
    "loopE3": (3, "loopE"),
    "Upp3": (3, "U++"),
    "Upm3": (3, "U+-"),
    "Upp5": (5, "U++"),
}
# Reducible inputs U (+) U, by file stem: the catalog stem of U.
DOUBLES = {"UU3": "Upp3", "UU5": "Upp5"}
# Stems that also get a dense conjugate, written as <stem>_dense.json.
DENSE = ["V3", "V4", "Eplus4", "loopE3", "Upp3", "Upp5", "UU3", "UU5"]

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# -- Gaussian rationals as (re, im) pairs of Fractions ------------------------

def _g(re, im=0):
    return (Fraction(re), Fraction(im))


_ZERO, _ONE = _g(0), _g(1)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[_ZERO] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x == _ZERO:
                continue
            row = b[t]
            for j in range(m):
                if row[j] != _ZERO:
                    out[i][j] = _add(out[i][j], _mul(x, row[j]))
    return out


def _invert(a):
    """Gauss-Jordan inverse; the matrices built here are never singular."""
    n = len(a)
    aug = [list(r) + [_ONE if i == j else _ZERO for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != _ZERO)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _inv(aug[col][col])
        aug[col] = [_mul(x, inv) for x in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c != _ZERO:
                aug[r] = [_sub(x, _mul(c, y)) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- JSON scalars over Q(zeta_4): power basis (1, i) -------------------------

def _from_json(obj):
    if int(obj["m"]) != 4 or len(obj["coeffs"]) != 2:
        raise ValueError("catalog scalars are expected in Q(zeta_4)")
    return (Fraction(obj["coeffs"][0]), Fraction(obj["coeffs"][1]))


def _to_json(x):
    return {"m": 4, "coeffs": [str(x[0]), str(x[1])]}


def _matrices(module_json):
    dim = len(module_json["degrees"])
    out = []
    for flat in module_json["action"]:
        nums = [_from_json(x) for x in flat]
        out.append([nums[r * dim:(r + 1) * dim] for r in range(dim)])
    return out


def _with_matrices(module_json, degrees, mats):
    out = dict(module_json)
    out["degrees"] = degrees
    out["action"] = [[_to_json(x) for row in m for x in row] for m in mats]
    return out


def _sector_key(module_json, degree):
    """Coset of a degree modulo the module's grading subgroup H."""
    orders = module_json["algebra"]["group"]["orders"]
    gens = [tuple(g) for g in module_json["H"]]
    coset = {tuple(x % n for x, n in zip(degree, orders))}
    grew = True
    while grew:
        grew = False
        for c in list(coset):
            for g in gens:
                e = tuple((x + y) % n for x, y, n in zip(c, g, orders))
                if e not in coset:
                    coset.add(e)
                    grew = True
    return min(coset)


def _sector_preserving(module_json, shape, rng):
    """P = D L U with unit determinant that maps each sector to itself: L and
    U drawn from `shape`, D from `rng`."""
    degrees = module_json["degrees"]
    dim = len(degrees)
    blocks = {}
    for i, d in enumerate(degrees):
        blocks.setdefault(_sector_key(module_json, d), []).append(i)
    p = [[_ZERO] * dim for _ in range(dim)]
    for idx in blocks.values():
        n = len(idx)
        lower = [[_ONE if r == c else (_g(*shape.choice(_UNITS)) if r > c else _ZERO)
                  for c in range(n)] for r in range(n)]
        upper = [[_ONE if r == c else (_g(*shape.choice(_UNITS)) if r < c else _ZERO)
                  for c in range(n)] for r in range(n)]
        diag = [[_g(*rng.choice(_UNITS)) if r == c else _ZERO for c in range(n)]
                for r in range(n)]
        block = _matmul(diag, _matmul(lower, upper))
        for r in range(n):
            for c in range(n):
                p[idx[r]][idx[c]] = block[r][c]
    return p


def dense_conjugate(module_json, shape, rng):
    """(conjugated module JSON, nonzero entries, total entries)."""
    p = _sector_preserving(module_json, shape, rng)
    p_inv = _invert(p)
    mats = [_matmul(p, _matmul(m, p_inv)) for m in _matrices(module_json)]
    nonzero = sum(x != _ZERO for m in mats for row in m for x in row)
    total = sum(len(row) for m in mats for row in m)
    return _with_matrices(module_json, module_json["degrees"], mats), nonzero, total


def double(module_json):
    """U (+) U as a block-diagonal module JSON."""
    mats = _matrices(module_json)
    d = len(module_json["degrees"])
    summed = [[list(r) + [_ZERO] * d for r in m] + [[_ZERO] * d + list(r) for r in m]
              for m in mats]
    return _with_matrices(module_json, module_json["degrees"] * 2, summed)


def catalog_json(lam, variant):
    """Serialise one catalog module through the library's public API."""
    from liecolour import jsonio, make_sl2_graded, make_V_lambda

    module = make_V_lambda(lam) if variant == "V" else make_sl2_graded(lam, variant)
    return jsonio.module_to_json(module)


def write_inputs(seed, out_dir):
    """Write every input file of the session; returns the dense fill fraction.

    Files are written as sorted, indented JSON, so the same seed gives
    byte-identical files.
    """
    shape, rng = random.Random(0), random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    modules = {stem: catalog_json(*spec) for stem, spec in CATALOG.items()}
    for stem, base in DOUBLES.items():
        modules[stem] = double(modules[base])
    nonzero = total = 0
    for stem in DENSE:
        conj, nz, tot = dense_conjugate(modules[stem], rng if stem in DOUBLES else shape, rng)
        modules[f"{stem}_dense"] = conj
        nonzero += nz
        total += tot
    for stem, obj in modules.items():
        with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return {"dense_fill": nonzero / total}
