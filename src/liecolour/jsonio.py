"""JSON serialization for every on-disk object the CLI exchanges.

Schemas (field names are fixed):

* group        {"orders": [n1, ...]}
* subgroup     {"generators": [[...], ...]}
* scalar       {"m": m, "coeffs": ["p/q", ...]}    (length phi(m))
* factor       {"group": ..., "m": m, "exponents": [[...], ...]}
* algebra      {"group": ..., "epsilon": ..., "basis": [{"name", "degree"}],
                "brackets": [{"i", "j", "coeffs": {"k": scalar}}]}
                (pairs with i <= j suffice; i > j follows from antisymmetry)
* module       {"algebra": <inline or file path>, "H": [generators],
                "degrees": [[...], ...], "action": [flat row-major scalars]}

Scalars round-trip bit-exactly: rationals are emitted as reduced strings.
"""

from __future__ import annotations

import json
import os

from .abelian import AbelianGroup, subgroup_from_generators
from .colouralg import ColourAlgebra
from .cyclotomic import field, num_from_json
from .errors import InvalidInput
from .gmodule import GradedModule
from .grading import CommutationFactor, Multiplier


def factor_from_json(obj):
    return CommutationFactor(
        AbelianGroup(obj["group"]["orders"]), field(int(obj["m"])), obj["exponents"]
    )


def multiplier_from_json(obj):
    return Multiplier(
        AbelianGroup(obj["group"]["orders"]), field(int(obj["m"])), obj["exponents"]
    )


def algebra_to_json(alg):
    return alg.to_json()


def algebra_from_json(obj):
    group = AbelianGroup(obj["group"]["orders"])
    eps = factor_from_json(obj["epsilon"])
    basis = [(b["name"], tuple(b["degree"])) for b in obj["basis"]]
    constants = {}
    for entry in obj["brackets"]:
        i, j = int(entry["i"]), int(entry["j"])
        constants[(i, j)] = {
            int(k): num_from_json(v) for k, v in entry["coeffs"].items()
        }
    return ColourAlgebra(group, eps, basis, constants)


def module_to_json(module, algebra_ref=None):
    action = []
    for k in range(module.algebra.dim()):
        flat = [x.to_json() for row in module.action[k] for x in row]
        action.append(flat)
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(module.algebra),
        "H": [list(g) for g in module.hsub.generators],
        "degrees": [list(d) for d in module.degrees],
        "action": action,
    }


def module_from_json(obj, base_dir="."):
    ref = obj["algebra"]
    if isinstance(ref, str):
        with open(os.path.join(base_dir, ref)) as fh:
            ref = json.load(fh)
    alg = algebra_from_json(ref)
    hsub = subgroup_from_generators(alg.group, [tuple(g) for g in obj["H"]])
    degrees = [tuple(d) for d in obj["degrees"]]
    dim = len(degrees)
    mats = []
    for flat in obj["action"]:
        if len(flat) != dim * dim:
            raise InvalidInput("action array has wrong length")
        nums = [num_from_json(x) for x in flat]
        mats.append([nums[r * dim : (r + 1) * dim] for r in range(dim)])
    return GradedModule(alg, hsub, degrees, mats)


def load_file(path):
    """Load an algebra or module JSON file; returns ("algebra"|"module", obj)."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path}: expected a JSON object")
    if "action" in obj:
        return "module", module_from_json(obj, base_dir=os.path.dirname(path) or ".")
    if "brackets" in obj:
        return "algebra", algebra_from_json(obj)
    raise InvalidInput(f"{path}: neither an algebra nor a module")


def dump(obj, path=None, pretty=True):
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=True)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
