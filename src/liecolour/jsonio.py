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
A coefficient is a JSON integer or a string "p", "p/q" or a plain decimal
such as "-1.25" (no exponent).  Integer fields are JSON integers or
decimal strings (one strict reader); m lies in 1..1024 and a group has at
most 256 elements.  Every array and object is checked for its type where
it is read, so a value of the wrong shape is InvalidInput.

Every file is read by read_json, the one place JSON is decoded: a file
that does not decode (bytes that are not UTF-8, bad syntax, nesting past
the recursion limit, an integer over the interpreter's digit limit) is
InvalidInput too, and so is a missing field, named with the file that
lacks it (a module's "algebra" file when it is missing there).
"""

from __future__ import annotations

import json
import math
import os
import re

from .abelian import AbelianGroup, subgroup_from_generators
from .colouralg import ColourAlgebra
from .cyclotomic import field
from .errors import InvalidInput
from .gmodule import GradedModule
from .grading import CommutationFactor, Multiplier

MAX_M = 1024  # building field(m) costs O(m)
MAX_GROUP_ORDER = 256  # groups are enumerated element by element
_DECIMAL = re.compile(r"[+-]?[0-9]{1,18}")  # fits in 64 bits
# "p", "p/q" or a plain decimal, grouped as sign, digits, denominator and
# digits after the point; an exponent would be expanded in full
_RATIONAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?")


def _typed(value, kind, what):
    """value if it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        noun = "an array" if kind is list else "an object"
        raise InvalidInput(f"{what} must be {noun}, not {type(value).__name__}")
    return value


def read_int(value, what):
    """An integer field: a JSON integer (not a bool) or a decimal-integer
    string; InvalidInput otherwise."""
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        value = int(value)
    if type(value) is not int:
        raise InvalidInput(f"{what}: {value!r} is not an integer")
    return value


def _ints(values, what):
    return tuple(read_int(v, what) for v in _typed(values, list, what))


def _field(obj):
    m = read_int(obj["m"], "m")  # obj is checked by the caller
    if not 1 <= m <= MAX_M:
        raise InvalidInput(f"m = {m} is outside 1..{MAX_M}")
    return field(m)


def _group_from_json(obj):
    orders = _ints(_typed(obj, dict, "group")["orders"], "group orders")
    if math.prod(orders) > MAX_GROUP_ORDER:
        raise InvalidInput(f"group order is above {MAX_GROUP_ORDER}: {orders}")
    return AbelianGroup(orders)


def _rational(c):
    """(numerator, denominator) of one coefficient, not yet in lowest terms."""
    if type(c) is int:
        return c, 1
    match = _RATIONAL.fullmatch(c) if isinstance(c, str) else None
    if match is None:
        raise InvalidInput(f"coefficient {str(c)[:40]!r} is not an integer, p/q or a decimal")
    sign, whole, den, frac = match.groups("")
    try:
        num = int(whole + frac)
        den = int(den) if den else 10 ** len(frac)
    except ValueError:  # over the interpreter's limit on digits in an int
        raise InvalidInput(f"coefficient {c[:40]!r} is too long") from None
    if not den:
        raise InvalidInput(f"coefficient {c[:40]!r} is not a rational number")
    return (-num if sign == "-" else num), den


def num_from_json(obj):
    """Scalar from JSON; coefficients must be integers or rational strings
    (such as "-5/2" or "1.5"), never floats, which are not exact."""
    f = _field(_typed(obj, dict, "scalar"))
    return f.from_ratios([_rational(c) for c in _typed(obj["coeffs"], list, "coeffs")])


def bimultiplicative_from_json(cls, obj):
    """A CommutationFactor or Multiplier (the class `cls`) from JSON."""
    _typed(obj, dict, cls.__name__)
    exponents = [_ints(r, "exponents") for r in _typed(obj["exponents"], list, "exponents")]
    return cls(_group_from_json(obj["group"]), _field(obj), exponents)


def algebra_to_json(alg):
    return alg.to_json()


def algebra_from_json(obj):
    group = _group_from_json(_typed(obj, dict, "algebra")["group"])
    eps = bimultiplicative_from_json(CommutationFactor, obj["epsilon"])
    basis = []
    for b in _typed(obj["basis"], list, "basis"):
        b = _typed(b, dict, "basis entry")
        basis.append((b["name"], _ints(b["degree"], "degree")))
    constants = {}
    for entry in _typed(obj["brackets"], list, "brackets"):
        entry = _typed(entry, dict, "bracket")
        i, j = read_int(entry["i"], "bracket i"), read_int(entry["j"], "bracket j")
        coeffs = _typed(entry["coeffs"], dict, "bracket coeffs")
        constants[(i, j)] = {
            read_int(k, "bracket k"): num_from_json(v) for k, v in coeffs.items()
        }
    return ColourAlgebra(group, eps, basis, constants)


def read_json(path):
    """The JSON value in a file.  ValueError covers JSONDecodeError,
    UnicodeDecodeError and the interpreter's digit limit on ints."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path}: not readable as JSON: {str(exc)[:100]}") from None


def module_to_json(module, algebra_ref=None):
    action = []
    for k in range(module.algebra.dim()):
        action.append([x.to_json() for row in module.matrix(k) for x in row])
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(module.algebra),
        "H": [list(g) for g in module.hsub.generators],
        "degrees": [list(d) for d in module.degrees],
        "action": action,
    }


def _decoded(path, build, obj):
    """build(obj) for the value obj read from the file at path, with a field
    missing from one of its objects reported against the file."""
    try:
        return build(obj)
    except KeyError as exc:
        raise InvalidInput(f"{path}: missing field {exc.args[0]!r}") from None


def module_from_json(obj, base_dir="."):
    ref = obj["algebra"]
    if isinstance(ref, str):
        path = os.path.join(base_dir, ref)
        alg = _decoded(path, algebra_from_json, read_json(path))
    else:
        alg = algebra_from_json(ref)
    gens = [_ints(g, "H") for g in _typed(obj["H"], list, "H")]
    hsub = subgroup_from_generators(alg.group, gens)
    degrees = [_ints(d, "degrees") for d in _typed(obj["degrees"], list, "degrees")]
    dim = len(degrees)
    mats = []
    for flat in _typed(obj["action"], list, "action"):
        if len(_typed(flat, list, "action matrix")) != dim * dim:
            raise InvalidInput("action array has wrong length")
        nums = [num_from_json(x) for x in flat]
        mats.append([nums[r * dim : (r + 1) * dim] for r in range(dim)])
    return GradedModule(alg, hsub, degrees, mats)


def load_file(path):
    """Load an algebra or module JSON file; returns ("algebra"|"module", obj)."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path}: expected a JSON object")
    if "action" in obj:
        base_dir = os.path.dirname(path) or "."
        return "module", _decoded(path, lambda o: module_from_json(o, base_dir), obj)
    if "brackets" in obj:
        return "algebra", _decoded(path, algebra_from_json, obj)
    raise InvalidInput(f"{path}: neither an algebra nor a module")


def load_multiplier(path):
    """The Multiplier (a discolouring's sigma) in a JSON file."""
    return _decoded(path, lambda o: bimultiplicative_from_json(Multiplier, o), read_json(path))


def dump(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
