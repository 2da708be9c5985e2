import copy
import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecolour import direct_sum, dual_characters, field, jsonio, parity_shift, twist
from liecolour.cli import main
from liecolour.errors import InvalidInput
from liecolour.grading import Multiplier
from liecolour.workbench import (
    GROUP,
    catalog_modules,
    make_bd_model,
    make_sl2_discoloured,
    make_sl2_graded,
    make_sl2c,
    make_V_lambda,
    discolouring_sigma,
)


def test_algebra_roundtrip(tmp_path):
    alg = make_sl2c()
    blob = jsonio.algebra_to_json(alg)
    back = jsonio.algebra_from_json(blob)
    assert back == alg
    # emitted brackets only carry i <= j
    assert all(e["i"] <= e["j"] for e in blob["brackets"])


def test_bd_algebra_roundtrip_with_diagonal_brackets():
    alg, _, _ = make_bd_model()
    back = jsonio.algebra_from_json(jsonio.algebra_to_json(alg))
    assert back == alg


def test_module_roundtrip_inline_and_fileref(tmp_path):
    mod = make_sl2_graded(2, "E+")
    blob = jsonio.module_to_json(mod)
    back = jsonio.module_from_json(blob)
    assert back == mod
    # file reference for the algebra
    jsonio.dump(jsonio.algebra_to_json(mod.algebra), tmp_path / "alg.json")
    blob2 = jsonio.module_to_json(mod, algebra_ref="alg.json")
    path = tmp_path / "mod.json"
    jsonio.dump(blob2, path)
    kind, loaded = jsonio.load_file(str(path))
    assert kind == "module" and loaded == mod


def test_module_action_is_flat_row_major():
    mod = make_sl2_graded(2, "E")
    blob = jsonio.module_to_json(mod)
    assert len(blob["action"]) == 3
    assert all(len(flat) == mod.dim * mod.dim for flat in blob["action"])


def test_multiplier_roundtrip():
    sig = discolouring_sigma()
    back = jsonio.bimultiplicative_from_json(Multiplier, json.loads(jsonio.dump(sig.to_json())))
    assert back == sig


def _write(tmp_path, name, blob):
    path = tmp_path / name
    jsonio.dump(blob, path)
    return str(path)


def test_cli_verify(tmp_path, capsys):
    path = _write(tmp_path, "sl2c.json", jsonio.algebra_to_json(make_sl2c()))
    assert main(["verify", path]) == 0
    assert main(["--seed", "7", "--json", "verify", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    blob = json.loads(out)
    assert blob["fuzz"]["rejected"] == blob["fuzz"]["trials"]


def test_cli_fuzz_rejects_every_perturbation_of_a_valid_algebra(tmp_path, capsys):
    """Every perturbation the fuzz makes breaks an axiom, on every seed: on
    the bd-model algebra a change of [[Q2, Q2]] at H alone would be valid,
    as eps(Q2, Q2) = -1."""
    assert main(["bd-model", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "algebra.json")
    capsys.readouterr()
    for seed in range(40):
        assert main(["--seed", str(seed), "verify", path]) == 0
        assert "fuzz: 20/20 perturbations rejected" in capsys.readouterr().out


def test_cli_fuzz_of_an_algebra_of_dimension_zero(tmp_path, capsys):
    """A valid algebra with no basis has no entry to perturb: no trial."""
    from liecolour.colouralg import ColourAlgebra

    empty = ColourAlgebra(GROUP, make_sl2c().epsilon, [], {})
    path = _write(tmp_path, "empty.json", jsonio.algebra_to_json(empty))
    assert main(["--seed", "3", "--json", "verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["fuzz"] == {"rejected": 0, "trials": 0}


def test_cli_verify_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"neither\": true}")
    assert main(["verify", str(bad)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["verify", missing]) == 2


@pytest.mark.parametrize(
    "coeff", ["abc", 0.1, 0.0, False], ids=["not-a-number", "float", "exact-float", "bool"]
)
def test_cli_verify_rejects_inexact_coefficient(tmp_path, coeff):
    # only integers and numeric strings are scalars: anything else is
    # invalid input (exit 2), never a traceback or a silently converted value,
    # even where the value (0.0, False) equals the zero entry it replaces
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    assert blob["action"][0][0]["coeffs"][0] == "0"
    blob["action"][0][0]["coeffs"][0] = coeff
    path = _write(tmp_path, "inexact.json", blob)
    assert main(["verify", path]) == 2


def test_cli_verify_rejects_an_out_of_range_bracket_output(tmp_path):
    # bracket output index 9 on a 3-dimensional algebra: exit 2, not a traceback
    blob = jsonio.algebra_to_json(make_sl2c())
    coeffs = blob["brackets"][0]["coeffs"]
    coeffs["9"] = coeffs.pop(next(iter(coeffs)))
    assert main(["verify", _write(tmp_path, "bad.json", blob)]) == 2


def _set(path, value):
    def mutate(blob):
        *outer, last = path
        for key in outer:
            blob = blob[key]
        blob[last] = value

    return mutate


MALFORMED_INTEGERS = {
    "scalar-m-not-a-number": _set(("action", 0, 0, "m"), "abc"),
    "epsilon-m-not-a-number": _set(("algebra", "epsilon", "m"), "abc"),
    "group-order-not-a-number": _set(("algebra", "group", "orders"), ["abc", 2]),
    "group-order-huge": _set(("algebra", "group", "orders"), [2, 2**40]),
    "scalar-m-huge": _set(("action", 0, 0, "m"), 30030),
    "epsilon-m-bool": _set(("algebra", "epsilon", "m"), True),
    "exponent-float": _set(("algebra", "epsilon", "exponents", 0, 0), 2.0),
    "basis-degree-not-a-number": _set(("algebra", "basis", 0, "degree"), ["x", 0]),
    "bracket-index-not-a-number": _set(("algebra", "brackets", 0, "i"), "0x1"),
    "module-degree-not-a-number": _set(("degrees", 0), ["1.5", 0]),
    "h-generator-not-a-number": _set(("H",), [["one", 0]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INTEGERS))
def test_cli_verify_rejects_malformed_integer_field(tmp_path, case):
    # every integer field is a JSON integer or a decimal string, m lies in
    # 1..1024 and the group order is at most 256; anything else is invalid
    # input (exit 2), not a traceback, a MemoryError or a hang
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    MALFORMED_INTEGERS[case](blob)
    path = _write(tmp_path, "malformed.json", blob)
    assert main(["verify", path]) == 2


WRONG_SHAPES = {
    "group-orders-scalar": _set(("algebra", "group", "orders"), 5),
    "scalar-as-string": _set(("action", 0, 0), "1"),
    "action-scalar": _set(("action",), 7),
    "action-matrix-scalar": _set(("action", 0), 7),
    "coeffs-scalar": _set(("action", 0, 0, "coeffs"), "0"),
    "basis-entry-scalar": _set(("algebra", "basis", 0), "a1"),
    "brackets-object": _set(("algebra", "brackets"), {}),
    "degrees-scalar": _set(("degrees",), 3),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_cli_verify_rejects_wrong_shape(tmp_path, case):
    # arrays and objects are type-checked where they are read: invalid
    # input (exit 2), not a TypeError traceback (exit 1)
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    WRONG_SHAPES[case](blob)
    path = _write(tmp_path, "shape.json", blob)
    assert main(["verify", path]) == 2


@pytest.mark.parametrize("coeff", ["1e2000000", "1E5", "1_000", " 1", "inf", "0x10"])
def test_cli_verify_rejects_coefficient_syntax(tmp_path, coeff):
    # only integers, p/q and plain decimals: an exponent would be expanded
    # in full (about 5 s for 1e2000000), so it is rejected before Fraction
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    blob["action"][0][0]["coeffs"][0] = coeff
    path = _write(tmp_path, "syntax.json", blob)
    assert main(["verify", path]) == 2


@pytest.mark.parametrize("coeff", ["0", "-0", "0/7", "+0.0", "0.", ".0", 0])
def test_cli_verify_accepts_rational_coefficient_syntax(tmp_path, coeff):
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    blob["action"][0][0]["coeffs"][0] = coeff
    path = _write(tmp_path, "syntax.json", blob)
    assert main(["verify", path]) == 0


@pytest.mark.parametrize(
    "coeff", [1.5, True, "1e5", "1/0", "", " 1", "-", ".", "/2", "1.5/2"],
    ids=["float", "bool", "exponent", "zero-denominator", "empty", "space", "sign", "point",
         "no-numerator", "decimal-over"],
)
def test_cli_verify_rejects_degenerate_coefficients(tmp_path, coeff):
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    blob["action"][0][0]["coeffs"][0] = coeff
    path = _write(tmp_path, "degenerate.json", blob)
    assert main(["verify", path]) == 2


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on the digits of an int read from a
    string (4300), which an environment variable can lift."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("coeff", ["1" + "0" * 5000, "1/" + "3" * 5000, "0." + "7" * 5000])
def test_cli_verify_names_an_overlong_coefficient(tmp_path, capsys, digit_limit, coeff):
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    blob["action"][0][0]["coeffs"][0] = coeff
    path = _write(tmp_path, "long.json", blob)
    assert main(["verify", path]) == 2
    assert "is too long" in capsys.readouterr().err


# files that do not decode as JSON at all: each used to escape json.load as
# a traceback (UnicodeDecodeError, RecursionError, ValueError) with exit 1
UNDECODABLE = {
    "not-utf8": b'{"group": {"orders": [2, 2]}, "name": "\xff\xfe"}',
    "nested-100000": b"[" * 100_000,
    "integer-5000-digits": b'{"group": {"orders": [1' + b"0" * 4999 + b"]}}",
}


def _undecodable(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_bytes(UNDECODABLE[case])
    return str(path)


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_load_file_rejects_a_file_that_does_not_decode(tmp_path, digit_limit, case):
    with pytest.raises(InvalidInput, match="not readable as JSON"):
        jsonio.load_file(_undecodable(tmp_path, case))


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
@pytest.mark.parametrize("entry", ["verify", "irreducible", "discolour-sigma", "module-algebra"])
def test_cli_exits_2_on_a_file_that_does_not_decode(tmp_path, capsys, digit_limit, case, entry):
    # the file is read directly, as the multiplier of discolour --sigma, or
    # as the "algebra" file a module refers to
    bad = _undecodable(tmp_path, case)
    if entry == "discolour-sigma":
        alg = _write(tmp_path, "sl2c.json", jsonio.algebra_to_json(make_sl2c()))
        argv = ["discolour", alg, "--sigma", bad]
    elif entry == "module-algebra":
        blob = jsonio.module_to_json(make_sl2_graded(2, "E"), algebra_ref=os.path.basename(bad))
        argv = ["irreducible", _write(tmp_path, "module.json", blob)]
    else:
        argv = [entry, bad]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "Traceback" not in err


def _without(blob, *keys):
    """A deep copy of blob with the field at the path keys removed."""
    blob = copy.deepcopy(blob)
    obj = blob
    for key in keys[:-1]:
        obj = obj[key]
    del obj[keys[-1]]
    return blob


# a field missing from the file named: (argv, the file that lacks the
# field, the field); each used to print only the bare key
MISSING = {
    "algebra group": lambda tmp: (
        ["verify", _write(tmp, "a.json", _without(jsonio.algebra_to_json(make_sl2c()), "group"))],
        "a.json", "group"),
    "inline algebra epsilon exponents": lambda tmp: (
        ["verify", _write(tmp, "m.json", _without(
            jsonio.module_to_json(make_sl2_graded(2, "E")), "algebra", "epsilon", "exponents"))],
        "m.json", "exponents"),
    "module H": lambda tmp: (
        ["irreducible", _write(tmp, "m.json", _without(
            jsonio.module_to_json(make_sl2_graded(2, "E")), "H"))],
        "m.json", "H"),
    # the "algebra" file a module refers to is itself a module file
    "algebra file group": lambda tmp: (
        ["verify", _write(tmp, "m.json", jsonio.module_to_json(
            make_sl2_graded(2, "E"),
            algebra_ref=os.path.basename(_write(tmp, "other.json", jsonio.module_to_json(
                make_sl2_graded(2, "E"))))))],
        "other.json", "group"),
    "sigma exponents": lambda tmp: (
        ["discolour", _write(tmp, "a.json", jsonio.algebra_to_json(make_sl2c())),
         "--sigma", _write(tmp, "s.json", {"group": {"orders": [2, 2]}, "m": 4})],
        "s.json", "exponents"),
}


@pytest.mark.parametrize("case", sorted(MISSING))
def test_cli_names_the_file_and_the_missing_field(tmp_path, capsys, case):
    argv, lacking, key = MISSING[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert err == f"invalid input: {tmp_path / lacking}: missing field {key!r}\n"


def _short_action(tmp):
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    blob["action"] = [flat[:-1] for flat in blob["action"]]
    return _write(tmp, "short.json", blob)


# files that decode but hold the wrong thing: (argv, the message's tail)
WRONG_CONTENT = {
    "not an object": lambda tmp: (
        ["verify", _write(tmp, "list.json", [1, 2])], "list.json: expected a JSON object"),
    "short action array": lambda tmp: (
        ["verify", _short_action(tmp)], "action array has wrong length"),
    "algebra for a module": lambda tmp: (
        ["irreducible", _write(tmp, "a.json", jsonio.algebra_to_json(make_sl2c()))],
        "a.json: expected module file, not algebra file"),
    "module for an algebra": lambda tmp: (
        ["discolour", _write(tmp, "m.json", jsonio.module_to_json(make_sl2_graded(2, "E"))),
         "--sigma", "paper-sl2"],
        "m.json: expected algebra file, not module file"),
}


@pytest.mark.parametrize("case", sorted(WRONG_CONTENT))
def test_cli_exits_2_on_a_file_of_the_wrong_content(tmp_path, capsys, case):
    argv, tail = WRONG_CONTENT[case](tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1
    assert captured.err.endswith(f"{tail}\n")


def test_cli_verify_accepts_decimal_integer_strings(tmp_path):
    blob = jsonio.module_to_json(make_sl2_graded(2, "E"))
    blob["algebra"]["epsilon"]["m"] = "4"
    blob["algebra"]["group"]["orders"] = ["2", "+2"]
    blob["degrees"] = [[str(x) for x in d] for d in blob["degrees"]]
    path = _write(tmp_path, "strings.json", blob)
    assert main(["verify", path]) == 0


def test_cli_verify_mathematically_broken_algebra(tmp_path):
    blob = jsonio.algebra_to_json(make_sl2c())
    # retarget [[a1,a2]] onto a1: the product degree lands outside a1's
    # sector, so grading compatibility fails
    entry = blob["brackets"][0]
    entry["coeffs"] = {"0": entry["coeffs"]["2"]}
    path = _write(tmp_path, "broken.json", blob)
    assert main(["verify", path]) == 1


def test_cli_main_calls_share_no_state(tmp_path, capsys):
    # options given to one call do not carry over to the next
    path = _write(tmp_path, "sl2c.json", jsonio.algebra_to_json(make_sl2c()))
    assert main(["--json", "verify", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "algebra", "valid": True}
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "algebra ok\n"
    assert main(["--seed", "5", "verify", path]) == 0
    assert "fuzz: 20/20" in capsys.readouterr().out
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "algebra ok\n"


def test_cli_discolour(tmp_path, capsys):
    path = _write(tmp_path, "sl2c.json", jsonio.algebra_to_json(make_sl2c()))
    assert main(["discolour", path, "--sigma", "paper-sl2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert jsonio.algebra_from_json(out) == make_sl2_discoloured()


def test_cli_loop_and_irreducible(tmp_path, capsys):
    e1 = _write(tmp_path, "e1.json", jsonio.module_to_json(make_sl2_graded(1, "E")))
    assert main(["loop", e1]) == 0
    loop_blob = json.loads(capsys.readouterr().out)
    looped = _write(tmp_path, "loope1.json", loop_blob)
    assert main(["irreducible", looped]) == 0
    capsys.readouterr()
    e2 = _write(tmp_path, "e2.json", jsonio.module_to_json(make_sl2_graded(2, "E")))
    assert main(["loop", e2]) == 0
    loop2 = _write(tmp_path, "loope2.json", json.loads(capsys.readouterr().out))
    assert main(["irreducible", loop2]) == 1  # reducible: exit signals mismatch


def test_cli_isomorphic(tmp_path):
    a = _write(tmp_path, "a.json", jsonio.module_to_json(make_sl2_graded(2, "E+")))
    b = _write(tmp_path, "b.json", jsonio.module_to_json(make_sl2_graded(2, "E-")))
    assert main(["isomorphic", a, a]) == 0
    assert main(["isomorphic", a, b]) == 1


def test_cli_isomorphic_on_a_direct_sum_of_equal_summands(tmp_path, capsys):
    U = make_sl2_graded(3, "U++")
    blob = jsonio.module_to_json(direct_sum(U, U))
    a, b = _write(tmp_path, "uu_a.json", blob), _write(tmp_path, "uu_b.json", blob)
    assert main(["--json", "isomorphic", a, b]) == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": True}


def _nilpotent(alg, k):
    """The ungraded block-model module on which generator k (1 = Q1,
    2 = Q2) acts as a nilpotent 2 x 2 matrix and the rest as 0."""
    from liecolour import GradedModule, full_subgroup

    f = alg.field
    mats = [[{}, {}] for _ in range(4)]
    mats[k] = [{1: f.one}, {}]
    return GradedModule(alg, full_subgroup(alg.group), [alg.group.zero()] * 2, mats)


def test_cli_isomorphic_inconclusive_exits_1_without_output(tmp_path, capsys):
    # A (+) A and A (+) B for A: Q1 -> N and B: Q2 -> N: every trace is 0 and
    # Hom has dimension 6 with no invertible element found
    alg = make_bd_model()[0]
    a, b = _nilpotent(alg, 1), _nilpotent(alg, 2)
    pa = _write(tmp_path, "aa.json", jsonio.module_to_json(direct_sum(a, a)))
    pb = _write(tmp_path, "ab.json", jsonio.module_to_json(direct_sum(a, b)))
    assert main(["--json", "isomorphic", pa, pb]) == 1
    assert capsys.readouterr().out == ""


def test_cli_isomorphic_by_traces(tmp_path, capsys):
    # U++ (+) U++ and U++ (+) U+-: the generator traces differ
    a, b = make_sl2_graded(3, "U++"), make_sl2_graded(3, "U+-")
    pa = _write(tmp_path, "aa.json", jsonio.module_to_json(direct_sum(a, a)))
    pb = _write(tmp_path, "ab.json", jsonio.module_to_json(direct_sum(a, b)))
    assert main(["--json", "isomorphic", pa, pb]) == 1
    assert json.loads(capsys.readouterr().out) == {"isomorphic": False}


def test_cli_lift(tmp_path, capsys):
    v1 = _write(tmp_path, "v1.json", jsonio.module_to_json(make_V_lambda(1)))
    assert main(["lift", v1, "--group", "2,2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [s["outcome"] for s in blob["steps"]] == ["gradable", "loop"]


@pytest.mark.parametrize("orders", ["2,3", "4"])
def test_cli_lift_rejects_a_group_that_is_not_the_algebras(tmp_path, capsys, orders):
    v1 = _write(tmp_path, "v1.json", jsonio.module_to_json(make_V_lambda(1)))
    assert main(["lift", v1, "--group", orders]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: lift group must be the algebra's grading group\n"


def test_cli_classify(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify-sl2", "--max-lambda", "0", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["passed"] is True
    # odd lambda carries one graded class, as the table expects: exit code 0
    assert main(["classify-sl2", "--max-lambda", "1"]) == 0


def test_cli_bd_model(tmp_path):
    out = tmp_path / "bd"
    assert main(["bd-model", "--out", str(out)]) == 0
    for name in ("algebra.json", "seed.json", "loop.json", "summary.json"):
        assert (out / name).exists()
    kind, loop_mod = jsonio.load_file(str(out / "loop.json"))
    assert kind == "module" and loop_mod.dim == 4


def test_cli_refine_by_parsing(tmp_path, capsys):
    v1 = _write(tmp_path, "v1.json", jsonio.module_to_json(make_V_lambda(1)))
    # refine the ungraded module by the diagonal subgroup of Z2 x Z2
    assert main(["loop", v1, "--refine-by", "1:1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["degrees"]) == 4


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("loop", "--refine-by", "a:b"),
        ("loop", "--refine-by", "1:1.5"),
        ("loop", "--refine-by", "1:"),
        # the trivial subgroup: index 4 in V1's grading group, not a prime step
        ("loop", "--refine-by", ""),
        # (1, 0) lies outside the bd-model seed's grading subgroup <(1, 1)>
        ("loop", "--refine-by", "1:0"),
        ("lift", "--group", "2,x"),
        ("lift", "--group", "2,2.0"),
        ("lift", "--group", "0x2,2"),
    ],
)
def test_cli_rejects_malformed_group_flags(tmp_path, command, flag, value):
    # group flags follow the JSON integer rule, and a subgroup that is no
    # valid step is invalid input too: exit 2, not a traceback or a mismatch
    module = make_bd_model()[1] if value == "1:0" else make_V_lambda(1)
    path = _write(tmp_path, "module.json", jsonio.module_to_json(module))
    assert main([command, path, flag, value]) == 2


# -- properties -----------------------------------------------------------------

CATALOG = catalog_modules(3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(CATALOG)),
    st.sampled_from(GROUP.elements()),
    st.sampled_from(dual_characters(GROUP)),
)
def test_module_json_roundtrip_property(name, h, ch):
    mod = twist(parity_shift(CATALOG[name], h), ch)
    text = jsonio.dump(jsonio.module_to_json(mod))
    back = jsonio.module_from_json(json.loads(text))
    assert back == mod
    assert jsonio.dump(jsonio.module_to_json(back)) == text


def _leaf_paths(blob, path=()):
    if isinstance(blob, (dict, list)):
        items = blob.items() if isinstance(blob, dict) else enumerate(blob)
        for key, value in items:
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


LEAF_FILE = jsonio.module_to_json(make_sl2_graded(1, "E"))
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0", "-1", "1/2", "1/0", "2.5", "1e9", "0x1", "", "seed.json"])
    | st.lists(st.integers(-3, 3), max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2)
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(list(_leaf_paths(LEAF_FILE))), JSON_LEAVES)
def test_cli_verify_exit_code_on_a_replaced_leaf(path, value):
    # whatever one leaf of a valid module file becomes, verify answers with
    # an exit code of the contract and never raises
    blob = copy.deepcopy(LEAF_FILE)
    _set(path, value)(blob)
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "module.json")
        with open(target, "w") as fh:
            json.dump(blob, fh)
        assert main(["verify", target]) in (0, 1, 2)


_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=25)
COEFFICIENTS = (
    st.integers(-(10**30), 10**30)
    | st.builds("{}{}".format, _SIGN, _DIGITS)
    | st.builds("{}{}/{}".format, _SIGN, _DIGITS, _DIGITS.filter(lambda q: int(q) != 0))
    | st.builds("{}{}.{}".format, _SIGN, _DIGITS | st.just(""), _DIGITS | st.just(""))
    .filter(lambda c: any(ch.isdigit() for ch in c))
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.data())
def test_scalar_reader_agrees_with_fraction(m, data):
    f = field(m)
    coeffs = data.draw(st.lists(COEFFICIENTS, min_size=f.degree, max_size=f.degree))
    got = jsonio.num_from_json({"m": m, "coeffs": coeffs})
    want = f.num([Fraction(c) for c in coeffs])
    assert (got.nums, got.den) == (want.nums, want.den)


def test_cli_classify_sl2_json_is_pinned(capsys):
    """`colour --json classify-sl2 --max-lambda 8` prints, byte for byte,
    the report kept in tests/data (written by the dense intertwiner solver
    that the spin solver replaced)."""
    path = os.path.join(os.path.dirname(__file__), "data", "classify_sl2_max8.json")
    with open(path, "rb") as fh:
        pinned = fh.read()
    assert main(["--json", "classify-sl2", "--max-lambda", "8"]) == 0
    assert capsys.readouterr().out.encode() == pinned
