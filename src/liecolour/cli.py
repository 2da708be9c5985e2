"""Command line front end.

    colour verify <algebra.json|module.json>
    colour discolour <algebra.json> --sigma <sigma.json|paper-sl2>
    colour loop <module.json> --refine-by g1,g2,...
    colour irreducible <module.json>
    colour isomorphic <a.json> <b.json>
    colour lift <module.json> --group n1,n2,...
    colour classify-sl2 --max-lambda N --out report.json
    colour bd-model --out dir/

Global flags: --seed <u64> (randomized fuzz checks), --json (machine
readable stdout).  Exit codes: 0 all checks pass, 1 mathematical mismatch,
2 invalid input.

Group elements on the command line are colon-separated residue tuples,
e.g. ``--refine-by 1:1`` for the diagonal of Z2xZ2; several generators are
separated by commas.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import jsonio, loopfunctor, workbench
from .abelian import AbelianGroup, subgroup_from_generators
from .colouralg import ColourAlgebra, discolour
from .errors import (
    AlgebraValidationError,
    InvalidInput,
    LieColourError,
    ModuleValidationError,
)
from .gmodule import is_graded_irreducible, is_isomorphic

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2


def _parse_elements(text):
    return [
        tuple(jsonio.read_int(x.strip(), "group element") for x in chunk.split(":"))
        for chunk in text.split(",")
        if chunk.strip()
    ]


def _emit(args, payload, text):
    print(json.dumps(payload, sort_keys=True) if args.json else text)


def _load(path, kind):
    """The object in a JSON file of the kind ("algebra" or "module") given."""
    found, obj = jsonio.load_file(path)
    if found != kind:
        raise InvalidInput(f"{path}: expected {kind} file, not {found} file")
    return obj


def _fuzz_algebra(alg, seed, trials=20):
    """Seeded single-entry perturbations of the completed bracket table;
    each must be rejected by validation (or revalidate as genuinely
    consistent, which the perturbed-complete-table never does in practice)."""
    rng = random.Random(seed)
    n = alg.dim()
    rejected = 0
    for _ in range(trials):
        i, j = rng.randrange(n), rng.randrange(n)
        k = rng.randrange(n)
        delta = alg.field.from_rational(rng.choice([1, -1, 2, 3]))
        constants = {
            key: dict(row) for key, row in alg._table.items()
        }
        row = constants.setdefault((i, j), {})
        row[k] = row.get(k, alg.field.zero) + delta
        try:
            ColourAlgebra(alg.group, alg.epsilon, alg.basis, constants)
        except AlgebraValidationError:
            rejected += 1
    return rejected, trials


def cmd_verify(args):
    kind, obj = jsonio.load_file(args.file)  # raises on malformed input
    payload = {"kind": kind, "valid": True}
    text = f"{kind} ok"
    if kind == "algebra" and args.seed is not None:
        rejected, trials = _fuzz_algebra(obj, args.seed)
        payload["fuzz"] = {"rejected": rejected, "trials": trials}
        text += f"; fuzz: {rejected}/{trials} perturbations rejected"
        if rejected != trials:
            _emit(args, payload, text)
            return EXIT_MISMATCH
    _emit(args, payload, text)
    return EXIT_OK


def cmd_discolour(args):
    alg = _load(args.algebra, "algebra")
    if args.sigma == "paper-sl2":
        sigma = workbench.discolouring_sigma()
    else:
        sigma = jsonio.load_multiplier(args.sigma)
    out = discolour(alg, sigma)
    print(jsonio.dump(jsonio.algebra_to_json(out)))
    return EXIT_OK


def cmd_loop(args):
    module = _load(args.module, "module")
    gens = _parse_elements(args.refine_by) if args.refine_by else []
    refiner = subgroup_from_generators(module.algebra.group, gens)
    lm = loopfunctor.loop(module, refiner)
    print(jsonio.dump(jsonio.module_to_json(lm.module)))
    return EXIT_OK


def cmd_irreducible(args):
    verdict = is_graded_irreducible(_load(args.module, "module"))
    if verdict.irreducible:
        text = f"irreducible (closure dimension {verdict.closure_dim})"
    else:
        text = f"reducible: proper graded submodule of dim {verdict.witness.dim}"
    _emit(args, verdict.to_json(), text)
    return EXIT_OK if verdict.irreducible else EXIT_MISMATCH


def cmd_isomorphic(args):
    same = is_isomorphic(_load(args.a, "module"), _load(args.b, "module"))
    _emit(args, {"isomorphic": same}, "isomorphic" if same else "not isomorphic")
    return EXIT_OK if same else EXIT_MISMATCH


def cmd_lift(args):
    module = _load(args.module, "module")
    orders = [
        jsonio.read_int(x.strip(), "group order") for x in args.group.split(",") if x.strip()
    ]
    if AbelianGroup(orders) != module.algebra.group:
        raise InvalidInput("lift group must be the algebra's grading group")
    report = loopfunctor.iterate_lift(module)
    print(jsonio.dump(report.to_json()))
    return EXIT_OK


def cmd_classify(args):
    report = workbench.classify_sl2c(args.max_lambda)
    payload = report.to_json()
    if args.out:
        jsonio.dump(payload, args.out)
    lines = []
    for row in report.rows:
        status = "ok" if row.passed else "MISMATCH " + "; ".join(row.notes)
        lines.append(
            f"lambda={row.lam}: {row.graded_classes} graded classes of dims "
            f"{row.graded_dims}, {row.ungraded_classes} ungraded [{status}]"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_bd_model(args):
    alg, seed, lm = workbench.make_bd_model()
    os.makedirs(args.out, exist_ok=True)
    jsonio.dump(jsonio.algebra_to_json(alg), os.path.join(args.out, "algebra.json"))
    jsonio.dump(jsonio.module_to_json(seed), os.path.join(args.out, "seed.json"))
    jsonio.dump(jsonio.module_to_json(lm.module), os.path.join(args.out, "loop.json"))
    summary = {
        "loop_dim": lm.module.dim,
        "sector_order": [[0, 0], [0, 1], [1, 1], [1, 0]],
        "block_diagonal": ["H", "Q1"],
        "block_anti_diagonal": ["Q2", "Z"],
        "assumptions": [
            "commutation factor (-1)^(a1*b1 + a2*b2) adopted for the"
            " supersymmetry example; it is compatible with the stated"
            " brackets without any recolouring"
        ],
    }
    jsonio.dump(summary, os.path.join(args.out, "summary.json"))
    _emit(args, summary, f"wrote algebra/seed/loop JSON to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="colour", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized fuzz checks")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate an algebra or module file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discolour", help="deform an algebra by a multiplier")
    p.add_argument("algebra")
    p.add_argument("--sigma", required=True, help="multiplier JSON file or 'paper-sl2'")
    p.set_defaults(func=cmd_discolour)

    p = sub.add_parser("loop", help="loop module along a refining subgroup")
    p.add_argument("module")
    p.add_argument("--refine-by", default="", help="subgroup generators, e.g. 1:1,0:1")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("irreducible", help="graded irreducibility verdict")
    p.add_argument("module")
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("isomorphic", help="graded isomorphism test")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_isomorphic)

    p = sub.add_parser("lift", help="lift an ungraded module along the composition series")
    p.add_argument("module")
    p.add_argument("--group", required=True, help="cyclic orders, e.g. 2,2")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("classify-sl2", help="reproduce the colour-sl2 classification")
    p.add_argument("--max-lambda", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bd-model", help="emit the 4-dim supersymmetry block model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bd_model)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraValidationError, ModuleValidationError) as exc:
        print(f"invalid object: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InvalidInput, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LieColourError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
