"""The full classification pipeline for colour sl2, weight by weight.

Each ungraded weight module is lifted along the composition series of
Z2 x Z2: at every prime-order step either the module admits a finer
grading (extracted from a proper submodule of its loop) or the loop itself
is the new irreducible.  Even weights refine twice and produce four
distinct fully graded classes; odd weights stop at an irreducible loop of
twice the dimension.

The classification report checks the computed classes against the
constructed catalog.  For odd weights the two loop gradings built from the
even/odd splits are exactly isomorphic (the splits are character twists of
each other), so each odd weight carries a single graded class; the report
records that as a note.  Every row prints `ok` and the overall verdict is
`overall pass: True` up to lambda = 6.

Run with:  python3 demos/04_classify_colour_sl2.py
"""

from liecolour import iterate_lift
from liecolour.workbench import classify_sl2c, make_V_lambda

print("== lifting the weight modules ==")
for lam in range(4):
    report = iterate_lift(make_V_lambda(lam))
    steps = " -> ".join(
        f"{'grade' if s.gradable else 'loop'}(dim {s.module.dim})" for s in report.steps
    )
    dims = [c.dim for c in report.classes]
    print(f"lambda={lam}: {steps}; final classes {dims}")

print()
print("== classification report up to lambda = 6 ==")
rep = classify_sl2c(6)
for row in rep.rows:
    status = "ok" if row.passed else "MISMATCH"
    print(
        f"lambda={row.lam}: {row.graded_classes} graded classes of dims "
        f"{row.graded_dims}, {row.ungraded_classes} ungraded classes [{status}]"
    )
    for note in row.notes:
        print("   ", note)
print()
print("overall pass:", rep.passed)
