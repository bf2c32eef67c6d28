"""
Run one fixed list of 65 CLI invocations against two source trees and
compare what they print.

    python tools/cli_compare.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``whitneyext`` package
(the ``src/`` of two checkouts).  The script writes its own fixtures to a
temporary directory and runs every invocation there in two fresh
interpreters side by side, one with each tree on PYTHONPATH.  The list
covers decompose (on a point set, on a 2-D point set whose cube centres
are equidistant from both points, which pins the anchor tie-break, on
boxes, on a 2-D point set spelled as zero-width boxes, and on 3-D boxes
with non-dyadic bounds); extend with values, ``--k``, ``--schedule`` and ``--derivs`` at
n = 1, 2, 3, with ``--derivs`` on a grid of the jet's own points (their
rows read from the jet), with ``--derivs`` on rows 1e-9 .. 1e-3 from a
jet point at n = 3, with ``--derivs`` to order 4 on a fine off-lattice
grid at n = 3 and on a one-row and a two-row grid there (their rows fall
in the cut-offs' transition bands), with
values at n = 4 (on 81 rows and on 625), on a jet file of explicit values with varied key
spellings (with values and ``--schedule``), on a
1000-point jet file of the benchmark's grid-tile shape (a tile with
values, and 2500 rows with ``--derivs``, which the cube search takes in
many blocks), on a jet file
whose points use three key layouts, on jet files of that shape whose
points spell their keys alike in reverse order, whose points all but one
spell them in order, and whose points spell an extra index beyond the
order, on two malformed jet files and one with CRLF line ends (exit 2),
on a jet file with NaN and one with a UTF-8 byte-order mark (exit 2),
on grids whose middle row overflows (exit 2), lies below the
resolution (exit 3) or exhausts the degree schedule (exit 3), and on
single rows (the one-query cube search) below the resolution (exit 3)
and 1e-9 from a jet point with ``--derivs``; check-jet
on 3 points, on 40 points at n = 3, order 3, m = 2, at its order and
with ``--k 1``, on 120 such points (three blocks of anchors), and on a
jet whose tiny pair distances leave the float range at the power 2
(exit 2);
fdb; pullback (a polynomial map, the shear (x0 + 0.3 sin x1, x1) at
order 4 on 3 and on 15 source points and at order 3 on 64, a map from
R^3 to R^2 at order 3, and a bundle whose middle point overflows, exit
2, and bundles whose ids are integers of 20 and 30 digits and strings
that are not ASCII); manifold-extend with values and ``--derivs`` in
1-D, and with ``--derivs`` on a 2-D atlas of two charts with a jet in each; and every
verify suite, the correspondence suite also on that 2-D atlas.

For each invocation it prints "identical" when exit status, stdout and
stderr agree byte for byte.  Otherwise it lists the differing fields: CSV
cells by row and column, other output by line, each with its relative
change.  The exit status is 1 if any invocation differs, else 0.
"""

import csv
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

JETS = {
    "jet1.json": {
        "dim": 1,
        "order": 2,
        "induce": {
            "expr": ["exp(x0)"],
            "points": [{"id": "a", "x": [-1.0]}, {"id": "b", "x": [0.0]}, {"id": "c", "x": [1.0]}],
        },
    },
    "jet2.json": {
        "dim": 2,
        "order": 3,
        "induce": {
            "expr": ["sin(x0)*cos(x1)", "x0*x1^2"],
            "points": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]],
        },
    },
    "jet3.json": {
        "dim": 3,
        "order": 4,
        "induce": {
            "expr": ["exp(x0)*x1 + x2^2", "cos(x2)"],
            "points": [[0.0, 0.0, 0.0], [1.0, 0.5, -0.5], [-0.5, 1.0, 0.25], [0.3, -0.7, 0.9]],
        },
    },
    "jet4.json": {
        "dim": 4,
        "order": 2,
        "induce": {
            "expr": ["exp(x0)*x1 + x2*x3^2"],
            "points": [[0.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.25, 1.0], [-0.75, 0.5, -0.5, 0.25], [0.25, 0.75, 0.5, -0.5]],
        },
    },
}



def explicit_jet(count=300, seed=7):
    """An order-2 jet in 2-D with explicit values (those of a quadratic) at
    `count` jittered grid points.  Its keys vary in spelling ("[1,0]",
    "(1,0)", "[1, 0]"), in order, and some points spell an index twice with
    a stale value first, which the last spelling overrides."""
    rng = random.Random(seed)
    spellings = ["[{},{}]", "({},{})", "[{}, {}]", " [{},{}] "]
    side = math.ceil(math.sqrt(count))
    points = []
    for i in range(count):
        x = -1.0 + 2.0 * ((i % side) + rng.uniform(0.1, 0.9)) / side
        y = -1.0 + 2.0 * ((i // side) + rng.uniform(0.1, 0.9)) / side
        jet = {
            (0, 0): 1.0 + 2.0 * x - y + 0.5 * x * x + x * y - 0.3 * y * y,
            (1, 0): 2.0 + x + y,
            (0, 1): -1.0 + x - 0.6 * y,
            (2, 0): 1.0,
            (1, 1): 1.0,
            (0, 2): -0.6,
        }
        keys = list(jet)
        if i % 3 == 1:
            rng.shuffle(keys)
        values = {}
        if i % 5 == 2:
            values["(1,0)"] = [99.0]  # stale: spelled again below
        for a in keys:
            values[rng.choice(spellings).format(*a)] = [jet[a]]
        points.append({"id": f"q{i}", "x": [x, y], "values": values})
    return {"dim": 2, "order": 2, "outdim": 1, "points": points}


def _quadratic_rows(x, y):
    """The order-2 jet in 2-D of one fixed quadratic at (x, y), by index."""
    return {
        (0, 0): 1.0 + 2.0 * x - y + 0.5 * x * x + x * y - 0.3 * y * y,
        (1, 0): 2.0 + x + y,
        (0, 1): -1.0 + x - 0.6 * y,
        (2, 0): 1.0,
        (1, 1): 1.0,
        (0, 2): -0.6,
    }


def tile_jet(count=1000, seed=5, respell=lambda i, values: values):
    """An order-2 jet in 2-D with explicit values (those of a quadratic) at
    `count` uniform points of [-1, 1]^2, every point spelling its keys
    "[a,b]" in graded-lex order: the shape of the files of the benchmark's
    grid-tile workload.  ``respell(i, values)`` gives the values object of
    point i from that one."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        values = {"[%d,%d]" % a: [v] for a, v in _quadratic_rows(x, y).items()}
        points.append({"id": f"p{i}", "x": [x, y], "values": respell(i, values)})
    return {"dim": 2, "order": 2, "outdim": 1, "points": points}


def layouts_jet(count=60, seed=3):
    """The quadratic's order-2 jet at `count` points whose keys come in
    three layouts, by point: "[a,b]" in graded-lex order; "[a,b]" in
    reverse order; "(a,b)" in order after a stale first spelling of (1,0)."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        rows = list(_quadratic_rows(x, y).items())
        if i % 3 == 0:
            values = {"[%d,%d]" % a: [v] for a, v in rows}
        elif i % 3 == 1:
            values = {"[%d,%d]" % a: [v] for a, v in reversed(rows)}
        else:
            values = {"(1,0)": [99.0], **{"(%d,%d)" % a: [v] for a, v in rows}}
        points.append({"id": f"q{i}", "x": [x, y], "values": values})
    return {"dim": 2, "order": 2, "outdim": 1, "points": points}


def poly_jet(points, terms):
    """An order-2 jet in 2-D with explicit values: `terms` maps each index
    "[a,b]" to a function of (x0, x1)."""
    return [{"id": pid, "x": x, "values": {key: [fn(*x)] for key, fn in terms.items()}} for pid, x in points]


# pullback fixtures whose jets sit at the images of the source points
SHEAR_POINTS = [[0.3, -0.4], [-0.6, 0.8], [1.1, 0.2]]
LIFT_POINTS = [[0.5, -0.3, 0.7], [-0.2, 0.9, -1.1]]
# 15 source points: as many as the series of an order-4 jet in 2-D has
# coefficients
_rng = random.Random(15)
SHEAR15_POINTS = [[round(_rng.uniform(-1.2, 1.2), 3), round(_rng.uniform(-1.2, 1.2), 3)] for _ in range(15)]
# 64 source points, matched and multiplied as one batch
_rng = random.Random(64)
SHEAR64_POINTS = [[round(_rng.uniform(-1.2, 1.2), 4), round(_rng.uniform(-1.2, 1.2), 4)] for _ in range(64)]
# 40 points in 3-D: 1560 ordered pairs for check-jet's remainder table
_rng = random.Random(40)
CUBE40_POINTS = [[round(_rng.uniform(-1.0, 1.0), 5) for _ in range(3)] for _ in range(40)]
# 120 points: the remainder table takes three blocks of anchors
_rng = random.Random(120)
CUBE120_POINTS = [[round(_rng.uniform(-1.0, 1.0), 5) for _ in range(3)] for _ in range(120)]

FIXTURES = {
    "set1.json": {"dim": 1, "points": [[0.0]]},
    "set2.json": {"dim": 2, "boxes": [[[-1.0, 0.0], [-1.0, 0.0]], [[0.5, 1.5], [0.25, 0.75]]]},
    # the centres (0.5, y) of the level-0 cubes above and below are
    # equidistant from both points, and the first row is not the anchor
    "set3.json": {"dim": 2, "points": [[1.0, 0.0], [0.0, 0.0]]},
    # three points as boxes [p, p]
    "set4.json": {
        "dim": 2,
        "boxes": [[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.3], [-0.7, -0.7]], [[-0.45, -0.45], [0.2, 0.2]]],
    },
    "set5.json": {
        "dim": 3,
        "boxes": [[[-0.3, 0.1], [0.2, 0.7], [-0.9, -0.4]], [[0.35, 0.6], [-0.55, -0.1], [0.15, 0.45]]],
    },
    **JETS,
    "bundle.json": {
        "map": {"from_dim": 2, "expr": ["x0 + x1^2", "x1/2"]},
        "jet": JETS["jet2.json"],
        "points": [{"id": "b0", "x": [0.0, 0.0]}, {"id": "b1", "x": [0.0, 1.0]}, {"id": "b2", "x": [-4.5, 2.0]}],
    },
    "bundle_shear.json": {
        "map": {"from_dim": 2, "expr": ["x0 + 0.3*sin(x1)", "x1"]},
        "jet": {
            "dim": 2,
            "order": 4,
            "induce": {
                "expr": ["exp(0.4*x0)*cos(x1) + x0*x1^2", "sin(x0 - x1)"],
                "points": [[x0 + 0.3 * math.sin(x1), x1] for x0, x1 in SHEAR_POINTS],
            },
        },
        "points": [{"id": f"s{i}", "x": x} for i, x in enumerate(SHEAR_POINTS)],
    },
    "bundle_lift.json": {
        "map": {"from_dim": 3, "expr": ["x0*x1 + exp(0.2*x2)", "x1 - 0.5*x2^2"]},
        "jet": {
            "dim": 2,
            "order": 3,
            "induce": {
                "expr": ["sin(x0)*exp(x1)", "x0^2*x1 - cos(x1)"],
                "points": [[x0 * x1 + math.exp(0.2 * x2), x1 - 0.5 * x2**2] for x0, x1, x2 in LIFT_POINTS],
            },
        },
        "points": [{"id": f"l{i}", "x": x} for i, x in enumerate(LIFT_POINTS)],
    },
    "bundle_shear15.json": {
        "map": {"from_dim": 2, "expr": ["x0 + 0.3*sin(x1)", "x1"]},
        "jet": {
            "dim": 2,
            "order": 4,
            "induce": {
                "expr": ["exp(0.4*x0)*cos(x1) + x0*x1^2", "sqrt(2 + x0^2) / (1 + x1^2)"],
                "points": [[x0 + 0.3 * math.sin(x1), x1] for x0, x1 in SHEAR15_POINTS],
            },
        },
        "points": [{"id": f"s{i}", "x": x} for i, x in enumerate(SHEAR15_POINTS)],
    },
    "bundle_shear64.json": {
        "map": {"from_dim": 2, "expr": ["x0 + 0.3*sin(x1)", "x1"]},
        "jet": {
            "dim": 2,
            "order": 3,
            "induce": {
                "expr": ["cos(0.7*x0)*exp(0.2*x1) + x0^2*x1", "ln(3 + x0*x1) - x1^3/6"],
                "points": [[x0 + 0.3 * math.sin(x1), x1] for x0, x1 in SHEAR64_POINTS],
            },
        },
        "points": [{"id": f"s{i}", "x": x} for i, x in enumerate(SHEAR64_POINTS)],
    },
    # the row of s1 overflows (10 * 1e308), and the image of s2 matches no
    # stored point
    "bundle_fails.json": {
        "map": {"from_dim": 1, "expr": ["10*x0"]},
        "jet": {
            "dim": 1,
            "order": 1,
            "outdim": 1,
            "points": [
                {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [1.0]}},
                {"id": "b", "x": [10.0], "values": {"[0]": [0.0], "[1]": [1e308]}},
                {"id": "c", "x": [20.0], "values": {"[0]": [0.0], "[1]": [1.0]}},
            ],
        },
        "points": [{"id": "s0", "x": [0.0]}, {"id": "s1", "x": [1.0]}, {"id": "s2", "x": [5.0]}],
    },
    "jet40.json": {
        "dim": 3,
        "order": 3,
        "induce": {"expr": ["exp(0.5*x0)*cos(x1) + x2^3", "sin(x0*x2) - x1^2"], "points": CUBE40_POINTS},
    },
    "jet120.json": {
        "dim": 3,
        "order": 3,
        "induce": {"expr": ["exp(0.5*x0)*cos(x1) + x2^3", "sin(x0*x2) - x1^2"], "points": CUBE120_POINTS},
    },
    # the pairs of 0 with 1e-200 and of 1e-200 with 3e-200 have powers 2
    # that underflow; the first in pair order is named (exit 2)
    "jet_tiny_pairs.json": {
        "dim": 1,
        "order": 2,
        "induce": {"expr": ["x0^2"], "points": [[1.0], [1e-200], [3e-200], [0.0]]},
    },
    "explicit.json": explicit_jet(),
    "tile.json": tile_jet(),
    "layouts.json": layouts_jet(),
    # keys that every point spells alike in reverse order; one point of 200
    # in reverse order, the others in order; an index beyond the order
    # (ignored) at every point
    "reordered.json": tile_jet(200, 11, lambda i, values: dict(reversed(values.items()))),
    "one_reordered.json": tile_jet(
        200, 12, lambda i, values: dict(reversed(values.items())) if i == 150 else values
    ),
    "extra_key.json": tile_jet(200, 13, lambda i, values: {**values, "[3,0]": [7.0]}),
    # malformed: the second point's "x" holds null (a TypeError traceback
    # before the jet was read as stacked arrays), and a value row one number
    # too long (exit 2 with the same line before and after)
    "x_null.json": {
        "dim": 1,
        "order": 1,
        "outdim": 1,
        "points": [
            {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [1.0]}},
            {"id": "b", "x": [None], "values": {"[0]": [0.0], "[1]": [1.0]}},
        ],
    },
    "long_row.json": {
        "dim": 1,
        "order": 1,
        "outdim": 1,
        "points": [
            {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [1.0]}},
            {"id": "b", "x": [1.0], "values": {"[0]": [0.0, 2.0], "[1]": [1.0]}},
        ],
    },
    "slopes.json": {  # F' leaves the float range between the two points
        "dim": 1,
        "order": 1,
        "outdim": 1,
        "points": [
            {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [-1.7e308]}},
            {"id": "b", "x": [1.0], "values": {"[0]": [0.0], "[1]": [1.7e308]}},
        ],
    },
    "atlas.json": {
        "dim": 1,
        "charts": [{"id": "u", "codomain": "all"}, {"id": "v", "codomain": "all"}],
        "transitions": [
            {"from": "u", "to": "v", "map": ["2*x0"]},
            {"from": "v", "to": "u", "map": ["x0/2"]},
        ],
        "jets": [
            {
                "chart": "u",
                "points": [
                    {"id": "p", "x": [0.5], "values": {"[0]": [0.25], "[1]": [1.0], "[2]": [2.0]}},
                    {"id": "q", "x": [-1.0], "values": {"[0]": [1.0], "[1]": [-2.0], "[2]": [2.0]}},
                ],
            }
        ],
        "pou": [{"chart": "u", "h": ["1"]}],
    },
    # two 2-D charts related by the shear, a jet in each, and bumps that
    # vary with the point
    "atlas2.json": {
        "dim": 2,
        "charts": [{"id": "u", "codomain": "all"}, {"id": "v", "codomain": "all"}],
        "transitions": [
            {"from": "u", "to": "v", "map": ["x0 + 0.3*sin(x1)", "x1"]},
            {"from": "v", "to": "u", "map": ["x0 - 0.3*sin(x1)", "x1"]},
        ],
        "jets": [
            {
                "chart": "u",
                "points": poly_jet(
                    [("p", [0.3, -0.4]), ("q", [-0.6, 0.8]), ("r", [0.9, 0.1])],
                    {
                        "[0,0]": lambda a, b: a * a * b - a + 0.5 * b**3,
                        "[1,0]": lambda a, b: 2 * a * b - 1,
                        "[0,1]": lambda a, b: a * a + 1.5 * b * b,
                        "[2,0]": lambda a, b: 2 * b,
                        "[1,1]": lambda a, b: 2 * a,
                        "[0,2]": lambda a, b: 3 * b,
                    },
                ),
            },
            {
                "chart": "v",
                "points": poly_jet(
                    [("s", [0.5, 0.2]), ("t", [-0.7, -0.5])],
                    {
                        "[0,0]": lambda a, b: a * b + b * b,
                        "[1,0]": lambda a, b: b,
                        "[0,1]": lambda a, b: a + 2 * b,
                        "[2,0]": lambda a, b: 0.0,
                        "[1,1]": lambda a, b: 1.0,
                        "[0,2]": lambda a, b: 2.0,
                    },
                ),
            },
        ],
        "pou": [{"chart": "u", "h": ["0.5 + 0.1*sin(x0)"]}, {"chart": "v", "h": ["0.5 - 0.1*sin(x0 - 0.3*sin(x1))"]}],
    },
    # ids of 20 and 30 digits, beyond what orjson reads as integers
    "bundle_long_ids.json": {
        "map": {"from_dim": 1, "expr": ["2*x0"]},
        "jet": {
            "dim": 1,
            "order": 2,
            "induce": {
                "expr": ["exp(x0)"],
                "points": [{"id": 12345678901234567890, "x": [0.5]}, {"id": 98765432109876543210, "x": [1.0]}],
            },
        },
        "points": [{"id": 123456789012345678901234567890, "x": [0.25]}, {"id": 10**29 + 7, "x": [0.5]}],
    },
    "jet_nan.json": {
        "dim": 1,
        "order": 1,
        "outdim": 1,
        "points": [
            {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [1.0]}},
            {"id": "b", "x": [1.0], "values": {"[0]": [math.nan], "[1]": [1.0]}},
        ],
    },
}

# files written as these bytes: a UTF-8 byte-order mark, ids that are not
# ASCII, and a malformed jet with CRLF line ends
RAW_FIXTURES = {
    "jet_bom.json": b"\xef\xbb\xbf" + json.dumps(JETS["jet1.json"]).encode(),
    "bundle_non_ascii.json": json.dumps(
        {
            "map": {"from_dim": 1, "expr": ["2*x0"]},
            "jet": {
                "dim": 1,
                "order": 2,
                "induce": {"expr": ["sin(x0)"], "points": [{"id": "\u00e9t\u00e9", "x": [0.5]}, {"id": "\u03b1", "x": [1.0]}]},
            },
            "points": [{"id": "\u00fcber", "x": [0.25]}, {"id": "\u03b2\u2082", "x": [0.5]}],
        },
        ensure_ascii=False,
    ).encode(),
    "jet_crlf.json": b'{\r\n  "dim": 1,\r\n  "order": 1,\r\n  "outdim": 1,\r\n  "points": [,]\r\n}\r\n',
}

INVOCATIONS = [
    ("decompose 1-D", ["decompose", "--input", "set1.json", "--grid=-3:9", "--max-level", "5"]),
    ("decompose 2-D equidistant centres", ["decompose", "--input", "set3.json", "--grid=0:1,-8:8", "--max-level", "3"]),
    ("decompose 2-D boxes", ["decompose", "--input", "set2.json", "--grid=-2:2,-2:2", "--max-level", "4"]),
    ("decompose 2-D points as boxes", ["decompose", "--input", "set4.json", "--grid=-1.5:1.5,-1.5:1.5", "--max-level", "5"]),
    ("decompose 3-D non-dyadic boxes", ["decompose", "--input", "set5.json", "--grid=-1.2:1.2,-1.2:1.2,-1.2:1.2", "--max-level", "3"]),
    ("extend 1-D values", ["extend", "--input", "jet1.json", "--grid=-1.9:2.3:0.37"]),
    ("extend 1-D --k 0", ["extend", "--input", "jet1.json", "--grid=-1.9:2.3:0.37", "--k", "0"]),
    ("extend 1-D --schedule", ["extend", "--input", "jet1.json", "--grid=-1.9:2.3:0.37", "--schedule", "2,0.5"]),
    ("extend 1-D --derivs", ["extend", "--input", "jet1.json", "--grid=-1.9:2.3:0.37", "--derivs", "(1) (2)"]),
    ("extend 1-D --derivs on the jet points", ["extend", "--input", "jet1.json", "--grid=-1:1:1", "--derivs", "(1) (2)"]),
    ("extend 2-D values", ["extend", "--input", "jet2.json", "--grid=-1:1.5:0.31,-0.5:1.5:0.29"]),
    ("extend 2-D --k 1", ["extend", "--input", "jet2.json", "--grid=-1:1.5:0.31,-0.5:1.5:0.29", "--k", "1"]),
    ("extend 2-D --schedule", ["extend", "--input", "jet2.json", "--grid=-1:1.5:0.31,-0.5:1.5:0.29", "--schedule", "4,1,0.3"]),
    (
        "extend 2-D --derivs",
        ["extend", "--input", "jet2.json", "--grid=-1:1.5:0.31,-0.5:1.5:0.29", "--derivs", "(1,0) (0,1) (1,1) (0,3)"],
    ),
    ("extend 3-D values", ["extend", "--input", "jet3.json", "--grid=-1:1:0.45,-1:1:0.45,-0.5:1:0.55"]),
    ("extend 3-D --k 2", ["extend", "--input", "jet3.json", "--grid=-1:1:0.45,-1:1:0.45,-0.5:1:0.55", "--k", "2"]),
    (
        "extend 3-D --schedule",
        ["extend", "--input", "jet3.json", "--grid=-1:1:0.45,-1:1:0.45,-0.5:1:0.55", "--schedule", "4,1.5,0.5"],
    ),
    (
        "extend 3-D --derivs",
        [
            "extend", "--input", "jet3.json", "--grid=-1:1:0.45,-1:1:0.45,-0.5:1:0.55",
            "--derivs", "(1,0,0) (0,1,1) (2,1,1)",
        ],
    ),
    # rows 1e-9 .. 1.4e-3 from the jet point at the origin: home levels
    # about 13 to 31
    (
        "extend 3-D --derivs near a jet point",
        [
            "extend", "--input", "jet3.json", "--grid=1e-9:1e-3:4.9e-4,-2e-9:1e-3:5e-4,3e-9:3e-9:1",
            "--derivs", "(1,1,0) (0,0,2) (3,1,0)",
        ],
    ),
    # an off-lattice grid whose rows fall in the transition bands of the
    # cubes' cut-offs, with derivatives to order 4: its derivative columns
    # read the derivative rows of the bump series, which the 3-D grids above
    # leave unchanged when only those rows move
    (
        "extend 3-D --derivs in the transition bands",
        [
            "extend", "--input", "jet3.json", "--grid=-1.13:1.1:0.137,-1.07:1.1:0.151,-0.93:1:0.173",
            "--derivs", "(1,0,0) (0,1,1) (2,1,1) (0,0,4) (1,1,2)",
        ],
    ),
    # one row and two rows, blended as batches of one and two queries; each
    # row has supporting cubes of two or three anchors with coordinates in
    # their cut-offs' transition bands
    (
        "extend 3-D --derivs on one row in the transition bands",
        [
            "extend", "--input", "jet3.json", "--grid=0.74:0.74:1,-0.45:-0.45:1,0.12:0.12:1",
            "--derivs", "(1,0,0) (0,2,1) (4,0,0) (1,1,2) (0,0,4) (2,2,0)",
        ],
    ),
    (
        "extend 3-D --derivs on two rows in the transition bands",
        [
            "extend", "--input", "jet3.json", "--grid=-0.15:-0.02:0.13,0.88:0.88:1,-0.76:-0.76:1",
            "--derivs", "(1,0,0) (0,2,1) (4,0,0) (1,1,2) (0,0,4) (2,2,0)",
        ],
    ),
    ("extend 4-D values", ["extend", "--input", "jet4.json", "--grid=-1:1:0.7,-1:1:0.7,-1:1:0.7,-1:1:0.7"]),
    ("extend 4-D values on 625 rows", ["extend", "--input", "jet4.json", "--grid=-1.1:1.1:0.55,-1.1:1.1:0.55,-1.1:1.1:0.55,-1.1:1.1:0.55"]),
    ("extend 2-D explicit values", ["extend", "--input", "explicit.json", "--grid=-1.1:1.1:0.23,-1.1:1.1:0.31"]),
    # the supporting cubes take schedule degrees 0, 1 and 2 on this grid
    (
        "extend 2-D explicit --schedule",
        ["extend", "--input", "explicit.json", "--grid=-1.1:1.1:0.23,-1.1:1.1:0.31", "--schedule", "0.3,0.05"],
    ),
    # one 4x4 tile of the grid-tile workload's query grid, on a 1000-point
    # jet file of its shape
    ("extend 2-D tile of a 1000-point jet", ["extend", "--input", "tile.json", "--grid=-0.25:-0.03:0.0702,0.3:0.52:0.0702"]),
    (
        "extend 2-D --derivs on 2500 rows of a 1000-point jet",
        ["extend", "--input", "tile.json", "--grid=-1.2:1.2:0.0485,-1.2:1.2:0.0485", "--derivs", "(1,0) (0,1) (1,1) (0,2)"],
    ),
    ("extend 2-D three key layouts", ["extend", "--input", "layouts.json", "--grid=-1.1:1.1:0.23,-1.1:1.1:0.31"]),
    ("extend 2-D keys reordered alike", ["extend", "--input", "reordered.json", "--grid=-1.1:1.1:0.23,-1.1:1.1:0.31"]),
    (
        "extend 2-D one point in another key layout",
        ["extend", "--input", "one_reordered.json", "--grid=-1.1:1.1:0.23,-1.1:1.1:0.31"],
    ),
    ("extend 2-D an extra key at every point", ["extend", "--input", "extra_key.json", "--grid=-1.1:1.1:0.23,-1.1:1.1:0.31"]),
    ("extend malformed jet, x null", ["extend", "--input", "x_null.json", "--grid=0:1:0.5"]),
    ("extend malformed jet, long value row", ["extend", "--input", "long_row.json", "--grid=0:1:0.5"]),
    ("extend jet with NaN", ["extend", "--input", "jet_nan.json", "--grid=0:1:0.5"]),
    ("extend jet with a byte-order mark", ["extend", "--input", "jet_bom.json", "--grid=0:1:0.5"]),
    ("extend malformed jet, CRLF line ends", ["extend", "--input", "jet_crlf.json", "--grid=0:1:0.5"]),
    # a middle row fails: F'(0.51) overflows (exit 2), and the fourth of
    # seven rows, 5.55e-17, lies below the dyadic resolution of 0 (exit 3)
    (
        "extend overflow at a middle row",
        ["extend", "--input", "slopes.json", "--derivs", "(1)", "--grid=0.5:0.52:0.01"],
    ),
    ("extend resolution at a middle row", ["extend", "--input", "jet1.json", "--grid=-0.3:0.3:0.1"]),
    # single rows, which take the one-query cube search: one below the
    # dyadic resolution of 0 (exit 3), and one on level 33 with derivatives
    ("extend one row below the resolution", ["extend", "--input", "jet1.json", "--grid=5.55e-17:5.55e-17:1"]),
    ("extend one deep row --derivs", ["extend", "--input", "jet1.json", "--grid=1e-9:1e-9:1", "--derivs", "(1) (2)"]),
    # the fourth of seven rows, -1.4, needs schedule degree 3 of an order-2
    # jet (exit 3)
    (
        "extend schedule exhausted at a middle row",
        ["extend", "--input", "jet1.json", "--grid=-2.6:-0.2:0.4", "--schedule", "4,1.5,0.5"],
    ),
    ("check-jet", ["check-jet", "--input", "jet2.json"]),
    ("check-jet 3-D 40 points", ["check-jet", "--input", "jet40.json"]),
    ("check-jet 3-D 40 points --k 1", ["check-jet", "--input", "jet40.json", "--k", "1"]),
    ("check-jet 3-D 120 points", ["check-jet", "--input", "jet120.json"]),
    ("check-jet tiny pair distances", ["check-jet", "--input", "jet_tiny_pairs.json"]),
    ("fdb", ["fdb", "--alpha", "(2,1)", "--target-dim", "2"]),
    ("pullback", ["pullback", "--input", "bundle.json"]),
    ("pullback shear s=t=2 k=4", ["pullback", "--input", "bundle_shear.json"]),
    ("pullback R^3 -> R^2 k=3", ["pullback", "--input", "bundle_lift.json"]),
    ("pullback shear 15 points k=4", ["pullback", "--input", "bundle_shear15.json"]),
    ("pullback shear 64 points k=3", ["pullback", "--input", "bundle_shear64.json"]),
    # the middle point's row overflows before the last image fails to match
    # (exit 2)
    ("pullback overflow at a middle point", ["pullback", "--input", "bundle_fails.json"]),
    ("pullback ids of 20 and 30 digits", ["pullback", "--input", "bundle_long_ids.json"]),
    ("pullback ids that are not ASCII", ["pullback", "--input", "bundle_non_ascii.json"]),
    ("manifold-extend values", ["manifold-extend", "--input", "atlas.json", "--chart", "v", "--grid=-3:2:0.35"]),
    (
        "manifold-extend --derivs",
        ["manifold-extend", "--input", "atlas.json", "--chart", "v", "--grid=-3:2:0.35", "--derivs", "(1) (2)"],
    ),
    (
        "manifold-extend 2-D two charts --derivs",
        [
            "manifold-extend", "--input", "atlas2.json", "--chart", "v", "--grid=-1:1:0.25,-1:1:0.3",
            "--derivs", "(1,0) (0,1) (2,0) (1,1) (0,2)",
        ],
    ),
    ("verify partition", ["verify", "--suite", "partition"]),
    ("verify lemma-l", ["verify", "--suite", "lemma-l"]),
    ("verify extension", ["verify", "--suite", "extension"]),
    ("verify linearity", ["verify", "--suite", "linearity"]),
    ("verify correspondence", ["verify", "--suite", "correspondence"]),
    ("verify correspondence on the 2-D atlas", ["verify", "--suite", "correspondence", "--input", "atlas2.json"]),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def run_both(sources, argv, cwd):
    """(exit status, stdout, stderr) of one invocation under each source
    tree; the two interpreters run side by side."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "whitneyext.cli", *argv],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for src in sources
    ]
    results = []
    for proc in procs:
        out, err = proc.communicate()
        results.append((proc.returncode, out.decode(), err.decode()))
    return results


def change(old, new):
    """Relative change between two number strings, or '' when not numeric."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    if a == 0.0:
        return f"(abs {abs(b - a):.2g})"
    return f"(rel {abs(b - a) / abs(a):.2g})"


def csv_diffs(old, new):
    """Differing CSV cells as (label, old, new), or None if not one table shape."""
    a = list(csv.reader(old.splitlines()))
    b = list(csv.reader(new.splitlines()))
    if not a or len(a) != len(b) or a[0] != b[0] or len(a[0]) < 2:
        return None
    header = a[0]
    if any(len(row) != len(header) for row in a + b):
        return None
    keys = [i for i, name in enumerate(header) if re.fullmatch(r"x\d+", name)] or [0, 1]
    out = []
    for ra, rb in zip(a[1:], b[1:]):
        where = ",".join(f"{header[i]}={ra[i]}" for i in keys)
        out += [(f"{where} {name}", x, y) for name, x, y in zip(header, ra, rb) if x != y]
    return out


def line_diffs(old, new):
    """Differing numbers of lines that agree apart from them; other lines whole."""
    a, b = old.splitlines(), new.splitlines()
    out = []
    if len(a) != len(b):
        out.append((f"line count {len(a)} -> {len(b)}", "", ""))
    for i, (x, y) in enumerate(zip(a, b), start=1):
        if x == y:
            continue
        if NUMBER.sub("#", x) == NUMBER.sub("#", y):
            nx, ny = NUMBER.findall(x), NUMBER.findall(y)
            out += [(f"line {i} number {j}", p, q) for j, (p, q) in enumerate(zip(nx, ny), 1) if p != q]
        else:
            out.append((f"line {i}", x, y))
    return out


def main(argv):
    if len(argv) != 3:
        print("usage: python tools/cli_compare.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = argv[1], argv[2]
    for src in (old_src, new_src):
        if not os.path.isfile(os.path.join(src, "whitneyext", "cli.py")):
            print(f"error: {src} holds no whitneyext package", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as work:
        for name, doc in FIXTURES.items():
            with open(os.path.join(work, name), "w") as fh:
                json.dump(doc, fh)
        for name, data in RAW_FIXTURES.items():
            with open(os.path.join(work, name), "wb") as fh:
                fh.write(data)
        for label, cmd in INVOCATIONS:
            old, new = run_both((old_src, new_src), cmd, work)
            if old == new:
                print(f"{label}: identical (exit {old[0]})")
                continue
            differ += 1
            print(f"{label}: DIFFERENT")
            if old[0] != new[0]:
                print(f"    exit status {old[0]} -> {new[0]}")
            if old[2] != new[2]:
                print(f"    stderr {old[2].strip()[-200:]!r} -> {new[2].strip()[-200:]!r}")
            fields = csv_diffs(old[1], new[1])
            if fields is None:
                fields = line_diffs(old[1], new[1])
            for where, x, y in fields:
                print(f"    {where}: {x} -> {y} {change(x, y)}".rstrip())
    print(f"{len(INVOCATIONS) - differ} of {len(INVOCATIONS)} invocations identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
