"""End-to-end CLI behavior: commands, file formats, exit codes, determinism."""

import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import whitneyext
from whitneyext import cli, exprlang, jets, multiindex


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def setfile(tmp_path):
    p = tmp_path / "set.json"
    p.write_text(json.dumps({"dim": 1, "points": [[0.0]]}))
    return str(p)


@pytest.fixture()
def jetfile(tmp_path):
    p = tmp_path / "jet.json"
    p.write_text(
        json.dumps(
            {
                "dim": 1,
                "order": 2,
                "induce": {
                    "expr": ["exp(x0)"],
                    "points": [
                        {"id": "a", "x": [-1.0]},
                        {"id": "b", "x": [0.0]},
                        {"id": "c", "x": [1.0]},
                    ],
                },
            }
        )
    )
    return str(p)


@pytest.fixture()
def atlasfile(tmp_path):
    doc = {
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
                    {
                        "id": "p",
                        "x": [0.5],
                        "values": {"[0]": [0.25], "[1]": [1.0], "[2]": [2.0]},
                    }
                ],
            }
        ],
        "pou": [{"chart": "u", "h": ["1"]}],
    }
    p = tmp_path / "atlas.json"
    p.write_text(json.dumps(doc))
    return str(p)


# -- decompose -------------------------------------------------------------------


def test_decompose_rows(setfile, tmp_path):
    out = tmp_path / "cubes.csv"
    rc = run(["decompose", "--input", setfile, "--grid", "1:8",
              "--max-level", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["level", "corner", "center", "side"]
    body = [ln.split(",") for ln in lines[1:]]
    keys = {(row[0], row[1]) for row in body}
    assert ("0", "[4]") in keys
    assert ("1", "[4]") in keys  # the cube [2, 2.5]


def test_decompose_empty_range(setfile, tmp_path):
    # a query box inside the set's resolution-hole is just empty output
    out = tmp_path / "cubes.csv"
    rc = run(["decompose", "--input", setfile, "--grid=-0.001:0.001",
              "--max-level", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1:] == []


def test_decompose_determinism(setfile, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["decompose", "--input", setfile, "--grid=-3:9",
                    "--max-level", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decompose_bad_set_spec(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 1, "points": [[0.0]], "boxes": [[[1.0, 2.0]]]}))
    rc = run(["decompose", "--input", str(p), "--grid", "0:1", "--max-level", "2"])
    assert rc == 2


@pytest.mark.parametrize(
    "boxes, message",
    [
        ([[[1.0, 0.0]]], "malformed box"),
        ([[[0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]], "boxes have mixed dimensions"),
    ],
)
def test_decompose_rejects_malformed_boxes(boxes, message, tmp_path, capsys):
    p = tmp_path / "set.json"
    p.write_text(json.dumps({"dim": 1, "boxes": boxes}))
    rc = run(["decompose", "--input", str(p), "--grid=-1:1", "--max-level", "3"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: {message}") and "Traceback" not in err, err


# -- extend ----------------------------------------------------------------------


def test_extend_values_and_derivs(jetfile, tmp_path):
    out = tmp_path / "f.csv"
    rc = run(["extend", "--input", jetfile, "--grid=-2:2:0.5",
              "--derivs", "(1)", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,F0,d[1]_F0"
    rows = {float(r.split(",")[0]): r.split(",")[1:] for r in lines[1:]}
    # grid point on the jet set: stored values echoed exactly
    assert float(rows[0.0][0]) == 1.0
    assert float(rows[1.0][0]) == math.exp(1.0)
    # off the set the extension interpolates smoothly; exp to a few percent
    assert abs(float(rows[0.5][0]) - math.exp(0.5)) < 0.05
    assert abs(float(rows[0.5][1]) - math.exp(0.5)) < 0.3


@pytest.mark.parametrize("derivs", ["(1)", "(1) (2)"])
def test_extend_values_match_derivs_run(jetfile, tmp_path, derivs):
    # the F columns are one computation with and without --derivs, bit for
    # bit, near the set and far from it
    for grid in ("-1.9:2.3:0.37", "-0.01:0.01:0.0013", "-40:40:3.7"):
        tables = []
        for extra in ([], ["--derivs", derivs]):
            out = tmp_path / "f.csv"
            assert run(["extend", "--input", jetfile, f"--grid={grid}", "--out", str(out), *extra]) == 0
            tables.append([row.split(",")[:2] for row in out.read_text().splitlines()])
        assert tables[0] == tables[1]


def test_extend_values_near_the_float_range(tmp_path, capsys):
    # F = +-1e308 on the two anchors: the blend of their Taylor polynomials
    # stays finite although their difference does not
    p = tmp_path / "jet.json"
    p.write_text(json.dumps({"dim": 1, "order": 0, "outdim": 1, "points": [
        {"id": "a", "x": [0.0], "values": {"[0]": [1e308]}},
        {"id": "b", "x": [1.0], "values": {"[0]": [-1e308]}}]}))
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["extend", "--input", str(p), "--grid=-0.5:1.5:0.25", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines() == [
        "x0,F0",
        "-0.5,1e+308", "-0.25,1e+308", "0.0,1e+308", "0.25,1e+308",
        "0.5,0.0",
        "0.75,-1e+308", "1.0,-1e+308", "1.25,-1e+308", "1.5,-1e+308",
    ]


def test_extend_respects_k(jetfile, tmp_path):
    out = tmp_path / "f.csv"
    rc = run(["extend", "--input", jetfile, "--grid", "2:2:1.0",
              "--k", "0", "--out", str(out)])
    assert rc == 0
    # with k=0 the far field is a convex combination of stored f0 values
    val = float(out.read_text().splitlines()[1].split(",")[1])
    assert math.exp(-1) - 1e-9 <= val <= math.exp(1) + 1e-9


def test_extend_derivs_beyond_k(jetfile, tmp_path):
    rc = run(["extend", "--input", jetfile, "--grid", "0:1:0.5",
              "--derivs", "(3)", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_extend_adaptive_schedule(jetfile, tmp_path):
    out = tmp_path / "a.csv"
    rc = run(["extend", "--input", jetfile, "--grid", "2:2:1.0",
              "--schedule", "4,1.5,0.5", "--out", str(out)])
    assert rc == 0
    val = float(out.read_text().splitlines()[1].split(",")[1])
    # anchor 1, realized degree 2: e * (1 + 1 + 1/2)
    assert val == pytest.approx(2.5 * math.exp(1.0), rel=1e-12)


def test_extend_schedule_and_derivs_conflict(jetfile, tmp_path):
    rc = run(["extend", "--input", jetfile, "--grid", "0:1:0.5",
              "--schedule", "1.0", "--derivs", "(1)",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_extend_numeric_error_exit(jetfile, tmp_path):
    # a query point off the set but far below dyadic resolution
    rc = run(["extend", "--input", jetfile, "--grid", "1e-30:1e-30:1.0",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_extend_underflowing_distance_is_not_on_set(tmp_path, capsys):
    # |x - 0| underflows to 0 in the norm, yet x is off A: exit 3, not 2
    p = tmp_path / "jet0.json"
    p.write_text(json.dumps({"dim": 1, "order": 2, "induce": {
        "expr": ["exp(x0)"], "points": [{"id": "o", "x": [0.0]}]}}))
    rc = run(["extend", "--input", str(p), "--grid=1e-200:1e-200:1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "no admissible cube" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1e308:1e308:1", "-1e200:-1e200:1", "4e150:4e150:1"])
def test_extend_huge_query_is_rejected(tmp_path, capsys, grid):
    # finite, but beyond 2^500 = 3.27e150, where squared distances and the
    # dyadic corners leave the float range: exit 2 with one error line
    p = tmp_path / "jet0.json"
    p.write_text(json.dumps({"dim": 1, "order": 2, "induce": {
        "expr": ["exp(x0)"], "points": [{"id": "o", "x": [0.0]}]}}))
    rc = run(["extend", "--input", str(p), f"--grid={grid}",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    x = float(grid.split(":")[0])
    assert capsys.readouterr().err == (
        f"error: query point ({x!r},) is too large: coordinates must stay below 2^500\n"
    )


def test_extend_overflowing_taylor_polynomial(tmp_path, capsys):
    # (1e120)^3 overflows in the order-3 Taylor polynomial at the anchor 0
    p = tmp_path / "jet0.json"
    p.write_text(json.dumps({"dim": 1, "order": 3, "induce": {
        "expr": ["exp(x0)"], "points": [{"id": "o", "x": [0.0]}]}}))
    rc = run(["extend", "--input", str(p), "--grid=1e120:1e120:1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the order-3 Taylor polynomial anchored at (0.0,) overflows at (1e+120,)\n"
    )


@pytest.mark.parametrize("derivs", [[], ["--derivs", "(1) (2)"]])
def test_extend_overflowing_taylor_term(tmp_path, capsys, derivs):
    # (1e150)^2 / 2 is finite, times f_2 = 1e10 it is not: one error line,
    # no numpy warning and no inf or nan in the output
    p = tmp_path / "jet0.json"
    p.write_text(json.dumps({"dim": 1, "order": 2, "outdim": 1, "points": [
        {"id": "o", "x": [0.0], "values": {"[0]": [0.0], "[1]": [0.0], "[2]": [1e10]}}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["extend", "--input", str(p), "--grid=1e150:1e150:1",
                  "--out", str(tmp_path / "x.csv"), *derivs])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the order-2 Taylor polynomial anchored at (0.0,) overflows at (1e+150,)\n"
    )


def _opposite_slopes(tmp_path):
    # each Taylor polynomial is finite, and between the two anchors their
    # difference f_1 = +1.7e308 - (-1.7e308) is not
    p = tmp_path / "jet.json"
    p.write_text(json.dumps({"dim": 1, "order": 1, "outdim": 1, "points": [
        {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [-1.7e308]}},
        {"id": "b", "x": [1.0], "values": {"[0]": [0.0], "[1]": [1.7e308]}}]}))
    return str(p)


def test_extend_blend_of_opposite_slopes(tmp_path, capsys):
    # F' is finite on this grid (0 at 0.5), and the blend prints it
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["extend", "--input", _opposite_slopes(tmp_path), "--derivs", "(1)",
                  "--grid=0.4:0.6:0.1", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines() == [
        "x0,F0,d[1]_F0",
        "0.4,-6.800000000000001e+307,-1.7e+308",
        "0.5,-8.5e+307,0.0",
        "0.6000000000000001,-6.799999999999999e+307,1.7e+308",
    ]


def test_extend_overflowing_blend(tmp_path, capsys):
    # F'(0.51) = 2.34e308 is beyond the float range: one error line, no
    # numpy warning and no inf in the output
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["extend", "--input", _opposite_slopes(tmp_path), "--derivs", "(1)",
                  "--grid=0.5:0.52:0.01", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the derivatives of the extension overflow at (0.51,)\n"
    )


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:nan:1", "0:1:nan", "-inf:0:0.5"])
def test_extend_non_finite_grid(jetfile, tmp_path, capsys, grid):
    rc = run(["extend", "--input", jetfile, f"--grid={grid}",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: grid group {grid!r} has a non-finite number\n"
    )


def test_decompose_huge_grid(setfile, capsys):
    rc = run(["decompose", "--input", setfile, "--grid=1e308:1e308"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: query point (1e+308,) is too large: coordinates must stay below 2^500\n"
    )


def test_decompose_non_finite_grid(setfile, capsys):
    rc = run(["decompose", "--input", setfile, "--grid=0:inf"])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bound, message",
    [
        ("NaN", "box [[0.0, nan]] of the closed set is not finite"),
        ("1e400", "box [[0.0, inf]] of the closed set is not finite"),
        (
            "1e200",
            "box [[0.0, 1e+200]] of the closed set is too large: coordinates must stay below 2^500",
        ),
    ],
)
def test_decompose_unrepresentable_box(tmp_path, capsys, bound, message):
    p = tmp_path / "set.json"
    p.write_text('{"dim": 1, "boxes": [[[0.0, %s]]]}' % bound)
    rc = run(["decompose", "--input", str(p), "--grid=-1:1", "--max-level", "3"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_UNREPRESENTABLE_JETS = {
    "nan-value": (
        '{"dim": 1, "order": 1, "outdim": 1, "points": ['
        '{"id": "a", "x": [0.0], "values": {"[0]": [NaN], "[1]": [1.0]}},'
        '{"id": "b", "x": [1.0], "values": {"[0]": [1.0], "[1]": [1.0]}}]}',
        "error: values for point a are not all finite\n",
    ),
    "infinite-coordinate": (
        '{"dim": 1, "order": 1, "outdim": 1, "points": ['
        '{"id": "a", "x": [Infinity], "values": {"[0]": [0.0], "[1]": [1.0]}},'
        '{"id": "b", "x": [1.0], "values": {"[0]": [1.0], "[1]": [1.0]}}]}',
        "error: point a has non-finite coordinates (inf,)\n",
    ),
    "overflowing-induced-power": (
        '{"dim": 1, "order": 2, "induce": {"expr": ["x0^400"],'
        ' "points": [{"id": "a", "x": [10.0]}]}}',
        "error: values for point a are not all finite\n",
    ),
    "overflowing-induced-exp": (
        '{"dim": 1, "order": 2, "induce": {"expr": ["exp(x0*1000)"],'
        ' "points": [{"id": "a", "x": [1.0]}]}}',
        "error: exp of 1000.0 overflows\n",
    ),
    # the outer coefficients 1/(i a0^i) of ln and sqrt leave the float range
    "ln-coefficient-beyond-the-float-range": (
        '{"dim": 1, "order": 2, "induce": {"expr": ["ln(x0)"],'
        ' "points": [{"id": "a", "x": [1e-200]}, {"id": "b", "x": [1.0]}]}}',
        "error: ln of series with constant term 1e-200: a coefficient leaves the float range\n",
    ),
    "sqrt-coefficient-beyond-the-float-range": (
        '{"dim": 1, "order": 2, "induce": {"expr": ["sqrt(x0)"],'
        ' "points": [{"id": "a", "x": [1.0]}, {"id": "b", "x": [1e200]}]}}',
        "error: sqrt of series with constant term 1e+200: a coefficient leaves the float range\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNREPRESENTABLE_JETS))
def test_extend_rejects_unrepresentable_jet(case, tmp_path, capsys):
    # NaN or infinite numbers in a jet file, or an induced jet whose
    # expression overflows: exit 2 with one error line, no traceback
    text, message = _UNREPRESENTABLE_JETS[case]
    p = tmp_path / "jet.json"
    p.write_text(text)
    rc = run(["extend", "--input", str(p), "--grid=0.5:2:0.5"])
    assert rc == 2
    assert capsys.readouterr().err == message


def _jet_file(points, **header):
    """A 1-D order-1 jet file (dim, order, outdim overridable) around the
    given point list."""
    return {"dim": 1, "order": 1, "outdim": 1, **header, "points": points}


def _point(pid, x, values=None):
    return {"id": pid, "x": x, "values": values or {"[0]": [1.0], "[1]": [2.0]}}


def _second_point(**fields):
    """Three good points, the second (id b) with the given fields replaced
    (a field given as None is removed)."""
    pts = [_point("a", [0.0]), _point("b", [1.0]), _point("c", [2.0])]
    pts[1] = {key: v for key, v in {**pts[1], **fields}.items() if v is not None}
    return _jet_file(pts)


_PLANE_VALUES = {"[0,0]": [1.0], "[1,0]": [2.0], "[0,1]": [3.0]}

# malformed jet files and the one error line each prints (exit 2); the
# first group printed a TypeError traceback before the jet was loaded as
# stacked arrays, the second already exited 2 with these lines
_MALFORMED_JETS = {
    "no-points": ({"dim": 1, "order": 1, "outdim": 1}, 'the jet has no "points"'),
    "points-int": (_jet_file(3), '"points" is a number, expected a list'),
    "points-object": (_jet_file({"a": 1}), '"points" is an object, expected a list'),
    # empty iterables, once read as a jet without points
    "points-empty-string": (_jet_file(""), '"points" is a string, expected a list'),
    "points-empty-object": (_jet_file({}), '"points" is an object, expected a list'),
    # an OverflowError traceback from the factorial 21! before orders were
    # checked where the file is read
    "order-21": (
        _jet_file([_point("a", [0.0], {f"[{i}]": [1.0] for i in range(22)})], order=21),
        "order 21 exceeds the largest supported jet order 20",
    ),
    "point-is-list": (
        _jet_file([_point("a", [0.0]), ["b", [1.0]]]), "points[1] is a list, expected an object"
    ),
    "point-without-id": (_second_point(id=None), 'points[1] has no "id"'),
    "point-without-x": (_second_point(x=None), 'point b has no "x"'),
    "x-scalar": (_second_point(x=1.0), '"x" of point b is 1.0, expected a list of dim = 1 numbers'),
    "x-nested": (
        _second_point(x=[[1.0]]), '"x" of point b is [[1.0]], expected a list of dim = 1 numbers'
    ),
    "x-null": (
        _second_point(x=[None]), '"x" of point b is [None], expected a list of dim = 1 numbers'
    ),
    "values-list": (
        _second_point(values=[[1.0], [2.0]]), '"values" of point b is a list, expected an object'
    ),
    "values-null": (
        _jet_file([_point("a", [0.0]), {"id": "b", "x": [1.0], "values": None}]),
        '"values" of point b is null, expected an object',
    ),
    "document-list": ([_point("a", [0.0])], "the jet is a list, expected an object"),
    "dim-null": (_jet_file([_point("a", [0.0])], dim=None), '"dim" is null, expected an integer'),
    "document-number": (3, "the jet is a number, expected an object"),
    "x-integer-beyond-floats": (
        _second_point(x=[10**400]),
        f'"x" of point b is [{10**400}], expected a list of dim = 1 numbers',
    ),
    "value-object": (
        _second_point(values={"[0]": [{}], "[1]": [2.0]}),
        "values for point b at index [0] are [{}], expected a list of outdim = 1 numbers",
    ),
    "x-short": (
        _jet_file(
            [_point("a", [0.0, 0.0], _PLANE_VALUES), _point("b", [1.0], _PLANE_VALUES),
             _point("c", [0.0, 1.0], _PLANE_VALUES)],
            dim=2,
        ),
        "point b has dimension 1, expected 2",
    ),
    "value-scalar": (
        _second_point(values={"[0]": 1.0, "[1]": [2.0]}),
        "values for point b at index [0] are 1.0, expected a list of outdim = 1 numbers",
    ),
    "value-string": (
        _second_point(values={"[0]": "1.0", "[1]": [2.0]}),
        "values for point b at index [0] are '1.0', expected a list of outdim = 1 numbers",
    ),
    "value-too-long": (
        _second_point(values={"[0]": [1.0, 3.0], "[1]": [2.0]}),
        "values for point b at index [0] are [1.0, 3.0], expected a list of outdim = 1 numbers",
    ),
    "key-unparseable": (
        _second_point(values={"[0]": [1.0], "[x]": [2.0]}), "cannot parse multi-index from '[x]'"
    ),
    "earlier-values-first": (
        _jet_file([_point("a", [0.0], {"[0]": [1.0, 3.0], "[1]": [2.0]}), _point("b", [None])]),
        "values for point a at index [0] are [1.0, 3.0], expected a list of outdim = 1 numbers",
    ),
    "duplicate-ids": (_second_point(id="a"), "duplicate point ids"),
    "duplicate-coordinates": (_second_point(x=[0.0]), "point coordinates (0.0,) appear twice"),
    "value-null": (
        _second_point(values={"[0]": [None], "[1]": [2.0]}), "values for point b are not all finite"
    ),
    "outdim-0": (
        _jet_file([_point("a", [0.0])], outdim=0),
        "values for point a have shape (2, 1), expected (2, 0)",
    ),
    "no-points-listed": (_jet_file([]), "closed set must be non-empty"),
    "x-huge": (
        _second_point(x=[2.0**500]),
        "point (3.273390607896142e+150,) of the closed set is too large: "
        "coordinates must stay below 2^500",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED_JETS))
def test_extend_rejects_malformed_jet_file(case, tmp_path, capsys):
    doc, message = _MALFORMED_JETS[case]
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(doc))
    rc = run(["extend", "--input", str(p), "--grid=0.5:1.5:0.5"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "points, message",
    [
        (3, '"points" is a number, expected a list'),
        ([{"id": "p", "x": [0.5], "values": [[0.25], [1.0]]}],
         '"values" of point p is a list, expected an object'),
        ([{"id": "p", "x": [0.5]}], 'point p has no "values"'),
        ([{"id": "p", "x": [0.5], "values": {}}], "point p is missing values for indices [(0,)]"),
        ([{"id": "p", "x": 0.5, "values": {"[0]": [0.25], "[1]": [1.0]}}],
         '"x" of point p is 0.5, expected a list of dim = 1 numbers'),
        # the order, 21, is read from the keys
        ([{"id": "p", "x": [0.5], "values": {f"[{i}]": [1.0] for i in range(22)}}],
         "order 21 exceeds the largest supported jet order 20"),
    ],
)
def test_manifold_extend_rejects_malformed_chart_jet(points, message, tmp_path, capsys):
    doc = {
        "dim": 1,
        "charts": [{"id": "u", "codomain": "all"}],
        "jets": [{"chart": "u", "points": points}],
        "pou": [{"chart": "u", "h": ["1"]}],
    }
    p = tmp_path / "atlas.json"
    p.write_text(json.dumps(doc))
    rc = run(["manifold-extend", "--input", str(p), "--chart", "u", "--grid=0:1:0.5"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")


def _induce_file(points=({"id": "a", "x": [1.0]},), expr=("x0",), **fields):
    doc = {"dim": 1, "order": 1, "induce": {"expr": list(expr), "points": list(points)}}
    return {**doc, **fields}


_MALFORMED_INDUCE = {
    "x-scalar": (
        _induce_file([{"id": "a", "x": 1.0}]), '"x" of point a is 1.0, expected a list of numbers'
    ),
    "x-holds-null": (
        _induce_file([{"id": "a", "x": [None]}]),
        '"x" of point a is [None], expected a list of numbers',
    ),
    "bare-entry-scalar": (_induce_file([[0.5], 2.0]), "points[1] is 2.0, expected a list of numbers"),
    "points-object": (
        {"dim": 1, "order": 1, "induce": {"expr": ["x0"], "points": {"a": [1.0]}}},
        '"points" is an object, expected a list',
    ),
    "dim-null": (_induce_file(dim=None), '"dim" is null, expected an integer'),
    "order-list": (_induce_file(order=[1]), '"order" is a list, expected an integer'),
    "outdim-null": (_induce_file(outdim=None), '"outdim" is null, expected an integer'),
    "induce-list": ({"dim": 1, "order": 1, "induce": [1]}, '"induce" is a list, expected an object'),
    "expr-number": (
        {"dim": 1, "order": 1, "induce": {"expr": 3, "points": []}},
        '"expr" of "induce" is 3, expected a list of strings',
    ),
    "order-21": (
        _induce_file([{"id": "a", "x": [0.0]}, {"id": "b", "x": [1.0]}], order=21),
        "order 21 exceeds the largest supported jet order 20",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED_INDUCE))
def test_extend_rejects_malformed_induce_file(case, tmp_path, capsys):
    doc, message = _MALFORMED_INDUCE[case]
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(doc))
    rc = run(["extend", "--input", str(p), "--grid=0.5:1.5:0.5"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("field", ["charts", "transitions", "jets", "pou"])
def test_manifold_extend_rejects_atlas_entries_that_are_not_objects(field, tmp_path, capsys):
    doc = {
        "dim": 1,
        "charts": [{"id": "u", "codomain": "all"}],
        "jets": [{"chart": "u", "points": [{"id": "p", "x": [0.5], "values": {"[0]": [1.0]}}]}],
        "pou": [{"chart": "u", "h": ["1"]}],
        field: [3],
    }
    p = tmp_path / "atlas.json"
    p.write_text(json.dumps(doc))
    rc = run(["manifold-extend", "--input", str(p), "--chart", "u", "--grid=0:1:0.5"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {field}[0] is a number, expected an object\n")


def test_manifold_extend_rejects_an_atlas_that_is_not_an_object(tmp_path, capsys):
    p = tmp_path / "atlas.json"
    p.write_text("[3]")
    rc = run(["manifold-extend", "--input", str(p), "--chart", "u", "--grid=0:1:0.5"])
    assert (rc, capsys.readouterr().err) == (2, "error: the atlas is a list, expected an object\n")


_MALFORMED_CODOMAIN = {
    "box-number": ({"box": 3}, "{'box': 3}"),
    "number": (3, "3"),
    "no-box": ({"bx": [[0, 1]]}, "{'bx': [[0, 1]]}"),
    "box-of-two-pairs": ({"box": [[0, 1], [0, 1]]}, "{'box': [[0, 1], [0, 1]]}"),
    "bound-null": ({"box": [[0, None]]}, "{'box': [[0, None]]}"),
    "triple": ({"box": [[0, 1, 2]]}, "{'box': [[0, 1, 2]]}"),
    "pair-string": ({"box": ["01"]}, "{'box': ['01']}"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_CODOMAIN))
def test_manifold_extend_rejects_a_malformed_codomain(case, tmp_path, capsys):
    codomain, shown = _MALFORMED_CODOMAIN[case]
    doc = {"dim": 1, "charts": [{"id": "u", "codomain": codomain}], "jets": [], "pou": []}
    p = tmp_path / "atlas.json"
    p.write_text(json.dumps(doc))
    rc = run(["manifold-extend", "--input", str(p), "--chart", "u", "--grid=0:1:0.5"])
    expected = 'expected "all" or {"box": [[lo, hi], ...]} with dim = 1 pairs of numbers'
    assert (rc, capsys.readouterr().err) == (2, f'error: "codomain" of chart u is {shown}, {expected}\n')


_MALFORMED_EXPRS = {
    "h-number": ("pou", "h", 3),
    "h-list-of-number": ("pou", "h", [3]),
    "h-string": ("pou", "h", "5"),  # not read as its characters
    "map-number": ("transitions", "map", 3),
    "map-list-of-number": ("transitions", "map", [3]),
    "map-string": ("transitions", "map", "x0"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_EXPRS))
@pytest.mark.parametrize("command", ["manifold-extend", "verify"])
def test_atlas_expressions_must_be_lists_of_strings(case, command, tmp_path, capsys):
    field, key, value = _MALFORMED_EXPRS[case]
    doc = {**_atlas_of_constants(1.0), "pou": [{"chart": "u", "h": ["1"]}]}
    doc[field][0][key] = value
    p = tmp_path / "atlas.json"
    p.write_text(json.dumps(doc))
    if command == "verify":
        rc = run(["verify", "--suite", "correspondence", "--input", str(p)])
    else:
        rc = run(["manifold-extend", "--input", str(p), "--chart", "u", "--grid=0:1:0.5"])
    message = f'"{key}" of {field}[0] is {value!r}, expected a list of strings'
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")


_MISSING_FIELDS = {
    "charts": (None, "charts", "the atlas"),
    "chart-id": ("charts", "id", "charts[0]"),
    "map": ("transitions", "map", "transitions[0]"),
    "from": ("transitions", "from", "transitions[0]"),
    "to": ("transitions", "to", "transitions[0]"),
    "jet-chart": ("jets", "chart", "jets[0]"),
    "jet-points": ("jets", "points", "jets[0]"),
    "h": ("pou", "h", "pou[0]"),
    "pou-chart": ("pou", "chart", "pou[0]"),
}


@pytest.mark.parametrize("case", list(_MISSING_FIELDS))
@pytest.mark.parametrize("command", ["manifold-extend", "verify"])
def test_atlas_names_a_missing_field(case, command, tmp_path, capsys):
    field, key, owner = _MISSING_FIELDS[case]
    doc = {**_atlas_of_constants(1.0), "pou": [{"chart": "u", "h": ["1"]}]}
    del (doc if field is None else doc[field][0])[key]
    p = tmp_path / "atlas.json"
    p.write_text(json.dumps(doc))
    if command == "verify":
        rc = run(["verify", "--suite", "correspondence", "--input", str(p)])
    else:
        rc = run(["manifold-extend", "--input", str(p), "--chart", "u", "--grid=0:1:0.5"])
    assert (rc, capsys.readouterr().err) == (2, f'error: {owner} has no "{key}"\n')


def test_extend_determinism(jetfile, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["extend", "--input", jetfile, "--grid=-3:3:0.25",
                    "--derivs", "(1) (2)", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- check-jet -------------------------------------------------------------------


def test_check_jet(jetfile, tmp_path):
    out = tmp_path / "report.json"
    rc = run(["check-jet", "--input", jetfile, "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["dim"] == 1 and rep["order"] == 2 and rep["points"] == 3
    assert rep["diameter"] == pytest.approx(2.0)
    assert rep["seminorm_prime"] == pytest.approx(math.exp(1.0))
    # moduli are reported at several radii and must be monotone in delta
    mods = {float(key): value for key, value in rep["moduli"].items()}
    radii = sorted(mods)
    assert len(radii) == 3
    assert all(mods[radii[i]] <= mods[radii[i + 1]] + 1e-15
               for i in range(len(radii) - 1))


def _two_point_jet(n, k, x, y):
    """The zero jet of order k in R^n at the points x and y."""
    values = {multiindex.fmt(a): [0.0] for a in multiindex.enumerate_upto(n, k)}
    return _jet_file([_point("a", x, values), _point("b", y, values)], dim=n, order=k)


@pytest.mark.parametrize(
    "doc, message",
    [
        # the square of the distance leaves the float range: an OverflowError
        # traceback, after a numpy warning from the diameter
        (_two_point_jet(2, 2, [0.0, 0.0], [1e154, 1e154]),
         "the distance between points (0.0, 0.0) and (1e+154, 1e+154) to the power 2 "
         "is beyond the float range"),
        # the distance itself: warnings, "diameter: inf", and one modulus
        # line for three deltas
        (_two_point_jet(1, 0, [-1e308], [1e308]),
         "the distance between points (-1e+308,) and (1e+308,) is beyond the float range"),
        # the square of the distance underflows to 0: a ZeroDivisionError
        (_two_point_jet(1, 2, [0.0], [1e-200]),
         "the distance between points (0.0,) and (1e-200,) to the power 2 is beyond the float range"),
    ],
)
def test_check_jet_names_a_distance_beyond_the_float_range(doc, message, tmp_path, capsys):
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["check-jet", "--input", str(p)])
    assert (rc, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


def test_check_jet_on_a_subnormal_pair_distance(tmp_path, capsys):
    # the square of 1e-323 underflows, the distance does not: the diameter
    # and the moduli at the deltas that stay above 0 are reported
    values = {"[0]": [1.0]}
    doc = _jet_file([_point("a", [0.0], values), _point("b", [1e-323], {"[0]": [2.0]})], order=0)
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(doc))
    assert run(["check-jet", "--input", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "diameter: 1e-323"
    assert out[-2:] == ["modulus[l=0, delta=2e-323]: 1.0", "modulus[l=0, delta=5e-324]: 0.0"]


# -- fdb -------------------------------------------------------------------------


def test_fdb_table_text(tmp_path, capsys):
    rc = run(["fdb", "--alpha", "(2)", "--target-dim", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "p[(2),(1)] = 1 * g^(2)_0" in text
    assert "p[(2),(2)] = 1 * g^(1)_0 * g^(1)_0" in text


def test_fdb_order_cap(tmp_path):
    rc = run(["fdb", "--alpha", "(9)", "--target-dim", "1"])
    assert rc == 2


# -- pullback --------------------------------------------------------------------


def test_pullback_bundle(tmp_path):
    bundle = {
        "map": {"from_dim": 1, "expr": ["2*x0"]},
        "jet": {
            "dim": 1,
            "order": 2,
            "induce": {
                "expr": ["sin(x0)"],
                "points": [{"id": "i0", "x": [2.0]}],
            },
        },
        "points": [{"id": "b0", "x": [1.0]}],
    }
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(bundle))
    out = tmp_path / "pulled.json"
    rc = run(["pullback", "--input", str(p), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    vals = {pt["id"]: pt["values"] for pt in doc["points"]}
    # d/dx sin(2x) = 2 cos(2x); d2/dx2 = -4 sin(2x), at x=1
    assert vals["b0"]["[0]"][0] == pytest.approx(math.sin(2.0), rel=1e-12)
    assert vals["b0"]["[1]"][0] == pytest.approx(2 * math.cos(2.0), rel=1e-12)
    assert vals["b0"]["[2]"][0] == pytest.approx(-4 * math.sin(2.0), rel=1e-12)


def test_pullback_unmatched_image(tmp_path):
    bundle = {
        "map": {"from_dim": 1, "expr": ["2*x0"]},
        "jet": {
            "dim": 1,
            "order": 2,
            "induce": {
                "expr": ["sin(x0)"],
                "points": [{"id": "i0", "x": [2.0]}],
            },
        },
        "points": [{"id": "b0", "x": [3.0]}],  # image 6.0 is not stored
    }
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(bundle))
    rc = run(["pullback", "--input", str(p), "--out", str(tmp_path / "o.json")])
    assert rc == 2


_MALFORMED_BUNDLE = {
    "map-number": ({"map": 3, "jet": {}, "points": []}, '"map" is a number, expected an object'),
    "no-map": ({"jet": {}, "points": []}, '"map" is null, expected an object'),
    "no-from-dim": ({"map": {"expr": ["x0"]}, "jet": {}, "points": []}, '"map" has no "from_dim"'),
    "no-expr": ({"map": {"from_dim": 1}, "jet": {}, "points": []}, '"map" has no "expr"'),
    "from-dim-null": ({"map": {"from_dim": None, "expr": ["x0"]}}, '"from_dim" is null, expected an integer'),
    "expr-string": ({"map": {"from_dim": 1, "expr": "x0"}}, '"expr" of "map" is \'x0\', expected a list of strings'),
    "document-list": ([1], "the bundle is a list, expected an object"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_BUNDLE))
def test_pullback_rejects_a_malformed_bundle(case, tmp_path, capsys):
    bundle, message = _MALFORMED_BUNDLE[case]
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(bundle))
    rc = run(["pullback", "--input", str(p), "--out", str(tmp_path / "o.json")])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_pullback_overflowing_jet(tmp_path, capsys):
    # f_1 = 1e308 along 10*x0 pulls back to 1e309: one error line naming the
    # point, no numpy warning
    bundle = {
        "map": {"from_dim": 1, "expr": ["10*x0"]},
        "jet": {"dim": 1, "order": 1, "outdim": 1, "points": [
            {"id": "a", "x": [0.0], "values": {"[0]": [0.0], "[1]": [1e308]}}]},
        "points": [{"id": "s", "x": [0.0]}],
    }
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(bundle))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["pullback", "--input", str(p), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: the pulled-back jet overflows at point s\n"


@pytest.mark.parametrize(
    "bundle, err",
    [
        # inf - inf: a NaN image matches no stored point
        pytest.param(
            {
                "map": {"from_dim": 1, "expr": ["x0*1e308*10 - x0*1e308*10"]},
                "jet": {"dim": 1, "order": 1, "outdim": 1, "points": [
                    {"id": "a", "x": [0.0], "values": {"[0]": [1.0], "[1]": [2.0]}}]},
                "points": [{"id": "p0", "x": [1.0]}],
            },
            "error: image (nan,) of point 'p0' matches no stored point (closest at distance nan)\n",
            id="nan-image",
        ),
        # the series of exp at 300 overflows in its monomial products
        pytest.param(
            {
                "map": {"from_dim": 1, "expr": ["exp(x0)"]},
                "jet": {"dim": 1, "order": 3, "outdim": 1, "points": [
                    {"id": "a", "x": [math.exp(300.0)], "values": {f"[{i}]": [1.0] for i in range(4)}}]},
                "points": [{"id": "s", "x": [300.0]}],
            },
            "error: the pulled-back jet overflows at point s\n",
            id="series-overflow",
        ),
    ],
)
def test_pullback_failure_prints_no_numpy_warning(bundle, err, tmp_path, capsys):
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(bundle))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["pullback", "--input", str(p), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert capsys.readouterr().err == err


# -- manifold-extend ---------------------------------------------------------------


def test_manifold_extend(atlasfile, tmp_path):
    out = tmp_path / "m.csv"
    rc = run(["manifold-extend", "--input", atlasfile, "--chart", "u",
              "--grid", "0.5:0.5:1.0", "--derivs", "(1)", "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(0.25)
    assert float(row[2]) == pytest.approx(1.0)


def test_manifold_extend_unknown_chart(atlasfile, tmp_path):
    rc = run(["manifold-extend", "--input", atlasfile, "--chart", "w",
              "--grid", "0:1:0.5", "--out", str(tmp_path / "m.csv")])
    assert rc == 2


# -- verify ----------------------------------------------------------------------


def test_verify_extension_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = run(["verify", "--suite", "extension", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "result: pass" in text
    rep = json.loads(out.read_text())
    assert rep["suite"] == "extension"
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("suite", ["partition", "linearity", "correspondence"])
def test_verify_suite_passes_within_its_bounds(suite, tmp_path, capsys):
    # correspondence without --input checks its built-in two-chart fixture
    out = tmp_path / "r.json"
    rc = run(["verify", "--suite", suite, "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0 and text.startswith(f"suite: {suite}\n") and text.endswith("result: pass\n"), text
    rep = json.loads(out.read_text())
    assert (rep["suite"], rep["pass"]) == (suite, True) and rep["checks"] and rep["constants"]
    for c in rep["checks"]:
        assert c["pass"] and 0.0 <= c["value"] <= c["bound"], c
        assert f"ok   {c['name']}: value " in text


def test_verify_lemma_l_reports_margins(tmp_path, capsys):
    # each check reports a margin against bound 1 (a count against bound 0),
    # not a bare verdict
    out = tmp_path / "r.json"
    rc = run(["verify", "--suite", "lemma-l", "--out", str(out)])
    assert rc == 0
    assert "result: pass" in capsys.readouterr().out
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 20 and all(c["pass"] for c in checks)
    for c in checks:
        kind = c["name"].split(": ", 1)[1]
        if kind == "supporting cubes vs brute force":
            assert (c["value"], c["bound"]) == (0, 0)
        elif kind == "touching side ratios":
            assert (c["value"], c["bound"]) == (1.0, 1.0)  # neighbours one level apart
        else:
            assert 0.0 < c["value"] <= c["bound"] == 1.0, c


def _atlas_of_constants(v0):
    """A two-chart 1-D atlas whose jets at one point are the constants 1 in
    chart u and v0 in chart v: consistent when v0 is 1."""
    return {
        "dim": 1,
        "charts": [{"id": "u", "codomain": "all"}, {"id": "v", "codomain": "all"}],
        "transitions": [
            {"from": "u", "to": "v", "map": ["2*x0"]},
            {"from": "v", "to": "u", "map": ["x0/2"]},
        ],
        "jets": [
            {"chart": c, "points": [{"id": "p", "x": [x], "values": {"[0]": [v], "[1]": [0.0]}}]}
            for c, x, v in [("u", 1.0, 1.0), ("v", 2.0, v0)]
        ],
    }


def test_verify_correspondence_fail_exit(tmp_path):
    p = tmp_path / "bad_atlas.json"
    p.write_text(json.dumps(_atlas_of_constants(5.0)))
    rc = run(["verify", "--suite", "correspondence", "--input", str(p)])
    assert rc == 1


def test_verify_unknown_suite():
    # argparse rejects the choice itself, and its exit status is already 2
    with pytest.raises(SystemExit) as excinfo:
        run(["verify", "--suite", "nope"])
    assert excinfo.value.code == 2


def test_shared_parser_gives_the_output_of_a_fresh_one(jetfile, setfile, capsys, monkeypatch):
    # one parser serves every call of a process; a usage error between calls
    # leaves it as it was, so each call prints what a freshly built parser's
    # first call prints, and the command that runs is the module's current
    # cmd_* function
    calls = [
        ["extend", "--input", jetfile, "--grid=-1.7:2.3:0.37", "--derivs", "(1) (2)"],
        ["extend", "--input", jetfile, "--derivs", "(1)"],  # no --grid: usage error
        ["decompose", "--input", setfile, "--grid=-3:9", "--max-level", "4"],
        ["extend", "--input", jetfile, "--grid=-1.9:2.3:0.41"],
    ]

    def call(argv):
        try:
            rc = run(argv)
        except SystemExit as e:
            rc = ("exit", e.code)
        return rc, capsys.readouterr()

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    cli.build_parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert [rc for rc, _ in fresh] == [0, ("exit", 2), 0, 0]
    assert "the following arguments are required: --grid" in fresh[1][1].err
    assert all(fresh[i][1].out for i in (0, 2, 3))
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_decompose", lambda args: 7)
    assert run(calls[2]) == 7


# -- the document loader ---------------------------------------------------------


def _document_calls(tmp_path, setfile, jetfile, atlasfile):
    """(argv, exit code) of every command that reads a document, on good
    and bad documents."""
    files = {
        "bad-jet": _second_point(x=[1.0, 2.0]),
        "bundle": {
            "map": {"from_dim": 1, "expr": ["2*x0"]},
            "jet": {"dim": 1, "order": 2, "induce": {"expr": ["sin(x0)"], "points": [{"id": "i0", "x": [2.0]}]}},
            "points": [{"id": "b0", "x": [1.0]}],
        },
        "good-atlas": _atlas_of_constants(1.0),
        "bad-atlas": _atlas_of_constants(5.0),
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    out = ["--out", str(tmp_path / "out")]
    return [
        (["decompose", "--input", setfile, "--grid", "1:8", "--max-level", "3", *out], 0),
        (["extend", "--input", jetfile, "--grid=-2:2:0.5", *out], 0),
        (["extend", "--input", path["bad-jet"], "--grid=0:1:0.5", *out], 2),
        (["extend", "--input", jetfile, "--grid", "1e-30:1e-30:1.0", *out], 3),
        (["extend", "--input", str(tmp_path / "missing.json"), "--grid=0:1:0.5", *out], 2),
        (["check-jet", "--input", jetfile, *out], 0),
        (["check-jet", "--input", path["bad-jet"], *out], 2),
        (["pullback", "--input", path["bundle"], *out], 0),
        (["pullback", "--input", path["bad-jet"], *out], 2),
        (["manifold-extend", "--input", atlasfile, "--chart", "u", "--grid", "0.5:0.5:1.0", *out], 0),
        (["manifold-extend", "--input", path["bad-jet"], "--chart", "u", "--grid", "0:1:0.5", *out], 2),
        (["verify", "--suite", "correspondence", "--input", path["good-atlas"], *out], 0),
        (["verify", "--suite", "correspondence", "--input", path["bad-atlas"], *out], 1),
        (["verify", "--suite", "correspondence", "--input", path["bad-jet"], *out], 2),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_leaves_the_collector_as_it_was(enabled, setfile, jetfile, atlasfile, tmp_path):
    # the loader pauses the cyclic collector only if it was running, and
    # whatever the command's exit, leaves it as it found it
    calls = _document_calls(tmp_path, setfile, jetfile, atlasfile)
    was = gc.isenabled()
    try:
        for argv, rc in calls:
            (gc.enable if enabled else gc.disable)()
            assert (run(argv), gc.isenabled()) == (rc, enabled), argv
    finally:
        (gc.enable if was else gc.disable)()


class _Document(dict):
    """A decoded document that a weak reference can watch."""


def test_no_collection_runs_while_a_document_is_alive(tmp_path, monkeypatch):
    # a JSON document holds no cycle, so the collector has nothing to free
    # in it: over 20 extends of a 1000-point 2-D jet file on 4x4 tiles, no
    # collection starts while a decoded document is alive, and each is
    # freed before its command returns
    rng = np.random.default_rng(7)
    pts = [(f"p{i}", tuple(x)) for i, x in enumerate(rng.uniform(-1.0, 1.0, (1000, 2)).tolist())]
    jet = jets.Jet.from_expr(exprlang.VectorExpr.parse(["1 + x0*x1 - x1^2/2"], 2), pts, 2)
    path = tmp_path / "jet.json"
    path.write_text(json.dumps(jet.to_dict()))
    docs, starts, decoding = [], [], []
    load = json.load

    def tracked(fh):
        decoding.append(fh)
        try:
            doc = _Document(load(fh))
        finally:
            decoding.pop()
        docs.append(weakref.ref(doc))
        return doc

    def watch(phase, info):
        if phase == "start":
            starts.append(len(decoding) + sum(ref() is not None for ref in docs))

    monkeypatch.setattr(json, "load", tracked)
    gc.callbacks.append(watch)
    try:
        for t in range(20):
            lo = -1.2 + 0.12 * t
            grid = f"--grid={lo!r}:{lo + 0.15!r}:0.05,{-lo!r}:{0.15 - lo!r}:0.05"
            assert run(["extend", "--input", str(path), grid, "--out", str(tmp_path / "f.csv")]) == 0
            assert docs[-1]() is None
    finally:
        gc.callbacks.remove(watch)
    assert len(docs) == 20 and not any(starts), starts


def _declared_console_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_installed_entry_point(tmp_path):
    # Run the declared script without an install, as the wrapper an install
    # generates does: load "module:function", call it with the command line
    # as argv, exit with its result.  PYTHONPATH pins the package under test.
    target = _declared_console_script("whitneyext")
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('whitneyext', {target!r}, 'console_scripts').load()\n"
        "sys.argv[0] = 'whitneyext'\n"
        "sys.exit(main())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(whitneyext.__file__).parents[1]))

    def script(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    proc = script("fdb", "--alpha", "(2)", "--target-dim", "1")
    assert proc.returncode == 0, proc.stderr
    assert "p[(2),(2)]" in proc.stdout

    # a nonzero status returned by main (not argparse's own exit) gets through
    missing = tmp_path / "missing.json"
    proc = script("extend", "--input", str(missing), "--grid=0:1:0.5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and str(missing) in proc.stderr
    assert "usage:" not in proc.stderr


def test_cli_rerun_byte_identical_across_processes(jetfile, tmp_path):
    # determinism must hold across interpreter instances, not only within one
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "whitneyext.cli", "extend", "--input", jetfile,
             "--grid=-1.7:2.3:0.37", "--derivs", "(1) (2)", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
