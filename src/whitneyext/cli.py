"""
Command-line front end.

Commands
--------
decompose        Whitney cubes meeting a box, as CSV.
extend           extension values/derivatives on a grid, as CSV.
check-jet        seminorm and remainder diagnostics for a jet file.
fdb              the chain-rule polynomials p_{α,β} for one multi-index.
pullback         pull a jet file back along an expression map.
manifold-extend  manifold extension in one chart on a grid, as CSV.
verify           run a named property suite; nonzero exit on failure.

Exit codes: 0 success, 1 suite failure, 2 input error, 3 numeric
resolution failure (query too close to the set for the dyadic limit, or
an exhausted degree schedule).

Output is deterministic: floats print as shortest round-trip decimals,
rows follow input/grid order, and the verify suites use fixed seeds —
identical invocations produce byte-identical bytes.  Vector and
multi-index cells use the bracketed form "[a,b]".
"""

import argparse
import csv
import functools
import gc
import itertools
import json
import math
import sys

import numpy as np

from . import atlas, decomp, exprlang, extend, fdb, jets, multiindex, pou, taylorarith


# -- formatting and small parsers -------------------------------------------


def _fmt(v):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


def _fmt_vec(v):
    return "[" + ",".join(_fmt(c) for c in v) + "]"


def _fmt_ints(z):
    return "[" + ",".join(str(int(c)) for c in z) + "]"


def _parse_grid(spec, n, need_step):
    """
    Parse "lo:hi:step,…" (one group per dimension, comma-separated) into
    a list of (lo, hi, step) triples; step may be omitted when the caller
    only needs box bounds.
    """
    groups = spec.split(",")
    if len(groups) != n:
        raise ValueError(f"--grid has {len(groups)} group(s), expected {n}")
    axes = []
    for g in groups:
        parts = g.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad grid group {g!r}; expected lo:hi or lo:hi:step")
        nums = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in nums):
            raise ValueError(f"grid group {g!r} has a non-finite number")
        lo, hi = nums[0], nums[1]
        if hi < lo:
            raise ValueError(f"grid group {g!r} has hi < lo")
        step = None
        if len(parts) == 3:
            step = nums[2]
            if step <= 0:
                raise ValueError(f"grid step must be positive in {g!r}")
        if step is None and need_step:
            raise ValueError(f"grid group {g!r} needs a step (lo:hi:step)")
        axes.append((lo, hi, step))
    return axes


def _grid_points(axes):
    values = []
    for lo, hi, step in axes:
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        values.append([lo + i * step for i in range(count)])
    return itertools.product(*values)


def _parse_derivs(spec, n):
    """Multi-indices from e.g. "(1,0)" or "(1,0),(0,2)" — one per group."""
    out = []
    depth, cur, groups = 0, "", []
    for ch in spec:
        if ch == "(":
            depth += 1
            cur = ""
        elif ch == ")":
            if depth != 1:
                raise ValueError(f"unbalanced parentheses in --derivs {spec!r}")
            depth = 0
            groups.append(cur)
        elif depth == 1:
            cur += ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in --derivs {spec!r}")
    if not groups:
        groups = [spec]
    for g in groups:
        out.append(multiindex.parse("(" + g + ")", n))
    return out


def _parse_schedule(spec):
    deltas = [float(p) for p in spec.split(",") if p.strip() != ""]
    if not deltas:
        raise ValueError("empty --schedule")
    return deltas


def _parse_point_list(entries):
    """Point lists as [{"id","x"}] or bare [[x…]] with generated ids; a
    malformed entry is a ValueError that names it and its field."""
    if not isinstance(entries, list):
        raise ValueError(f'"points" is {jets._kind(entries)}, expected a list')
    pts = []
    for i, e in enumerate(entries):
        pid = str(jets._field(e, "id", f"points[{i}]")) if isinstance(e, dict) else f"p{i}"
        x = jets._field(e, "x", f"point {pid}") if isinstance(e, dict) else e
        try:  # a list only: a string would be read as its characters
            pts.append((pid, tuple(map(float, x if isinstance(x, list) else None))))
        except (OverflowError, TypeError, ValueError):
            what = f'"x" of point {pid}' if isinstance(e, dict) else f"points[{i}]"
            raise ValueError(f"{what} is {x!r}, expected a list of numbers") from None
    return pts


def load_jet_spec(doc):
    """
    A jet from its file form: either explicit per-point values or
    {"induce": {"expr": [...], "points": [...]}} with "dim" and "order".
    """
    if isinstance(doc, dict) and "induce" in doc:
        n, k = jets._integer(doc, "dim", "the jet"), jets._order(doc)
        ind = doc["induce"]
        if not isinstance(ind, dict):
            raise ValueError(f'"induce" is {jets._kind(ind)}, expected an object')
        f = exprlang.VectorExpr.parse(jets._strings(ind, "expr", '"induce"'), n)
        if "outdim" in doc and jets._integer(doc, "outdim", "the jet") != f.m:
            raise ValueError(
                f"outdim {doc['outdim']} does not match {f.m} expression(s)"
            )
        return jets.Jet.from_expr(f, _parse_point_list(jets._field(ind, "points", '"induce"')), k)
    return jets.Jet.from_dict(doc)


# digits read as "0", "." kept, any other byte a space: an integer literal
# of 19 or more digits then reads as a space and 19 zeros
_DIGIT_RUNS = bytes(48 if 48 <= b <= 57 else 46 if b == 46 else 32 for b in range(256))
# every byte but the quotes and brackets, which tell how deep a document nests
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b'"[]{}')
_BRACKETS = bytes.maketrans(b"{}", b"[]")


def _nests_at_most(data, depth):
    """Whether the JSON text data nests at most depth containers deep.  Each
    round drops every empty pair of quotes and of brackets, so a container
    goes in the round after all it holds; nesting deeper than depth, or
    brackets a string leaves unpaired, leave something behind."""
    if b"\\" in data:  # escapes out, so that no escaped quote ends a string
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    s = data.translate(_BRACKETS, _NOT_STRUCTURE)
    for _ in range(depth):
        if not s:
            return True
        s = s.replace(b'""', b"").replace(b"[]", b"")
    return not s


def _decode(path):
    """The JSON document in the file at path, as json.load reads it (see _read)."""
    with open(path, "rb") as fh:
        data = fh.read()
    plain = data.isascii() and b" " + b"0" * 19 not in (b" " + data).translate(_DIGIT_RUNS)
    if plain and _nests_at_most(data, 100):
        import orjson  # here: 3 to 5 ms and 0.5 MB that runs reading no document need not pay
        try:
            return orjson.loads(data)
        except Exception:  # json.load decides, and raises its own error
            pass
    with open(path) as fh:
        return json.load(fh)


def _read(path, convert):
    """
    convert(the JSON document in the file at path), decoded and converted
    with the cyclic collector paused.  A JSON document holds no cycle, so a
    collection during the load could free none of its thousands of
    containers, only scan them and promote them toward the oldest
    generation; the document is dropped when convert returns, before the
    collector resumes.  The collector is left as it was found.

    orjson decodes the document three times faster than json.load, to the
    same values, float bits and key order.  json.load of the file as text
    reads the files where the two could differ: those orjson rejects (NaN,
    Infinity, 1e400, lone surrogates, malformed text), so every error keeps
    its message; those holding an integer of 19 or more digits (orjson reads
    one outside [-2^63, 2^64) as a float); those not pure ASCII (text mode
    decodes by the locale); and those nested over 100 deep (json.load raises
    RecursionError near 1000, orjson 3.8 recurses until the C stack overflows).
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return convert(_decode(path))
    finally:
        if paused:
            gc.enable()


def _write_rows(path, header, rows):
    """CSV out with a fixed newline convention, to a file or stdout."""
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def _write_text(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------------


def _closed_set(doc):
    """The closed set of a set spec."""
    n = int(doc["dim"])
    points, boxes = doc.get("points"), doc.get("boxes")
    if (points is None) == (boxes is None):
        raise ValueError('set spec needs exactly one of "points" or "boxes"')
    A = decomp.make_closed_set(points=points, boxes=boxes)
    if A.n != n:
        raise ValueError(f"set data has dimension {A.n}, spec says {n}")
    return A


def cmd_decompose(args):
    A = _read(args.input, _closed_set)
    dec = decomp.Decomposition(A)
    axes = _parse_grid(args.grid, A.n, need_step=False)
    lo = [a[0] for a in axes]
    hi = [a[1] for a in axes]
    cubes = dec.enumerate_in_box(lo, hi, args.max_level)
    rows = []
    for c in cubes:
        row = A.nearest([c.center])[0]
        rows.append(
            [
                c.level,
                _fmt_ints(c.corner),
                _fmt_vec(c.center),
                _fmt(c.side),
                _fmt(dec.cube_distance(c)),
                _fmt_vec(np.clip(c.center, A.lo[row], A.hi[row])),  # the anchor point
            ]
        )
    _write_rows(args.out, ["level", "corner", "center", "side", "distance", "anchor"], rows)
    return 0


def _derivative_rows(n, m, grid, results, derivs):
    """Shared row builder for extend and manifold-extend: `results` holds
    (values, derivatives by multi-index) per grid point."""
    header = [f"x{i}" for i in range(n)] + [f"F{j}" for j in range(m)]
    for a in derivs:
        header += [f"d{multiindex.fmt(a)}_F{j}" for j in range(m)]
    rows = []
    for x, (values, ders) in zip(grid, results):
        row = [_fmt(c) for c in x] + [_fmt(v) for v in values]
        for a in derivs:
            row += [_fmt(v) for v in ders[a]]
        rows.append(row)
    return header, rows


class _NumericAtPoint(Exception):
    """A numeric resolution failure, annotated with the offending point."""

    def __init__(self, x, cause):
        super().__init__(f"at grid point {tuple(x)}: {cause}")
        self.cause = cause


def cmd_extend(args):
    jet = _read(args.input, load_jet_spec)
    schedule = _parse_schedule(args.schedule) if args.schedule else None
    derivs = _parse_derivs(args.derivs, jet.n) if args.derivs else []
    if schedule and derivs:
        raise ValueError("adaptive mode (--schedule) provides values only")
    ext = extend.Extension(jet, k=args.k, schedule=schedule)
    upto = max((sum(a) for a in derivs), default=0)
    if upto > ext.k:
        raise ValueError(f"--derivs order {upto} exceeds extension degree {ext.k}")
    grid = list(_grid_points(_parse_grid(args.grid, jet.n, need_step=True)))
    try:  # the whole grid is one batch
        blend = ext.blend(grid, upto, adaptive=bool(schedule))
    except (decomp.ResolutionExceeded, extend.ScheduleExhausted) as e:
        raise _NumericAtPoint(e.point, e) from e
    pos = taylorarith.context(jet.n, upto).pos
    results = [(d[0], {a: d[pos[a]] for a in derivs}) for d in blend]
    header, rows = _derivative_rows(jet.n, jet.m, grid, results, derivs)
    _write_rows(args.out, header, rows)
    return 0


def cmd_check_jet(args):
    jet = _read(args.input, load_jet_spec)
    l = jet.k if args.k is None else int(args.k)
    d, sp = jet.diameter(), jet.seminorm_prime(l)
    deltas = tuple(t for t in (2 * d, d / 2, d / 8) if t > 0)  # one that underflows to 0 is left out
    sd, moduli = jet.remainder_maxima(l, deltas)  # one remainder table
    report = {
        "dim": jet.n,
        "order": jet.k,
        "outdim": jet.m,
        "points": jet.npoints(),
        "l": l,
        "diameter": d,
        "seminorm_prime": sp,
        "seminorm_dprime": sd,
        "seminorm": sp + sd,  # the sum Jet.seminorm takes
        "moduli": dict(zip(map(_fmt, deltas), moduli)),
    }
    lines = [
        f"points: {report['points']}  dim: {jet.n}  order: {jet.k}  outdim: {jet.m}",
        f"diameter: {_fmt(d)}",
        f"seminorm'[l={l}]: {_fmt(report['seminorm_prime'])}",
        f"seminorm''[l={l}]: {_fmt(report['seminorm_dprime'])}",
        f"seminorm[l={l}]: {_fmt(report['seminorm'])}",
    ]
    for key, value in report["moduli"].items():
        lines.append(f"modulus[l={l}, delta={key}]: {_fmt(value)}")
    print("\n".join(lines))
    if args.out:
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_fdb(args):
    alpha = multiindex.parse(args.alpha)
    table = fdb.build_table(alpha, args.target_dim)
    _write_text(args.out, fdb.table_text(table) + "\n")
    return 0


def _bundle(doc):
    """The map g, the jet f and the points of a pullback bundle."""
    if not isinstance(doc, dict):
        raise ValueError(f"the bundle is {jets._kind(doc)}, expected an object")
    m = doc.get("map")
    if not isinstance(m, dict):
        raise ValueError(f'"map" is {jets._kind(m)}, expected an object')
    g = exprlang.VectorExpr.parse(jets._strings(m, "expr", '"map"'), jets._integer(m, "from_dim", '"map"'))
    f = load_jet_spec(jets._field(doc, "jet", "the bundle"))
    return g, f, _parse_point_list(jets._field(doc, "points", "the bundle"))


def cmd_pullback(args):
    g, f, points = _read(args.input, _bundle)
    pulled = fdb.jet_pullback(g, f, points, tol=args.tol)
    _write_text(args.out, json.dumps(pulled.to_dict(), indent=2) + "\n")
    return 0


def cmd_manifold_extend(args):
    at, aj, bumps = _read(args.input, atlas.load_atlas)
    if aj is None:
        raise ValueError("atlas file carries no jets")
    if not bumps:
        raise ValueError('atlas file carries no "pou" entry')
    if args.chart not in at.charts:
        raise ValueError(f"unknown chart {args.chart!r}")
    mext = atlas.ManifoldExtension(aj, at, bumps, k=args.k, tol=args.tol)
    derivs = _parse_derivs(args.derivs, at.dim) if args.derivs else []
    upto = max((sum(a) for a in derivs), default=0)
    grid = list(_grid_points(_parse_grid(args.grid, at.dim, need_step=True)))
    results = []
    for x in grid:
        try:
            if derivs:
                ders = mext.eval_derivs(args.chart, x, upto)
                results.append((ders[(0,) * at.dim], ders))
            else:
                results.append((mext.eval(args.chart, x), {}))
        except decomp.ResolutionExceeded as e:
            raise _NumericAtPoint(x, e) from e
    header, rows = _derivative_rows(at.dim, aj.m, grid, results, derivs)
    _write_rows(args.out, header, rows)
    return 0


# -- verify suites -------------------------------------------------------------


def _check(name, value, bound, ok=None):
    if ok is None:
        ok = value <= bound
    return {"name": name, "value": value, "bound": bound, "pass": bool(ok)}


def _suite_partition(args):
    # The sum-to-one residual is conditioning-limited: phi-series coefficients
    # scale like max|s^(j)| / l_C^j, so summing them cancels magnitudes of that
    # size down to zero and the absolute residual floor is ~coefficient * eps.
    # Sampling with d(x, A) >= 8*sqrt(n) keeps every supporting cube at level 0
    # (side 1, the coarsest the decomposition produces), where the order-2
    # floor is ~1e-13 and the 1e-11 bound holds with real margin.
    tol = 1e-11 if args.tol is None else args.tol
    checks, constants = [], {}
    fixtures = [
        ("A={0} in R", decomp.FinitePoints([[0.0]]), 1),
        ("two points in R^2", decomp.FinitePoints([[0.0, 0.0], [1.0, 0.5]]), 2),
    ]
    rng = np.random.default_rng(20260817)
    for label, A, n in fixtures:
        dec = decomp.Decomposition(A)
        floor = 8.0 * math.sqrt(n)
        half = 3.0 * floor
        residual = 0.0
        outside_max = 0.0  # largest |psi coefficient| seen outside D_C
        count = 0
        while count < 1000:
            x = tuple(rng.uniform(-half, half, size=n))
            if A.distance(x) < floor:
                continue
            count += 1
            parts = pou.partition_taylor(x, dec, 2)
            total = parts[0][1]
            for _, series in parts[1:]:
                total = total + series
            coeffs = total.coeffs.copy()
            coeffs[0] -= 1.0
            residual = max(residual, float(np.max(np.abs(coeffs))))
            if count <= 50:
                home = dec.locate(x)
                reach = 2.0 * home.side
                nearby = dec.enumerate_in_box(
                    np.subtract(x, reach), np.add(x, reach), home.level + 1
                )
                outside = [c for c in nearby if not c.enlarged_contains(x)]
                if outside:
                    psi = np.abs(pou.psi_taylor(outside, x, 2).coeffs)
                    outside_max = float(np.max(psi, initial=outside_max))
        checks.append(_check(f"{label}: sum-to-one residual", residual, tol))
        checks.append(_check(f"{label}: zero series outside D_C", outside_max, 0.0))
        constants[f"sampling floor d(x,A) ({label})"] = floor
        sample = [tuple(rng.uniform(-1.0, 1.0, size=n)) for _ in range(200)]
        constants[f"N_2 estimate ({label})"] = pou.estimate_derivative_constant(
            dec, 2, sample
        )
    return checks, constants


def _suite_lemma_l(args):
    checks, constants = [], {}
    fixtures = [
        (
            "pair+box in R",
            decomp.make_closed_set(points=[[-1.0], [1.0]]),
            decomp.make_closed_set(boxes=[[[3.0, 4.0]]]),
            1,
        ),
        (
            "pair+box in R^2",
            decomp.make_closed_set(points=[[0.0, 0.0], [2.0, 1.0]]),
            decomp.make_closed_set(boxes=[[[-1.0, 0.0], [-1.0, 0.0]]]),
            2,
        ),
    ]
    rng = np.random.default_rng(31415926)
    for label, P, B, n in fixtures:
        for A in (P, B):
            dec = decomp.Decomposition(A)
            max_level = 6
            lo, hi = [-5.0] * n, [6.0] * n
            cubes = dec.enumerate_in_box(lo, hi, max_level)
            # margins: each value is at most its bound 1 (below it where the
            # bound is strict) exactly when the property holds for every cube
            lower = max(dec.threshold(c.level) / dec.cube_distance(c) for c in cubes)
            upper = max(
                dec.cube_distance(c) / math.ldexp(10.0 * math.sqrt(n), -c.level)
                for c in cubes
                if c.level >= 1
            )
            # all pairs, vectorized over the exact dyadic corners; touching is
            # closed-box intersection, as in WhitneyCube.touches
            los = np.array([c.lo for c in cubes])
            his = np.array([c.hi for c in cubes])
            sides = np.array([c.side for c in cubes])
            ratio = 0.0  # the largest |log2| of the side ratio of touching cubes
            for i in range(len(cubes) - 1):
                touch = np.all((los[i] <= his[i + 1 :]) & (los[i + 1 :] <= his[i]), axis=1)
                logs = np.abs(np.log2(sides[i] / sides[i + 1 :][touch]))
                ratio = float(np.max(logs, initial=ratio))
            # 5 samples y of D_C per cube, drawn as one array: the stream of
            # 5 draws of n numbers per cube, in cube order
            centers = np.array([c.center for c in cubes])
            radii = 0.75 * sides[:, None]
            u = rng.uniform(-1.0, 1.0, size=(5 * len(cubes), n))
            ys = np.repeat(centers, 5, axis=0) + np.repeat(radii, 5, axis=0) * u
            dstar = A.box_distances(ys, ys) / (14.0 * math.sqrt(n) * np.repeat(sides, 5))
            dstar = float(np.max(dstar, initial=0.0))
            queries = []
            while len(queries) < 1000:
                x = tuple(rng.uniform(-4.0, 5.0, size=n))
                if A.distance(x) > 12.0 * math.sqrt(n) / 2.0**max_level:
                    queries.append(x)
            mismatches = 0
            worst_count = 0
            for x, found in zip(queries, dec.supporting_cubes_batch(queries)):
                got = [c for c, _ in found]
                # every cube scanned; the D_C test of WhitneyCube.enlarged_contains
                inside = np.all(np.abs(np.asarray(x) - centers) < radii, axis=1)
                brute = [cubes[i] for i in np.flatnonzero(inside)]
                mismatches += sorted(got) != sorted(brute)
                worst_count = max(worst_count, len(got))
            name = f"{label}/{type(A).__name__}"
            checks.append(_check(f"{name}: lower distance bound", lower, 1.0))
            checks.append(_check(f"{name}: upper distance bound", upper, 1.0, ok=upper < 1.0))
            checks.append(_check(f"{name}: touching side ratios", ratio, 1.0))
            checks.append(
                _check(f"{name}: d(y*,A) < 14 sqrt(n) l_C", dstar, 1.0, ok=dstar < 1.0)
            )
            checks.append(_check(f"{name}: supporting cubes vs brute force", mismatches, 0))
            constants[f"max supporting cubes ({name})"] = worst_count
    return checks, constants


def _suite_extension(args):
    tol = 1e-10 if args.tol is None else args.tol
    checks, constants = [], {}
    rng = np.random.default_rng(27182818)

    f1 = jets.Jet.from_expr(
        exprlang.VectorExpr.parse(["sin(x0)"], 1),
        [("a", (-1.0,)), ("b", (0.5,)), ("c", (2.0,))],
        3,
    )
    pts2 = [(f"p{i}", tuple(rng.uniform(-1.0, 1.0, size=2))) for i in range(6)]
    f2 = jets.Jet.from_expr(
        exprlang.VectorExpr.parse(["exp(x0)*sin(x1)", "x0*x1"], 2), pts2, 2
    )
    recovery = 0.0
    for jet in (f1, f2):
        ext = extend.Extension(jet)
        for pid in jet.ids:
            ders = ext.eval_derivs(jet.coords[pid])
            for a in jet.indices:
                dev = float(np.max(np.abs(ders[a] - jet.value(pid, a))))
                recovery = max(recovery, dev)
    checks.append(_check("stored jet recovered exactly on A", recovery, 0.0))

    poly = exprlang.VectorExpr.parse(["1 + 2*x0 - x0^2 + x0*x1 - 3*x1^2"], 2)
    pj = jets.Jet.from_expr(poly, pts2, 2)
    ext = extend.Extension(pj)
    worst = 0.0
    for _ in range(2000):
        x = tuple(rng.uniform(-3.0, 3.0, size=2))
        want = poly.eval_real(x)[0]
        got = ext.eval(x)[0]
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    checks.append(_check("polynomial reproduction (relative)", worst, tol))

    ext1 = extend.Extension(f1)
    norm = f1.seminorm(f1.k)
    near = 0.0
    for pid in f1.ids:
        p = f1.coords[pid]
        for direction in (-1.0, 1.0):
            x = (p[0] + direction * 1e-5,)
            ders = ext1.eval_derivs(x)
            for a in f1.indices:
                near = max(near, float(np.max(np.abs(ders[a] - f1.value(pid, a)))))
    checks.append(_check("jet recovery in the limit (1e-5 offset)", near, 1e-3 * (1 + norm)))

    sample = [tuple(rng.uniform(-1.5, 2.5, size=1)) for _ in range(50)]
    sample = [x for x in sample if ext1.A.distance(x) > 1e-6]
    chat = extend.continuity_ratio(ext1, sample)
    doubled = extend.continuity_ratio(
        extend.Extension(jets.linear_combination(2.0, f1, 0.0, f1)), sample
    )
    constants["C-hat (sin fixture)"] = chat
    checks.append(
        _check("continuity ratio homogeneity", abs(doubled - chat), 1e-9 * (1 + chat))
    )
    constants["max contributing cubes"] = max(
        ext1.supporting_count(x) for x in sample
    )
    return checks, constants


def _suite_linearity(args):
    tol = 1e-10 if args.tol is None else args.tol
    checks, constants = [], {}
    rng = np.random.default_rng(16180339)
    pts = [(f"p{i}", tuple(rng.uniform(-1.0, 1.0, size=2))) for i in range(5)]
    ncoef = multiindex.count_upto(2, 2)
    worst = 0.0
    for _ in range(20):
        va = {pid: rng.normal(size=(ncoef, 2)) for pid, _ in pts}
        vb = {pid: rng.normal(size=(ncoef, 2)) for pid, _ in pts}
        f = jets.Jet(2, 2, 2, pts, va)
        g = jets.Jet(2, 2, 2, pts, vb)
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        x = tuple(rng.uniform(-2.0, 2.0, size=2))
        scale = (abs(a) + abs(b)) * (
            1.0
            + max(float(np.max(np.abs(v))) for v in va.values())
            + max(float(np.max(np.abs(v))) for v in vb.values())
        )
        worst = max(worst, extend.linearity_probe(f, g, a, b, x) / scale)
    checks.append(_check("linearity residual / scale", worst, tol))
    constants["pairs tested"] = 20
    return checks, constants


def _builtin_correspondence_fixture():
    charts = [atlas.Chart("u", "all"), atlas.Chart("v", "all")]
    transitions = {
        ("u", "v"): exprlang.VectorExpr.parse(["2*x0"], 1),
        ("v", "u"): exprlang.VectorExpr.parse(["x0/2"], 1),
    }
    at = atlas.FiniteAtlas(1, charts, transitions)
    fu = jets.Jet.from_expr(
        exprlang.VectorExpr.parse(["sin(x0)"], 1), [("p", (1.0,)), ("q", (2.0,))], 2
    )
    fv = jets.Jet.from_expr(
        exprlang.VectorExpr.parse(["sin(x0/2)"], 1), [("p", (2.0,)), ("q", (4.0,))], 2
    )
    return at, atlas.AtlasJet({"u": fu, "v": fv})


def _suite_correspondence(args):
    tol = 1e-9 if args.tol is None else args.tol
    checks, constants = [], {}
    if args.input:
        at, aj, _ = _read(args.input, atlas.load_atlas)
        if aj is None:
            raise ValueError("atlas file carries no jets")
    else:
        at, aj = _builtin_correspondence_fixture()
    reports = atlas.correspondence_check_all(aj, at, tol)
    for r in reports:
        checks.append(
            _check(
                f"correspondence {r['from']} -> {r['to']} ({r['points']} points)",
                r["residual"],
                tol,
                ok=r["pass"],
            )
        )
    if not reports:
        raise ValueError("no overlapping chart pairs to check")
    constants["pairs checked"] = len(reports)
    return checks, constants


_SUITES = {
    "partition": _suite_partition,
    "lemma-l": _suite_lemma_l,
    "extension": _suite_extension,
    "linearity": _suite_linearity,
    "correspondence": _suite_correspondence,
}


def cmd_verify(args):
    suite = _SUITES.get(args.suite)
    if suite is None:
        raise ValueError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(_SUITES))}"
        )
    checks, constants = suite(args)
    ok = all(c["pass"] for c in checks)
    lines = [f"suite: {args.suite}"]
    for c in checks:
        mark = "ok  " if c["pass"] else "FAIL"
        lines.append(
            f"{mark} {c['name']}: value {_fmt(c['value'])} (bound {_fmt(c['bound'])})"
        )
    for name, value in constants.items():
        lines.append(f"est  {name}: {value!r}")
    lines.append("result: " + ("pass" if ok else "fail"))
    print("\n".join(lines))
    if args.out:
        report = {
            "suite": args.suite,
            "checks": checks,
            "constants": constants,
            "pass": ok,
        }
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


# -- argument parsing ----------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    is.  It holds no command function; ``main`` runs the command by name."""
    parser = argparse.ArgumentParser(
        prog="whitneyext",
        description="Whitney extension of jets on finite sets: "
        "cube decompositions, extensions, chain-rule tables, atlases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Whitney cubes meeting a box, as CSV")
    p.add_argument("--input", required=True, help="closed-set spec JSON")
    p.add_argument("--grid", required=True, help='box bounds "lo:hi,lo:hi,…"')
    p.add_argument("--max-level", type=int, default=12, dest="max_level")
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("extend", help="evaluate an extension on a grid, as CSV")
    p.add_argument("--input", required=True, help="jet spec JSON")
    p.add_argument("--grid", required=True, help='query grid "lo:hi:step,…"')
    p.add_argument("--k", type=int, default=None, help="polynomial degree (default: jet order)")
    p.add_argument("--derivs", help='derivative columns, e.g. "(1,0),(0,1)"')
    p.add_argument("--schedule", help='adaptive degree radii "d1,d2,…"')
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("check-jet", help="seminorm/remainder diagnostics")
    p.add_argument("--input", required=True, help="jet spec JSON")
    p.add_argument("--k", type=int, default=None, help="seminorm order (default: jet order)")
    p.add_argument("--out", help="JSON report path (text always on stdout)")

    p = sub.add_parser("fdb", help="chain-rule polynomial table for one alpha")
    p.add_argument("--alpha", required=True, help='multi-index, e.g. "(2,1)"')
    p.add_argument("--target-dim", type=int, default=1, dest="target_dim")
    p.add_argument("--out", help="text path (default: stdout)")

    p = sub.add_parser("pullback", help="pull a jet back along an expression map")
    p.add_argument("--input", required=True, help="pullback bundle JSON")
    p.add_argument("--tol", type=float, default=1e-12, help="image matching tolerance")
    p.add_argument("--out", help="jet JSON path (default: stdout)")

    p = sub.add_parser("manifold-extend", help="manifold extension in one chart")
    p.add_argument("--input", required=True, help="atlas JSON")
    p.add_argument("--chart", required=True, help="chart id for queries and output")
    p.add_argument("--grid", required=True, help='query grid "lo:hi:step,…"')
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--derivs", help='derivative columns, e.g. "(1,0)"')
    p.add_argument("--tol", type=float, default=1e-9, help="partition/pullback tolerance")
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES), help="suite name")
    p.add_argument("--input", help="jet or atlas JSON for data-driven suites")
    p.add_argument("--tol", type=float, default=None, help="override the pass bound")
    p.add_argument("--out", help="JSON report path (text always on stdout)")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up by name on each call, not held by the shared parser, so
    # that a wrapped or patched cmd_* function is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except _NumericAtPoint as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (decomp.ResolutionExceeded, extend.ScheduleExhausted) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (
        ValueError,
        KeyError,
        OSError,
        atlas.MissingTransition,
        atlas.PartitionDeficit,
        atlas.CoverageError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
