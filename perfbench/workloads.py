"""
The three gating workloads.

Each workload is one process, one thread and one client in a closed loop:
the next op starts when the previous one has returned.  `setup` builds
everything an op needs from the seed, with the program's modules passed
in as the namespace `wx` so that the runner can import them afresh for
every set-up repetition; `make_input` draws the next op's input from a
separate seeded stream; `op` is the timed call into the program;
`collect` gathers its output after the clock has stopped; and `check`
compares the output with an exact reference and returns the largest
err / bound (above 1 is a failure).
"""

import csv
import io
import itertools
import json
import math

import numpy as np

import oracle


class CliGridTiles:
    """
    The float path users run on grids: `whitneyext extend` on one 4x4 tile
    of [-1.2, 1.2]^2 per op, in-process through `cli.main`, tiles in seeded
    order.  The CLI rebuilds the Extension on every call, so one build
    serves 16 grid-local queries, and the O(N) closed-set scans of the cube
    search dominate.  Oracle: exact polynomial reproduction.
    """

    name = "cli-grid-tiles"
    n, k = 2, 2

    def __init__(self, npoints=1000, tiles_per_axis=12):
        self.npoints = npoints
        self.tiles_per_axis = tiles_per_axis

    def setup(self, wx, seed, workdir):
        rng = np.random.default_rng(seed)
        f = wx.exprlang.VectorExpr.parse([oracle.random_poly(rng, self.n, self.k)], self.n)
        pts = [(f"p{i}", tuple(rng.uniform(-1.0, 1.0, self.n))) for i in range(self.npoints)]
        jet = wx.jets.Jet.from_expr(f, pts, self.k)
        jet_path = workdir / "cli-grid-tiles-jet.json"
        with open(jet_path, "w") as fh:
            json.dump(jet.to_dict(), fh)
        state = {
            "wx": wx,
            "f": f,
            "points": np.array([x for _, x in pts]),
            "jet_path": str(jet_path),
            "out_path": str(workdir / "cli-grid-tiles-out.csv"),
            # the whole query grid has 4 * tiles_per_axis points a side
            "step": 2.4 / (4 * self.tiles_per_axis - 1),
            "order": [],
        }
        self.collect(state, None, self.op(state, self._tile(state, (0, 0))))  # warm-up
        return state

    def _tile(self, state, corner):
        step = state["step"]
        return [(-1.2 + 4 * t * step, -1.2 + (4 * t + 3) * step, step) for t in corner]

    def make_input(self, state, rng):
        if not state["order"]:
            tiles = list(itertools.product(range(self.tiles_per_axis), repeat=self.n))
            state["order"] = [tiles[i] for i in rng.permutation(len(tiles))]
        return self._tile(state, state["order"].pop())

    def op(self, state, axes):
        grid = ",".join(f"{lo!r}:{hi!r}:{step!r}" for lo, hi, step in axes)
        return state["wx"].cli.main(
            ["extend", "--input", state["jet_path"], f"--grid={grid}", "--out", state["out_path"]]
        )

    def collect(self, state, axes, rc):
        if rc != 0:
            raise RuntimeError(f"whitneyext extend exited with code {rc}")
        with open(state["out_path"], "rb") as fh:
            return fh.read()

    def check(self, state, axes, out):
        if "bound" not in state:
            state["bound"] = oracle.DerivBound([1.0], [(0,) * self.n])
        rows = list(csv.reader(io.StringIO(out.decode())))
        if rows[0] != ["x0", "x1", "F0"]:
            raise ValueError(f"unexpected header {rows[0]}")
        grid = list(itertools.product(*[[lo + i * step for i in range(4)] for lo, _, step in axes]))
        if len(rows) - 1 != len(grid):
            raise ValueError(f"{len(rows) - 1} rows, expected {len(grid)}")
        worst = 0.0
        for row, expected in zip(rows[1:], grid):
            x = tuple(float(v) for v in row[: self.n])
            if max(abs(a - b) for a, b in zip(x, expected)) > 1e-12:
                raise ValueError(f"grid point {x}, expected {expected}")
            want = oracle.exact_derivs(state["f"], x, self.k)
            side = oracle.home_side(state["points"], x)
            got = [[float(v) for v in row[self.n :]]]
            worst = max(worst, float(np.max(state["bound"].margins(got, want, side))))
        return worst


class DerivsScatter:
    """
    The series path: `Extension.eval_derivs` (every derivative to order 4)
    at a scattered point of [-1.2, 1.2]^3 per op, one Extension built in
    set-up.  Scattered queries share little, so per-query caches show less
    here than on tiles.  Oracle: exact derivatives of the generating
    polynomials under the scale-aware cancellation bound.
    """

    name = "derivs-3d-scatter"
    n, k, m = 3, 4, 2

    def __init__(self, npoints=50):
        self.npoints = npoints

    def setup(self, wx, seed, workdir):
        rng = np.random.default_rng(seed)
        f = wx.exprlang.VectorExpr.parse(
            [oracle.random_poly(rng, self.n, self.k) for _ in range(self.m)], self.n
        )
        pts = [(f"p{i}", tuple(rng.uniform(-1.0, 1.0, self.n))) for i in range(self.npoints)]
        jet = wx.jets.Jet.from_expr(f, pts, self.k)
        state = {"wx": wx, "f": f, "points": np.array([x for _, x in pts])}
        state["ext"] = wx.extend.Extension(jet)
        self.op(state, self.make_input(state, rng))  # warm-up
        return state

    def make_input(self, state, rng):
        return tuple(float(v) for v in rng.uniform(-1.2, 1.2, self.n))

    def op(self, state, x):
        return state["ext"].eval_derivs(x)

    def collect(self, state, x, out):
        return out

    def check(self, state, x, out):
        if "bound" not in state:
            wx = state["wx"]
            maxima = oracle.bump_maxima(wx.pou, wx.taylorarith, self.k)
            indices = wx.multiindex.enumerate_upto(self.n, self.k)
            state["bound"] = oracle.DerivBound(maxima, indices)
            state["indices"] = indices
        want = oracle.exact_derivs(state["f"], x, self.k)
        got = np.array([out[a] for a in state["indices"]])
        side = oracle.home_side(state["points"], x)
        return float(np.max(state["bound"].margins(got, want, side)))


class AtlasTransport:
    """
    The chart path.  Per op: induce a jet on 30 fresh points of chart u,
    transport it to chart v through the shear u -> v, check correspondence,
    build a ManifoldExtension with constant bumps 1/2, and take its
    derivatives in chart v at 2 off-set points and 1 jet point.  Fresh
    Extensions serve about 2 queries per build, so work moved into
    construction costs here.  Oracle: `Jet.from_expr` of the symbolic
    composition f o T^-1, independent of the chain-rule tables, chart
    independence of off-set values, and off-set derivatives rebuilt from
    the two charts' extensions and the series of the symbolic T^-1.
    """

    name = "atlas-transport"
    n, k = 2, 4
    FORWARD = ("x0 + 0.3*sin(x1)", "x1")
    INVERSE = ("x0 - 0.3*sin(x1)", "x1")

    def __init__(self, npoints=30):
        self.npoints = npoints

    @staticmethod
    def forward(x):
        return (x[0] + 0.3 * math.sin(x[1]), x[1])

    @staticmethod
    def inverse(y):
        return (y[0] - 0.3 * math.sin(y[1]), y[1])

    def setup(self, wx, seed, workdir):
        rng = np.random.default_rng(seed)
        el = wx.exprlang
        a, b = rng.uniform(-0.6, 0.6, 2), rng.uniform(-1.0, 1.0, 2)
        c = rng.uniform(-0.5, 0.5)
        src = (
            f"exp({a[0]:.6f}*x0 + {a[1]:.6f}*x1) * sin({b[0]:.6f}*x0 + {b[1]:.6f}*x1)"
            f" + {c:.6f}*x0*x1^2"
        )
        f = el.VectorExpr.parse([src], self.n)
        inverse = el.VectorExpr.parse(list(self.INVERSE), self.n)
        charts = [wx.atlas.Chart("u"), wx.atlas.Chart("v")]
        transitions = {
            ("u", "v"): el.VectorExpr.parse(list(self.FORWARD), self.n),
            ("v", "u"): inverse,
        }
        half = el.parse("0.5", self.n)
        state = {
            "wx": wx,
            "f": f,
            "f_in_v": f.compose(inverse),
            "inverse": inverse,
            "atlas": wx.atlas.FiniteAtlas(self.n, charts, transitions),
            "bumps": [("u", half), ("v", half)],
        }
        self.op(state, self.make_input(state, rng))  # warm-up
        return state

    def make_input(self, state, rng):
        pts = [(f"p{i}", tuple(float(v) for v in rng.uniform(-1.0, 1.0, self.n))) for i in range(self.npoints)]
        off = [tuple(float(v) for v in rng.uniform(-1.2, 1.2, self.n)) for _ in range(2)]
        return pts, off, pts[int(rng.integers(self.npoints))][0]

    def op(self, state, inp):
        pts, off, jet_pid = inp
        at, atlas = state["wx"].atlas, state["atlas"]
        jet_u = state["wx"].jets.Jet.from_expr(state["f"], pts, self.k)
        jet_v = at.transport(at.AtlasJet({"u": jet_u}), atlas, "v")
        family = at.AtlasJet({"u": jet_u, "v": jet_v})
        reports = at.correspondence_check_all(family, atlas)
        ext = at.ManifoldExtension(family, atlas, state["bumps"])
        queries = off + [jet_v.coords[jet_pid]]
        return jet_u, jet_v, reports, ext, [ext.eval_derivs("v", y) for y in queries]

    def collect(self, state, inp, out):
        return out

    def check(self, state, inp, out):
        pts, off, jet_pid = inp
        jet_u, jet_v, reports, ext, derivs = out
        if len(reports) != 2 or not all(r["pass"] for r in reports):
            raise ValueError(f"correspondence failed: {reports}")
        worst = scale = 0.0
        for pid, x in pts:
            y = self.forward(x)
            if max(abs(p - q) for p, q in zip(jet_v.coords[pid], y)) > 4 * oracle.EPS * (1 + max(map(abs, y))):
                raise ValueError(f"point {pid} maps to {jet_v.coords[pid]}, expected {y}")
            want = oracle.exact_derivs(state["f_in_v"], jet_v.coords[pid], self.k)
            m = max(float(np.max(np.abs(want))), float(np.max(np.abs(jet_u.values[pid]))))
            scale = max(scale, m)
            worst = max(worst, float(np.max(oracle.chain_margins(jet_v.values[pid], want, m))))
            if pid == jet_pid:
                got = np.array([derivs[-1][a] for a in jet_v.indices])
                worst = max(worst, float(np.max(oracle.chain_margins(got, want, m))))
        # chart independence: the chart-v value at y is the chart-u value at
        # T^-1(y)
        for y, d in zip(off, derivs):
            other = ext.eval("u", self.inverse(y))
            worst = max(worst, float(np.max(oracle.chain_margins(d[(0,) * self.n], other, scale))))
        # off-set derivatives: half the chart-v extension plus half the
        # chart-u extension's Taylor polynomial evaluated on the series of
        # the symbolic T^-1 at y, bypassing the chain-rule tables and
        # ManifoldExtension's composition
        wx = state["wx"]
        ext_u = wx.extend.Extension(jet_u, k=self.k)
        ext_v = wx.extend.Extension(jet_v, k=self.k)
        for y, d in zip(off, derivs):
            x = state["atlas"].map_point("v", "u", y)
            du, dv = ext_u.eval_derivs(x), ext_v.eval_derivs(y)
            shifted = [t - c for t, c in zip(state["inverse"].eval_taylor(y, self.k), x)]
            ctx = shifted[0].ctx
            composed = [wx.taylorarith.constant(0.0, self.n, self.k) for _ in range(jet_u.m)]
            for a, fact in zip(ctx.indices, ctx.factorials):
                term = wx.taylorarith.constant(1.0, self.n, self.k)
                for t, e in zip(shifted, a):
                    term = term * t**e
                composed = [s + term * float(du[a][c] / fact) for c, s in enumerate(composed)]
            via_u = np.stack([wx.taylorarith.derivatives(s) for s in composed], axis=1)
            via_v = np.array([dv[a] for a in ctx.indices])
            got = np.array([d[a] for a in ctx.indices])
            size = float(max(np.max(np.abs(via_u)), np.max(np.abs(via_v))))
            worst = max(worst, float(np.max(oracle.chain_margins(got, 0.5 * via_v + 0.5 * via_u, size))))
        return worst


WORKLOADS = {w.name: w for w in (CliGridTiles, DerivsScatter, AtlasTransport)}
