"""
Finite atlases, jet correspondence across charts, and manifold extension.

A manifold point is always addressed as (chart id, coordinates): with a
finite atlas whose transitions are expressions, chart coordinates are the
only computable handle.  An atlas stores the charts (each with a codomain
box or all of ℝⁿ) and, for ordered chart pairs that overlap, the
transition ψ∘φ⁻¹ as a vector expression mapping φ-coordinates to
ψ-coordinates; the presence of a transition is the overlap marker.

A jet on the manifold is a family (f_φ) of per-chart jets with a shared
point-identity map: the same id in two charts names the same manifold
point.  Two members correspond when pulling f_ψ back through the
transition reproduces f_φ on the shared points — the compatibility that
makes the family a single object.  ``transport`` moves a jet into a
target chart by pulling back from every overlapping source and gluing,
which also reconstructs a chart dropped by ``atlas_project``.

``ManifoldExtension`` combines per-chart Whitney extensions with a
user-supplied partition of unity (h_i)_i subordinate to the charts:

    F = Σ_i h_i · (F_i ∘ chart_i),

evaluated and differentiated in any chart's coordinates by one Taylor
computation, whose zero row at order 0 is the value.  Partitions of
unity on the manifold are inputs, not synthesized: existence is a
theorem, construction is the caller's choice.
"""

import numpy as np

from . import decomp, exprlang, extend, fdb, jets, multiindex, taylorarith

_SLACK = 1e-12


class MissingTransition(Exception):
    """No transition is declared for a chart pair that must overlap."""


class PartitionDeficit(Exception):
    """The supplied bump functions do not sum to 1 at a jet point."""


class CoverageError(Exception):
    """A sub-atlas leaves some jet point without any covering chart."""


class Chart:
    """One chart: an id and a codomain (axis-aligned box or all of ℝⁿ)."""

    def __init__(self, cid, codomain="all"):
        self.id = str(cid)
        if codomain != "all":
            box = [(float(lo), float(hi)) for lo, hi in codomain]
            if any(hi <= lo for lo, hi in box):
                raise ValueError(f"chart {cid}: empty codomain box {box}")
            codomain = box
        self.codomain = codomain

    def contains(self, x):
        """Whether x lies in the codomain, widened by _SLACK for mapped points.
        A point of another dimension than a codomain box is a ValueError."""
        if self.codomain == "all":
            return True
        if len(x) != len(self.codomain):
            raise ValueError(
                f"chart {self.id}: point {tuple(x)} has dimension {len(x)}, expected {len(self.codomain)}"
            )
        return all(
            lo - _SLACK <= xi <= hi + _SLACK
            for xi, (lo, hi) in zip(x, self.codomain)
        )


class FiniteAtlas:
    """
    Charts plus transitions for the overlapping ordered pairs.

    ``transitions`` maps (from_id, to_id) to the VectorExpr taking
    from-chart coordinates to to-chart coordinates.  The identity pair is
    implicit and need not be stored.
    """

    def __init__(self, dim, charts, transitions):
        self.dim = int(dim)
        self.charts = {}
        for c in charts:
            if c.id in self.charts:
                raise ValueError(f"duplicate chart id {c.id!r}")
            if c.codomain != "all" and len(c.codomain) != self.dim:
                raise ValueError(
                    f"chart {c.id}: codomain box has {len(c.codomain)} pair(s), expected dim = {self.dim}"
                )
            self.charts[c.id] = c
        self.chart_order = [c.id for c in charts]
        self.transitions = {}
        for (frm, to), ve in transitions.items():
            if frm not in self.charts or to not in self.charts:
                raise ValueError(f"transition references unknown chart ({frm},{to})")
            if ve.n != self.dim or ve.m != self.dim:
                raise ValueError(
                    f"transition ({frm},{to}) must map dimension {self.dim} to itself"
                )
            self.transitions[(str(frm), str(to))] = ve

    def chart(self, cid):
        try:
            return self.charts[cid]
        except KeyError:
            raise KeyError(f"no chart with id {cid!r}") from None

    def has_transition(self, frm, to):
        return frm == to or (frm, to) in self.transitions

    def transition(self, frm, to):
        """The coordinate change from-chart → to-chart (identity if equal)."""
        if frm == to:
            return exprlang.identity_vector(self.dim)
        try:
            return self.transitions[(frm, to)]
        except KeyError:
            raise MissingTransition(f"no transition from {frm!r} to {to!r}") from None

    def map_point(self, frm, to, x):
        return tuple(float(v) for v in self.transition(frm, to).eval_real(x))

    def check_roundtrips(self, frm, to, points, tol=1e-9):
        """Largest round-trip defect of transition(frm,to) ∘ transition(to,frm)."""
        fwd, back = self.transition(frm, to), self.transition(to, frm)
        worst = 0.0
        for x in points:
            y = back.eval_real(fwd.eval_real(x))
            worst = max(worst, max(abs(yi - xi) for yi, xi in zip(y, x)))
        return worst


class AtlasJet:
    """
    Per-chart jets with shared point identities.

    ``jets`` maps chart id → Jet in that chart's coordinates; a point id
    present in several charts names one manifold point, so the stored
    coordinates must be related by the transitions.
    """

    def __init__(self, jet_map):
        self.jets = dict(jet_map)
        if not self.jets:
            raise ValueError("an atlas jet needs at least one chart entry")
        shapes = {(j.n, j.k, j.m) for j in self.jets.values()}
        if len(shapes) > 1:
            raise ValueError(f"per-chart jets have mismatched shapes: {shapes}")
        self.n, self.k, self.m = shapes.pop()

    def point_ids(self):
        """All manifold point ids, in first-appearance order."""
        return list(dict.fromkeys(pid for jet in self.jets.values() for pid in jet.ids))

    def project(self, l):
        """Forget derivative data above order l in every chart."""
        return AtlasJet({cid: jet.project(l) for cid, jet in self.jets.items()})

    def coords_in_chart(self, atlas, pid, target):
        """
        Coordinates of the point pid in the target chart, or None when the
        point does not lie in that chart's domain.  Stored coordinates win;
        otherwise the point is routed through a transition from a chart
        that has it.
        """
        jet = self.jets.get(target)
        if jet is not None and pid in jet.coords:
            return jet.coords[pid]
        for cid, src in self.jets.items():
            if pid not in src.coords or not atlas.has_transition(cid, target):
                continue
            y = atlas.map_point(cid, target, src.coords[pid])
            if atlas.chart(target).contains(y):
                return y
        return None


# -- correspondence and transport -------------------------------------------


def correspondence_check(aj, atlas, phi, psi, tol=1e-9):
    """
    Whether f_φ and f_ψ correspond: pulling f_ψ back through the transition
    φ → ψ must reproduce f_φ on the shared points.  Returns a report dict
    with the shared-point count, the max residual, and the verdict.
    """
    f_phi, f_psi = aj.jets[phi], aj.jets[psi]
    shared = [pid for pid in f_phi.ids if pid in f_psi.row]
    report = {"from": phi, "to": psi, "points": len(shared), "residual": 0.0}
    if shared:
        trans = atlas.transition(phi, psi)
        rows = [f_phi.row[pid] for pid in shared]
        pulled = fdb.jet_pullback(trans, f_psi, zip(shared, f_phi.X.take(rows, axis=0)), tol=max(tol, _SLACK))
        report["residual"] = float(np.max(np.abs(pulled.F - f_phi.F.take(rows, axis=0))))
    report["pass"] = report["residual"] <= tol
    return report


def correspondence_check_all(aj, atlas, tol=1e-9):
    """Reports for every ordered chart pair with a declared transition."""
    out = []
    cids = [cid for cid in atlas.chart_order if cid in aj.jets]
    for phi in cids:
        for psi in cids:
            if phi != psi and atlas.has_transition(phi, psi):
                out.append(correspondence_check(aj, atlas, phi, psi, tol))
    return out


def transport(aj, atlas, target, tol=1e-9):
    """
    The jet in target-chart coordinates assembled from every chart that
    overlaps the target: each source is pulled back through the transition
    and the pieces are glued.  Sources must agree within tol on shared
    points (they do when the family corresponds); the target chart's own
    entry, when present, contributes as a plain restriction.
    """
    coord_of = {}
    own = aj.jets.get(target)
    if own is not None:
        coord_of.update(own.coords)
    pieces = []
    for cid, src in aj.jets.items():
        if cid == target:
            pieces.append((src, list(src.ids)))
            continue
        if not atlas.has_transition(target, cid) or not atlas.has_transition(
            cid, target
        ):
            continue
        pts = []
        for pid in src.ids:
            x = coord_of.get(pid)
            if x is None:
                x = atlas.map_point(cid, target, src.coords[pid])
                if not atlas.chart(target).contains(x):
                    continue
                coord_of[pid] = x
            pts.append((pid, x))
        if not pts:
            continue
        pulled = fdb.jet_pullback(
            atlas.transition(target, cid), src, pts, tol=max(tol, _SLACK)
        )
        pieces.append((pulled, list(pulled.ids)))
    if not pieces:
        raise MissingTransition(f"no source chart overlaps {target!r}")
    return jets.glue(pieces, tol=tol)


def atlas_project(aj, atlas, keep, tol=1e-9):
    """
    Restrict the family to the sub-atlas given by chart ids `keep`.  Every
    jet point must remain covered by some kept chart; otherwise the
    dropped data could not be reconstructed and a CoverageError is raised.
    """
    keep = [str(c) for c in keep]
    unknown = [c for c in keep if c not in aj.jets]
    if unknown:
        raise KeyError(f"sub-atlas names charts without jet data: {unknown}")
    kept_ids = set()
    for cid in keep:
        kept_ids.update(aj.jets[cid].ids)
    for cid, jet in aj.jets.items():
        if cid in keep:
            continue
        lost = [pid for pid in jet.ids if pid not in kept_ids]
        if lost:
            raise CoverageError(
                f"dropping chart {cid!r} loses points {lost[:4]} "
                f"covered by no kept chart"
            )
    return AtlasJet({cid: aj.jets[cid] for cid in keep})


# -- manifold extension -------------------------------------------------------


class ManifoldExtension:
    """
    The h-weighted sum of per-chart Whitney extensions:

        F(p) = Σ_i h_i(x_i(p)) · F_i(x_i(p)),

    where x_i(p) are the chart-i coordinates of p and F_i extends chart
    i's jet.  Queries are (chart id, coordinates); derivative queries
    differentiate F ∘ chart⁻¹ in that chart's coordinates by composing
    each F_i's expansion with the transition series (the expansion of
    the piece in the query's own chart is used as it is).

    `pou` is a list of (chart id, h expression) pairs; each h must be
    supported inside its chart's codomain and the family must sum to 1
    near every jet point (validated at the points themselves).
    """

    def __init__(self, aj, atlas, pou, k=None, tol=1e-9):
        self.aj = aj
        self.atlas = atlas
        self.n = atlas.dim
        self.m = aj.m
        self.k = aj.k if k is None else int(k)
        self.pieces = []
        for cid, h in pou:
            if cid not in aj.jets:
                raise ValueError(
                    f"bump attached to chart {cid!r}, which carries no jet"
                )
            if isinstance(h, exprlang.VectorExpr):
                if h.m != 1:
                    raise ValueError(f"bump for chart {cid!r} must be scalar")
                h = h.exprs[0]
            ext = extend.Extension(aj.jets[cid], k=self.k)
            self.pieces.append((str(cid), h, ext))
        if not self.pieces:
            raise ValueError("empty partition of unity")
        self._check_partition(tol)

    def _chart_point(self, frm, x, cid, ext):
        """
        Chart-cid coordinates of the point with frm-coordinates x, snapped
        to the first stored jet point (rows of ``ext.jet.X``, in jet order)
        within matching tolerance, or None when the point leaves the
        overlap.  Snapping keeps transition rounding from stranding queries
        just off the anchor set.
        """
        if not self.atlas.has_transition(frm, cid):
            return None
        y = self.atlas.map_point(frm, cid, x) if frm != cid else tuple(x)
        if not self.atlas.chart(cid).contains(y):
            return None
        points = ext.jet.X
        near = np.flatnonzero(np.max(np.abs(points - np.asarray(y)), axis=1) <= _SLACK)
        if near.size:
            return tuple(points[near[0]].tolist())
        return y

    def _check_partition(self, tol):
        for pid in self.aj.point_ids():
            total = 0.0
            anywhere = False
            for cid, h, _ in self.pieces:
                x = self.aj.coords_in_chart(self.atlas, pid, cid)
                if x is None:
                    continue
                anywhere = True
                total += exprlang.eval_real(h, x)
            if not anywhere or abs(total - 1.0) > tol:
                raise PartitionDeficit(
                    f"bumps sum to {total!r} at jet point {pid!r} (need 1)"
                )

    def eval(self, chart, x):
        """F at the point with the given chart coordinates, as an (m,) array:
        the zero row of ``eval_derivs(chart, x, 0)``."""
        return self.eval_derivs(chart, x, 0)[(0,) * self.n]

    def eval_derivs(self, chart, x, upto=None):
        """
        All ∂^α(F ∘ chart⁻¹)(x) for |α| ≤ upto, as a dict over multi-index
        tuples.  Each term's extension expansion (at the mapped point) is
        composed with the transition series, multiplied by the bump series,
        and summed — all in Taylor arithmetic.  A chart whose bump series is
        identically zero at x contributes nothing and is skipped.  The piece
        in the query's own chart is not composed: its transition is the
        identity, and composing with the identity seeds would only turn a
        −0.0 coefficient into +0.0, as the product with the bump series
        that follows does anyway.
        """
        upto = self.k if upto is None else int(upto)
        if not 0 <= upto <= self.k:
            raise ValueError(f"order {upto} exceeds extension degree {self.k}")
        x = tuple(float(c) for c in x)
        decomp._check_query(x, self.n)
        ctx = taylorarith.context(self.n, upto)
        seeds = taylorarith.seeds(x, upto)
        total = np.zeros((ctx.ncoef, self.m))
        for cid, h, ext in self.pieces:
            y = self._chart_point(chart, x, cid, ext)
            if y is None:
                continue
            tau = self.atlas.transition(chart, cid).eval_taylor_env(seeds)
            hseries = exprlang.eval_taylor_env(h, tau)
            if not hseries.coeffs.any():
                continue  # h vanishes here, so F_i is not needed
            series = taylorarith.TaylorValue(ctx, ext.derivs(y, upto) / ctx.factorials[:, None])
            if cid != chart:
                series = taylorarith.compose(series, [t - t.const for t in tau])
            total += (hseries * series).coeffs
        ders = total * ctx.factorials[:, None]
        return {a: ders[i].copy() for i, a in enumerate(ctx.indices)}


# -- JSON interchange ---------------------------------------------------------


def _jet_from_points(n, pointlist):
    """Build a Jet from the interchange point list, inferring order and m
    from the values of its first point.  Where those values are malformed,
    order 0 and m = 1 stand in, and ``Jet.from_dict`` names the fault."""
    if not pointlist:
        raise ValueError("chart jet has no points")
    first = pointlist[0] if isinstance(pointlist, list) else None
    values = first.get("values") if isinstance(first, dict) else None
    values = values if isinstance(values, dict) else {}
    k = max((sum(multiindex.parse(key, n)) for key in values), default=0)
    row = next(iter(values.values()), None)
    m = len(row) if isinstance(row, list) else 1
    doc = {"dim": n, "order": k, "outdim": m, "points": pointlist}
    return jets.Jet.from_dict(doc)


def _objects(entries, field):
    """The entries of the list `field` of an atlas document; a field that
    is not a list, or an entry that is not an object, is a ValueError."""
    if not isinstance(entries, list):
        raise ValueError(f'"{field}" is {jets._kind(entries)}, expected a list')
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"{field}[{i}] is {jets._kind(e)}, expected an object")
    return entries


def _codomain(chart, n):
    """The codomain of a chart entry: "all", or the n [lo, hi] pairs of its
    "box" as floats; any other shape is a ValueError naming the chart."""
    codomain = chart.get("codomain", "all")
    if codomain == "all":
        return codomain
    box = codomain.get("box") if isinstance(codomain, dict) else None
    # lists only: a string pair would be read as its characters
    if isinstance(box, list) and len(box) == n and all(isinstance(p, list) and len(p) == 2 for p in box):
        try:
            return [(float(lo), float(hi)) for lo, hi in box]
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(
        f'"codomain" of chart {chart["id"]} is {codomain!r}, expected "all" or '
        f'{{"box": [[lo, hi], ...]}} with dim = {n} pairs of numbers'
    )


def load_atlas(doc):
    """
    Parse the atlas interchange document into (FiniteAtlas, AtlasJet, pou).

    Schema: {"dim": n, "charts": [{"id", "codomain": {"box": [[lo,hi],…]} |
    "all"}], "transitions": [{"from", "to", "map": [expr,…]}], "jets":
    [{"chart", "points": […]}], "pou": [{"chart", "h": [expr]}]} — the
    same point schema as jet-spec files; "pou" and "jets" may be empty.  A
    malformed document is a ValueError that names its entry and field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"the atlas is {jets._kind(doc)}, expected an object")
    n = jets._integer(doc, "dim")
    charts = []
    for i, c in enumerate(_objects(jets._field(doc, "charts", "the atlas"), "charts")):
        charts.append(Chart(jets._field(c, "id", f"charts[{i}]"), _codomain(c, n)))
    transitions = {}
    for i, t in enumerate(_objects(doc.get("transitions", []), "transitions")):
        owner = f"transitions[{i}]"
        ve = exprlang.VectorExpr.parse(jets._strings(t, "map", owner), n)
        transitions[(str(jets._field(t, "from", owner)), str(jets._field(t, "to", owner)))] = ve
    atlas = FiniteAtlas(n, charts, transitions)
    aj = None
    if doc.get("jets"):
        jet_map = {}
        for i, entry in enumerate(_objects(doc["jets"], "jets")):
            cid = str(jets._field(entry, "chart", f"jets[{i}]"))
            if cid in jet_map:
                raise ValueError(f"duplicate jet entry for chart {cid!r}")
            jet_map[cid] = _jet_from_points(n, jets._field(entry, "points", f"jets[{i}]"))
        aj = AtlasJet(jet_map)
    pou = []
    for i, entry in enumerate(_objects(doc.get("pou", []), "pou")):
        exprs = jets._strings(entry, "h", f"pou[{i}]")
        if len(exprs) != 1:
            raise ValueError("each bump must be a single scalar expression")
        pou.append((str(jets._field(entry, "chart", f"pou[{i}]")), exprlang.parse(exprs[0], n)))
    return atlas, aj, pou
