"""Toy chart atlases over finite point sets, their hypercoverings, and
higher cocycle data at low simplicial degree.

An atlas covers a finite point set X with one chart per point: a finite
labeled base set, an injective map from the zero base points into X,
a group order and dimension tag, and an optional algebra handle per
chart.  Overlapping pairs carry coordinate-change records (a subset of
the source base, an injective base map, and an optional morphism handle
between the chart algebras).  Everything is set-level and exhaustively
checkable; the analytic content lives entirely in the algebra handles.

From a validated atlas one builds the nerve-style simplicial set whose
k-simplices are (k+1)-tuples of points with pairwise overlapping chart
images.  Per simplex there is a base subset U (a recursive intersection
of coordinate-change domains pulled back to the leading chart) and an
image subset V of X.  The family {V} is checked against the five
hypercovering axioms, and the simplicial identities are verified by
direct enumeration.

Cocycle data assigns charts to vertices, coordinate-change morphisms to
edges, and homotopies to triangles: a triangle's two-cell is a filling
homotopy between the direct edge morphism and the composite around the
other two edges, produced by the cylinder construction when the edges
are quasi-isomorphisms.  The checks re-verify every assignment against
the face, degeneracy, and level-inclusion conditions.
"""

from __future__ import annotations

import itertools

from .gradedlin import expect, expect_int
from .htpy import FillError, FillingModel, fill_n_homotopy
from .linfty import (CheckReport, LInftyMorphism, check_morphism, compose,
                     comps_agree, is_quasi_iso)
from .simplexmodel import Homotopy, constant_homotopy


# ---------------------------------------------------------------------------
# atlases


class ToyAtlas:
    """A finite chart atlas.

    points: list of hashable points (the space X).
    charts: {p: {"base_points": [labels], "zero_set": {label: point},
                 "group_order": int, "dim": int, "algebra_ref": str|None}}
        zero_set is the injective chart map restricted to the zero base
        points; its value set is the chart image in X.
    changes: {(p, q): {"U_pq": [labels], "base_map": {label: label},
                       "morphism_ref": str|None}}
        base_map is defined exactly on U_pq with values in the base of
        the chart at q.
    algebras / morphisms: registries resolving the handles; a change
    morphism maps the algebra of the target chart q to the algebra of
    the source chart p."""

    def __init__(self, points, charts, changes, algebras=None,
                 morphisms=None):
        self.points = list(points)
        self.charts = {p: dict(c) for p, c in charts.items()}
        self.changes = {tuple(k): dict(v) for k, v in changes.items()}
        self.algebras = dict(algebras or {})
        self.morphisms = dict(morphisms or {})

    def base(self, p):
        return self.charts[p]["base_points"]

    def zeros(self, p):
        return self.charts[p]["zero_set"]

    def image(self, p):
        """The image of the chart at p inside X."""
        return frozenset(self.zeros(p).values())

    def change_domain(self, p, q):
        return frozenset(self.changes[(p, q)]["U_pq"])

    def base_map(self, p, q):
        return self.changes[(p, q)]["base_map"]

    def pull_back(self, p, q, subset):
        """The points of U_pq that the base map sends into subset, a
        base subset of the chart at q."""
        f = self.base_map(p, q)
        return frozenset(u for u in self.change_domain(p, q)
                         if f[u] in subset)

    def edge_morphism(self, p, q):
        """The algebra morphism attached to the change (p, q): from the
        algebra at q to the algebra at p; identity edges resolve to the
        identity morphism."""
        if p == q:
            alg = self.algebras[self.charts[p]["algebra_ref"]]
            return LInftyMorphism.identity(alg)
        ref = self.changes.get((p, q), {}).get("morphism_ref")
        if ref is None:
            raise ValueError("change %r carries no morphism handle"
                             % ((p, q),))
        return self.morphisms[ref]

    def to_json(self):
        return {
            "points": list(self.points),
            "charts": {
                str(p): {
                    "zero_set": {str(u): x
                                 for u, x in sorted(c["zero_set"].items())},
                    "base_points": list(c["base_points"]),
                    "group_order": c.get("group_order", 1),
                    "dim": c.get("dim", 0),
                    "algebra_ref": c.get("algebra_ref"),
                }
                for p, c in sorted(self.charts.items(), key=lambda t: str(t[0]))
            },
            "changes": [
                {
                    "pair": list(pair),
                    "U_pq": list(ch["U_pq"]),
                    "base_map": {str(u): v
                                 for u, v in sorted(ch["base_map"].items())},
                    "morphism_ref": ch.get("morphism_ref"),
                }
                for pair, ch in sorted(self.changes.items(),
                                       key=lambda t: (str(t[0][0]),
                                                      str(t[0][1])))
            ],
        }

    @classmethod
    def from_json(cls, doc, algebras=None, morphisms=None):
        expect(doc, "atlas", ("points", "charts", "changes"))
        points = _points(doc["points"])
        by_str = {str(p): p for p in points}
        charts = {}
        for ps, c in doc["charts"].items():
            expect(c, "atlas.charts", ("base_points", "zero_set"),
                   ("group_order", "dim", "algebra_ref"))
            base = _points(c["base_points"])
            base_by_str = {str(u): u for u in base}
            charts[by_str[ps]] = {
                "base_points": base,
                "zero_set": {base_by_str[us]: _point(x)
                             for us, x in c["zero_set"].items()},
                "group_order": expect_int(
                    "atlas.charts.%s.group_order" % ps,
                    c.get("group_order", 1), 1),
                "dim": expect_int("atlas.charts.%s.dim" % ps,
                                  c.get("dim", 0), 0),
                "algebra_ref": c.get("algebra_ref"),
            }
        changes = {}
        for ch in doc["changes"]:
            expect(ch, "atlas.changes", ("pair", "U_pq", "base_map"),
                   ("morphism_ref",))
            p, q = pair = tuple(_point(x) for x in ch["pair"])
            if not set(pair) <= set(points):
                raise ValueError("atlas.changes: pair %r names an unlisted "
                                 "point" % (ch["pair"],))
            if pair in changes:
                raise ValueError("atlas.changes: pair %r is repeated"
                                 % (ch["pair"],))
            # a change from a point with no chart keeps its keys as
            # written: validate_atlas reads only changes between charted
            # points, and reports the missing chart
            base_by_str = {str(u): u for u in charts[p]["base_points"]} \
                if p in charts else {us: us for us in ch["base_map"]}
            changes[pair] = {
                "U_pq": [_point(u) for u in ch["U_pq"]],
                "base_map": {base_by_str[us]: _point(v)
                             for us, v in ch["base_map"].items()},
                "morphism_ref": ch.get("morphism_ref"),
            }
        return cls(points, charts, changes, algebras=algebras,
                   morphisms=morphisms)


def _point(x):
    """A point or base point read from a document: a string or an
    integer (a bool is no integer here, and True == 1 would find the
    chart of 1)."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise TypeError("a point must be a string or an integer, got %r"
                        % (x,))
    return x


def _points(xs):
    """A list of points, refused when two have one string form: chart
    and change keys are strings in the document."""
    points = [_point(x) for x in xs]
    if len({str(x) for x in points}) != len(points):
        raise ValueError("a point is listed twice in %r" % (xs,))
    return points


def _flag(rep, ok, name, key, *detail, count=1):
    """Count `count` checks of rep and, unless ok, record the flag
    ((name,) + key, {detail: 1}), the detail parts joined by commas;
    returns ok."""
    return rep.check(ok, (name,) + tuple(key),
                     None if ok else {",".join(map(str, detail)): 1}, count)


def validate_atlas(A: ToyAtlas) -> CheckReport:
    """Pointwise validation of the four coordinate-change axioms plus
    the shape constraints they presuppose.  Failure witnesses carry the
    chart pair and the offending base or space point."""
    rep = CheckReport("atlas")
    for p in A.points:
        if not _flag(rep, p in A.charts, "chart-cover", (p, None, None),
                     "missing chart"):
            continue
        base = set(A.base(p))
        zeros = A.zeros(p)
        seen = {}
        for u, x in zeros.items():
            at = (p, None, u)
            _flag(rep, u in base, "chart-shape", at, "zero outside base")
            _flag(rep, x in A.points, "chart-shape", at, "image outside X",
                  count=0)
            _flag(rep, x not in seen, "chart-shape", at,
                  "chart map not injective", count=0)
            seen[x] = u

    pairs = [(p, q) for p in A.charts for q in A.charts
             if A.image(p) & A.image(q)]
    for p, q in pairs:
        _flag(rep, (p, q) in A.changes, "overlap-change", (p, q, None),
              "missing change")
    live = [pq for pq in pairs if pq in A.changes]

    for p, q in live:
        dom = A.change_domain(p, q)
        f = A.base_map(p, q)
        vals = list(f.values())
        at = (p, q, None)
        _flag(rep, dom <= set(A.base(p)), "change-shape", at,
              "U_pq outside base")
        _flag(rep, set(f) == dom, "change-shape", at,
              "base map domain mismatch", count=0)
        _flag(rep, set(vals) <= set(A.base(q)), "change-shape", at,
              "image outside base", count=0)
        _flag(rep, len(set(vals)) == len(vals), "change-shape", at,
              "base map not injective", count=0)

    # (i) the self-change is the identity on the whole base
    for p in A.charts:
        if not _flag(rep, (p, p) in A.changes, "axiom-i", (p, p, None),
                     "missing self change"):
            continue
        dom = A.change_domain(p, p)
        _flag(rep, dom == set(A.base(p)), "axiom-i", (p, p, None),
              "self domain not full", count=0)
        for u in sorted(dom, key=str):
            _flag(rep, A.base_map(p, p).get(u) == u, "axiom-i", (p, p, u),
                  "not the identity")

    # (ii) chart maps are intertwined on zero points of the domain
    for p, q in live:
        f = A.base_map(p, q)
        for u in sorted(set(A.zeros(p)) & A.change_domain(p, q), key=str):
            v = f.get(u)
            _flag(rep, v in A.zeros(q) and A.zeros(q)[v] == A.zeros(p)[u],
                  "axiom-ii", (p, q, u), "chart maps disagree")

    # (iii) the triple cocycle on the stated locus
    for p, q in live:
        for r in A.charts:
            if (q, r) not in A.changes or (p, r) not in A.changes:
                continue
            fpq, fqr, fpr = A.base_map(p, q), A.base_map(q, r), \
                A.base_map(p, r)
            locus = {u for u in A.change_domain(p, q)
                     if fpq.get(u) in A.change_domain(q, r)} \
                & A.change_domain(p, r)
            for u in sorted(locus, key=str):
                rep.check(fqr.get(fpq.get(u)) == fpr.get(u),
                          ("axiom-iii", p, q, u),
                          {"composite disagrees at": str(r)})

    # (iv) zero points of the change domain hit exactly the image
    # overlap
    for p, q in live:
        got = {A.zeros(p)[u]
               for u in set(A.zeros(p)) & A.change_domain(p, q)}
        want = A.image(p) & A.image(q)
        for x in sorted(got ^ want, key=str):
            _flag(rep, False, "axiom-iv", (p, q, x),
                  "missing" if x in want else "extra")
        # the pair counts once more, whatever its differences
        rep.check(True)
    return rep


# ---------------------------------------------------------------------------
# the hypercovering simplicial set


class Hypercovering:
    """The simplicial set of pairwise-overlapping vertex tuples of an
    atlas, together with the per-simplex base subsets U and image
    subsets V.

    A k-simplex is a (k+1)-tuple of points; the face map with index i
    removes the vertex at position k - i and the degeneracy with index
    i repeats it (so face index 0 drops the last vertex).  U of a
    simplex lives in the base of its leading vertex and is the
    intersection of the change domains of all tail subtuples pulled
    back along the leading base maps; V is the image of its zero part
    in X.

    simplices: {k: list of k-simplices}."""

    def __init__(self, atlas: ToyAtlas, m_max, simplices):
        self.atlas = atlas
        self.m_max = m_max
        self.simplices = {k: list(v) for k, v in simplices.items()}
        # the same simplices as sets, for membership tests
        self._index = {k: set(v) for k, v in self.simplices.items()}
        self._u_cache = {}

    # --- structure maps

    def face(self, alpha, i):
        k = len(alpha) - 1
        if not 0 <= i <= k:
            raise ValueError("face index out of range")
        pos = k - i
        return alpha[:pos] + alpha[pos + 1:]

    def degeneracy(self, alpha, i):
        k = len(alpha) - 1
        if not 0 <= i <= k:
            raise ValueError("degeneracy index out of range")
        pos = k - i
        return alpha[:pos + 1] + alpha[pos:]

    def has(self, alpha):
        return alpha in self._index.get(len(alpha) - 1, ())

    # --- subsets

    def u_set(self, alpha):
        """The base subset of the leading chart attached to a simplex,
        by the recursive pullback-intersection over all tail subtuples."""
        if alpha in self._u_cache:
            return self._u_cache[alpha]
        A = self.atlas
        p, k = alpha[0], len(alpha) - 1
        out = frozenset(A.base(p))
        for rest in itertools.chain.from_iterable(
                itertools.combinations(range(k), n) for n in range(k)):
            beta = tuple(alpha[j] for j in rest) + (alpha[k],)
            out &= A.pull_back(p, beta[0], self.u_set(beta))
        self._u_cache[alpha] = out
        return out

    def u_within_face(self, alpha, i):
        """Whether U of a simplex lies in U of its face i, pulled back
        along the leading change when that face drops the leading
        vertex (i = k)."""
        face_u = self.u_set(self.face(alpha, i))
        if i == len(alpha) - 1:
            face_u = self.atlas.pull_back(alpha[0], alpha[1], face_u)
        return self.u_set(alpha) <= face_u

    def v_set(self, alpha):
        """The image in X of the zero part of the simplex's base set."""
        A = self.atlas
        p = alpha[0]
        zeros = A.zeros(p)
        return frozenset(zeros[u] for u in self.u_set(alpha)
                         if u in zeros)

    def v_by_images(self, alpha):
        """The same subset computed as the intersection of the chart
        images over the vertices."""
        out = self.atlas.image(alpha[0])
        for p in alpha[1:]:
            out &= self.atlas.image(p)
        return out


def build_hypercovering(A: ToyAtlas, m_max) -> Hypercovering:
    """Enumerate the simplicial set of an atlas up to degree m_max:
    the k-simplices are the vertex tuples whose charts overlap
    pairwise (ordered pairs; repeated vertices give the degenerate
    simplices)."""
    if m_max > 4:
        raise ValueError("hypercoverings are built up to degree 4")
    pts = sorted(A.points, key=str)
    edge_ok = {(p, q) for p in pts for q in pts
               if A.image(p) & A.image(q)}
    simplices = {0: [(p,) for p in pts]}
    for k in range(1, m_max + 1):
        simplices[k] = [
            t for t in itertools.product(pts, repeat=k + 1)
            if all((t[i], t[j]) in edge_ok
                   for i in range(k + 1) for j in range(i + 1, k + 1))]
    return Hypercovering(A, m_max, simplices)


def simplicial_identities(H: Hypercovering) -> CheckReport:
    """Direct enumeration of the simplicial identity set on all stored
    simplices: face-face, face-degeneracy (including the two identity
    cases), and degeneracy-degeneracy, plus the subset laws (U is
    degeneracy-stable, faces only grow U up to the leading pullback)."""
    rep = CheckReport("simplicial-identities")
    for k in sorted(H.simplices):
        for alpha in H.simplices[k]:
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    if k >= 1:
                        _flag(rep, H.face(H.face(alpha, j), i)
                              == H.face(H.face(alpha, i), j - 1),
                              "face-face", alpha, i, j)
            if k + 1 <= H.m_max:
                for i in range(k + 2):
                    for j in range(k + 1):
                        lhs = H.face(H.degeneracy(alpha, j), i)
                        if i < j:
                            rhs = H.degeneracy(H.face(alpha, i), j - 1)
                        elif i in (j, j + 1):
                            rhs = alpha
                        else:
                            rhs = H.degeneracy(H.face(alpha, i - 1), j)
                        _flag(rep, lhs == rhs, "face-degeneracy", alpha,
                              i, j)
                for i in range(k + 1):
                    _flag(rep, H.has(H.degeneracy(alpha, i)),
                          "degeneracy-closed", alpha, i)
            if k + 2 <= H.m_max:
                for i in range(k + 1):
                    for j in range(i, k + 1):
                        lhs = H.degeneracy(H.degeneracy(alpha, j), i)
                        rhs = H.degeneracy(H.degeneracy(alpha, i), j + 1)
                        _flag(rep, lhs == rhs, "degeneracy-degeneracy",
                              alpha, i, j)
            # subset laws
            if k + 1 <= H.m_max:
                for i in range(k + 1):
                    _flag(rep, H.u_set(H.degeneracy(alpha, i))
                          == H.u_set(alpha), "u-degeneracy-stable", alpha, i)
            for i in range(k):
                _flag(rep, H.u_within_face(alpha, i), "u-face-monotone",
                      alpha, i)
            if k >= 1:
                _flag(rep, H.u_within_face(alpha, k), "u-leading-face",
                      alpha, "pullback")
    return rep


def hypercover_check(H: Hypercovering) -> CheckReport:
    """The five hypercovering axioms for the family {V}, checked by
    exhaustive enumeration, together with the two-ways agreement of V
    (zero-part image versus intersection of chart images)."""
    rep = CheckReport("hypercover")

    # (i) the vertex subsets cover X
    covered = set()
    for alpha in H.simplices.get(0, []):
        covered |= H.v_set(alpha)
    _flag(rep, covered == set(H.atlas.points), "cover", (),
          sorted(set(H.atlas.points) - covered))

    # (ii) faces only grow V; (iii) degeneracies preserve V
    for k in sorted(H.simplices):
        for alpha in H.simplices[k]:
            for i in range(k + 1):
                if k >= 1:
                    f = H.face(alpha, i)
                    if _flag(rep, H.has(f), "face-closed", alpha, i):
                        _flag(rep, H.v_set(alpha) <= H.v_set(f),
                              "face-monotone", alpha, i, count=0)
                if k + 1 <= H.m_max:
                    s = H.degeneracy(alpha, i)
                    if _flag(rep, H.has(s), "degeneracy-closed", alpha, i):
                        _flag(rep, H.v_set(s) == H.v_set(alpha),
                              "degeneracy-stable", alpha, i, count=0)
            _flag(rep, H.v_set(alpha) == H.v_by_images(alpha), "v-two-ways",
                  alpha, "disagree")

    # (iv)+(v) compatible boundary tuples glue: the intersection of
    # the V's of a compatible family of (k-1)-simplices is the union
    # of the V's of the simplices with those faces
    for k in range(1, H.m_max + 1):
        lower = H.simplices.get(k - 1, [])
        uppers = {}
        for alpha in H.simplices.get(k, []):
            key = tuple(H.face(alpha, i) for i in range(k + 1))
            uppers.setdefault(key, []).append(alpha)
        name, level = "glue" if k >= 2 else "pair-glue", "level %d" % k
        for bdry in _compatible_tuples(H, lower, k):
            inter = H.v_set(bdry[0])
            for b in bdry[1:]:
                inter &= H.v_set(b)
            union = set()
            for alpha in uppers.get(bdry, []):
                union |= H.v_set(alpha)
            _flag(rep, inter == union, name, bdry[0] + bdry[-1], level)
    return rep


def _compatible_tuples(H, lower, k):
    """All (k+1)-tuples of (k-1)-simplices satisfying the boundary
    compatibility (the face of the s-th at t-1 equals the face of the
    t-th at s, for s < t), built incrementally."""
    out = []

    def extend(partial):
        t = len(partial)
        if t == k + 1:
            out.append(tuple(partial))
            return
        for cand in lower:
            ok = True
            for s in range(t):
                if k >= 2 and H.face(partial[s], t - 1) != \
                        H.face(cand, s):
                    ok = False
                    break
            if ok:
                extend(partial + [cand])

    extend([])
    return out


# ---------------------------------------------------------------------------
# cocycle data


# A triangle's cell is a Homotopy from the direct edge morphism to the
# composite around the other two edges: the constant homotopy in the
# tensor model when the two agree, a cylinder filling model otherwise.


def _cell_report(cell):
    """A filling cell re-verifies its model; a constant cell checks its
    two endpoints."""
    if isinstance(cell.model, FillingModel):
        return cell.model.verify()
    rep = CheckReport("two-cell")
    rep.check(cell.endpoints_match(), ("endpoint",), {"fail": 1})
    return rep


def _cell_json(cell):
    if isinstance(cell.model, FillingModel):
        return {"kind": "filling", "model": cell.model.to_json()}
    return {"kind": "constant"}


class CocycleData:
    """Chart, morphism, and homotopy assignments over the simplices of
    a hypercovering up to degree 2, at a dimension level."""

    def __init__(self, atlas, hyper, level, m_max, vertices, edges,
                 triangles):
        self.atlas = atlas
        self.hyper = hyper
        self.level = level
        self.m_max = m_max
        self.vertices = vertices
        self.edges = edges
        self.triangles = triangles

    def include(self):
        """The same data regarded at the next dimension level; on
        finite data the level embedding is the identity on every cell."""
        return CocycleData(self.atlas, self.hyper, self.level + 1,
                           self.m_max, self.vertices, self.edges,
                           self.triangles)

    def to_json(self):
        return {
            "level": self.level,
            "m_max": self.m_max,
            "vertices": {str(p): v["algebra_ref"]
                         for p, v in sorted(self.vertices.items(),
                                            key=lambda t: str(t[0]))},
            "edges": sorted("%s,%s" % (str(a[0]), str(a[1]))
                            for a in self.edges),
            "triangles": {",".join(str(v) for v in a): _cell_json(c)
                          for a, c in sorted(self.triangles.items())},
        }


def build_cocycle(A: ToyAtlas, H: Hypercovering, level, m_max=2,
                  tie_break=0) -> CocycleData:
    """Assign charts to vertices, coordinate-change morphisms to edges,
    and homotopies to triangles of the hypercovering.

    Each edge must resolve to a quasi-isomorphism (a non-quasi-iso
    blocks the homotopy filling and raises, naming the edge).  Each
    triangle is filled between the direct edge and the composite; when
    the two agree the constant homotopy is used, otherwise the cylinder
    filling with arity 2.  A nonzero tie_break selects different
    free-variable choices in the fills, for auditing that validity does
    not depend on them."""
    if m_max > 2:
        raise ValueError("cocycle data is built up to degree 2")
    vertices = {}
    for (p,) in H.simplices.get(0, []):
        c = A.charts[p]
        if c.get("dim", 0) > level:
            raise ValueError("chart at %r has dimension above the level"
                             % (p,))
        vertices[p] = {"chart": p, "dim": c.get("dim", 0),
                       "algebra_ref": c.get("algebra_ref")}

    edges = {}
    if m_max >= 1:
        for alpha in H.simplices.get(1, []):
            p, q = alpha
            f = A.edge_morphism(p, q)
            if not is_quasi_iso(f):
                raise FillError(
                    "coordinate change %r is not a quasi-isomorphism"
                    % (alpha,))
            edges[alpha] = f

    triangles = {}
    if m_max >= 2:
        for alpha in H.simplices.get(2, []):
            v0, v1, v2 = alpha
            direct = edges[(v0, v2)]
            around = compose(edges[(v0, v1)], edges[(v1, v2)])
            cap = min(direct.arity_cap, around.arity_cap, 2)
            if comps_agree(direct, around, cap):
                cell = constant_homotopy(direct)
            else:
                model = fill_n_homotopy([direct, around], K=2,
                                        tie_break=tie_break)
                cell = Homotopy(model.hbar, model, direct, around)
            triangles[alpha] = cell
    return CocycleData(A, H, level, m_max, vertices, edges, triangles)


def check_cocycle(G: CocycleData) -> CheckReport:
    """Re-verify the three cocycle conditions on finite data: face
    compatibility (edge endpoints match the vertex charts; triangle
    evaluations match the direct edge and the composite), degeneracy
    compatibility (degenerate edges are identities, degenerate
    triangles are constant cells), and level inclusion (dimensions are
    within the level and the level embedding fixes every cell)."""
    rep = CheckReport("cocycle")
    A, H = G.atlas, G.hyper
    for p, v in G.vertices.items():
        _flag(rep, v["dim"] <= G.level, "level-dim", (p,), v["dim"])

    for alpha, f in G.edges.items():
        p, q = alpha
        _flag(rep, f.source is A.algebras[G.vertices[q]["algebra_ref"]]
              and f.target is A.algebras[G.vertices[p]["algebra_ref"]],
              "edge-endpoints", alpha, "chart mismatch")
        sub = check_morphism(f, up_to=min(2, f.arity_cap))
        _flag(rep, sub.ok, "edge-relations", alpha,
              "morphism relation fails", count=sub.checked)
        _flag(rep, is_quasi_iso(f), "edge-quasi-iso", alpha,
              "not a quasi-iso")
        if p == q:
            _flag(rep, comps_agree(f, LInftyMorphism.identity(f.source),
                                   min(2, f.arity_cap)),
                  "degeneracy-edge", alpha, "not the identity")

    for alpha, cell in G.triangles.items():
        v0, v1, v2 = alpha
        sub = _cell_report(cell)
        _flag(rep, sub.ok, "triangle-cell", alpha, "homotopy fails",
              count=sub.checked)
        direct = G.edges[(v0, v2)]
        around = compose(G.edges[(v0, v1)], G.edges[(v1, v2)])
        cap = min(direct.arity_cap, 2)
        _flag(rep, comps_agree(cell.endpoints[0], direct, cap),
              "face-eval-0", alpha, "direct edge mismatch")
        _flag(rep, comps_agree(cell.endpoints[1], around, cap),
              "face-eval-1", alpha, "composite mismatch")
        # base-set restriction: the triangle's base subset sits inside
        # the base subsets of its edge faces
        for i in range(3):
            _flag(rep, H.u_within_face(alpha, i), "face-restriction",
                  alpha, i)
        if len(set(alpha)) < 3:
            _flag(rep, not isinstance(cell.model, FillingModel),
                  "degeneracy-triangle", alpha, "not constant")

    inc = G.include()
    _flag(rep, inc.vertices is G.vertices and inc.edges is G.edges
          and inc.triangles is G.triangles and inc.level == G.level + 1,
          "level-inclusion", (), "embedding moved a cell")
    return rep
