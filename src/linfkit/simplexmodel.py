"""Polynomial differential forms on standard simplices and the tensor
models of a simplex times an algebra.

Forms on the n-simplex use coordinates t_1 .. t_n (the 0-th barycentric
coordinate is eliminated via the affine relation).  A monomial form is
a pair (exponent vector, strictly increasing dt index tuple).  The
weight of a monomial (polynomial degree plus form degree) is preserved
by d and additive under wedge, so the span of all basis monomials of
weight above a cap is an operations ideal of the tensor model; the
quotient (drop outputs above the cap) is a genuine finite-dimensional
algebra.  Face restriction can lower weight, so evaluation maps are
verified on words of total weight up to the cap only; reports state
the verified range.
"""

from __future__ import annotations

import itertools

from .gradedlin import (CapError, Echelon, GradedMap, GradedSpace, acc_term,
                        vec_acc, vec_scale, words_within)
from .derived import form_d, mv_wedge
from .linfty import (CheckReport, LInftyAlgebra, LInftyMorphism,
                     check_morphism, check_relations, compose, comps_agree,
                     delta1, is_quasi_iso)

MAX_SIMPLEX_DIM = 4
MAX_WEIGHT_CAP = 8


# ---------------------------------------------------------------------------
# polynomial forms; a form is a dict {(exps, dts): coefficient}


def mono_weight(key):
    exps, dts = key
    return sum(exps) + len(dts)


def mono_degree(key):
    return len(key[1])


def simplex_forms(n, weight_cap):
    """All monomial-form basis keys on the n-simplex with weight up to
    the cap, in a fixed deterministic order."""
    if n > MAX_SIMPLEX_DIM or weight_cap > MAX_WEIGHT_CAP:
        raise CapError("simplex dimension or weight cap exceeded")
    keys = []
    for r in range(0, n + 1):
        for dts in itertools.combinations(range(1, n + 1), r):
            maxdeg = weight_cap - r
            for exps in itertools.product(range(maxdeg + 1), repeat=n):
                if sum(exps) <= maxdeg:
                    keys.append((tuple(exps), tuple(dts)))
    keys.sort(key=lambda k: (mono_weight(k), k[1], k[0]))
    return keys


def d_form(n, form):
    return form_d(form, [(m - 1, m) for m in range(1, n + 1)])


def face_vertices(n, i):
    return tuple(v for v in range(n + 1) if v != i)


def simplex_faces(n):
    """The faces of the n-simplex opposite vertices n, ..., 0, as
    (i, J, sign): J the vertices of the face and sign = (-1)^(n - i),
    the unshuffle sign of splitting off the missing vertex, which makes
    the boundary of a boundary vanish."""
    return [(i, face_vertices(n, i), (-1) ** (n - i))
            for i in range(n, -1, -1)]


def vertex_boundary(faces):
    """Rows {(vertex, base label): {column: coefficient}} of the signed
    boundary from the edges of a 2-simplex to its vertices.  faces
    holds (J, sign, edge, cols) per edge: its vertices and sign from
    simplex_faces, a model of the interval over it (eval_vertex) and
    {edge label: column}.  Edge J maps to J[0] by +sign ev_0 and to
    J[1] by -sign ev_1."""
    rows = {}
    for J, sign, edge, cols in faces:
        for pos, sgn in ((0, sign), (1, -sign)):
            ev = edge.eval_vertex(pos)
            for lab, col in cols.items():
                for t, c in ev.comp_word(1, (lab,)).items():
                    acc_term(rows.setdefault((J[pos], t), {}), col, sgn * c)
    return rows


def _face_images(n, i):
    """Images of t_1..t_n (as 0-forms on the (n-1)-simplex) under the
    affine inclusion of the face opposite vertex i."""
    m = n - 1
    J = face_vertices(n, i)
    zero_exps = tuple([0] * m)
    images = []
    for coord in range(1, n + 1):
        if coord == i:
            images.append({})
            continue
        j = J.index(coord)
        if j == 0:
            img = {(zero_exps, ()): 1}
            for l in range(1, m + 1):
                e = tuple(1 if x == l - 1 else 0 for x in range(m))
                img[(e, ())] = -1
            images.append(img)
        else:
            e = tuple(1 if x == j - 1 else 0 for x in range(m))
            images.append({(e, ()): 1})
    return images


def face_restrict(n, i, form):
    """Pull a form on the n-simplex back to the face opposite vertex i
    (an (n-1)-simplex), substituting the affine face coordinates.  The
    pullback keeps or lowers the weight of every monomial."""
    m = n - 1
    images = _face_images(n, i)
    out = {}
    unit = {(tuple([0] * m), ()): 1}
    for (exps, dts), c in form.items():
        val = vec_scale(c, unit)
        for coord in range(1, n + 1):
            for _ in range(exps[coord - 1]):
                val = mv_wedge(val, images[coord - 1])
        for coord in dts:
            val = mv_wedge(val, d_form(m, images[coord - 1]))
        vec_acc(out, val)
    return out


def mono_label(key):
    exps, dts = key
    poly = ".".join("t%d^%d" % (i + 1, e) for i, e in enumerate(exps) if e)
    dt = ".".join("dt%d" % i for i in dts)
    parts = [p for p in (poly, dt) if p]
    return ".".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# the tensor model


class SimplexModel:
    """Weight-truncated tensor model of (n-simplex) x C for a strict
    base algebra C: the model algebra, the evaluations onto its faces
    (each built once, on first use) and incl, the chain map x -> 1 (x) x
    including the constants.

    One table, label_of {(form key, x): label}, names the generators:
    mono_label(k) + "|" + x, and x itself at n = 0.  So the point
    (n = 0) is C: its generators are C's labels, each of weight 0, its
    operations C's and incl the identity; it has no faces."""

    def __init__(self, base: LInftyAlgebra, n, weight_cap=6):
        if not base.is_strict:
            raise ValueError("tensor model requires a strict base algebra")
        self.base = base
        self.n = n
        self.weight_cap = weight_cap
        self.keys = simplex_forms(n, weight_cap)
        self.label_of = {(k, x): mono_label(k) + "|" + x if n else x
                         for k in self.keys for x in base.space.labels}
        self.labels = {lab: kx for kx, lab in self.label_of.items()}
        self.space = GradedSpace([(lab, mono_degree(k) + base.space.deg[x])
                                  for lab, (k, x) in self.labels.items()])
        weights = {lab: mono_weight(k) for lab, (k, _) in self.labels.items()}
        self.algebra = LInftyAlgebra(
            self.space, self._build_ops(weights), arity_cap=base.arity_cap,
            weights=weights)
        unit = (tuple([0] * n), ())
        self.incl = GradedMap(base.space, self.space, 0,
                              {x: {self.label_of[unit, x]: 1}
                               for x in base.space.labels})
        self._face_model = None
        self._evals = {}

    def _tensor_element(self, form, elem):
        """form (x) elem, dropping the keys above the weight cap."""
        out = {}
        for k, c in form.items():
            for x, cx in elem.items():
                lab = self.label_of.get((k, x))
                if lab is not None:
                    acc_term(out, lab, c * cx)
        return out

    def _build_ops(self, weights):
        """l_m(a_1|x_1, ..., a_m|x_m) = +-(a_1 ^ ... ^ a_m)|l_m(x_1, ...,
        x_m) on the canonical words within the weight cap, plus d a|x at
        m = 1; the sign is (-1)^(sum |a_i| + sum_{i<j} |x_i| |a_j|)."""
        base = self.base
        ops = {}
        for arity in range(1, base.arity_cap + 1):
            if arity > 1 and arity not in base.ops:
                continue
            tab = {}
            for word in words_within(self.space, arity, weights,
                                     self.weight_cap):
                pairs = [self.labels[l] for l in word]
                val = {} if arity > 1 else self._tensor_element(
                    d_form(self.n, {pairs[0][0]: 1}), {pairs[0][1]: 1})
                base_out = base.op_word(arity, tuple(x for _, x in pairs))
                if base_out:
                    alpha = {pairs[0][0]: 1}
                    for k, _ in pairs[1:]:
                        alpha = mv_wedge(alpha, {k: 1})
                    sgn_exp = xsum = 0
                    for k, x in pairs:
                        sgn_exp += mono_degree(k) * (1 + xsum)
                        xsum += base.space.deg[x]
                    vec_acc(val, self._tensor_element(alpha, base_out),
                            (-1) ** sgn_exp)
                if val:
                    tab[word] = val
            if tab:
                ops[arity] = tab
        return ops

    def face_model(self):
        """The model on a codimension-1 face (shared by every face): at
        n = 1 the point, C itself."""
        if self.n == 0:
            raise ValueError("the point has no faces")
        if self._face_model is None:
            self._face_model = SimplexModel(self.base, self.n - 1,
                                            self.weight_cap)
        return self._face_model

    def eval_face(self, i) -> LInftyMorphism:
        """Evaluation onto the face opposite vertex i: restriction
        tensor identity in the linear component, zero above."""
        if i not in self._evals:
            self._evals[i] = self._build_eval_face(i)
        return self._evals[i]

    def _build_eval_face(self, i):
        face = self.face_model()
        entries = {}
        for lab, (k, x) in self.labels.items():
            val = face._tensor_element(face_restrict(self.n, i, {k: 1}),
                                       {x: 1})
            if val:
                entries[(lab,)] = val
        return LInftyMorphism(self.algebra, face.algebra, {1: entries},
                              arity_cap=self.base.arity_cap)

    def eval_vertex(self, j) -> LInftyMorphism:
        """For n = 1: evaluation at endpoint j (restriction to the face
        opposite the other vertex)."""
        if self.n != 1:
            raise ValueError("eval_vertex applies to interval models")
        return self.eval_face(1 - j)


def incl_morphism(model) -> LInftyMorphism:
    """The inclusion of constants of a model (a SimplexModel or a
    FillingModel) packaged with zero higher components.  For the tensor
    model this is in fact a full morphism (wedging constant functions
    creates no signs)."""
    return LInftyMorphism.from_linear(model.base, model.algebra,
                                      model.incl.images)


# ---------------------------------------------------------------------------
# model axiom verification


def verify_model_axioms(model: SimplexModel):
    """Check the defining axioms of a model of (n-simplex) x C at the
    implemented scale (n <= 2) by one walk over the faces, each a model
    of the face (at n = 1 the point, C): each face evaluation is a
    morphism and a quasi-isomorphism and takes incl to the face's incl;
    incl is a chain map and a quasi-isomorphism; at n = 2 the face
    model passes these axioms too; and the face complex is exact
    (_exactness), which also decides that the faces agree on shared
    vertices (n = 2) and that the joint evaluation is onto (n = 1).
    Exactness of the face complex is verified for elements of total
    weight <= its weight cap - 2; relation and morphism checks run on
    words of weight <= the cap."""
    if model.n > 2:
        raise CapError("full axiom verification capped at n = 2")
    cap = model.weight_cap
    weight_check = max(0, cap - 2)
    notes = ["exactness weights <= %d, operation words <= %d "
             "(construction cap %d)" % (weight_check, cap, cap)]
    failures = []

    def record(name, ok, witness=None):
        if not ok:
            failures.append(((name,), witness or {}))

    rep = check_relations(model.algebra, weight_cap=cap)
    record("model-relations", rep.ok, rep.failures[0][1] if rep.failures
           else None)
    face = model.face_model()
    incl = model.incl
    evs = {}
    for i in range(model.n + 1):
        ev = evs[i] = model.eval_face(i)
        record("eval-face%d-morphism" % i,
               check_morphism(ev, weight_cap=cap).ok)
        record("eval-face%d-quasi-iso" % i, is_quasi_iso(ev))
        record("eval-face%d-incl" % i,
               ev.f1_map().compose(incl).images == face.incl.images)
    record("incl-chain-map", not delta1(
        model.base, model.algebra,
        {(x,): v for x, v in incl.images.items()}, 1))
    record("incl-quasi-iso", is_quasi_iso(incl_morphism(model)))
    if model.n > 1:
        record("face-axioms", verify_model_axioms(face).ok)
    record("face-complex-exact", *_exactness(model, evs, weight_check))
    return CheckReport("model-axioms", failures,
                       checked=len(failures) + 1, notes=notes)


def _exactness(model, evs, weight_check):
    """ker(lower boundary) = im(top boundary), checked on kernel
    elements supported in weight <= weight_check.  Each face enters
    the top boundary with sign +1 and the lower boundary with its sign
    from simplex_faces: that is low . D and D . top for the sign
    convention on top, D = diag(sign), so both boundary squared zero
    and exactness are unchanged.

    At n = 2 the vertex-v row of low . top on a model generator is
    +-(ev . ev_i1 - ev . ev_i2) through the two edges at v, so
    "boundary squared nonzero" is exactly a failure of the faces to
    agree on a shared vertex.  At n = 1 every face is the point, C
    with weight 0 on each generator, and the point has no faces: the
    lower boundary is zero, and exactness says that the joint
    evaluation onto C + C is onto."""
    face = model.face_model()
    edge_space = face.space
    weights = face.algebra.weights
    ne = edge_space.dim
    faces = simplex_faces(model.n)
    for d in edge_space.degrees():
        # edge label l of the face opposite i is column i * ne + index
        cols = {i: {l: i * ne + edge_space.index[l]
                    for l in edge_space.basis_in_degree(d)}
                for i, _, _ in faces}
        rows = [] if model.n == 1 else vertex_boundary(
            [(J, sign, face, cols[i]) for i, J, sign in faces]).values()
        top = [{cols[i][t]: c for i, _, _ in faces
                for t, c in evs[i].comp_word(1, (s,)).items()}
               for s in model.space.basis_in_degree(d)]
        # boundary of boundary vanishes
        for col in top:
            if any(sum(c * row.get(e, 0) for e, c in col.items())
                   for row in rows):
                return False, {"reason": "boundary squared nonzero"}
        # kernel of the lower boundary within the weight window
        keep = {e for i in cols for l, e in cols[i].items()
                if weights[l] <= weight_check}
        if not keep:
            continue
        ech = Echelon()
        for row in rows:
            ech.insert({e: c for e, c in row.items() if e in keep})
        img = Echelon()
        for col in top:
            img.insert(col)
        for kv in ech.kernel(sorted(keep)):
            if img.reduce(kv):
                return False, {"degree": d}
    return True, None


# ---------------------------------------------------------------------------
# homotopies


class Homotopy:
    """A homotopy from f0 to f1: a morphism h into a model of the
    interval times their target, that is anything with an algebra, a
    base, an incl and eval_vertex(v) for v = 0, 1.  Its endpoints
    ev_v . h are computed once, here."""

    def __init__(self, h, model, f0, f1):
        self.h = h
        self.model = model
        self.f0 = f0
        self.f1 = f1
        self.endpoints = tuple(compose(model.eval_vertex(v), h)
                               for v in (0, 1))

    def endpoint_ok(self, v, cap=None):
        """Whether ev_v . h agrees with f_v up to arity cap."""
        return comps_agree(self.endpoints[v], (self.f0, self.f1)[v], cap)

    def endpoints_match(self):
        return self.endpoint_ok(0) and self.endpoint_ok(1)


def constant_homotopy(f: LInftyMorphism, weight_cap=4) -> Homotopy:
    """The homotopy from f to f through the interval tensor model:
    compose f with the (full) inclusion morphism."""
    model = SimplexModel(f.target, 1, weight_cap)
    return Homotopy(compose(incl_morphism(model), f), model, f, f)
