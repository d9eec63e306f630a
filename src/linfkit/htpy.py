"""Homotopy-theoretic constructions on top of the algebra engine.

Three machines live here:

- fill_n_homotopy: given n+1 quasi-isomorphisms into the same target
  (n = 1, 2), build a finite model of the n-simplex times the target
  as a mapping-cylinder algebra and a filling homotopy whose vertex
  evaluations are the given morphisms; every face is filled first, by
  the same recursion, down to the point, whose model is the target
  itself.
- whitehead_inverse: invert a quasi-isomorphism up to homotopy, arity
  by arity, returning a certificate with the inverse, the homotopy and
  the interval model it lives in.
- model_morphism_over: extend a morphism of the underlying algebras to
  a morphism of interval models compatible with evaluations and the
  inclusion of constants.

A model of the interval times an algebra is used as it is: a
SimplexModel or a FillingModel with n = 1 has the model algebra, its
base, eval_vertex(v) and incl, the inclusion of constants.

Every "there exists" in the constructions is realized as a canonical
exact linear solve (free variables zero in reduced echelon form), so
outputs are reproducible and every claimed identity can be re-checked
coefficient by coefficient.  When a required solve has no solution the
functions raise FillError instead of returning partial data; for the
cylinder constructions this happens precisely when the boundary kernel
complex admits no contracting homotopy (e.g. a non-acyclic target for
the interval cylinder).
"""

from __future__ import annotations

from fractions import Fraction

from .gradedlin import (Echelon, GradedMap, GradedSpace, LinearSystem,
                        acc_term, sym_words, vec_acc, word_degree)
from .linfty import (CheckReport, LInftyAlgebra, LInftyMorphism,
                     chain_complex, check_arity_cap, check_morphism,
                     check_relations, compose, comps_agree, delta1,
                     direct_sum, fold_report, insertion_sum, is_quasi_iso,
                     l1_map, obstruction_cocycle, partition_sum,
                     solve_map_stage, split_sum_label, sum_label,
                     with_arity)
from .simplexmodel import (Homotopy, SimplexModel, incl_morphism,
                           simplex_faces, vertex_boundary)


class FillError(RuntimeError):
    """A linear stage of a homotopy construction is unsolvable."""


def _interval(model):
    """The model, refused unless it models the interval (n = 1)."""
    if model.n != 1:
        raise ValueError("interval model expected, got n = %d" % model.n)
    return model


# ---------------------------------------------------------------------------
# the cylinder filling construction


def _jtag(J):
    return "e" + "".join(str(v) for v in J)


class FillingModel:
    """A model of the n-simplex times an algebra built as a mapping
    cylinder over the kernel of the boundary map of its faces, together
    with the filling homotopy of the given quasi-isomorphisms.

    Fields: algebra (the cylinder), n, K (arity of the constructed
    structure), base (modeled target algebra), fs (vertex morphisms),
    evals {face tuple: strict morphism to the face model}, boundary
    {face tuple: its FillingModel}, incl (chain inclusion of
    constants), hbar (the filling homotopy from the source of fs into
    the cylinder).  The point (n = 0) is C itself: no faces, incl the
    identity and hbar the one vertex morphism."""

    def __init__(self, algebra, n, K, base, fs, evals, boundary, incl,
                 hbar, notes=None):
        self.algebra = algebra
        self.n = n
        self.K = K
        self.base = base
        self.fs = list(fs)
        self.evals = evals
        self.boundary = boundary
        self.incl = incl
        self.hbar = hbar
        self.notes = notes or []

    def face_keys(self):
        return sorted(self.evals)

    def eval_vertex(self, v):
        """Strict morphism cylinder -> C evaluating at a vertex."""
        if self.n == 0 and v == 0:
            return LInftyMorphism.identity(self.base)
        if self.n == 1:
            return self.evals[(v,)]
        for J in self.face_keys():
            if v in J:
                edge = self.boundary[J]
                pos = J.index(v)
                return compose(edge.evals[(pos,)], self.evals[J])
        raise ValueError("no face contains vertex %d" % v)

    def verify(self):
        """Re-check every claimed identity: cylinder relations, all
        evaluation/inclusion/homotopy morphism relations, endpoint
        agreement, and quasi-isomorphism of the inclusion."""
        failures = []
        checked = fold_report(failures, check_relations(
            self.algebra, up_to=self.K), "relations")
        for J in self.face_keys():
            checked += fold_report(failures, check_morphism(
                self.evals[J], up_to=self.K), "eval" + _jtag(J))
        checked += fold_report(failures, check_morphism(
            self.hbar, up_to=self.K), "hbar")
        incl = incl_morphism(self)
        checked += fold_report(failures, check_morphism(
            incl, up_to=self.K), "incl")
        # evaluations compose with the inclusion to the face inclusions
        for J in self.face_keys():
            comp = self.evals[J].f1_map().compose(self.incl)
            face_incl = self.boundary[J].incl
            checked += 1
            if comp.images != face_incl.images:
                # {source: {target: difference}} on the first entries
                diff = vec_acc(dict(comp.entries), face_incl.entries, -1)
                witness = {}
                for (a, b), c in sorted(diff.items())[:3]:
                    witness.setdefault(a, {})[b] = Fraction(c)
                failures.append((("eval-incl", _jtag(J)), witness))
        # endpoints of the filling homotopy are the given morphisms
        for v in range(self.n + 1):
            ev = self.eval_vertex(v)
            got = compose(ev, self.hbar)
            want = self.fs[v]
            checked += 1
            if not comps_agree(got, want, min(got.arity_cap, self.K)):
                failures.append((("endpoint", str(v)), {"mismatch": 1}))
        checked += 1
        if not is_quasi_iso(incl):
            failures.append((("incl-quasi-iso",), {"fail": 1}))
        return CheckReport("filling-model", failures, checked,
                           notes=list(self.notes))

    def to_json(self):
        return {
            "n": self.n,
            "K": self.K,
            "dim": self.algebra.space.dim,
            "faces": ["".join(str(v) for v in J) for J in self.face_keys()],
            "hbar": self.hbar.to_json(),
            "notes": list(self.notes),
        }


def fill_n_homotopy(fs, K=2, tie_break=0):
    """Fill a family of quasi-isomorphisms with an n-homotopy,
    n = len(fs) - 1 in {0, 1, 2}.

    fs: morphisms C0 -> C (the vertex data), each a quasi-isomorphism.
    Every face is filled first, by this recursion, down to the point
    (n = 0): its model is C itself and its homotopy the one vertex
    morphism; it solves nothing and checks K only: the fill above it
    has checked its vertex.
    K: arity up to which operations and homotopy components are built,
    an integer >= 1 (ValueError otherwise, as in the other two machines).
    tie_break: seed of the free-variable choice in every linear stage,
    edge fills included (see LinearSystem); 0 is the canonical one.

    Returns a FillingModel.  Raises FillError when a linear stage is
    unsolvable (in particular when the face kernel complex is not
    acyclic, so no contracting extension exists), and CurvedError
    when C or C0 is curved (is_quasi_iso)."""
    check_arity_cap(K)
    n_out = len(fs) - 1
    if n_out not in (0, 1, 2):
        raise ValueError("filling supports 1, 2 or 3 vertex morphisms")
    C = fs[0].target
    C0 = fs[0].source
    if K > min(C.arity_cap, C0.arity_cap):
        raise ValueError("arity cap of the algebras is below K")
    if n_out == 0:
        return FillingModel(C, 0, K, C, fs, {}, {},
                            GradedMap.identity(C.space), fs[0])
    for f in fs:
        if f.source is not C0 or f.target is not C:
            raise ValueError("vertex morphisms must share endpoints")
        if not is_quasi_iso(f):
            raise ValueError("vertex morphisms must be quasi-isomorphisms")

    simplex = simplex_faces(n_out)
    faces = [J for _, J, _ in simplex]
    boundary = {J: fill_n_homotopy([fs[v] for v in J], K=K,
                                   tie_break=tie_break) for J in faces}
    face_alg = {J: boundary[J].algebra for J in faces}

    # --- direct sum of the face models, face i labeled sum_label(l, i)
    side = {J: str(i) for i, J in enumerate(faces)}
    face_sum = direct_sum(*[face_alg[J] for J in faces])
    sum_space = face_sum.space
    d_sum = l1_map(face_sum)

    def tag_vec(J, vec):
        return {sum_label(b, side[J]): c for b, c in vec.items()}

    def untag_vec(J, vec):
        parts = [(split_sum_label(b), c) for b, c in vec.items()]
        return {b: c for (b, s), c in parts if s == side[J]}

    # --- kernel of the signed boundary map to the vertex level (zero
    # when n_out = 1: a vertex has no faces), as labeled vectors in the
    # sum; each basis vector is 1 on its free column, which the others
    # are 0 on
    idx = sum_space.index
    kvecs = {}
    korder = []
    free = {}
    for deg in sum_space.degrees():
        ech = Echelon()
        if n_out == 2:
            for row in vertex_boundary([
                    (J, sign, boundary[J],
                     {l: idx[sum_label(l, side[J])]
                      for l in face_alg[J].space.basis_in_degree(deg)})
                    for _, J, sign in simplex]).values():
                ech.insert(row)
        cols = [idx[b] for b in sum_space.basis_in_degree(deg)]
        for i, v in enumerate(ech.kernel(cols)):
            lab = "k%d_%d" % (deg, i)
            kvecs[lab] = ({sum_space.labels[j]: c
                           for j, c in sorted(v.items())}, deg)
            korder.append(lab)
            free.setdefault(deg, []).append((lab, sum_space.labels[max(v)]))

    def ker_coords(vec, deg):
        """Coordinates of a sum vector in the kernel basis of its
        degree, read off the free columns, or None when it is not in
        the kernel span."""
        vec = {b: c for b, c in vec.items() if sum_space.deg[b] == deg}
        x = {k: vec[b] for k, b in free.get(deg, ()) if b in vec}
        for k, c in x.items():
            vec_acc(vec, kvecs[k][0], -c)
        return None if vec else x

    # differential restricted to the kernel, in kernel coordinates
    d_ker = {}
    for k in korder:
        vec, deg = kvecs[k]
        img = d_sum.apply(vec)
        coords = ker_coords(img, deg + 1)
        if coords is None:
            raise FillError("face differential does not preserve the "
                            "boundary kernel")
        d_ker[k] = coords

    # --- cylinder space and differential
    cyl_gens = [("x|" + k, kvecs[k][1]) for k in korder] \
        + [("y|" + k, kvecs[k][1] - 1) for k in korder] \
        + [("z|" + l, C0.space.deg[l]) for l in C0.space.labels]
    cyl_space = GradedSpace(cyl_gens)
    l1_tab = {}
    for k in korder:
        out = {"x|" + j: c for j, c in d_ker[k].items()}
        if out:
            l1_tab[("x|" + k,)] = out
        outy = {"x|" + k: 1}
        outy.update(("y|" + j, -c) for j, c in d_ker[k].items())
        l1_tab[("y|" + k,)] = outy
    for l in C0.space.labels:
        img = C0.op_word(1, (l,))
        if img:
            l1_tab[("z|" + l,)] = {"z|" + b: c for b, c in img.items()}
    ops = {1: l1_tab} if l1_tab else {}
    cyl = LInftyAlgebra(cyl_space, ops, arity_cap=K)

    # --- contracting extension: delta1(A) = d A + A d = id on the
    # kernel complex, A of degree -1
    kspace = GradedSpace([(k, kvecs[k][1]) for k in korder])
    kcx = chain_complex(kspace, GradedMap(kspace, kspace, 1, d_ker))
    sol = solve_map_stage(1, [("A", kcx, kcx, -1)],
                          [([("d", "A", 1)], {(k,): {k: 1} for k in korder})],
                          LinearSystem(tie_break))
    if sol is None:
        raise FillError("no contracting extension on the boundary kernel "
                        "(the kernel complex is not acyclic)")
    Amap = sol["A"]

    # --- evaluations, kept as linear maps {cylinder label: element}
    # while the cylinder grows
    ev_maps = {}
    for J in faces:
        f1 = {}
        for k in korder:
            vec, deg = kvecs[k]
            f1["x|" + k] = untag_vec(J, vec)
            avec = {}
            for kj, c in Amap.get((k,), {}).items():
                vec_acc(avec, kvecs[kj][0], c)
            f1["y|" + k] = untag_vec(J, avec)
        ev_maps[J] = GradedMap(cyl_space, face_alg[J].space, 0, f1).images

    # --- the inclusion of constants and every arity of the filling
    # homotopy, each lifted from the faces to the kernel: none of them
    # reads a cylinder operation
    def lift_to_ker(element_by_face, deg, refusal):
        vec = {}
        for J in faces:
            vec_acc(vec, tag_vec(J, element_by_face[J]))
        coords = ker_coords(vec, deg)
        if coords is None:
            raise FillError(refusal)
        return {"x|" + k: c for k, c in coords.items()}

    incl = GradedMap(C.space, cyl_space, 0, {
        lab: lift_to_ker({J: boundary[J].incl.images.get(lab, {})
                          for J in faces}, C.space.deg[lab],
                         "inclusion of constants misses the boundary "
                         "kernel")
        for lab in C.space.labels})

    hbar_comps = {1: {}}
    for m in range(1, K + 1):
        table = {}
        for w in sym_words(C0.space, m):
            val = lift_to_ker({J: boundary[J].hbar.comp_word(m, w)
                               for J in faces},
                              word_degree(C0.space, w),
                              "boundary data is not compatible (misses "
                              "the kernel)")
            if m == 1:
                acc_term(val, "z|" + w[0], 1)
            if val:
                table[w] = val
        if table:
            hbar_comps[m] = table
    hbar = LInftyMorphism(C0, cyl, hbar_comps, arity_cap=K)

    # --- higher operations of the cylinder, arity by arity
    for m in range(2, K + 1):
        cyl = _solve_cylinder_operation(cyl, m, faces, face_alg, ev_maps,
                                        incl, hbar, C, C0, K, tie_break)

    notes = ["cylinder over %d face(s), kernel dimension %d"
             % (len(faces), len(korder))]
    evals = {J: LInftyMorphism.from_linear(cyl, face_alg[J], ev_maps[J],
                                           arity_cap=K) for J in faces}
    return FillingModel(cyl, n_out, K, C, fs, evals, boundary, incl,
                        LInftyMorphism(C0, cyl, hbar.comps, arity_cap=K),
                        notes=notes)


def _solve_cylinder_operation(cyl, m, faces, face_alg, ev_maps, incl, hbar,
                              C, C0, K, tie_break):
    """One inductive stage: find the arity-m operation of the cylinder
    subject to (a) the quadratic relation at arity m, (b) evaluation
    compatibility with every face, (c) the homotopy morphism relation,
    and (d) the inclusion morphism relation.  ev_maps: {face: the
    evaluation's linear map {cylinder label: element}}; hbar: the
    filling homotopy, whose components of arity <= m are the only ones
    read.  Returns the algebra with the new operation installed."""
    space = cyl.space
    words = sym_words(space, m)

    # (a) quadratic relation: delta1(l_m) = -(terms with 2 <= i <= m-1)
    arities = cyl.support
    rhs_rel = {w: insertion_sum(cyl, w, cyl.ops, arities, 2, m - 1,
                                 scale=-1)
               for w in words}

    # (b) evaluation compatibility with each face model: ev1 . l_m =
    # l_m of the face on the images of ev1
    conds = [([("d", "l", 1)], rhs_rel)] + [
        ([("post", "l", 1, face_alg[J], ev_maps[J])],
         {w: face_alg[J].op_elems(m, [ev_maps[J].get(a, {}) for a in w])
          for w in words}) for J in faces]

    # (c) the homotopy morphism relation at arity m: l_m on the linear
    # parts equals the known terms
    below = arities & frozenset(range(1, m))
    rhs = {}
    for v in sym_words(C0.space, m):
        rhs[v] = insertion_sum(C0, v, hbar.comps, hbar.support, 1, m)
        partition_sum(hbar, v, cyl.op_elems, below, rhs[v], -1)

    # (d) the inclusion of constants stays a strict morphism
    conds += [([("pre", "l", 1, C0, hbar.f1_map().images)], rhs),
              ([("pre", "l", 1, C, incl.images)],
               {w: incl.apply(C.op_word(m, w))
                for w in sym_words(C.space, m)})]

    sol = solve_map_stage(m, [("l", cyl, cyl, 1)], conds,
                          LinearSystem(tie_break))
    if sol is None:
        raise FillError("no arity-%d cylinder operation satisfies the "
                        "relation and compatibility constraints" % m)
    return LInftyAlgebra(space, with_arity(cyl.ops, m, sol["l"]),
                         arity_cap=K)


# ---------------------------------------------------------------------------
# inverses up to homotopy


def chain_inverse(f, tie_break=0):
    """A chain-level inverse of a quasi-isomorphism over the rationals:
    (g1, hprime) with g1 a chain map and g1 f1 - id = d hprime +
    hprime d.  One canonical two-map stage of solve_map_stage (see
    LinearSystem for the tie-break)."""
    C1, C2 = f.source, f.target
    # chain map: delta1(g) = 0; homotopy: g f1 - delta1(h) = id
    sol = solve_map_stage(1, [("g", C2, C1, 0), ("h", C1, C1, -1)], [
        ([("d", "g", 1)], {}),
        ([("pre", "g", 1, C1, f.f1_map().images), ("d", "h", -1)],
         {(x,): {x: 1} for x in C1.space.labels})], LinearSystem(tie_break))
    if sol is None:
        raise FillError("no chain-level inverse (is the map a "
                        "quasi-isomorphism?)")
    return tuple({a: v for (a,), v in sol[tag].items()} for tag in "gh")


class WhiteheadCertificate:
    """Inverse-up-to-homotopy data for a quasi-isomorphism f: the
    inverse g up to arity K, the homotopy h from the identity to g . f
    inside an interval model, and (when constructible) a reverse
    filling homotopy from f . g to the identity."""

    def __init__(self, f, g, homotopy, model, K, reverse=None, notes=None):
        self.f = f
        self.g = g
        self.homotopy = homotopy
        self.model = _interval(model)
        self.K = K
        self.reverse = reverse
        self.notes = notes or []

    def verify(self):
        failures = []
        checked = fold_report(failures, check_morphism(
            self.g, up_to=self.K), "g")
        checked += fold_report(failures, check_morphism(
            self.homotopy, up_to=self.K), "homotopy")
        checked += 1
        if not is_quasi_iso(self.g):
            failures.append((("g-quasi-iso",), {"fail": 1}))
        # the homotopy runs from the identity to g . f
        hom = Homotopy(self.homotopy, self.model,
                       LInftyMorphism.identity(self.f.source),
                       compose(self.g, self.f))
        for v in (0, 1):
            checked += 1
            if not hom.endpoint_ok(v, self.K):
                failures.append((("endpoint", str(v)), {"mismatch": 1}))
        if self.reverse is not None:
            checked += fold_report(failures, self.reverse.verify(),
                                   "reverse")
        return CheckReport("whitehead-certificate", failures, checked,
                           notes=list(self.notes))


def whitehead_inverse(f, K=3, model=None, tie_break=0):
    """Invert a quasi-isomorphism up to homotopy, arity by arity.

    Returns a WhiteheadCertificate with g (inverse up to arity K) and a
    homotopy from the identity to g . f inside an interval model of the
    source.  The model defaults to the interval cylinder of the source
    (which exists when the source is acyclic); pass any model with
    n = 1 otherwise.  When the target admits the cylinder, a filling
    homotopy from f . g to the identity is attached.
    tie_break: seed of the free-variable choice in chain_inverse, each
    arity-m stage and both cylinder fills (see LinearSystem); 0 is the
    canonical one.  The lift of the chain homotopy into the model is
    solved at tie-break 0 at every seed, block-diagonal by generator.
    A curved source or target raises CurvedError (is_quasi_iso).
    """
    check_arity_cap(K)
    C1, C2 = f.source, f.target
    if not is_quasi_iso(f):
        raise ValueError("not a quasi-isomorphism")
    notes = []
    if model is None:
        ident = LInftyMorphism.identity(C1)
        try:
            model = fill_n_homotopy([ident, ident], K=K,
                                    tie_break=tie_break)
            notes.append("interval cylinder model, dim %d"
                         % model.algebra.space.dim)
        except FillError:
            # non-acyclic source: fall back to the truncated tensor model
            model = SimplexModel(C1, 1, weight_cap=4)
            notes.append("tensor interval model, dim %d"
                         % model.algebra.space.dim)
    else:
        model = _interval(model)
    M = model.algebra

    g1, hprime = chain_inverse(f, tie_break)
    # lift the chain homotopy into the model: ev0 hpp = 0, ev1 hpp = h'
    ev0_cols = model.eval_vertex(0).f1_map().images
    ev1_cols = model.eval_vertex(1).f1_map().images
    sol = solve_map_stage(1, [("hpp", C1, M, -1)], [
        ([("post", "hpp", 1, C1, ev0_cols)], {}),
        ([("post", "hpp", 1, C1, ev1_cols)],
         {(x,): v for x, v in hprime.items()})], LinearSystem())
    if sol is None:
        raise FillError("cannot lift the chain homotopy into the "
                        "model (joint evaluation not surjective)")
    # h_1 = incl + delta1(hpp) = incl + l1 hpp + hpp l1
    incl1, dh = model.incl.images, delta1(C1, M, sol["hpp"], 1, -1)
    h1 = {(x,): val for x in C1.space.labels
          if (val := vec_acc(dict(incl1.get(x, {})), dh.get((x,), {})))}
    g = LInftyMorphism(C2, C1, {1: {(a,): v for a, v in g1.items() if v}},
                       arity_cap=K)
    h = LInftyMorphism(C1, M, {1: h1}, arity_cap=K)

    f1 = f.f1_map().images
    for m in range(2, K + 1):
        lower = g.support & frozenset(range(1, m))
        # endpoint 0: ev0 h_m = 0; endpoint 1: ev1 h_m - g_m f1^m equals
        # the known terms of (g f)_m
        sol = solve_map_stage(m, [("g", C2, C1, 0), ("h", C1, M, 0)], [
            ([("d", "g", 1)], obstruction_cocycle(g, m - 1)),
            ([("d", "h", 1)], obstruction_cocycle(h, m - 1)),
            ([("post", "h", 1, C1, ev0_cols)], {}),
            ([("post", "h", 1, C1, ev1_cols), ("pre", "g", -1, C1, f1)],
             {w: partition_sum(f, w, g.comp_elems, lower)
              for w in sym_words(C1.space, m)})], LinearSystem(tie_break))
        if sol is None:
            raise FillError("inversion blocked at arity %d" % m)
        g = LInftyMorphism(C2, C1, with_arity(g.comps, m, sol["g"]),
                           arity_cap=K)
        h = LInftyMorphism(C1, M, with_arity(h.comps, m, sol["h"]),
                           arity_cap=K)

    reverse = None
    try:
        reverse = fill_n_homotopy(
            [compose(f, g), LInftyMorphism.identity(C2)], K=K,
            tie_break=tie_break)
    except FillError as exc:
        notes.append("reverse homotopy unavailable: %s" % exc)
    return WhiteheadCertificate(f, g, h, model, K, reverse=reverse,
                                notes=notes)


# ---------------------------------------------------------------------------
# model morphisms over a morphism of the modeled algebras


def model_morphism_over(f, model1, model2, K=2, tie_break=0):
    """A morphism of interval models over f: C1 -> C2, i.e. a morphism
    of the model algebras commuting with both vertex evaluations and
    with the inclusions of constants.  All components are found by
    canonical solves arity by arity, with tie_break the seed of their
    free-variable choice (see LinearSystem); raises FillError when
    blocked."""
    check_arity_cap(K)
    M1, M2 = _interval(model1), _interval(model2)
    if M1.base is not f.source or M2.base is not f.target:
        raise ValueError("models do not sit over the morphism endpoints")
    A1, A2 = M1.algebra, M2.algebra
    evs1 = {j: M1.eval_vertex(j).f1_map().images for j in (0, 1)}
    evs2 = {j: M2.eval_vertex(j).f1_map().images for j in (0, 1)}
    F = None
    for m in range(1, K + 1):
        words = sym_words(A1.space, m)
        O = obstruction_cocycle(F, m - 1) if m >= 2 else {}
        # vertex evaluation compatibility: ev_j F_m = f_m ev_j^{x m}
        conds = [([("d", "F", 1)], O)] + [
            ([("post", "F", 1, f.target, evs2[j])],
             {w: f.comp_elems(m, [evs1[j].get(a, {}) for a in w])
              for w in words}) for j in (0, 1)]
        # inclusion compatibility: F_m (incl1)^{x m} = incl2 f_m
        conds.append(([("pre", "F", 1, f.source, M1.incl.images)],
                      {w: M2.incl.apply(f.comp_word(m, w))
                       for w in sym_words(f.source.space, m)}))
        sol = solve_map_stage(m, [("F", A1, A2, 0)], conds,
                              LinearSystem(tie_break))
        if sol is None:
            raise FillError("no model morphism component at arity %d" % m)
        F = LInftyMorphism(A1, A2, with_arity({} if F is None else F.comps,
                                              m, sol["F"]),
                           arity_cap=K)
    return F
