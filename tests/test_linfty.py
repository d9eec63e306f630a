"""Tests for the core algebra/morphism engine.

Oracles used here:
- the coalgebra picture, built by term_oracle.py on unshuffles and
  set partitions rather than on the term kernel: the quadratic
  relations must agree with squared-coderivation vanishing, and the
  morphism relation with codifferential intertwining;
- hand-computed small examples (dg Lie triple, curved pair);
- a frozen random search result for a non-extendable morphism;
- the induced map on cohomology by dense elimination (dense_oracle),
  against the mapping-cone test of is_quasi_iso;
- the unpruned term sums of term_oracle.py on all-Fraction copies of
  the int-first tables.
"""

import copy
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linfkit.gradedlin import (GradedMap, GradedSpace, sym_words, vec_acc,
                               word_degree)
from linfkit.linfty import (CurvedError, LInftyAlgebra, LInftyMorphism,
                            chain_complex, check_morphism, check_relations,
                            codifferential_hat, compose, delta1, direct_sum,
                            extend_morphism, is_quasi_iso,
                            l1_cohomology, l1_map, morphism_sides,
                            obstruction_class, obstruction_cocycle,
                            quad_residual, set_partitions, solve_delta1,
                            word_label)

import dense_oracle
import term_oracle
from term_oracle import compose_entries, delta_word, hat_morphism
from test_gradedlin import is_int_first
from test_term_kernel import algebras, morphisms, spaces

S3 = GradedSpace([("a", 0), ("b", 1), ("c", 2)])


def dg_lie_triple():
    """a, b even/odd ladder with one bracket: l2(a, b) = c, l1 = 0."""
    S = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    return LInftyAlgebra(S, {2: {("a", "b"): {"c": F(1)}}})


def rand_algebra(rng, space, strict=True, tries=300):
    """Random structure constants resampled until the relations hold."""
    for _ in range(tries):
        ops = {}
        for k in (1, 2, 3):
            tab = {}
            for w in sym_words(space, k):
                d = word_degree(space, w)
                out = {}
                for b in space.basis_in_degree(d + 1):
                    c = rng.choice([0, 0, 0, 1, -1])
                    if c:
                        out[b] = F(c)
                if out:
                    tab[w] = out
            if tab:
                ops[k] = tab
        A = LInftyAlgebra(space, ops, arity_cap=4)
        if check_relations(A, up_to=4).ok:
            return A
    raise RuntimeError("no random algebra found")


def rand_components(rng, space, arities=(1, 2, 3)):
    comps = {}
    for k in arities:
        tab = {}
        for w in sym_words(space, k):
            d = word_degree(space, w)
            out = {}
            for b in space.basis_in_degree(d):
                c = rng.choice([0, 0, 1, -1])
                if c:
                    out[b] = F(c)
            if out:
                tab[w] = out
        if tab:
            comps[k] = tab
    return comps


def test_set_partition_count():
    # Bell numbers 1, 1, 2, 5, 15
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)]:
        assert len(list(set_partitions(range(n)))) == bell


def test_dg_lie_triple_relations():
    A = dg_lie_triple()
    assert check_relations(A).ok


def test_degree_validation():
    with pytest.raises(ValueError):
        LInftyAlgebra(S3, {1: {("a",): {"c": F(1)}}})


def test_curved_relations():
    B = LInftyAlgebra(S3, {1: {("a",): {"b": F(1)}}}, l0={"b": F(1)})
    assert check_relations(B).ok


def test_broken_algebra_detected():
    Bad = LInftyAlgebra(S3, {1: {("a",): {"b": F(1)},
                                 ("b",): {"c": F(1)}}})
    rep = check_relations(Bad)
    assert not rep.ok
    assert rep.failures[0][0] == ("a",)


def test_zero_up_to_checks_arity_zero_only():
    """up_to=0 is a bound, not a request for the default: it checks the
    empty word alone, so the broken differential is not reached."""
    Bad = LInftyAlgebra(S3, {1: {("a",): {"b": F(1)},
                                 ("b",): {"c": F(1)}}}, arity_cap=3)
    rep = check_relations(Bad, up_to=0)
    assert rep.ok and rep.checked == 1
    assert check_relations(Bad, up_to=1).checked == 4
    assert check_morphism(LInftyMorphism.identity(Bad), up_to=0).checked == 0


def test_relations_iff_coderivation_squares_zero():
    """Independent oracle: d-hat squared vanishes exactly when the
    relation checker passes, across seeded random structure constants
    (valid and perturbed)."""
    rng = random.Random(11)
    agree = 0
    for _ in range(12):
        A = rand_algebra(rng, S3)
        # perturb one structure constant half of the time
        ops = {k: {w: dict(v) for w, v in t.items()}
               for k, t in A.ops.items()}
        if rng.random() < 0.5 and ops:
            k = rng.choice(sorted(ops))
            w = rng.choice(sorted(ops[k]))
            b = rng.choice(sorted(ops[k][w]))
            ops[k][w][b] += 1
        B = LInftyAlgebra(S3, ops, arity_cap=4)
        ok_rel = check_relations(B, up_to=4).ok
        ok_hat = not term_oracle.codifferential_square(B, 4)
        assert ok_rel == ok_hat
        agree += 1
    assert agree == 12


def test_morphism_iff_hat_intertwines():
    rng = random.Random(5)
    seen_pass = seen_fail = 0
    for _ in range(10):
        A = rand_algebra(rng, S3)
        B = rand_algebra(rng, S3)
        try:
            f = LInftyMorphism(A, B, rand_components(rng, S3), arity_cap=3)
        except ValueError:
            continue
        ok_rel = check_morphism(f, up_to=3).ok
        fh = hat_morphism(f, 3)
        ok_hat = compose_entries(fh, term_oracle.codifferential(A, 3)) == \
            compose_entries(term_oracle.codifferential(B, 3), fh)
        assert ok_rel == ok_hat
        if ok_rel:
            seen_pass += 1
        else:
            seen_fail += 1
    assert seen_fail > 0  # the oracle comparison saw nontrivial cases


def test_delta_coassociative_and_cocommutative():
    S = GradedSpace([("x", 0), ("y", 1), ("z", 1), ("w", 2)])
    for word in sym_words(S, 3) + sym_words(S, 4):
        terms = delta_word(S, word)
        # cocommutativity: the swap with Koszul sign is a bijection
        bag = {}
        for w1, w2, s in terms:
            bag[(w1, w2)] = bag.get((w1, w2), 0) + s
        for (w1, w2), s in bag.items():
            sw = (-1) ** (word_degree(S, w1) * word_degree(S, w2))
            assert bag.get((w2, w1), 0) == sw * s
        # coassociativity: (delta x 1) delta = (1 x delta) delta
        left, right = {}, {}
        for w1, w2, s in terms:
            for u1, u2, s2 in delta_word(S, w1):
                key = (u1, u2, w2)
                left[key] = left.get(key, 0) + s * s2
            for u1, u2, s2 in delta_word(S, w2):
                key = (w1, u1, u2)
                right[key] = right.get(key, 0) + s * s2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right


def test_identity_and_composition():
    rng = random.Random(2)
    A = rand_algebra(rng, S3)
    i = LInftyMorphism.identity(A)
    assert check_morphism(i).ok
    # find a random valid morphism and compose with the identity
    B = rand_algebra(rng, S3)
    for _ in range(50):
        try:
            f = LInftyMorphism(A, B, rand_components(rng, S3), arity_cap=3)
        except ValueError:
            continue
        if check_morphism(f, up_to=3).ok:
            break
    g = compose(LInftyMorphism.identity(B), f)
    assert g.comps == f.comps
    g2 = compose(f, LInftyMorphism.identity(A))
    assert g2.comps == f.comps


def test_composition_preserves_relation():
    rng = random.Random(9)
    found = 0
    while found < 3:
        A = rand_algebra(rng, S3)
        B = rand_algebra(rng, S3)
        C = rand_algebra(rng, S3)
        try:
            f = LInftyMorphism(A, B, rand_components(rng, S3), arity_cap=3)
            g = LInftyMorphism(B, C, rand_components(rng, S3), arity_cap=3)
        except ValueError:
            continue
        if not (check_morphism(f, up_to=3).ok and check_morphism(g, up_to=3).ok):
            continue
        h = compose(g, f)
        assert check_morphism(h, up_to=3).ok
        found += 1


def test_direct_sum():
    A = dg_lie_triple()
    Z = LInftyAlgebra(GradedSpace([("z", 0)]), {})
    D = direct_sum(A, Z)
    assert check_relations(D).ok
    assert D.space.dim == 4
    # componentwise bracket survives
    out = D.op_word(2, ("a@0", "b@0"))
    assert out == {"c@0": F(1)}
    assert D.op_word(2, ("a@0", "z@1")) == {}
    # n-ary, and weights kept with 0 on a summand without them
    W = LInftyAlgebra(GradedSpace([("w", 0)]), {}, weights={"w": 3})
    E = direct_sum(A, Z, W)
    assert E.space.labels[-2:] == ("z@1", "w@2")
    assert E.weights == {"a@0": 0, "b@0": 0, "c@0": 0, "z@1": 0, "w@2": 3}
    assert D.weights is None


def test_cohomology_and_quasi_iso():
    S = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    A = LInftyAlgebra(S, {1: {("a",): {"b": F(1)}}})
    assert l1_cohomology(A) == {0: 0, 1: 1}
    # inclusion of <c> as a complex with zero differential
    T = GradedSpace([("h", 1)])
    C = LInftyAlgebra(T, {})
    f = LInftyMorphism.from_linear(C, A, {"h": {"c": F(1)}})
    assert check_morphism(f).ok
    assert is_quasi_iso(f) is True
    # the zero map is not a quasi-isomorphism here
    g = LInftyMorphism(C, A, {})
    assert is_quasi_iso(g) is False
    with pytest.raises(CurvedError):
        l1_cohomology(LInftyAlgebra(S, {}, l0={"b": F(1)}))


# ---------------------------------------------------------------------------
# is_quasi_iso against the induced-map oracle, on complexes in degrees 0..2

DEGREES = (0, 1, 2)
SMALL = st.integers(-2, 2).map(F)


def mat_add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


@st.composite
def complexes(draw):
    """(dims, d): dimensions 0..2 in each degree and d.d = 0 by
    construction, d in degree 1 being a random combination of the left
    null vectors of d in degree 0."""
    n = {k: draw(st.integers(0, 2)) for k in DEGREES}
    d0 = [[draw(SMALL) for _ in range(n[0])] for _ in range(n[1])]
    left = dense_oracle.nullspace([[row[j] for row in d0]
                                   for j in range(n[0])], n[1])
    mix = [[draw(SMALL) for _ in left] for _ in range(n[2])]
    d1 = dense_oracle.matmul(mix, left, n[1])
    return n, {0: d0, 1: d1}


@st.composite
def contractible(draw):
    """(dims, d) of a sum of pieces x -> y, d(x) a nonzero multiple of
    y, in degrees 0 -> 1 and 1 -> 2: an acyclic complex."""
    m0, m1 = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    s = [draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
         for _ in range(m0 + m1)]
    d0 = [[s[i] if i == j else F(0) for j in range(m0)]
          for i in range(m0 + m1)]
    d1 = [[s[m0 + i] if j == m0 + i else F(0) for j in range(m0 + m1)]
          for i in range(m1)]
    return {0: m0, 1: m0 + m1, 2: m1}, {0: d0, 1: d1}


def sum_complex(x, y):
    """The direct sum of two complexes, x first."""
    (nx, dx), (ny, dy) = x, y
    n = {k: nx[k] + ny[k] for k in DEGREES}
    d = {k: [r + [F(0)] * ny[k] for r in dx[k]]
         + [[F(0)] * nx[k] + r for r in dy[k]] for k in dx}
    return n, d


@st.composite
def chain_maps(draw):
    """(dims_a, d_a, dims_b, d_b, f) with A = C + P, B = C + Q for
    random complexes C, P, Q (P and Q acyclic or not) and f = c id_C +
    d_B h + h d_A for a random scalar c and a random h of degree -1: a
    chain map by construction, a quasi-isomorphism or not."""
    C = draw(complexes())
    na, da = sum_complex(C, draw(st.one_of(contractible(), complexes())))
    nb, db = sum_complex(C, draw(st.one_of(contractible(), complexes())))
    c = F(draw(st.sampled_from([0, 1, -1, 2])))
    h = {k: [[draw(SMALL) for _ in range(na[k])] for _ in range(nb[k - 1])]
         for k in (1, 2)}
    f = {}
    for k in DEGREES:
        fk = [[c if i == j and i < C[0][k] else F(0)
               for j in range(na[k])] for i in range(nb[k])]
        if k - 1 in db:
            fk = mat_add(fk, dense_oracle.matmul(db[k - 1], h[k], na[k]))
        if k + 1 in h:
            fk = mat_add(fk, dense_oracle.matmul(h[k + 1], da[k], na[k]))
        f[k] = fk
    return na, da, nb, db, f


def linear_morphism(na, da, nb, db, f):
    """The complexes as algebras with l_1 only (generators a<k>_<i>
    and b<k>_<i> in degree k) and f as f_1 between them."""
    def algebra(prefix, n, d):
        labs = {k: ["%s%d_%d" % (prefix, k, i) for i in range(n[k])]
                for k in DEGREES}
        ops = {(a,): {labs[k + 1][i]: m[i][j] for i in range(n[k + 1])}
               for k, m in d.items() for j, a in enumerate(labs[k])}
        space = GradedSpace([(lab, k) for k in DEGREES for lab in labs[k]])
        return LInftyAlgebra(space, {1: ops}), labs

    A, la = algebra("a", na, da)
    B, lb = algebra("b", nb, db)
    return LInftyMorphism.from_linear(A, B, {
        a: {lb[k][i]: f[k][i][j] for i in range(nb[k])}
        for k in DEGREES for j, a in enumerate(la[k])})


@settings(max_examples=200, deadline=None)
@given(chain_maps())
def test_is_quasi_iso_matches_the_induced_map_oracle(cm):
    f = linear_morphism(*cm)
    assert check_morphism(f, up_to=1).ok
    assert is_quasi_iso(f) is dense_oracle.induced_map_is_iso(*cm)


@settings(max_examples=100, deadline=None)
@given(chain_maps(), st.data())
def test_a_perturbed_map_that_is_no_chain_map_is_no_quasi_iso(cm, data):
    """Adding delta to the entry (i, j) of f in degree k breaks the
    chain relation iff column i of d_B in degree k or row j of d_A in
    degree k - 1 is nonzero."""
    na, da, nb, db, f = cm
    spots = [(k, i, j) for k in DEGREES for i in range(nb[k])
             for j in range(na[k])
             if (k in db and any(row[i] for row in db[k]))
             or (k - 1 in da and any(da[k - 1][j]))]
    assume(spots)
    k, i, j = data.draw(st.sampled_from(spots))
    f = {**f, k: [list(row) for row in f[k]]}
    f[k][i][j] += data.draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
    g = linear_morphism(na, da, nb, db, f)
    assert not check_morphism(g, up_to=1).ok
    assert is_quasi_iso(g) is False


def pair_and_pincer():
    pair = LInftyAlgebra(GradedSpace([("a", 0), ("b", 1)]),
                         {1: {("a",): {"b": F(1)}},
                          2: {("a", "a"): {"b": F(1)}}}, arity_cap=4)
    pincer = LInftyAlgebra(GradedSpace([("u", -1), ("x1", 0), ("x2", 0),
                                        ("y", 1)]),
                           {1: {("u",): {"x1": F(1), "x2": F(-1)},
                                ("x1",): {"y": F(1)},
                                ("x2",): {"y": F(1)}}}, arity_cap=4)
    return pair, pincer


def test_delta1_reaches_words_where_the_map_vanishes():
    """delta1(g) is evaluated on every word, not only where g is set:
    on the acyclic pair, g = (b -> b) gives delta1(g)(a) = -g(l1 a)."""
    pair, _ = pair_and_pincer()
    assert delta1(pair, pair, {("b",): {"b": F(1)}}, 1) \
        == {("a",): {"b": F(-1)}}


def test_delta1_matches_coalgebra_picture():
    """delta1(g) = l1' g - g hat(l1) for degree-0 maps g on arity-m
    words, with hat(l1) read off the coderivation of the l1 part; the
    solver, which reads the same rows, inverts it on its image."""
    rng = random.Random(5)
    pair, pincer = pair_and_pincer()
    tails = 0
    for A, B in ((pair, pair), (pincer, pincer), (pincer, pair)):
        hat = codifferential_hat(chain_complex(A.space, l1_map(A)), cap=2)
        words = {word_label(w): w for k in (1, 2)
                 for w in sym_words(A.space, k)}
        for m in (1, 2):
            g = {}
            for w in sym_words(A.space, m):
                for b in B.space.basis_in_degree(word_degree(A.space, w)):
                    c = rng.choice([0, 1, -2])
                    if c:
                        g.setdefault(w, {})[b] = F(c)
            want = {}
            for w in sym_words(A.space, m):
                val = B.op_elems(1, [g.get(w, {})])
                for (src, tgt), c in hat.entries.items():
                    if words[src] == w and words[tgt] in g:
                        tails += 1
                        vec_acc(val, g[words[tgt]], -c)
                if val:
                    want[w] = val
            got = delta1(A, B, g, m)
            assert got == want
            sol = solve_delta1(A, B, got, m)
            assert sol is not None and delta1(A, B, sol, m) == got
    assert tails > 0


def test_obstruction_normalization_identity():
    """Derived oracle: the arity-(K+1) morphism residual equals
    O_{K+1}(f) - delta1(f_{K+1}) for arbitrary components."""
    rng = random.Random(7)
    nontrivial = 0
    for _ in range(8):
        A = rand_algebra(rng, S3)
        B = rand_algebra(rng, S3)
        try:
            f = LInftyMorphism(A, B, rand_components(rng, S3), arity_cap=4)
        except ValueError:
            continue
        K = 2
        O = obstruction_cocycle(f, K)
        fK1 = {w: f.comp_word(K + 1, w) for w in sym_words(S3, K + 1)}
        d1 = delta1(A, B, fK1, K + 1)
        for w in sym_words(S3, K + 1):
            lhs, rhs = morphism_sides(f, w)
            res = vec_acc(lhs, rhs, -1)
            pred = vec_acc(dict(O.get(w, {})), d1.get(w, {}), -1)
            assert res == pred
            if res:
                nontrivial += 1
    assert nontrivial > 0


def test_extension_succeeds_and_verifies():
    rng = random.Random(13)
    done = 0
    while done < 3:
        A = rand_algebra(rng, S3)
        B = rand_algebra(rng, S3)
        try:
            f = LInftyMorphism(A, B, rand_components(rng, S3, arities=(1, 2)),
                               arity_cap=4)
        except ValueError:
            continue
        if not check_morphism(f, up_to=2).ok:
            continue
        ext, obc = extend_morphism(f, 2)
        if ext is None:
            continue
        assert check_morphism(ext, up_to=3).ok
        done += 1


FROZEN_NONEXACT = {
    # frozen from a seeded random search; the target has l1 = 0 so the
    # Hochschild differential vanishes and any nonzero cocycle obstructs
    "A_ops": {3: {("a", "a", "a"): {"b": F(1)},
                  ("a", "a", "b"): {"c": F(-1)}}},
    "B_ops": {3: {("a", "a", "a"): {"b": F(1)}}},
    "f": {1: {("a",): {"a": F(1)}, ("b",): {"b": F(-1)},
              ("c",): {"c": F(1)}},
          2: {("a", "a"): {"a": F(-1)}, ("a", "b"): {"b": F(-1)},
              ("a", "c"): {"c": F(1)}}},
}


def test_frozen_nonextendable_morphism():
    A = LInftyAlgebra(S3, FROZEN_NONEXACT["A_ops"], arity_cap=4)
    B = LInftyAlgebra(S3, FROZEN_NONEXACT["B_ops"], arity_cap=4)
    assert check_relations(A, up_to=4).ok
    assert check_relations(B, up_to=4).ok
    f = LInftyMorphism(A, B, FROZEN_NONEXACT["f"], arity_cap=4)
    assert check_morphism(f, up_to=2).ok
    obc = obstruction_class(f, 2)
    assert not obc.exact
    assert obc.cocycle
    ext, _ = extend_morphism(f, 2)
    assert ext is None


def test_non_closed_obstruction_keeps_its_residual(monkeypatch):
    """f_1 is not a chain map, so delta1(O_2) != 0: the class records
    the residual, is neither closed nor exact, and makes no solve."""
    A = LInftyAlgebra(GradedSpace([("u", -1), ("v", 0)]),
                      {1: {("u",): {"v": F(1)}}}, arity_cap=3)
    B = LInftyAlgebra(GradedSpace([("x", -1), ("y", 0), ("z", 1)]),
                      {2: {("y", "y"): {"z": F(1)}}}, arity_cap=3)
    f = LInftyMorphism(A, B, {1: {("u",): {"x": F(1)}, ("v",): {"y": F(1)}}},
                       arity_cap=3)
    assert not check_morphism(f, up_to=1).ok

    def no_solve(*args):
        raise AssertionError("solve_delta1 called on a non-closed class")
    monkeypatch.setattr("linfkit.linfty.solve_delta1", no_solve)
    obc = obstruction_class(f, 1)
    assert obc.residual == {("u", "v"): {"z": F(-1)}}
    assert not obc.closed and not obc.exact and obc.witness is None
    assert extend_morphism(f, 1)[0] is None


def test_json_roundtrip():
    A = dg_lie_triple()
    A2 = LInftyAlgebra.from_json(A.to_json())
    assert A2.ops == A.ops and A2.space == A.space
    rng = random.Random(1)
    B = rand_algebra(rng, S3)
    B2 = LInftyAlgebra.from_json(B.to_json())
    assert B2.ops == B.ops


@pytest.mark.parametrize("tables", [
    {2: {("b", "b"): {"c": F(5)}}},         # b is odd: a vanishing word
    {1: {("b",): {"a": F(1)}}},             # degree 0 out of degree 1
    {0: {(): {"b": F(1)}}},
    {"1": {("a",): {"b": F(1)}}},
    {3: {("a", "a", "a"): {"b": F(1)}}},    # above the cap 2
    {2: {("a",): {"b": F(1)}}},             # one letter in arity 2
], ids=["vanishing-word", "out-degree", "arity-0", "arity-str",
        "above-cap", "word-length"])
def test_algebra_and_morphism_read_tables_alike(tables):
    """Operations and components go through one table reader, which
    refuses the same malformed tables.  A morphism once dropped a
    nonzero value on a vanishing word silently."""
    A = LInftyAlgebra(S3, {}, arity_cap=2)
    with pytest.raises(ValueError):
        LInftyAlgebra(S3, tables, arity_cap=2)
    with pytest.raises(ValueError):
        LInftyMorphism(A, A, tables, arity_cap=2)


@pytest.mark.parametrize("cap", ["2", 2.7, 2.0, True, 0, -1])
def test_library_arity_cap_is_strict(cap):
    """An arity cap is an integer >= 1, not a bool, in the library as
    in the CLI: int() once read "2" and 2.7 as cap 2, and True as 1."""
    A = dg_lie_triple()
    doc = A.to_json()
    doc["arity_cap"] = cap
    with pytest.raises(ValueError, match="arity_cap"):
        LInftyAlgebra.from_json(doc)
    with pytest.raises(ValueError, match="arity_cap"):
        LInftyAlgebra(A.space, {}, arity_cap=cap)
    with pytest.raises(ValueError, match="arity_cap"):
        LInftyMorphism(A, A, {}, arity_cap=cap)
    with pytest.raises(ValueError, match="arity_cap"):
        LInftyMorphism.from_json({"comps": [], "arity_cap": cap}, A, A, "f")
    assert LInftyMorphism.from_json({"comps": []}, A, A, "f").arity_cap \
        == A.arity_cap


# ---------------------------------------------------------------------------
# int-first tables: a structure constant is stored as an int while it is
# integral and as a Fraction only when it is not


VALUES = [1, -1, 2, F(1, 2), F(-3, 2), F(5, 4)]


def draw_tables(draw, space, shift):
    """{k: {word: element}} for k = 1, 2, 3, values in degree |word| +
    shift drawn from VALUES.  Some words come twice, once reversed, so
    that their entries add up on the canonical word (1/2 + 1/2 is an
    integral Fraction)."""
    tables = {}
    for k in (1, 2, 3):
        tab = {}
        for w in sym_words(space, k):
            outs = space.basis_in_degree(word_degree(space, w) + shift)
            if outs and draw(st.booleans()):
                b = draw(st.sampled_from(outs))
                tab[w] = {b: draw(st.sampled_from(VALUES))}
                if w[::-1] != w and draw(st.booleans()):
                    tab[w[::-1]] = {b: draw(st.sampled_from(VALUES))}
        tables[k] = tab
    return tables


def retype(tables, form, rng):
    """The tables with every value an int where integral ("int"), a
    Fraction ("fraction"), or either at random ("mixed")."""
    def one(c):
        c = F(c)
        if form == "fraction" or (form == "mixed" and rng.random() < 0.5):
            return c
        return c.numerator if c.denominator == 1 else c
    return {k: {w: {b: one(c) for b, c in v.items()} for w, v in t.items()}
            for k, t in tables.items()}


def stored_values(A, f, d):
    return ([c for t in A.ops.values() for v in t.values()
             for c in v.values()] + list(A.l0.values())
            + [c for t in f.comps.values() for v in t.values()
               for c in v.values()]
            + [c for v in d.images.values() for c in v.values()])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tables_are_int_first_whatever_the_input_types(data):
    """An algebra, a morphism and a graded map built from int, Fraction
    and mixed coefficients store equal tables, and every stored value
    is an int or a non-integral Fraction."""
    space = data.draw(spaces())
    ops = draw_tables(data.draw, space, 1)
    comps = draw_tables(data.draw, space, 0)
    odd = space.basis_in_degree(1)
    if odd:
        ops[0] = {(): {odd[0]: data.draw(st.sampled_from(VALUES))}}
    rng = data.draw(st.randoms(use_true_random=False))
    built = []
    for form in ("int", "fraction", "mixed"):
        typed = retype(ops, form, rng)
        l0 = typed.pop(0, {}).get((), {})
        A = LInftyAlgebra(space, typed, l0=l0, arity_cap=3)
        f = LInftyMorphism(A, A, retype(comps, form, rng))
        d = GradedMap(space, space, 1,
                      {a: v for (a,), v in typed[1].items()})
        assert all(is_int_first(c) for c in stored_values(A, f, d))
        built.append((A.ops, A.l0, f.comps, d.images))
    assert built[0] == built[1] == built[2]


def fraction_algebra(A):
    """A copy of A whose structure constants are all Fractions: the
    tables as they were stored before int-first storage."""
    B = copy.copy(A)
    B.ops = {k: {w: {b: F(c) for b, c in v.items()} for w, v in t.items()}
             for k, t in A.ops.items()}
    B.l0 = {b: F(c) for b, c in A.l0.items()}
    return B


def fraction_morphism(f):
    g = copy.copy(f)
    g.source, g.target = fraction_algebra(f.source), fraction_algebra(f.target)
    g.comps = {k: {w: {b: F(c) for b, c in v.items()} for w, v in t.items()}
               for k, t in f.comps.items()}
    return g


def agree_with_oracle(rep, want):
    """A check report agrees with the oracle's (failures, checked), and
    its residuals leave as Fractions."""
    assert (rep.failures, rep.checked) == want
    assert rep.ok == (not want[0])
    for _, res in rep.failures:
        assert all(type(c) is F for c in res.values())


def half_triple():
    """The dg Lie triple with l2(a, b) = c / 2: a non-integral structure
    constant."""
    S = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    return LInftyAlgebra(S, {2: {("a", "b"): {"c": F(1, 2)}}})


def half_chain():
    """x -> y -> z with d = 1/2 then 2: l1 l1 x = z, an integral
    residual of non-integral constants."""
    S = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    return LInftyAlgebra(S, {1: {("x",): {"y": F(1, 2)},
                                 ("y",): {"z": 2}}})


def test_checks_on_a_half_constant_agree_with_the_oracle():
    A = half_triple()
    assert type(A.ops[2][("a", "b")]["c"]) is F
    cases = [
        (A, True),
        (half_chain(), False),
        # f1 = diag(2, 1/2, 1) is a morphism, f1 = id / 2 is not
        (LInftyMorphism(A, A, {1: {("a",): {"a": 2}, ("b",): {"b": F(1, 2)},
                                   ("c",): {"c": 1}}}), True),
        (LInftyMorphism(A, A, {1: {(a,): {a: F(1, 2)}
                                   for a in A.space.labels}}), False),
    ]
    for x, ok in cases:
        if isinstance(x, LInftyAlgebra):
            rep = check_relations(x)
            want = term_oracle.check_relations(fraction_algebra(x))
        else:
            rep = check_morphism(x)
            want = term_oracle.check_morphism(fraction_morphism(x))
        assert rep.ok == ok
        agree_with_oracle(rep, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_checks_agree_with_the_oracle_on_fraction_tables(data):
    """check_relations and check_morphism on int-first tables give the
    verdicts, checked counts and failures of the unpruned oracle on
    all-Fraction copies: on drawn algebras and morphisms, which mostly
    fail, and on the identity of each drawn algebra, which passes."""
    f = data.draw(morphisms())
    agree_with_oracle(check_relations(f.source),
                      term_oracle.check_relations(fraction_algebra(
                          f.source)))
    agree_with_oracle(check_morphism(f),
                      term_oracle.check_morphism(fraction_morphism(f)))
    ident = LInftyMorphism.identity(f.source)
    rep = check_morphism(ident)
    assert rep.ok
    agree_with_oracle(rep, term_oracle.check_morphism(
        fraction_morphism(ident)))
