"""Derived brackets by the unpruned per-arity loop, kept only as a test
oracle.

For every arity k up to k_max and every canonical word of that arity,
in the order of ``term_oracle.words``, the iterated bracket
[..[P, a1], .., ak] is read from a table holding the bracket of every
prefix, then projected and stored with the sign (-1)^k.  No word is
skipped, whether or not its prefix brackets to zero, so a word the walk
in ``linfkit.derived`` prunes wrongly shows up as a difference.  The
bracket, the projection and the generator table are shared with
linfkit; the words, the weight gain, the spill flag and the jet record
are computed here.  The property tests in test_derived.py compare
``linfkit.derived.derived_brackets`` against ``derived_brackets`` here.
"""

from fractions import Fraction

from linfkit.derived import JetVAlgebra, schouten
from linfkit.gradedlin import GradedSpace, vec_scale
from linfkit.linfty import JetRecord, LInftyAlgebra

import term_oracle


def prefix_brackets(P, gen, bracket):
    """word -> [..[P, a1], .., ak], each prefix bracketed once."""
    prefix = {(): dict(P)}

    def bval(word):
        if word not in prefix:
            prefix[word] = bracket(bval(word[:-1]), gen(word[-1]))
        return prefix[word]

    return bval


def tables(space, k_max, value):
    """{k: {word: (-1)^k value(word)}} over every canonical word of
    arity 1..k_max, without the arities whose table is empty."""
    ops = {}
    for k in range(1, k_max + 1):
        tab = {}
        for word in term_oracle.words(space, k):
            out = value(word)
            if out:
                tab[word] = vec_scale((-1) ** k, out)
        if tab:
            ops[k] = tab
    return ops


def derived_brackets(V, k_max):
    if isinstance(V, JetVAlgebra):
        return jet_derived_brackets(V, k_max)
    space = GradedSpace([(a, V.h.space.deg[a]) for a in V.a_labels])
    bval = prefix_brackets(V.P, lambda a: {a: Fraction(1)},
                           V.h.bracket_elems)
    ops = tables(space, k_max, lambda word: V.pi_elem(bval(word)))
    return LInftyAlgebra(space, ops, l0=V.pi_elem(V.P), arity_cap=k_max)


def jet_derived_brackets(V, k_max):
    model = V.model
    space = model.a_space()
    weights = {lab: sum(e) for (e, _), lab in model.gens.items()}
    bval = prefix_brackets(V.P, model.label_to_mv, schouten)
    spilled = False
    gain = 0

    def value(word):
        nonlocal spilled, gain
        exact = model.pi(bval(word))
        coeffs, sp = model.elem_to_coeffs(exact)
        spilled = spilled or sp
        for e, _ in exact:
            out_w = sum(e[i] for i in model.base_idxs)
            gain = max(gain, out_w - sum(weights[x] for x in word))
        return coeffs

    ops = tables(space, k_max, value)
    l0, sp = model.elem_to_coeffs(model.pi(V.P))
    spilled = spilled or sp
    coords = tuple(model.ring.names[i] for i in model.base_idxs)
    jet = JetRecord(coords, model.base_cap,
                    tuple(n for n in coords if n.startswith("q")), gain,
                    model.base_cap - 2 * gain if spilled else None)
    return LInftyAlgebra(space, ops, l0=l0, arity_cap=k_max,
                         weights=weights, jet=jet)
