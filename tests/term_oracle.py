"""The L-infinity[1] term sums without any pruning, kept only as a test
oracle.

Every relation, composition and coalgebra map here is summed over every
unshuffle, every set partition and every canonical word; words above a
weight cap are filtered out of the full word list afterwards.  Nothing
is skipped by arity or by weight, so a term the engine in
``linfkit.linfty`` prunes wrongly shows up as a difference.  Words,
set partitions, Koszul signs and word expansion are enumerated here
independently, and every word a letter is inserted into is sorted again
by ``canonical_word``; only the structure-constant lookups
(``op_word``, ``comp_word``, ``op_elems``, ``comp_elems``) and
``canonical_word`` are shared with linfkit.  The property tests in
test_term_kernel.py compare the engine against these routines.
"""

from itertools import combinations, combinations_with_replacement, product

from linfkit.gradedlin import canonical_word, vec_acc
from linfkit.linfty import word_label


def words(space, k):
    """Every nonzero canonical word of arity k, in index order."""
    return [w for w in combinations_with_replacement(space.labels, k)
            if not any(a == b and space.deg[a] % 2 for a, b in zip(w, w[1:]))]


def words_within(space, k, weights, weight_cap):
    """words(space, k) with the words of weight above the cap removed;
    without weights every word weighs 0."""
    if weight_cap is None:
        return words(space, k)
    weights = weights or {}
    return [w for w in words(space, k)
            if sum(weights.get(l, 0) for l in w) <= weight_cap]


def set_partitions(k):
    """Every set partition of range(k): blocks as increasing tuples,
    ordered by first element."""
    if k == 0:
        return [[]]
    out = []
    for part in set_partitions(k - 1):
        for i in range(len(part)):
            out.append(part[:i] + [part[i] + (k - 1,)] + part[i + 1:])
        out.append(part + [(k - 1,)])
    return out


def regroup_sign(space, word, perm):
    """Koszul sign of the word reordered to (word[p] for p in perm)."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and space.deg[word[perm[a]]] % 2 \
                    and space.deg[word[perm[b]]] % 2:
                sign = -sign
    return sign


def expand(space, elems):
    """The product of elements expanded into canonical words."""
    out = {}
    for terms in product(*[sorted(e.items()) for e in elems]):
        cw, c = canonical_word(space, [b for b, _ in terms])
        if cw is not None:
            for _, x in terms:
                c *= x
            vec_acc(out, {cw: c})
    return out


def insertion(A, word, outer, lo=0, hi=None):
    """The sum over lo <= i <= hi and every (i, k-i)-unshuffle (b1, b2)
    of sign * outer(k - i + 1, (l_i(word|b1),) + word|b2)."""
    k = len(word)
    hi = k if hi is None else min(hi, k)
    acc = {}
    for i in range(lo, hi + 1):
        for b1 in combinations(range(k), i):
            b2 = tuple(p for p in range(k) if p not in b1)
            sgn = regroup_sign(A.space, word, b1 + b2)
            rest = tuple(word[p] for p in b2)
            for g, c in A.op_word(i, tuple(word[p] for p in b1)).items():
                vec_acc(acc, outer(k - i + 1, (g,) + rest), sgn * c)
    return acc


def partition(f, word, outer, counts=None):
    """The sum over every set partition of the word into blocks B_1,
    ..., B_t (t in counts, default all) of
    sign * outer(t, [f(B_1), ..., f(B_t)])."""
    acc = {}
    for part in set_partitions(len(word)):
        if counts is not None and len(part) not in counts:
            continue
        perm = tuple(p for b in part for p in b)
        args = [f.comp_word(len(b), tuple(word[p] for p in b)) for b in part]
        vec_acc(acc, outer(len(part), args),
                regroup_sign(f.source.space, word, perm))
    return acc


def check_relations(A, up_to=None, weight_cap=None):
    """(failures, checked) of the quadratic relations."""
    up_to = min(up_to or A.arity_cap, A.arity_cap)
    failures, checked = [], 0
    for k in range(up_to + 1):
        for w in words_within(A.space, k, A.weights, weight_cap):
            checked += 1
            res = insertion(A, w, A.op_word)
            if res:
                failures.append((w, res))
    return failures, checked


def check_morphism(f, up_to=None, weight_cap=None):
    """(failures, checked) of the morphism relation."""
    up_to = min(up_to or f.arity_cap, f.arity_cap)
    failures, checked = [], 0
    for k in range(up_to + 1):
        if k == 0 and f.source.is_strict and f.target.is_strict:
            continue
        for w in words_within(f.source.space, k, f.source.weights,
                              weight_cap):
            checked += 1
            res = insertion(f.source, w, f.comp_word)
            vec_acc(res, partition(f, w, f.target.op_elems), -1)
            if res:
                failures.append((w, res))
    return failures, checked


def compose(g, f):
    """The components {k: {word: element}} of g after f."""
    comps = {}
    for k in range(1, min(f.arity_cap, g.arity_cap) + 1):
        tab = {}
        for w in words(f.source.space, k):
            out = partition(f, w, g.comp_elems)
            if out:
                tab[w] = out
        if tab:
            comps[k] = tab
    return comps


def hat_morphism(f, cap):
    """The entries of the coalgebra-morphism extension of f on words of
    arity 1..cap."""
    entries = {}
    for k in range(1, cap + 1):
        for w in words(f.source.space, k):
            out = partition(f, w,
                            lambda t, args: expand(f.target.space, args),
                            range(1, cap + 1))
            for cw, c in out.items():
                entries[(word_label(w), word_label(cw))] = c
    return entries


def delta_word(space, word):
    """The comultiplication of a canonical word: a term (w1, w2, sign)
    for every (i, k-i)-unshuffle with 0 < i < k, signed by the Koszul
    sign of the split."""
    k = len(word)
    out = []
    for i in range(1, k):
        for b1 in combinations(range(k), i):
            b2 = tuple(p for p in range(k) if p not in b1)
            out.append((tuple(word[p] for p in b1),
                        tuple(word[p] for p in b2),
                        regroup_sign(space, word, b1 + b2)))
    return out


def codifferential_words(A, cap, include_empty=False):
    """The entries {(source word, target word): coeff} of the
    coderivation extension of A's operations on words of arity (0 or
    1)..cap, words above the cap dropped."""
    def new_word(n, w):
        if n > cap:
            return {}
        cw, sgn = canonical_word(A.space, w)
        return {} if cw is None else {cw: sgn}

    entries = {}
    for k in range(0 if include_empty else 1, cap + 1):
        for w in words(A.space, k):
            for cw, c in insertion(A, w, new_word).items():
                entries[(w, cw)] = c
    return entries


def codifferential(A, cap, include_empty=False):
    """codifferential_words with each word written as its hat-space
    label."""
    return {(word_label(w), word_label(cw)): c for (w, cw), c
            in codifferential_words(A, cap, include_empty).items()}


def compose_entries(g, f):
    """The nonzero entries of g after f, both maps given by their
    entries {(source, target): coeff}."""
    by_source = {}
    for (a, b), c in g.items():
        by_source.setdefault(a, []).append((b, c))
    out = {}
    for (a, b), c in f.items():
        for t, x in by_source.get(b, ()):
            out[(a, t)] = out.get((a, t), 0) + c * x
    return {key: c for key, c in out.items() if c}


def codifferential_square(A, cap, include_empty=False):
    """The nonzero entries {(source word, target word): coeff} of the
    square of codifferential_words(A, cap, include_empty)."""
    d = codifferential_words(A, cap, include_empty)
    return compose_entries(d, d)


def delta1(A, B, g, m, shift=0):
    """delta1(g) = l'_1 . g + (-1)^(shift + 1) g . hat l_1 on every
    arity-m word, nonzero values only; g: {canonical word: element}."""
    def g_on(n, w):
        cw, sgn = canonical_word(A.space, w)
        return {b: sgn * c for b, c in g.get(cw, {}).items()}

    tail = 1 if shift % 2 else -1
    out = {}
    for w in words(A.space, m):
        val = {}
        for b, c in g.get(w, {}).items():
            vec_acc(val, B.op_word(1, (b,)), c)
        vec_acc(val, insertion(A, w, g_on, 1, 1), tail)
        if val:
            out[w] = val
    return out


def obstruction_cocycle(f, K):
    """O_{K+1}(f): insertions of l_{i >= 2} minus the partitions into
    at least two blocks, on every arity-(K+1) word."""
    out = {}
    for w in words(f.source.space, K + 1):
        val = insertion(f.source, w, f.comp_word, 2, K + 1)
        vec_acc(val, partition(f, w, f.target.op_elems, range(2, K + 2)), -1)
        if val:
            out[w] = val
    return out
