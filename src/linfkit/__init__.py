"""Exact-arithmetic computer algebra for L-infinity[1]-algebras and their
homotopy theory.

Subpackages:

- gradedlin: graded vector spaces, sparse rational maps, Koszul signs,
  unshuffles, symmetric words, cohomology by exact rank.
- linfty: L-infinity[1]-algebras and morphisms at arity truncation,
  coalgebra lifts, obstruction classes, quasi-isomorphism tests.
- simplexmodel: polynomial differential forms on simplices, models of
  Delta^n x C, homotopies of morphisms.
- htpy: constructive homotopy theory (Whitehead inverses, n-homotopy
  filling, model morphisms over a map).
- derived: jet rings and the generator-label codec, V-algebras and
  derived brackets, jet multivector models, localized V-algebras.
- koszul: Koszul and foliation de Rham complexes, local algebras,
  Poincare primitives, embedding checks.
- atlas: toy Kuranishi atlases, hypercoverings, higher cocycle data.
- cli: batch verification front end.
"""

__version__ = "0.1.0"
