"""Exact invariants of dihedral group actions on rank-2 free metabelian
associative and Lie algebras: rational coefficients throughout, with a
cyclotomic field only where a rotation scales by a root of unity."""

from .assoc import MetAssocElem, basis, commutator, from_word
from .cyclo import CycNum, cyclotomic_polynomial, euler_phi, imag_unit, root_of_unity
from .dihedral import (
    DihedralElement,
    act_assoc,
    act_lie,
    act_tensor,
    act_uv,
    group_elements,
    reynolds_assoc,
    reynolds_lie,
    reynolds_uv,
)
from .expr import ExprSyntaxError, eval_assoc, parse, print_elem, to_xy
from .invariants import (
    CstReport,
    DegreeReport,
    MinimalityReport,
    comm_module_generators,
    corner_generator_relation,
    cst_sanity,
    cuv_module_generators,
    hilbert_assoc,
    hilbert_cuv,
    hilbert_lie,
    invariant_basis_assoc,
    invariant_basis_lie,
    invariant_generators_assoc,
    lie_module_generator,
    lie_suite,
    minimality_check,
    module_span_check,
    subalgebra_filtration,
)
from .lie import MetLieElem, bracket, embed_assoc
from .poly import CommPoly, RationalSeries

__version__ = "0.1.0"
