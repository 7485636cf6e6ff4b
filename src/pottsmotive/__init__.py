"""Exact multivariate Tutte (Potts partition) polynomials of multigraphs,
Grothendieck classes of their hypersurface complements as polynomials in the
torus class T, the edge splitting and doubling class recursions with family
closed forms, motivic evaluations, and a finite-field point-counting oracle
that independently verifies every class formula."""

from .classpoly import ONE, T, ZERO, ClassPoly, RationalClass
from .errors import (
    EdgeNotFoundError,
    ExactDivisionError,
    InvalidArgumentError,
    InvalidParameterError,
    NotPolynomialCountError,
    PottsError,
    ResourceLimitError,
)
from .grothendieck import (
    DoubleSeeds,
    SplitSeeds,
    banana_class,
    banana_class_fixed_q,
    chain_banana_class_fixed_q,
    chain_polygon_class_fixed_q,
    delcon_identity_check,
    disjoint_union_class,
    double_closed_form,
    double_step,
    fibration_reduce,
    graph_class,
    join_transform,
    polygon_class,
    polygon_class_fixed_q,
    residual_class_from_seeds,
    split_closed_form,
    split_closed_term,
    split_recursion,
    split_step,
)
from .motivic import (
    chi_c_chain_bananas,
    chi_c_chain_polygons,
    chi_c_real,
    chi_c_real_locus,
    chi_complex,
    decision_bound,
    e_polynomial,
    virtual_poincare,
)
from .mpoly import MPoly, Q, edge_var
from .multigraph import (
    EdgeKind,
    FamilySpec,
    MultiGraph,
    banana,
    chain_bananas,
    chain_polygons,
    disjoint_union,
    parse_edge_list,
    polygon,
)
from .pointcount import (
    CountReport,
    complement_class,
    complement_counter,
    complement_report,
    count_report,
    fixed_q_class,
    fixed_q_report,
    kernel_backend,
    locus_complement_class,
)
from .tutte import (
    connecting_split,
    doubling_residual_poly,
    forest_complement_poly,
    forest_poly,
    leading_part,
    normalized_tutte,
    reduced_leading_part,
    split_residual_poly,
    tutte_delcon,
    tutte_poly,
)

__version__ = "0.1.0"
