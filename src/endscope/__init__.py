"""Deciders, estimators and certified inference for behavior-at-infinity
invariants of finitely generated groups."""

from .atoms import EndCount, PropertyAtom
from .cayley import (
    BallGraph,
    EndEstimate,
    GroupOracle,
    build_ball,
    estimate_ends,
    oracle_from_spec,
)
from .coxeter import (
    CoxeterSystem,
    artin_one_ended,
    coxeter_ends,
    is_finite_type,
)
from .errors import ContradictionError, EndscopeError
from .graph_products import (
    GraphProductSpec,
    VertexProfile,
    graph_product_ends,
    graph_product_semistable,
    raag_simply_connected_at_infinity,
)
from .graphs import (
    LabeledGraph,
    SimplicialComplex2,
    enumerate_clique_separators,
    induced_subgraph,
    is_flag,
)
from .inference import (
    Certificate,
    FactSet,
    Rule,
    builtin_rules,
    infer,
    known_groups_db,
    replay,
)
from .model import GroupRegistry, parse_document, serialize_document
from .report import analysis_report, explain, lim1_report, render_dot
from .towers import (
    AbelianTower,
    MLVerdict,
    ml_check_window,
    ml_decide_constant,
    parse_tower,
)

__version__ = "0.1.0"
