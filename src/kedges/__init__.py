"""Exact-arithmetic toolkit for k-edges, halving lines, and rectilinear
crossing numbers of planar point sets, built on circular/allowable
sequences, together with the bound pipelines and extremal constructions
that go with them."""

from .rat import R
from .errors import (
    DirectionTieError,
    GeneralPositionError,
    InputError,
    KedgesError,
    PointFileError,
    RearrangementError,
    VerificationError,
)
from .geom import (
    P,
    Point,
    PointSet,
    check_general_position,
    collinear_triples,
    line_intersection,
    orientation,
    read_points,
    rotate_cw_2pi3,
    write_points,
)
from .circseq import (
    Halfperiod,
    KCenterTrace,
    Transposition,
    compute_s,
    halfperiod_from_points,
    k_center,
    read_halfperiod,
    reverse_halfperiod,
    rotate_halfperiod,
    validate_allowable,
    write_halfperiod,
)
from .edgestats import (
    CrossingReport,
    EdgeVector,
    crossings_bruteforce,
    crossings_from_edge_vector,
    edge_vector_bruteforce,
    edge_vector_from_halfperiod,
    summarize,
)
from .central import (
    Block,
    CentralReport,
    TranspositionRecord,
    blocks,
    classify,
    rearrange_essential,
    verify_central,
)

__version__ = "0.1.0"
