"""Ergodic-direction construction and certification for strip billiards
with periodic barriers, on their slit two-torus covers.

The public surface mirrors the layers of the library:

* :mod:`slittori.exact` -- exact rational / quadratic scalars;
* :mod:`slittori.words` -- integer matrices, generator words, convergents;
* :mod:`slittori.torus` -- the shear action and homology bookkeeping;
* :mod:`slittori.rational` / :mod:`slittori.irrational` -- direction builders;
* :mod:`slittori.criterion` -- hypothesis verification;
* :mod:`slittori.dimension` -- dimension lower-bound certificates;
* :mod:`slittori.flow` -- event-driven flow and billiard unfolding;
* :mod:`slittori.cli` -- the ``slittori`` command.
"""

from .exact import ExactScalar, mod_half_open, parse_scalar, scalar
from .words import (
    GenWord,
    IntMat2,
    Convergents,
    check_relations,
    H_MINUS,
    H_PLUS,
    OMEGA,
    THETA,
)
from .torus import (
    TorusPoint,
    canonical_entries,
    entries_are_identity,
    entries_fix_beta,
    in_region_E,
    involution_minus_id,
    involution_theta,
    m_sequence,
    trace_word,
)
from .directions import BlockRecord, DigitRule, DirectionSpec
from .rational import (
    RationalParam,
    block_for,
    certify_fixing,
    direction_stream,
    fixing_word,
    solve_congruences,
)
from .irrational import (
    IrrationalBlockParams,
    direction_stream_irrational,
    find_block,
)
from .criterion import CylinderStrip, VerificationReport, verify
from .dimension import (
    DimensionProblem,
    contraction_bound,
    dimension_certificate,
    solve_su,
)
from .flow import (
    BilliardState,
    CoverState,
    OrbitStats,
    SurfaceModel,
    billiard_to_cover,
    build_surface,
    cover_to_billiard,
    simulate,
    slope_from_spec,
)

__version__ = "0.1.0"
