"""Recoloring transformations between proper colorings of treewidth-2 graphs."""

from .bestchoice import best_choice_recoloring
from .chordalize import (
    MergeMap,
    PER_VERTEX_CHORDAL_BOUND,
    PER_VERTEX_PIPELINE_BOUND,
    lift_sequence,
    merge_same_colored,
    pipeline_theorem,
    two_phase_transform,
)
from .decomposition import (
    degeneracy_order,
    is_perfect_elimination,
    later_neighbors,
    mcs_order,
)
from .errors import (
    AuditViolation,
    ImproperStart,
    ImproperStep,
    InvalidColoring,
    InvalidInput,
    InvalidSize,
    LiftFailure,
    NoOpStep,
    NotEnoughColors,
    NotWidth2,
    OmegaTooLarge,
    RecolorError,
    TooLarge,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    run_experiments,
    write_csv,
)
from .graphs import (
    Coloring,
    EliminationOrdering,
    Graph,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    greedy_coloring,
    is_proper,
    random_proper_coloring,
)
from .oracle import (
    DEFAULT_STATE_CAP,
    bfs_distance,
    proper_coloring_count,
    reconfig_connected,
    reconfig_diameter,
)
from .sequences import (
    AuditReport,
    RecoloringSequence,
    audit_best_choice,
    verify_sequence,
)

__version__ = "0.1.0"
