"""Point-to-plane rigid registration with closed-form transform gradients.

The forward path solves the classic linearized point-to-plane system and
accumulates small transforms; the backward path differentiates the solved
transform with respect to every per-pair input through the minimality
condition of the energy in the forward's own 6-dof step chart, so gradient
cost does not grow with the number of accumulation rounds.
"""

from .cloud import PointCloud, RegistrationPair
from .correspond import (
    CorrespondenceSet,
    gumbel_hard_weights,
    match_matrix,
    nn_correspond,
    reliability_weights,
    soft_pointers,
    topk_keypoints,
)
from .fileio import ParseError, load, load_scores_csv, load_transform, save, save_transform
from .geometry import (
    RigidTransform,
    apply_transform,
    compose,
    from_gvector,
    log_rotation,
    rodrigues,
    skew,
    to_gvector,
)
from .gradcheck import FDConfig, GradErrorReport, compare, fd_bundle
from .gradient import (
    GradientBundle,
    SingularHessian,
    backward,
    chain_loss,
    cross_derivs,
    hessian,
    penalty,
    rigid_motion_loss,
)
from .metrics import batch_stats, chamfer, rotation_errors
from .solver import (
    DegenerateConfiguration,
    SingularSystem,
    SolveReport,
    energy,
    icp,
    register_p2pl,
    register_procrustes,
)
from .synth import InsufficientPoints, SynthConfig, estimate_normals, make_cpu_pair, synth_shape

__version__ = "0.1.0"

__all__ = [
    "PointCloud",
    "RegistrationPair",
    "CorrespondenceSet",
    "RigidTransform",
    "SolveReport",
    "GradientBundle",
    "FDConfig",
    "GradErrorReport",
    "SynthConfig",
    "ParseError",
    "InsufficientPoints",
    "SingularSystem",
    "SingularHessian",
    "DegenerateConfiguration",
    "skew",
    "rodrigues",
    "log_rotation",
    "compose",
    "apply_transform",
    "to_gvector",
    "from_gvector",
    "load",
    "save",
    "load_transform",
    "save_transform",
    "synth_shape",
    "make_cpu_pair",
    "estimate_normals",
    "nn_correspond",
    "soft_pointers",
    "match_matrix",
    "gumbel_hard_weights",
    "reliability_weights",
    "topk_keypoints",
    "load_scores_csv",
    "energy",
    "register_p2pl",
    "register_procrustes",
    "icp",
    "penalty",
    "hessian",
    "cross_derivs",
    "backward",
    "chain_loss",
    "rigid_motion_loss",
    "fd_bundle",
    "compare",
    "rotation_errors",
    "batch_stats",
    "chamfer",
]
