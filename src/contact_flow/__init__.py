"""Contact-guided flow-matching over voxel occupancy grids."""

__version__ = "0.1.0"

from .contact import ContactSet, farthest_point_sample, nearest_occupied, sample_contacts
from .decoder import DecoderParams, decode, decode_vjp, encode
from .evaluation import (
    MetricsReport,
    chamfer,
    evaluate_run,
    f_score,
    normalize_to_unit_cube,
)
from .guidance import (
    GenerationAborted,
    GuidanceConfig,
    GuidedTrajectory,
    ReferenceShape,
    attenuation,
    drag_loss,
    energy_gradient,
    guided_sample,
    make_reference,
    unguided_sample,
)
from .scenarios import Scenario, BuiltScenario, build_scenario, standard_suite, suite_scenario
from .toyflow import (
    MixtureFlowModel,
    VisibilityCondition,
    condition,
    predict_x0,
    sample_base,
    velocity,
    velocity_vjp,
)
from .voxelcore import (
    BinaryGrid,
    Box,
    Cylinder,
    LatentGrid,
    LBracket,
    OccupancyGrid,
    PointCloud,
    SphereCappedBox,
    UnionOfBoxes,
    binarize,
    extract_surface,
    load_grid,
    save_grid,
    voxelize_primitive,
)

__all__ = [name for name in dir() if not name.startswith("_")]
