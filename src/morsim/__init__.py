"""Magneto-optical rotation metrology with coherent and PDC photon sources."""

from .detection import (
    FringeSeries,
    ObservableKind,
    ObservableSpec,
    VisibilityResult,
    dominant_frequency,
    evaluate,
    fringe_period,
    fringe_scan,
    min_detectable_angle,
    min_detectable_angle_error_propagation,
    nd_variance,
    visibility,
)
from .fock import (
    KetState,
    Mode,
    make_basis_state,
    normally_ordered_moment,
    projection_probability,
)
from .medium import Geometry, MediumSpec, apply_mor
from .sources import (
    SourceKind,
    SourceSpec,
    TruncationError,
    build_state,
    coherent_intensity_pair,
    collinear_state,
    mean_photon_number,
    noncollinear_state,
    select_n_max,
    truncation_tail,
)

__version__ = "0.1.0"

__all__ = [
    "FringeSeries",
    "Geometry",
    "KetState",
    "MediumSpec",
    "Mode",
    "ObservableKind",
    "ObservableSpec",
    "SourceKind",
    "SourceSpec",
    "TruncationError",
    "VisibilityResult",
    "apply_mor",
    "build_state",
    "coherent_intensity_pair",
    "collinear_state",
    "dominant_frequency",
    "evaluate",
    "fringe_period",
    "fringe_scan",
    "make_basis_state",
    "mean_photon_number",
    "min_detectable_angle",
    "min_detectable_angle_error_propagation",
    "nd_variance",
    "noncollinear_state",
    "normally_ordered_moment",
    "projection_probability",
    "select_n_max",
    "truncation_tail",
    "visibility",
]
