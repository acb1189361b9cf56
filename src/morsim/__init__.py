"""Magneto-optical rotation metrology with coherent and PDC photon sources."""

from .detection import (
    FringeSeries,
    ObservableKind,
    ObservableSpec,
    closed_form_scan,
    dominant_frequency,
    evaluate,
    fringe_scan,
    min_detectable_angle,
    sensitivity_curve,
    visibility,
)
from .fock import (
    KetState,
    Mode,
    make_basis_state,
)
from .medium import MediumSpec, apply_mor
from .sources import (
    SourceKind,
    SourceSpec,
    TruncationError,
    build_state,
    mean_photon_number,
    select_n_max,
    truncation_tail,
)

__version__ = "0.1.0"

__all__ = [
    "FringeSeries",
    "KetState",
    "MediumSpec",
    "Mode",
    "ObservableKind",
    "ObservableSpec",
    "SourceKind",
    "SourceSpec",
    "TruncationError",
    "apply_mor",
    "build_state",
    "closed_form_scan",
    "dominant_frequency",
    "evaluate",
    "fringe_scan",
    "make_basis_state",
    "mean_photon_number",
    "min_detectable_angle",
    "select_n_max",
    "sensitivity_curve",
    "truncation_tail",
    "visibility",
]
