"""Closed-form evaluators for every measured quantity of the model.

Used as independent test oracles and as the CLI "exact" mode.  This module
deliberately depends on nothing but the standard library so that a defect in
the numeric Fock engine cannot leak into the reference values.

Each fringe form f(parameter, thetas) takes a whole theta grid: it computes the
factors that depend on the parameter alone once, then evaluates the same
per-angle expression, in the same association order, at every angle.
"""

from __future__ import annotations

import math


def coherent_intensity_x(alpha_sq: float, thetas) -> list[float]:
    return [alpha_sq * math.cos(theta / 2.0) ** 2 for theta in thetas]


def coherent_intensity_y(alpha_sq: float, thetas) -> list[float]:
    return [alpha_sq * math.sin(theta / 2.0) ** 2 for theta in thetas]


def coherent_nd_variance(alpha_sq: float, thetas) -> list[float]:
    return [alpha_sq * math.sin(theta) ** 2 for theta in thetas]


def collinear_two_photon(r: float, thetas) -> list[float]:
    s, c = math.sinh(r), math.cosh(r)
    s4 = s**4
    return [math.cos(theta) ** 2 * s * s * c * c + s4 for theta in thetas]


def collinear_nd_variance(r: float, thetas) -> list[float]:
    s, c = math.sinh(r), math.cosh(r)
    scale = 4.0 * s * s * c * c
    return [scale * math.sin(theta) ** 2 for theta in thetas]


def noncollinear_four_photon_probability(r: float, thetas) -> list[float]:
    t, c = math.tanh(r), math.cosh(r)
    scale = t**4 / c**4
    return [scale * math.cos(2.0 * theta) ** 2 for theta in thetas]


def collinear_four_photon_probability(r: float, thetas) -> list[float]:
    t, c = math.tanh(r), math.cosh(r)
    scale = t**4 / (c * c)
    return [scale * (1.0 + 3.0 * math.cos(2.0 * theta)) ** 2 / 16.0 for theta in thetas]


def collinear_four_photon_counts(r: float, thetas) -> list[float]:
    s, c = math.sinh(r), math.cosh(r)
    s4, c4, s6, last = s**4, c**4, s**6, 4.0 * s**8
    values = []
    for theta in thetas:
        g = 3.0 * math.cos(theta) ** 2
        values.append((g - 1.0) ** 2 * s4 * c4 + 4.0 * (g + 1.0) * s6 * c * c + last)
    return values


def two_photon_pair_amplitudes(theta: float) -> tuple[float, float, float]:
    """Amplitudes on (|2,0>, |0,2>, |1,1>) for an evolved |1,1> pair."""
    s = math.sin(theta) / math.sqrt(2.0)
    return (s, -s, math.cos(theta))


def two_photon_visibility_closed(r: float) -> float:
    return 1.0 / (1.0 + 2.0 * math.tanh(r) ** 2)


# (source kind, observable kind, detector mode or projection target) ->
# (closed form f(parameter, thetas) -> values, name of the source parameter it takes)
_CLOSED_FORMS = {
    ("coherent", "intensity", "AH"): (coherent_intensity_x, "alpha_sq"),
    ("coherent", "intensity", "AV"): (coherent_intensity_y, "alpha_sq"),
    ("coherent", "nd_variance", None): (coherent_nd_variance, "alpha_sq"),
    ("collinear_pdc", "two_photon_coincidence", None): (collinear_two_photon, "r"),
    ("collinear_pdc", "four_photon_glauber", None): (collinear_four_photon_counts, "r"),
    ("collinear_pdc", "nd_variance", None): (collinear_nd_variance, "r"),
    ("collinear_pdc", "four_photon_projection", (2, 2, 0, 0)):
        (collinear_four_photon_probability, "r"),
    ("noncollinear_pdc", "four_photon_projection", (1, 1, 1, 1)):
        (noncollinear_four_photon_probability, "r"),
}


def closed_form(source: str, observable: str, detail, thetas, *,
                r: float | None = None, alpha_sq: float | None = None) -> list[float]:
    """Closed-form values of one observable at each rotation angle in ``thetas``.

    ``source`` and ``observable`` are the kind names (e.g. "collinear_pdc",
    "two_photon_coincidence"); ``detail`` is the detector mode name ("AH",
    "AV") for intensities, the target occupation tuple for projections and
    None otherwise.  PDC forms take the interaction parameter ``r``, coherent
    forms the squared amplitude ``alpha_sq``.
    """
    entry = _CLOSED_FORMS.get((source, observable, detail))
    if entry is None:
        where = "" if detail is None else f" detail={detail}"
        # coherent light is never expanded in the Fock basis: the table is all it has
        hint = ("coherent light is modelled by its closed forms only" if source == "coherent"
                else "use the numeric engine")
        raise ValueError(f"no closed form for source={source} observable={observable}"
                         f"{where}; {hint}")
    fn, parameter = entry
    value = r if parameter == "r" else alpha_sq
    if value is None:
        raise ValueError(f"closed form for {source} {observable} requires {parameter}")
    if parameter == "r" and value < 0:
        raise ValueError("interaction parameter r must be nonnegative")
    return fn(value, thetas)
