import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from morsim import oracles


def closed_form(source, observable, detail=None, theta=0.0, **params):
    return oracles.closed_form(source, observable, detail, [theta], **params)[0]


def test_p_non_spot_value():
    # tanh^4(1)/cosh^4(1)
    expected = math.tanh(1.0) ** 4 / math.cosh(1.0) ** 4
    got = closed_form("noncollinear_pdc", "four_photon_projection", (1, 1, 1, 1), r=1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert abs(expected - 0.059339) < 1e-5


def test_p_col_spot_value():
    expected = math.tanh(1.0) ** 4 / math.cosh(1.0) ** 2
    got = closed_form("collinear_pdc", "four_photon_projection", (2, 2, 0, 0), r=1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert abs(expected - 0.141293) < 1e-5


def test_i_hhvv_vacuum_input():
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        assert closed_form("collinear_pdc", "four_photon_glauber", theta=theta, r=0.0) == 0.0


def test_projection_identity_links_p_col_and_i_hhvv_leading_term():
    # (1/16)(1 + 3 cos 2t)^2 == (3 cos^2 t - 1)^2 / 4 for all t
    for theta in np.linspace(-math.pi, math.pi, 101):
        lhs = (1.0 + 3.0 * math.cos(2.0 * theta)) ** 2 / 16.0
        rhs = (3.0 * math.cos(theta) ** 2 - 1.0) ** 2 / 4.0
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_coherent_intensities_sum_to_alpha_squared():
    for alpha in (0.5, 1.0, 2.0, 3.7):
        for theta in np.linspace(0.0, 2.0 * math.pi, 41):
            ix = closed_form("coherent", "intensity", "AH", theta, alpha_sq=alpha**2)
            iy = closed_form("coherent", "intensity", "AV", theta, alpha_sq=alpha**2)
            assert ix + iy == pytest.approx(alpha**2, rel=1e-14)


def test_two_photon_amplitudes_normalized():
    for theta in np.linspace(0.0, 2.0 * math.pi, 101):
        c, d, f = oracles.two_photon_pair_amplitudes(theta)
        assert c**2 + d**2 + f**2 == pytest.approx(1.0, abs=1e-14)
        assert c == -d


def test_vis2_closed_values():
    assert oracles.two_photon_visibility_closed(1.0) == pytest.approx(
        1.0 / (1.0 + 2.0 * math.tanh(1.0) ** 2), rel=1e-15
    )
    assert oracles.two_photon_visibility_closed(0.01) > 0.999
    # saturates toward 1/3 with strong pumping
    assert abs(oracles.two_photon_visibility_closed(3.0) - 1.0 / 3.0) < 0.01


def test_col_ihv_spot_values():
    s, c = math.sinh(0.5), math.cosh(0.5)
    assert closed_form("collinear_pdc", "two_photon_coincidence", r=0.5) == pytest.approx(
        s * s * c * c + s**4, rel=1e-14
    )
    assert closed_form("collinear_pdc", "two_photon_coincidence", theta=math.pi / 2,
                       r=0.5) == pytest.approx(s**4, rel=1e-12)


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="no closed form"):
        closed_form("no_such_source", "intensity", "AH", r=1.0)
    with pytest.raises(ValueError, match="no closed form"):
        closed_form("coherent", "two_photon_coincidence", alpha_sq=1.0)
    # projections have closed forms only for the paper's targets
    with pytest.raises(ValueError, match="no closed form"):
        closed_form("collinear_pdc", "four_photon_projection", (1, 1, 1, 1), r=1.0)


def test_missing_parameter_rejected():
    with pytest.raises(ValueError):
        closed_form("collinear_pdc", "two_photon_coincidence", theta=0.1)
    with pytest.raises(ValueError):
        closed_form("coherent", "intensity", "AH", theta=0.1, r=1.0)
    with pytest.raises(ValueError):
        closed_form("noncollinear_pdc", "four_photon_projection", (1, 1, 1, 1), r=-0.5)


def test_oracles_import_only_the_standard_library():
    # the reference values must not depend on the engine or on numpy
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            imported.append(node.module)
    assert imported
    outside = [name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"oracles.py imports outside the standard library: {outside}"
