import inspect
import math

import numpy as np
import pytest

from torusflow import axes
from torusflow.axes import (check_foliation, find_minimal_axis, flatness_test,
                            grid_shortest_class_length, line_deviation,
                            shoot_closed_geodesic)
from torusflow.errors import ValidationError
from torusflow.shortening import evolve

# closed-form lengths of the two short liouville axes, from one-dimensional
# quadrature of the separated metric along the coordinate circles
LIOUVILLE_AXIS_LENGTH = {(1, 0): 0.8862896010071855, (0, 1): 0.8323066247111648}


def test_class_frame_rejects_zero(flat):
    with pytest.raises(ValidationError):
        find_minimal_axis(flat, (0, 0))


def test_shoot_flat_horizontal(flat):
    axis = shoot_closed_geodesic(flat, (1, 0), (0.0, 0.3), 0.0, 1.0)
    assert axis.length == pytest.approx(1.0, abs=1e-10)
    assert axis.closing_residual < 1e-10
    assert axis.deck == (1, 0)
    assert np.allclose(axis.nodes[:, 1], 0.3, atol=1e-12)


def test_minimal_axis_flat_diagonal(flat):
    axis = find_minimal_axis(flat, (1, 1), n=128, n_offsets=3)
    assert axis.length == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert line_deviation(axis) < 1e-8


def test_minimal_axis_liouville_short_classes(liouville):
    for klass, ref in LIOUVILLE_AXIS_LENGTH.items():
        axis = find_minimal_axis(liouville, klass, n=128, n_offsets=3)
        assert axis.length == pytest.approx(ref, rel=1e-4)
        assert axis.closing_residual < 1e-5


def test_basin_stop_reaches_liouville_closed_form(liouville):
    for klass, ref in LIOUVILLE_AXIS_LENGTH.items():
        axis = find_minimal_axis(liouville, klass)
        assert axis.length == pytest.approx(ref, rel=1e-10)
        assert axis.closing_residual < 1e-9


@pytest.mark.parametrize("klass", [(1, 0), (1, 1)])
def test_basin_stop_matches_full_flow(bump, klass, monkeypatch):
    fast = find_minimal_axis(bump, klass)
    # the slow path: the same search with the flow run to its own tolerance
    monkeypatch.setattr(axes, "_BASIN_K_TOL",
                        inspect.signature(evolve).parameters["k_tol"].default)
    slow = find_minimal_axis(bump, klass)
    assert fast.length == pytest.approx(slow.length, rel=1e-10)
    assert fast.closing_residual < 1e-9
    # same axis: the starts differ by a whole number of class periods
    gap = np.subtract(fast.start, slow.start)
    periods = round(float(gap @ klass) / float(np.dot(klass, klass)))
    assert np.abs(gap - periods * np.asarray(klass)).max() < 1e-9


def test_shooting_judges_stalled_flow_candidates(twofreq):
    # every two-frequency (1, 1) seed flow plateaus at a curvature near 0.05,
    # above the basin tolerance; the shooting still closes the shortest one.
    # (0, 1) needs the flow: shot from the straight seeds alone it closes a
    # geodesic 6.5% longer than the oracle's loop
    for klass in [(1, 1), (0, 1)]:
        axis = find_minimal_axis(twofreq, klass, certify=True)
        assert abs(axis.diagnostics["oracle_gap"]) < 0.01, klass
        assert axis.closing_residual < 1e-9, klass


def test_grid_oracle_flat(flat):
    out = grid_shortest_class_length(flat, (1, 0), n=128)
    # the straight axis is a grid path, so the oracle can only overshoot
    assert 1.0 - 1e-12 <= out["length"] <= 1.0005
    diag = grid_shortest_class_length(flat, (1, 1), n=128)
    assert math.sqrt(2.0) - 1e-12 <= diag["length"] <= math.sqrt(2.0) + 0.001


def test_certified_axis_carries_oracle_gap(flat):
    axis = find_minimal_axis(flat, (0, 1), n=128, n_offsets=3, certify=True)
    assert "grid_oracle" in axis.diagnostics
    assert abs(axis.diagnostics["oracle_gap"]) < 0.01


def test_foliation_flat_vs_liouville(flat, liouville):
    rep = check_foliation(flat, (1, 0), n_seeds=6, n=96)
    assert rep.foliated
    assert rep.n_distinct == 6
    assert rep.crossing_free
    rep = check_foliation(liouville, (1, 0), n_seeds=6, n=96)
    assert not rep.foliated
    assert rep.n_distinct < 6


def test_flatness_verdicts(flat, bump):
    rf = flatness_test(flat, grid_n=128)
    assert rf.verdict == "flat"
    assert rf.curvature_flat and not rf.witness_found
    assert abs(rf.curvature.total) < 1e-6
    rb = flatness_test(bump, grid_n=128)
    assert rb.verdict == "not flat"
    assert rb.curvature.max_abs > 1.0
    assert abs(rb.curvature.total) < 1e-6
