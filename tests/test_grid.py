import numpy as np
import pytest

from rmplab.grid import TimeGrid, default_dt


def test_grid_nodes_and_horizon():
    g = TimeGrid(dt=0.25, n_steps=8)
    assert g.n_nodes == 9
    assert g.horizon == 2.0
    np.testing.assert_allclose(g.times, 0.25 * np.arange(9))


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, n_steps=4)
    with pytest.raises(ValueError):
        TimeGrid(dt=float("inf"), n_steps=4)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, n_steps=0)


def test_subsampled_keeps_every_stride_node():
    g = TimeGrid(dt=0.1, n_steps=12)
    s = g.subsampled(4)
    assert s.n_steps == 3
    np.testing.assert_allclose(s.times, [0.0, 0.4, 0.8, 1.2])


def test_subsampled_requires_divisor_stride():
    g = TimeGrid(dt=0.1, n_steps=10)
    with pytest.raises(ValueError):
        g.subsampled(3)
    with pytest.raises(ValueError):
        g.subsampled(0)


def test_default_dt_tracks_fastest_scale():
    assert default_dt(1.0, 0.5) == pytest.approx(0.005)
    assert default_dt(4.0, 2.0) == pytest.approx(0.0025)
    # nonpositive scales are ignored rather than producing dt = 0
    assert default_dt(1.0, 0.0) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        default_dt(0.0)


def test_a_superposition_steps_by_its_shortest_correlation_time():
    # two_scale's components have tau 1.0 and 0.25: one percent of the
    # shorter is 0.0025, where the slowest component alone gave 0.01.
    from rmplab.config import config_from_dict
    from rmplab.noise import SHIPPED_GAUSSIAN_SPECS
    from rmplab.tail import b_h_grid, transition_grid

    raw = {
        "schema_version": 1,
        "model": {
            "kind": "linear", "a": 1.0,
            "multiplicative": {"kind": "ou_superposition", "components": [[1.0, 1.0], [2.0, 0.25]]},
            "additive": {"kind": "zero"},
        },
        "grid": {"t_max": 1.0},
        "ensemble": {"n_paths": 8, "master_seed": 1},
    }
    cfg = config_from_dict(raw)
    assert cfg.model.multiplicative == SHIPPED_GAUSSIAN_SPECS["two_scale"]
    assert cfg.grid.dt == 0.0025
    assert transition_grid(cfg.model, 1.0)[0].dt == 0.0025
    assert b_h_grid(cfg.model, 1.0).dt == 0.0025
    assert default_dt(1.0, *cfg.model.multiplicative.taus) == 0.0025
