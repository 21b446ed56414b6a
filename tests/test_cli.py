import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from test_segments import box_shift_crossings
from torusflow import cli, flow, metrics, shortening


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def loads(text):
    """json.loads that rejects NaN and Infinity, as strict JSON readers do."""
    return json.loads(text, parse_constant=_no_constant)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    if out.startswith("{"):
        loads(out)      # every manifest on stdout is strict JSON
    return code, out, err


def test_gallery_lists_metrics(capsys):
    code, out, _ = run(capsys, "gallery")
    assert code == 0
    payload = loads(out)
    assert payload["metrics"][0] == "flat"
    assert payload["command"] == "gallery"
    assert len(payload["config_sha256"]) == 64


def test_gallery_describe(capsys):
    code, out, _ = run(capsys, "gallery", "--describe", "liouville", "--grid", "64")
    assert code == 0
    payload = loads(out)
    assert payload["max_abs_curvature"] > 1.0
    assert abs(payload["total_curvature"]) < 1e-6


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _integrate_rows(payload, rows):
    spec = metrics.gallery("liouville")
    traj = flow.integrate(spec, flow.unit_tangent(spec, (0.0, 0.0), 0.5), 2.0,
                          dt=0.25)
    s = flow.arclength_of(traj.t, traj.speeds(spec))
    want = np.column_stack([traj.t, traj.xy, traj.v, s])
    assert np.array_equal(_bits(rows), _bits(want))
    assert payload["arclength"] == rows[-1, 5]


def _rotation_field_rows(payload, rows):
    angles = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    assert np.array_equal(_bits(rows[:, 0]), _bits(angles))


def _csf_rows(payload, rows):
    assert np.array_equal(rows[:, 0], np.arange(1, payload["steps"] + 1))
    assert rows[-1, [1, 3, 4]].tolist() == [
        payload["t_final"], payload["length"], payload["max_curvature"]]


def _entropy_rows(payload, rows):
    grid = [[T, e] for T in (2.0, 4.0) for e in (1.25, 1.0)]
    assert rows[:, :2].tolist() == grid
    assert rows[:, 2].reshape(2, 2).tolist() == payload["counts"]


# every CSV file the CLI writes: command line, path flag, column line, and a
# check of the rows against the manifest or a direct call
CSV_FILES = {
    "integrate": (("integrate", "--metric", "liouville", "--angle", "0.5",
                   "--horizon", "2.0", "--dt", "0.25"), "--csv",
                  "t,x,y,vx,vy,s", _integrate_rows),
    "rotation-field": (("rotation-field", "--metric", "flat", "--n-angles",
                        "4", "--horizon", "20.0", "--dt", "0.5"), "--csv",
                       "angle,projective_angle,slope,tail_oscillation",
                       _rotation_field_rows),
    "csf": (("csf", "--metric", "flat", "--circle", "0.5,0.5,0.15", "--n",
             "64", "--max-steps", "30"), "--records",
            "step,t,dt,length,max_curvature,shrink_rate,curvature_integral",
            _csf_rows),
    "entropy": (("entropy", "--metric", "flat", "--samples", "32",
                 "--horizons", "2,4", "--epsilons", "1.25,1.0"), "--csv",
                "horizon,epsilon,count", _entropy_rows),
}


def test_integrate_csv(capsys, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "integrate", "--metric", "flat", "--angle", "0.5",
                       "--horizon", "2.0", "--csv", str(csv_path))
    assert code == 0
    payload = loads(out)
    assert payload["config"]["horizon"] == 2.0
    header = csv_path.read_text().splitlines()
    assert header[0] == f"# config_sha256={payload['config_sha256']}"
    assert header[1] == "t,x,y,vx,vy,s"
    data = np.loadtxt(csv_path, delimiter=",", skiprows=2)
    assert data.shape == (payload["samples"], 6)


def test_integrate_evaluates_the_samples_once(capsys, monkeypatch):
    # the arclength column and the speed drift share one pass over the
    # samples; the metric's 64 x 64 check at construction and the
    # single-point unit check at launch are calls of other sizes
    sizes = []
    fields = metrics.MetricSpec.fields

    def counted(self, x, y, *args, **kwargs):
        sizes.append(np.size(x))
        return fields(self, x, y, *args, **kwargs)
    monkeypatch.setattr(metrics.MetricSpec, "fields", counted)
    code, out, _ = run(capsys, "integrate", "--metric", "liouville",
                       "--angle", "0.4", "--horizon", "20")
    assert code == 0
    samples = loads(out)["samples"]
    assert samples > 1 and sizes.count(samples) == 1


@pytest.mark.parametrize("command", CSV_FILES)
def test_csv_file(capsys, tmp_path, command):
    argv, flag, columns, check = CSV_FILES[command]
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, flag, str(path))
    assert code == 0
    payload = loads(out)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_sha256={payload['config_sha256']}"
    assert lines[1] == columns
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    assert rows.shape == (len(lines) - 2, len(columns.split(",")))
    check(payload, rows)


def test_unknown_metric_exits_2(capsys):
    code, out, err = run(capsys, "integrate", "--metric", "nope",
                         "--angle", "0.0", "--horizon", "1.0")
    assert code == 2
    assert err.strip()


def test_usage_error_exits_2(capsys):
    assert run(capsys, "integrate", "--metric", "flat")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_numerical_failure_manifest(capsys):
    # horizon too short for an escape direction: the failure is reported as
    # a manifest on stdout, not a traceback
    code, out, _ = run(capsys, "strip", "--metric", "flat", "--angle", "0.4",
                       "--horizon", "5.0")
    assert code == 1
    manifest = loads(out)
    assert manifest["failure"] == "NotEscaping"
    assert manifest["command"] == "strip"
    assert "config_sha256" in manifest


INTEGRATE = ("integrate", "--metric", "liouville")


@pytest.mark.parametrize("argv", [
    (*INTEGRATE, "--angle", "0.3", "--horizon", "nan"),
    (*INTEGRATE, "--angle", "0.3", "--horizon", "inf"),
    (*INTEGRATE, "--angle", "nan", "--horizon", "1.0"),
    (*INTEGRATE, "--angle", "inf", "--horizon", "1.0"),
    (*INTEGRATE, "--base", "nan,0.2", "--angle", "0.3", "--horizon", "1.0"),
    (*INTEGRATE, "--base", "0.1,inf", "--angle", "0.3", "--horizon", "1.0"),
    (*INTEGRATE, "--angle", "0.3", "--horizon", "1.0", "--dt", "inf"),
    # fixed-step RK4 turns T / h into a step count
    ("rotation-field", "--metric", "flat", "--n-angles", "4", "--horizon", "nan"),
    ("rotation-targets", "--metric", "flat", "--targets", "0.5",
     "--horizon", "nan"),
    ("entropy", "--metric", "flat", "--horizons", "nan,2"),
    # curve shortening would halve its step 40 times on NaN nodes
    ("csf", "--metric", "flat", "--circle", "nan,0.5,0.2"),
    # a NaN rung would be counted as an empty census
    ("intersections", "--metric", "flat", "--angle", "0.4",
     "--horizons", "10,nan"),
    # a rung at or below zero would be reported with its counts
    ("intersections", "--metric", "flat", "--angle", "0.4", "--horizons=-5,10"),
    ("intersections", "--metric", "flat", "--angle", "0.4", "--horizons=0,10"),
    ("rotation-targets", "--metric", "flat", "--targets", "nan",
     "--horizon", "20", "--grid", "8"),
    # an infinite epsilon makes every pair inseparable
    ("entropy", "--metric", "flat", "--samples", "16", "--horizons", "2,4",
     "--epsilons", "inf"),
    # fixed-step RK4 would ask numpy for a negative sample count
    ("rotation-field", "--metric", "flat", "--horizon", "-5"),
    ("rotation-targets", "--metric", "flat", "--targets", "0.5",
     "--horizon", "-5"),
    ("entropy", "--metric", "flat", "--samples", "8", "--horizons=-6,-3",
     "--epsilons", "1.25"),
    # a negative rung would be counted and fitted into the headline slope
    ("entropy", "--metric", "flat", "--samples", "8", "--horizons=-3,6",
     "--epsilons", "1.25"),
    # a path that cannot be written or read is an input error, not a failure
    # manifest
    ("integrate", "--metric", "flat", "--angle", "0.5", "--horizon", "1",
     "--csv", "/nonexistent/x.csv"),
    ("gallery", "--out", "/nonexistent/x.json"),
    ("entropy", "--metric", "flat", "--samples", "8", "--horizons", "2,4",
     "--epsilons", "1.25", "--csv", "/nonexistent/c.csv"),
    ("gallery", "--save", "flat", "/nonexistent/flat.metric"),
    ("integrate", "--metric", ".", "--angle", "0.5", "--horizon", "1"),
    # a zero circle radius ended in a DegenerateSpacing failure manifest
    # (exit 1), and a negative one ran as a circle of radius |r| (exit 0)
    ("csf", "--metric", "flat", "--circle", "0,0,0"),
    ("csf", "--metric", "flat", "--circle", "0,0,-1"),
    ("csf", "--metric", "flat", "--circle", "0.5,0.5,inf"),
    # numpy's generator rejected a negative seed with a raw ValueError (exit 1)
    ("entropy", "--metric", "flat", "--seed=-1", "--samples", "4",
     "--horizons", "0.1", "--epsilons", "1"),
    # a preset ignored these flags but hashed them into config_sha256
    ("entropy", "--metric", "flat", "--preset", "dichotomy", "--seed", "2"),
    ("entropy", "--metric", "flat", "--preset", "dichotomy", "--samples", "8"),
    ("entropy", "--metric", "flat", "--preset", "dichotomy", "--horizons", "3,6"),
    ("entropy", "--metric", "flat", "--preset", "dichotomy", "--epsilons", "1.5"),
    ("entropy", "--metric", "flat", "--preset", "calibration", "--dt-probe", "0.1"),
    # a sample grid past flow.MAX_SAMPLES rows crashed both integrators with
    # a raw numpy error (exit 1)
    (*INTEGRATE, "--angle", "0.3", "--horizon", "20", "--dt", "1e-300"),
    (*INTEGRATE, "--angle", "0.3", "--horizon", "1e300", "--dt", "1"),
    ("rotation-field", "--metric", "flat", "--horizon", "1e300", "--dt", "1",
     "--h", "1"),
    ("entropy", "--metric", "flat", "--horizons", "1e300", "--dt-probe", "1"),
    # a step whose T / h overflows crashed int() with a raw OverflowError
    # (exit 1); a tiny normal one would have run about 1e301 RK4 steps
    ("rotation-field", "--metric", "flat", "--n-angles", "4", "--horizon", "10",
     "--dt", "1", "--h", "1e-320"),
    ("rotation-field", "--metric", "flat", "--n-angles", "4", "--horizon", "10",
     "--dt", "1", "--h", "1e-300"),
])
def test_nonfinite_input_exits_2(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    # refused before any large array is allocated
    assert peak < 8 << 20


@pytest.mark.parametrize("line", [
    "term component=g11 mx=1 my=0 cos=nan sin=0",
    "term component=g11 mx=1 my=0 cos=inf sin=0",
    "term component=g22 mx=0 my=1 cos=0 sin=-inf",
    "lambda_min nan",
    "lambda_min inf",
])
@pytest.mark.parametrize("command", [
    ("gallery", "--describe"),
    ("integrate", "--angle", "0.4", "--horizon", "1", "--metric"),
])
def test_nonfinite_metric_file_exits_2(capsys, tmp_path, line, command):
    # a NaN or infinite coefficient loaded with lambda_min NaN, and a NaN
    # lambda_min was accepted: describe then died in the JSON writer (exit 1)
    path = tmp_path / "bad.metric"
    path.write_text("name bad\nterm component=g11 mx=0 my=0 cos=1 sin=0\n"
                    f"term component=g22 mx=0 my=0 cos=1 sin=0\n{line}\n")
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert ("coefficients must be finite" in err
            or "lambda_min must be positive and finite" in err)


@pytest.mark.parametrize("argv", [
    ("integrate", "--metric", "flat", "--base", "1,x", "--angle", "0.5",
     "--horizon", "1"),
    ("axis", "--metric", "flat", "--klass", "1"),
    ("entropy", "--metric", "flat", "--horizons", "x,2"),
    ("rotation-targets", "--metric", "flat", "--targets", "a"),
    ("csf", "--metric", "flat", "--circle", "0.5,0.5"),
])
def test_malformed_list_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out and "error: argument --" in err
    assert "comma-separated" in err


def test_step_failure_manifest(capsys, monkeypatch):
    # an acceleration that turns NaN mid-run makes every step fail its error
    # test until the step size underflows
    calls = [0]
    accel = flow.geodesic_accel

    def fails_after_200(*args):
        calls[0] += 1
        return (math.nan, math.nan) if calls[0] > 200 else accel(*args)
    monkeypatch.setattr(flow, "geodesic_accel", fails_after_200)
    code, out, _ = run(capsys, "integrate", "--metric", "liouville",
                       "--angle", "0.7", "--horizon", "10.0")
    assert code == 1
    manifest = loads(out)
    assert manifest["failure"] == "StepFailure"
    assert manifest["command"] == "integrate"
    assert "stalled at t=" in manifest["message"]


@pytest.mark.parametrize("argv", [
    ("integrate", "--metric", "flat", "--angle", "0.5", "--horizon", "2.0",
     "--dt", "0"),
    ("integrate", "--metric", "flat", "--angle", "0.5", "--horizon", "2.0",
     "--dt", "-0.1"),
    ("strip", "--metric", "flat", "--angle", "0.4", "--horizon", "20.0",
     "--dt", "0"),
    ("rotation-field", "--metric", "flat", "--n-angles", "4",
     "--horizon", "20.0", "--dt", "0.5", "--h", "0"),
    ("entropy", "--metric", "flat", "--samples", "16", "--horizons", "2,4",
     "--epsilons", "1.25", "--dt-probe", "0"),
])
def test_nonpositive_step_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out and err.startswith("error: ")


def test_rotation_field_single_angle_exits_2(capsys):
    code, out, err = run(capsys, "rotation-field", "--metric", "flat",
                         "--n-angles", "1", "--horizon", "20.0", "--dt", "0.5")
    assert code == 2
    assert "two estimates" in err


def test_straight_rays_at_horizon_10_escape(capsys):
    # a straight unit-speed ray covers exactly the horizon; at horizon 10 it
    # once fell short of a threshold of 10 by roundoff and exited 1
    code, out, _ = run(capsys, "rotation-field", "--metric", "flat", "--n-angles",
                       "4", "--horizon", "10", "--dt", "1", "--h", "0.1")
    assert code == 0
    assert loads(out)["n_angles"] == 4


@pytest.mark.parametrize("n_angles", ["-3", "0", "1"])
def test_rotation_field_below_two_angles_exits_2_before_any_ray(
        capsys, monkeypatch, n_angles):
    # max_projective_jump needs two estimates: no ray is worth integrating
    def no_rays(*args, **kwargs):
        raise AssertionError("a ray was integrated")
    monkeypatch.setattr(cli.cover, "direction_field", no_rays)
    code, out, err = run(capsys, "rotation-field", "--metric", "flat",
                         f"--n-angles={n_angles}", "--horizon", "20.0", "--dt", "0.5")
    assert code == 2
    assert not out and "fewer than two estimates" in err


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_gallery_grid_below_one_exits_2(capsys, grid):
    code, out, err = run(capsys, "gallery", "--describe", "flat", "--grid", grid)
    assert code == 2
    assert not out and "grid size must be at least 1" in err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_foliation_seeds_below_one_exits_2(capsys, seeds):
    code, out, err = run(capsys, "foliation", "--metric", "flat",
                         "--klass", "1,0", "--seeds", seeds)
    assert code == 2
    assert not out and "at least 1 seed" in err


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_intersections_class_radius_below_one_exits_2(capsys, radius):
    # below radius 1 there is no class to count: an empty census is no answer
    code, out, err = run(capsys, "intersections", "--metric", "flat",
                         "--angle", "0.3", "--horizons", "10",
                         "--class-radius", radius)
    assert code == 2
    assert not out and "census class radius must be at least 1" in err


def test_intersections_census_blocks_are_pinned(capsys):
    # recorded before the census became one counts table; no other test
    # pins the manifest's classes block
    code, out, _ = run(capsys, "intersections", "--metric", "two-frequency",
                       "--angle", "0.437", "--horizons", "10,20,40",
                       "--class-radius", "2")
    assert code == 0
    payload = loads(out)
    assert payload["self_crossings"] == [0, 0, 0]
    assert payload["growing_classes"] == ["1/1"]
    empty = {"-1": [0, 0, 0], "-2": [0, 0, 0], "1": [0, 0, 0], "2": [0, 0, 0]}
    assert payload["classes"] == {
        **dict.fromkeys(["0/1", "1/-1", "1/-2", "1/0", "1/2", "2/-1", "2/1"], empty),
        "1/1": {"-1": [6, 14, 31], "-2": [6, 14, 30],
                "1": [6, 14, 31], "2": [6, 14, 30]},
    }


@pytest.mark.parametrize("flag,message", [
    pytest.param("--grid=0", "at least 2 angles", id="0"),
    pytest.param("--grid=1", "at least 2 angles", id="1"),
    # a NaN tolerance ran all 40 rounds and then failed to write its JSON
    # (exit 1), and a negative one ran 40 rounds to report a miss (exit 0)
    pytest.param("--tol=nan", "positive and finite", id="tol-nan"),
    pytest.param("--tol=inf", "positive and finite", id="tol-inf"),
    pytest.param("--tol=-1", "positive and finite", id="tol--1"),
    pytest.param("--tol=0", "positive and finite", id="tol-0"),
])
def test_rotation_targets_grid_below_two_exits_2(capsys, monkeypatch, flag,
                                                 message):
    def no_rays(*args, **kwargs):
        raise AssertionError("a ray was integrated")
    monkeypatch.setattr(cli.cover, "direction_field", no_rays)
    code, out, err = run(capsys, "rotation-targets", "--metric", "flat",
                         "--targets", "0.5", "--horizon", "20", flag)
    assert code == 2
    assert not out and err.startswith("error: ") and message in err


def test_entropy_zero_samples_exits_2(capsys):
    code, out, err = run(capsys, "entropy", "--metric", "flat", "--samples", "0",
                         "--horizons", "2,4", "--epsilons", "1.25")
    assert code == 2
    assert not out and "n_samples" in err


@pytest.mark.parametrize("eps", ["-1", "0", "1.25,0"])
def test_entropy_nonpositive_epsilon_exits_2(capsys, eps):
    code, out, err = run(capsys, "entropy", "--metric", "flat", "--samples", "8",
                         "--horizons", "2,4", "--epsilons", eps)
    assert code == 2
    assert not out and "epsilon must be positive" in err


@pytest.mark.parametrize("extra", [("--snapshots", "nan"), ("--snapshots", "inf"),
                                   ("--snapshots", "-1"), ("--snapshots", "0"),
                                   ("--max-steps", "-5")])
def test_csf_bad_snapshot_or_step_budget_exits_2(capsys, extra):
    code, out, err = run(capsys, "csf", "--metric", "flat",
                         "--circle", "0.5,0.5,0.2", "--n", "64", *extra)
    assert code == 2
    assert not out and "evolve needs max_steps >= 0" in err


def test_config_hash_tracks_inputs(capsys):
    _, out1, _ = run(capsys, "gallery")
    _, out2, _ = run(capsys, "gallery")
    assert loads(out1)["config_sha256"] == loads(out2)["config_sha256"]
    _, out3, _ = run(capsys, "gallery", "--grid", "128")
    assert loads(out3)["config_sha256"] != loads(out1)["config_sha256"]


@pytest.mark.parametrize("argv, digest", [
    (("gallery",),
     "460a9e06708be92af03305f34abc00d8d315b22db9f78656b43b4bb68c8e1fc2"),
    (("axis", "--metric", "liouville", "--klass", "1,0", "--certify"),
     "e4e1d8423fdc23116e4c66a47cf23f42f85c5ce0783eafda40efd887f6571420"),
    (("entropy", "--metric", "two-frequency", "--preset", "dichotomy"),
     "a36c6b0445004643c6e3e15a4615781bc83ed4c96a027f29ae87e5fb94ed2bb4"),
])
def test_config_hash_pinned(argv, digest):
    # recorded results carry these hashes: the parser must keep producing them
    args = cli.build_parser().parse_args(list(argv))
    assert cli._config_echo(args)[1] == digest


def test_entropy_preset_allows_sample_flags_at_their_defaults(capsys, monkeypatch):
    # a flag at its default changes neither the plan nor the hash
    plans = []

    def estimate(spec, params):
        plans.append(params)
        return SimpleNamespace(headline=0.0, headline_epsilon=1.5, sample_limited=False,
                               saturated=False, slopes=[], counts=[[0, 0]] * 4)
    monkeypatch.setattr(cli.entropy, "estimate_entropy", estimate)
    argv = ("entropy", "--metric", "two-frequency", "--preset", "dichotomy")
    plan = cli.entropy.EntropyParams
    defaults = ("--samples", str(plan.n_samples), "--horizons", "20,40,80,160",
                "--epsilons", "0.5,0.25,0.125", "--dt-probe", "0.05",
                "--seed", str(plan.seed))
    docs = [loads(run(capsys, *argv, *extra)[1]) for extra in ((), defaults)]
    assert plans == [cli.entropy.PRESETS["dichotomy"]] * 2
    assert docs[0]["config_sha256"] == docs[1]["config_sha256"] == (
        "a36c6b0445004643c6e3e15a4615781bc83ed4c96a027f29ae87e5fb94ed2bb4")


def test_config_hash_ignores_output_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFLOW_OUT", str(tmp_path))
    docs = []
    for name in ("a.json", "b.json"):
        assert run(capsys, "gallery", "--out", name)[0] == 0
        docs.append(loads((tmp_path / name).read_text()))
    assert docs[0]["config_sha256"] == docs[1]["config_sha256"]
    assert [d["config"]["out"] for d in docs] == ["a.json", "b.json"]


def test_csf_circle_run(capsys):
    code, out, _ = run(capsys, "csf", "--metric", "flat",
                       "--circle", "0.5,0.5,0.15", "--n", "64")
    assert code == 0
    payload = loads(out)
    assert payload["verdict"] == "shrank_to_point"
    assert abs(payload["extinction_time"] - 0.15 ** 2 / 2) / (0.15 ** 2 / 2) < 0.05


def test_csf_without_steps_reports_the_seed_curvature(capsys):
    code, out, _ = run(capsys, "csf", "--metric", "flat",
                       "--circle", "0.5,0.5,0.15", "--n", "64",
                       "--max-steps", "0")
    assert code == 0
    payload = loads(out)
    seed = shortening.circle_curve((0.5, 0.5), 0.15, n=64)
    k = shortening._covariant_acceleration(metrics.gallery("flat"), seed.nodes[None],
                                           [seed.deck])[2]
    assert payload["steps"] == 0
    assert payload["max_curvature"] == float(k.max())


def test_entropy_custom_ladder(capsys, tmp_path):
    csv_path = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "entropy", "--metric", "flat",
                       "--samples", "128", "--horizons", "2,4",
                       "--epsilons", "1.25,1.0", "--csv", str(csv_path))
    assert code == 0
    payload = loads(out)
    assert payload["sample_limited"] is False
    assert csv_path.exists()


def test_out_file_and_env_redirect(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFLOW_OUT", str(tmp_path))
    code, out, _ = run(capsys, "gallery", "--out", "listing.json")
    assert code == 0
    target = tmp_path / "listing.json"
    assert target.exists()
    assert loads(target.read_text())["metrics"]
    assert str(target) in out


def test_gallery_save_prints_written_path(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFLOW_OUT", str(tmp_path))
    code, out, _ = run(capsys, "gallery", "--save", "liouville", "liou.metric")
    assert code == 0
    target = tmp_path / "liou.metric"
    assert out == f"{target}\n"
    assert metrics.load_metric(target).name == "liouville"


@pytest.mark.parametrize("argv", [
    ("report", "--metric", "flat"),
    ("gallery", "--describe", "flat", "--grid", "16"),
    ("flatness", "--metric", "flat", "--grid", "16"),
])
def test_one_curvature_evaluation_per_command(capsys, monkeypatch, argv):
    calls = []
    batch = metrics.gauss_curvature_batch

    def counted(*args):
        calls.append(args)
        return batch(*args)
    monkeypatch.setattr(metrics, "gauss_curvature_batch", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == 1


def test_import_leaves_out_scipy_integrate():
    # integrate steps its own DOP853, and the curve-shortening solve imports
    # LAPACK's dgtsv when it first runs: scipy.integrate would also pull in
    # scipy.special, optimize, sparse, fft and spatial at start-up, and
    # scipy.linalg most of the rest of the import time
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys, torusflow.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_witness_counts_every_torus_self_crossing(capsys):
    code, out, _ = run(capsys, "intersections", "--metric", "two-frequency",
                       "--angle", "0.437", "--horizons", "10,20,40",
                       "--witness")
    assert code == 0
    payload = loads(out)
    # the same ray, scanned against every shift whose box meets its own
    spec = metrics.gallery("two-frequency")
    ray = flow.integrate(spec, flow.unit_tangent(spec, (0.0, 0.0), 0.437),
                         40.0, dt=0.05)
    found = box_shift_crossings(ray.xy, ray.t, ray.xy, ray.t, ray.v, ray.v)
    assert payload["torus_crossings"] == sum(len(ev) for ev, _ in
                                             found.values())
    assert payload["double_loop"] is not None
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["intersections", "--help"])
    help_text = capsys.readouterr().out
    assert "--witness" in help_text and "sup-norm" not in help_text
