"""Command-line front end.

Every run echoes its resolved configuration and a sha256 of the options
that change the numbers (output paths are echoed but not hashed), so a
result file pins down exactly what produced it.  Reports go to stdout as
JSON (or to --out); sampled series go to CSV files.  Exit codes: 0
success, 1 a numerical procedure failed and a failure manifest was
emitted, 2 bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import axes, cover, entropy, shortening
from .errors import TorusflowError, ValidationError
from .flow import integrate, unit_tangent
from .metrics import (gallery_names, gauss_curvature_grid, resolve_metric,
                      save_metric, total_curvature)

OUT_ENV = "TORUSFLOW_OUT"


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")


# options that only say where results are written: echoed, never hashed
OUTPUT_ONLY = ("out", "csv", "records")


def _config_echo(args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    hashed = {k: v for k, v in cfg.items() if k not in OUTPUT_ONLY}
    blob = json.dumps(hashed, sort_keys=True, default=_jsonable)
    return cfg, hashlib.sha256(blob.encode()).hexdigest()


def _resolve_out(path):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUT_ENV, "."), path)


def _emit(args, payload):
    cfg, digest = _config_echo(args)
    doc = {"command": args.command, "config": cfg, "config_sha256": digest}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonable)
    out = _resolve_out(getattr(args, "out", None))
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(out)
    else:
        print(text)
    return 0


def _csv_header_comment(args):
    _, digest = _config_echo(args)
    return f"config_sha256={digest}"


def _pair(text):
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise ValidationError(f"expected two comma-separated numbers, got {text!r}")


def _int_pair(text):
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise ValidationError(f"expected two comma-separated integers, got {text!r}")


def _floats(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gallery(args):
    if args.describe:
        spec = resolve_metric(args.describe)
        K = gauss_curvature_grid(spec, n=args.grid)
        return _emit(args, {
            "name": spec.name,
            "max_abs_curvature": float(np.abs(K).max()),
            "curvature_range": [float(K.min()), float(K.max())],
            "total_curvature": total_curvature(spec, n=args.grid),
        })
    if args.save:
        ref, path = args.save
        save_metric(resolve_metric(ref), _resolve_out(path))
        print(path)
        return 0
    return _emit(args, {"metrics": gallery_names()})


def cmd_integrate(args):
    spec = resolve_metric(args.metric)
    v0 = unit_tangent(spec, args.base, args.angle)
    traj = integrate(spec, v0, args.horizon, dt=args.dt)
    if args.csv:
        traj.to_csv(_resolve_out(args.csv))
    return _emit(args, {
        "metric": spec.name,
        "samples": len(traj),
        "final_point": [float(traj.xy[-1, 0]), float(traj.xy[-1, 1])],
        "arclength": float(traj.s[-1]),
        "speed_drift": traj.speed_drift(spec),
        "csv": args.csv,
    })


def cmd_rotation_field(args):
    spec = resolve_metric(args.metric)
    angles = np.linspace(0.0, 2.0 * math.pi, args.n_angles, endpoint=False)
    ests = cover.direction_field(spec, args.base, angles, horizon=args.horizon,
                                 dt=args.dt, h=args.h)
    if args.csv:
        path = _resolve_out(args.csv)
        rows = np.array([[a, e.rotation.projective_angle(),
                          float("inf") if e.rotation.infinite else e.rotation.slope,
                          e.tail_oscillation]
                         for a, e in zip(angles, ests)])
        np.savetxt(path, rows, delimiter=",", comments="",
                   header=f"# {_csv_header_comment(args)}\n"
                          "angle,projective_angle,slope,tail_oscillation")
    return _emit(args, {
        "metric": spec.name,
        "n_angles": args.n_angles,
        "max_projective_jump": cover.max_projective_jump(ests),
        "n_vertical": sum(1 for e in ests if e.rotation.infinite),
        "csv": args.csv,
    })


def cmd_rotation_targets(args):
    spec = resolve_metric(args.metric)
    results = cover.hit_rotation_targets(spec, args.base, list(args.targets),
                                         horizon=args.horizon, grid=args.grid,
                                         tol=args.tol)
    missed = [r["target"] for r in results if not r["achieved"]]
    return _emit(args, {"metric": spec.name, "results": results,
                        "all_achieved": not missed, "missed": missed})


def cmd_intersections(args):
    spec = resolve_metric(args.metric)
    v0 = unit_tangent(spec, args.base, args.angle)
    traj = integrate(spec, v0, max(args.horizons), dt=args.dt)
    census = cover.intersection_census(traj, class_radius=args.class_radius,
                                       horizons=args.horizons)
    self_events, _ = cover.self_intersections(traj)
    payload = {
        "metric": spec.name,
        "horizons": list(census.horizons),
        "self_crossings": [sum(1 for e in self_events if e.t1 <= h and e.t2 <= h)
                           for h in census.horizons],
        "growing_classes": census.growing_classes(),
        "classes": {key: {str(k): v for k, v in c.counts.items()}
                    for key, c in census.classes.items()},
    }
    if args.witness:
        pairs = cover.torus_self_crossings(traj, class_radius=2)
        w = cover.detect_double_loop([ev for ev, _ in pairs])
        payload["torus_crossings"] = len(pairs)
        payload["double_loop"] = (
            None if w is None else
            {"t1": w.t1, "t2": w.t2, "t3": w.t3, "t4": w.t4})
    return _emit(args, payload)


def cmd_strip(args):
    spec = resolve_metric(args.metric)
    v0 = unit_tangent(spec, args.base, args.angle)
    traj = integrate(spec, v0, args.horizon, dt=args.dt)
    est = cover.asymptotic_direction(traj)
    strip = cover.fit_strip(traj, est.direction)
    return _emit(args, {
        "metric": spec.name,
        "direction": list(est.direction),
        "slope": None if est.rotation.infinite else est.rotation.slope,
        "vertical": est.rotation.infinite,
        "tail_oscillation": est.tail_oscillation,
        "strip_width": strip.width,
        "strip_offsets": [strip.offset_lo, strip.offset_hi],
    })


def cmd_csf(args):
    spec = resolve_metric(args.metric)
    if args.circle:
        if len(args.circle) != 3:
            raise ValidationError("--circle needs CX,CY,R")
        cx, cy, r = args.circle
        curve = shortening.circle_curve((cx, cy), r, n=args.n)
    else:
        curve = shortening.straight_class_curve(args.klass, base=args.base,
                                                n=args.n,
                                                amplitude=args.amplitude)
    result = shortening.evolve(spec, curve, max_steps=args.max_steps,
                               snapshot_times=args.snapshots or ())
    if args.records:
        path = _resolve_out(args.records)
        rows = np.array([[r.step, r.t, r.dt, r.length, r.max_curvature,
                          r.shrink_rate, r.curvature_integral]
                         for r in result.records])
        np.savetxt(path, rows, delimiter=",", comments="",
                   header=f"# {_csv_header_comment(args)}\n"
                          "step,t,dt,length,max_curvature,shrink_rate,"
                          "curvature_integral")
    return _emit(args, {
        "metric": spec.name,
        "verdict": result.verdict,
        "t_final": result.t_final,
        "length": result.length,
        "max_curvature": result.max_curvature,
        "steps": result.steps,
        "halvings": result.halvings,
        "extinction_time": result.extinction_time,
        "plateaued": result.plateaued,
        "records_csv": args.records,
    })


def cmd_axis(args):
    spec = resolve_metric(args.metric)
    axis = axes.find_minimal_axis(spec, args.klass, n=args.n,
                                  certify=args.certify)
    payload = {
        "metric": spec.name,
        "class": list(args.klass),
        "length": axis.length,
        "closing_residual": axis.closing_residual,
        "start": list(axis.start),
        "angle": axis.angle,
        "line_deviation": axes.line_deviation(axis),
        "diagnostics": axis.diagnostics,
    }
    return _emit(args, payload)


def cmd_foliation(args):
    spec = resolve_metric(args.metric)
    report = axes.check_foliation(spec, args.klass, n_seeds=args.seeds)
    return _emit(args, {
        "metric": spec.name,
        "class": list(args.klass),
        "foliated": report.foliated,
        "n_distinct": report.n_distinct,
        "max_gap_fraction": report.max_gap_fraction,
        "crossing_free": report.crossing_free,
        "intercepts": report.intercepts,
    })


def cmd_flatness(args):
    spec = resolve_metric(args.metric)
    report = axes.flatness_test(spec, grid_n=args.grid)
    return _emit(args, {
        "metric": spec.name,
        "verdict": report.verdict,
        "max_abs_curvature": report.max_abs_curvature,
        "total_curvature": report.total_curvature,
        "witness_found": report.witness_found,
        "witness_classes": report.witness_classes,
    })


def cmd_entropy(args):
    spec = resolve_metric(args.metric)
    if args.preset:
        params = entropy.PRESETS[args.preset]
    else:
        params = entropy.EntropyParams(
            n_samples=args.samples, horizons=args.horizons,
            epsilons=args.epsilons, dt_probe=args.dt_probe, seed=args.seed)
    est = entropy.estimate_entropy(spec, params)
    if args.csv:
        est.write_csv(_resolve_out(args.csv))
    return _emit(args, {
        "metric": spec.name,
        "headline": est.headline,
        "headline_epsilon": est.headline_epsilon,
        "sample_limited": est.sample_limited,
        "saturated": est.saturated,
        "slopes": est.slopes,
        "counts": est.counts,
        "csv": args.csv,
    })


def cmd_report(args):
    spec = resolve_metric(args.metric)
    K = gauss_curvature_grid(spec, n=256)
    flat = axes.flatness_test(spec)
    v0 = unit_tangent(spec, args.base, args.angle)
    traj = integrate(spec, v0, args.horizon, dt=0.1)
    est = cover.asymptotic_direction(traj)
    strip = cover.fit_strip(traj, est.direction)
    return _emit(args, {
        "metric": spec.name,
        "curvature": {
            "max_abs": float(np.abs(K).max()),
            "range": [float(K.min()), float(K.max())],
            "total": total_curvature(spec),
        },
        "flatness": {"verdict": flat.verdict,
                     "witness_classes": flat.witness_classes},
        "probe_ray": {
            "base": list(args.base), "angle": args.angle,
            "horizon": args.horizon,
            "slope": None if est.rotation.infinite else est.rotation.slope,
            "strip_width": strip.width,
            "tail_oscillation": est.tail_oscillation,
        },
    })


# ---------------------------------------------------------------------------
# parser

def build_parser():
    top = argparse.ArgumentParser(
        prog="torusflow",
        description="numerical laboratory for geodesic flows on 2-tori")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("gallery", cmd_gallery, help="list, describe, or export metrics")
    p.add_argument("--describe", metavar="METRIC")
    p.add_argument("--save", nargs=2, metavar=("METRIC", "PATH"))
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--out")

    p = add("integrate", cmd_integrate, help="integrate one geodesic ray")
    p.add_argument("--metric", required=True)
    p.add_argument("--base", type=_pair, default=(0.0, 0.0))
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--csv")
    p.add_argument("--out")

    p = add("rotation-field", cmd_rotation_field,
            help="rotation numbers over a fan of launch angles")
    p.add_argument("--metric", required=True)
    p.add_argument("--base", type=_pair, default=(0.0, 0.0))
    p.add_argument("--n-angles", type=int, default=64)
    p.add_argument("--horizon", type=float, default=300.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--csv")
    p.add_argument("--out")

    p = add("rotation-targets", cmd_rotation_targets,
            help="aim launch angles at rational rotation numbers")
    p.add_argument("--metric", required=True)
    p.add_argument("--base", type=_pair, default=(0.0, 0.0))
    p.add_argument("--targets", type=_floats, required=True)
    p.add_argument("--horizon", type=float, default=300.0)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out")

    p = add("intersections", cmd_intersections,
            help="census of crossings with deck-translate families")
    p.add_argument("--metric", required=True)
    p.add_argument("--base", type=_pair, default=(0.0, 0.0))
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--horizons", type=_floats, default=(100.0, 200.0, 400.0))
    p.add_argument("--class-radius", type=int, default=3)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--witness", action="store_true",
                   help="also look for a double-loop configuration")
    p.add_argument("--out")

    p = add("strip", cmd_strip, help="bounding slab of one lifted ray")
    p.add_argument("--metric", required=True)
    p.add_argument("--base", type=_pair, default=(0.0, 0.0))
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--horizon", type=float, default=400.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--out")

    p = add("csf", cmd_csf, help="run curve shortening on a seed curve")
    p.add_argument("--metric", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circle", type=_floats, metavar="CX,CY,R")
    group.add_argument("--klass", type=_int_pair, metavar="P,Q")
    p.add_argument("--base", type=_pair, default=(0.0, 0.0))
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--snapshots", type=_floats, default=None)
    p.add_argument("--records", help="CSV path for per-step records")
    p.add_argument("--out")

    p = add("axis", cmd_axis, help="minimal closed geodesic of a class")
    p.add_argument("--metric", required=True)
    p.add_argument("--klass", type=_int_pair, required=True, metavar="P,Q")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--certify", action="store_true",
                   help="cross-check the length against the lattice oracle")
    p.add_argument("--out")

    p = add("foliation", cmd_foliation,
            help="do minimal axes of a class fill the torus")
    p.add_argument("--metric", required=True)
    p.add_argument("--klass", type=_int_pair, required=True, metavar="P,Q")
    p.add_argument("--seeds", type=int, default=12)
    p.add_argument("--out")

    p = add("flatness", cmd_flatness, help="two-pronged flatness verdict")
    p.add_argument("--metric", required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--out")

    p = add("entropy", cmd_entropy, help="separated-orbit growth estimate")
    p.add_argument("--metric", required=True)
    p.add_argument("--preset", choices=sorted(entropy.PRESETS))
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--horizons", type=_floats, default=(20.0, 40.0, 80.0, 160.0))
    p.add_argument("--epsilons", type=_floats, default=(0.5, 0.25, 0.125))
    p.add_argument("--dt-probe", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=20260818)
    p.add_argument("--csv")
    p.add_argument("--out")

    p = add("report", cmd_report, help="one-page survey of a metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--base", type=_pair, default=(0.137, 0.289))
    p.add_argument("--angle", type=float, default=0.53)
    p.add_argument("--horizon", type=float, default=300.0)
    p.add_argument("--out")

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TorusflowError as exc:
        cfg, digest = _config_echo(args)
        manifest = {"failure": type(exc).__name__, "message": str(exc),
                    "command": args.command, "config": cfg,
                    "config_sha256": digest}
        print(json.dumps(manifest, indent=2, sort_keys=True, default=_jsonable))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
