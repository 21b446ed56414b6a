"""Command-line front end.

Every run echoes its resolved configuration and a sha256 of the options
that change the numbers (output paths are echoed but not hashed), so a
result file pins down exactly what produced it.  Reports go to stdout as
JSON (or to --out); sampled series go to CSV files, each headed by the
same `# config_sha256=<digest>` line and then its column line.  Exit
codes: 0 success, 1 a numerical procedure failed and a failure manifest
was emitted, 2 bad usage or a path that cannot be read or written.
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
from .flow import arclength_of, integrate, speed_drift_of, unit_tangent
from .metrics import (curvature_survey, gallery_names, resolve_metric,
                      save_metric)

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


def _manifest(args, fields):
    """Manifest head (command, config, config_sha256) plus `fields`."""
    cfg, digest = _config_echo(args)
    return {"command": args.command, "config": cfg, "config_sha256": digest,
            **fields}


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True, default=_jsonable,
                      allow_nan=False)


def _emit(args, payload):
    text = _dumps(_manifest(args, payload))
    out = _resolve_out(args.out)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(out)
    else:
        print(text)
    return 0


def _write_csv(args, path, columns, rows):
    """Write rows under `# config_sha256=<digest>` and the column line.

    Numbers get 17 significant digits, so they read back exactly.  An unset
    path writes nothing.
    """
    if not path:
        return
    _, digest = _config_echo(args)
    np.savetxt(_resolve_out(path), rows, fmt="%.17g", delimiter=",",
               comments="", header=f"# config_sha256={digest}\n{columns}")


def _values(kind, count):
    """argparse type: comma-separated `kind` values, `count` of them unless None."""
    def parse(text):
        try:
            values = tuple(map(kind, text.split(",")))
            if count is None or len(values) == count:
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected {count or 'any number of'} comma-separated "
            f"{kind.__name__} values, got {text!r}")
    return parse


_PAIR = _values(float, 2)
_INT_PAIR = _values(int, 2)
_FLOATS = _values(float, None)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the resolved metric (None
# for gallery) and returns its payload; main adds the metric name and emits

def cmd_gallery(args, spec):
    if args.describe:
        spec = resolve_metric(args.describe)
        survey = curvature_survey(spec, args.grid)
        return {"name": spec.name, "max_abs_curvature": survey.max_abs,
                "curvature_range": survey.range,
                "total_curvature": survey.total}
    if args.save:
        ref, path = args.save
        path = _resolve_out(path)
        save_metric(resolve_metric(ref), path)
        print(path)
        return None
    return {"metrics": gallery_names()}


def cmd_integrate(args, spec):
    v0 = unit_tangent(spec, args.base, args.angle)
    traj = integrate(spec, v0, args.horizon, dt=args.dt)
    speeds = traj.speeds(spec)
    s = arclength_of(traj.t, speeds)
    _write_csv(args, args.csv, "t,x,y,vx,vy,s",
               np.column_stack([traj.t, traj.xy, traj.v, s]))
    return {
        "samples": len(traj),
        "final_point": [float(traj.xy[-1, 0]), float(traj.xy[-1, 1])],
        "arclength": float(s[-1]),
        "speed_drift": speed_drift_of(speeds),
        "csv": args.csv,
    }


def cmd_rotation_field(args, spec):
    if args.n_angles < 2:
        raise ValidationError(f"--n-angles {args.n_angles} gives fewer than two estimates")
    angles = np.linspace(0.0, 2.0 * math.pi, args.n_angles, endpoint=False)
    ests = cover.direction_field(spec, args.base, angles, horizon=args.horizon,
                                 dt=args.dt, h=args.h)
    _write_csv(args, args.csv, "angle,projective_angle,slope,tail_oscillation",
               [[a, e.rotation.projective_angle(),
                 float("inf") if e.rotation.infinite else e.rotation.slope,
                 e.tail_oscillation] for a, e in zip(angles, ests)])
    return {
        "n_angles": args.n_angles,
        "max_projective_jump": cover.max_projective_jump(ests),
        "n_vertical": sum(1 for e in ests if e.rotation.infinite),
        "csv": args.csv,
    }


def cmd_rotation_targets(args, spec):
    results = cover.hit_rotation_targets(spec, args.base, list(args.targets),
                                         horizon=args.horizon, grid=args.grid,
                                         tol=args.tol)
    missed = [r["target"] for r in results if not r["achieved"]]
    return {"results": results, "all_achieved": not missed, "missed": missed}


def cmd_intersections(args, spec):
    v0 = unit_tangent(spec, args.base, args.angle)
    traj = integrate(spec, v0, max(args.horizons), dt=args.dt)
    census = cover.intersection_census(traj, class_radius=args.class_radius,
                                       horizons=args.horizons)
    self_events, _ = cover.self_intersections(traj)
    payload = {
        "horizons": list(census.horizons),
        "self_crossings": [sum(1 for e in self_events if e.t1 <= h and e.t2 <= h)
                           for h in census.horizons],
        "growing_classes": census.growing_classes(),
        "classes": {key: {str(k): v for k, v in counts.items()}
                    for key, counts in census.classes.items()},
    }
    if args.witness:
        pairs = cover.torus_self_crossings(traj)
        w = cover.detect_double_loop([ev for ev, _ in pairs])
        payload["torus_crossings"] = len(pairs)
        payload["double_loop"] = (
            None if w is None else
            {"t1": w.t1, "t2": w.t2, "t3": w.t3, "t4": w.t4})
    return payload


def _probe_ray(spec, args, dt):
    """Direction estimate and strip of one ray from --base at --angle."""
    traj = integrate(spec, unit_tangent(spec, args.base, args.angle),
                     args.horizon, dt=dt)
    est = cover.asymptotic_direction(traj)
    return est, cover.fit_strip(traj, est.direction)


def cmd_strip(args, spec):
    est, strip = _probe_ray(spec, args, args.dt)
    return {
        "direction": list(est.direction),
        "slope": est.rotation.slope,
        "vertical": est.rotation.infinite,
        "tail_oscillation": est.tail_oscillation,
        "strip_width": strip.width,
        "strip_offsets": [strip.offset_lo, strip.offset_hi],
    }


def cmd_csf(args, spec):
    if args.circle:
        cx, cy, r = args.circle
        curve = shortening.circle_curve((cx, cy), r, n=args.n)
    else:
        curve = shortening.straight_class_curve(args.klass, base=args.base,
                                                n=args.n,
                                                amplitude=args.amplitude)
    (result,) = shortening.evolve(spec, [curve], max_steps=args.max_steps,
                                  snapshot_times=args.snapshots or ())
    _write_csv(args, args.records,
               "step,t,dt,length,max_curvature,shrink_rate,curvature_integral",
               [[r.step, r.t, r.dt, r.length, r.max_curvature, r.shrink_rate,
                 r.curvature_integral] for r in result.records])
    return {
        "verdict": result.verdict,
        "t_final": result.t_final,
        "length": result.length,
        "max_curvature": result.max_curvature,
        "steps": result.steps,
        "halvings": result.halvings,
        "extinction_time": result.extinction_time,
        "plateaued": result.plateaued,
        "records_csv": args.records,
    }


def cmd_axis(args, spec):
    axis = axes.find_minimal_axis(spec, args.klass, n=args.n,
                                  certify=args.certify)
    return {
        "class": list(args.klass),
        "length": axis.length,
        "closing_residual": axis.closing_residual,
        "start": list(axis.start),
        "angle": axis.angle,
        "line_deviation": axes.line_deviation(axis),
        "diagnostics": axis.diagnostics,
    }


def cmd_foliation(args, spec):
    report = axes.check_foliation(spec, args.klass, n_seeds=args.seeds)
    return {
        "class": list(args.klass),
        "foliated": report.foliated,
        "n_distinct": report.n_distinct,
        "max_gap_fraction": report.max_gap_fraction,
        "crossing_free": report.crossing_free,
        "intercepts": report.intercepts,
    }


def cmd_flatness(args, spec):
    report = axes.flatness_test(spec, grid_n=args.grid)
    return {
        "verdict": report.verdict,
        "max_abs_curvature": report.curvature.max_abs,
        "total_curvature": report.curvature.total,
        "witness_found": bool(report.witness_classes),
        "witness_classes": report.witness_classes,
    }


def cmd_entropy(args, spec):
    params = entropy.EntropyParams(
        n_samples=args.samples, horizons=args.horizons,
        epsilons=args.epsilons, dt_probe=args.dt_probe, seed=args.seed)
    if args.preset:
        # a sample flag off its default would be hashed but never used
        if params != entropy.EntropyParams():
            raise ValidationError(
                "--preset fixes the sampling plan; drop --samples, --horizons, "
                "--epsilons, --dt-probe and --seed")
        params = entropy.PRESETS[args.preset]
    est = entropy.estimate_entropy(spec, params)
    _write_csv(args, args.csv, "horizon,epsilon,count",
               [[T, e, est.counts[i][j]]
                for i, T in enumerate(params.horizons)
                for j, e in enumerate(params.epsilons)])
    return {
        "headline": est.headline,
        "headline_epsilon": est.headline_epsilon,
        "sample_limited": est.sample_limited,
        "saturated": est.saturated,
        "slopes": est.slopes,
        "counts": est.counts,
        "csv": args.csv,
    }


def cmd_report(args, spec):
    flat = axes.flatness_test(spec)
    est, strip = _probe_ray(spec, args, 0.1)
    return {
        "curvature": flat.curvature,
        "flatness": {"verdict": flat.verdict,
                     "witness_classes": flat.witness_classes},
        "probe_ray": {
            "base": list(args.base), "angle": args.angle,
            "horizon": args.horizon,
            "slope": est.rotation.slope,
            "strip_width": strip.width,
            "tail_oscillation": est.tail_oscillation,
        },
    }


# ---------------------------------------------------------------------------
# parser

def build_parser():
    top = argparse.ArgumentParser(
        prog="torusflow",
        description="numerical laboratory for geodesic flows on 2-tori")
    sub = top.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, added through argparse parents
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    metric = argparse.ArgumentParser(add_help=False)
    metric.add_argument("--metric", required=True)
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--base", type=_PAIR, default=(0.0, 0.0))

    def add(name, fn, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, out])
        p.set_defaults(func=fn)
        return p

    p = add("gallery", cmd_gallery, "list, describe, or export metrics")
    p.add_argument("--describe", metavar="METRIC")
    p.add_argument("--save", nargs=2, metavar=("METRIC", "PATH"))
    p.add_argument("--grid", type=int, default=256)

    p = add("integrate", cmd_integrate, "integrate one geodesic ray",
            metric, base)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--csv")

    p = add("rotation-field", cmd_rotation_field,
            "rotation numbers over a fan of launch angles", metric, base)
    p.add_argument("--n-angles", type=int, default=64)
    p.add_argument("--horizon", type=float, default=300.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--csv")

    p = add("rotation-targets", cmd_rotation_targets,
            "aim launch angles at rational rotation numbers", metric, base)
    p.add_argument("--targets", type=_FLOATS, required=True)
    p.add_argument("--horizon", type=float, default=300.0)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-3)

    p = add("intersections", cmd_intersections,
            "census of crossings with deck-translate families", metric, base)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--horizons", type=_FLOATS, default=(100.0, 200.0, 400.0))
    p.add_argument("--class-radius", type=int, default=3)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--witness", action="store_true",
                   help="also count every torus self-crossing, whatever "
                        "its loop class, and look for a double loop")

    p = add("strip", cmd_strip, "bounding slab of one lifted ray", metric, base)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--horizon", type=float, default=400.0)
    p.add_argument("--dt", type=float, default=0.1)

    p = add("csf", cmd_csf, "run curve shortening on a seed curve", metric, base)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circle", type=_values(float, 3), metavar="CX,CY,R")
    group.add_argument("--klass", type=_INT_PAIR, metavar="P,Q")
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--snapshots", type=_FLOATS, default=None)
    p.add_argument("--records", help="CSV path for per-step records")

    p = add("axis", cmd_axis, "minimal closed geodesic of a class", metric)
    p.add_argument("--klass", type=_INT_PAIR, required=True, metavar="P,Q")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--certify", action="store_true",
                   help="cross-check the length against the lattice oracle")

    p = add("foliation", cmd_foliation,
            "do minimal axes of a class fill the torus", metric)
    p.add_argument("--klass", type=_INT_PAIR, required=True, metavar="P,Q")
    p.add_argument("--seeds", type=int, default=12)

    p = add("flatness", cmd_flatness, "two-pronged flatness verdict", metric)
    p.add_argument("--grid", type=int, default=256)

    p = add("entropy", cmd_entropy, "separated-orbit growth estimate", metric)
    p.add_argument("--preset", choices=sorted(entropy.PRESETS))
    plan = entropy.EntropyParams    # the flags default to its field defaults
    p.add_argument("--samples", type=int, default=plan.n_samples)
    p.add_argument("--horizons", type=_FLOATS, default=plan.horizons)
    p.add_argument("--epsilons", type=_FLOATS, default=plan.epsilons)
    p.add_argument("--dt-probe", type=float, default=plan.dt_probe)
    p.add_argument("--seed", type=int, default=plan.seed)
    p.add_argument("--csv")

    p = add("report", cmd_report, "one-page survey of a metric", metric)
    p.add_argument("--base", type=_PAIR, default=(0.137, 0.289))
    p.add_argument("--angle", type=float, default=0.53)
    p.add_argument("--horizon", type=float, default=300.0)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return 2 if exc.code not in (0, None) else 0
    try:
        spec = resolve_metric(args.metric) if "metric" in args else None
        payload = args.func(args, spec)
        if payload is None:
            return 0
        if spec is not None:
            payload["metric"] = spec.name
        return _emit(args, payload)
    except (ValidationError, OSError) as exc:
        # bad input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TorusflowError as exc:
        print(_dumps(_manifest(args, {"failure": type(exc).__name__,
                                      "message": str(exc)})))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
