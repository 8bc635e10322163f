"""Command line front end.

Subcommands: synth, build-atlas, parcellate, evaluate.  Progress and human
reports go to stderr; machine-readable output goes to files, so stdout stays
clean.  Exit codes: 0 success, 1 processing failure, 2 malformed input.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .atlas import build_atlas
from .config import FEATURE_NAMES, RunConfig
from .geometry import Bundle, resample_all
from .metrics import bundle_adjacency, confusion_scores, coverage, overlap, pbe, spb
from .parcellation import parcellate
from .serialization import (
    AtlasFormatError,
    read_affine,
    read_atlas,
    read_result,
    read_truth,
    result_config_dict,
    write_atlas,
    write_result,
    write_truth,
    apply_affine,
)
from .synth import SceneSpec, generate_scene
from .tckio import TrackFileError, read_tck, write_tck


class CliInputError(Exception):
    """Malformed or missing input; maps to exit code 2."""


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config(path: str | None, args) -> RunConfig:
    if path is None:
        cfg = RunConfig()
    else:
        try:
            cfg = RunConfig.load(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            raise CliInputError(f"bad config file {path}: {e}") from e
    overrides = {}
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "winner_take_all", False):
        overrides["winner_take_all"] = True
    if overrides:
        d = cfg.to_dict()
        d.update(overrides)
        try:
            cfg = RunConfig.from_dict(d)
        except ValueError as e:
            raise CliInputError(f"bad option: {e}") from e
    return cfg


def _load_subject(path: str, k: int) -> np.ndarray:
    try:
        raw = read_tck(path)
    except TrackFileError as e:
        raise CliInputError(str(e)) from e
    if not raw:
        raise CliInputError(f"{path}: empty subject tractogram")
    try:
        return resample_all(raw, k)
    except ValueError as e:
        raise CliInputError(f"{path}: {e}") from e


def _echo_config(cfg: RunConfig, directory: str) -> None:
    with open(os.path.join(directory, "run_config.json"), "w", encoding="ascii") as fh:
        json.dump(result_config_dict(cfg), fh, indent=2)
        fh.write("\n")


def cmd_synth(args) -> int:
    try:
        with open(args.spec, "r", encoding="ascii") as fh:
            spec = SceneSpec.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise CliInputError(f"bad scene spec {args.spec}: {e}") from e
    scene = generate_scene(spec)
    bundles_dir = os.path.join(args.out, "bundles")
    os.makedirs(bundles_dir, exist_ok=True)
    for bundle in scene.atlas_bundles:
        write_tck(list(bundle.streamlines), os.path.join(bundles_dir, f"{bundle.id}.tck"))
    write_tck(list(scene.subject), os.path.join(args.out, "subject.tck"))
    write_truth(scene.truth_labels, os.path.join(args.out, "truth.json"))
    with open(os.path.join(args.out, "scene.json"), "w", encoding="ascii") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")
    _say(f"scene: {len(scene.atlas_bundles)} bundles, "
         f"{len(scene.subject)} subject streamlines -> {args.out}")
    return 0


def cmd_build_atlas(args) -> int:
    cfg = _load_config(args.config, args)
    if not os.path.isdir(args.bundles):
        raise CliInputError(f"bundle directory not found: {args.bundles}")
    names = sorted(n for n in os.listdir(args.bundles) if n.endswith(".tck"))
    if not names:
        raise CliInputError(f"no track files in {args.bundles}")
    bundles = []
    for name in names:
        path = os.path.join(args.bundles, name)
        try:
            raw = read_tck(path)
            arr = resample_all(raw, cfg.resample_k)
        except (TrackFileError, ValueError) as e:
            raise CliInputError(str(e)) from e
        if len(arr) < 2:
            raise CliInputError(f"{path}: atlas bundle too small")
        bundles.append(Bundle(name[:-4], arr))
    atlas = build_atlas(
        bundles,
        resample_k=cfg.resample_k,
        low_q=cfg.decile_low,
        high_q=cfg.decile_high,
        threshold_source=cfg.threshold_source,
        min_fit_samples=cfg.min_fit_samples,
    )
    write_atlas(atlas, args.out)
    _echo_config(cfg, args.out)
    for model in atlas.bundles:
        fitted = ", ".join(
            f"{f.split('_')[0]}={model.fits[f].family if model.fits[f] else model.thresholds[f].source}"
            for f in FEATURE_NAMES)
        _say(f"{model.id}: {len(model.bundle)} streamlines | {fitted}")
    _say(f"atlas with {len(atlas.bundles)} bundles -> {args.out}")
    return 0


def cmd_parcellate(args) -> int:
    cfg = _load_config(args.config, args)
    try:
        atlas = read_atlas(args.atlas)
    except AtlasFormatError as e:
        raise CliInputError(str(e)) from e
    if args.affine is not None:
        try:
            affine = read_affine(args.affine)
        except ValueError as e:
            raise CliInputError(str(e)) from e
        try:
            raw = read_tck(args.subject)
        except TrackFileError as e:
            raise CliInputError(str(e)) from e
        if not raw:
            raise CliInputError(f"{args.subject}: empty subject tractogram")
        raw = [apply_affine(affine, s) for s in raw]
        try:
            subject = resample_all(raw, atlas.resample_k)
        except ValueError as e:
            raise CliInputError(f"{args.subject}: {e}") from e
    else:
        subject = _load_subject(args.subject, atlas.resample_k)
    _say(f"parcellating {len(subject)} streamlines against "
         f"{len(atlas.bundles)} bundles (workers={cfg.workers or 'auto'})")
    result = parcellate(atlas, subject, cfg)
    write_result(result, args.out, subject_streamlines=subject)
    _echo_config(cfg, args.out)
    recognized = sum(1 for b in result.bundles if b.status == "recognized")
    _say(f"global registration: cost {result.global_registration.initial_cost_mm:.3f} -> "
         f"{result.global_registration.final_cost_mm:.3f} mm, "
         f"converged={result.global_registration.converged}")
    _say(f"{recognized}/{len(result.bundles)} bundles recognized | "
         f"PBE-1 {pbe(result, 1):.1f}% | PBE-10 {pbe(result, 10):.1f}% -> {args.out}")
    return 0


def _aggregate(values) -> float:
    vals = [v for v in values if v is not None and not math.isnan(v)]
    return float(np.mean(vals)) if vals else math.nan


def cmd_evaluate(args) -> int:
    try:
        result = read_result(args.result)
        truth = read_truth(args.truth)
    except AtlasFormatError as e:
        raise CliInputError(str(e)) from e
    if len(truth) != result.subject_count:
        raise CliInputError(
            f"truth has {len(truth)} labels but result covers "
            f"{result.subject_count} streamlines")
    labels = np.asarray(truth)
    subject = None
    if args.subject is not None:
        k = int(result.config.get("resample_k", 21))
        subject = _load_subject(args.subject, k)
        if len(subject) != result.subject_count:
            raise CliInputError(
                f"{args.subject}: {len(subject)} streamlines, expected {result.subject_count}")

    cfg = _load_config(args.config, args)
    ba_mm = cfg.ba_threshold_mm
    rows = []
    for b in result.bundles:
        truth_idx = np.flatnonzero(labels == b.bundle_id)
        score = confusion_scores(b.accepted_indices, truth_idx, total=result.subject_count)
        row = {
            "bundle_id": b.bundle_id,
            "status": b.status,
            "count": int(len(b.accepted_indices)),
            "truth_count": int(len(truth_idx)),
            "defined": score.defined,
            "sensitivity": _json_safe(score.sensitivity),
            "precision": _json_safe(score.precision),
            "jaccard": _json_safe(score.jaccard),
            "f1": _json_safe(score.f1),
            "specificity": _json_safe(score.specificity),
            "accuracy": _json_safe(score.accuracy),
        }
        if subject is not None:
            extracted = subject[np.asarray(b.accepted_indices, dtype=np.int64)]
            model = subject[truth_idx]
            row["bundle_adjacency"] = _json_safe(bundle_adjacency(extracted, model, ba_mm))
            row["coverage"] = _json_safe(coverage(extracted, model, ba_mm))
            row["overlap"] = _json_safe(overlap(extracted, model, ba_mm))
        rows.append(row)

    spb_stats = spb(result)
    pbe_lo, pbe_hi = cfg.pbe_min_counts
    report = {
        "format_version": "1",
        "n_bundles": len(result.bundles),
        "subject_count": result.subject_count,
        "ba_threshold_mm": ba_mm,
        "bundles": rows,
        "aggregate": {
            "sensitivity": _json_safe(_aggregate(r["sensitivity"] for r in rows if r["defined"])),
            "precision": _json_safe(_aggregate(r["precision"] for r in rows if r["defined"])),
            "jaccard": _json_safe(_aggregate(r["jaccard"] for r in rows if r["defined"])),
            "f1": _json_safe(_aggregate(r["f1"] for r in rows if r["defined"])),
            f"pbe_{pbe_lo}": pbe(result, pbe_lo),
            f"pbe_{pbe_hi}": pbe(result, pbe_hi),
            "spb_mean": _json_safe(spb_stats.mean),
            "spb_median": _json_safe(spb_stats.median),
            "spb_sd": _json_safe(spb_stats.sd),
        },
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    agg = report["aggregate"]
    _say("bundle                     sens   prec  jacc    f1")
    for r in rows:
        if r["defined"]:
            _say(f"{r['bundle_id']:<24} {r['sensitivity']:6.3f} {r['precision']:6.3f} "
                 f"{r['jaccard']:6.3f} {r['f1']:6.3f}")
        else:
            _say(f"{r['bundle_id']:<24} (no ground truth)")
    _say(f"PBE-{pbe_lo} {agg[f'pbe_{pbe_lo}']:.1f}% | PBE-{pbe_hi} {agg[f'pbe_{pbe_hi}']:.1f}% "
         f"-> {args.out}")
    return 0


def _json_safe(x):
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swmparc",
        description="Geometry-based parcellation of short-fiber tractograms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="expand a synthetic scene spec")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-atlas", help="analyze a directory of bundle track files")
    p.add_argument("--bundles", required=True, help="directory of <bundle_id>.tck files")
    p.add_argument("--out", required=True, help="atlas output directory")
    p.add_argument("--config", default=None, help="RunConfig JSON")
    p.set_defaults(func=cmd_build_atlas)

    p = sub.add_parser("parcellate", help="label a subject tractogram with an atlas")
    p.add_argument("--atlas", required=True, help="atlas directory")
    p.add_argument("--subject", required=True, help="subject track file")
    p.add_argument("--affine", default=None, help="4x4 prealignment matrix (text)")
    p.add_argument("--out", required=True, help="result output directory")
    p.add_argument("--config", default=None, help="RunConfig JSON")
    p.add_argument("--workers", type=int, default=None, help="bundle worker count (0 = auto)")
    p.add_argument("--winner-take-all", action="store_true",
                   help="assign multiply-accepted streamlines to the closest bundle")
    p.set_defaults(func=cmd_parcellate)

    p = sub.add_parser("evaluate", help="score a result directory against ground truth")
    p.add_argument("--result", required=True, help="result directory")
    p.add_argument("--truth", required=True, help="ground-truth labels JSON")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--subject", default=None,
                   help="subject track file (enables adjacency/coverage/overlap)")
    p.add_argument("--config", default=None, help="RunConfig JSON (thresholds)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except CliInputError as e:
        _say(f"error: {e}")
        return 2
    except Exception as e:  # processing failure, not an input problem
        _say(f"error: {e}")
        return 1


def entry() -> None:
    sys.exit(main())
