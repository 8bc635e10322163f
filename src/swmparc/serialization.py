"""Structured-text serialization: atlas directories, parcellation result
directories, affine prealignment matrices, and ground-truth label files.

JSON is used for everything structured.  Floats round-trip value-exactly
(shortest-repr decimal form); track payloads are bit-exact via tckio.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .atlas import AtlasModel, BundleModel, FeatureInterval
from .config import FEATURE_NAMES
from .fitting import FAMILIES, FittedDistribution
from .geometry import Bundle
from .registration import RegistrationResult, RigidTransform
from .tckio import TrackFileError, read_tck, write_tck

FORMAT_VERSION = "1"

MANIFEST_NAME = "manifest.json"
STATS_NAME = "atlas_stats.json"
SUMMARY_NAME = "summary.json"


class AtlasFormatError(ValueError):
    pass


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise AtlasFormatError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise AtlasFormatError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise AtlasFormatError(f"{path}: expected a JSON object")
    return doc


def _check_version(found, path) -> None:
    if found != FORMAT_VERSION:
        raise AtlasFormatError(
            f"{path}: expected format_version {FORMAT_VERSION!r}, found {found!r}")


def _json_float(x) -> float | None:
    x = float(x)
    return None if not math.isfinite(x) else x


def _fit_to_dict(fit: FittedDistribution | None):
    if fit is None:
        return None
    return {
        "family": fit.family,
        "params": {k: float(v) for k, v in fit.params.items()},
        "sse": _json_float(fit.sse),
        "shift": float(fit.shift),
        "support": None if fit.support is None else [float(fit.support[0]), float(fit.support[1])],
    }


def _fit_from_dict(d, path) -> FittedDistribution | None:
    if d is None:
        return None
    family = d.get("family")
    if family not in FAMILIES:
        raise AtlasFormatError(f"{path}: unknown distribution family {family!r}")
    sse = d.get("sse")
    support = d.get("support")
    return FittedDistribution(
        family=family,
        params={k: float(v) for k, v in d["params"].items()},
        sse=math.inf if sse is None else float(sse),
        shift=float(d.get("shift", 0.0)),
        support=None if support is None else (float(support[0]), float(support[1])),
    )


def _bundle_stats(model: BundleModel) -> dict:
    return {
        "barycenter": [float(v) for v in model.barycenter],
        "radius_mm": float(model.radius_mm),
        "reference": [[float(v) for v in p] for p in model.reference],
        "reference_normal": [float(v) for v in model.reference_normal],
        "reference_normal_degenerate": bool(model.reference_normal_degenerate),
        "reference_direction": [float(v) for v in model.reference_direction],
        "thresholds": {
            f: {
                "low": float(iv.low),
                "high": _json_float(iv.high),
                "source": iv.source,
                "informative": bool(iv.informative),
            }
            for f, iv in model.thresholds.items()
        },
        "fits": {f: _fit_to_dict(model.fits[f]) for f in FEATURE_NAMES},
    }


def write_atlas(atlas: AtlasModel, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "resample_k": int(atlas.resample_k),
        "bundles": [m.id for m in atlas.bundles],
    }
    _dump_json(manifest, os.path.join(directory, MANIFEST_NAME))
    stats = {
        "format_version": FORMAT_VERSION,
        "bundles": {m.id: _bundle_stats(m) for m in atlas.bundles},
    }
    _dump_json(stats, os.path.join(directory, STATS_NAME))
    for m in atlas.bundles:
        write_tck(m.bundle.streamlines, os.path.join(directory, f"{m.id}.tck"))


def _interval_from_dict(d) -> FeatureInterval:
    high = d["high"]
    return FeatureInterval(
        low=float(d["low"]),
        high=math.inf if high is None else float(high),
        source=d["source"],
        informative=bool(d.get("informative", True)),
    )


def read_atlas(directory) -> AtlasModel:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    stats_path = os.path.join(directory, STATS_NAME)
    manifest = _load_json(manifest_path)
    _check_version(manifest.get("format_version"), manifest_path)
    stats = _load_json(stats_path)
    _check_version(stats.get("format_version"), stats_path)

    bundle_ids = manifest.get("bundles")
    if not (isinstance(bundle_ids, list) and bundle_ids
            and all(isinstance(b, str) for b in bundle_ids)
            and len(set(bundle_ids)) == len(bundle_ids)):
        raise AtlasFormatError(
            f"{manifest_path}: bundles must be a non-empty list of distinct bundle ids")
    resample_k = manifest.get("resample_k")
    if not (isinstance(resample_k, int) and not isinstance(resample_k, bool)
            and resample_k >= 3 and resample_k % 2 == 1):
        raise AtlasFormatError(f"{manifest_path}: resample_k must be an odd integer >= 3")
    per_bundle = stats.get("bundles", {})
    models = []
    for bundle_id in bundle_ids:
        if bundle_id not in per_bundle:
            raise AtlasFormatError(f"{stats_path}: no stats entry for bundle {bundle_id!r}")
        tck_path = os.path.join(directory, f"{bundle_id}.tck")
        if not os.path.exists(tck_path):
            raise AtlasFormatError(f"{directory}: missing track file for bundle {bundle_id!r}")
        try:
            streamlines = read_tck(tck_path)
        except TrackFileError as e:
            raise AtlasFormatError(str(e)) from e
        if not streamlines:
            raise AtlasFormatError(f"{tck_path}: no streamline in bundle {bundle_id!r}")
        for s in streamlines:
            if len(s) != resample_k:
                raise AtlasFormatError(
                    f"{tck_path}: streamline with {len(s)} points, expected {resample_k}")
        models.append(_bundle_model(
            Bundle(bundle_id, np.asarray(streamlines, dtype=np.float64)),
            per_bundle[bundle_id], resample_k, f"{stats_path}: bundle {bundle_id!r}"))
    return AtlasModel(bundles=tuple(models))


_BUNDLE_KEYS = ("barycenter", "radius_mm", "reference", "reference_normal",
                "reference_normal_degenerate", "reference_direction", "thresholds", "fits")


def _bundle_model(bundle: Bundle, entry, resample_k: int, where: str) -> BundleModel:
    """A bundle's `atlas_stats.json` entry as a `BundleModel`, or an
    `AtlasFormatError` that starts with ``where``."""
    if not isinstance(entry, dict):
        raise AtlasFormatError(f"{where}: expected a JSON object")
    missing = [key for key in _BUNDLE_KEYS if key not in entry]
    if missing:
        raise AtlasFormatError(f"{where}: missing {', '.join(missing)}")

    def vector(key, shape):
        try:
            value = np.asarray(entry[key], dtype=np.float64)
        except (OverflowError, TypeError, ValueError):
            value = None
        if value is None or value.shape != shape:
            raise AtlasFormatError(f"{where}: {key} must be numbers of shape {shape}")
        return value

    radius = entry["radius_mm"]
    try:  # a JSON integer past the float range overflows
        finite = (isinstance(radius, (int, float)) and not isinstance(radius, bool)
                  and math.isfinite(radius))
    except OverflowError:
        finite = False
    if not finite:
        raise AtlasFormatError(f"{where}: radius_mm must be a finite number")
    if not isinstance(entry["reference_normal_degenerate"], bool):
        raise AtlasFormatError(f"{where}: reference_normal_degenerate must be true or false")
    try:
        thresholds = {f: _interval_from_dict(entry["thresholds"][f]) for f in FEATURE_NAMES}
        fits = {f: _fit_from_dict(entry["fits"][f], where) for f in FEATURE_NAMES}
    except AtlasFormatError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise AtlasFormatError(f"{where}: malformed thresholds or fits ({e!r})") from e
    return BundleModel(
        bundle=bundle,
        barycenter=vector("barycenter", (3,)),
        radius_mm=float(radius),
        reference=vector("reference", (resample_k, 3)),
        reference_normal=vector("reference_normal", (3,)),
        reference_normal_degenerate=entry["reference_normal_degenerate"],
        reference_direction=vector("reference_direction", (3,)),
        thresholds=thresholds,
        fits=fits,
    )


def read_affine(path) -> np.ndarray:
    try:
        m = np.loadtxt(path, dtype=np.float64)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot parse affine file {path}: {e}") from e
    if m.shape != (4, 4):
        raise ValueError(f"{path}: affine must be 4x4, got shape {m.shape}")
    if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
        raise ValueError(f"{path}: last row must be (0, 0, 0, 1)")
    return m


def apply_affine(matrix: np.ndarray, streamlines):
    """Apply a homogeneous 4x4 transform to every point."""
    R = matrix[:3, :3]
    t = matrix[:3, 3]
    arr = np.asarray(streamlines, dtype=np.float64)
    return arr @ R.T + t


def _transform_to_dict(tr: RigidTransform) -> dict:
    return {
        "rotation_deg": [float(v) for v in tr.rotation_deg],
        "translation_mm": [float(v) for v in tr.translation_mm],
        "pivot": [float(v) for v in tr.pivot],
    }


def _registration_to_dict(r: RegistrationResult) -> dict:
    return {
        "transform": _transform_to_dict(r.transform),
        "initial_cost_mm": _json_float(r.initial_cost_mm),
        "final_cost_mm": _json_float(r.final_cost_mm),
        "iterations": int(r.iterations),
        "converged": bool(r.converged),
    }


def write_result(result, directory, subject_streamlines=None) -> None:
    """Write a parcellation result directory: summary.json plus one track
    file per recognized bundle (accepted subject streamlines, original
    coordinates) when the subject tractogram is supplied."""
    os.makedirs(directory, exist_ok=True)
    bundles = []
    for b in result.bundles:
        entry = {
            "bundle_id": b.bundle_id,
            "status": b.status,
            "count": int(len(b.accepted_indices)),
            "accepted": [int(i) for i in b.accepted_indices],
            "local_registration": _registration_to_dict(b.local.registration),
            "neighborhood_size": int(len(b.local.neighborhood)),
            "atlas_neighborhood_size": int(b.local.atlas_neighborhood_size),
        }
        bundles.append(entry)
        if b.status != "absent" and subject_streamlines is not None:
            write_tck([subject_streamlines[i] for i in b.accepted_indices],
                      os.path.join(directory, f"{b.bundle_id}.tck"))
    summary = {
        "format_version": FORMAT_VERSION,
        "subject_count": int(result.subject_count),
        "config": result.config.to_dict(),
        "global_registration": _registration_to_dict(result.global_registration),
        "global_centroids": asdict(result.global_centroids),
        "bundles": bundles,
    }
    _dump_json(summary, os.path.join(directory, SUMMARY_NAME))


@dataclass(frozen=True)
class ResultBundle:
    bundle_id: str
    status: str
    accepted_indices: np.ndarray


@dataclass(frozen=True)
class ResultData:
    """Summary of a result directory, sufficient for evaluation."""

    bundles: tuple[ResultBundle, ...]
    subject_count: int
    config: dict

    def bundle_map(self) -> dict[str, ResultBundle]:
        return {b.bundle_id: b for b in self.bundles}


def _result_bundle(entry, subject_count: int, where: str) -> ResultBundle:
    """A bundle's `summary.json` entry as a `ResultBundle`, or an
    `AtlasFormatError` that starts with ``where``."""
    if not isinstance(entry, dict):
        raise AtlasFormatError(f"{where}: expected a JSON object")
    missing = [key for key in ("bundle_id", "status", "accepted") if key not in entry]
    if missing:
        raise AtlasFormatError(f"{where}: missing {', '.join(missing)}")
    bundle_id, status, accepted = entry["bundle_id"], entry["status"], entry["accepted"]
    if not isinstance(bundle_id, str):
        raise AtlasFormatError(f"{where}: bundle_id must be a string")
    if status not in ("recognized", "absent"):
        raise AtlasFormatError(f"{where}: status must be recognized or absent")
    # type() is int, unlike isinstance, rejects true and false
    if not (isinstance(accepted, list) and all(type(i) is int and 0 <= i < subject_count
                                               for i in accepted)
            and len(set(accepted)) == len(accepted)):
        raise AtlasFormatError(
            f"{where}: accepted must be distinct integers in [0, {subject_count})")
    return ResultBundle(bundle_id, status, np.asarray(accepted, dtype=np.int64))


def read_result(directory) -> ResultData:
    path = os.path.join(directory, SUMMARY_NAME)
    summary = _load_json(path)
    _check_version(summary.get("format_version"), path)
    missing = [key for key in ("subject_count", "bundles") if key not in summary]
    if missing:
        raise AtlasFormatError(f"{path}: missing {', '.join(missing)}")
    subject_count, entries = summary["subject_count"], summary["bundles"]
    if not (type(subject_count) is int and subject_count >= 0):
        raise AtlasFormatError(f"{path}: subject_count must be an integer >= 0")
    if not isinstance(entries, list):
        raise AtlasFormatError(f"{path}: bundles must be a list")
    bundles = tuple(_result_bundle(e, subject_count, f"{path}: bundle {i}")
                    for i, e in enumerate(entries))
    if len({b.bundle_id for b in bundles}) != len(bundles):
        raise AtlasFormatError(f"{path}: duplicate bundle ids")
    return ResultData(bundles=bundles, subject_count=subject_count,
                      config=summary.get("config", {}))


def write_truth(labels, path) -> None:
    _dump_json({"format_version": FORMAT_VERSION, "labels": list(labels)}, path)


def read_truth(path) -> list[str]:
    doc = _load_json(path)
    _check_version(doc.get("format_version"), path)
    labels = doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise AtlasFormatError(f"{path}: labels must be a list of strings")
    return labels
