"""Acceptance battery: 12 numbered end-to-end criteria with stated tolerances
and runtime budgets.  Each test records exactly one PASS/FAIL verdict line,
echoed in the terminal summary."""
import dataclasses
import json
import math
import shutil
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from swmparc.atlas import build_atlas
from swmparc.cli import main as cli_main
from swmparc.clustering import quickbundles
from swmparc.config import FEATURE_NAMES, RunConfig
from swmparc.distances import mdf, mmea, pairwise_mmea
from swmparc.fitting import (
    FittedDistribution,
    _burr_cdf,
    select_best,
)
from swmparc.geometry import (
    angles_to_direction,
    angles_to_plane,
    arc_lengths,
    bundle_barycenter,
    direction_vectors,
    midpoints,
    plane_normals,
    shape_angles,
)
from swmparc.metrics import bundle_adjacency, confusion_scores, coverage, overlap, pbe
from swmparc.parcellation import parcellate, parcellate_bundle
from swmparc.registration import sbr_rigid
from swmparc.serialization import (
    AtlasFormatError,
    read_atlas,
    read_result,
    read_truth,
    write_atlas,
)
from swmparc.spatial import StreamlineGrid
from swmparc.synth import (
    ArcSpec,
    ambiguous_pair_spec,
    generate_bundle,
    generate_scene,
    random_scene_spec,
)
from swmparc.tckio import TrackFileError, read_tck, write_tck

from conftest import (ACCEPTANCE_LINES, bisect_quantile, fit_all_families, make_arc,
                      random_streamlines, random_unit, registration_scenes)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} {name:<22} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def perturbed(spec, seed, global_deg=10.0, global_mm=10.0, local_lo=1.0, local_hi=3.0):
    """Same scene under a global rigid move plus small per-bundle moves."""
    rng = np.random.default_rng(seed + 5000)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    euler = Rotation.from_rotvec(np.radians(global_deg) * axis).as_euler("XYZ", degrees=True)
    tdir = rng.standard_normal(3)
    tdir /= np.linalg.norm(tdir)
    locrot, loctr = {}, {}
    for b in spec.bundles:
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        locrot[b.bundle_id] = tuple(Rotation.from_rotvec(
            np.radians(rng.uniform(local_lo, local_hi)) * a).as_euler("XYZ", degrees=True))
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        loctr[b.bundle_id] = tuple(rng.uniform(local_lo, local_hi) * d)
    return dataclasses.replace(
        spec,
        global_rotation_deg=tuple(float(v) for v in euler),
        global_translation_mm=tuple(float(v) for v in global_mm * tdir),
        local_rotations_deg=locrot,
        local_translations_mm=loctr,
    )


def test_criterion_01_distance_axioms():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    A = random_streamlines(rng, 1000)
    B = random_streamlines(rng, 1000)
    shifts = rng.uniform(-100.0, 100.0, (1000, 2, 3))
    worst = 0.0
    for a, b, (s1, s2) in zip(A, B, shifts):
        d_ab = mdf(a, b)
        m_ab = mmea(a, b)
        if d_ab < 0.0 or m_ab < 0.0:
            worst = math.inf
        worst = max(worst, abs(d_ab - mdf(b, a)))
        worst = max(worst, abs(m_ab - mmea(b, a)))
        worst = max(worst, mdf(a, a[::-1]))
        worst = max(worst, abs(mmea(a + s1, b + s2) - m_ab))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    check(1, "distance axioms", ok, f"max dev {worst:.1e}, {elapsed:.1f}s")


def test_criterion_02_feature_correctness():
    t0 = time.perf_counter()
    semi = make_arc(radius=10.0, span_deg=180.0, k=21)
    semi_angle = float(shape_angles(semi[None])[0][0])
    straight = np.linspace([0.0, 0.0, 0.0], [40.0, 5.0, -3.0], 21)
    straight_angle = float(shape_angles(straight[None])[0][0])
    normals, degenerate = plane_normals(make_arc(radius=12.0, span_deg=140.0)[None])
    normal_err = angles_to_plane(normals, np.array([0.0, 0.0, 1.0]))[0]

    rng = np.random.default_rng(202)
    lines = random_streamlines(rng, 20)
    bundle = random_streamlines(rng, 15)
    bary = bundle_barycenter(bundle)
    ref_n = np.array([0.0, 0.0, 1.0])
    ref_d = np.array([1.0, 2.0, 0.5])

    def features(arr, other, center, rn, rd):
        return np.stack([
            arc_lengths(arr),
            np.linalg.norm(midpoints(arr) - center, axis=1),
            pairwise_mmea(arr, other).min(axis=1),
            angles_to_plane(plane_normals(arr)[0], rn),
            angles_to_direction(direction_vectors(arr), rd)[0],
            shape_angles(arr)[0],
        ])

    base = features(lines, bundle, bary, ref_n, ref_d)
    assert np.abs(base).min() > 0.05  # fixture keeps every value off zero
    worst_rel = 0.0
    for _ in range(200):
        R = Rotation.from_rotvec(rng.uniform(-np.pi, np.pi) * random_unit(rng)).as_matrix()
        t = rng.uniform(-50.0, 50.0, 3)
        moved = features(lines @ R.T + t, bundle @ R.T + t, bary @ R.T + t,
                         R @ ref_n, R @ ref_d)
        worst_rel = max(worst_rel, float(np.max(np.abs(moved - base) / np.abs(base))))
    elapsed = time.perf_counter() - t0
    ok = (abs(semi_angle - 90.0) <= 0.5
          and straight_angle == 180.0
          and not degenerate[0] and normal_err <= 1.0
          and worst_rel <= 1e-6
          and elapsed < 10.0)
    check(2, "feature correctness", ok,
          f"semi {semi_angle:.2f} deg, rel {worst_rel:.1e}, {elapsed:.1f}s")


def _replay_quickbundles(streamlines, threshold):
    """Plain-loop oracle; returns (partition, at-assignment distances)."""
    clusters = []  # [running sum, count, member indices]
    at_assign = []
    for idx, s in enumerate(streamlines):
        best = None
        for ci, (total, count, _) in enumerate(clusters):
            centroid = total / count
            direct = float(np.mean(np.linalg.norm(centroid - s, axis=1)))
            flipped = float(np.mean(np.linalg.norm(centroid - s[::-1], axis=1)))
            d = min(direct, flipped)
            if best is None or d < best[1]:
                best = (ci, d, flipped < direct)
        if best is not None and best[1] < threshold:
            ci, d, flip = best
            at_assign.append(d)
            clusters[ci][0] = clusters[ci][0] + (s[::-1] if flip else s)
            clusters[ci][1] += 1
            clusters[ci][2].append(idx)
        else:
            clusters.append([s.copy(), 1, [idx]])
    return [c[2] for c in clusters], at_assign


def test_criterion_03_quickbundles_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    worst_margin = -math.inf
    for trial in range(100):
        rng = np.random.default_rng(300 + trial)
        lines = random_streamlines(rng, 50)
        threshold = (5.0, 10.0, 20.0)[trial % 3]
        got = [c.member_indices for c in quickbundles(lines, threshold)]
        want, at_assign = _replay_quickbundles(lines, threshold)
        if got != want:
            mismatches += 1
        if at_assign:
            worst_margin = max(worst_margin, max(at_assign) - threshold)
    edge = random_streamlines(np.random.default_rng(399), 30)
    one = len(quickbundles(edge, np.inf))
    singles = len(quickbundles(edge, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = (mismatches == 0 and worst_margin < 0.0
          and one == 1 and singles == 30 and elapsed < 30.0)
    check(3, "quickbundles oracle", ok,
          f"{mismatches} mismatches, margin {worst_margin:.2f}, {elapsed:.1f}s")


def test_criterion_04_registration_recovery():
    t0 = time.perf_counter()
    recovered = 0
    for moving, arr, truth in registration_scenes():
        center = truth.pivot
        reg = sbr_rigid(moving, arr)
        m = reg.transform.matrix() @ truth.matrix()
        cos = np.clip(0.5 * (np.trace(m[:3, :3]) - 1.0), -1.0, 1.0)
        rot_err = math.degrees(math.acos(float(cos)))
        trans_err = float(np.linalg.norm(m[:3, :3] @ center + m[:3, 3] - center))
        if rot_err <= 2.0 and trans_err <= 1.0 and reg.final_cost_mm < 1.0:
            recovered += 1
    elapsed = time.perf_counter() - t0
    ok = recovered >= 18 and elapsed < 120.0
    check(4, "registration recovery", ok, f"{recovered}/20, {elapsed:.1f}s")


def _dense_cdf_quantile(pdf, lo, hi, points=400001):
    x = np.linspace(lo, hi, points)
    density = pdf(x)
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * (density[1:] + density[:-1]) * np.diff(x))])
    cdf /= cdf[-1]
    return lambda p: float(np.interp(p, cdf, x))


def test_criterion_05_distribution_fitting():
    t0 = time.perf_counter()
    oracle = _dense_cdf_quantile(
        lambda x: x * np.exp(-x / 3.0) / 9.0, 0.0, 120.0)
    q10_true, q90_true = oracle(0.1), oracle(0.9)

    hits = 0
    sse_violations = 0
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        x = rng.gamma(2.0, 3.0, 10000)
        best = select_best([x])[0]
        fits = fit_all_families(x)
        finite = [f.sse for f in fits.values()
                  if f is not None and math.isfinite(f.sse)]
        if best is None or best.sse > min(finite):
            sse_violations += 1
            continue
        if (best.family == "gamma"
                and abs(best.quantile(0.1) / q10_true - 1.0) <= 0.05
                and abs(best.quantile(0.9) / q90_true - 1.0) <= 0.05):
            hits += 1

    burr_dev = 0.0
    for c, k, lam in ((3.0, 1.5, 4.0), (0.8, 2.5, 1.2), (5.0, 0.7, 10.0)):
        dist = FittedDistribution("burr", {"c": c, "k": k, "lam": lam}, 0.0)
        for p in np.linspace(0.01, 0.99, 25):
            closed = dist.quantile(float(p))
            bisected = bisect_quantile(lambda y: _burr_cdf(dist, y), float(p), 0.0, 1e3)
            burr_dev = max(burr_dev, abs(closed - bisected))
    elapsed = time.perf_counter() - t0
    ok = (hits >= 95 and sse_violations == 0 and burr_dev <= 1e-6
          and elapsed < 120.0)
    check(5, "distribution fitting", ok,
          f"{hits}/100 gamma, burr dev {burr_dev:.1e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def projection():
    """The 20-bundle self-projection scene shared by criteria 6 and 7."""
    t0 = time.perf_counter()
    spec = random_scene_spec(n_bundles=20, streamlines_per_bundle=50,
                             jitter_mm=0.5, distractor_count=200, seed=5)
    scene = generate_scene(spec)
    atlas = build_atlas(scene.atlas_bundles)
    identity = parcellate(atlas, scene.subject, RunConfig())
    elapsed = time.perf_counter() - t0
    return spec, scene, atlas, identity, elapsed


def test_criterion_06_self_projection(projection):
    spec, scene, atlas, identity, elapsed = projection
    labels = np.asarray(scene.truth_labels)
    retentions, sensitivities, precisions = [], [], []
    for b in identity.bundles:
        truth_idx = np.flatnonzero(labels == b.bundle_id)
        by_index = {d.streamline_index: d for d in b.decisions}
        per_feature = [
            np.mean([i in by_index and by_index[i].passed[f] for i in truth_idx])
            for f in FEATURE_NAMES
        ]
        retentions.append(float(np.mean(per_feature)))
        score = confusion_scores(b.accepted_indices, truth_idx)
        sensitivities.append(score.sensitivity)
        precisions.append(score.precision)
    pbe1 = pbe(identity, 1)
    ok = (pbe1 == 100.0
          and all(0.75 <= r <= 0.95 for r in retentions)
          and min(sensitivities) >= 0.4
          and min(precisions) >= 0.4
          and elapsed < 120.0)
    check(6, "self-projection", ok,
          f"PBE-1 {pbe1:.0f}%, retention [{min(retentions):.2f},{max(retentions):.2f}], "
          f"sens>={min(sensitivities):.2f}, prec>={min(precisions):.2f}, {elapsed:.0f}s")


def test_criterion_07_perturbed_robustness(projection):
    spec, scene, atlas, identity, _ = projection
    t0 = time.perf_counter()
    moved_scene = generate_scene(perturbed(spec, seed=5))
    moved = parcellate(atlas, moved_scene.subject, RunConfig())
    agreements = []
    for b_id, b_mv in zip(identity.bundles, moved.bundles):
        base = set(int(i) for i in b_id.accepted_indices)
        if not base:
            continue
        kept = set(int(i) for i in b_mv.accepted_indices)
        agreements.append(len(base & kept) / len(base))
    elapsed = time.perf_counter() - t0
    ok = (len(agreements) == 20 and min(agreements) >= 0.9 and elapsed < 180.0)
    check(7, "perturbed robustness", ok,
          f"agreement >= {min(agreements):.3f} over {len(agreements)} bundles, {elapsed:.0f}s")


def test_criterion_08_ambiguity_fixture():
    scene = generate_scene(ambiguous_pair_spec(seed=0))
    atlas = build_atlas(scene.atlas_bundles)
    multi = parcellate(atlas, scene.subject, RunConfig())
    wta = parcellate(atlas, scene.subject,
                     RunConfig(winner_take_all=True))
    labels = multi.label_map()
    doubled = {i for i, ids in labels.items() if len(ids) > 1}
    wta_labels = wta.label_map()
    unique = all(len(ids) == 1 for ids in wta_labels.values())
    preserved = set(wta_labels) == set(labels) and all(
        wta_labels[i][0] in labels[i] for i in wta_labels)
    ok = bool(doubled) and unique and preserved
    check(8, "ambiguity fixture", ok,
          f"{len(doubled)} doubly-accepted, unique={unique}, preserved={preserved}")


def test_criterion_09_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(900)
    worst_dev = 0.0
    for _ in range(5):
        A = random_streamlines(rng, int(rng.integers(5, 21)))
        B = random_streamlines(rng, int(rng.integers(5, 21)))
        thr = float(rng.uniform(10.0, 40.0))
        d = np.array([[mdf(a, b) for b in B] for a in A])
        ba_brute = 0.5 * (np.mean(d.min(axis=1) < thr) + np.mean(d.min(axis=0) < thr))
        worst_dev = max(worst_dev, abs(bundle_adjacency(A, B, thr) - ba_brute))
        worst_dev = max(worst_dev, abs(coverage(A, B, thr) - np.mean(d.min(axis=1) < thr)))
        worst_dev = max(worst_dev, abs(overlap(A, B, thr) - np.mean((d < thr).sum(axis=1))))

    s = confusion_scores(range(6, 16), range(1, 11))
    example_exact = (s.sensitivity, s.precision, s.jaccard, s.f1) == (0.5, 0.5, 1.0 / 3.0, 0.5)

    # 10 000-streamline tractogram: 20 bundles of 50 plus 9 000 unlabeled
    # streamlines, subject already in atlas space; each bundle is labeled
    # through the standard local stage and scored against the whole tractogram
    big = generate_scene(random_scene_spec(
        n_bundles=20, streamlines_per_bundle=50, jitter_mm=0.5,
        distractor_count=9000, seed=5))
    atlas = build_atlas(big.atlas_bundles)
    cfg = RunConfig()
    atlas_all = atlas.all_streamlines()
    atlas_grid = StreamlineGrid(atlas_all)
    subject_grid = StreamlineGrid(big.subject)
    labels = np.asarray(big.truth_labels)
    min_specificity = min_accuracy = 1.0
    for model in atlas.bundles:
        bp = parcellate_bundle(model, big.subject, atlas_all, cfg,
                               subject_grid=subject_grid, atlas_grid=atlas_grid)
        truth_idx = np.flatnonzero(labels == model.id)
        score = confusion_scores(bp.accepted_indices, truth_idx, total=len(big.subject))
        min_specificity = min(min_specificity, score.specificity)
        min_accuracy = min(min_accuracy, score.accuracy)
    elapsed = time.perf_counter() - t0
    ok = (worst_dev <= 1e-12 and example_exact and len(big.subject) == 10000
          and min_specificity >= 0.99 and min_accuracy >= 0.99)
    check(9, "metric oracles", ok,
          f"brute dev {worst_dev:.1e}, spec>={min_specificity:.4f}, "
          f"acc>={min_accuracy:.4f}, {elapsed:.0f}s")


def _tck_corruptions(base_raw: bytes, tmp, expect):
    """Corrupt variants of a valid track file; every entry must raise."""
    offset = base_raw.find(b"\nEND\n") + 5

    def triplet(row, values):
        start = offset + 12 * row
        return base_raw[:start] + np.asarray(values, dtype="<f4").tobytes() \
            + base_raw[start + 12:]

    variants = {
        "bad_magic": b"mrtrix quacks" + base_raw[13:],
        "no_end": base_raw.replace(b"\nEND\n", b"\nEND "),
        "bad_datatype": base_raw.replace(b"Float32LE", b"Float64BE"),
        "offset_outside": base_raw.replace(f"file: . {offset}".encode(), b"file: . 99999"),
        "nonint_offset": base_raw.replace(f"file: . {offset}".encode(), b"file: . abc"),
        "truncated": base_raw[:-5],
        "bad_separator": triplet(3, [np.nan, 0.0, 0.0]),
        "bad_terminator": triplet(4, [np.inf, -np.inf, np.inf]),
        "empty_streamline": triplet(0, [np.nan] * 3),
        "unterminated": triplet(3, [1.0, 2.0, 3.0]),
        "trailing": base_raw + np.zeros((1, 3), dtype="<f4").tobytes(),
        "no_terminator": base_raw[:-12],
        "count_mismatch": base_raw.replace(b"count: 1", b"count: 2"),
    }
    for name, raw in variants.items():
        path = tmp / f"{name}.tck"
        path.write_bytes(raw)
        expect(TrackFileError, lambda p=path: read_tck(p), name)


def _atlas_corruptions(atlas, tmp, expect):
    base = tmp / "atlas_base"
    write_atlas(atlas, base)

    def variant(name, mutate):
        d = tmp / name
        shutil.copytree(base, d)
        mutate(d)
        expect(AtlasFormatError, lambda: read_atlas(d), name)

    def set_version(path, value):
        doc = json.loads(path.read_text())
        doc["format_version"] = value
        path.write_text(json.dumps(doc))

    variant("bad_manifest_version", lambda d: set_version(d / "manifest.json", "9"))
    variant("bad_stats_version", lambda d: set_version(d / "atlas_stats.json", "0"))
    variant("junk_manifest", lambda d: (d / "manifest.json").write_text("{broken"))
    variant("missing_tck", lambda d: (d / f"{atlas.bundles[0].id}.tck").unlink())
    variant("wrong_k", lambda d: write_tck(
        [np.zeros((5, 3))], d / f"{atlas.bundles[0].id}.tck"))

    def drop_stats(d):
        path = d / "atlas_stats.json"
        doc = json.loads(path.read_text())
        del doc["bundles"][atlas.bundles[0].id]
        path.write_text(json.dumps(doc))

    variant("missing_stats_entry", drop_stats)

    truth = tmp / "bad_truth.json"
    truth.write_text(json.dumps({"format_version": "1", "labels": ["a", 1]}))
    expect(AtlasFormatError, lambda: read_truth(truth), "bad_truth")


def test_criterion_10_io_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1000)
    round_trips = 0
    for i in range(96):
        lines = [rng.uniform(-500.0, 500.0, (int(rng.integers(2, 40)), 3))
                 for _ in range(int(rng.integers(0, 9)))]
        p1, p2 = tmp_path / "a.tck", tmp_path / "b.tck"
        write_tck(lines, p1)
        back = read_tck(p1)
        write_tck(back, p2)
        bit_exact = p1.read_bytes() == p2.read_bytes()
        value_exact = all(
            np.array_equal(rt, orig.astype("<f4").astype(np.float64))
            for rt, orig in zip(back, lines)) and len(back) == len(lines)
        round_trips += bit_exact and value_exact

    arng = np.random.default_rng(1001)
    for i in range(4):
        bundles = [
            generate_bundle(ArcSpec(
                f"b{j}", tuple(arng.uniform(-50.0, 50.0, 3)),
                float(arng.uniform(8.0, 14.0)), float(arng.uniform(120.0, 240.0)),
                (float(arng.uniform(0, 360)), float(arng.uniform(0, 180))),
                0.5, 15, int(arng.integers(0, 1 << 30))))
            for j in range(2)
        ]
        atlas = build_atlas(bundles)
        d1, d2 = tmp_path / f"at{i}", tmp_path / f"at{i}_rt"
        write_atlas(atlas, d1)
        write_atlas(read_atlas(d1), d2)
        same = all((d2 / p.name).read_bytes() == p.read_bytes()
                   for p in d1.iterdir())
        round_trips += same

    failures = []

    def expect(exc_type, thunk, name):
        try:
            thunk()
        except exc_type as e:
            if len(str(e)) < 10:  # descriptive, not a bare raise
                failures.append(f"{name}: terse message")
        except Exception as e:
            failures.append(f"{name}: {type(e).__name__}")
        else:
            failures.append(f"{name}: accepted")

    base = tmp_path / "valid.tck"
    write_tck([np.ones((3, 3))], base)
    _tck_corruptions(base.read_bytes(), tmp_path, expect)
    _atlas_corruptions(read_atlas(tmp_path / "at0"), tmp_path, expect)
    elapsed = time.perf_counter() - t0
    ok = round_trips == 100 and not failures
    check(10, "i/o round trips", ok,
          f"{round_trips}/100 round trips, {len(failures)} corrupt-fixture misses, "
          f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """CLI pipeline on one perturbed scene, parcellated twice."""
    root = tmp_path_factory.mktemp("accept_cli")
    spec = perturbed(
        random_scene_spec(n_bundles=6, streamlines_per_bundle=30,
                          jitter_mm=0.5, distractor_count=40, seed=11),
        seed=11, global_deg=8.0, global_mm=8.0, local_lo=1.0, local_hi=2.0)
    (root / "spec.json").write_text(json.dumps(spec.to_dict()))
    codes = [
        cli_main(["synth", "--spec", str(root / "spec.json"),
                  "--out", str(root / "scene")]),
        cli_main(["build-atlas", "--bundles", str(root / "scene" / "bundles"),
                  "--out", str(root / "atlas")]),
        cli_main(["parcellate", "--atlas", str(root / "atlas"),
                  "--subject", str(root / "scene" / "subject.tck"),
                  "--out", str(root / "res_1")]),
        cli_main(["parcellate", "--atlas", str(root / "atlas"),
                  "--subject", str(root / "scene" / "subject.tck"),
                  "--out", str(root / "res_2")]),
    ]
    return root, codes


def test_criterion_11_determinism(pipeline_run):
    root, codes = pipeline_run
    first = {p.name: p.read_bytes() for p in sorted((root / "res_1").iterdir())}
    second = {p.name: p.read_bytes() for p in sorted((root / "res_2").iterdir())}
    identical = first == second
    accepted = sum(len(b.accepted_indices)
                   for b in read_result(root / "res_1").bundles)
    ok = codes == [0, 0, 0, 0] and identical and accepted > 0
    check(11, "determinism", ok,
          f"exit codes {codes}, {len(first)} files identical={identical}, "
          f"{accepted} accepted")


def test_criterion_12_shipped_defaults(pipeline_run):
    root, _ = pipeline_run
    cfg = RunConfig()
    echoed = json.loads((root / "res_1" / "run_config.json").read_text())
    wanted = {
        "neighborhood_factor": 6.0,
        "decile_low": 0.1,
        "decile_high": 0.9,
        "ba_threshold_mm": 5.0,
        "pbe_min_counts": [1, 10],
    }
    defaults_ok = (cfg.neighborhood_factor == 6.0
                   and (cfg.decile_low, cfg.decile_high) == (0.1, 0.9)
                   and cfg.ba_threshold_mm == 5.0
                   and cfg.pbe_min_counts == (1, 10))
    echo_ok = all(echoed.get(k) == v for k, v in wanted.items())
    dict_ok = all(cfg.to_dict().get(k) == v for k, v in wanted.items())
    ok = defaults_ok and echo_ok and dict_ok
    check(12, "shipped defaults", ok,
          f"defaults={defaults_ok}, echoed={echo_ok}")
