"""Benchmark workloads: seeded synthetic scenes written as track files.

`write_workload(name, seed, directory)` expands a workload seed into
`Workload.scenes` independent scenes, `directory/scene<j>/`, each holding

    bundles/<bundle_id>.tck   atlas bundles, the input of `build-atlas`
    subject.tck               the subject tractogram, the input of `parcellate`
    truth.npz                 labels, and truth-bundle points as in the
                              subject, before its noise and before the
                              perturbation, read only by the output check
    sizes.json                input sizes

The program under test only ever receives the `.tck` files.  The same name
and seed always give byte-identical files.

Why several scenes per workload: the cost of one scene rests on a few
Nelder-Mead searches and on how many QuickBundles centroids its bundles
happen to form, which varies by tens of percent from scene to scene.  A run
reports the mean over its scenes, so its figures move little with the seed.
crowded_local has the most scenes because its registration error, each
bundle pulled by its neighbours, varies most from scene to scene.
For the same reason all seeds of a workload share one bundle layout (arc
centers, radii, spans, orientations, from `LAYOUT_SEED`); the seed draws the
streamlines, the distractors, the local perturbations and the subject order.

The subject holds copies of atlas bundle members with Gaussian noise on every
point (`SUBJECT_NOISE_MM`), distractors, and per workload the perturbations
below, then one known global rigid move; its order is shuffled.

* sparse_global  the global rigid stage.  Many singleton and small-cluster
                 distractors give many subject centroids; every bundle
                 neighborhood holds only its own bundle.
* crowded_local  the per-bundle local stage.  Bundles sit 100 mm apart, so
                 each 6 r neighborhood sphere reaches its face neighbours; the
                 distractors may enter the neighborhoods and every bundle has
                 its own local rigid perturbation.  Parcellated with 2 workers,
                 the only workload where per-bundle parallelism can show.
* big_atlas      atlas analysis.  Large atlas bundles stored at variable raw
                 point counts, so reading, resampling and the n x n MMEA of
                 atlas analysis carry `build-atlas`; the subject copies only a
                 small share of each bundle.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from swmparc.geometry import bundle_barycenter, bundle_radius, resample
from swmparc.registration import apply_rigid
from swmparc.synth import (
    OUTLIER_LABEL,
    ArcSpec,
    SceneSpec,
    generate_bundle,
    generate_distractors,
    generate_scene,
    random_scene_spec,
)
from swmparc.tckio import write_tck

# the same known global move in every workload
GLOBAL_MOVE = dict(global_rotation_deg=(4.0, -3.0, 5.0), global_translation_mm=(3.0, -2.0, 1.5))

# keep-out factor that random_scene_spec uses for its singleton distractors
CLEARANCE_FACTOR = 6.5

RAW_POINTS = (31, 119)          # odd raw point counts of big_atlas streamlines

# sd (mm, per coordinate) of the noise added to every subject point, standing
# in for tracking noise.  Without it a subject that is an exact copy is
# registered to within the optimizer's tolerance, and that error ranges over
# three orders of magnitude from seed to seed.  A rigid transform cannot undo
# the noise, so it puts a floor of about 0.48 mm under registration_error_mm,
# which is scored on the points the program registers.  The same points
# without the noise give the transforms' own error, transform_error_mm, which
# the output check reports per scene but which varies too much from seed to
# seed for a bound (README.md).
SUBJECT_NOISE_MM = 0.3

# every seed of a workload shares one bundle layout (centers, radii, spans,
# orientations); the seed draws the streamlines, distractors and perturbations
LAYOUT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int          # passed to `parcellate --workers`, never 0
    scenes: int           # independent scenes per workload seed
    bundles: int
    atlas_per_bundle: int
    subject_per_bundle: int
    distractors: int      # sparse_global: singletons; as many again come in small clusters


# why each workload exists, and its measured input properties: README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("sparse_global", workers=1, scenes=6, bundles=4, atlas_per_bundle=30,
                 subject_per_bundle=30, distractors=120),
        Workload("crowded_local", workers=2, scenes=10, bundles=6, atlas_per_bundle=25,
                 subject_per_bundle=25, distractors=30),
        Workload("big_atlas", workers=1, scenes=5, bundles=4, atlas_per_bundle=300,
                 subject_per_bundle=80, distractors=40),
    )
}

CROWDED_GRID = (3, 2, 1)        # bundle cells; WORKLOADS["crowded_local"].bundles of them
CROWDED_SPACING_MM = 100.0


@dataclass
class Scene:
    """One generated scene, before it is written out."""

    bundles: list                 # [(bundle_id, [raw (n, 3) arrays])]
    subject: list                 # raw (n, 3) arrays
    labels: list                  # truth label per subject streamline
    original: dict                # subject index -> points before the perturbation
    clean: list | None = None     # subject streamlines before the noise


def _redraw(spec: SceneSpec, seed: int) -> SceneSpec:
    """The spec's layout with streamline and distractor draws from `seed`."""
    rng = np.random.default_rng([seed, 4])
    arcs = tuple(replace(a, seed=int(rng.integers(0, 2 ** 31))) for a in spec.bundles)
    return replace(spec, bundles=arcs, seed=seed)


def _subject_scene(spec: SceneSpec, w: Workload) -> tuple[list, object]:
    """Atlas bundles from the spec's arcs, and the synth scene of the subject.

    The subject's bundles are copies of the first `subject_per_bundle`
    members of each atlas bundle (an arc draw of fewer streamlines from the
    same seed is a prefix of the larger draw).
    """
    atlas = [generate_bundle(replace(a, count=w.atlas_per_bundle)) for a in spec.bundles]
    drawn = replace(spec, bundles=tuple(replace(a, count=w.subject_per_bundle)
                                        for a in spec.bundles))
    return atlas, generate_scene(drawn)


def _assemble(atlas, scene, extra=()) -> Scene:
    """Scene from `synth.generate_scene` output; bundle draws precede distractors."""
    subject = list(scene.subject) + list(extra)
    labels = list(scene.truth_labels) + [OUTLIER_LABEL] * len(extra)
    drawn = [s for b in scene.atlas_bundles for s in b.streamlines]
    return Scene([(b.id, list(b.streamlines)) for b in atlas], subject, labels,
                 dict(enumerate(drawn)))


def _keep_out(bundles) -> list:
    return [(bundle_barycenter(b.streamlines), CLEARANCE_FACTOR * bundle_radius(b.streamlines))
            for b in bundles]


def sparse_global(w: Workload, seed: int) -> Scene:
    spec = _redraw(random_scene_spec(w.bundles, w.atlas_per_bundle, distractor_count=w.distractors,
                                     seed=LAYOUT_SEED, **GLOBAL_MOVE), seed)
    atlas, scene = _subject_scene(spec, w)
    # as many distractors again in small clusters of 2-5 near-copies (every
    # point within 1 mm of its seed line), kept out of the neighborhoods like
    # the singletons and moved with them
    rng = np.random.default_rng([seed, 1])
    seeds = generate_distractors(w.distractors // 3, spec.extent_lo, spec.extent_hi, rng,
                                 keep_out=_keep_out(atlas))
    copies = [line + rng.uniform(-0.5, 0.5, line.shape)
              for line in seeds for _ in range(int(rng.integers(2, 6)))]
    return _assemble(atlas, scene, extra=apply_rigid(scene.global_transform, np.stack(copies)))


def crowded_local(w: Workload, seed: int) -> Scene:
    rng = np.random.default_rng(LAYOUT_SEED)
    cells = list(itertools.product(*(range(n) for n in CROWDED_GRID)))[:w.bundles]
    arcs = []
    for b, cell in enumerate(cells):
        center = np.asarray(cell, dtype=np.float64) * CROWDED_SPACING_MM + rng.uniform(-3.0, 3.0, 3)
        arcs.append(ArcSpec(
            bundle_id=f"bundle_{b:03d}",
            center=tuple(center),
            radius_mm=float(rng.uniform(8.0, 12.0)),
            span_deg=float(rng.uniform(130.0, 220.0)),
            orientation_deg=(float(rng.uniform(0.0, 360.0)), float(rng.uniform(0.0, 180.0))),
            jitter_mm=0.5,
            count=w.atlas_per_bundle,
            seed=int(rng.integers(0, 2 ** 31)),
        ))
    centers = np.array([a.center for a in arcs])
    rng = np.random.default_rng([seed, 2])
    spec = SceneSpec(
        bundles=tuple(arcs),
        distractor_count=w.distractors,
        extent_lo=tuple(centers.min(axis=0) - 20.0),
        extent_hi=tuple(centers.max(axis=0) + 20.0),
        distractor_clearance_factor=0.0,
        local_rotations_deg={a.bundle_id: tuple(rng.uniform(-4.0, 4.0, 3)) for a in arcs},
        local_translations_mm={a.bundle_id: tuple(rng.uniform(-2.0, 2.0, 3)) for a in arcs},
        **GLOBAL_MOVE,
    )
    return _assemble(*_subject_scene(_redraw(spec, seed), w))


def _point_counts(n: int, rng) -> list[int]:
    """n odd raw point counts in RAW_POINTS."""
    lo, hi = RAW_POINTS
    return [2 * int(rng.integers(lo // 2, hi // 2 + 1)) + 1 for _ in range(n)]


def _variable_points(streamlines, rng) -> list:
    """Each streamline re-drawn at its own odd raw point count."""
    return [resample(s, k) for s, k in zip(streamlines, _point_counts(len(streamlines), rng))]


def big_atlas(w: Workload, seed: int) -> Scene:
    spec = _redraw(random_scene_spec(w.bundles, w.atlas_per_bundle, distractor_count=w.distractors,
                                     seed=LAYOUT_SEED, **GLOBAL_MOVE), seed)
    atlas, scene = _subject_scene(spec, w)
    # the scene moved every point rigidly, so resampling after the move gives
    # the moved image of the same raw points
    rng = np.random.default_rng([seed, 3])
    plain = _assemble(atlas, scene)
    counts = _point_counts(len(plain.subject), rng)
    return Scene(
        bundles=[(b, _variable_points(s, rng)) for b, s in plain.bundles],
        subject=[resample(s, k) for s, k in zip(plain.subject, counts)],
        labels=plain.labels,
        original={i: resample(s, counts[i]) for i, s in plain.original.items()},
    )


GENERATORS = {
    "sparse_global": sparse_global,
    "crowded_local": crowded_local,
    "big_atlas": big_atlas,
}


def scene_seed(seed: int, index: int) -> int:
    """Seed of one scene of a workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def generate(name: str, seed: int) -> Scene:
    """One scene, with the subject in a seeded shuffled order."""
    scene = GENERATORS[name](WORKLOADS[name], seed)
    rng = np.random.default_rng([seed, 99])
    order = rng.permutation(len(scene.subject))
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    clean = [scene.subject[i] for i in order]
    return Scene(
        bundles=scene.bundles,
        subject=[s + rng.normal(0.0, SUBJECT_NOISE_MM, s.shape) for s in clean],
        labels=[scene.labels[i] for i in order],
        original={int(back[i]): pts for i, pts in scene.original.items()},
        clean=clean,
    )


def write_scene(name: str, seed: int, directory: str) -> dict:
    """Generate one scene and write its files; returns its input sizes."""
    scene = generate(name, seed)
    bundle_dir = os.path.join(directory, "bundles")
    os.makedirs(bundle_dir, exist_ok=True)
    for bundle_id, streamlines in scene.bundles:
        write_tck(streamlines, os.path.join(bundle_dir, f"{bundle_id}.tck"))
    write_tck(scene.subject, os.path.join(directory, "subject.tck"))

    truth_idx = sorted(scene.original)
    np.savez(
        os.path.join(directory, "truth.npz"),
        labels=np.asarray(scene.labels),
        truth_index=np.asarray(truth_idx, dtype=np.int64),
        lengths=np.asarray([len(scene.original[i]) for i in truth_idx], dtype=np.int64),
        subject_points=np.concatenate([np.asarray(scene.subject[i], dtype=np.float64)
                                       for i in truth_idx]),
        clean_points=np.concatenate([np.asarray(scene.clean[i], dtype=np.float64)
                                     for i in truth_idx]),
        original_points=np.concatenate([scene.original[i] for i in truth_idx]),
    )
    sizes = {
        "bundles": len(scene.bundles),
        "atlas_streamlines": sum(len(s) for _, s in scene.bundles),
        "subject_streamlines": len(scene.subject),
        "subject_outliers": scene.labels.count(OUTLIER_LABEL),
    }
    with open(os.path.join(directory, "sizes.json"), "w", encoding="ascii") as fh:
        json.dump(sizes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sizes


def write_workload(name: str, seed: int, directory: str) -> list[str]:
    """Write every scene of a workload seed; returns the scene directories."""
    scenes = []
    for j in range(WORKLOADS[name].scenes):
        path = os.path.join(directory, f"scene{j}")
        write_scene(name, scene_seed(seed, j), path)
        scenes.append(path)
    return scenes
