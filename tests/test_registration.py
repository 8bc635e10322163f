import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import swmparc.registration as registration
from swmparc.config import RunConfig
from swmparc.distances import bundle_min_distance
from swmparc.geometry import Bundle
from swmparc.registration import (
    RigidCost,
    RigidTransform,
    apply_rigid,
    compose,
    euler_xyz_matrix,
    extract_neighborhood,
    lsnr,
    sbr_rigid,
)
from swmparc.synth import ArcSpec, generate_bundle

from conftest import random_streamlines


def rand_transform(rng, max_deg=30.0, max_mm=20.0):
    return RigidTransform(
        rotation_deg=rng.uniform(-max_deg, max_deg, 3),
        translation_mm=rng.uniform(-max_mm, max_mm, 3),
        pivot=rng.uniform(-10, 10, 3),
    )


def test_identity_and_validation():
    t = RigidTransform.identity()
    pts = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(t.apply(pts), pts)
    assert t.is_identity()
    with pytest.raises(ValueError):
        RigidTransform(np.zeros(2), np.zeros(3), np.zeros(3))


def test_matrix_equals_apply(rng):
    pts = rng.uniform(-50, 50, (30, 3))
    for _ in range(10):
        t = rand_transform(rng)
        m = t.matrix()
        homog = np.c_[pts, np.ones(len(pts))] @ m.T
        assert np.allclose(homog[:, :3], t.apply(pts), atol=1e-9)
        assert np.allclose(m[3], [0, 0, 0, 1])


def test_inverse_round_trip(rng):
    pts = rng.uniform(-50, 50, (20, 3))
    for _ in range(10):
        t = rand_transform(rng)
        back = t.inverse().apply(t.apply(pts))
        assert np.allclose(back, pts, atol=1e-9)


def test_compose_matches_sequential(rng):
    pts = rng.uniform(-50, 50, (20, 3))
    for _ in range(10):
        a = rand_transform(rng)
        b = rand_transform(rng)
        ab = compose(a, b)
        assert np.allclose(ab.apply(pts), a.apply(b.apply(pts)), atol=1e-8)


def test_apply_rigid_broadcasts_over_stack(rng):
    lines = random_streamlines(rng, 4)
    t = rand_transform(rng)
    moved = apply_rigid(t, lines)
    assert moved.shape == lines.shape
    assert np.allclose(moved[2], t.apply(lines[2]))


angle = st.floats(-180.0, 180.0)


@settings(max_examples=200, deadline=None)
@given(angle, angle, angle)
@example(0.0, 90.0, 0.0)
@example(30.0, 90.0, -45.0)
@example(-120.0, -90.0, 75.0)
@example(180.0, -180.0, 180.0)
def test_closed_form_rotation_matches_scipy(ax, ay, az):
    oracle = RigidTransform([ax, ay, az], np.zeros(3), np.zeros(3)).rotation_matrix()
    assert np.abs(euler_xyz_matrix(ax, ay, az) - oracle).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rigid_cost_matches_brute_force(data):
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.integers(1, 30), label="m")
    k = data.draw(st.integers(1, 10).map(lambda h: 2 * h + 1), label="K")
    x = np.array(data.draw(st.lists(angle, min_size=3, max_size=3), label="degrees")
                 + data.draw(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3), label="mm"))
    # points from a seeded generator, away from the coincidences where the
    # matmul expansion is not accurate to 1e-9
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    moving = random_streamlines(rng, n, k=k)
    static = random_streamlines(rng, m, k=k)
    cost = RigidCost(moving, static)
    for _ in range(2):  # the workspaces are reused by the second call
        moved = RigidTransform(x[:3], x[3:], cost.pivot).apply(moving)
        expected = bundle_min_distance(moved, static)
        assert abs(cost(x) - expected) < 1e-9
        x = -x
    assert cost.evaluations == 2


def arc_bundle(seed, count=30, center=(0.0, 0.0, 0.0)):
    spec = ArcSpec(
        bundle_id=f"b{seed}",
        center=center,
        radius_mm=10.0,
        span_deg=170.0,
        orientation_deg=(30.0, 60.0),
        jitter_mm=0.4,
        count=count,
        seed=seed,
    )
    return generate_bundle(spec)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_recovery_of_rigid_perturbation(seed):
    static = arc_bundle(seed).streamlines
    rng = np.random.default_rng(seed + 100)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(3.0, 10.0)
    t = RigidTransform(
        rotation_deg=angle * axis,  # not a true axis-angle, magnitude still <= 10 per axis
        translation_mm=rng.uniform(-10, 10, 3),
        pivot=static.reshape(-1, 3).mean(axis=0),
    )
    moving = apply_rigid(t, static)
    res = sbr_rigid(moving, static)
    assert res.converged
    assert res.final_cost_mm < 1.0
    recovered = apply_rigid(res.transform, moving)
    assert np.linalg.norm(recovered - static, axis=2).mean() < 1.0


def parent_stages(cfg):
    """Stand-in for `nelder_mead` in `sbr_rigid`: the two scipy Nelder-Mead
    stages, coarse then fine, set up from ``cfg`` as SBR ran them before."""
    stages = iter([(cfg.coarse_step_deg, cfg.coarse_step_mm), (cfg.fine_step_deg, cfg.fine_step_mm)])

    def stage(f, simplex, maxfev, xatol, fatol):
        step_deg, step_mm = next(stages)
        best_x = np.asarray(simplex[0], dtype=np.float64)
        sim = np.tile(best_x, (7, 1))
        steps = np.array([step_deg] * 3 + [step_mm] * 3)
        for i in range(6):
            sim[i + 1, i] += steps[i]
        res = minimize(f, best_x, method="Nelder-Mead",
                       options={"initial_simplex": sim, "maxfev": cfg.max_cost_evaluations,
                                "fatol": cfg.cost_tolerance_mm, "xatol": 1e-4})
        return res.x, res.fun, res.nfev
    return stage


def result_bytes(res):
    t = res.transform
    return (t.rotation_deg.tobytes(), t.translation_mm.tobytes(), t.pivot.tobytes(),
            np.float64(res.initial_cost_mm).tobytes(), np.float64(res.final_cost_mm).tobytes(),
            res.iterations, res.converged)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sbr_matches_scipy_stages(seed, monkeypatch):
    static = arc_bundle(seed).streamlines
    rng = np.random.default_rng(seed + 200)
    pairs = [
        (apply_rigid(rand_transform(rng, 10.0, 10.0), static), static, RunConfig()),
        (arc_bundle(seed + 10, count=7, center=(3.0, -2.0, 1.0)).streamlines, static[:5],
         RunConfig(max_cost_evaluations=23)),
        (static.copy(), static, RunConfig(cost_tolerance_mm=0.0, max_cost_evaluations=60)),
    ]
    for moving, fixed, cfg in pairs:
        ours = sbr_rigid(moving, fixed, cfg)
        with monkeypatch.context() as m:
            m.setattr(registration, "nelder_mead", parent_stages(cfg))
            assert result_bytes(sbr_rigid(moving, fixed, cfg)) == result_bytes(ours)


def test_already_aligned_returns_identity():
    static = arc_bundle(7).streamlines
    res = sbr_rigid(static, static)
    assert res.converged
    assert res.transform.is_identity()
    assert res.final_cost_mm <= 1e-3


def test_no_improvement_returns_identity_unconverged():
    # the matmul expansion leaves a cost of about 3e-8 mm at zero distance;
    # with a zero tolerance the optimizer runs, and no simplex step beats it
    static = arc_bundle(8).streamlines
    cfg = RunConfig(cost_tolerance_mm=0.0)
    res = sbr_rigid(static.copy(), static, cfg)
    assert res.converged is False
    assert res.transform.is_identity()
    assert res.final_cost_mm == res.initial_cost_mm
    assert res.iterations == 1 + 2 * cfg.max_cost_evaluations  # both stages ran out


def test_empty_sets_rejected():
    with pytest.raises(ValueError):
        sbr_rigid(np.empty((0, 21, 3)), np.zeros((2, 21, 3)))


def test_cost_never_increases():
    static = arc_bundle(9).streamlines
    moving = apply_rigid(
        RigidTransform([4.0, -3.0, 2.0], [5.0, 1.0, -2.0], np.zeros(3)), static)
    res = sbr_rigid(moving, static)
    assert res.final_cost_mm <= res.initial_cost_mm
    assert res.iterations > 0


def test_lsnr_absent_when_subject_far_away():
    bundle = arc_bundle(10)
    center = bundle.streamlines.reshape(-1, 3).mean(axis=0)
    far_subject = bundle.streamlines + 5000.0
    out = lsnr(center, 12.0, bundle.streamlines, far_subject)
    assert out.absent
    assert out.registration.transform.is_identity()
    assert np.isnan(out.registration.final_cost_mm)
    assert len(out.neighborhood) == 0


def test_lsnr_recovers_local_shift():
    bundle = arc_bundle(11, count=40)
    arr = bundle.streamlines
    center = arr.reshape(-1, 3).mean(axis=0)
    radius = float(np.linalg.norm(arr.reshape(-1, 3) - center, axis=1).max())
    shift = RigidTransform([2.0, -1.0, 1.5], [2.0, -2.0, 1.0], center)
    subject = apply_rigid(shift, arr)
    out = lsnr(center, radius, arr, subject)
    assert not out.absent
    assert out.registration.converged
    fixed = apply_rigid(out.registration.transform, subject[out.neighborhood.streamline_indices])
    # neighborhood contains the whole moved bundle; registration undoes the move
    assert len(out.neighborhood) == len(arr)
    assert np.linalg.norm(fixed - arr, axis=2).mean() < 0.5


def test_neighborhood_center_metadata():
    lines = random_streamlines(np.random.default_rng(5), 10)
    nb = extract_neighborhood(lines, [0.0, 0.0, 0.0], 100.0, bundle_id="x")
    assert nb.bundle_id == "x"
    assert nb.radius_mm == 100.0
    assert len(nb) == 10
