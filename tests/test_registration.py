import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import swmparc.registration as registration
from swmparc.distances import bundle_min_distance
from swmparc.geometry import Bundle
from swmparc.registration import (
    RigidCost,
    RigidTransform,
    apply_rigid,
    euler_xyz_axes,
    euler_xyz_matrix,
    extract_neighborhood,
    lsnr,
    sbr_rigid,
)
from swmparc.synth import ArcSpec, generate_bundle

from conftest import random_streamlines, reference_bfgs, registration_scenes


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


def inverse(t: RigidTransform) -> RigidTransform:
    """Oracle: q -> R^T (q - pivot - t) + pivot, the same pivot with new angles."""
    r_inv = t.rotation_matrix().T
    angles = Rotation.from_matrix(r_inv).as_euler("XYZ", degrees=True)
    return RigidTransform(angles, r_inv @ -t.translation_mm, t.pivot)


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Oracle: the transform equivalent to applying ``inner`` then ``outer``."""
    m = outer.matrix() @ inner.matrix()
    angles = Rotation.from_matrix(m[:3, :3]).as_euler("XYZ", degrees=True)
    return RigidTransform(angles, m[:3, 3], np.zeros(3))


def test_inverse_round_trip(rng):
    pts = rng.uniform(-50, 50, (20, 3))
    for _ in range(10):
        t = rand_transform(rng)
        back = inverse(t).apply(t.apply(pts))
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
    oracle = Rotation.from_euler("XYZ", [ax, ay, az], degrees=True).as_matrix()
    assert np.abs(euler_xyz_matrix(ax, ay, az) - oracle).max() < 1e-12
    transform = RigidTransform([ax, ay, az], np.zeros(3), np.zeros(3))
    assert transform.rotation_matrix().tobytes() == euler_xyz_matrix(ax, ay, az).tobytes()


@settings(max_examples=100, deadline=None)
@given(angle, angle, angle)
def test_rotation_derivatives_match_central_differences(ax, ay, az):
    # d R / d angle r (radians) is [w_r]x R
    rotation = euler_xyz_matrix(ax, ay, az)
    h = 1e-5
    for r, (wx, wy, wz) in enumerate(euler_xyz_axes(ax, ay)):
        up, down = [ax, ay, az], [ax, ay, az]
        up[r] += h
        down[r] -= h
        numeric = (euler_xyz_matrix(*up) - euler_xyz_matrix(*down)) / math.radians(2 * h)
        cross = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
        assert np.abs(cross @ rotation - numeric).max() < 1e-6


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


def result_bytes(res):
    t = res.transform
    return (t.rotation_deg.tobytes(), t.translation_mm.tobytes(), t.pivot.tobytes(),
            np.float64(res.initial_cost_mm).tobytes(), np.float64(res.final_cost_mm).tobytes(),
            res.iterations, res.converged)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rigid_cost_gradient_matches_central_differences(data):
    n = data.draw(st.integers(1, 20), label="n")
    m = data.draw(st.integers(1, 20), label="m")
    k = data.draw(st.integers(1, 10).map(lambda h: 2 * h + 1), label="K")
    degrees = data.draw(st.lists(st.floats(-60.0, 60.0), min_size=3, max_size=3), label="degrees")
    mm = data.draw(st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3), label="mm")
    x = np.array(degrees + mm)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cost = RigidCost(random_streamlines(rng, n, k=k), random_streamlines(rng, m, k=k))
    value = cost(x)
    evaluations = cost.evaluations
    gradient = cost.gradient(x)
    assert cost.evaluations == evaluations
    h = 1e-5
    numeric = np.empty(6)
    for r in range(6):
        step = np.zeros(6)
        step[r] = h
        up, down = cost(x + step), cost(x - step)
        # away from argmin and orientation switches the cost is smooth on
        # [x - h, x + h], and its second difference is small
        if abs(up - 2 * value + down) > 1e-6 * h:
            return
        numeric[r] = (up - down) / (2 * h)
    assert np.abs(gradient - numeric).max() <= 1e-5 * max(np.abs(numeric).max(), 1e-3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@example(0, 0)
def test_sbr_same_bits_when_every_streamline_is_reversed(seed, move_seed):
    static = arc_bundle(seed % 1000, count=12).streamlines
    rng = np.random.default_rng(move_seed)
    moving = apply_rigid(rand_transform(rng, 10.0, 10.0), static)
    moving += rng.normal(0.0, 0.3, static.shape)
    forward = sbr_rigid(moving, static)
    backward = sbr_rigid(np.ascontiguousarray(moving[:, ::-1]),
                         np.ascontiguousarray(static[:, ::-1]))
    assert result_bytes(backward) == result_bytes(forward)


def test_sbr_takes_gradients_at_accepted_steps_only(monkeypatch):
    # the criterion-4 scenes: sbr_rigid, whose line search calls the cost
    # alone, ends at the same pose bits, cost and evaluation count as the
    # descent that took the gradient at every trial (`reference_bfgs`), and
    # takes fewer gradients than that descent
    taken = [0]
    gradient = RigidCost.gradient

    def counted(self, x):
        taken[0] += 1
        return gradient(self, x)

    ours = theirs = 0
    for moving, static, _ in registration_scenes(8):
        with monkeypatch.context() as mp:
            mp.setattr(RigidCost, "gradient", counted)
            res = sbr_rigid(moving, static)
        ours += taken[0]
        taken[0] = 0
        cost = RigidCost(moving, static)
        x0 = np.zeros(6)
        f0 = cost(x0)
        x, fun, nfev = reference_bfgs(lambda x: (cost(x), cost.gradient(x)), x0, f0,
                                      cost.gradient(x0), registration._SBR_SCALE,
                                      registration.SBR_MAX_EVALUATIONS, registration.SBR_XATOL,
                                      registration.SBR_COST_TOLERANCE_MM)
        theirs += 1 + nfev
        assert res.transform.rotation_deg.tobytes() == x[:3].tobytes()
        assert res.transform.translation_mm.tobytes() == x[3:].tobytes()
        assert (res.final_cost_mm, res.iterations) == (fun, cost.evaluations)
    assert ours < theirs


def test_gradient_needs_a_call_at_its_point(rng):
    cost = RigidCost(random_streamlines(rng, 5), random_streamlines(rng, 6))
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError):
        cost.gradient(x)
    cost(x)
    cost(np.zeros(6))
    with pytest.raises(ValueError):
        cost.gradient(x)
    cost(x)
    assert cost.gradient(x).shape == (6,) and cost.evaluations == 3


def test_sbr_xatol_saves_evaluations_at_the_same_pose(monkeypatch):
    # the criterion-4 scenes registered at the shipped stop rule and at the
    # former 1e-4: the looser rule saves evaluations, not accuracy
    shipped = registration.SBR_XATOL
    scenes = list(registration_scenes())
    runs = {}
    for xatol in (shipped, 1e-4):
        monkeypatch.setattr(registration, "SBR_XATOL", xatol)
        runs[xatol] = [sbr_rigid(moving, static) for moving, static, _ in scenes]
    spent = sum(r.iterations for r in runs[shipped])
    # one BFGS descent per registration: 1,141 evaluations (one Nelder-Mead
    # run spent 6,539)
    assert spent <= 1300
    assert sum(r.iterations for r in runs[1e-4]) >= 1.3 * spent
    for (moving, _, _), ours, finer in zip(scenes, runs[shipped], runs[1e-4]):
        apart = apply_rigid(ours.transform, moving) - apply_rigid(finer.transform, moving)
        assert np.linalg.norm(apart, axis=2).mean() <= 0.05


def test_already_aligned_returns_identity():
    static = arc_bundle(7).streamlines
    res = sbr_rigid(static, static)
    assert res.converged
    assert res.transform.is_identity()
    assert res.final_cost_mm <= 1e-3


def test_no_improvement_returns_identity_unconverged(monkeypatch):
    # the matmul expansion leaves a cost of about 3e-8 mm at zero distance;
    # with a zero tolerance the optimizer runs, and no step beats it
    static = arc_bundle(8).streamlines
    monkeypatch.setattr(registration, "SBR_COST_TOLERANCE_MM", 0.0)
    res = sbr_rigid(static.copy(), static)
    assert res.converged is False
    assert res.transform.is_identity()
    assert res.final_cost_mm == res.initial_cost_mm
    # the descent ends by itself, not at the budget: the first call, then
    # the first step halved until no parameter moves by more than SBR_XATOL
    halvings = math.ceil(math.log2(registration.SBR_STEP_MM / registration.SBR_XATOL))
    assert res.iterations <= 2 + halvings < registration.SBR_MAX_EVALUATIONS


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
    fixed = apply_rigid(out.registration.transform, subject[out.neighborhood])
    # neighborhood contains the whole moved bundle; registration undoes the move
    assert len(out.neighborhood) == len(arr)
    assert np.linalg.norm(fixed - arr, axis=2).mean() < 0.5


def test_neighborhood_is_an_ascending_index_array():
    lines = random_streamlines(np.random.default_rng(5), 10)
    nb = extract_neighborhood(lines, [0.0, 0.0, 0.0], 100.0)
    assert nb.dtype == np.int64
    assert nb.tolist() == list(range(10))
