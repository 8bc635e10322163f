import numpy as np
import pytest

from swmparc.geometry import (
    Bundle,
    angles_to_direction,
    angles_to_plane,
    arc_lengths,
    bundle_barycenter,
    bundle_radius,
    direction_vectors,
    midpoints,
    plane_normals,
    resample,
    resample_all,
    shape_angles,
)

from conftest import make_arc, random_rotation_matrix, random_streamlines


def test_resample_preserves_endpoints_and_count():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 2.0, 0], [5.0, 2.0, 0]])
    out = resample(pts, 21)
    assert out.shape == (21, 3)
    assert np.array_equal(out[0], pts[0])
    assert np.array_equal(out[-1], pts[-1])


def test_resample_equal_spacing_on_straight_line():
    pts = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    out = resample(pts, 11)
    seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert np.allclose(seg, 1.0, atol=1e-12)


def test_resample_drops_duplicate_points():
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [2.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]])
    out = resample(pts, 5)
    assert np.allclose(np.linalg.norm(np.diff(out, axis=0), axis=1), 1.0)


def test_resample_rejects_bad_input():
    with pytest.raises(ValueError):
        resample(np.zeros((1, 3)), 5)
    with pytest.raises(ValueError):
        resample(np.zeros((4, 2)), 5)
    with pytest.raises(ValueError):
        resample(np.zeros((3, 3)), 5)  # all points identical
    with pytest.raises(ValueError):
        resample(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), 5)
    with pytest.raises(ValueError):
        resample(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1)


def test_arc_length_matches_analytic_semicircle():
    # 2000-point polyline of a radius-10 semicircle: length ~ pi * 10
    dense = make_arc(radius=10.0, span_deg=180.0, k=2000)
    assert arc_lengths(dense[None])[0] == pytest.approx(np.pi * 10.0, rel=1e-5)
    batch = resample_all([dense, dense], 21)
    assert np.allclose(arc_lengths(batch), arc_lengths(resample(dense, 21)[None]))


def test_midpoint_is_exact_center_sample():
    pts = resample(make_arc(k=101), 21)
    assert np.array_equal(midpoints(pts[None])[0], pts[10])
    with pytest.raises(ValueError):
        midpoints(pts[None, :20])
    batch = np.stack([pts, pts[::-1]])
    assert np.array_equal(midpoints(batch)[0], pts[10])


def test_semicircle_shape_angle_is_90_degrees():
    pts = resample(make_arc(radius=10.0, span_deg=180.0, k=2001), 21)
    assert shape_angles(pts[None])[0][0] == pytest.approx(90.0, abs=0.5)


def test_straight_segment_shape_angle_is_180_exactly():
    pts = resample(np.array([[0.0, 0, 0], [30.0, 0, 0]]), 21)
    assert shape_angles(pts[None])[0][0] == 180.0


def test_shape_angle_batch_flags_degenerate():
    straight = resample(np.array([[0.0, 0, 0], [30.0, 0, 0]]), 5)
    # first point equals the midpoint: zero-length arm
    weird = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    angles, degen = shape_angles(np.stack([straight, weird]))
    assert angles[0] == 180.0 and not degen[0]
    assert np.isnan(angles[1]) and degen[1]


def test_semicircle_direction_vector_points_to_chord_center():
    # midpoint (0, r, 0), endpoints (r, 0, 0) and (-r, 0, 0): mean offset (0, -r, 0)
    pts = make_arc(radius=10.0, span_deg=180.0, k=21)
    d = direction_vectors(pts[None])[0]
    assert np.allclose(d, [0.0, -10.0, 0.0], atol=1e-9)


def test_plane_normal_of_planar_curve():
    pts = make_arc(radius=10.0, span_deg=140.0, k=21)
    normals, degenerate = plane_normals(pts[None])
    assert not degenerate[0]
    assert angles_to_plane(normals, np.array([0.0, 0.0, 1.0]))[0] < 1.0
    # sign normalization: first significant component positive
    normal = normals[0]
    assert normal[np.argmax(np.abs(normal) > 1e-9)] > 0


def test_plane_normal_flags_collinear_points():
    pts = resample(np.array([[0.0, 0, 0], [10.0, 0, 0]]), 21)
    _, degenerate = plane_normals(pts[None])
    assert degenerate[0]


def test_angle_between_planes_folds_to_90():
    normals = np.array([[-1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
    angles = angles_to_plane(normals, np.array([1.0, 0, 0]))
    assert angles[0] == 0.0 and angles[1] == 90.0
    assert angles[2] == pytest.approx(45.0)


def test_angle_between_directions_keeps_orientation():
    directions = np.array([[-1.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
    angles, degenerate = angles_to_direction(directions, np.array([1.0, 0, 0]))
    assert angles[0] == 180.0 and angles[1] == 0.0
    # a zero direction, or a zero reference, has no angle
    assert np.isnan(angles[2]) and degenerate.tolist() == [False, False, True]
    angles, degenerate = angles_to_direction(directions, np.zeros(3))
    assert np.isnan(angles).all() and degenerate.all()


def test_features_rigid_invariant(rng):
    """Length and shape are invariant; plane/direction angles are invariant
    when the reference moves with the streamline."""
    lines = random_streamlines(rng, 20)
    ref_n = np.array([0.0, 0.0, 1.0])
    ref_d = np.array([1.0, 2.0, 0.5])
    for _ in range(200):
        R = random_rotation_matrix(rng)
        t = rng.uniform(-50, 50, 3)
        moved = lines @ R.T + t
        assert np.allclose(arc_lengths(moved), arc_lengths(lines), rtol=1e-6)
        a0, _ = shape_angles(lines)
        a1, _ = shape_angles(moved)
        assert np.allclose(a1, a0, rtol=1e-6, atol=1e-6)
        n0, deg0 = plane_normals(lines[:3])
        n1, deg1 = plane_normals(moved[:3])
        assert np.array_equal(deg0, deg1)
        assert np.allclose(angles_to_plane(n0, ref_n), angles_to_plane(n1, R @ ref_n),
                           rtol=0.0, atol=1e-6)
        assert np.allclose(angles_to_direction(direction_vectors(lines[:3]), ref_d)[0],
                           angles_to_direction(direction_vectors(moved[:3]), R @ ref_d)[0],
                           rtol=0.0, atol=1e-6)


def test_bundle_validation_and_summary():
    arr = np.stack([make_arc(k=21), make_arc(k=21, center=(1, 0, 0))])
    b = Bundle("u1", arr)
    assert len(b) == 2
    with pytest.raises(ValueError):
        Bundle("bad", np.empty((0, 21, 3)))
    with pytest.raises(ValueError):
        Bundle("bad", np.zeros((2, 21, 2)))

    center = bundle_barycenter(arr)
    assert np.allclose(center, arr.reshape(-1, 3).mean(axis=0))
    r = bundle_radius(arr)
    assert r == pytest.approx(np.linalg.norm(arr.reshape(-1, 3) - center, axis=1).max())
    # every point inside the sphere
    assert np.all(np.linalg.norm(arr.reshape(-1, 3) - center, axis=1) <= r + 1e-12)


# -- resample_all against the stack of scalar resample calls ------------------

from hypothesis import given, settings
from hypothesis import strategies as st

import swmparc.geometry as geometry


def reference_resample_all(streamlines, k):
    """The stack of scalar `resample` calls that `resample_all` replaced,
    frozen as its oracle; an error names the first streamline that fails."""
    if k < 2:
        raise ValueError("k must be >= 2")
    out = []
    for i, s in enumerate(streamlines):
        try:
            out.append(resample(s, k))
        except ValueError as e:
            raise ValueError(f"streamline {i}: {e}") from None
    return np.stack(out) if out else np.empty((0, k, 3))


def outcome(fn, streamlines, k):
    """(result bytes, None) or (None, error text)."""
    try:
        out = fn(streamlines, k)
    except ValueError as e:
        return None, str(e)
    return (out.shape, out.dtype.str, out.tobytes()), None


BAD_LINES = {
    "nan": lambda p: np.where(np.arange(len(p))[:, None] == len(p) // 2, np.nan, p),
    "inf": lambda p: np.where(np.arange(len(p))[:, None] == len(p) - 1, -np.inf, p),
    "one point": lambda p: p[:1],
    "no points": lambda p: p[:0],
    "all equal": lambda p: np.repeat(p[:1], len(p), axis=0),
    "two columns": lambda p: p[:, :2],
    "flat": lambda p: p.ravel(),
}


@st.composite
def polyline_sets(draw):
    """1-12 polylines of 2-150 points near an origin up to 1e5 mm, whose
    segments mix ordinary steps, exact duplicates and 1e-12 mm steps, or unit
    steps along x with y = z = -0.0, where resampling targets fall on the
    points themselves; an optional bad polyline replaces one of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = np.array(draw(st.lists(st.sampled_from(["step", "duplicate", "tiny"]),
                                   min_size=1, max_size=3, unique=True)))
    lines = []
    for m in draw(st.lists(st.integers(2, 150), min_size=1, max_size=12)):
        if draw(st.booleans()) and draw(st.booleans()):
            line = np.full((m, 3), -0.0)
            line[:, 0] = draw(st.integers(-100, 100)) + np.arange(m)
            lines.append(line)
            continue
        origin = draw(st.sampled_from([0.0, 1.0, 1e3, -1e5, 1e5]))
        kind = rng.choice(kinds, m - 1)
        steps = rng.normal(0.0, rng.uniform(0.1, 10.0), (m - 1, 3))
        steps[kind == "duplicate"] = 0.0
        tiny = kind == "tiny"
        steps[tiny] = 1e-12 * rng.choice([-1.0, 1.0], (tiny.sum(), 3))
        start = origin + rng.uniform(-50.0, 50.0, (1, 3))
        lines.append(np.concatenate([start, start + np.cumsum(steps, axis=0)]))
    fault = draw(st.none() | st.sampled_from(sorted(BAD_LINES)))
    if fault is not None:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = BAD_LINES[fault](lines[i])
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=polyline_sets(), k=st.sampled_from([3, 5, 21, 51]))
def test_resample_all_matches_the_scalar_stack_bit_for_bit(lines, k):
    assert outcome(resample_all, lines, k) == outcome(reference_resample_all, lines, k)


def reference_resample(points, k):
    """`resample` as it was before it took its segment norms in one pass and
    skipped the dedupe when no segment is 0, frozen as its oracle."""
    if k < 2:
        raise ValueError("k must be >= 2")
    pts = geometry.as_points(points)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 0.0
    pts = pts[keep]
    if len(pts) < 2:
        raise ValueError("zero-length streamline")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("zero-length streamline")
    target = np.linspace(0.0, total, k)
    out = np.empty((k, 3))
    for dim in range(3):
        out[:, dim] = np.interp(target, cum, pts[:, dim])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


@settings(max_examples=300, deadline=None)
@given(lines=polyline_sets(), k=st.sampled_from([2, 3, 4, 5, 20, 21, 50, 51]))
def test_resample_matches_its_frozen_reference_bit_for_bit(lines, k):
    # duplicates, 1e-12 mm steps, 2-point lines and bad lines come from the
    # strategy; k = 2 and even k put no target on a medial point
    ends = [line[[0, -1]] for line in lines if line.ndim == 2 and len(line) >= 2]
    for line in lines + ends:
        assert outcome(resample, line, k) == outcome(reference_resample, line, k)


def test_resample_all_matches_the_scalar_stack_over_many_chunks(monkeypatch):
    rng = np.random.default_rng(12)
    lines = [np.cumsum(rng.normal(0.0, 2.0, (m, 3)), axis=0) for m in rng.integers(2, 150, 60)]
    lines[7][3] = lines[7][2]
    lines[8][2:] = lines[8][1] + 1e-12 * np.arange(1, len(lines[8]) - 1)[:, None]
    calls = []
    chunk = geometry._resample_chunk
    monkeypatch.setattr(geometry, "_resample_chunk",
                        lambda arrays, *rest: calls.append(len(arrays)) or chunk(arrays, *rest))
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 600)
    for k in (3, 21):
        calls.clear()
        assert outcome(resample_all, lines, k) == outcome(reference_resample_all, lines, k)
        assert len(calls) >= 10 and sum(calls) == len(lines)
    # the first bad streamline is named by its index in the whole input,
    # however the chunks fall
    lines[41] = np.repeat(lines[41][:1], 5, axis=0)
    lines[50] = lines[50][:1]
    with pytest.raises(ValueError, match=r"^streamline 41: zero-length streamline$"):
        resample_all(lines, 21)


def test_knot_search_is_exact_one_ulp_from_the_targets():
    # knots on, and one ulp either side of, every target: the starting count
    # ceil(cum / step) is then off by one in both directions for some knots
    totals = np.array([1.0, 3.7, 1e5 / 3, 2.0 ** 0.5 * 1e-3, 987.654321])
    for k in (3, 5, 21, 51):
        x = np.linspace(0.0, totals, k, axis=1)
        cum = np.sort(np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)],
                                     axis=1), axis=1)
        cum = np.clip(cum, 0.0, totals[:, None])
        expected = (cum[:, None, :] <= x[:, :, None]).sum(axis=2) - 1
        assert np.array_equal(geometry._last_at_or_below(cum, x), expected)


def test_resample_all_names_the_first_bad_streamline():
    good = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 2.0, 0]])
    same = np.zeros((3, 3))
    nan = good.copy()
    nan[1, 2] = np.nan
    cases = [
        ([good, same, nan], "streamline 1: zero-length streamline"),
        ([good, nan, same], "streamline 1: streamline contains non-finite coordinates"),
        ([good, good, good[:1], nan], "streamline 2: streamline needs at least 2 points"),
        ([good, nan, good[:, :2]], "streamline 1: streamline contains non-finite coordinates"),
        ([good, good[:, :2], nan], "streamline 1: streamline must be an (N, 3) array"),
    ]
    for lines, message in cases:
        with pytest.raises(ValueError) as caught:
            resample_all(lines, 21)
        assert str(caught.value) == message


def test_resample_all_checks_k_before_an_empty_input():
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match="k must be >= 2"):
            resample_all([], k)
    assert resample_all([], 5).shape == (0, 5, 3)
