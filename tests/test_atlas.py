import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swmparc.atlas import (
    FEATURE_DOMAINS,
    AtlasModel,
    FeatureInterval,
    build_atlas,
    build_bundle_model,
    compute_feature_samples,
    feature_interval,
    feature_table,
    reference_streamline,
)
from swmparc.clustering import quickbundles
from swmparc.config import FEATURE_NAMES
from swmparc.distances import mmea, pairwise_mmea
from swmparc.geometry import Bundle, arc_lengths, bundle_barycenter, midpoints
from swmparc.parcellation import compute_features
from swmparc.synth import ArcSpec, generate_bundle

from conftest import random_streamlines


def arc_bundle(seed=0, count=50, jitter=0.5):
    spec = ArcSpec("b", (0.0, 0.0, 0.0), 10.0, 170.0, (20.0, 40.0), jitter, count, seed)
    return generate_bundle(spec)


def test_reference_is_single_cluster_centroid(rng):
    lines = random_streamlines(rng, 15)
    ref = reference_streamline(lines)
    clusters = quickbundles(lines, math.inf)
    assert len(clusters) == 1
    assert np.array_equal(ref, clusters[0].centroid)


def test_feature_samples_match_hand_computation():
    bundle = arc_bundle(count=12)
    arr = bundle.streamlines
    samples = compute_feature_samples(bundle)
    assert np.allclose(samples["length_mm"], arc_lengths(arr))
    center = bundle_barycenter(arr)
    assert np.allclose(samples["dist_to_barycenter_mm"],
                       np.linalg.norm(midpoints(arr) - center, axis=1))
    # leave-one-out nearest neighbor, never the trivial self-distance
    for i in range(len(arr)):
        others = [mmea(arr[i], arr[j]) for j in range(len(arr)) if j != i]
        assert samples["mmea_mm"][i] == pytest.approx(min(others), abs=1e-6)
        assert samples["mmea_mm"][i] > 0.0


@st.composite
def parity_bundles(draw):
    """(bundle, collinear): a jittered arc bundle with some members replaced
    by their straight chords, or (collinear) parallel straight segments
    along x, whose reference is collinear."""
    count = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        lines = np.zeros((count, 21, 3))
        for i, (start, length) in enumerate(zip(rng.uniform(-5.0, 5.0, count),
                                                rng.uniform(20.0, 60.0, count))):
            lines[i, :, 0] = np.linspace(start, start + length, 21)
            lines[i, :, 1:] = rng.uniform(-2.0, 2.0, 2)
        return Bundle("p", lines), True
    spec = ArcSpec("p", (0.0, 0.0, 0.0), draw(st.floats(6.0, 15.0)),
                   draw(st.floats(40.0, 300.0)),
                   (draw(st.floats(0.0, 360.0)), draw(st.floats(0.0, 180.0))),
                   draw(st.floats(0.0, 1.5)), count, seed)
    lines = generate_bundle(spec).streamlines.copy()
    for i in draw(st.sets(st.integers(0, count - 1))):
        lines[i] = np.linspace(lines[i, 0], lines[i, -1], 21)
    return Bundle("p", lines), False


ANGLES = ("plane_angle_deg", "direction_angle_deg", "shape_angle_deg")


@settings(max_examples=60, deadline=None)
@given(parity_bundles())
def test_feature_samples_are_the_members_subject_side_rows(case):
    """Atlas samples and subject candidates share feature conventions: the
    members labeled as one batch against their own bundle's model give, bit
    for bit, the samples once flagged rows are dropped; mmea is the
    leave-one-out minimum instead of the distance to the model bundle."""
    bundle, collinear = case
    arr = bundle.streamlines
    model = build_bundle_model(bundle)
    assert model.reference_normal_degenerate or not collinear
    samples = compute_feature_samples(bundle)
    d = pairwise_mmea(arr, arr)
    values, degenerate = feature_table(arr, d.min(axis=1), model)
    for f in FEATURE_NAMES:
        if f != "mmea_mm":
            assert values[f][~degenerate[f]].tobytes() == samples[f].tobytes(), f
    np.fill_diagonal(d, np.inf)
    assert d.min(axis=1).tobytes() == samples["mmea_mm"].tobytes()
    # one candidate at a time flags the same features, with the angles equal
    # bit for bit and the other values up to the last bits of the mmea
    # kernel's matrix product over one row instead of n
    for row, line in enumerate(arr):
        fv, flagged = compute_features(line, model)
        assert flagged == tuple(f for f in FEATURE_NAMES if degenerate[f][row])
        for f in FEATURE_NAMES:
            if f in flagged:
                continue
            if f in ANGLES:
                assert np.float64(fv[f]).tobytes() == values[f][row].tobytes(), f
            else:
                assert fv[f] == pytest.approx(values[f][row], rel=1e-12, abs=1e-5), f


def test_feature_samples_all_within_domains():
    samples = compute_feature_samples(arc_bundle(count=30))
    for f in FEATURE_NAMES:
        lo, hi = FEATURE_DOMAINS[f]
        if len(samples[f]):
            assert samples[f].min() >= lo
            assert samples[f].max() <= hi


def test_interval_validation():
    with pytest.raises(ValueError):
        FeatureInterval(2.0, 1.0, "fitted")
    iv = FeatureInterval(1.0, 3.0, "fitted")
    got = iv.contains(np.array([0.5, 1.0, 2.0, 3.0, 3.5]))
    assert got.tolist() == [False, True, True, True, False]


def test_fitted_interval_brackets_most_samples(rng):
    x = rng.normal(40.0, 3.0, 500)
    interval, fit = feature_interval("length_mm", x)
    assert interval.source == "fitted"
    assert fit is not None
    inside = np.mean((x >= interval.low) & (x <= interval.high))
    assert 0.7 < inside < 0.9


def test_interval_clamped_to_domain(rng):
    x = np.abs(rng.normal(0.0, 3.0, 300))  # q10 of a fitted normal may be < 0
    interval, _ = feature_interval("dist_to_barycenter_mm", x)
    assert interval.low >= 0.0
    assert interval.high <= FEATURE_DOMAINS["dist_to_barycenter_mm"][1]


def test_mmea_interval_floor_is_zero(rng):
    x = np.abs(rng.normal(2.0, 0.3, 200)) + 0.5
    interval, _ = feature_interval("mmea_mm", x)
    # a candidate closer to the bundle than its own members must pass
    assert interval.low == 0.0
    assert interval.high > 0.0


def test_small_sample_uses_empirical(rng):
    x = rng.normal(10.0, 1.0, 5)
    interval, fit = feature_interval("length_mm", x)
    assert interval.source == "empirical"
    assert fit is None
    assert interval.low == pytest.approx(np.quantile(x, 0.1))
    assert interval.high == pytest.approx(np.quantile(x, 0.9))


def test_constant_samples_widen_empirical():
    x = np.full(20, 7.0)
    interval, _ = feature_interval("length_mm", x)
    assert interval.source == "empirical"
    assert interval.low < 7.0 < interval.high


def test_under_two_samples_uninformative():
    interval, fit = feature_interval("plane_angle_deg", np.array([4.0]))
    assert not interval.informative
    assert fit is None
    assert interval.low == 0.0 and interval.high == 90.0


def test_threshold_source_empirical(rng):
    x = rng.normal(10.0, 1.0, 300)
    interval, fit = feature_interval("length_mm", x, source="empirical")
    assert interval.source == "empirical"
    assert fit is None


def test_build_bundle_model_fields():
    bundle = arc_bundle(count=40)
    model = build_bundle_model(bundle)
    assert model.id == "b"
    assert model.radius_mm > 0
    assert model.reference.shape == (21, 3)
    assert set(model.thresholds) == set(FEATURE_NAMES)
    assert set(model.fits) == set(FEATURE_NAMES)
    assert not model.reference_normal_degenerate
    for f in FEATURE_NAMES:
        iv = model.thresholds[f]
        assert iv.low < iv.high


def test_bundle_retention_near_decile_expectation():
    """With 50 members, the mean in-interval fraction across the six features
    sits near the 0.8 expectation of a q10-q90 interval."""
    bundle = arc_bundle(seed=3, count=50)
    model = build_bundle_model(bundle)
    samples = compute_feature_samples(bundle, model)
    rates = []
    for f in FEATURE_NAMES:
        iv = model.thresholds[f]
        rates.append(np.mean((samples[f] >= iv.low) & (samples[f] <= iv.high)))
    assert 0.75 <= np.mean(rates) <= 0.95


def test_build_atlas_checks():
    b1 = arc_bundle(seed=1)
    with pytest.raises(ValueError, match="duplicate"):
        build_atlas([b1, b1])
    with pytest.raises(ValueError, match="at least one"):
        build_atlas([])
    with pytest.raises(ValueError, match="too small"):
        build_bundle_model(Bundle("tiny", b1.streamlines[:1]))
    atlas = build_atlas([b1])
    assert atlas.resample_k == 21
    assert atlas.bundle_map()["b"].id == "b"
    assert atlas.all_streamlines().shape == (50, 21, 3)


def test_atlas_model_rejects_duplicate_ids():
    m = build_bundle_model(arc_bundle())
    with pytest.raises(ValueError):
        AtlasModel(bundles=(m, m), resample_k=21)
