"""Shared fixtures: small deterministic geometry helpers."""
import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from swmparc.fitting import FAMILIES, fit_family
from swmparc.geometry import bundle_barycenter, resample
from swmparc.registration import RigidTransform, apply_rigid
from swmparc.synth import ArcSpec, generate_bundle

# filled by the acceptance tests; echoed after the run so the per-criterion
# verdict lines are visible even when pytest captures stdout
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def mixed_arcs(seed=0, count=300, jitter=0.5):
    """A jittered arc bundle (K = 21) with each line reversed at random."""
    spec = ArcSpec("b", (0.0, 0.0, 0.0), 10.0, 170.0, (20.0, 40.0), jitter, count, seed)
    lines = generate_bundle(spec).streamlines.copy()
    reverse = np.random.default_rng(seed).random(count) < 0.5
    lines[reverse] = lines[reverse, ::-1]
    return lines


def palindrome(line):
    """The line's first half and its mirror, x_k = x_(K-1-k): its direct and
    flipped MDFs to any centroid are equal."""
    half = len(line) // 2
    return np.concatenate((line[:half + 1], line[:half][::-1]))


def fit_all_families(samples, min_samples=8):
    """Every family's fit of one sample set (None where it is unavailable):
    the oracle that `select_best`'s choice is checked against."""
    return {family: fit_family(samples, family, min_samples) for family in FAMILIES}


def fit_bits(fit):
    """A fit as family, parameter names and the bytes of its numbers, so
    that two fits compare equal only when they are equal bit for bit."""
    if fit is None:
        return None
    values = [*fit.params.values(), fit.sse, fit.shift, *(fit.support or ())]
    return fit.family, tuple(fit.params), np.array(values).tobytes()


def reference_bfgs(fg, x0, f0, g0, scale, maxfev, xatol, fatol):
    """The descent as it ran when every line-search trial also computed the
    gradient: ``fg(x)`` returns the cost and the gradient.  The oracle of
    `bfgs`, which takes the gradient at accepted steps only."""
    scale = np.asarray(scale, dtype=np.float64)
    x, f = np.array(x0, dtype=np.float64), float(f0)
    g = np.asarray(g0, dtype=np.float64) * scale
    h = None
    nfev = 0
    while True:
        p = -g / np.linalg.norm(g) if h is None else -(h @ g)
        slope = float(g @ p)
        if not slope < 0.0:
            break
        alpha = 1.0
        while True:
            if nfev >= maxfev:
                return x, f, nfev
            step = alpha * p * scale
            trial = x + step
            f_new, g_new = fg(trial)
            nfev += 1
            if f_new <= f + 1e-4 * alpha * slope:
                break
            if np.all(np.abs(step) <= xatol):
                return x, f, nfev
            alpha *= 0.5
        small = bool(np.all(np.abs(step) <= xatol)) and f - f_new <= fatol
        g_new = np.asarray(g_new, dtype=np.float64) * scale
        s, y = alpha * p, g_new - g
        x, f, g = trial, float(f_new), g_new
        if small:
            break
        ys = float(y @ s)
        if ys > 0.0:
            if h is None:
                h = np.eye(len(x)) * (ys / float(y @ y))
            hy = h @ y
            rho = 1.0 / ys
            h = (h - rho * (np.outer(s, hy) + np.outer(hy, s))
                 + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
    return x, f, nfev


def make_arc(radius=10.0, span_deg=180.0, k=21, center=(0.0, 0.0, 0.0)):
    """Planar circular arc in the xy plane, symmetric about the y axis."""
    half = np.radians(span_deg) / 2.0
    theta = np.linspace(np.pi / 2.0 - half, np.pi / 2.0 + half, k)
    pts = np.stack([
        radius * np.cos(theta),
        radius * np.sin(theta),
        np.zeros(k),
    ], axis=1)
    return pts + np.asarray(center, dtype=np.float64)


def random_streamlines(rng, n, k=21, scale=30.0, wobble=3.0):
    """Random smooth-ish polylines: line plus low-frequency noise."""
    start = rng.uniform(-scale, scale, size=(n, 1, 3))
    end = rng.uniform(-scale, scale, size=(n, 1, 3))
    t = np.linspace(0.0, 1.0, k)[None, :, None]
    lines = start + (end - start) * t
    lines += wobble * np.sin(np.pi * t) * rng.standard_normal((n, 1, 3))
    return np.stack([resample(s, k) for s in lines])


def registration_scenes(count=20):
    """The scenes of acceptance criterion 4, noise-free: yields (moving,
    static, truth) for seeded arc bundles of 30 streamlines, each moved by a
    rotation of 3-10 degrees about its barycenter and a shift of 3-10 mm."""
    rng = np.random.default_rng(400)
    for case in range(count):
        static = generate_bundle(ArcSpec(
            bundle_id=f"case_{case}",
            center=(0.0, 0.0, 0.0),
            radius_mm=float(rng.uniform(8.0, 12.0)),
            span_deg=float(rng.uniform(130.0, 220.0)),
            orientation_deg=(float(rng.uniform(0.0, 360.0)), float(rng.uniform(0.0, 180.0))),
            jitter_mm=0.4,
            count=30,
            seed=case,
        )).streamlines
        angle = np.radians(rng.uniform(3.0, 10.0))
        euler = Rotation.from_rotvec(angle * random_unit(rng)).as_euler("XYZ", degrees=True)
        shift = rng.uniform(3.0, 10.0) * random_unit(rng)
        truth = RigidTransform(euler, shift, bundle_barycenter(static))
        yield apply_rigid(truth, static), static, truth


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_rotation_matrix(rng):
    # QR of a Gaussian matrix, determinant fixed to +1
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
