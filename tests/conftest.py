import numpy as np
import pytest

from circlekam import CircleDiffeo, LaurentSeries, build_single_chart, eval_diffeo, unit_circle

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SILVER = np.sqrt(2.0) - 1.0


def random_symmetric_hat(rng, width, scale, max_mode=4, n_trunc=None):
    """Random hat series obeying the reality symmetry c_{-n} = -conj(c_n),
    with the geometric mode decay every analytic map exhibits."""
    coeffs = {}
    for n in range(1, max_mode + 1):
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        c *= rng.random() * 2.0 ** (1 - n)
        coeffs[n] = c
        coeffs[-n] = -np.conj(c)
    return LaurentSeries.from_coeffs(coeffs, width, n_trunc=n_trunc)


def random_diffeo(rng, width=1.0, scale=1e-5, max_mode=4, phase=None):
    if phase is None:
        phase = 2.0 * np.pi * rng.random()
    return CircleDiffeo(phase, random_symmetric_hat(rng, width, scale, max_mode))


def arnold_scenario(eps, **params):
    """The untuned golden-mean Arnol'd map ``x -> x + theta + eps/2pi
    sin(2 pi x)``, hat ``eps/2 (w - 1/w)``: N=128, sigma0=1, default eta0,
    non-strict, unless ``params`` (KamParams fields) say otherwise."""
    hat = LaurentSeries.from_coeffs({1: eps / 2, -1: -eps / 2}, width=1.0)
    params = {"n_trunc": 128, "strict_schedule": False, **params}
    return build_single_chart(GOLDEN, hat, 1.0, **params)


def circle_defect(f, samples):
    """Max over ``samples`` points of ``|w| = 1`` of ``| |f(w)| - 1 |``."""
    return float(np.max(np.abs(np.abs(eval_diffeo(f, unit_circle(samples))) - 1.0)))


def safe_rotation_numbers(rng, count, n_max=96, min_divisor=0.02):
    """Rotation numbers whose divisors |2 sin(pi n theta)| stay above
    ``min_divisor`` for all modes up to ``n_max`` (rejection sampling), so
    randomized scenarios never sit next to a resonance."""
    out = []
    n = np.arange(1, n_max + 1)
    while len(out) < count:
        theta = 0.05 + 0.9 * rng.random()
        if np.min(np.abs(2.0 * np.sin(np.pi * n * theta))) >= min_divisor:
            out.append(theta)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
