"""The array in-band leakage model against a scalar per-point reference.

``_scalar_*`` keep the per-frequency in-band math that ``leakage`` and
``synthesis.verify`` evaluated one point at a time before the model became
one array kernel: the dominant-mode gamma from ``rect_gamma``, the amplitude,
the additive transmission loss, the depth inverse and verify's passband loop.
The kernel must agree with them to 1e-12 relative, for one frequency and for
arrays, and raise the same errors with the same messages.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from herd import (
    PTFE,
    DesignSpec,
    DomainError,
    FrequencyGrid,
    Material,
    corner_frequency,
    evanescent_amplitude,
    inband_transmission,
    min_depth_for_budget,
    rect_gamma,
    synthesize,
    verify,
)
from herd.model import AIR, DominantModeAxis
from herd.modes import dominant_mode_index

REL = 1e-12


# --- scalar reference --------------------------------------------------------


def _scalar_gamma(design, f):
    fc = corner_frequency(design)
    if not (math.isfinite(f) and f > 0.0):
        raise DomainError(f"frequency must be finite and > 0 (got {f!r})")
    if f >= fc:
        raise DomainError(
            f"frequency {f!r} Hz is at or above the aperture corner frequency "
            f"{fc!r} Hz; the in-band leakage model does not apply there"
        )
    return rect_gamma(dominant_mode_index(design), design.aperture, design.aperture_fill, f).real


def _scalar_amplitude(design, f):
    return math.exp(-_scalar_gamma(design, f) * design.aperture.depth_d)


def _scalar_transmission(design, f):
    """(leak power per aperture, total transmission, insertion loss dB)."""
    amp = _scalar_amplitude(design, f)
    leak = amp * amp
    total = (1.0 - leak) ** design.total_apertures
    return leak, total, -10.0 * math.log10(total)


def _scalar_depth(design, f, budget_db):
    gamma = _scalar_gamma(design, f)
    amp_required = math.sqrt(1.0 - 10.0 ** (-budget_db / (10.0 * design.total_apertures)))
    return max(-math.log(amp_required) / gamma, 0.0)


def _scalar_passband_margin(design, spec, points=101):
    fc = corner_frequency(design)
    worst_il = 0.0
    top = spec.f_passband_top
    for f in FrequencyGrid.linear(top / points, top, points):
        if f >= fc:
            worst_il = math.inf
            break
        worst_il = max(worst_il, _scalar_transmission(design, f)[2])
    return spec.passband_il_budget_db - worst_il


def _close(got, want, cond=1.0):
    return abs(got - want) <= REL * cond * abs(want)


def _cond(design, leak):
    """Condition number of (1 - |F|^2)**A with respect to |F|. Close to the
    corner 1 - |F|^2 cancels, and a last-ulp difference in exp (numpy's
    against the C library's) grows by this factor in the transmission and
    the loss."""
    return max(1.0, 2.0 * design.total_apertures * leak / (1.0 - leak))


# --- designs -----------------------------------------------------------------

SPECS = [
    # the headline targets, then spreads of impedance, band, budget and fills
    DesignSpec(50.0, 10e9, 0.15, 25.3e9, 60.0, PTFE, AIR),
    DesignSpec(40.0, 2e9, 0.05, 6e9, 30.0, AIR, AIR),
    DesignSpec(75.0, 15e9, 0.5, 40e9, 120.0, Material(eps_r=3.0), Material(eps_r=2.1), 12),
    DesignSpec(50.0, 4.5e9, 0.2, 11e9, 80.0, Material(eps_r=2.55), AIR, 4),
]


def _designs():
    from herd import prototype_design

    proto = prototype_design()
    yield "stock", proto
    yield "stock-height-axis", replace(proto, dominant_mode_axis=DominantModeAxis.HEIGHT)
    for i, spec in enumerate(SPECS):
        yield f"synthesized-{i}", synthesize(spec).design


DESIGNS = dict(_designs())


def _inband_freqs(design, points=499):
    fc = corner_frequency(design)
    return np.geomspace(1e-4 * fc, (1.0 - 1e-9) * fc, points)


# --- agreement ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_arrays_agree_with_scalar_reference(name):
    design = DESIGNS[name]
    freqs = _inband_freqs(design)
    amps = evanescent_amplitude(design, freqs)
    curve = inband_transmission(design, freqs)
    depths = min_depth_for_budget(design, freqs, 0.1)
    assert isinstance(amps, np.ndarray) and amps.shape == freqs.shape
    for i, f in enumerate(freqs.tolist()):
        leak, total, loss = _scalar_transmission(design, f)
        cond = _cond(design, leak)
        assert _close(amps[i], _scalar_amplitude(design, f)), (f, amps[i])
        assert _close(curve.per_aperture_leak_power[i], leak)
        assert _close(curve.total_transmission[i], total, cond)
        assert _close(curve.insertion_loss_db[i], loss, cond)
        assert _close(depths[i], _scalar_depth(design, f, 0.1))


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_floats_agree_with_scalar_reference(name):
    design = DESIGNS[name]
    for f in _inband_freqs(design, 23).tolist():
        amp = evanescent_amplitude(design, f)
        point = inband_transmission(design, f)
        depth = min_depth_for_budget(design, f, 0.1)
        for value in (amp, point.per_aperture_leak_power, point.total_transmission,
                      point.insertion_loss_db, depth):
            assert type(value) is float
        assert point.frequency == f
        leak, total, loss = _scalar_transmission(design, f)
        cond = _cond(design, leak)
        assert _close(amp, _scalar_amplitude(design, f))
        assert _close(point.per_aperture_leak_power, leak)
        assert _close(point.total_transmission, total, cond)
        assert _close(point.insertion_loss_db, loss, cond)
        assert _close(depth, _scalar_depth(design, f, 0.1))


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_verify_passband_margin_agrees(index):
    spec = SPECS[index]
    design = synthesize(spec).design
    margin = verify(design, spec).margin_passband_db
    assert _close(margin, _scalar_passband_margin(design, spec))
    # a shallower aperture leaks more and eats into the margin
    shallow = replace(design, aperture=replace(design.aperture, depth_d=0.5 * design.aperture.depth_d))
    assert _close(verify(shallow, spec).margin_passband_db, _scalar_passband_margin(shallow, spec))


@pytest.mark.parametrize("top_over_corner", [1.0, 1.2])
def test_verify_passband_reaching_the_corner_is_infinite_loss(top_over_corner):
    spec = SPECS[0]
    design = synthesize(spec).design
    reaching = replace(spec, f_passband_top=top_over_corner * corner_frequency(design))
    assert verify(design, reaching).margin_passband_db == -math.inf
    assert _scalar_passband_margin(design, reaching) == -math.inf


# --- errors ------------------------------------------------------------------


def _message(call):
    with pytest.raises(DomainError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("bad", [0.0, -1e9, math.nan, math.inf, -math.inf, 1.0, 1.5])
def test_first_bad_frequency_named_with_the_scalar_message(proto, bad):
    fc = corner_frequency(proto)
    # 1.0 and 1.5 are multiples of the corner; the rest are absolute values
    f_bad = bad * fc if bad in (1.0, 1.5) else bad
    want = _message(lambda: _scalar_gamma(proto, f_bad))
    freqs = np.array([1e9, 2e9, f_bad, 0.0, 2.0 * fc])
    for call in (
        lambda: evanescent_amplitude(proto, f_bad),
        lambda: inband_transmission(proto, f_bad),
        lambda: min_depth_for_budget(proto, f_bad, 0.1),
        lambda: evanescent_amplitude(proto, freqs),
        lambda: inband_transmission(proto, freqs),
        lambda: min_depth_for_budget(proto, freqs, 0.1),
    ):
        assert _message(call) == want
