"""The array in-band leakage model against a scalar per-point reference.

``_scalar_*`` evaluate the in-band math of ``leakage`` and
``synthesis.verify`` one point at a time, in Python floats: the
dominant-mode gamma in closed form, the amplitude, the additive loss
-10/ln 10 A log1p(-amp**2), its expm1 inverse for the depth, and verify's
passband loop.
The kernel must agree with them to 1e-12 relative, for one frequency and for
arrays, and raise the same errors with the same messages.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from herd import (
    C0,
    PTFE,
    DesignSpec,
    DomainError,
    FrequencyGrid,
    InfeasibleDesignError,
    Material,
    corner_frequency,
    inband_transmission,
    min_depth_for_budget,
    synthesize,
    verify,
)
from herd.leakage import evanescent_gamma
from herd.model import AIR, DominantModeAxis

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
    n = design.aperture_fill.refractive_index
    return 2.0 * math.pi * n / C0 * math.sqrt((fc - f) * (fc + f))


def _scalar_amplitude(design, f):
    return math.exp(-_scalar_gamma(design, f) * design.aperture.depth_d)


def _scalar_transmission(design, f):
    """(leak power per aperture, insertion loss dB)."""
    amp = _scalar_amplitude(design, f)
    leak = amp * amp
    return leak, -10.0 / math.log(10.0) * design.total_apertures * math.log1p(-leak)


def _scalar_depth(design, f, budget_db):
    gamma = _scalar_gamma(design, f)
    amp_required = math.sqrt(-math.expm1(-budget_db * math.log(10.0) / (10.0 * design.total_apertures)))
    return max(-math.log(amp_required) / gamma, 0.0)


def _scalar_passband_margin(design, spec, points=101):
    fc = corner_frequency(design)
    worst_il = 0.0
    top = spec.f_passband_top
    for f in FrequencyGrid.linear(top / points, top, points):
        if f >= fc:
            worst_il = math.inf
            break
        worst_il = max(worst_il, _scalar_transmission(design, f)[1])
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
    gammas = evanescent_gamma(design, corner_frequency(design), freqs)
    losses = inband_transmission(design, freqs).insertion_loss_db
    depths = min_depth_for_budget(design, freqs, 0.1)
    assert isinstance(losses, np.ndarray) and losses.shape == freqs.shape
    for i, f in enumerate(freqs.tolist()):
        leak, loss = _scalar_transmission(design, f)
        assert _close(gammas[i], _scalar_gamma(design, f)), (f, gammas[i])
        assert _close(losses[i], loss, _cond(design, leak))
        assert _close(depths[i], _scalar_depth(design, f, 0.1))


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_floats_agree_with_scalar_reference(name):
    design = DESIGNS[name]
    for f in _inband_freqs(design, 23).tolist():
        loss = inband_transmission(design, f).insertion_loss_db
        depth = min_depth_for_budget(design, f, 0.1)
        assert type(loss) is float and type(depth) is float
        leak, want = _scalar_transmission(design, f)
        assert _close(loss, want, _cond(design, leak))
        assert _close(depth, _scalar_depth(design, f, 0.1))


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_floats_agree_with_the_array_call(name):
    design = DESIGNS[name]
    freqs = _inband_freqs(design, 23)
    curve = inband_transmission(design, freqs)
    depths = min_depth_for_budget(design, freqs, 0.1)
    for i, f in enumerate(freqs.tolist()):
        cond = _cond(design, _scalar_transmission(design, f)[0])
        # a float, a numpy scalar and a 0-d array are each one frequency
        for one in (f, np.float64(f), np.array(f)):
            loss = inband_transmission(design, one).insertion_loss_db
            depth = min_depth_for_budget(design, one, 0.1)
            assert type(loss) is float and type(depth) is float
            assert _close(loss, curve.insertion_loss_db[i], cond)
            assert _close(depth, depths[i])


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
        lambda: inband_transmission(proto, f_bad),
        lambda: min_depth_for_budget(proto, f_bad, 0.1),
        lambda: inband_transmission(proto, freqs),
        lambda: min_depth_for_budget(proto, freqs, 0.1),
    ):
        assert _message(call) == want


def test_infeasible_budget_names_the_frequency_as_given(proto):
    # a budget so small that no depth meets it: budget ln 10 / 10A underflows
    # to 0, so the field it lets through is 0
    for f in (10e9, np.array([10e9, 12e9])):
        with pytest.raises(InfeasibleDesignError) as err:
            min_depth_for_budget(proto, f, 5e-324)
        assert str(err.value) == f"no aperture depth satisfies the 5e-324 dB budget at {f!r} Hz"
