"""Fault injection: an error of 1%, or of one part in a million, in one
closed-form rule of the catalog must turn some report of the verify-all
battery into a counterexample.

Each row patches one method of one class, runs ``standard_battery`` on a
pair that reaches it in 2-D and in 8-D with seed 1, and expects a
counterexample in both. The unfaulted pairs report none. The battery's
self-checks are exact identities at prox points, scored under 1e-8, so a
fault at 1e-6 shows as plainly as one at 1%.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from proxcalc import functions as fn
from proxcalc.verify import standard_battery

FAULT = 1.01
TINY_FAULT = 1.0 + 1e-6


def _pairs(d):
    e = np.ones(d) / np.sqrt(d)
    w = np.linspace(1.0, 2.0, d)
    return {
        "norm_vs_ball": (fn.ScaledNorm(2.0, dim=d), fn.IndicatorBall(np.zeros(d), 1.0)),
        "quad_vs_ball": (fn.Quadratic(np.diag(w)), fn.IndicatorBall(0.2 * e, 1.5)),
        "env_vs_quad": (fn.Envelope(fn.ScaledNorm(1.0, dim=d), 0.5), fn.Quadratic(np.diag(w))),
        "supbox_vs_box": (fn.SupportBox(-w, w), fn.IndicatorBox(-0.5 * w, w)),
        "tilt_vs_translate": (fn.Tilt(fn.ScaledNorm(1.0, dim=d), 0.3 * e),
                              fn.Translate(fn.Quadratic(np.diag(w)), 0.4 * e)),
        "supball_vs_addq": (fn.SupportBall(0.1 * e, 1.2),
                            fn.AddQuadratic(fn.ScaledNorm(1.0, dim=d), 0.5)),
        "half_vs_norm": (fn.IndicatorHalfspace(e, 0.5), fn.ScaledNorm(1.0, dim=d)),
    }


# Each fault takes the scale factor and gives a maker: the original method
# in, the faulty one out.

def _scaled_lam(factor):
    return lambda orig: lambda self, lam, X: orig(self, factor * lam, X)


def _scaled_output(factor):
    return lambda orig: lambda self, X: factor * orig(self, X)


def _scaled_gradient(factor):
    def make(orig):
        def faulty(self, X):
            G, smooth = orig(self, X)
            return factor * G, smooth
        return faulty
    return make


def _scaled_attribute(name, factor=FAULT):
    """The method run on a copy of the node whose attribute ``name`` is
    scaled by ``factor``: a ball's radius, a box's upper face, an envelope's
    index."""
    def make(orig):
        def faulty(self, *args):
            node = SimpleNamespace(**vars(self))
            setattr(node, name, factor * getattr(self, name))
            return orig(node, *args)
        return faulty
    return make


def _attribute(name):
    return lambda factor: _scaled_attribute(name, factor)


_ROWS = [  # (class, method, fault, pair that reaches the method)
    (fn.ScaledNorm, "prox_many", _scaled_lam, "norm_vs_ball"),  # the threshold lam ell
    (fn.ScaledNorm, "value_many", _scaled_output, "norm_vs_ball"),
    (fn.ScaledNorm, "conjugate", _attribute("ell"), "norm_vs_ball"),
    # a projection under the support function's Moreau peel
    (fn.IndicatorBall, "prox_many", _attribute("radius"), "supball_vs_addq"),
    (fn.IndicatorBall, "conjugate", _attribute("radius"), "quad_vs_ball"),
    # the upper face moved inward, under the peel of SupportBox too
    (fn.IndicatorBox, "prox_many", lambda factor: _scaled_attribute("hi", 1.0 / factor),
     "supbox_vs_box"),
    (fn.IndicatorHalfspace, "prox_many", _attribute("a"), "half_vs_norm"),
    (fn.Quadratic, "prox_many", _scaled_lam, "quad_vs_ball"),
    (fn.Quadratic, "value_many", _scaled_output, "quad_vs_ball"),
    (fn.Envelope, "value_many", _scaled_output, "env_vs_quad"),
    (fn.Envelope, "prox_many", _attribute("lam"), "supball_vs_addq"),  # inner index
    (fn.Tilt, "prox_many", _attribute("a"), "tilt_vs_translate"),
    (fn.Translate, "conjugate", _attribute("t"), "tilt_vs_translate"),
    (fn.Translate, "value_many", _scaled_output, "tilt_vs_translate"),
    (fn.SupportBox, "value_many", _scaled_output, "supbox_vs_box"),
    (fn.SupportBox, "prox_many", _scaled_lam, "supbox_vs_box"),
    (fn.SupportBall, "value_many", _scaled_output, "supball_vs_addq"),
    (fn.SupportBall, "prox_many", _scaled_lam, "supball_vs_addq"),
    (fn.AddQuadratic, "prox_many", _attribute("alpha"), "supball_vs_addq"),
]

# the same faults at one part in a million, and the gradient rule that only
# the envelope-gradient report reads (equivalences compares f's gradients
# with g's, where the same fault on both sides cancels)
_TINY_ROWS = _ROWS + [(fn.Envelope, "gradient_many", _scaled_gradient, "env_vs_quad")]


def _ids(rows):
    return [f"{c.__name__}.{m}" for c, m, _, _ in rows]


def _counterexamples(f, g, d):
    reports = standard_battery(f, g, np.zeros(d), seed=1)
    return [r.name for r in reports if r.status == "counterexample"]


@pytest.mark.parametrize("d", [2, 8])
def test_unfaulted_pairs_report_no_counterexample(d):
    for name, (f, g) in _pairs(d).items():
        assert _counterexamples(f, g, d) == [], name


def _assert_detected(monkeypatch, cls, method, fault, pair):
    monkeypatch.setattr(cls, method, fault(getattr(cls, method)))
    for d in (2, 8):
        f, g = _pairs(d)[pair]
        assert _counterexamples(f, g, d), f"{d}-D battery missed the fault"


@pytest.mark.parametrize("cls, method, fault, pair", _ROWS, ids=_ids(_ROWS))
def test_battery_detects_a_one_percent_fault(monkeypatch, cls, method, fault, pair):
    _assert_detected(monkeypatch, cls, method, fault(FAULT), pair)


@pytest.mark.parametrize("cls, method, fault, pair", _TINY_ROWS, ids=_ids(_TINY_ROWS))
def test_battery_detects_a_fault_of_one_in_a_million(monkeypatch, cls, method, fault, pair):
    _assert_detected(monkeypatch, cls, method, fault(TINY_FAULT), pair)


@pytest.mark.parametrize("d", [2, 8])
def test_prox_outside_the_domain_is_an_infinite_envelope_gradient_residual(monkeypatch, d):
    # a projection onto a ball 1% too large lands where the indicator is
    # +inf: the envelope-gradient report scores those rows as infinite
    # residuals, with no inf - inf (an error under the suite's warning filter)
    monkeypatch.setattr(fn.IndicatorBall, "prox_many",
                        _scaled_attribute("radius")(fn.IndicatorBall.prox_many))
    f, g = _pairs(d)["norm_vs_ball"]
    reports = {r.name: r for r in standard_battery(f, g, np.zeros(d), seed=1)}
    rep = reports["envelope_gradient(g)"]
    assert rep.status == "counterexample" and rep.conclusion_residual == np.inf
