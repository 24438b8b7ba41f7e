"""Function-spec document parsing: strictness, aliases, round trips."""

import json

import numpy as np
import pytest

import proxcalc as pc
from proxcalc.errors import SpecParseError
from proxcalc.functions import structured_probes
from proxcalc.specfmt import _KINDS, build_tree


def test_parse_each_atom():
    docs = [
        {"atom": "affine", "a": [1.0, 2.0], "c": 0.5},
        {"atom": "quadratic", "Q": [[1.0, 0.0], [0.0, 2.0]], "b": [0.1, 0.2], "c": 1.0},
        {"atom": "scaled_norm", "ell": 1.5, "center": [0.0, 0.0]},
        {"atom": "indicator_point", "p": [1.0, 0.0]},
        {"atom": "indicator_ball", "center": [0.0, 0.0], "radius": 2.0},
        {"atom": "indicator_box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        {"atom": "indicator_halfspace", "a": [1.0, 0.0], "beta": 1.0},
        {"atom": "support_ball", "center": [0.0, 0.0], "radius": 1.0},
        {"atom": "support_box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    ]
    for doc in docs:
        f = build_tree(doc)
        assert f.dim == 2


def test_parse_ops_nested():
    doc = {
        "op": "envelope",
        "lambda": 0.5,
        "f": {
            "op": "tilt",
            "a": [1.0],
            "f": {"op": "add_const", "c": 2.0,
                  "f": {"op": "translate", "t": [0.5],
                        "f": {"atom": "scaled_norm", "ell": 1.0, "center": [0.0]}}},
        },
    }
    f = build_tree(doc)
    assert isinstance(f, pc.Envelope)
    assert f.lam == 0.5


def test_unknown_key_rejected():
    with pytest.raises(SpecParseError, match="unknown keys"):
        build_tree({"atom": "scaled_norm", "ell": 1.0, "center": [0.0], "foo": 1})


def test_unknown_atom_rejected():
    with pytest.raises(SpecParseError, match="unknown atom"):
        build_tree({"atom": "huber", "delta": 1.0})


def test_missing_field_rejected():
    with pytest.raises(SpecParseError, match="missing keys"):
        build_tree({"atom": "indicator_ball", "center": [0.0]})


def test_atom_and_op_both_rejected():
    with pytest.raises(SpecParseError):
        build_tree({"atom": "affine", "op": "tilt"})


def test_greek_aliases_accepted():
    f = build_tree({"atom": "scaled_norm", "ℓ": 2.0, "center": [0.0]})
    assert pc.evaluate(f, [3.0]) == pytest.approx(6.0)
    g = build_tree({"op": "envelope", "λ": 1.0,
                    "f": {"atom": "indicator_point", "p": [0.0]}})
    assert pc.evaluate(g, [2.0]) == pytest.approx(2.0)


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError, match="line 1"):
        pc.parse_document("{bad json")


def test_vector_type_checked():
    with pytest.raises(SpecParseError, match="array of numbers"):
        build_tree({"atom": "indicator_point", "p": ["x", 1.0]})


def test_document_roundtrip():
    doc = {
        "op": "tilt",
        "a": [0.5, -0.5],
        "f": {"atom": "support_box", "lo": [-1.0, -1.0], "hi": [1.0, 2.0]},
    }
    f = build_tree(doc)
    assert pc.to_document(f) == doc
    g = pc.parse_document(json.dumps(pc.to_document(f)))
    x = np.array([0.7, -0.9])
    assert pc.evaluate(g, x) == pytest.approx(pc.evaluate(f, x))


def test_internal_node_not_serializable():
    f = pc.conjugate_closed_form(pc.Envelope(pc.Quadratic(np.eye(1)), 1.0))
    assert isinstance(f, pc.AddQuadratic)
    with pytest.raises(SpecParseError):
        pc.to_document(f)


def test_roundtrip_every_kind():
    point = {"atom": "indicator_point", "p": [1.0, -2.0]}
    docs = [
        {"atom": "affine", "a": [1.0, 2.0], "c": 0.5},
        {"atom": "quadratic", "Q": [[2.0, 0.5], [0.5, 1.0]], "b": [0.1, 0.2], "c": -1.0},
        {"atom": "scaled_norm", "ell": 1.5, "center": [0.5, 0.0]},
        point,
        {"atom": "indicator_ball", "center": [0.0, 1.0], "radius": 2.0},
        {"atom": "indicator_box", "lo": [-1.0, -2.0], "hi": [1.0, 3.0]},
        {"atom": "indicator_halfspace", "a": [1.0, -1.0], "beta": 0.25},
        {"atom": "support_ball", "center": [0.3, 0.0], "radius": 1.0},
        {"atom": "support_box", "lo": [-1.0, -1.0], "hi": [1.0, 2.0]},
        {"op": "tilt", "f": point, "a": [0.5, -0.5]},
        {"op": "translate", "f": point, "t": [3.0, 4.0]},
        {"op": "add_const", "f": point, "c": 7.0},
        {"op": "envelope", "f": point, "lambda": 0.5},
    ]
    assert len({d.get("atom", d.get("op")) for d in docs}) == 13
    for doc in docs:
        assert pc.to_document(build_tree(doc)) == doc


# one sample value per document field; a kind with a field missing here
# fails the guard below until it gets one
_SAMPLE = {"a": [0.8, -0.6], "b": [0.3, -0.1], "c": 0.5, "Q": [[1.0, 1.0], [1.0, 1.0]],
           "ell": 1.5, "center": [0.5, 0.0], "p": [1.0, -2.0], "radius": 2.0,
           "lo": [-1.0, -0.5], "hi": [1.0, 2.0], "beta": 0.25, "t": [0.4, -0.3],
           "lambda": 0.7, "f": {"atom": "scaled_norm", "ell": 1.0, "center": [0.0, 0.0]}}


def _sample_document(kind):
    entry = _KINDS[kind]
    doc = {"op" if "f" in entry else "atom": kind}
    doc.update((name.rstrip("?"), _SAMPLE[name.rstrip("?")]) for name in entry[1:])
    return doc


_GUARD_DOCS = [wrap(_sample_document(kind)) for kind in _KINDS for wrap in (
    lambda d: d,
    lambda d: {"op": "envelope", "f": d, "lambda": 0.7},
    lambda d: {"op": "tilt", "f": d, "a": [0.3, 0.2]},
    lambda d: {"op": "translate", "f": d, "t": [-0.2, 0.6]},
)]


@pytest.mark.parametrize("doc", _GUARD_DOCS, ids=json.dumps)
def test_every_document_has_a_closed_form_conjugate(doc, rng):
    # Fenchel-Young equality f(x) + f*(s) = <x, s> for s in the subdifferential
    f = build_tree(doc)
    conj = pc.conjugate_closed_form(f)
    X = [*rng.uniform(-2.0, 2.0, (20, f.dim)), *structured_probes(f)]
    tested = 0
    for x in X:
        fx = pc.evaluate(f, x)
        if not np.isfinite(fx):
            continue
        s = pc.minimal_selection(f, x)
        assert fx + pc.evaluate(conj, s) == pytest.approx(float(np.dot(x, s)), abs=1e-8)
        tested += 1
    assert tested > 0


def test_absent_optional_fields_take_constructor_defaults():
    # c must bind to c, not to the b that precedes it in the constructor
    f = build_tree({"atom": "quadratic", "Q": [[1]], "c": 2})
    assert pc.to_document(f) == {"atom": "quadratic", "Q": [[1.0]], "b": [0.0], "c": 2.0}
    assert pc.evaluate(f, [1.0]) == pytest.approx(2.5)
    g = build_tree({"atom": "affine", "a": [3.0]})
    assert pc.to_document(g) == {"atom": "affine", "a": [3.0], "c": 0.0}


@pytest.mark.parametrize("rows", [[["1", 0], [0, True]], [["x", 0], [0, 1]], [[None]]])
def test_matrix_entries_type_checked(rows):
    with pytest.raises(SpecParseError, match="array of arrays of numbers"):
        build_tree({"atom": "quadratic", "Q": rows})


@pytest.mark.parametrize("text, message", [
    ('{"atom": "scaled_norm", "ell": NaN, "center": [0.0]}', "ell must be finite and >= 0"),
    ('{"atom": "scaled_norm", "ℓ": Infinity, "center": [0.0]}',
     "ell must be finite and >= 0"),
    ('{"atom": "quadratic", "Q": [[-Infinity]]}', "Q entries must be finite"),
    ('{"op": "add_const", "c": NaN, "f": {"atom": "indicator_point", "p": [0.0]}}',
     "c must be finite"),
])
def test_non_finite_scalars_rejected(text, message):
    # the constructor's ValueError passes through unwrapped
    with pytest.raises(ValueError, match=message):
        pc.parse_document(text)
