"""Strict parser for function-spec documents.

A document is a JSON tree. Each node is an object carrying either an
``"atom"`` key or an ``"op"`` key, plus that node's parameter fields and
nothing else; unknown keys are errors. Combinator nodes hold their child
under ``"f"``. Numbers are finite JSON decimals, vectors arrays of them,
matrices arrays of arrays.

Atoms: affine(a, c), quadratic(Q, b, c), scaled_norm(ell, center),
indicator_point(p), indicator_ball(center, radius), indicator_box(lo, hi),
indicator_halfspace(a, beta), support_ball(center, radius),
support_box(lo, hi).

Ops: tilt(f, a), translate(f, t), add_const(f, c), envelope(f, lambda).

The Greek spellings from the calculus notation are accepted as aliases for
ell, beta, and lambda.
"""

from __future__ import annotations

import json

import numpy as np

from . import functions as fn
from .errors import SpecParseError

_ALIASES = {"ℓ": "ell", "β": "beta", "λ": "lambda"}

# kind -> (catalog class, fields in constructor order); a trailing "?" marks
# an optional field, which takes the constructor's default when absent. Ops
# are the kinds with a child "f".
_KINDS = {
    "affine": (fn.Affine, "a", "c?"),
    "quadratic": (fn.Quadratic, "Q", "b?", "c?"),
    "scaled_norm": (fn.ScaledNorm, "ell", "center"),
    "indicator_point": (fn.IndicatorPoint, "p"),
    "indicator_ball": (fn.IndicatorBall, "center", "radius"),
    "indicator_box": (fn.IndicatorBox, "lo", "hi"),
    "indicator_halfspace": (fn.IndicatorHalfspace, "a", "beta"),
    "support_ball": (fn.SupportBall, "center", "radius"),
    "support_box": (fn.SupportBox, "lo", "hi"),
    "tilt": (fn.Tilt, "f", "a"),
    "translate": (fn.Translate, "f", "t"),
    "add_const": (fn.AddConst, "f", "c"),
    "envelope": (fn.Envelope, "f", "lambda"),
}

# the one field whose constructor keyword and attribute differ from its name
_ATTRS = {"lambda": "lam"}


def parse_document(text: str) -> fn.ConvexFunction:
    """Parse a function-spec document into a catalog tree."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"invalid document at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return build_tree(data)


def load_document(path: str) -> fn.ConvexFunction:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _num(key, v):
    if not _is_num(v):
        raise SpecParseError(f"field '{key}' must be a number")
    return float(v)


def _vec(key, v):
    if not isinstance(v, list) or not all(_is_num(x) for x in v):
        raise SpecParseError(f"field '{key}' must be an array of numbers")
    return [float(x) for x in v]


def _mat(key, v):
    if not isinstance(v, list) or not all(
        isinstance(row, list) and all(_is_num(x) for x in row) for row in v
    ):
        raise SpecParseError(f"field '{key}' must be an array of arrays of numbers")
    return [[float(x) for x in row] for row in v]


_PARSE = {"a": _vec, "b": _vec, "center": _vec, "hi": _vec, "lo": _vec, "p": _vec,
          "t": _vec, "beta": _num, "c": _num, "ell": _num, "lambda": _num,
          "radius": _num, "Q": _mat, "f": lambda key, v: build_tree(v)}


def _fields(entry) -> list[tuple[str, bool]]:
    """(name, required) per field of a _KINDS entry."""
    return [(s.rstrip("?"), not s.endswith("?")) for s in entry[1:]]


def build_tree(node) -> fn.ConvexFunction:
    if not isinstance(node, dict):
        raise SpecParseError(f"expected an object node, got {type(node).__name__}")
    node = {_ALIASES.get(k, k): v for k, v in node.items()}
    if ("atom" in node) == ("op" in node):
        raise SpecParseError("each node needs exactly one of 'atom' or 'op'")
    tag = "atom" if "atom" in node else "op"
    kind = node.pop(tag)
    entry = _KINDS.get(kind)
    if entry is None or ("f" in entry) != (tag == "op"):
        raise SpecParseError(f"unknown {tag} '{kind}'")
    fields = _fields(entry)
    extra = set(node) - {name for name, _ in fields}
    if extra:
        raise SpecParseError(f"unknown keys {sorted(extra)} on '{kind}' node")
    missing = [name for name, required in fields if required and name not in node]
    if missing:
        raise SpecParseError(f"missing keys {missing} on '{kind}' node")
    try:
        return entry[0](**{_ATTRS.get(name, name): _PARSE[name](name, node[name])
                           for name, _ in fields if name in node})
    except (ValueError, SpecParseError):
        raise
    except Exception as exc:  # dimension mismatches et al., rewrapped with context
        raise SpecParseError(f"invalid '{kind}' node: {exc}") from None


def to_document(f: fn.ConvexFunction) -> dict:
    """Inverse of build_tree for catalog trees expressible in the format."""
    for kind, entry in _KINDS.items():
        if isinstance(f, entry[0]):
            doc = {"op" if "f" in entry else "atom": kind}
            for name, _ in _fields(entry):
                v = getattr(f, _ATTRS.get(name, name))
                doc[name] = (to_document(v) if name == "f"
                             else v.tolist() if isinstance(v, np.ndarray) else v)
            return doc
    raise SpecParseError(f"{type(f).__name__} is not expressible in the document format")
