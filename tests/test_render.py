"""The JSON renderer against the stdlib encoder it replaces."""

from __future__ import annotations

import enum
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from same_text import assert_same_text
from smoothgen import iid_power, make_distribution
from smoothgen.cli import _image_entry, _label_text, _render

TRICKY_TEXT = ["", "aé\"q", "line\nbreak", "back\\slash", "☃\U0001f600", "\t\x00\x7f"]
TRICKY_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1]

texts = st.sampled_from(TRICKY_TEXT) | st.text()
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**400)
    | st.integers(min_value=-(2**400), max_value=-(2**64))
    | st.sampled_from(TRICKY_FLOATS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=40,
)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_render_matches_the_stdlib_encoder(obj):
    assert_same_text(_render(obj), dumps(obj))


def test_render_writes_a_fraction_as_its_string():
    obj = {"x": [Fraction(1, 3), (Fraction(-2), Fraction(7, 8))]}
    assert_same_text(_render(obj), dumps({"x": ["1/3", ["-2", "7/8"]]}))


def test_render_refuses_non_str_keys_and_unknown_types():
    # json.dumps writes the key 1 as "1"; the renderer refuses it rather
    # than write other text.
    with pytest.raises(TypeError):
        _render({1: "x"})
    with pytest.raises(TypeError):
        _render({"x": object()})


def as_lists(label):
    """A label as the artifact holds it: tuples as lists, rationals as strings."""
    if isinstance(label, tuple):
        return [as_lists(x) for x in label]
    if isinstance(label, Fraction):
        return str(label)
    return label


hashable_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from(TRICKY_FLOATS)
    | st.floats(allow_nan=False)
    | st.fractions(max_denominator=50)
    | texts
)
labels = st.recursive(
    hashable_scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)


@settings(max_examples=150, deadline=None)
@example(["a\nb", (1, None), 2.5], 1, True)  # an empty prefix half
@example(["a\nb", (1, None), 2.5], 4, False)  # two halves of two
@given(
    st.lists(labels, min_size=2, max_size=4, unique=True),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_label_blocks_match_the_stdlib_encoder(base_labels, n, exact):
    # Labels equal under == (1, 1.0 and True) cannot share a base, and
    # hypothesis keeps one of each.
    weights = [1] * len(base_labels) if exact else [1.0] * len(base_labels)
    base = make_distribution(weights, labels=base_labels)
    for source in (base, iid_power(base, n)):
        text = _label_text(source)
        entry = _image_entry(text)
        view_labels = (
            list(base.labels) if source is base else list(itertools.product(base.labels, repeat=n))
        )
        payload = {
            "bins": [list(map(text, view_labels[:2])), list(map(text, view_labels[2:]))],
            "image": [entry(lab, k) for k, lab in enumerate(view_labels)],
        }
        expected = {
            "bins": [as_lists(tuple(view_labels[:2])), as_lists(tuple(view_labels[2:]))],
            "image": [{"count": k, "sequence": as_lists(lab)} for k, lab in enumerate(view_labels)],
        }
        assert_same_text(_render(payload), dumps(expected))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mass(float):
    pass


class Name(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        Level.HIGH,
        [Level.LOW, 3, {"level": Level.HIGH}],
        Mass(0.25),
        [Mass(1e300), Mass(-0.0), 0.5],
        Name("x\n\"y\""),
        {Name("b"): 1, "a": Name("é"), Name("c\n"): [Name("")]},
        [True, 1, False, 0, None],
        {"flag": True, "count": 1, "off": [False, 0]},
    ],
    ids=[
        "IntEnum", "IntEnum among ints", "float subclass", "float subclasses among floats",
        "str subclass", "str subclass keys and values", "bools next to ints", "bools in an object",
    ],
)
def test_render_passes_subclasses_and_bools_to_the_encoder(obj):
    assert_same_text(_render(obj), dumps(obj))


def test_render_joins_text_only_lists_and_renders_mixed_ones_item_by_item():
    base = make_distribution([1, 1, 1], labels=["a\nb", (1, None), 2.5])
    text = _label_text(iid_power(base, 2))
    labels = list(itertools.product(base.labels, repeat=2))
    texts = [text(lab) for lab in labels]
    cases = [
        (texts, as_lists(tuple(labels))),
        (texts[:3] + [7, None, "s"], as_lists(tuple(labels[:3])) + [7, None, "s"]),
        (
            [[texts[0]], texts[1], {"k": texts[2:4]}],
            [[as_lists(labels[0])], as_lists(labels[1]), {"k": as_lists(tuple(labels[2:4]))}],
        ),
        ([Fraction(1, 3), texts[4]], ["1/3", as_lists(labels[4])]),
    ]
    for obj, plain in cases:
        assert_same_text(_render(obj), dumps(plain))
        assert_same_text(_render({"deep": [obj]}), dumps({"deep": [plain]}))
