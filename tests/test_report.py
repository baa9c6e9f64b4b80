import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revspec.report import json_text


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True)


#: Strings that hold the encoder's brackets, quotes, escapes and separator,
#: and non-ASCII text.
_strings = st.text(st.sampled_from(['}', ']', '{', '[', '"', '\\', '\x00', ',', ':', ' ', 'a', 'é', '☃', '\U0001f600']),
                   max_size=6) | st.text(max_size=4)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
            | st.floats(allow_nan=True, allow_infinity=True).map(np.float64) | _strings)
_payloads = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_strings, children, max_size=5)
                      | st.dictionaries(st.integers(-3, 3), children, max_size=4)),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_payloads)
def test_json_text_is_the_stdlib_indented_dump(payload):
    assert json_text(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [
    pytest.param({str(i): [i, i + 1] for i in range(10)}, id="dict-of-flat-lists"),
    pytest.param({"a": {"x": 1}, "b": {"y": [2]}}, id="dict-of-records"),
    pytest.param([{"a": 1, "b": 2.5}, {}], id="records-and-an-empty-dict"),
    pytest.param([{"a": 1}, 3, {"b": None}], id="records-and-scalars"),
    pytest.param([{"a": 1}, [1, 2], {"b": "}\x00{"}], id="dict-and-list-records"),
    pytest.param([[1, 2], (3,), ["]\x00[", "x"]], id="list-records"),
    pytest.param({2: [1], 10: {"x": -0.0}, -1: 3}, id="int-keys"),
    pytest.param({False: [1], True: 2, 0.5: [3]}, id="bool-and-float-keys"),
    pytest.param({None: {"a": [1]}}, id="none-key"),
    pytest.param([[], {}, [[]], {"a": {}}, [{}]], id="nested-empties"),
    pytest.param({"samples": [{"x": np.float64(-1.0), "f": 0.0, "K": float("nan")}] * 3,
                  "inf": [float("inf"), -float("inf")]}, id="curvature-like"),
    pytest.param("é\x00", id="top-level-string"),
    pytest.param(1.5, id="top-level-float"),
])
def test_json_text_explicit_cases(payload):
    assert json_text(payload) == stdlib(payload)


def test_json_text_without_the_c_encoder(monkeypatch):
    # the same call then runs the pure-Python encoder, and the text is the same
    payload = {"rows": [{"m": 1, "ray": {"1": 2.0}}, {"m": 2, "ray": {}}],
               "samples": [{"x": 0.5, "s": "é\x00]"}] * 2, "flat": {str(i): [i] for i in range(3)}}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert json_text(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [{"a": [np.int64(1)]}, {(1,): [1]}, {None: [1], "a": [2]}])
def test_json_text_raises_where_the_stdlib_does(payload):
    with pytest.raises(TypeError):
        stdlib(payload)
    with pytest.raises(TypeError):
        json_text(payload)
