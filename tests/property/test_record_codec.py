"""``encode_record`` against the per-call encoder it replaced.

``repro.durable`` binds one C encoder at import and shares it across every
caller and thread; the circular-reference check is off, so the encoder has
no state to share.  For every acyclic JSON value (nested dicts and lists of
str, int, float, bool and None, NaN and infinities, ints past 64 bits,
non-ASCII and control characters, empty containers) it must write the text
of ``json.dumps(value, sort_keys=True)`` and of the frozen
``tests/oracles/record_codec_reference.py``, and raise the same error for a
value JSON cannot encode; ``decode_record`` must read any text as
``json.loads`` does.  Threads encoding one shared value must all
succeed with that text: with a shared markers dict they would see each
other's marks as a cycle.
"""

import json
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durable import decode_record, encode_record
from tests.oracles import record_codec_reference as oracle

_text = st.one_of(
    st.sampled_from(["", "é", "\x00", "\x1f", "\x7f", "\t\r\n", "\ud800", "\U0001f600", '"\\']),
    st.text(st.characters(exclude_categories=()), max_size=8),  # lone surrogates included
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**63, 2**64 - 1, 2**64, -(2**64), 10**30]),
    st.floats(),  # NaN, ±Infinity and -0.0 included
    _text,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_text, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),  # json.dumps writes int keys as str
    ),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None)
@given(_values)
@example([])
@example({})
@example({"": [], "b": {}, "a": [{}]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e308, 5e-324])
@example({"\x00": "é\ud800\U0001f600", "z": 2**64, "y": -(2**100)})
def test_encode_record_writes_the_text_of_json_dumps(value):
    text = encode_record(value)
    assert text == json.dumps(value, sort_keys=True) == oracle.encode_record(value)
    assert text.isascii()
    assert repr(decode_record(text)) == repr(json.loads(text))  # repr: NaN != NaN


@pytest.mark.parametrize(
    "value",
    [object(), {"a": b"raw"}, [1, {2, 3}], {"x": [complex(1, 2)]}, {1: "a", "b": 2}, {(1,): 0}],
)
def test_an_unencodable_value_raises_what_json_dumps_raises(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, sort_keys=True)
    with pytest.raises(TypeError) as got:
        encode_record(value)
    assert str(got.value) == str(expected.value)


def _outcome(read, text):
    try:
        return repr(read(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "text", ["", " ", " 1", "1 ", "\ufeff{}", "1 2", "1,2", "[1", "nul", "NaN", '"\\ud800"', "{}"]
)
def test_decode_record_reads_text_as_json_loads_does(text):
    assert _outcome(decode_record, text) == _outcome(json.loads, text)


class _Key(str):
    """A key whose comparisons run Python code, so a thread can be switched
    out while the encoder is inside the shared value."""

    def __lt__(self, other):
        return str.__lt__(self, other)


def test_threads_encode_one_shared_value():
    shared = {_Key(f"k{i:03d}"): [{_Key(c): [i, c] for c in "zyxwvu"}] for i in range(200)}
    expected = json.dumps(shared, sort_keys=True)
    workers, reps = 4, 10
    start = threading.Barrier(workers)
    results, errors = [], []

    def worker():
        start.wait(timeout=30)
        try:
            for _ in range(reps):
                results.append(encode_record(shared))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [expected] * (workers * reps)
