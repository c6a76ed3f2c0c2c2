"""The control channel's reader/writer is the stdlib XML-RPC codec.

``repro.core.wire`` writes and walks the closed grammar
``xmlrpc.client.dumps(..., allow_none=True)`` emits and hands everything
else to ``xmlrpc.client`` itself, which is therefore the oracle here: for
any value — marshallable or not — and any document — well-formed or not —
both codecs must give the same text, the same value (type included) or
the same exception type.  Agreement must not depend on which path
``wire`` took, so nothing below looks at the fallback counter.
"""

import xmlrpc.client

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import wire
from tests.property.test_record_block_equivalence import _NASTY

_text = st.one_of(
    st.sampled_from(_NASTY + [">", "a>b", "1_0", "plain", "two\nlines"]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8),
    st.text(st.characters(exclude_categories=()), max_size=6),  # lone surrogates included
)
_SUBCLASSED = [
    type("Str", (str,), {})("x"),
    type("Int", (int,), {})(3),
    type("Float", (float,), {})(0.5),
    type("List", (list,), {})([1]),
    type("Dict", (dict,), {})(a=1),
]
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**31) - 2, max_value=-(2**31) + 2),
    st.integers(min_value=2**31 - 2, max_value=2**31 + 2),
    st.floats(),
    st.just(-0.0),
    _text,
    st.binary(max_size=3),
    st.builds(object),
    st.sampled_from(_SUBCLASSED),
)
_keys = st.one_of(_text, _text, st.integers(0, 3), st.none())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=12,
)
_method = st.one_of(st.sampled_from(["ping", "execute_action", "", "a<b", "é"]), _text)


def _spelled(value):
    """``repr``, so that ``nan``, ``-0.0``, ``True`` vs ``1`` and list vs tuple
    all count — with a ``Binary`` (whose ``repr`` is its address) spelled out."""
    if isinstance(value, xmlrpc.client.Binary):
        return f"Binary({value.data!r})"
    if isinstance(value, (list, tuple)):
        return type(value).__name__ + "(" + ",".join(map(_spelled, value)) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{_spelled(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _outcome(fn, *args, **kwargs):
    """``("ok", the result spelled out)`` or ``("raised", exception type)``."""
    try:
        return "ok", _spelled(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)


def _agree(params, methodname, methodresponse):
    ours = _outcome(wire.dumps, params, methodname, methodresponse)
    theirs = _outcome(xmlrpc.client.dumps, params, methodname, methodresponse, allow_none=True)
    assert ours == theirs
    if theirs[0] == "ok":
        document = xmlrpc.client.dumps(params, methodname, methodresponse, allow_none=True)
        assert _outcome(wire.loads, document) == _outcome(xmlrpc.client.loads, document)


@settings(max_examples=400, deadline=None)
@given(params=st.lists(_values, max_size=4).map(tuple), method=_method)
@example(params=({"]]>": None},), method="m")
@example(params=(None,), method="m")
@example(params=("1_0",), method="m")
@example(params=(2**31 - 1, -(2**31), 2**31), method="m")
@example(params=({"events": '{"a": 1}\n{"b": [[2]]}', "packets": ""},), method="collect_run")
def test_a_call_is_written_and_read_as_the_stdlib_does(params, method):
    _agree(params, method, False)


@settings(max_examples=400, deadline=None)
@given(value=_values)
@example(value={"]]>": None})
@example(value=None)
@example(value=float("nan"))
@example(value=xmlrpc.client.Fault(503, "node gone & <lost>"))
def test_a_response_is_written_and_read_as_the_stdlib_does(value):
    _agree(value if isinstance(value, xmlrpc.client.Fault) else (value,), None, True)


def test_a_self_referencing_value_is_refused_like_the_stdlib_refuses_it():
    loop = []
    loop.append(loop)
    with pytest.raises(TypeError, match="recursive"):
        wire.dumps((loop,), "m")


# fmt: off
_PIECES = [
    "<?xml version='1.0'?>\n", "<methodCall>\n", "</methodCall>\n", "<methodResponse>\n",
    "</methodResponse>\n", "<methodName>", "</methodName>\n", "<params>\n", "</params>\n",
    "<param>\n", "</param>\n", "<value>", "</value>", "</value>\n", "<string>", "</string>",
    "<int>", "</int>", "<i4>", "</i4>", "<double>", "</double>", "<boolean>", "</boolean>",
    "<nil/>", "<array><data>\n", "</data></array>", "<struct>\n", "</struct>", "<member>\n",
    "</member>\n", "<name>", "</name>\n", "<fault>\n", "</fault>\n", "<base64>\n", "</base64>",
    "\n", " ", "ping", "x", "0", "1", "3", " 3", "-0", "007", "1_0", "2.5", "1e5", "nan", "inf",
    ">", "]]>", "&amp;", "&", "\r", "\t", "\x01", "é", "\ud800",
]
# fmt: on


@settings(max_examples=600, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(_PIECES), max_size=24),
    framed=st.sampled_from(["call", "response", "bare"]),
)
@example(pieces=["<value>", "<int>", " 3", "</int>", "</value>\n"], framed="response")
@example(pieces=["<value>", "<int>", "1_0", "</int>", "</value>\n"], framed="response")
@example(pieces=["<value>", "<boolean>", "3", "</boolean>", "</value>\n"], framed="response")
@example(pieces=["<value>", "<string>", "]]>", "</string>", "</value>\n"], framed="response")
@example(pieces=["<value>", "<double>", "1e5", "</double>", "</value>\n"], framed="call")
@example(pieces=["<value>", "x", "</value>\n"], framed="call")
def test_any_layout_of_the_tag_alphabet_reads_as_the_stdlib_reads_it(pieces, framed):
    """Truncated, re-ordered and almost-right documents: ``pieces`` go where
    one ``<param>`` belongs (or stand alone), so near misses are common."""
    body = "".join(pieces)
    param = "<param>\n" + body + "</param>\n"
    if framed == "call":
        body = wire._CALL + "m</methodName>\n<params>\n" + param + wire._CALL_END
    elif framed == "response":
        body = wire._RESPONSE + param + wire._RESPONSE_END
    assert _outcome(wire.loads, body) == _outcome(xmlrpc.client.loads, body)


@settings(max_examples=200, deadline=None)
@given(value=_values, cut=st.integers(0, 400), extra=st.sampled_from(_PIECES))
def test_a_truncated_or_padded_document_reads_as_the_stdlib_reads_it(value, cut, extra):
    try:
        document = xmlrpc.client.dumps((value,), methodresponse=True, allow_none=True)
    except Exception:  # noqa: BLE001 - not marshallable: covered above
        return
    cut = min(cut, len(document))
    for damaged in (document[:cut], document[:cut] + extra + document[cut:], document + extra):
        assert _outcome(wire.loads, damaged) == _outcome(xmlrpc.client.loads, damaged)
