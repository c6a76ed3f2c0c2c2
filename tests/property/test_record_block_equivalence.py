"""A record block survives the control channel byte for byte.

The node encodes a run's records once (``encode_block``), the block crosses
the real XML-RPC codec as a ``<string>`` and ``RunWriter.add_block`` frames
its lines verbatim.  For every JSON-safe record list that must write exactly
the bytes ``RunWriter.append`` writes for the records themselves — XML text
normalisation (``\\r\\n``, entities, ``]]>``) must not be able to touch it.
"""

import json
import tempfile
import xmlrpc.client
from pathlib import Path
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.level2 import Level2Store, RunWriter, encode_block

_NASTY = ["\r\n", "\r", "\n", "\t", "\x00", "\x1f", "&<>", "&amp;", "]]>", "<![CDATA[",
          "\ud800", "\udfff", "\U0001f600", " ", "\x7f", "é", ""]
_text = st.one_of(
    st.sampled_from(_NASTY),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x1F, exclude_categories=()), max_size=4),
    st.text(st.characters(exclude_categories=()), max_size=8),  # lone surrogates included
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    _text,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=10,
)
_records = st.lists(st.dictionaries(_text, _values, max_size=5), max_size=6)


def _through_the_wire(block):
    """What the master receives for a reply carrying *block*."""
    xml = xmlrpc.client.dumps(({"events": block},), methodresponse=True, allow_none=True)
    (reply,), _ = xmlrpc.client.loads(xml)
    return reply["events"]


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(st.tuples(st.sampled_from(["h1", "h2", "nöde"]), _records),
                        min_size=1, max_size=4))
@example(batches=[("h1", [])])
@example(batches=[("h1", [{"a": "x\r\ny]]>&<\x00\ud800", "n": 2**40, "z": -0.0}]), ("h2", [])])
def test_block_path_writes_the_bytes_append_writes(batches):
    with tempfile.TemporaryDirectory() as tmp:
        by_block, by_append = Level2Store(Path(tmp, "a")), Level2Store(Path(tmp, "b"))
        with patch.object(RunWriter, "FLUSH_RECORDS", 3), \
                by_block.run_writer(0) as blocks, by_append.run_writer(0) as appends:
            for node, records in batches:
                block = encode_block(records)
                assert block.isascii()
                blocks.add_block(node, "events.jsonl", _through_the_wire(block))
                appends.append(node, "events.jsonl", records)
        assert blocks.records_written == appends.records_written
        written = Path(tmp, "a", "runs", "0", "events.jsonl").read_bytes()
        assert written == Path(tmp, "b", "runs", "0", "events.jsonl").read_bytes()

        expected = {}
        for node, records in batches:
            expected.setdefault(node, []).extend(json.loads(json.dumps(records)))
        assert by_block.read_run_stream(0, "events.jsonl") == expected
