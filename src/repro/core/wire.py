"""How a call, a reply or an upcall becomes XML-RPC text and back.

The control channel speaks a closed grammar: what ``xmlrpc.client.dumps(...,
allow_none=True)`` emits for exact ``int`` (32-bit), ``bool``, ``float``,
``str``, ``None``, ``list``/``tuple`` and ``str``-keyed ``dict``.
:func:`dumps` writes those very bytes (quirks included: ``>`` escaped too, no
newline after ``<nil/>``); :func:`loads` walks the same layout with
``str.startswith``/``index`` instead of an expat parser and a Python callback
per element, and takes a document only if it is printable ASCII plus ``\\n``
without ``&``, laid out byte for byte as the writer lays it out.

Anything else in either direction — a :class:`Fault`, a subclass, an
out-of-range int, an unknown tag, non-ASCII or entity-bearing text, ``\\r``, a
control character, one stray byte of layout — is handed whole to the stdlib
codec and counted in ``repro_rpc_codec_fallback_total{direction}``: the stdlib
stays the only path beyond the grammar, and the oracle of
``tests/property/test_wire_codec_equivalence.py``.  No cache, no memo.
"""

from __future__ import annotations

import xmlrpc.client
from typing import Any, List, Optional, Tuple
from xmlrpc.client import MAXINT, MININT, Fault, escape

from repro.obs.metrics import Counter, get_registry

__all__ = ["Fault", "dumps", "fallback_counter", "loads"]

_CALL = "<?xml version='1.0'?>\n<methodCall>\n<methodName>"
_CALL_END = "</params>\n</methodCall>\n"
_RESPONSE = "<?xml version='1.0'?>\n<methodResponse>\n<params>\n"
_RESPONSE_END = "</params>\n</methodResponse>\n"
#: Every byte of a document the reader takes (an entity is the parser's business).
_PLAIN = bytes(set(range(0x20, 0x7F)) - {ord("&")}) + b"\n"


class _Beyond(ValueError):
    """The message is outside the grammar: the stdlib codec takes it."""


def fallback_counter() -> Counter:
    """``repro_rpc_codec_fallback_total`` of the current registry."""
    return get_registry().counter(
        "repro_rpc_codec_fallback_total",
        "Control-channel messages handed to the stdlib XML-RPC codec",
        labels=("direction",),
    )


def _escape(text: str) -> str:
    """``xmlrpc.client.escape``, asked only when there is something to escape
    (its three ``replace`` passes cost 20x a look for nothing to replace)."""
    return escape(text) if "&" in text or "<" in text or ">" in text else text


def _write(value: Any, out: List[str]) -> None:
    kind = type(value)
    if kind is str:
        out.append(f"<value><string>{_escape(value)}</string></value>\n")
    elif kind is int and MININT <= value <= MAXINT:
        out.append(f"<value><int>{value}</int></value>\n")
    elif kind is float:
        out.append(f"<value><double>{value!r}</double></value>\n")
    elif kind is dict:
        out.append("<value><struct>\n")
        for name, member in value.items():
            if type(name) is not str:
                raise _Beyond
            out.append(f"<member>\n<name>{_escape(name)}</name>\n")
            _write(member, out)
            out.append("</member>\n")
        out.append("</struct></value>\n")
    elif kind is list or kind is tuple:
        out.append("<value><array><data>\n")
        for item in value:
            _write(item, out)
        out.append("</data></array></value>\n")
    elif value is None:
        out.append("<value><nil/></value>")
    elif kind is bool:
        out.append(f"<value><boolean>{value:d}</boolean></value>\n")
    else:
        raise _Beyond


def dumps(params: Any, methodname: Optional[str] = None, methodresponse: bool = False) -> str:
    """``xmlrpc.client.dumps(params, methodname, methodresponse, allow_none=True)``."""
    try:
        if type(params) is tuple and type(methodname) is str and methodname:
            out, end = [_CALL, methodname, "</methodName>\n<params>\n"], _CALL_END
        elif type(params) is tuple and len(params) == 1 and methodresponse and not methodname:
            out, end = [_RESPONSE], _RESPONSE_END
        else:
            raise _Beyond
        for param in params:
            out.append("<param>\n")
            _write(param, out)
            out.append("</param>\n")
        return "".join(out) + end
    except (_Beyond, RecursionError):  # a self-referencing value recurses
        pass
    fallback_counter().inc(direction="encode")
    return xmlrpc.client.dumps(params, methodname, methodresponse, allow_none=True)


def _skip(data: str, pos: int, text: str) -> int:
    if not data.startswith(text, pos):
        raise _Beyond
    return pos + len(text)


def _leaf(
    data: str, pos: int, close: str, parse: Any = str, spell: Any = _escape
) -> Tuple[Any, int]:
    """The value of the text from *pos* up to *close* and the position after
    it — beyond the grammar unless the writer spells that value that way."""
    end = data.index("<", pos)
    text = data[pos:end]
    value = parse(text)
    if spell(value) != text:
        raise _Beyond
    return value, _skip(data, end, close)


#: opening, closing, text to value, value to the text the writer emits for it
_LEAVES = (
    ("<value><string>", "</string></value>\n", str, _escape),
    ("<value><int>", "</int></value>\n", int, str),
    ("<value><double>", "</double></value>\n", float, repr),
    ("<value><boolean>", "</boolean></value>\n", "1".__eq__, "{:d}".format),
)


def _read(data: str, pos: int) -> Tuple[Any, int]:
    """The ``<value>`` at *pos* and the position after it."""
    for start, close, parse, spell in _LEAVES:
        if data.startswith(start, pos):
            return _leaf(data, pos + len(start), close, parse, spell)
    if data.startswith("<value><struct>\n", pos):
        struct, pos = {}, pos + 16
        while data.startswith("<member>\n<name>", pos):
            name, pos = _leaf(data, pos + 15, "</name>\n")
            struct[name], pos = _read(data, pos)
            pos = _skip(data, pos, "</member>\n")
        return struct, _skip(data, pos, "</struct></value>\n")
    if data.startswith("<value><array><data>\n", pos):
        array, pos = [], pos + 21
        while not data.startswith("</data></array></value>\n", pos):
            item, pos = _read(data, pos)
            array.append(item)
        return array, pos + 24
    return None, _skip(data, pos, "<value><nil/></value>")


def loads(data: str) -> Tuple[Tuple[Any, ...], Optional[str]]:
    """``xmlrpc.client.loads(data)``; a fault response raises :class:`Fault`."""
    try:
        if type(data) is not str or data.encode("ascii").translate(None, _PLAIN):
            raise _Beyond
        method, pos, tail = None, len(_RESPONSE), _RESPONSE_END
        if data.startswith(_CALL):
            method, pos = _leaf(data, len(_CALL), "</methodName>\n<params>\n")
            tail = _CALL_END
        elif not data.startswith(_RESPONSE):
            raise _Beyond
        params = []
        while data.startswith("<param>\n", pos):
            value, pos = _read(data, pos + 8)
            pos = _skip(data, pos, "</param>\n")
            params.append(value)
        if data[pos:] != tail:
            raise _Beyond
        return tuple(params), method
    except (ValueError, RecursionError):  # _Beyond, non-ASCII, no "<", a bad number
        pass
    fallback_counter().inc(direction="decode")
    return xmlrpc.client.loads(data)
