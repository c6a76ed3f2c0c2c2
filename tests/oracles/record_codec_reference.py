"""The record encoder as it was before one C encoder was bound for good.

Frozen: a ``json.JSONEncoder(sort_keys=True)`` whose ``encode`` builds a
new C encoder, with its own circular-reference markers, on every call.
``tests/property/test_record_codec.py`` compares
``repro.durable.encode_record`` against it.
"""

import json

encode_record = json.JSONEncoder(sort_keys=True).encode
