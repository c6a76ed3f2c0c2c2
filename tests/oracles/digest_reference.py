"""The Table-I digest as it ran with one ``GROUP BY`` (equivalence oracle).

Frozen: :func:`reference_database_digest` is ``database_digest`` as it
read a level-3 package before the digest paged each table by rowid —
every quoted row of a table fed through ``GROUP BY rid / 4096`` and each
4096-row group handed to Python as one string.  The hashed stream (per
table the ``--T(cols)--`` header, then each row followed by ``\\n``) is
what the production digest must reproduce byte for byte;
``tests/property/test_digest_equivalence.py`` compares the two.

Do not optimize this module: it is what the production digest is
measured against.
"""

from __future__ import annotations

import hashlib
import sqlite3
from typing import Iterable

from repro.storage.level3 import TABLE_SCHEMAS

__all__ = ["reference_database_digest"]


def reference_database_digest(db_path, ignore_columns: Iterable[str] = ()) -> str:
    ignored = set(ignore_columns)
    digest = hashlib.sha256()
    conn = sqlite3.connect(str(db_path))
    try:
        for table, columns in TABLE_SCHEMAS.items():
            keep = [c for c in columns if c not in ignored]
            digest.update(f"--{table}({','.join(keep)})--".encode())
            if not keep:
                continue
            row_expr = " || '|' || ".join(f"quote({c})" for c in keep)
            # Concatenate rows into ~4096-row chunks inside SQLite:
            # Python touches one string per chunk, memory stays bounded.
            cursor = conn.execute(
                f"SELECT group_concat(s, char(10)) FROM "
                f"(SELECT {row_expr} AS s, rowid AS rid FROM {table}) "
                f"GROUP BY rid / 4096 ORDER BY rid / 4096",
            )
            for (chunk,) in cursor:
                if chunk is not None:
                    digest.update(chunk.encode())
                    digest.update(b"\n")
    finally:
        conn.close()
    return digest.hexdigest()
