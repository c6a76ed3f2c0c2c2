"""The paged Table-I digest equals the frozen GROUP BY digest.

``database_digest`` reads each Table-I table in keyset pages by rowid;
:func:`tests.oracles.digest_reference.reference_database_digest` is the
one-``GROUP BY`` digest it replaced.  The hex value is the repeatability
claim every package carries, so the two must agree on any table
contents: rowid gaps left by ``DELETE``, every storage class (``NULL``,
``BLOB``, ``REAL`` edge values, ``TEXT`` with quotes, newlines and
non-ASCII), empty tables, row counts at and around multiples of the page
size and of the oracle's 4096-row group, and ``ignore_columns`` masking
any set of columns, a whole table's included.
"""

import sqlite3
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.level3 import _DIGEST_PAGE_ROWS, TABLE_SCHEMAS, database_digest

from tests.oracles.digest_reference import reference_database_digest

REAL_EDGES = [-0.0, 0.0, 0.1 + 0.2, 1e300, -1e300, 5e-324, float("inf"), float("-inf")]

values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from(REAL_EDGES),
    st.floats(allow_nan=False),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(["'", "''", "a\nb", "\n", "|", "ü€😀", "NULL", ""]),
    st.binary(max_size=8),
)

#: Row counts of the one long table an example draws: at, just under and
#: just over one and two digest pages, and the oracle's group boundary.
LONG_COUNTS = sorted({
    n + d
    for n in (_DIGEST_PAGE_ROWS, 2 * _DIGEST_PAGE_ROWS, 4096)
    for d in (-1, 0, 1)
} | {0, 1})

ALL_COLUMNS = sorted({c for columns in TABLE_SCHEMAS.values() for c in columns})


@st.composite
def packages(draw):
    """``(rows per table, rowids to delete per table, ignore_columns)``."""
    tables = list(TABLE_SCHEMAS)
    rows = {
        table: draw(st.lists(
            st.tuples(*[values] * len(TABLE_SCHEMAS[table])), max_size=6,
        ))
        for table in tables
    }
    long_table = draw(st.sampled_from(tables))
    long_count = draw(st.sampled_from(LONG_COUNTS))
    width = len(TABLE_SCHEMAS[long_table])
    rows[long_table] = rows[long_table] + [
        tuple([i, i * 0.5, f"r{i}'\n"][k % 3] for k in range(width))
        for i in range(long_count)
    ]
    deletes = {
        table: draw(st.lists(st.integers(1, max(1, len(rows[table]))), max_size=40))
        for table in tables
    }
    if long_count and draw(st.booleans()):  # a whole page goes missing
        deletes[long_table] += list(range(1, min(long_count, _DIGEST_PAGE_ROWS) + 1))
    ignore = draw(st.lists(st.sampled_from(ALL_COLUMNS), max_size=4))
    if draw(st.booleans()):
        ignore += TABLE_SCHEMAS[draw(st.sampled_from(tables))]
    return rows, deletes, ignore


def _write(path: Path, rows, deletes) -> None:
    # Untyped columns: every storage class is stored as drawn.
    conn = sqlite3.connect(str(path))
    try:
        for table, columns in TABLE_SCHEMAS.items():
            conn.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
            marks = ", ".join("?" * len(columns))
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows[table])
            conn.executemany(
                f"DELETE FROM {table} WHERE rowid = ?", [(r,) for r in deletes[table]],
            )
        conn.commit()
    finally:
        conn.close()


@settings(max_examples=100, deadline=None)
@given(packages())
def test_paged_digest_equals_the_group_by_oracle(package):
    rows, deletes, ignore = package
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.db"
        _write(path, rows, deletes)
        assert database_digest(path) == reference_database_digest(path)
        assert database_digest(path, ignore) == reference_database_digest(path, ignore)
