"""Run a Python module with the row-dict oracle in place of the SQL engine.

Every :class:`repro.sql.Database` created during the run executes its
statements on :class:`rowdict_oracle.RowDictOracle`, so the golden gates can
check the oracle itself against the committed corpora::

    PYTHONPATH=src python tests/sql/with_oracle.py -m repro.scenarios --golden
    PYTHONPATH=src python tests/sql/with_oracle.py -m pytest tests/obs/test_lineage_differential.py -q
"""

import runpy
import sys

import repro.sql.database
from rowdict_oracle import RowDictOracle


def main(argv):
    if len(argv) < 2 or argv[0] != "-m":
        raise SystemExit("usage: with_oracle.py -m MODULE [ARGS...]")
    repro.sql.database.Executor = RowDictOracle
    sys.argv = [argv[1]] + argv[2:]
    runpy.run_module(argv[1], run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
