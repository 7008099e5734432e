"""Driver-style correctness check: run queries() vs oracle_sql() at a
given sf dir and compare rows / schema / values exactly.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
(defaults: /root/testdata/sf0.01, all queries that have an oracle)

Prints one line per query, ending in its wall seconds (the query and
its DuckDB check), and a last ``N/M OK`` line; exits 1 when any query
FAILs or ERRORs.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def compare(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> str:
    if not isinstance(got, pd.DataFrame):
        try:
            got = got.to_pandas()
        except AttributeError:
            return f"{name}: FAIL (not a DataFrame: {type(got)})"
    if len(got) != len(exp):
        return f"{name}: FAIL rows {len(got)} != {len(exp)}"
    if sorted(got.columns) != sorted(exp.columns):
        return f"{name}: FAIL schema {sorted(got.columns)} != {sorted(exp.columns)}"
    g = got[sorted(got.columns)].reset_index(drop=True)
    e = exp[sorted(exp.columns)].reset_index(drop=True)
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            if not np.array_equal(gv.astype(np.float64), ev.astype(np.float64),
                                  equal_nan=True):
                i = np.where(gv.astype(np.float64) != ev.astype(np.float64))[0][:3]
                return f"{name}: FAIL values col={c} rows={i.tolist()} got={gv[i]} exp={ev[i]}"
        else:
            if not (gv.astype(str) == ev.astype(str)).all():
                bad = np.where(gv.astype(str) != ev.astype(str))[0][:3]
                return f"{name}: FAIL values col={c} rows={bad.tolist()} got={gv[bad]} exp={ev[bad]}"
    return f"{name}: OK ({len(got)} rows)"


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 logging_level="ERROR")
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as ent
    qs, oracles = ent.queries(), ent.oracle_sql()
    names = sys.argv[2:] or [n for n in qs if n in oracles]
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    n_ok = n_bad = 0
    for n in names:
        t0 = time.perf_counter()
        try:
            got = qs[n](sf_dir)
            if n in oracles:
                line = compare(n, got, con.execute(oracles[n]).df())
            else:
                line = f"{n}: rows-only ({len(got)} rows)"
        except Exception as exc:  # noqa: BLE001
            line = f"{n}: ERROR {type(exc).__name__}: {exc}"
        n_ok += ": OK " in line
        n_bad += ": FAIL" in line or ": ERROR " in line
        print(f"{line} [{time.perf_counter() - t0:.2f} s]", flush=True)
    ray.shutdown()
    print(f"{n_ok}/{len(names)} OK", flush=True)
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
