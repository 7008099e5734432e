"""Similarity search over the ``embeddings`` table (list<float> column).

- brute-force cosine top-k: the baseline — numpy matmul per batch
  against a broadcast query vector (predicate-pushdown read of ONE
  row, ``ray.put`` once, read in every task), per-batch top-k then a
  tiny global top-k. No shuffle, nothing corpus-sized on the driver.
- embedding near-dup: IVF-cell-bucketed candidate generation — every
  vector is assigned to ALL coarse cells within a similarity MARGIN of
  its best cell (broadcast centroid matrix, one matmul per batch) and
  pairs are emitted ONLY inside each cell's ``map_groups`` task. No
  all-pairs scan, no corpus-matrix broadcast. Completeness is a
  theorem, not a hope: for unit u, v with cos(u,v) ≥ τ we have
  ‖u−v‖ ≤ √(2(1−τ)), so for any centroid c the similarities differ by
  at most that bound; taking MARGIN = 2·√(2(1−τ)) makes u's best cell
  fall inside v's margin band (and vice versa), so every qualifying
  pair co-assigns to at least one cell. Skewed cells are handled by a
  split-and-mirror salt (see ``embedding_near_dup_pairs``).

All cosine math is float64 on both sides (the DuckDB oracle casts to
DOUBLE[]) so rounded values hash identically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.agg import partial_merge, partitions_for, table_bytes

N_COPY_VECS = 5
COPY_OFFSET = 10_000
COSINE_DUP_THRESHOLD = 0.999


def _emb_np(col) -> np.ndarray:
    """list<float> column → (n, dim) float64 matrix via Arrow flatten —
    no per-row Python objects (``to_pylist`` built n × dim PyFloats in
    every hot kernel). float32→float64 widening is exact, so results
    are bit-identical to the old path."""
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(n, -1)


def _query_unit(sf_dir: str) -> np.ndarray:
    """Unit-normalized vec_id=0 query vector via a predicate-pushdown
    read of exactly one row — never the whole embeddings table on the
    driver."""
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist()[0], dtype=np.float64)
    return q / np.linalg.norm(q)


def knn_brute_force(sf_dir: str) -> pd.DataFrame:
    """Top-10 by cosine similarity to the vec_id=0 embedding (query
    vector broadcast once; per-batch partial top-k; deterministic
    ordering by (rounded sim desc, vec_id asc))."""
    k = 10
    q_ref = ray.put(_query_unit(sf_dir))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        vid = batch["vec_id"].to_numpy().astype(np.int64)
        m = _emb_np(batch["embedding"])
        norms = np.linalg.norm(m, axis=1)
        sims = (m @ qv) / np.where(norms > 0, norms, 1.0)
        mask = vid != 0
        vid, sims = vid[mask], np.round(sims[mask], 6)
        order = np.lexsort((vid, -sims))[:k]
        return pa.table({"vec_id": pa.array(vid[order], type=pa.int64()),
                         "cosine_sim": pa.array(sims[order], type=pa.float64())})

    out = ds.map_batches(topk, batch_format="pyarrow", batch_size=4096).to_pandas()
    out = out.sort_values(["cosine_sim", "vec_id"],
                          ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def embedding_centroid_mass(sf_dir: str) -> pd.DataFrame:
    """Per label: count + mean of per-vector element sums (a scalar
    centroid statistic that stays SQL-checkable)."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["label", "embedding"])

    def mass(batch: pa.Table) -> pa.Table:
        # per-vector sum quantized to int64 micro-units: numpy's pairwise
        # summation and DuckDB's sequential list_sum agree to within an
        # ulp, and the quantized integers (then an exact int sum) are
        # order-independent across engines
        m = _emb_np(batch["embedding"])
        vs_i = np.floor(m.sum(axis=1) * 1e6 + 0.5).astype(np.int64)
        return pa.table({"label": batch["label"],
                         "vs_i": pa.array(vs_i, type=pa.int64())})

    # cardinality: label — small fixed label set, bounded
    out = partial_merge(ds, mass, keys=["label"],
                        spec={"n_vecs": ("vs_i", "count"),
                              "vs_i": ("vs_i", "sum")})
    out["avg_vec_sum"] = (out["vs_i"] / 1e6) / out["n_vecs"].astype("float64")
    out = out[["label", "n_vecs", "avg_vec_sum"]]
    return out.sort_values("label").reset_index(drop=True)


# Completeness margin for cell assignment at threshold τ: two unit
# vectors with cos ≥ τ are at most √(2(1−τ)) apart, so their
# similarities to ANY centroid differ by at most that much, and each
# one's best cell lies within 2·√(2(1−τ)) of the other's best — vectors
# therefore include every cell within this margin of their own best.
# (At τ=0.999: 2·0.0448 ≈ 0.0895.) A small epsilon absorbs float noise.
def _assign_margin(threshold: float) -> float:
    return 2.0 * float(np.sqrt(2.0 * (1.0 - threshold))) + 1e-9


# Split-and-mirror shard cap: a cell with more members than this is cut
# into s = ceil(n/cap) vec_id-hashed shards and re-keyed to the
# s(s+1)/2 shard-PAIR subtasks (each member replicated into the s
# subtasks touching its shard), so every within-cell pair still
# co-occurs in exactly the subtask of its two shards while per-task
# work stays O(cap²) — the skew treatment for a corpus whose vectors
# concentrate in few cells.
CELL_SPLIT_CAP = 4096
_MAX_SHARDS = 255

# IVF coarse quantizer: cells, and the prefix of vectors it trains on.
IVF_CELLS = 16
IVF_TRAIN_SAMPLE = 2048


def embedding_near_dup_pairs(sf_dir: str, n_cells: int = IVF_CELLS,
                             train_sample: int = IVF_TRAIN_SAMPLE,
                             cell_cap: int = CELL_SPLIT_CAP) -> pd.DataFrame:
    """Cosine near-dup pairs over the corpus augmented with exact copies
    of the first N_COPY_VECS vectors (vec_id+COPY_OFFSET), via
    IVF-CELL-BUCKETED candidate generation (the 100 TB shape — never an
    O(n²) scan or a corpus-matrix broadcast):

    1. TRAIN (driver, small): spherical k-means coarse quantizer on a
       ``train_sample`` prefix (same step as ivf_topk);
    2. COUNT (distributed, cheap): per-cell membership counts under the
       margin assignment — a ``partial_merge`` of per-batch counts,
       n_cells rows per batch — to size the split-and-mirror salt;
    3. ASSIGN (distributed): each batch normalizes its vectors, adds
       the seeded copies, and emits one (cell, vec_id, unit-vector)
       row per cell within ``_assign_margin`` of its best cell — a
       GUARANTEED-complete assignment for pairs at or above the
       threshold (derivation at ``_assign_margin``), not a recall
       heuristic. Cells over ``cell_cap`` fan out to shard-pair
       subtasks (split-and-mirror; key = cell·2¹⁶ + shard pair);
    4. ``groupby`` on the salted key → pairwise cosine WITHIN each
       task only (O(Σ cap²)); cross-cell/cross-subtask duplicates of
       a pair are dropped after the (output-sized) pair set reaches
       the driver.

    Matches the oracle's exhaustive cross join (equality asserted in
    tests/test_similarity.py, including a one-cell-concentrated skew
    corpus). Scale note: n_cells should grow ~√n so cells stay
    bounded; the salt handles the cells that stay hot anyway."""
    out = _near_dup_pairs_ivf_ds(sf_dir, n_cells, train_sample,
                                 cell_cap).to_pandas()
    out = out.drop_duplicates(["vec_a", "vec_b"])
    out = out.astype({"vec_a": "int64", "vec_b": "int64"})
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def _near_dup_pairs_ivf_ds(sf_dir: str, n_cells: int, train_sample: int,
                           cell_cap: int) -> "rd.Dataset":
    """Steps 1-4 of ``embedding_near_dup_pairs``: a Dataset of
    (vec_a, vec_b, cosine_sim) pairs, unsorted, with a pair found in
    several cells repeated."""
    margin = _assign_margin(COSINE_DUP_THRESHOLD)
    sample_unit, _ids = _sample_unit(sf_dir, train_sample)
    centroids = _train_coarse_quantizer(sample_unit, n_cells)
    cent_ref = ray.put(centroids)

    def _scan():
        return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def _margin_cells(batch: pa.Table):
        """(vec_ids incl. seeded copies, unit rows, bool membership
        matrix vec × cell under the margin rule) — shared by the
        count and assign passes so their assignments agree exactly."""
        cents = ray.get(cent_ref)
        vid = batch["vec_id"].to_numpy().astype(np.int64)
        m = _emb_np(batch["embedding"])
        copy_mask = vid < N_COPY_VECS
        vid = np.concatenate([vid, vid[copy_mask] + COPY_OFFSET])
        m = np.vstack([m, m[copy_mask]])
        norms = np.linalg.norm(m, axis=1)
        unit = m / np.where(norms > 0, norms, 1.0)[:, None]
        sims = unit @ cents.T
        member = sims >= (sims.max(axis=1, keepdims=True) - margin)
        return vid, unit, member

    def count_cells(batch: pa.Table) -> pa.Table:
        _vid, _unit, member = _margin_cells(batch)
        return pa.table({"cell": pa.array(np.arange(member.shape[1]),
                                          type=pa.int64()),
                         "n": pa.array(member.sum(axis=0).astype(np.int64),
                                       type=pa.int64())})

    counts = np.zeros(n_cells, dtype=np.int64)
    cells = partial_merge(_scan(), count_cells, keys=["cell"],
                          spec={"n": ("n", "sum")})
    counts[cells["cell"].to_numpy(np.int64)] = cells["n"].to_numpy(np.int64)
    shards = np.minimum(_MAX_SHARDS,
                        np.maximum(1, -(-counts // cell_cap))).astype(np.int64)
    shards_ref = ray.put(shards)

    def assign_cells(batch: pa.Table) -> pa.Table:
        n_shards = ray.get(shards_ref)
        vid, unit, member = _margin_cells(batch)
        vrow, cell = np.nonzero(member)
        s_of = n_shards[cell]
        # unsalted fast path (the overwhelmingly common case): one
        # vectorized emit per (vec, cell) membership
        plain = s_of <= 1
        keys = [(cell[plain].astype(np.int64) << 16)]
        rows_v = [vid[vrow[plain]]]
        rows_u = [vrow[plain]]
        # salted cells: mirror each member into its s shard-pair subtasks
        hot = np.nonzero(~plain)[0]
        if hot.size:
            shard = (vid[vrow[hot]].astype(np.uint64)
                     * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(32)) \
                % s_of[hot].astype(np.uint64)
            k_ext, r_ext = [], []
            for idx, sh in zip(hot, shard.astype(np.int64)):
                c, s = int(cell[idx]), int(s_of[idx])
                for other in range(s):
                    i, j = (sh, other) if sh <= other else (other, sh)
                    k_ext.append((c << 16) | (i << 8) | j)
                    r_ext.append(vrow[idx])
            keys.append(np.asarray(k_ext, dtype=np.int64))
            rows_v.append(vid[np.asarray(r_ext, dtype=np.int64)])
            rows_u.append(np.asarray(r_ext, dtype=np.int64))
        key_arr = np.concatenate(keys)
        unit_rows = unit[np.concatenate(rows_u).astype(np.int64)]
        return pa.table({
            "cell": pa.array(key_arr, type=pa.int64()),
            "vec_id": pa.array(np.concatenate(rows_v), type=pa.int64()),
            "unit": pa.array(list(unit_rows), type=pa.list_(pa.float64())),
        })

    def cell_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id")
        ids = g["vec_id"].to_numpy()
        unit = np.vstack(g["unit"].to_numpy())
        sims = unit @ unit.T
        iu, ju = np.triu_indices(len(ids), k=1)
        hit = sims[iu, ju] >= COSINE_DUP_THRESHOLD
        a, b = ids[iu[hit]], ids[ju[hit]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({
            "vec_a": pd.Series(lo, dtype="int64"),
            "vec_b": pd.Series(hi, dtype="int64"),
            "cosine_sim": np.round(sims[iu[hit], ju[hit]], 4),
        })

    return _scan().map_batches(assign_cells, batch_format="pyarrow",
                               batch_size=4096) \
        .groupby("cell").map_groups(cell_pairs, batch_format="pandas")


def _sample_unit(sf_dir: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``n`` embeddings, unit-normalized (quantizer training
    sample — a bounded prefix read, not the full table)."""
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    first = next(pf.iter_batches(batch_size=n,
                                 columns=["vec_id", "embedding"]))
    sample = np.asarray(first["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(sample, axis=1)
    unit = sample / np.where(norms > 0, norms, 1.0)[:, None]
    ids = np.asarray(first["vec_id"].to_pylist(), dtype=np.int64)
    return unit, ids


def _train_coarse_quantizer(sample_unit: np.ndarray,
                            n_cells: int) -> np.ndarray:
    """Deterministic spherical k-means on a driver-side SAMPLE (the
    standard IVF training step: the quantizer is trained on a small
    sample, never the full corpus). Strided init, 5 iterations, empty
    cells keep their previous centroid."""
    stride = max(1, len(sample_unit) // n_cells)
    centroids = sample_unit[::stride][:n_cells].copy()
    for _ in range(5):
        assign = np.argmax(sample_unit @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = sample_unit[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    centroids[c] = m / n
    return centroids


def ivf_topk(sf_dir: str) -> pd.DataFrame:
    """IVF ANN top-10, the 100 TB scale path for knn_brute_force:

    1. TRAIN (driver, small): spherical k-means coarse quantizer with
       ``IVF_CELLS`` cells on the first ``IVF_TRAIN_SAMPLE`` vectors;
    2. ASSIGN + PROBE (distributed): every batch normalizes its
       vectors, assigns them to their nearest centroid (broadcast
       centroid matrix, one matmul) and keeps only rows in the 4 cells
       nearest the query — the full corpus is never loaded on the
       driver;
    3. per-batch top-k over the probed subset → tiny global top-k.

    Results are approximate → rows-only driver check; recall vs brute
    force is asserted in tests."""
    k = 10
    sample_unit, sample_ids = _sample_unit(sf_dir, IVF_TRAIN_SAMPLE)
    centroids = _train_coarse_quantizer(sample_unit, IVF_CELLS)

    if 0 in sample_ids:
        q = sample_unit[sample_ids == 0][0]
    else:  # query vector outside the training sample: targeted read
        q = _query_unit(sf_dir)
    probe_cells = np.argsort(-(centroids @ q))[:4]
    ref = ray.put((q, centroids, np.asarray(sorted(probe_cells))))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def probe_topk(batch: pa.Table) -> pa.Table:
        qv, cents, cells = ray.get(ref)
        vid = batch["vec_id"].to_numpy().astype(np.int64)
        m = _emb_np(batch["embedding"])
        n = np.linalg.norm(m, axis=1)
        unit = m / np.where(n > 0, n, 1.0)[:, None]
        assign = np.argmax(unit @ cents.T, axis=1)
        mask = np.isin(assign, cells) & (vid != 0)
        vid, unit = vid[mask], unit[mask]
        sims = np.round(unit @ qv, 6)
        order = np.lexsort((vid, -sims))[:k]
        return pa.table({"vec_id": pa.array(vid[order], type=pa.int64()),
                         "cosine_sim": pa.array(sims[order], type=pa.float64())})

    out = ds.map_batches(probe_topk, batch_format="pyarrow",
                         batch_size=4096).to_pandas()
    out = out.sort_values(["cosine_sim", "vec_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def embedding_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Connected-components clustering of the embedding near-dup pair
    graph — the fixpoint-operator pattern (pipelines/dedup.py
    ``_propagate_components``: distributed pointer-jumping min-label
    propagation) composed over the IVF-bucketed pair generator instead
    of the MinHash one. Returns (vec_id, cluster_id, is_survivor) for
    every vector in at least one >=0.999-cosine pair; survivor = min
    vec_id per component. The pair Dataset goes into the propagation
    as it is, repeats included (a repeated edge changes no component):
    no pair row reaches the driver. Oracle: recursive-CTE transitive
    closure over the same pair SQL."""
    from .dedup import _propagate_components

    # renamed in a map: Ray 2.49's rename_columns fails on the pandas
    # blocks map_groups emits
    pairs = _near_dup_pairs_ivf_ds(sf_dir, IVF_CELLS, IVF_TRAIN_SAMPLE,
                                   CELL_SPLIT_CAP) \
        .map_batches(lambda t: pa.table({"doc_a": t["vec_a"],
                                         "doc_b": t["vec_b"]}),
                     batch_format="pyarrow").materialize()
    if pairs.count() == 0:
        return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64"),
                             "is_survivor": pd.Series([], dtype="int64")})
    out = _propagate_components(pairs, partitions_for(
        table_bytes(sf_dir, "embeddings", "embeddings")))
    return out.rename(columns={"doc_id": "vec_id"})
