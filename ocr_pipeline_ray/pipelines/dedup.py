"""Deduplication family: exact, MinHash+LSH near-dup, SimHash, n-gram
Jaccard — first-class operators for a 100 TB training-data pipeline.

Scale design (every stage distributed; nothing corpus-sized touches the
driver):
- exact dedup = content-hash column (vectorized map_batches) +
  hash-partitioned groupby + per-group first — one shuffle of keys.
- MinHash near-dup = shingle → MinHash signature per batch → explode to
  (band_key:int64, doc_id) rows → ``groupby(band_key)`` buckets →
  candidate pairs emitted *inside each bucket task*, globally deduped
  by a second (pair-hash) groupby → exact-Jaccard verification via two
  hash-partitioned joins that pull each candidate doc's shingle set
  onto its pair rows. The all-pairs O(n²) never happens; the band
  table, the candidate pair set and the shingle sets ALL stay in the
  cluster — the driver holds object refs and scalar counts only.
- SimHash = 64-bit signature per doc; 9 prefix bands (widths 8+7×8 =
  64) so by pigeonhole ANY pair at Hamming distance ≤ 8 shares at
  least one clean band → bucket groupby finds all of them.

For driver-gate determinism the corpus is augmented with seeded
duplicate copies (doc_id+100000, text prefixed "dup ") — constructed
identically in the DuckDB oracle — so the expected pair set is exact
and non-empty. MinHash parameters (128 perms, 32 bands × 4 rows) put
LSH recall at ~1-1e-30 for Jaccard ≥ 0.9 pairs, so the verified output
equals the oracle's exhaustive cross-join answer.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions import textstats as ts

N_DUP_DOCS = 10
DUP_OFFSET = 100_000
JACCARD_THRESHOLD = 0.8

# Shuffle fan-out for the global candidate-pair dedup (pairs found by
# several bands land in the same pbucket task and collapse there).
PAIR_DEDUP_BUCKETS = 64

# Shingle-set wire format for the verify joins: pyarrow's acero join
# rejects list<> payload columns, so each doc's (sorted, distinct)
# shingle set travels as one \x1f-delimited utf8 cell and is split back
# inside the verify kernel. Tokens split on ' ' only, so \x1f (unit
# separator) CAN appear inside a shingle; it is stripped from each
# shingle before the join (it would otherwise split one shingle into
# extra fragments). Only shingles that differ by \x1f alone collapse.
_SHINGLE_SEP = "\x1f"


def bucketed_min_survivor(ds: "rd.Dataset", key_col: str,
                          num_buckets: int,
                          id_col: str = "doc_id") -> "rd.Dataset":
    """The engine-standard exact-dedup reduction, as a named operator:
    ``crc32(key) % num_buckets`` bounded int64 shuffle key + ONE
    vectorized ``groupby(key).min(id)`` pandas pass per bucket — never
    a raw utf8 groupby whose mostly-singleton string groups pay Ray's
    per-group overhead plus a utf8 sort. Input: a Dataset with
    (``id_col``:int64, ``key_col``:utf8); output: one (key, min id)
    row per distinct key. Used by ``exact_dedup_augmented`` and
    ``text.prefix_dedup_survivors`` (same reference capability:
    pipeline.py:2580-2585 content digests)."""
    import zlib

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        return batch.append_column(
            "bucket", pa.array([zlib.crc32(k.encode()) % num_buckets
                                for k in keys], type=pa.int64()))

    def bucket_dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key_col, as_index=False) \
            .agg(**{id_col: (id_col, "min")})

    return ds.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_dedup, batch_format="pandas")


def _augmented_docs(sf_dir: str):
    """documents ∪ seeded near-duplicate copies (first N_DUP_DOCS docs,
    doc_id+DUP_OFFSET, text prefixed 'dup ') — same construction as the
    oracle SQL's UNION ALL."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        extra_ids = [i + DUP_OFFSET for i in ids if i < N_DUP_DOCS]
        extra_texts = ["dup " + t for i, t in zip(ids, texts) if i < N_DUP_DOCS]
        return pa.table({
            "doc_id": pa.array(ids + extra_ids, type=pa.int64()),
            "text": pa.array(texts + extra_texts, type=pa.string()),
        })

    return ds.map_batches(augment, batch_format="pyarrow")


def exact_dedup_augmented(sf_dir: str) -> pd.DataFrame:
    """Exact dedup over a corpus with *identical* injected copies
    (doc_id+DUP_OFFSET, same text): survivors = min doc_id per content
    hash. Returns (doc_id, fingerprint) of survivors.

    This is the DESIGNATED exact-dedup operator for the 100 TB story;
    the reduction is the shared ``bucketed_min_survivor`` operator
    (bounded int64 shuffle key + one vectorized pass per bucket)."""
    from .relational import reduce_buckets

    num_buckets = reduce_buckets(sf_dir, "documents")
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def augment_exact(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        extra = [(i + DUP_OFFSET, t) for i, t in zip(ids, texts) if i < N_DUP_DOCS]
        all_ids = ids + [e[0] for e in extra]
        fps = [ts.fingerprint_md5(t) for t in
               texts + [e[1] for e in extra]]
        return pa.table({
            "doc_id": pa.array(all_ids, type=pa.int64()),
            "fingerprint": pa.array(fps, type=pa.string()),
        })

    out = bucketed_min_survivor(
        ds.map_batches(augment_exact, batch_format="pyarrow"),
        "fingerprint", num_buckets).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[["doc_id", "fingerprint"]]


_EMPTY_PAIRS = pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64()),
                         "jaccard": pa.array([], type=pa.float64())})


class _CandidateFilter:
    """Actor-pool scan filter: keeps only candidate docs' rows. The
    candidate id set is handed over as OBJECT-STORE BLOCK REFS
    (``Dataset.to_arrow_refs`` — the rows themselves never visit the
    driver; the driver holds pointers only) and assembled ONCE per
    actor in ``__init__``, not per batch."""

    def __init__(self, id_block_refs):
        blocks = ray.get(list(id_block_refs))
        # blocks mirror the producing op's format — pandas lineages hand
        # back DataFrame blocks despite the method name
        tables = [
            (b if isinstance(b, pa.Table)
             else pa.Table.from_pandas(b, preserve_index=False))
            .select(["doc_id"]).cast(pa.schema([("doc_id", pa.int64())]))
            for b in blocks
            # empty partitions upstream arrive as schema-less blocks
            if len(b) and "doc_id" in
            (b.column_names if isinstance(b, pa.Table) else b.columns)]
        if not tables:
            tables = [pa.table({"doc_id": pa.array([], pa.int64())})]
        self.cand_ids = pc.unique(pa.concat_tables(tables)["doc_id"]
                                  .combine_chunks())

    def __call__(self, batch: pa.Table) -> pa.Table:
        hit = batch.filter(pc.is_in(batch["doc_id"],
                                    value_set=self.cand_ids))
        ids = hit["doc_id"].to_pylist()
        sh = [_SHINGLE_SEP.join(sorted({s.replace(_SHINGLE_SEP, "")
                                        for s in ts.token_shingles(t)}))
              for t in hit["text"].to_pylist()]
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "sh": pa.array(sh, type=pa.string())})


def _near_dup_pairs_minhash_ds(sf_dir: str) -> "rd.Dataset":
    """MinHash+LSH candidate generation + exact-Jaccard verification,
    distributed END-TO-END: no pair-, candidate-, or corpus-derived
    ROWS ever touch the driver (the driver holds object refs and
    scalar counts only). Returns a Dataset of verified pairs
    (doc_a, doc_b, jaccard) — unsorted; gates sort.

    Stages:
    1. per batch: shingle → 128-perm MinHash → 32 (band_key, doc_id)
       rows per doc (band_key is an int64 fold — int shuffle keys are
       far cheaper than utf8 for Ray's sort-based groupby). Docs with
       no shingles are skipped: they carry no similarity evidence and
       would otherwise all share the zero signature.
    2. ``groupby(band_key % 64)`` → candidate pairs emitted AND
       bucket-locally deduplicated per task; each pair leaves with a
       ``pbucket`` hash key.
    3. ``groupby(pbucket)`` → global pair dedup (a pair found by
       several bands collapses in its one pbucket task). The deduped
       candidate Dataset is materialized to the object store.
    4. a second corpus scan keeps candidate docs only
       (``_CandidateFilter`` actor pool, id set from block refs) and
       emits each candidate's sorted shingle set as one delimited utf8
       cell.
    5. two hash-partitioned ``Dataset.join``s pull shingle sets onto
       each pair row (sh_a, sh_b); exact Jaccard per row (int/int
       division — bit-identical to the oracle), threshold filter.

    Completeness: pairs (a < b) with token-3-shingle Jaccard ≥ 0.8
    over the augmented corpus — equal to the oracle's exhaustive
    answer because LSH recall at this threshold is ~1 by construction.

    Scale note: candidate volume on a high-duplication corpus is
    corpus-shaped; in this design it lives only in the object store
    and the two candidate-sized joins — nothing accumulates on the
    driver (the old design collected the pair list driver-side under
    a guard; that hop is gone).
    """
    from .relational import _join_partitions

    num_buckets = 64  # coarse shuffle key: bounded groups, one
    # vectorized pass per bucket (a raw groupby(band_key) would pay
    # per-group overhead on millions of singleton buckets)

    def band_rows(batch: pa.Table) -> pa.Table:
        out_band, out_doc = [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            shingles = ts.token_shingles(text)
            if not shingles:
                continue
            sig = ts.minhash_signature(shingles, num_perms=128)
            out_band.extend(ts.lsh_band_ints(sig, bands=32))
            out_doc.extend([did] * 32)
        band = np.asarray(out_band, dtype=np.int64)
        return pa.table({"band_key": pa.array(band, type=pa.int64()),
                         "doc_id": pa.array(out_doc, type=pa.int64()),
                         "bucket": pa.array(band % num_buckets,
                                            type=pa.int64())})

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # only band keys shared by >1 doc can produce candidates
        g = g[g.duplicated("band_key", keep=False)]
        a, b = [], []
        for _, sub in g.groupby("band_key", sort=False):
            ids = sorted(set(sub["doc_id"].tolist()))
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a.append(ids[i])
                    b.append(ids[j])
        out = pd.DataFrame({"doc_a": pd.Series(a, dtype="int64"),
                            "doc_b": pd.Series(b, dtype="int64")}) \
            .drop_duplicates()  # bucket-local dedup (cross-band folds)
        pb = (out["doc_a"].to_numpy().astype(np.uint64)
              * np.uint64(0x9E3779B97F4A7C15)
              + out["doc_b"].to_numpy().astype(np.uint64)) \
            >> np.uint64(32)
        out["pbucket"] = pb.astype(np.int64) % PAIR_DEDUP_BUCKETS
        return out

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates()[["doc_a", "doc_b"]]

    cand = _augmented_docs(sf_dir) \
        .map_batches(band_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(emit_pairs, batch_format="pandas") \
        .groupby("pbucket").map_groups(dedup_bucket, batch_format="pandas") \
        .materialize()
    n_cand = cand.count()  # scalar aggregate — no rows to the driver
    if n_cand == 0:
        return rd.from_arrow(_EMPTY_PAIRS)

    # Join partition count: candidate-sized, floored so every hash
    # partition averages ≥32 rows (Ray 2.49's hash-shuffle aggregator
    # emits schema-less zero-row partitions that break pyarrow's join).
    n_parts = max(1, min(_join_partitions(sf_dir, "documents", "documents"),
                         n_cand // 32))

    node_refs = cand.map_batches(
        lambda t: pa.table({"doc_id": pa.array(np.concatenate(
            [t["doc_a"].to_numpy(zero_copy_only=False),
             t["doc_b"].to_numpy(zero_copy_only=False)]),
            type=pa.int64())}),
        batch_format="pyarrow").materialize().to_arrow_refs()

    shing = _augmented_docs(sf_dir) \
        .map_batches(_CandidateFilter, batch_format="pyarrow",
                     concurrency=(1, 8),
                     fn_constructor_args=(node_refs,)) \
        .materialize()

    sh_a = shing.map_batches(lambda t: pa.table(
        {"join_a": t["doc_id"], "sh_a": t["sh"]}), batch_format="pyarrow")
    sh_b = shing.map_batches(lambda t: pa.table(
        {"join_b": t["doc_id"], "sh_b": t["sh"]}), batch_format="pyarrow")

    paired = cand.join(sh_a, join_type="inner", num_partitions=n_parts,
                       on=("doc_a",), right_on=("join_a",),
                       aggregator_ray_remote_args={"num_cpus": 0.1}) \
        .join(sh_b, join_type="inner", num_partitions=n_parts,
              on=("doc_b",), right_on=("join_b",),
              aggregator_ray_remote_args={"num_cpus": 0.1})

    def verify(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a, b, sa, sb in zip(batch["doc_a"].to_pylist(),
                                batch["doc_b"].to_pylist(),
                                batch["sh_a"].to_pylist(),
                                batch["sh_b"].to_pylist()):
            # unrounded: int/int division is bit-identical to the oracle's
            jac = ts.jaccard(set(sa.split(_SHINGLE_SEP)) if sa else set(),
                             set(sb.split(_SHINGLE_SEP)) if sb else set())
            if jac >= JACCARD_THRESHOLD:
                out_a.append(a)
                out_b.append(b)
                out_j.append(jac)
        return pa.table({"doc_a": pa.array(out_a, type=pa.int64()),
                         "doc_b": pa.array(out_b, type=pa.int64()),
                         "jaccard": pa.array(out_j, type=pa.float64())})

    return paired.map_batches(verify, batch_format="pyarrow")


def near_dup_pairs_minhash(sf_dir: str) -> pd.DataFrame:
    """Driver-gate wrapper over ``_near_dup_pairs_minhash_ds``: the
    final ``to_pandas`` here is the output-sized gate return (verified
    pairs only), not a pipeline hop."""
    out = _near_dup_pairs_minhash_ds(sf_dir).to_pandas()
    out = out.astype({"doc_a": "int64", "doc_b": "int64",
                      "jaccard": "float64"})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def jaccard_consecutive(sf_dir: str) -> pd.DataFrame:
    """n-gram-Jaccard similarity of each doc vs the next doc_id — a
    deterministic, SQL-checkable exercise of the shingle+Jaccard kernel
    over the whole corpus.

    The next-doc text arrives via a hash-partitioned ``Dataset.join``
    on ``doc_id == next.doc_id - 1`` (the right side is the same scan
    with a shifted key) — NOT a whole-corpus broadcast dict, which at
    100 TB would ship the full text column to every task."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def shift_key(batch: pa.Table) -> pa.Table:
        return pa.table({
            "prev_id": pc.subtract(batch["doc_id"], pa.scalar(1, pa.int64())),
            "next_text": batch["text"],
        })

    nxt = rd.read_parquet(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"]) \
        .map_batches(shift_key, batch_format="pyarrow")
    from .relational import _join_partitions
    joined = docs.join(nxt, join_type="inner",
                       num_partitions=_join_partitions(sf_dir, "documents",
                                                       "documents"),
                       on=("doc_id",), right_on=("prev_id",),
                       aggregator_ray_remote_args={"num_cpus": 0.1})

    def sim(batch: pa.Table) -> pa.Table:
        js = [ts.jaccard(ts.token_shingles(a), ts.token_shingles(b))
              for a, b in zip(batch["text"].to_pylist(),
                              batch["next_text"].to_pylist())]
        return pa.table({"doc_id": batch["doc_id"],
                         "jaccard_next": pa.array(js, type=pa.float64())})

    out = joined.map_batches(sim, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# SimHash prefix bands: widths 8+7×8 = 64 bits in 9 bands. Pigeonhole:
# a pair at Hamming distance ≤ 8 differs in at most 8 bands, so at
# least one of the 9 bands is identical → the bucket groupby finds
# every such pair (the guarantee matches the distance threshold below).
_SIMHASH_BAND_OFFSETS = (0, 8, 15, 22, 29, 36, 43, 50, 57)
_SIMHASH_BAND_WIDTHS = (8, 7, 7, 7, 7, 7, 7, 7, 7)
SIMHASH_MAX_HAMMING = 8


def simhash_near_dups(sf_dir: str, num_buckets: int = 64) -> pd.DataFrame:
    """SimHash near-dup: 64-bit signatures over the augmented corpus,
    pairs at Hamming distance ≤ 8 found via 9 prefix bands (widths
    8+7×8; pigeonhole ⇒ complete for d ≤ 8 — see band constants).

    Shuffle shape (the minhash pattern, dedup.py:120-137): band keys
    are int64 folds ``(band << 8) | bits`` — never utf8 — coarsened to
    ``band_key % num_buckets`` so the groupby sees ≤ num_buckets
    bounded groups (one vectorized pandas pass per bucket) instead of
    ~9n mostly-singleton string groups, and the per-batch band
    explosion is a numpy broadcast, not a per-doc loop. Rows-only
    check (no SQL oracle — bit-level hashing is not SQL-expressible);
    completeness vs a brute-force oracle is asserted in tests."""
    ds = _augmented_docs(sf_dir)

    offs = np.asarray(_SIMHASH_BAND_OFFSETS, dtype=np.uint64)
    masks = (np.uint64(1) << np.asarray(_SIMHASH_BAND_WIDTHS,
                                        dtype=np.uint64)) - np.uint64(1)
    band_ids = np.arange(len(offs), dtype=np.uint64)

    def sig_rows(batch: pa.Table) -> pa.Table:
        dids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        texts = batch["text"].to_pylist()
        # the signature itself is per-doc token hashing (like minhash);
        # everything after it is vectorized
        sigs = np.fromiter((ts.simhash64(t.split(" ")) for t in texts),
                           dtype=np.uint64, count=len(texts))
        bits = (sigs[:, None] >> offs[None, :]) & masks[None, :]
        keys = ((band_ids[None, :] << np.uint64(8)) | bits) \
            .ravel().astype(np.int64)
        n_bands = len(offs)
        return pa.table({
            "band_key": pa.array(keys, type=pa.int64()),
            "doc_id": pa.array(np.repeat(dids, n_bands), type=pa.int64()),
            "sig": pa.array(np.repeat(sigs, n_bands), type=pa.uint64()),
            "bucket": pa.array(keys % num_buckets, type=pa.int64()),
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # only band keys shared by >1 doc can produce candidates
        g = g[g.duplicated("band_key", keep=False)]
        out = []
        for _, sub in g.groupby("band_key", sort=False):
            rows = sub.drop_duplicates("doc_id").sort_values("doc_id")
            ids = rows["doc_id"].tolist()
            sigs = rows["sig"].tolist()
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = ts.hamming64(int(sigs[i]), int(sigs[j]))
                    if d <= SIMHASH_MAX_HAMMING:
                        out.append({"doc_a": ids[i], "doc_b": ids[j],
                                    "hamming": d})
        if not out:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        return pd.DataFrame(out)

    out = ds.map_batches(sig_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_pairs, batch_format="pandas") \
        .to_pandas().drop_duplicates()
    out = out.astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def dedup_clusters(sf_dir: str, max_rounds: int = 16) -> pd.DataFrame:
    """Connected-components clustering of the minhash near-dup pair
    graph — the step a dedup pipeline runs AFTER pair generation:
    group transitively-linked docs, pick one survivor per component.
    Returns (doc_id, cluster_id, is_survivor) for every doc that
    appears in at least one near-dup pair, where ``cluster_id`` is the
    minimum doc_id of the component and the survivor is that doc.

    This is the engine's FIXPOINT-OPERATOR pattern (iterative
    algorithms the reference has no counterpart for): distributed
    min-label propagation entirely in Dataset ops — each round
    resolves neighbor + pointer-jump label lookups with ONE
    bucketed-merge ``groupby`` (request/definition rows meet in their
    key's bucket; see ``_propagate_components`` for why this beats a
    label-keyed hash join), reduces with a bucketed
    ``groupby(node).min(label)``, and re-materializes the label table
    INTO THE OBJECT STORE (``materialize()`` here is the iterative-
    algorithm state handoff, node-set sized and distributed — not a
    driver pull; branching an unmaterialized Dataset would re-execute
    the whole lineage per consumer). The fixpoint test exploits
    monotonicity: labels only ever decrease, so the label SUM is
    strictly decreasing until convergence — one cheap ``sum()``
    aggregate per round instead of an old-vs-new join. Each round also
    POINTER-JUMPS (labels joined to themselves on label=node pull in
    the label's own label), so convergence is O(log diameter) rounds
    on adversarial chains, not O(diameter) — pytest drives a 100-node
    path graph through in 8 rounds, where single-step propagation
    would need 99.

    The pair Dataset flows STRAIGHT from the distributed verify joins
    (``_near_dup_pairs_minhash_ds``) into this propagation — no pair
    row transits the driver anywhere in the composed path; only the
    final (output-sized) cluster table does. Oracle: DuckDB
    recursive-CTE transitive closure over the same pair SQL.
    """
    from .relational import _join_partitions

    pairs_ds = _near_dup_pairs_minhash_ds(sf_dir).materialize()
    if pairs_ds.count() == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64"),
                             "is_survivor": pd.Series([], dtype="int64")})
    n_parts = _join_partitions(sf_dir, "documents", "documents")
    return _propagate_components(pairs_ds, n_parts, max_rounds)


def _propagate_components(pairs, n_parts: int,
                          max_rounds: int = 16) -> pd.DataFrame:
    """The propagation core (see ``dedup_clusters``): (doc_a, doc_b)
    pairs — a DATASET in the composed pipelines (straight from the
    distributed pair generators; no driver hop) or a pandas frame in
    tests — → (doc_id, cluster_id, is_survivor), min-label fixpoint in
    Dataset ops. Split out so tests can drive it with adversarial edge
    shapes (chains needing diameter rounds, not just the shallow
    near-dup components). Sets ``_propagate_components.last_rounds``
    to the number of propagation rounds executed (the log-diameter
    claim is pytest-asserted against it) and RAISES if the fixpoint
    was not reached within ``max_rounds`` — an unconverged label table
    must never be mistaken for the oracle-equal answer."""
    if isinstance(pairs, pd.DataFrame):
        pairs = rd.from_arrow(pa.table({
            "doc_a": pa.array(pairs["doc_a"], type=pa.int64()),
            "doc_b": pa.array(pairs["doc_b"], type=pa.int64())}))

    def bidir(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), type=pa.int64())})

    # materialized: the edge table is re-joined every round — an
    # unmaterialized lineage would re-run the whole upstream pair
    # pipeline per round per consumer
    edges = pairs.materialize().map_batches(
        bidir, batch_format="pyarrow").materialize()
    # distinct node set with identity labels — a distributed groupby,
    # not a driver unique(): node rows never leave the cluster
    labels = edges.map_batches(
        lambda t: pa.table({"node": t["src"], "label": t["src"]}),
        batch_format="pyarrow") \
        .groupby("node").min("label") \
        .map_batches(lambda t: pa.table({
            "node": t["node"],
            "label": pc.cast(t["min(label)"], pa.int64())}),
            batch_format="pyarrow") \
        .materialize()
    n_nodes = labels.count()
    # bucket fan-out for the per-round bucketed merges, scaled with the
    # node set (floored so buckets stay non-trivially sized)
    n_parts = max(1, min(n_parts, n_nodes // 32))
    _propagate_components.last_n_parts = n_parts
    prev_sum = int(labels.sum("label"))

    # Per round, ONE bucketed-merge groupby resolves both message kinds
    # — neighbor propagation (label(src) → dst) and the pointer jump
    # (label(label(v)) → v) — followed by one bucketed min-reduce.
    # DELIBERATELY NOT Dataset.join: as components converge, label
    # values collapse onto few distinct keys, so a label-keyed hash
    # join leaves most partitions EMPTY, and Ray 2.49's hash-shuffle
    # aggregator emits schema-less zero-row partitions that crash
    # pyarrow's join ("No match for FieldRef") — measured on a
    # 4k-leaf star graph. A sort-based groupby has no empty-partition
    # failure mode, spends no per-round join-aggregator actor startups,
    # and the merge inside each bucket is one vectorized pandas pass.
    # Request rows (kind=0) carry key=the node whose label is asked
    # for, val=the node the answer is delivered to; definition rows
    # (kind=1) carry key=node, val=its current label. Every request
    # key is a node id (labels are node ids), so every request finds
    # its definition in its own bucket.
    nb = n_parts

    def edge_req(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False)
        dst = batch["dst"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bkey": pa.array(src % nb, type=pa.int64()),
            "kind": pa.array(np.zeros(len(src), dtype=np.int64)),
            "key": pa.array(src, type=pa.int64()),
            "val": pa.array(dst, type=pa.int64())})

    # static across rounds — materialized once
    edge_reqs = edges.map_batches(edge_req, batch_format="pyarrow") \
        .materialize()

    def label_reqs(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        lab = batch["label"].to_numpy(zero_copy_only=False)
        n = len(node)
        return pa.table({
            "bkey": pa.array(np.concatenate([lab % nb, node % nb]),
                             type=pa.int64()),
            "kind": pa.array(np.concatenate(
                [np.zeros(n, dtype=np.int64),
                 np.ones(n, dtype=np.int64)])),
            "key": pa.array(np.concatenate([lab, node]), type=pa.int64()),
            "val": pa.array(np.concatenate([node, lab]), type=pa.int64())})

    _empty_resolved = pd.DataFrame({
        "nbucket": pd.Series([], dtype="int64"),
        "node": pd.Series([], dtype="int64"),
        "label": pd.Series([], dtype="int64")})

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return _empty_resolved
        defs = g[g["kind"] == 1]
        reqs = g[g["kind"] == 0]
        m = reqs.merge(defs[["key", "val"]], on="key", how="inner",
                       suffixes=("", "_def"))
        node = np.concatenate([m["val"].to_numpy(),
                               defs["key"].to_numpy()])
        label = np.concatenate([m["val_def"].to_numpy(),
                                defs["val"].to_numpy()])
        return pd.DataFrame({
            "nbucket": pd.Series(node % nb, dtype="int64"),
            "node": pd.Series(node, dtype="int64"),
            "label": pd.Series(label, dtype="int64")})

    def min_reduce(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return _empty_resolved[["node", "label"]]
        return g.groupby("node", as_index=False).agg(label=("label", "min"))

    converged = False
    rounds = 0
    for _ in range(max_rounds):
        labels = edge_reqs.union(
            labels.map_batches(label_reqs, batch_format="pyarrow")) \
            .groupby("bkey").map_groups(resolve, batch_format="pandas") \
            .groupby("nbucket").map_groups(min_reduce,
                                           batch_format="pandas") \
            .materialize()
        rounds += 1
        cur_sum = int(labels.sum("label"))
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum

    _propagate_components.last_rounds = rounds
    if not converged:
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds "
            f"(label sum was still falling at round {rounds}: "
            f"{prev_sum}); with pointer jumping this needs component "
            f"diameter > 2^{max_rounds} — raise max_rounds")

    out = labels.to_pandas().rename(
        columns={"node": "doc_id", "label": "cluster_id"})
    out = out.astype({"doc_id": "int64", "cluster_id": "int64"})
    out["is_survivor"] = (out["doc_id"] == out["cluster_id"]).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)
