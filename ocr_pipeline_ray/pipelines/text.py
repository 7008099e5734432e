"""Text-analysis operators over the ``documents`` table.

Language-ID, quality scoring, token statistics, fingerprinting — the
text-side operators a 100 TB training-data pipeline needs, built on
the same kernels (functions.textstats) the span pipeline uses. Every
formula is restated exactly in DuckDB SQL by the oracle.

All stages are vectorized map_batches over pruned-column reads;
global reductions (top-k tokens) pre-aggregate per batch before the
small final groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..stages.agg import bucketed_map_groups, partial_merge, reduce_buckets

from ..functions import textstats as ts


def _docs(sf_dir: str, columns: list[str]):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_token_stats(sf_dir: str) -> pd.DataFrame:
    """Per doc: token count, distinct tokens, char length."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        toks = [t.split(" ") for t in texts]
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array([len(t) for t in toks], type=pa.int64()),
            "n_unique_tokens": pa.array([len(set(t)) for t in toks], type=pa.int64()),
            "n_chars": pa.array([len(x) for x in texts], type=pa.int64()),
        })

    out = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# GPT-2-style pre-tokenizer, simplified to the RE2 subset so the DuckDB
# oracle can run the IDENTICAL pattern with regexp_extract_all: letter
# runs, digit runs, single non-space punctuation. Compiled once at
# module import (per worker process), not per batch.
BPE_PRETOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 ]"
_BPE_PRETOKEN = __import__("re").compile(BPE_PRETOKEN_PATTERN)


def bpe_token_stats(sf_dir: str) -> pd.DataFrame:
    """Per doc: BPE-ish pre-token count (the whitespace split in
    ``doc_token_stats`` undercounts subword-tokenizer load; this is the
    standard letters/digits/punct pre-tokenization every BPE vocab
    starts from), plus matched-char total and mean pre-token length
    (int/int division — bit-identical to the SQL oracle)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        counts, chars = [], []
        for t in texts:
            ms = _BPE_PRETOKEN.findall(t)
            counts.append(len(ms))
            chars.append(sum(len(m) for m in ms))
        avg = [c / n if n else 0.0 for c, n in zip(chars, counts)]
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": pa.array(counts, type=pa.int64()),
            "n_token_chars": pa.array(chars, type=pa.int64()),
            "avg_token_len": pa.array(avg, type=pa.float64()),
        })

    out = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def token_frequency_top20(sf_dir: str) -> pd.DataFrame:
    """Global top-20 tokens over an UNBOUNDED key domain — the shuffle
    top-k shape, not ``partial_merge`` (which is for bounded-cardinality
    keys only; streaming n_batches × vocab partial rows to the driver
    would be a driver-side materialization of the vocabulary at 100 TB).

    1. per batch: local token counts (one row per distinct token);
    2. ``bucketed_map_groups`` on ``token`` (32 buckets): each bucket
       task owns its tokens exclusively, sums the partials and keeps
       its local top-20;
    3. driver merge of 32 × 20 rows → global top-20.

    Correct because every token lives in exactly one bucket, so the
    global top-20 is a subset of the union of per-bucket top-20s."""
    ds = _docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            c.update(t.split(" "))
        toks = list(c.keys())
        return pa.table({
            "token": pa.array(toks, type=pa.string()),
            "n": pa.array([c[t] for t in toks], type=pa.int64()),
        })

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("token", as_index=False)["n"].sum()
        return s.sort_values(["n", "token"], ascending=[False, True]).head(20)

    top = bucketed_map_groups(ds.map_batches(partial, batch_format="pyarrow"),
                              "token", bucket_topk, 32).to_pandas()
    top["n"] = top["n"].astype("int64")
    top = top.sort_values(["n", "token"], ascending=[False, True]).head(20)
    return top[["token", "n"]].reset_index(drop=True)


def quality_by_lang(sf_dir: str) -> pd.DataFrame:
    """Mean quality score per labelled lang (quality formula in
    functions.textstats.quality_score, SQL-identical)."""
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])

    def score(batch: pa.Table) -> pa.Table:
        # per-doc score quantized to exact int64 micro-units so the
        # cross-engine sum is order-independent (see relational.py policy)
        q_i = [int(np.floor(ts.quality_score(t) * 1e6 + 0.5))
               for t in batch["text"].to_pylist()]
        return pa.table({"lang": batch["lang"],
                         "q_i": pa.array(q_i, type=pa.int64())})

    # cardinality: lang = 5 values — bounded
    out = partial_merge(ds, score, keys=["lang"],
                        spec={"n_docs": ("q_i", "count"),
                              "q_i": ("q_i", "sum")})
    out["avg_quality"] = (out["q_i"] / 1e6) / out["n_docs"].astype("float64")
    out = out[["lang", "n_docs", "avg_quality"]]
    return out.sort_values("lang").reset_index(drop=True)


def lang_id_confusion(sf_dir: str) -> pd.DataFrame:
    """Stopword-vote language prediction vs the labelled lang column:
    (lang, predicted_lang, n) confusion counts."""
    ds = _docs(sf_dir, ["text", "lang"])

    def predict(batch: pa.Table) -> pa.Table:
        preds = [ts.lang_id(t) for t in batch["text"].to_pylist()]
        return pa.table({"lang": batch["lang"],
                         "predicted_lang": pa.array(preds, type=pa.string())})

    # cardinality: (lang, predicted) <= 5x5 — bounded
    out = partial_merge(ds, predict, keys=["lang", "predicted_lang"],
                        spec={"n": ("lang", "count")})
    return out.sort_values(["lang", "predicted_lang"]).reset_index(drop=True)


def doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """md5 content fingerprint per doc (the exact-dedup key; reference
    sha256-digests its inputs the same way, pipeline.py:2580-2585)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(
                [ts.fingerprint_md5(t) for t in batch["text"].to_pylist()],
                type=pa.string()),
        })

    out = ds.map_batches(fp, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def prefix_dedup_survivors(sf_dir: str) -> pd.DataFrame:
    """Exact dedup on a blocking key (first-5-token prefix): keep the
    min doc_id per key, via the engine-standard
    ``dedup.bucketed_min_survivor`` operator (``bucketed_map_groups``
    on the key, one vectorized ``groupby.min`` pass per bucket)."""
    from .dedup import bucketed_min_survivor

    num_buckets = reduce_buckets(sf_dir, "documents")
    ds = _docs(sf_dir, ["doc_id", "text"])

    def key(batch: pa.Table) -> pa.Table:
        pref = [" ".join(t.split(" ")[:5]) for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "prefix_key": pa.array(pref, type=pa.string())})

    out = bucketed_min_survivor(
        ds.map_batches(key, batch_format="pyarrow"),
        "prefix_key", num_buckets).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[["doc_id", "prefix_key"]]
