"""Driver contract for the Ray-Data extraction engine.

``entry()`` runs the flagship interleaved-span extraction pipeline on a
deterministic corpus sized from sf0.001. ``queries()`` exposes every
implemented operator/pipeline (SURVEY.md §2 + the training-data-scale
operators); ``oracle_sql()`` gives the DuckDB-equivalent SQL for each
SQL-expressible one (identical column names + float rounding so the
driver's value hash matches). Span-pipeline and probabilistic entries
are rows-only (verified instead by the pytest golden-equality gate).

Ray is initialised by the driver BEFORE this module is imported — no
ray.init()/ray.shutdown() anywhere in the library.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from ocr_pipeline_ray.sources.synth import _span_corpus, _span_corpus_path


def entry() -> Any:
    """Flagship pipeline (ensemble OCR + cascade + calibration) on the
    sf0.001-derived span corpus."""
    corpus = _span_corpus("/root/testdata/sf0.001")
    return _extract(corpus)


def _extract(corpus: str):
    """The flagship extraction path (``extract_spans``, with the
    isotonic calibrator fit on the corpus) → ordered span Dataset."""
    from ocr_pipeline_ray.pipelines.extract import (extract_spans,
                                                    fit_page_calibrator,
                                                    plan_job)

    return extract_spans(
        plan_job(f"{corpus}/documents_spans", f"{corpus}/media"),
        calib=fit_page_calibrator(f"{corpus}/media"))


def _q_extract_spans(sf_dir: str):
    out = _extract(_span_corpus(sf_dir)).to_pandas()
    out["conf"] = out["conf"].round(6)
    out["conf_calibrated"] = out["conf_calibrated"].round(6)
    return out.sort_values(["doc_id", "order"]).reset_index(drop=True)


def _q_extract_fields(sf_dir: str):
    from ocr_pipeline_ray.pipelines.extract import extract_fields_per_doc

    out = extract_fields_per_doc(_extract(_span_corpus(sf_dir))).to_pandas()
    out["doc_conf"] = out["doc_conf"].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    from ocr_pipeline_ray.pipelines import (dedup, modelops, relational,
                                            sampling, similarity, text,
                                            windows)

    return {
        # flagship span-extraction pipeline (north rule; pytest-gated)
        "extract_spans_corpus": _q_extract_spans,
        "extract_fields_corpus": _q_extract_fields,
        # relational core
        "q1_pricing_summary": relational.q1_pricing_summary,
        "q3_top_revenue_orders": relational.q3_top_revenue_orders,
        "q5_nation_revenue": relational.q5_nation_revenue,
        "q6_forecast_revenue": relational.q6_forecast_revenue,
        "top10_orders_by_price": relational.top10_orders_by_price,
        "customer_segment_stats": relational.customer_segment_stats,
        "late_shipment_order_priority": relational.late_shipment_order_priority,
        "customers_without_orders": relational.customers_without_orders,
        "distinct_part_types": relational.distinct_part_types,
        "part_brand_stats": relational.part_brand_stats,
        "sorted_orders_top100": relational.sorted_orders_top100,
        "orders_join_customer_stats": relational.orders_join_customer_stats,
        "distinct_lang_source": relational.distinct_lang_source,
        "sample_documents": relational.sample_documents,
        "region_nation_counts": relational.region_nation_counts,
        "supplier_nation_stats": relational.supplier_nation_stats,
        # stream-shaped
        "events_hourly": windows.events_hourly,
        "events_user_stats": windows.events_user_stats,
        "events_sessions": windows.events_sessions,
        "events_sessions_streaming": windows.events_sessions_streaming,
        "events_running_total": windows.events_running_total,
        "errors_with_last_signup": windows.errors_with_last_signup,
        # text analysis
        "doc_token_stats": text.doc_token_stats,
        "bpe_token_stats": text.bpe_token_stats,
        "token_frequency_top20": text.token_frequency_top20,
        "quality_by_lang": text.quality_by_lang,
        "lang_id_confusion": text.lang_id_confusion,
        "doc_fingerprints": text.doc_fingerprints,
        "prefix_dedup_survivors": text.prefix_dedup_survivors,
        "training_mix_sample": sampling.training_mix_sample,
        # dedup family
        "exact_dedup_augmented": dedup.exact_dedup_augmented,
        "near_dup_pairs_minhash": dedup.near_dup_pairs_minhash,
        "jaccard_consecutive": dedup.jaccard_consecutive,
        "dedup_clusters": dedup.dedup_clusters,
        "simhash_near_dups": dedup.simhash_near_dups,
        # similarity search
        "knn_brute_force": similarity.knn_brute_force,
        "embedding_centroid_mass": similarity.embedding_centroid_mass,
        "embedding_near_dup_pairs": similarity.embedding_near_dup_pairs,
        "embedding_dup_clusters": similarity.embedding_dup_clusters,
        "ivf_topk": similarity.ivf_topk,
        # multimodal + model-adjacent operators
        "media_feature_stats": modelops.media_feature_stats,
        "preprocess_media": modelops.preprocess_media,
        "degradation_bank": modelops.degradation_bank,
        "pixel_restore_bank": modelops.pixel_restore_bank,
        "pixel_tiled_restore": modelops.pixel_tiled_restore,
        "tensorize_profile": modelops.tensorize_profile,
        "frame_samples": modelops.frame_samples,
        "ensemble_vote_merge": modelops.ensemble_vote_merge,
        "calibration_thresholds": modelops.calibration_thresholds,
    }


_SHINGLES = (
    "list_distinct(list_transform(range(1, len(string_split(text,' '))-1), "
    "i -> string_split(text,' ')[i] || ' ' || string_split(text,' ')[i+1] "
    "|| ' ' || string_split(text,' ')[i+2]))"
)

# The near-dup pair CTEs (aug → sh → pairs(doc_a, doc_b, j)) shared by
# near_dup_pairs_minhash and dedup_clusters: the corpus plus 10
# 'dup '-prefixed copies, all-pairs shingle Jaccard.
_MINHASH_PAIRS = f"""aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 100000, 'dup ' || text FROM documents WHERE doc_id < 10),
            sh AS (SELECT doc_id, {_SHINGLES} AS shingles FROM aug),
            pairs AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.shingles, b.shingles)) * 1.0
                       / (len(a.shingles) + len(b.shingles)
                          - len(list_intersect(a.shingles, b.shingles))) AS j
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id)"""


def _closure(node: str) -> str:
    """Connected components of an undirected ``edges(a, b)`` CTE by
    recursive transitive closure, labelled with the min reachable node
    (the engine's min-label propagation fixpoint); the tail of a
    ``WITH RECURSIVE`` query whose node column is ``node``."""
    return f"""reach AS (
                SELECT a, b FROM edges
                UNION
                SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
                WHERE e.b <> r.a),
            nodes AS (SELECT DISTINCT a AS {node} FROM edges),
            lab AS (SELECT n.{node}, LEAST(n.{node}, MIN(r.b)) AS cluster_id
                    FROM nodes n JOIN reach r ON r.a = n.{node}
                    GROUP BY n.{node})
            SELECT {node}, cluster_id,
                   CAST({node} = cluster_id AS BIGINT) AS is_survivor
            FROM lab ORDER BY {node}"""


_STOP_EN = "('the','a','of','and','to','in','is','on')"
_STOP_DE = "('der','die','das','und','ist','ein','zu','den')"
_STOP_ES = "('el','la','de','que','y','en','un','es')"
_STOP_FR = "('le','la','et','les','des','en','un','du')"


# Shared by the batch and the streaming sessionization entries (same
# answer, same bytes as each entry held before).
_EVENTS_SESSIONS = """
            WITH flagged AS (
                SELECT user_id, ts, event_id,
                       CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), numbered AS (
                SELECT *, sum(new_session) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
                FROM flagged
            )
            SELECT user_id,
                   strftime(min(ts), '%Y-%m-%d %H:%M:%S.%f') AS session_start,
                   count(*) AS n_events,
                   epoch(max(ts) - min(ts)) AS duration_s
            FROM numbered
            GROUP BY user_id, sid
            ORDER BY user_id, session_start
        """


def _oracle_corpus() -> str:
    """The span corpus the derived-file oracle entries read: the tier
    ``GRAFT_ORACLE_SF_DIR`` names (the driver gate's sf0.01 by default),
    read at ``oracle_sql()`` call time. Side-effect-free: the paired Ray
    query materializes the corpus."""
    return _span_corpus_path(os.environ.get("GRAFT_ORACLE_SF_DIR",
                                            "/root/testdata/sf0.01"))


def oracle_sql() -> dict[str, str]:
    return {
        # Float policy (see pipelines/relational.py): summed floats are
        # quantized per row to int64 micro-units, summed exactly, divided
        # back in a fixed op order — outputs are bit-identical, unrounded.
        "q1_pricing_summary": """
            WITH t AS (
                SELECT l_returnflag, l_linestatus,
                       CAST(floor(l_quantity * 1000000 + 0.5) AS BIGINT) AS qty_i,
                       CAST(floor(l_extendedprice * 1000000 + 0.5) AS BIGINT) AS base_i,
                       CAST(floor(l_extendedprice * (1 - l_discount) * 1000000 + 0.5) AS BIGINT) AS disc_price_i,
                       CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000 + 0.5) AS BIGINT) AS charge_i,
                       CAST(floor(l_discount * 1000000 + 0.5) AS BIGINT) AS disc_i
                FROM lineitem)
            SELECT l_returnflag, l_linestatus,
                   sum(qty_i) / 1000000.0 AS sum_qty,
                   sum(base_i) / 1000000.0 AS sum_base_price,
                   sum(disc_price_i) / 1000000.0 AS sum_disc_price,
                   sum(charge_i) / 1000000.0 AS sum_charge,
                   count(*) AS count_order,
                   (sum(qty_i) / 1000000.0) / count(*) AS avg_qty,
                   (sum(base_i) / 1000000.0) / count(*) AS avg_price,
                   (sum(disc_i) / 1000000.0) / count(*) AS avg_disc
            FROM t
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "q3_top_revenue_orders": """
            WITH li AS (
                SELECT l_orderkey,
                       CAST(floor(l_extendedprice * (1 - l_discount) * 1000000 + 0.5) AS BIGINT) AS rev_i
                FROM lineitem)
            SELECT l_orderkey,
                   strftime(o_orderdate, '%Y-%m-%d %H:%M:%S') AS o_orderdate,
                   sum(rev_i) / 1000000.0 AS revenue
            FROM li
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue DESC, l_orderkey
            LIMIT 10
        """,
        "q5_nation_revenue": """
            WITH li AS (
                SELECT l_orderkey,
                       CAST(floor(l_extendedprice * (1 - l_discount) * 1000000 + 0.5) AS BIGINT) AS rev_i
                FROM lineitem)
            SELECT n_name, sum(rev_i) / 1000000.0 AS revenue
            FROM li
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
            ORDER BY n_name
        """,
        "q6_forecast_revenue": """
            SELECT sum(CAST(floor(l_extendedprice * l_discount * 1000000 + 0.5) AS BIGINT))
                   / 1000000.0 AS revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1995-01-01'
              AND l_shipdate < TIMESTAMP '1996-01-01'
              AND l_discount >= 0.03 AND l_discount <= 0.07
              AND l_quantity < 24
        """,
        "top10_orders_by_price": """
            SELECT o_orderkey, o_totalprice
            FROM orders
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 10
        """,
        "customer_segment_stats": """
            SELECT c_mktsegment,
                   count(*) AS n_customers,
                   (sum(CAST(floor(c_acctbal * 1000000 + 0.5) AS BIGINT)) / 1000000.0)
                   / count(*) AS avg_acctbal,
                   min(c_acctbal) AS min_acctbal,
                   max(c_acctbal) AS max_acctbal
            FROM customer
            GROUP BY c_mktsegment
            ORDER BY c_mktsegment
        """,
        "late_shipment_order_priority": """
            SELECT o_orderpriority, count(*) AS n_orders
            FROM orders
            WHERE EXISTS (
                SELECT 1 FROM lineitem
                WHERE l_orderkey = o_orderkey
                  AND l_shipdate > o_orderdate + INTERVAL 60 DAY)
            GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "customers_without_orders": """
            SELECT c_mktsegment, count(*) AS n_customers
            FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
            GROUP BY c_mktsegment
            ORDER BY c_mktsegment
        """,
        "distinct_part_types": """
            SELECT DISTINCT p_type FROM part ORDER BY p_type
        """,
        "sorted_orders_top100": """
            SELECT o_orderkey, o_totalprice
            FROM orders
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 100
        """,
        "orders_join_customer_stats": """
            SELECT c_mktsegment,
                   count(*) AS n_orders,
                   sum(CAST(floor(o_totalprice * 1000000 + 0.5) AS BIGINT))
                   / 1000000.0 AS total_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
            ORDER BY c_mktsegment
        """,
        "distinct_lang_source": """
            SELECT DISTINCT lang, source FROM documents ORDER BY lang, source
        """,
        "sample_documents": """
            SELECT doc_id, lang FROM documents WHERE doc_id % 5 = 0
            ORDER BY doc_id
        """,
        "region_nation_counts": """
            SELECT r_name, count(*) AS n_nations
            FROM nation JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
            ORDER BY r_name
        """,
        "supplier_nation_stats": """
            SELECT n_name,
                   count(*) AS n_suppliers,
                   sum(CAST(floor(s_acctbal * 1000000 + 0.5) AS BIGINT))
                   / 1000000.0 AS total_acctbal
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
            GROUP BY n_name
            ORDER BY n_name
        """,
        "part_brand_stats": """
            SELECT p_brand,
                   count(*) AS n_parts,
                   (sum(CAST(floor(p_retailprice * 1000000 + 0.5) AS BIGINT)) / 1000000.0)
                   / count(*) AS avg_price,
                   max(p_size) AS max_size
            FROM part
            GROUP BY p_brand
            ORDER BY p_brand
        """,
        "events_hourly": """
            SELECT event_type,
                   strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour,
                   count(*) AS n_events,
                   sum(CAST(floor(value * 1000000 + 0.5) AS BIGINT)) / 1000000.0 AS sum_value
            FROM events
            GROUP BY 1, 2
            ORDER BY 1, 2
        """,
        "events_user_stats": """
            SELECT user_id,
                   count(*) AS n_events,
                   count(DISTINCT event_type) AS n_types,
                   (sum(CAST(floor(value * 1000000 + 0.5) AS BIGINT)) / 1000000.0)
                   / count(*) AS avg_value
            FROM events
            GROUP BY user_id
            ORDER BY user_id
        """,
        "events_sessions": _EVENTS_SESSIONS,
        "events_sessions_streaming": _EVENTS_SESSIONS,
        "events_running_total": """
            SELECT user_id, event_id,
                   sum(CAST(floor(value * 1000000 + 0.5) AS BIGINT)) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) / 1000000.0 AS running_value
            FROM events
            ORDER BY user_id, event_id
        """,
        "errors_with_last_signup": """
            SELECT e.user_id, e.event_id,
                   s.signup_event_id::DOUBLE AS signup_event_id
            FROM (SELECT user_id, ts, event_id FROM events
                  WHERE event_type = 'error') e
            ASOF LEFT JOIN (SELECT user_id, ts, event_id AS signup_event_id
                            FROM events WHERE event_type = 'signup') s
            ON e.user_id = s.user_id AND e.ts >= s.ts
            ORDER BY e.user_id, e.event_id
        """,
        "doc_token_stats": """
            SELECT doc_id,
                   len(string_split(text, ' '))::BIGINT AS n_tokens,
                   len(list_distinct(string_split(text, ' ')))::BIGINT AS n_unique_tokens,
                   length(text)::BIGINT AS n_chars
            FROM documents
            ORDER BY doc_id
        """,
        "bpe_token_stats": """
            WITH m AS (
                SELECT doc_id,
                       regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 ]') AS toks
                FROM documents)
            SELECT doc_id,
                   len(toks)::BIGINT AS n_bpe_tokens,
                   length(array_to_string(toks, ''))::BIGINT AS n_token_chars,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE length(array_to_string(toks, ''))::BIGINT
                             / len(toks)::BIGINT
                   END AS avg_token_len
            FROM m
            ORDER BY doc_id
        """,
        "token_frequency_top20": """
            SELECT token, count(*) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
            GROUP BY token
            ORDER BY n DESC, token
            LIMIT 20
        """,
        "quality_by_lang": f"""
            WITH q AS (
                SELECT lang,
                       len(string_split(text, ' ')) AS n,
                       length(text) AS c,
                       len(list_filter(string_split(text, ' '),
                                       w -> w IN {_STOP_EN})) AS stop_hits
                FROM documents)
            SELECT lang, count(*) AS n_docs,
                   (sum(CAST(floor((0.5 * least(1.0, n / 100.0)
                                    + 0.3 * (stop_hits * 1.0 / n)
                                    + 0.2 * least(1.0, ((c - (n - 1)) * 1.0 / n) / 8.0))
                                   * 1000000 + 0.5) AS BIGINT)) / 1000000.0)
                   / count(*) AS avg_quality
            FROM q
            GROUP BY lang
            ORDER BY lang
        """,
        "lang_id_confusion": f"""
            WITH s AS (
                SELECT lang,
                       len(list_filter(string_split(text,' '), w -> w IN {_STOP_EN})) AS s_en,
                       len(list_filter(string_split(text,' '), w -> w IN {_STOP_DE})) AS s_de,
                       len(list_filter(string_split(text,' '), w -> w IN {_STOP_ES})) AS s_es,
                       len(list_filter(string_split(text,' '), w -> w IN {_STOP_FR})) AS s_fr
                FROM documents)
            SELECT lang,
                   CASE WHEN s_en = 0 AND s_de = 0 AND s_es = 0 AND s_fr = 0 THEN 'unknown'
                        WHEN s_en >= s_de AND s_en >= s_es AND s_en >= s_fr THEN 'en'
                        WHEN s_de >= s_es AND s_de >= s_fr THEN 'de'
                        WHEN s_es >= s_fr THEN 'es'
                        ELSE 'fr' END AS predicted_lang,
                   count(*) AS n
            FROM s
            GROUP BY 1, 2
            ORDER BY 1, 2
        """,
        "doc_fingerprints": """
            SELECT doc_id, md5(text) AS fingerprint
            FROM documents
            ORDER BY doc_id
        """,
        "prefix_dedup_survivors": """
            SELECT min(doc_id) AS doc_id, prefix_key
            FROM (SELECT doc_id,
                         array_to_string(string_split(text, ' ')[1:5], ' ') AS prefix_key
                  FROM documents)
            GROUP BY prefix_key
            ORDER BY doc_id
        """,
        # training_mix_sample: token-budget stratified selection — the
        # greedy hash-order prefix per lang stratum as one SQL window;
        # hash, budget and cumsum are exact int64 on both sides.
        "training_mix_sample": """
            WITH t AS (
                SELECT doc_id, lang,
                       len(string_split(text, ' '))::BIGINT AS n_tokens,
                       (doc_id * 2654435761) % 4294967296 AS h
                FROM documents),
            b AS (SELECT lang, (sum(n_tokens) * 3) // 10 AS budget
                  FROM t GROUP BY lang),
            c AS (SELECT doc_id, lang, n_tokens,
                         sum(n_tokens) OVER (PARTITION BY lang
                                             ORDER BY h, doc_id
                                             ROWS UNBOUNDED PRECEDING) AS cum
                  FROM t)
            SELECT c.doc_id, c.lang, c.n_tokens
            FROM c JOIN b USING (lang)
            WHERE c.cum <= b.budget
            ORDER BY c.doc_id
        """,
        "exact_dedup_augmented": """
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 100000, text FROM documents WHERE doc_id < 10)
            SELECT min(doc_id) AS doc_id, fingerprint
            FROM (SELECT doc_id, md5(text) AS fingerprint FROM aug)
            GROUP BY fingerprint
            ORDER BY doc_id
        """,
        "near_dup_pairs_minhash": f"""
            WITH {_MINHASH_PAIRS}
            SELECT doc_a, doc_b, j AS jaccard
            FROM pairs
            WHERE j >= 0.8
            ORDER BY doc_a, doc_b
        """,
        # dedup_clusters: connected components of the near-dup pair
        # graph — transitive closure via recursive CTE over the SAME
        # pair construction as near_dup_pairs_minhash; cluster label =
        # min reachable doc_id (matches the engine's min-label
        # propagation fixpoint exactly).
        "dedup_clusters": f"""
            WITH RECURSIVE {_MINHASH_PAIRS},
            edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs WHERE j >= 0.8
                      UNION SELECT doc_b, doc_a FROM pairs WHERE j >= 0.8),
            {_closure("doc_id")}
        """,
        "jaccard_consecutive": f"""
            WITH sh AS (SELECT doc_id, {_SHINGLES} AS shingles FROM documents)
            SELECT a.doc_id AS doc_id,
                   CASE WHEN len(a.shingles) + len(b.shingles)
                             - len(list_intersect(a.shingles, b.shingles)) = 0
                        THEN 0.0
                        ELSE len(list_intersect(a.shingles, b.shingles)) * 1.0
                             / (len(a.shingles) + len(b.shingles)
                                - len(list_intersect(a.shingles, b.shingles)))
                   END AS jaccard_next
            FROM sh a JOIN sh b ON b.doc_id = a.doc_id + 1
            ORDER BY a.doc_id
        """,
        "knn_brute_force": """
            SELECT vec_id,
                   round(list_cosine_similarity(
                       embedding::DOUBLE[],
                       (SELECT embedding::DOUBLE[] FROM embeddings WHERE vec_id = 0)),
                       6) AS cosine_sim
            FROM embeddings
            WHERE vec_id != 0
            ORDER BY cosine_sim DESC, vec_id
            LIMIT 10
        """,
        "embedding_centroid_mass": """
            SELECT label,
                   count(*) AS n_vecs,
                   (sum(CAST(floor(list_sum(embedding::DOUBLE[]) * 1000000 + 0.5) AS BIGINT))
                    / 1000000.0) / count(*) AS avg_vec_sum
            FROM embeddings
            GROUP BY label
            ORDER BY label
        """,
        "embedding_near_dup_pairs": """
            WITH aug AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 10000, embedding FROM embeddings WHERE vec_id < 5)
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(a.embedding::DOUBLE[],
                                                b.embedding::DOUBLE[]), 4) AS cosine_sim
            FROM aug a JOIN aug b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                                         b.embedding::DOUBLE[]) >= 0.999
            ORDER BY vec_a, vec_b
        """,
        # embedding_dup_clusters: same fixpoint contract as
        # dedup_clusters, over the cosine pair graph.
        "embedding_dup_clusters": f"""
            WITH RECURSIVE aug AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 10000, embedding FROM embeddings WHERE vec_id < 5),
            prs AS (
                SELECT a.vec_id AS va, b.vec_id AS vb
                FROM aug a JOIN aug b ON a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                                             b.embedding::DOUBLE[]) >= 0.999),
            edges AS (SELECT va AS a, vb AS b FROM prs
                      UNION SELECT vb, va FROM prs),
            {_closure("vec_id")}
        """,
        # media_feature_stats: size features are SQL-expressible — DuckDB
        # reads the SAME derived media parquet the Ray query reads (the
        # corpus path is deterministic per sf tier, _oracle_corpus); the
        # driver runs the paired Ray query, which materializes the
        # corpus, before comparing.
        "media_feature_stats": f"""
            SELECT media_kind,
                   count(*) AS n,
                   sum(octet_length(payload))::BIGINT AS total_bytes
            FROM read_parquet('{_oracle_corpus()}/media/*.parquet')
            GROUP BY media_kind
            ORDER BY media_kind
        """,
        # preprocess_media / pixel_restore_bank / pixel_tiled_restore:
        # the bitmap decisions are not SQL-expressible. Each query
        # writes its per-row lineage to a derived parquet partition
        # (modelops._lineage_write) and returns the aggregation of that
        # file, and these entries re-read the query's own file. So they
        # check serialization and determinism (a stale or missing file
        # fails), not the answer: nothing here recomputes a bitmap
        # decision. The kernels are gated by pytest:
        #   preprocess_media    tests/test_stages_extra.py::TestPreprocessKernels
        #   pixel_restore_bank  tests/test_pixels.py::TestKernelRecovery,
        #                       ::TestDistributedBank
        #   pixel_tiled_restore tests/test_tiling.py::TestTiledRestore,
        #                       ::TestBlendMachinery
        "preprocess_media": f"""
            SELECT media_ref, media_kind, pp_rotated, pp_dewarped,
                   pp_rescaled, pp_noise_score
            FROM read_parquet('{_oracle_corpus()}/preprocess_lineage/*.parquet')
            ORDER BY media_ref
        """,
        "pixel_restore_bank": f"""
            SELECT op, strategy,
                   count(*)::BIGINT AS n_pages,
                   sum(fixed128_ok)::BIGINT AS fixed128_ok,
                   sum(otsu_only_ok)::BIGINT AS otsu_only_ok,
                   sum(restored_ok)::BIGINT AS restored_ok
            FROM read_parquet('{_oracle_corpus()}/pixel_bank_lineage/*.parquet')
            GROUP BY op, strategy
            ORDER BY op, strategy
        """,
        "pixel_tiled_restore": f"""
            SELECT media_ref, n_patches, otsu_only_ok, tiled_restored_ok
            FROM read_parquet('{_oracle_corpus()}/pixel_tiled_lineage/*.parquet')
            ORDER BY media_ref
        """,
        # tensorize_profile: the P10 tensorizer dataflow's per-page
        # profile (shapes, scale, tensor fingerprints) through the same
        # derived file, re-read as is: a serialization and determinism
        # check, not a recomputation. The kernels are gated by
        # tests/test_tensorize.py::TestDet, ::TestRecAngle and
        # ::TestStage::test_stage_fingerprints_match_direct_kernels.
        "tensorize_profile": f"""
            SELECT media_ref, det_h, det_w, det_scale_q, rec_n_lines,
                   rec_w_max, crc_det, crc_rec_fold, crc_angle
            FROM read_parquet('{_oracle_corpus()}/tensorize_lineage/*.parquet')
            ORDER BY media_ref
        """,
        # degradation_bank: same derived-file contract — the Ray query
        # writes its per-(op, page) scored rows and returns their
        # scaled-int-mean profile; the oracle aggregates the same file
        # with the identical float policy.
        "degradation_bank": f"""
            SELECT op,
                   count(*)::BIGINT AS n_pages,
                   (sum(CAST(floor(acc * 1000000 + 0.5) AS BIGINT)) / 1000000.0)
                   / count(*) AS mean_char_acc,
                   (sum(CAST(floor(conf * 1000000 + 0.5) AS BIGINT)) / 1000000.0)
                   / count(*) AS mean_conf
            FROM read_parquet('{_oracle_corpus()}/degradation_bank_lineage/*.parquet')
            GROUP BY op
            ORDER BY op
        """,
        # extract_spans_corpus / extract_fields_corpus / simhash_near_dups /
        # ivf_topk / frame_samples / ensemble_vote_merge /
        # calibration_thresholds: not SQL-expressible (stateful binary
        # decode / bit hashing / approximate search / PAV) → rows-only,
        # driver check; each is gated instead by an exact pytest oracle
        # (tests/test_extract_golden.py golden equality, test_dedup.py
        # brute-force simhash, test_similarity.py IVF recall,
        # test_modelops.py vote-merge == read_line,
        # test_stages_extra.py preprocessing recovery + calibration
        # kernels).
    }
