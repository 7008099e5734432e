"""Job entry point for cluster runs — the ``ray job submit`` driver.

    ray job submit --working-dir . -- \
        python -m ocr_pipeline_ray.run --corpus /data/corpus \
            --out /data/out --num-parts 64

Runs the flagship extraction pipeline through the checkpoint layer
(state/checkpoint.py): one Ray Data pass over every uncommitted
partition, each committed atomically with its lineage record, as
``pipelines.extract.plan_job`` plans it (one fused read → doc-local →
write task per documents file on an input under one Ray minimum block).
A killed job re-submitted with the same args skips the committed
partitions and recomputes the rest in one pass; a kill loses at most
the in-flight pass's uncommitted partitions. ``--gen-docs N``
synthesizes a corpus first (testing without external data).

This script OWNS the Ray session: on a cluster, ``ray.init()`` with no
address inside a job attaches to the cluster; standalone it starts
local mode. Library code never touches the session.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(prog="ocr_pipeline_ray.run")
    ap.add_argument("--corpus", required=True,
                    help="dir with documents_spans/ and media/ parquet")
    ap.add_argument("--out", required=True, help="partitioned output dir")
    ap.add_argument("--num-parts", type=int, default=8)
    ap.add_argument("--gen-docs", type=int, default=0,
                    help="if >0, synthesize a corpus of N docs first")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(include_dashboard=False, logging_level="ERROR")
    try:
        if args.gen_docs:
            from .sources.synth import write_corpus
            write_corpus(args.corpus, n_docs=args.gen_docs, seed=args.seed)

        from .state.checkpoint import read_lineage, run_partitioned
        result = run_partitioned(args.corpus, args.out,
                                 num_parts=args.num_parts)
        lineage = read_lineage(args.out)
        print(json.dumps({
            "completed": result["completed"],
            "skipped": result["skipped"],
            "total_docs": sum(r["n_docs"] for r in lineage),
            "total_spans": sum(r["n_spans"] for r in lineage),
        }))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
