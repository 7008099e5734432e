"""ocr_pipeline_ray — a Ray-Data-native extraction engine.

A brand-new engine (NOT a port) with the query/data-processing
capabilities of the reference ``sankalpsthakur/ocr-pipeline``
(see SURVEY.md), re-expressed Ray-Data-first:

- ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
  Arrow batches for every per-record transform,
- warm per-worker-process state for stateful stages: the OCR engines
  are callable instances run as tasks on pooled workers
  (``stages.ocr.warm_reader``), other stateful stages are actor pools
  (callable classes),
- ``groupby(doc_id)`` + offset sort for per-document span-sequence
  reassembly (the north rule's core shuffle),
- partition-committed output + lineage records for checkpoint/resume.

Input data model (BASELINE.json ``input_hint``): a table of
interleaved documents ``(doc_id: string, spans: list<struct<kind:
string, text: string, media_ref: string, offset: int32>>)`` with a
``media(media_ref, media_kind, payload, ...)`` side table.

Nothing here calls ``ray.init()``/``ray.shutdown()`` — sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
