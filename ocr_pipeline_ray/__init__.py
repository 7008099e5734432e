"""ocr_pipeline_ray — a Ray-Data-native extraction engine.

A brand-new engine (NOT a port) with the query/data-processing
capabilities of the reference ``sankalpsthakur/ocr-pipeline``
(see SURVEY.md), re-expressed Ray-Data-first:

- ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
  Arrow batches for every per-record transform,
- every map stage runs as Ray Data tasks, sized by its scheduler:
  the OCR stages are callable instances that carry their state (the
  media zone map and a ``PageReader``), the other stages are plain
  functions,
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
