"""Ray Data stage library: map_batches UDFs and actor-pool classes.

Stage contract: every stage is either a plain function (stateless task),
a callable instance (task; warm state cached per worker process, like
the OCR stages' ``warm_reader``) or a callable class (actor pool, state
built once in ``__init__``) taking/returning an Arrow table or pandas DataFrame, with its schema
documented. Stages never touch Ray sessions.
"""
