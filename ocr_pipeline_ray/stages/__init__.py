"""Ray Data stage library: map_batches UDFs.

Stage contract: every stage is either a plain function (stateless task)
or a callable instance (task; warm state cached per worker process,
like the OCR stages' ``warm_reader``) taking/returning an Arrow table
or pandas DataFrame, with its schema documented. Ray Data sizes how
many tasks run. Stages never touch Ray sessions.
"""
