"""Ray Data stage library: map_batches UDFs.

Stage contract: every stage is either a plain function (stateless task)
or a callable instance (task; it carries its state, like the OCR
stages' zone map and ``PageReader``) taking/returning an Arrow table
or pandas DataFrame, with its schema documented. Ray Data sizes how
many tasks run. Stages never touch Ray sessions.
"""
