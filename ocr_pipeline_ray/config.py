"""Engine-wide constants.

Mirrors the reference's routing thresholds (reference config.py:10-12:
tau_accept=0.95, tau_enhance=0.90, tau_llm=0.85), re-expressed as
dataflow constants for the cascade stage, plus the shuffle and OCR
task knobs.
"""

# Confidence-threshold cascade (SURVEY §2.7 R1). The reference's
# tau_accept (0.95, instant accept) coincides with "above tau_enhance →
# no retry" in this dataflow, so only the two decision thresholds
# exist; when calibration is active both are re-derived from target
# accuracies (stages/ocr.py ACC_TARGET_*).
TAU_ENHANCE = 0.90
TAU_LLM = 0.85

# Boilerplate classifier thresholds (SURVEY §0: Readability/jusText-style
# text-density + link-density rules — the same shape as the reference's
# context/range validators, pipeline.py:2115-2221).
LINK_DENSITY_DROP = 0.5    # > this fraction of link chars → boilerplate
MIN_TEXT_CHARS = 12        # shorter text nodes are boilerplate unless heading

# Shuffle knobs.
SKEW_THRESHOLD = 512           # docs with more spans take the exploded+shuffle tail
MEDIA_JOIN_BUCKETS = 64        # hash buckets for the large-side media join

# OCR task sizing (reference caps paddle at cpu_threads=2,
# pipeline.py:1177; we reserve 1 CPU per OCR task and let Ray Data
# scale the number of tasks).
OCR_NUM_CPUS = 1
OCR_BATCH_SIZE = 256           # media payloads are heavy → small batches
