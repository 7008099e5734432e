"""Text-analysis kernels: tokens, quality, language-ID, fingerprints.

These power the large-scale training-data-pipeline operators (dedup,
quality filtering, language routing) that sit alongside the reference's
extraction capabilities. The quality-score shape (cheap scalar features
+ weighted blend + thresholds) mirrors the reference's image-quality
scorer (adaptive_ocr_pipeline.py:76-148, SURVEY §2.6 F15) applied to
text.

Every formula here is deliberately simple enough to restate exactly in
DuckDB SQL — the oracle for the driver's correctness gate computes the
identical expressions.

Tokenization contract: split on a single ASCII space (the corpus is
single-space separated); this matches DuckDB ``string_split(text, ' ')``
including empty-string behavior.
"""

from __future__ import annotations

import hashlib
import struct

STOPWORDS_EN = ("the", "a", "of", "and", "to", "in", "is", "on")
STOPWORDS_DE = ("der", "die", "das", "und", "ist", "ein", "zu", "den")
STOPWORDS_ES = ("el", "la", "de", "que", "y", "en", "un", "es")
STOPWORDS_FR = ("le", "la", "et", "les", "des", "en", "un", "du")

# Deterministic preference order for arg-max ties (first wins).
LANG_ORDER = (("en", STOPWORDS_EN), ("de", STOPWORDS_DE),
              ("es", STOPWORDS_ES), ("fr", STOPWORDS_FR))


def tokens(text: str) -> list[str]:
    return text.split(" ")


def stopword_hits(toks: list[str], stopwords: tuple[str, ...]) -> int:
    sw = set(stopwords)
    return sum(1 for t in toks if t in sw)


def quality_score(text: str) -> float:
    """Length/stopword/token-shape blend in [0,1]; SQL-identical formula:

    n_tokens     = len(string_split(text,' '))
    stop_ratio   = en-stopword hits / n_tokens
    mean_tok_len = (length(text) - (n_tokens-1)) / n_tokens
    score = 0.5*min(1, n_tokens/100) + 0.3*stop_ratio + 0.2*min(1, mean_tok_len/8)
    """
    toks = tokens(text)
    n = len(toks)
    if n == 0:
        return 0.0
    stop_ratio = stopword_hits(toks, STOPWORDS_EN) / n
    mean_tok_len = (len(text) - (n - 1)) / n
    return 0.5 * min(1.0, n / 100.0) + 0.3 * stop_ratio + 0.2 * min(1.0, mean_tok_len / 8.0)


def lang_id(text: str) -> str:
    """N-gram-free stopword-vote language heuristic, deterministic ties."""
    toks = tokens(text)
    best_lang, best_score = "unknown", 0
    for lang, words in LANG_ORDER:
        s = stopword_hits(toks, words)
        if s > best_score:
            best_lang, best_score = lang, s
    return best_lang


def fingerprint_md5(text: str) -> str:
    """Document fingerprint = md5 hex (DuckDB ``md5(text)``-identical)."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def token_shingles(text: str) -> list[str]:
    """Distinct token 3-gram shingles, order-stable (first occurrence)."""
    toks = tokens(text)
    seen: dict[str, None] = {}
    for i in range(len(toks) - 2):
        seen.setdefault(" ".join(toks[i:i + 3]), None)
    return list(seen)


def jaccard(a: list[str], b: list[str]) -> float:
    """Jaccard over shingle sets; both-empty → 0.0 (NOT 1.0): docs with
    no shingles (<3 tokens) carry no similarity evidence, and 1.0 would
    declare every pair of short docs a near-duplicate (they also share
    the all-zero MinHash signature, so LSH would emit them all). The
    DuckDB oracles guard the zero denominator identically."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _hash64(s: str, seed: int = 0) -> int:
    h = hashlib.md5(f"{seed}:{s}".encode()).digest()
    return struct.unpack("<Q", h[:8])[0]


_MINHASH_CACHE: dict[int, tuple] = {}


def _minhash_params(num_perms: int):
    """(a, b) vectors for the permutation family, cached per num_perms."""
    import numpy as np

    if num_perms not in _MINHASH_CACHE:
        a = np.array([(2 * p + 1) | 1 for p in range(num_perms)],
                     dtype=np.uint64)
        b = np.array([_hash64(str(p), seed=1) for p in range(num_perms)],
                     dtype=np.uint64)
        _MINHASH_CACHE[num_perms] = (a, b)
    return _MINHASH_CACHE[num_perms]


def minhash_signature(shingles: list[str], num_perms: int = 128) -> list[int]:
    """MinHash via the one-hash + seeded-rehash scheme (deterministic).

    Vectorized: the md5 base hashes are the only per-shingle Python
    work; the num_perms x n_shingles permute+min runs as one numpy
    broadcast (uint64 wrap-around == the old ``& 0xFFF...F`` mask).
    """
    import numpy as np

    if not shingles:
        return [0] * num_perms
    base = np.fromiter((_hash64(s) for s in shingles), dtype=np.uint64,
                       count=len(shingles))
    a, b = _minhash_params(num_perms)
    with np.errstate(over="ignore"):
        sig = (a[:, None] * base[None, :] + b[:, None]).min(axis=1)
    return sig.tolist()


def lsh_band_ints(sig: list[int], bands: int = 32) -> list[int]:
    """Split a signature into ``bands`` rows-per-band buckets → one
    int64 shuffle key per band: a vectorized 64-bit FNV-style fold of
    the band's rows with the band index mixed in (a md5 per band was
    ~10× slower and adds nothing: keys only need to collide when the
    band rows are identical). Ray's sort-based groupby on int64 is far
    cheaper than on utf8 keys. Cross-band fold collisions are harmless
    — they only add candidate pairs that exact verification rejects."""
    import numpy as np

    r = len(sig) // bands
    s = np.asarray(sig, dtype=np.uint64).reshape(bands, r)
    acc = np.full(bands, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in range(r):
            acc = (acc ^ s[:, col]) * np.uint64(0x100000001B3)
        acc = acc ^ (np.arange(bands, dtype=np.uint64)
                     * np.uint64(0x9E3779B97F4A7C15))
    return acc.view(np.int64).tolist()


def simhash64(toks: list[str]) -> int:
    """64-bit SimHash over token unigrams (deterministic md5 basis);
    the 64-bit vote accumulation is one numpy broadcast per document."""
    import numpy as np

    if not toks:
        return 0
    h = np.fromiter((_hash64(t) for t in toks), dtype=np.uint64,
                    count=len(toks))
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1)
    votes = 2 * bits.astype(np.int64).sum(axis=0) - len(toks)
    out = 0
    for bit in np.nonzero(votes > 0)[0]:
        out |= 1 << int(bit)
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
