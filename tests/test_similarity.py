"""Similarity-search invariants: IVF recall vs brute force, and the
trained coarse quantizer's determinism."""

from __future__ import annotations

import numpy as np

from ocr_pipeline_ray.pipelines import similarity

SF_DIR = "/root/testdata/sf0.001"


def test_ivf_recall_vs_brute_force(ray_session):
    import pyarrow.parquet as pq

    exact = similarity.knn_brute_force(SF_DIR)
    approx = similarity.ivf_topk(SF_DIR)
    assert len(approx) == 10
    recall = len(set(approx["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.5, f"IVF recall {recall} too low"
    # every approx hit's similarity must be a real (exact) similarity —
    # IVF never fabricates scores, it only prunes candidates; the
    # exhaustive similarities, rounded as knn_brute_force rounds them
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    q = mat[ids == 0][0]
    q = q / np.linalg.norm(q)
    norms = np.linalg.norm(mat, axis=1)
    sims = np.round((mat @ q) / np.where(norms > 0, norms, 1.0), 6)
    sim_of = dict(zip(ids, sims))
    for _, row in approx.iterrows():
        assert abs(sim_of[row["vec_id"]] - row["cosine_sim"]) < 1e-9


def test_coarse_quantizer_deterministic():
    rng = np.random.RandomState(3)
    sample = rng.randn(256, 16)
    sample /= np.linalg.norm(sample, axis=1)[:, None]
    a = similarity._train_coarse_quantizer(sample, 8)
    b = similarity._train_coarse_quantizer(sample, 8)
    assert np.array_equal(a, b)
    assert a.shape == (8, 16)
    # centroids stay unit-normalized
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_near_dup_bucketed_equals_bruteforce(ray_session):
    """The IVF-cell-bucketed pair generator must find EXACTLY the pairs
    an exhaustive all-pairs scan finds (recall 1.0, no phantoms)."""
    import pyarrow.parquet as pq

    got = similarity.embedding_near_dup_pairs(SF_DIR)

    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    copy = ids < similarity.N_COPY_VECS
    ids = np.concatenate([ids, ids[copy] + similarity.COPY_OFFSET])
    mat = np.vstack([mat, mat[copy]])
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    sims = unit @ unit.T
    iu, ju = np.triu_indices(len(ids), k=1)
    hit = sims[iu, ju] >= similarity.COSINE_DUP_THRESHOLD
    a, b = ids[iu[hit]], ids[ju[hit]]
    expect = sorted(zip(np.minimum(a, b), np.maximum(a, b)))

    assert sorted(zip(got["vec_a"], got["vec_b"])) == expect
    assert len(expect) == similarity.N_COPY_VECS  # seeded copies found


def test_near_dup_skewed_cell_split_and_mirror(ray_session, tmp_path):
    """Property test for the split-and-mirror salt: a corpus whose
    vectors ALL concentrate in one coarse cell (worst-case skew) must
    still yield exactly the brute-force pair set when ``cell_cap``
    forces the hot cell into shard-pair subtasks, and the shard sizing
    must actually engage (s > 1)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.RandomState(11)
    n, dim = 400, 16
    base = rng.randn(dim)
    base /= np.linalg.norm(base)
    # tight cluster: every vector within ~2° of base → one dominant
    # cell; a seeded subset is near-identical (> 0.999 pairs exist
    # beyond the exact copies)
    noise = rng.randn(n, dim) * 0.02
    noise[:20] = rng.randn(20, dim) * 1e-4
    mat = base[None, :] + noise
    ids = np.arange(n, dtype=np.int64)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              type=pa.list_(pa.float32())),
    }), str(tmp_path / "embeddings.parquet"))

    got = similarity.embedding_near_dup_pairs(
        str(tmp_path), n_cells=8, train_sample=256, cell_cap=64)

    # brute force over the augmented corpus (same float32 storage)
    mat32 = np.asarray(
        pq.read_table(str(tmp_path / "embeddings.parquet"))["embedding"]
        .to_pylist(), dtype=np.float64)
    copy = ids < similarity.N_COPY_VECS
    aug_ids = np.concatenate([ids, ids[copy] + similarity.COPY_OFFSET])
    aug = np.vstack([mat32, mat32[copy]])
    unit = aug / np.linalg.norm(aug, axis=1)[:, None]
    sims = unit @ unit.T
    iu, ju = np.triu_indices(len(aug_ids), k=1)
    hit = sims[iu, ju] >= similarity.COSINE_DUP_THRESHOLD
    a, b = aug_ids[iu[hit]], aug_ids[ju[hit]]
    expect = sorted(zip(np.minimum(a, b), np.maximum(a, b)))

    assert len(expect) > similarity.N_COPY_VECS  # real near-dups, not
    # just the seeded copies — the skew cluster creates them
    assert sorted(zip(got["vec_a"], got["vec_b"])) == expect
    # the salt must have engaged: 400+ members in one cell vs cap 64
    assert -(-(n + copy.sum()) // 64) > 1


def test_embedding_dup_clusters_copies_join_sources(ray_session):
    """The fixpoint clustering composed over the IVF pair generator:
    every injected exact copy (vec_id+10000) must land in its source's
    cluster with the source as survivor."""
    from ocr_pipeline_ray.pipelines.similarity import embedding_dup_clusters

    df = embedding_dup_clusters(SF_DIR)
    copies = df[df["vec_id"] >= 10000]
    assert len(copies) >= 5
    assert (copies["cluster_id"] == copies["vec_id"] - 10000).all()
    assert (copies["is_survivor"] == 0).all()
    survivors = df[df["is_survivor"] == 1]
    assert (survivors["vec_id"] == survivors["cluster_id"]).all()
