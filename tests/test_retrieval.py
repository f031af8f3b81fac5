import json
import math
import random
import re

import numpy as np
import pytest

from paraprompt import retrieval
from paraprompt.dataio import EMBEDDING_IDS, DataFormatError, ParaphrasePair, read_jsonl
from paraprompt.retrieval import (
    EMBEDDING_MAGIC,
    IndexBuildError,
    RetrievalIndex,
    build_index,
    load_embeddings_binary,
    query_knn,
    query_knn_batch,
    query_random,
    unit_normalize,
    write_embeddings_binary,
)

from oracles import brute_knn, knn_full_scan, pack_embeddings_per_row


def pair(i):
    return ParaphrasePair(id=str(i), source=f"source {i}", target=f"target {i}")


def entries_from(vectors):
    return [(pair(i), v) for i, v in enumerate(vectors)]


def test_build_and_size():
    index = build_index(entries_from([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert len(index) == 3
    assert index.dim == 2


def test_vectors_stored_unit_norm():
    index = build_index(entries_from([[3.0, 4.0]]))
    assert np.linalg.norm(index.records[0].vector) == pytest.approx(1.0, abs=1e-9)


def test_duplicate_id_rejected():
    with pytest.raises(IndexBuildError, match="dup"):
        build_index([(pair(1), [1.0]), (ParaphrasePair("1", "x", "y"), [2.0])])


def test_zero_vector_rejected():
    with pytest.raises(IndexBuildError, match="'2'"):
        build_index([(pair(1), [1.0, 0.0]), (pair(2), [0.0, 0.0])])


def test_dimension_mismatch_rejected():
    with pytest.raises(IndexBuildError, match="'2'"):
        build_index([(pair(1), [1.0, 0.0]), (pair(2), [1.0, 0.0, 0.0])])


def test_records_is_one_stored_tuple():
    index = build_index(entries_from([[1.0, 0.0], [0.0, 1.0]]))
    assert isinstance(index.records, tuple)
    assert index.records is index.records
    assert [r.id for r in index.records] == ["0", "1"]
    with pytest.raises(ValueError):
        index.records[0].vector[0] = 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vector_rejected(dtype, bad):
    rows = np.ones((5, 3), dtype=dtype)
    rows[2, 1] = bad
    rows[4, 0] = np.nan
    with pytest.raises(IndexBuildError, match="id '2': vector is not finite"):
        build_index(entries_from(rows))
    with pytest.raises(IndexBuildError, match="id '2': vector is not finite"):
        RetrievalIndex([str(i) for i in range(5)], rows, pair)


def test_index_from_a_matrix_names_faulty_ids():
    rows = np.ones((4, 2))
    rows[3] = 0.0
    with pytest.raises(IndexBuildError, match="id '3': zero-norm"):
        RetrievalIndex(["0", "1", "2", "3"], rows, pair)
    with pytest.raises(IndexBuildError, match="duplicate id '1'"):
        RetrievalIndex(["0", "1", "1", "3"], rows, pair)


def test_index_keeps_the_rows_as_given():
    rows = np.random.default_rng(4).normal(size=(6, 5)).astype(np.float32)
    index = RetrievalIndex([str(i) for i in range(6)], rows, pair)
    assert index._matrix.dtype == np.float32
    assert np.shares_memory(index._matrix, rows)
    assert build_index(entries_from(rows))._matrix.dtype == np.float32
    assert build_index(entries_from(rows.tolist()))._matrix.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norms_equal_per_row_linalg_norm(dtype):
    # the exact norms, which every unit row (rescored, returned or in
    # records) is divided by
    rng = np.random.default_rng(5)
    for dim in (1, 2, 7, 16, 17, 768):
        rows = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-30, 30, size=(300, 1))
        rows = rows.astype(dtype)
        index = build_index(entries_from(rows))
        want = np.array([float(np.linalg.norm(row.astype(np.float64))) for row in rows])
        assert np.array_equal(retrieval._exact_norms(rows), want)
        picked = rng.permutation(300)[:40]
        assert np.array_equal(index._unit_rows(picked), rows[picked].astype(np.float64) / want[picked, None])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_norm_screen_gives_the_verdicts_of_the_exact_norms(dtype):
    # zero, non-finite and guarded (outside [sqrt(tiny), sqrt(max)]) rows,
    # judged on the screened norms and on the exact ones
    finfo = np.finfo(dtype)
    rng = np.random.default_rng(6)
    for dim in (1, 2, 7, 768):
        exponents = [-30, 30, *(finfo.minexp // 2 + np.arange(-3, 4)), *(finfo.maxexp // 2 + np.arange(-3, 4))]
        scales = 10.0 ** rng.integers(-30, 31, size=200) * rng.choice([1.0, 1e-10, 1e10], size=200)
        scales = np.concatenate([scales, 2.0 ** rng.choice(exponents, size=200)])
        with np.errstate(over="ignore", under="ignore"):
            rows = (rng.normal(size=(400, dim)) * scales[:, None]).astype(dtype)
        # subnormal rows, a zero row and non-finite values
        rows[:20] = rng.integers(-3, 4, size=(20, dim)) * finfo.smallest_subnormal
        rows[20:30] = rng.normal(size=(10, dim)).astype(dtype) * finfo.smallest_normal
        rows[30] = 0.0
        rows[31, 0], rows[32, -1], rows[33, 0] = np.inf, -np.inf, np.nan
        if dim > 1:
            # a sum of squares that rounds up to tiny from just below it
            tiny, eps = float(finfo.tiny), float(finfo.eps)
            rows[34, :2] = [np.sqrt(tiny) * (1 - eps / 2), np.sqrt(0.75 * eps * tiny)]

        def verdicts(norms):
            return (norms == 0.0, ~np.isfinite(norms),
                    (norms < np.sqrt(finfo.tiny)) | (norms > np.sqrt(finfo.max)))

        with np.errstate(over="ignore"):
            screened, exact = verdicts(retrieval._screened_norms(rows)), verdicts(retrieval._exact_norms(rows))
        for got, want in zip(screened, exact):
            assert np.array_equal(got, want)
        assert all(want.any() for want in exact)


def test_rows_too_long_for_the_screen_take_exact_norms():
    # past dim * eps = 1/2 a float32 sum of squares may be off by half
    rows = np.random.default_rng(7).normal(size=(1, 2**22 + 1)).astype(np.float32)
    assert np.array_equal(retrieval._screened_norms(rows), retrieval._exact_norms(rows))


@pytest.mark.parametrize("query", [query_knn, query_random])
def test_query_validation_is_shared(query):
    index = build_index(entries_from([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="k must be >= 1"):
        query(index, [1.0, 0.0], 0)
    with pytest.raises(ValueError, match="query dimension 3 != index dimension 2"):
        query(index, [1.0, 0.0, 0.0], 1)
    with pytest.raises(ValueError, match="zero-norm"):
        query(index, [0.0, 0.0], 1)
    assert query(build_index([]), [1.0, 0.0], 1) == []


def test_self_match_scores_one():
    index = build_index(entries_from([[1.0, 2.0], [2.0, -1.0]]))
    hits = query_knn(index, [1.0, 2.0], k=1)
    assert hits[0][0].id == "0"
    assert hits[0][1] == pytest.approx(1.0, abs=1e-9)


def test_three_vectors_top_two():
    vectors = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]
    index = build_index(entries_from(vectors))
    hits = query_knn(index, [1.0, 0.05], k=2)
    expected = brute_knn(
        [(str(i), [v / math.hypot(*vec) for v in vec]) for i, vec in enumerate(vectors)],
        [1.0, 0.05],
        2,
    )
    assert [(h[0].id, pytest.approx(h[1], abs=1e-9)) for h in hits] == expected


def test_k_larger_than_index_truncates():
    index = build_index(entries_from([[1.0, 0.0], [0.0, 1.0]]))
    hits = query_knn(index, [1.0, 0.0], k=10)
    assert len(hits) == 2


def test_exclusion_never_returned():
    index = build_index(entries_from([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    hits = query_knn(index, [1.0, 0.0], k=3, exclude={"0"})
    assert all(h[0].id != "0" for h in hits)


def test_tie_break_by_insertion_order():
    index = build_index(entries_from([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
    hits = query_knn(index, [1.0, 0.0], k=2)
    assert [h[0].id for h in hits] == ["1", "2"]


def test_dimension_mismatch_query():
    index = build_index(entries_from([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        query_knn(index, [1.0, 0.0, 0.0], k=1)


def test_cosine_equals_dot_on_stored_vectors():
    rng = random.Random(2)
    vectors = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(20)]
    index = build_index(entries_from(vectors))
    query = [rng.uniform(-1, 1) for _ in range(5)]
    unit = np.asarray(query) / np.linalg.norm(query)
    for record, sim in query_knn(index, query, k=20):
        assert sim == pytest.approx(float(np.dot(record.vector, unit)), abs=1e-9)


def test_knn_matches_brute_force_fuzz():
    rng = random.Random(13)
    for _ in range(120):
        dim = rng.randint(2, 16)
        count = rng.randint(1, 40)
        vectors = []
        while len(vectors) < count:
            vec = [rng.uniform(-1, 1) for _ in range(dim)]
            if any(abs(v) > 1e-9 for v in vec):
                vectors.append(vec)
        index = build_index(entries_from(vectors))
        query = [rng.uniform(-1, 1) for _ in range(dim)]
        if all(abs(v) < 1e-9 for v in query):
            continue
        k = rng.randint(1, count + 2)
        hits = query_knn(index, query, k=k)
        unit_vectors = [
            (str(i), list(np.asarray(v) / np.linalg.norm(v))) for i, v in enumerate(vectors)
        ]
        expected = brute_knn(unit_vectors, query, k)
        assert [h[0].id for h in hits] == [e[0] for e in expected]
        for (_, sim), (_, esim) in zip(hits, expected):
            assert sim == pytest.approx(esim, abs=1e-9)


@pytest.mark.parametrize("n", [5, 7, 130, 1001])
def test_duplicate_rows_tie_in_insertion_order(n):
    # a BLAS product rounds a row by its position, so a copy in the tail
    # could outscore its original by a last bit
    rng = np.random.default_rng(n)
    base = rng.normal(size=(n, 768))
    queries = [base[0] + rng.normal(scale=1e-3, size=768) for _ in range(8)]
    for copy_at in range(max(1, n - 8), n):
        rows = base.copy()
        rows[copy_at] = base[0]
        index = build_index(entries_from(rows))
        batch = query_knn_batch(index, queries, 2, [frozenset()] * len(queries))
        for query, batch_hits in zip(queries, batch):
            for hits in (query_knn(index, query, k=2), batch_hits):
                assert [h[0].id for h in hits] == ["0", str(copy_at)]
                assert hits[0][1] == hits[1][1]


FUZZ_KINDS = ["dense-ties", "one-ulp", "random", "extreme-scale"]


def _fuzz_rows(kind, rng, dtype):
    """(index rows of ``dtype``, float64 queries) for one fuzz case of the
    given kind."""
    n = int(rng.integers(1, 60))
    if kind == "dense-ties":
        dim = int(rng.integers(1, 6))
        pool = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), dim)).astype(float)
        pool = pool[np.abs(pool).sum(axis=1) > 0]
        if len(pool) == 0:
            pool = np.ones((1, dim))
        rows = pool[rng.integers(0, len(pool), size=n)].astype(dtype)
        # copies of the first row in the tail
        tail = rng.integers(max(0, n - 8), n, size=int(rng.integers(0, 4)))
        rows[tail] = rows[0]
        queries = [pool[int(rng.integers(0, len(pool)))] for _ in range(3)]
        queries += [rng.integers(-2, 3, size=dim) + np.eye(dim)[0] * 0.5 for _ in range(2)]
    elif kind == "one-ulp":
        dim = int(rng.choice([2, 8, 64, 768]))
        rows = rng.normal(size=(n, dim)).astype(dtype)
        # each picked row differs from its neighbour by one ulp of dtype in one component
        for i in rng.integers(1, n, size=int(rng.integers(0, n))) if n > 1 else []:
            rows[i] = rows[i - 1]
            c = int(rng.integers(0, dim))
            rows[i, c] = np.nextafter(rows[i, c], dtype(rng.choice([-np.inf, np.inf])))
        queries = [rows[int(rng.integers(0, n))] + rng.normal(scale=1e-6, size=dim)
                   for _ in range(4)]
    elif kind == "extreme-scale":
        dim = int(rng.choice([2, 8, 64, 768]))
        base = rng.normal(size=(n, dim))
        # some rows repeat the previous row's direction at another scale
        for i in rng.integers(1, n, size=int(rng.integers(0, n))) if n > 1 else []:
            base[i] = base[i - 1]
        exponents = rng.integers(15, 38, size=(n, 1)) * rng.choice([-1, 1], size=(n, 1))
        rows = (base * 10.0**exponents).astype(dtype)
        queries = [base[int(rng.integers(0, n))] + rng.normal(scale=1e-6, size=dim)
                   for _ in range(3)]
        queries.append(rng.normal(size=dim))
    else:
        dim = int(rng.integers(1, 40))
        rows = rng.normal(size=(n, dim)).astype(dtype)
        queries = [rng.normal(size=dim) for _ in range(4)]
    return rows, queries


@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_batched_knn_matches_full_scan_fuzz(kind, monkeypatch):
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(
            FUZZ_KINDS.index(kind) if dtype is np.float64 else [FUZZ_KINDS.index(kind), 32]
        )
        for _ in range(200):
            rows, queries = _fuzz_rows(kind, rng, dtype)
            n = len(rows)
            index = build_index(entries_from(rows))
            assert index._matrix.dtype == dtype
            k = int(rng.integers(1, n + 3))
            excludes = [
                {str(i) for i in rng.integers(0, n + 2, size=int(rng.integers(0, 4)))}
                for _ in queries
            ]
            # one to three queries per score block, so blocks are crossed
            monkeypatch.setattr(
                retrieval, "SCORE_BLOCK_BYTES", np.dtype(dtype).itemsize * n * int(rng.integers(1, 4))
            )
            batch = query_knn_batch(index, queries, k, excludes)
            assert len(batch) == len(queries)
            units = np.stack([r.vector for r in index.records])
            for query, exclude, hits in zip(queries, excludes, batch):
                expected = knn_full_scan(
                    units, unit_normalize(query), k, {int(e) for e in exclude}
                )
                assert [(h[0].id, h[1]) for h in hits] == [(str(i), sim) for i, sim in expected]
                single = query_knn(index, query, k, exclude)
                assert [(h[0].id, h[1]) for h in single] == [(h[0].id, h[1]) for h in hits]


def test_rows_outside_the_float32_product_range_are_guarded():
    # Row 0's float32 product overflows to inf, which as the threshold would
    # shut out every finite score; row 2's products lose most of their bits
    # to underflow, which alone would drop it, the top hit for [1, 1].
    tiny = float(np.float32(2.0**-149))
    rows = np.array([[3.4e38, 2e38], [1.0, 0.999], [3 * tiny, 3 * tiny]], dtype=np.float32)
    index = build_index(entries_from(rows))
    assert list(index._guarded) == [0, 2]
    units = np.stack([r.vector for r in index.records])
    for query, top in (([1.0, 1.0], "2"), ([1.0, 0.999], "1")):
        for k in (1, 2):
            hits = query_knn(index, query, k)
            expected = knn_full_scan(units, unit_normalize(query), k)
            assert [(h[0].id, h[1]) for h in hits] == [(str(i), sim) for i, sim in expected]
            assert hits[0][0].id == top


def test_batch_needs_one_exclude_set_per_query():
    index = build_index(entries_from([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="1 exclude sets for 2 queries"):
        query_knn_batch(index, [[1.0, 0.0], [0.0, 1.0]], 1, [set()])
    assert query_knn_batch(index, [], 1, []) == []


def test_random_retrieval_deterministic():
    index = build_index(entries_from([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    first = query_random(index, [1.0, 0.0], k=2, seed=42)
    second = query_random(index, [1.0, 0.0], k=2, seed=42)
    assert [(h[0].id, h[1]) for h in first] == [(h[0].id, h[1]) for h in second]


def test_random_retrieval_full_permutation():
    index = build_index(entries_from([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    hits = query_random(index, [1.0, 0.0], k=3, seed=1)
    assert sorted(h[0].id for h in hits) == ["0", "1", "2"]


def test_random_retrieval_everything_excluded():
    index = build_index(entries_from([[1.0, 0.0], [0.0, 1.0]]))
    assert query_random(index, [1.0, 0.0], k=2, exclude={"0", "1"}, seed=0) == []


def test_random_reports_similarities():
    index = build_index(entries_from([[1.0, 0.0]]))
    hits = query_random(index, [1.0, 0.0], k=1, seed=9)
    assert hits[0][1] == pytest.approx(1.0, abs=1e-9)


def test_random_hits_rank_as_a_full_scan_ranks_them():
    # descending similarity, ties (rows 30-39 repeat rows 0-9) in sample
    # order, and the similarities of knn_full_scan bit for bit
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(40, 24))
    rows[30:] = rows[:10]
    index = build_index(entries_from(rows))
    units = np.stack([r.vector for r in index.records])
    query = rng.normal(size=24)
    for seed in range(20):
        hits = query_random(index, query, k=25, seed=seed)
        chosen = random.Random(seed).sample(range(40), 25)
        expected = knn_full_scan(units[chosen], unit_normalize(query), 25)
        assert [(h[0].id, h[1]) for h in hits] == [(str(chosen[i]), sim) for i, sim in expected]


def test_empty_index_returns_no_hits():
    index = build_index([])
    assert len(index) == 0
    assert query_knn(index, [1.0, 0.0], k=2) == []
    assert query_random(index, [1.0, 0.0], k=2, seed=0) == []


def test_binary_round_trip(tmp_path):
    path = tmp_path / "vectors.bin"
    ids_path = tmp_path / "vectors.ids.jsonl"
    entries = [("a", [0.125, 0.25, -0.5]), ("b", [1.0, 2.0, 3.0])]
    write_embeddings_binary(path, ids_path, entries)
    ids, matrix = load_embeddings_binary(path, ids_path)
    assert ids == ["a", "b"]
    assert matrix.dtype == np.dtype("<f4") and matrix.shape == (2, 3)
    for got, (_, want) in zip(matrix, entries):
        assert list(got) == pytest.approx(want, abs=1e-7)
    assert path.read_bytes().startswith(b"RAPTEMB1")
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 2.0


def test_binary_writer_matches_per_row_packing(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    vectors = [rng.normal(scale=10.0 ** rng.integers(-30, 30), size=7) for _ in range(50)]
    vectors += [[0.1, -0.0, 1e-45, 3.4e38, -1.5e-39, 1.0 / 3.0, 2.0**-149]]
    vectors += [np.float32(v) for v in vectors[:5]] + [[int(v) for v in vectors[-1]]]
    path = tmp_path / "vectors.bin"
    for chunk_rows in (4096, 8, 1):
        monkeypatch.setattr(retrieval, "_WRITE_CHUNK_ROWS", chunk_rows)
        write_embeddings_binary(path, tmp_path / "ids.jsonl", [(str(i), v) for i, v in enumerate(vectors)])
        assert path.read_bytes() == pack_embeddings_per_row(EMBEDDING_MAGIC, vectors)
    write_embeddings_binary(path, tmp_path / "ids.jsonl", [])
    assert path.read_bytes() == pack_embeddings_per_row(EMBEDDING_MAGIC, [])


def test_binary_sidecar_matches_json_dumps(tmp_path):
    ids = ["plain", "caf\u00e9", 'say "hi"', "back\\slash", "tab\tnew\nline", "\u2028\x85", "\U0001f600", ""]
    ids_path = tmp_path / "vectors.ids.jsonl"
    write_embeddings_binary(tmp_path / "vectors.bin", ids_path, [(i, [1.0]) for i in ids])
    assert ids_path.read_bytes() == "".join(json.dumps({"id": i}) + "\n" for i in ids).encode("utf-8")
    assert load_embeddings_binary(tmp_path / "vectors.bin", ids_path)[0] == ids


# ids a sidecar may hold: quotes, backslashes, non-ASCII, lone surrogates,
# the writer's row separator and JSON punctuation
SIDECAR_IDS = ["t0", "7", "", 'say "hi"', "back\\slash", "café", "\U0001f600", " \x85", "tab\tnew\nline",
               "\ud800", "x\udc00", '}\n{"id": ', '"}\n{"id": "t0', "a, b", "[", "]", "\\u0041"]
SIDECAR_SPELLINGS = [
    lambda i: '{"id": %s}\n' % json.dumps(i),
    lambda i: json.dumps({"id": i}, separators=(",", ":")) + "\n",
    lambda i: json.dumps({"id": i}, ensure_ascii=False) + "\n",
    lambda i: json.dumps({"id": i}) + "\r\n",
    lambda i: "\n" + json.dumps({"id": i}) + "\n",
    lambda i: re.sub(r"(?<=\\u)[0-9a-f]{4}", lambda hex4: hex4[0].upper(), json.dumps({"id": i})) + "\n",
    lambda i: json.dumps({"id": int(i) if i.isdigit() else i}) + "\n",
    lambda i: json.dumps({"id": i, "x": 1}) + "\n",
    lambda i: json.dumps({"id": i}) + " \n",
    lambda i: json.dumps({"id": i}),
    lambda i: json.dumps({"id": i})[:-1] + "\n",
]


def test_the_sidecar_reads_as_read_jsonl_reads_it(tmp_path):
    # A derandomized sample of sidecars, mostly in the writer's spelling:
    # the same ids as read_jsonl, or its message.
    def outcome(read):
        try:
            return read()
        except DataFormatError as err:
            return str(err)

    rng = random.Random(39)
    path, ids_path = tmp_path / "vectors.bin", tmp_path / "vectors.ids.jsonl"
    fast = 0
    for trial in range(600):
        ids = [rng.choice(SIDECAR_IDS) for _ in range(rng.randint(1, 5))]
        spellings = [SIDECAR_SPELLINGS[0] if trial % 2 else rng.choice(SIDECAR_SPELLINGS) for _ in ids]
        text = "".join(spell(i) for spell, i in zip(spellings, ids))
        ids_path.write_bytes(text.encode("utf-8", "surrogatepass"))
        want = outcome(lambda: [row["id"] for row in read_jsonl(ids_path, EMBEDDING_IDS)])
        count = len(want) if isinstance(want, list) else 0
        path.write_bytes(EMBEDDING_MAGIC + np.array([count, 1], "<u4").tobytes() + bytes(4 * count))
        assert outcome(lambda: load_embeddings_binary(path, ids_path)[0]) == want, text
        fast += retrieval._writer_spelled_ids(ids_path) is not None
    assert 100 < fast < 300


def test_the_writers_sidecar_is_read_in_one_pass(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("read_jsonl called")

    monkeypatch.setattr(retrieval, "read_jsonl", refuse)
    rng = random.Random(40)
    path, ids_path = tmp_path / "vectors.bin", tmp_path / "vectors.ids.jsonl"
    valid = [i for i in SIDECAR_IDS if "\ud800" not in i and "\udc00" not in i]
    for _ in range(50):
        ids = rng.sample(valid, rng.randint(1, len(valid)))
        write_embeddings_binary(path, ids_path, [(i, [1.0]) for i in ids])
        assert load_embeddings_binary(path, ids_path)[0] == ids


def test_a_mapped_index_keeps_its_rows_when_the_file_is_rewritten(tmp_path):
    path = tmp_path / "vectors.bin"
    ids_path = tmp_path / "vectors.ids.jsonl"
    write_embeddings_binary(path, ids_path, [("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
    _, old = load_embeddings_binary(path, ids_path)
    write_embeddings_binary(path, ids_path, [("c", [5.0, 6.0, 7.0])])
    assert old.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    ids, new = load_embeddings_binary(path, ids_path)
    assert ids == ["c"] and new.tolist() == [[5.0, 6.0, 7.0]]


def test_binary_writer_failure_in_a_later_chunk_changes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "vectors.bin"
    ids_path = tmp_path / "vectors.ids.jsonl"
    write_embeddings_binary(path, ids_path, [("a", [1.0, 2.0])])
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    monkeypatch.setattr(retrieval, "_WRITE_CHUNK_ROWS", 2)
    entries = [(str(i), [float(i), 1.0]) for i in range(7)]
    entries[5] = ("5", [1.0, "not a number"])
    with pytest.raises(ValueError):
        write_embeddings_binary(path, ids_path, entries)
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "blob, message",
    [(b"", "bad magic"), (b"RAPT", "bad magic"), (b"RAPTEMB1\x01\x00", "truncated header")],
)
def test_binary_short_file_errors(tmp_path, blob, message):
    path = tmp_path / "vectors.bin"
    ids_path = tmp_path / "vectors.ids.jsonl"
    path.write_bytes(blob)
    ids_path.write_text("")
    with pytest.raises(ValueError, match=message):
        load_embeddings_binary(path, ids_path)


def test_build_index_rows_equal_per_row_unit_normalize():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(300, 768)).astype(np.float32)
    index = build_index(entries_from(rows))
    for record, row in zip(index.records, rows):
        assert np.array_equal(record.vector, unit_normalize(row))


def test_binary_size_validation(tmp_path):
    path = tmp_path / "vectors.bin"
    ids_path = tmp_path / "vectors.ids.jsonl"
    write_embeddings_binary(path, ids_path, [("a", [1.0, 2.0])])
    blob = path.read_bytes()
    for wrong in (blob[:-2], blob + bytes(4)):
        path.write_bytes(wrong)
        with pytest.raises(ValueError, match="size mismatch"):
            load_embeddings_binary(path, ids_path)


def test_binary_sidecar_count_validation(tmp_path):
    path = tmp_path / "vectors.bin"
    ids_path = tmp_path / "vectors.ids.jsonl"
    write_embeddings_binary(path, ids_path, [("a", [1.0]), ("b", [2.0])])
    ids_path.write_text('{"id": "a"}\n')
    with pytest.raises(ValueError, match="sidecar"):
        load_embeddings_binary(path, ids_path)
