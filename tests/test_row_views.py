"""The rows of one NPY file as views of one matrix.

``read_vectors(path, rows=True)`` checks a 2-D file once and wraps each of
its rows as a read-only view. ``EmbeddingSet``, ``WeightedStyleSet`` and
``QueryCatalog`` take that matrix itself from every row of it, in order;
anything else is stacked into a copy. The views share one record of the
matrix, which keeps its row norms and the MS values of the last references
it was scored against for every set over it. Either way the results are the
same bits.
"""

import copy
import dataclasses
import gc
import os
import pickle
import re
import subprocess
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import latentblendkit
from latentblendkit import metrics, tensorcore
from latentblendkit import (
    DimensionMismatch,
    EmbeddingSet,
    InvalidShape,
    LatentVector,
    Matrix,
    QueryCatalog,
    QueryEntry,
    ReferenceStyle,
    WeightedStyleSet,
    best_music_query,
    linear_blend,
    mean_similarity,
    read_vectors,
    shared_attention,
    slerp_pair,
    sli_blend,
    wms_score,
    write_vectors,
)

SRC = str(Path(latentblendkit.__file__).resolve().parents[1])


def _refs(rng, d):
    return (
        ReferenceStyle("a", LatentVector(rng.standard_normal(d)), 1.0),
        ReferenceStyle("b", LatentVector(rng.standard_normal(d)), 0.5),
    )


def _copies(rows):
    return tuple(LatentVector(r.data) for r in rows)


@pytest.fixture
def rng():
    return np.random.default_rng(1616)


@pytest.fixture
def rows(tmp_path, rng):
    write_vectors(tmp_path / "gen.npy", rng.standard_normal((6, 5)))
    return read_vectors(tmp_path / "gen.npy", rows=True)


class TestRead:
    def test_rows_are_read_only_views_of_one_matrix(self, rows):
        base = rows[0].data.base
        assert base.shape == (6, 5) and not base.flags.writeable
        for i, r in enumerate(rows):
            assert r.data.base is base and not r.data.flags.writeable
            assert np.array_equal(r.data, base[i])

    def test_a_row_looks_like_a_copy(self, rows):
        row, own = rows[2], LatentVector(rows[2].data)
        assert [f.name for f in dataclasses.fields(row)] == ["data"]
        assert repr(row) == repr(own)
        assert pickle.dumps(row) == pickle.dumps(own)
        assert not hasattr(pickle.loads(pickle.dumps(row)), "_rec")
        assert not hasattr(copy.copy(row), "_rec")

    def test_user_vectors_are_still_copied(self, rows):
        arr = np.ones(3)
        v = LatentVector(arr)
        assert not np.shares_memory(v.data, arr) and not v.data.flags.writeable
        assert not np.shares_memory(LatentVector(rows[0].data).data, rows[0].data)

    def test_a_nan_row_gives_the_same_message(self, tmp_path):
        bad = np.ones((3, 4))
        bad[1, 2] = np.nan
        write_vectors(tmp_path / "bad.npy", bad)
        with pytest.raises(InvalidShape, match=r"^LatentVector contains NaN or Inf entries$"):
            read_vectors(tmp_path / "bad.npy", rows=True)


class TestStack:
    def test_every_row_in_order_is_the_matrix_itself(self, rows, rng):
        base = rows[0].data.base
        refs = _refs(rng, 5)
        es = EmbeddingSet(generated=tuple(rows), references=refs)
        assert es.generated is base
        assert np.shares_memory(es.generated, rows[0].data)
        assert WeightedStyleSet.of(rows, [1.0] * 6).vectors is base
        catalog = QueryCatalog(queries=tuple(QueryEntry(str(i), r) for i, r in enumerate(rows)))
        assert catalog._rec.matrix is base and catalog._rec is rows[0]._rec
        assert wms_score(es) == wms_score(EmbeddingSet(generated=_copies(rows), references=refs))

    def test_a_one_row_file_is_its_matrix(self, tmp_path, rng):
        for shape in [(1, 4), (4,)]:  # a 1-D file is one row too
            write_vectors(tmp_path / "one.npy", rng.standard_normal(shape))
            (row,) = read_vectors(tmp_path / "one.npy", rows=True)
            assert EmbeddingSet(generated=[row], references=_refs(rng, 4)).generated is row.data.base, shape

    @pytest.mark.parametrize("case", ["slice", "reversed", "duplicated", "two files", "two files, same length",
                                      "unpickled", "writable base"])
    def test_other_row_lists_are_copied(self, tmp_path, rows, rng, case):
        write_vectors(tmp_path / "other.npy", rng.standard_normal((6, 5)))
        other = read_vectors(tmp_path / "other.npy", rows=True)
        chosen = {
            "slice": rows[1:4],
            "reversed": rows[::-1],
            "duplicated": [rows[0]] * 6,
            "two files": rows + other,
            "two files, same length": rows[:3] + other[3:],
            "unpickled": pickle.loads(pickle.dumps(rows)),
            "writable base": rows,
        }[case]
        base = rows[0].data.base
        if case == "writable base":
            base.setflags(write=True)
        refs = _refs(rng, 5)
        es = EmbeddingSet(generated=tuple(chosen), references=refs)
        assert not np.shares_memory(es.generated, base) and not es.generated.flags.writeable
        assert not np.shares_memory(WeightedStyleSet.of(chosen, [1.0] * len(chosen)).vectors, base)
        assert np.array_equal(es.generated, np.stack([r.data for r in chosen]))
        assert wms_score(es) == wms_score(EmbeddingSet(generated=_copies(chosen), references=refs))

    @pytest.mark.parametrize("make, label", [
        (lambda vs: EmbeddingSet(generated=vs, references=_refs(np.random.default_rng(0), 3)), "generated[2]"),
        (lambda vs: WeightedStyleSet.of(vs, [1.0] * len(vs)), "style 2"),
        (lambda vs: QueryCatalog(queries=tuple(QueryEntry(str(i), v) for i, v in enumerate(vs))), "catalog entry 2"),
    ])
    def test_the_first_vector_that_is_off_is_named(self, make, label):
        vectors = [LatentVector(np.ones(3)), LatentVector(np.ones(3)), LatentVector(np.ones(4)),
                   LatentVector(np.ones(2))]
        with pytest.raises(DimensionMismatch, match=rf"^{re.escape(label)} has d_z=4, expected 3$"):
            make(vectors)


#: The weight rows of the paper's weighted-DINO grid
GRID = [(1.0, 0.0), (0.8, 0.2), (0.6, 0.4), (0.5, 0.5), (0.4, 0.6), (0.2, 0.8), (0.0, 1.0)]


def _grid_sets(generated, refs):
    return [EmbeddingSet(generated=generated, references=(ReferenceStyle("a", refs[0].embedding, w1),
                                                          ReferenceStyle("b", refs[1].embedding, w2)))
            for w1, w2 in GRID]


class TestRecord:
    """Sets over every row of one file share its row norms and MS values."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each ``_row_norms`` of a 2-D array and each 2-D ``_cosines``, as
        (kind, the array) in call order."""
        seen = []

        def spy(kind, f):
            def wrapped(x, *args):
                if x.ndim == 2:
                    seen.append((kind, x))
                return f(x, *args)
            return wrapped

        monkeypatch.setattr(tensorcore, "_row_norms", spy("norms", tensorcore._row_norms))
        monkeypatch.setattr(metrics, "_row_norms", spy("norms", metrics._row_norms))
        monkeypatch.setattr(metrics, "_cosines", spy("cosines", metrics._cosines))
        return seen

    def test_a_grid_takes_the_norms_once_and_each_ms_once(self, rows, rng, calls):
        refs = _refs(rng, 5)
        matrix = rows[0].data.base
        reports = [wms_score(es) for es in _grid_sets(tuple(rows), refs)]
        assert [(kind, x is matrix) for kind, x in calls] == [("norms", True), ("cosines", True), ("cosines", True)]
        del calls[:]
        assert reports == [wms_score(es) for es in _grid_sets(_copies(rows), refs)]
        assert Counter(kind for kind, _ in calls) == {"norms": len(GRID), "cosines": 2 * len(GRID)}

    def test_other_references_replace_the_scores(self, rows, rng, calls):
        refs, other = _refs(rng, 5), _refs(rng, 5)
        first = wms_score(_grid_sets(tuple(rows), refs)[0])
        assert wms_score(_grid_sets(tuple(rows), other)[0]) == wms_score(_grid_sets(_copies(rows), other)[0])
        record = rows[0]._rec
        assert set(record.scores) == {r.embedding.data.tobytes() for r in other}
        assert wms_score(_grid_sets(tuple(rows), refs)[1]).per_style_ms == first.per_style_ms
        assert Counter(kind for kind, _ in calls)["cosines"] == 2 + 2 + 2 + 2

    def test_mean_similarity_reads_the_record(self, rows, rng, calls):
        refs = _refs(rng, 5)
        want = mean_similarity(_copies(rows), refs[1].embedding)
        del calls[:]
        assert mean_similarity(rows, refs[1].embedding) == want
        wms_score(_grid_sets(tuple(rows), refs)[0])
        del calls[:]
        assert mean_similarity(rows, refs[1].embedding) == want
        assert calls == []

    @pytest.mark.parametrize("case", ["ndarray", "owned", "slice", "reversed", "copies", "copied views",
                                      "writable again"])
    def test_any_other_input_is_scored_afresh(self, rows, rng, calls, case):
        refs = _refs(rng, 5)
        if case == "writable again":
            rows[0].data.base.setflags(write=True)
        chosen = {"slice": rows[1:], "reversed": rows[::-1]}.get(case, rows)
        make = {
            "ndarray": lambda: np.stack([r.data for r in chosen]),
            # a new record over a checked matrix, as lbk wms builds one per --generated path
            "owned": lambda: tensorcore._Record(tensorcore._checked(np.stack([r.data for r in chosen]), 2, "g")),
            "copies": lambda: _copies(chosen),
            "copied views": lambda: [copy.copy(r) for r in chosen],
        }.get(case, lambda: chosen)
        want_sets = _grid_sets(_copies(chosen), refs)
        want = [wms_score(es) for es in want_sets]
        del calls[:]
        if case == "owned":  # one record per set: the sets given one record share it, as one file's rows do
            sets = [EmbeddingSet(generated=make(), references=es.references) for es in want_sets]
        else:  # one input for every set, so a cache keyed on the caller's object would show here
            sets = _grid_sets(make(), refs)
        assert [wms_score(es) for es in sets] == want
        assert Counter(kind for kind, _ in calls) == {"norms": len(GRID), "cosines": 2 * len(GRID)}

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_a_copys_record_is_over_its_own_matrix(self, rows, rng, clone):
        refs = _refs(rng, 5)
        es = _grid_sets(tuple(rows), refs)[1]
        assert es._rec is rows[0]._rec
        row, es2 = clone(rows[2]), clone(es)
        assert not hasattr(row, "_rec")
        assert es2._rec.matrix is es2.generated and not es2.generated.flags.writeable
        assert (es2._rec is es._rec) == (clone is copy.copy)  # a shallow copy shares the matrix and record
        assert np.array_equal(row.data, rows[2].data) and repr(row) == repr(rows[2])
        assert np.array_equal(es2.generated, es.generated) and repr(es2.references) == repr(es.references)
        assert wms_score(es2) == wms_score(es)

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("source", ["row views", "vectors"])
    def test_a_copied_catalog_keeps_a_read_only_record(self, rows, rng, clone, source):
        entries = rows if source == "row views" else _copies(rows)
        catalog = QueryCatalog(queries=tuple(QueryEntry(str(i), r) for i, r in enumerate(entries)))
        assert tensorcore._stack_vectors(catalog._rec, "entry {}") is catalog._rec
        music = LatentVector(rng.standard_normal(5))
        catalog2 = clone(catalog)
        assert not catalog2._rec.matrix.flags.writeable and not catalog2._rec.norms().flags.writeable
        assert (catalog2._rec is catalog._rec) == (clone is copy.copy)
        assert np.array_equal(catalog2._rec.matrix, catalog._rec.matrix)
        assert best_music_query(music, catalog2) == best_music_query(music, catalog)

    def test_a_pickled_set_holds_its_matrix_once(self, tmp_path, rng):
        write_vectors(tmp_path / "big.npy", rng.standard_normal((10_000, 768)))
        rows = read_vectors(tmp_path / "big.npy", rows=True)
        es = EmbeddingSet(generated=tuple(rows), references=_refs(rng, 768))
        wms_score(es)
        data = pickle.dumps(es)
        assert len(data) < 2 * es.generated.nbytes
        es2 = pickle.loads(data)
        assert es2._rec.matrix is es2.generated and es2._rec.rows == ()
        assert wms_score(es2) == wms_score(es)

    @pytest.mark.parametrize("source", ["row views", "record"])
    def test_threads_give_the_serial_bits(self, rows, rng, source):
        ref_sets = [_refs(rng, 5) for _ in range(3)]
        if source == "row views":
            generated = tuple(rows)
        else:  # as lbk wms builds it
            generated = tensorcore._Record(tensorcore._checked(np.stack([r.data for r in rows]), 2, "generated"))

        def grid(refs):
            return [wms_score(es) for es in _grid_sets(generated, refs)]

        serial = [grid(refs) for refs in ref_sets]
        with ThreadPoolExecutor(4) as pool:
            for _ in range(5):
                assert list(pool.map(grid, ref_sets * 4)) == serial * 4

    def test_deleting_the_views_and_sets_frees_the_matrix(self, tmp_path, rng):
        write_vectors(tmp_path / "gen.npy", rng.standard_normal((6, 5)))
        rows = read_vectors(tmp_path / "gen.npy", rows=True)
        sets = _grid_sets(tuple(rows), _refs(rng, 5))
        for es in sets:
            wms_score(es)
        matrix = weakref.ref(rows[0].data.base)
        gc.disable()
        try:
            del rows, sets, es
            assert matrix() is None
        finally:
            gc.enable()


class TestComputedResults:
    def test_results_are_their_own_read_only_arrays(self, rng):
        a, b = (LatentVector(rng.standard_normal(6)) for _ in range(2))
        v, _ = slerp_pair(a, b, 0.3)
        s = WeightedStyleSet.of([a, b], [1.0, 2.0])
        m = Matrix(rng.standard_normal((4, 3)))
        out = shared_attention(m, m, m, m, m, m)
        for arr in (v.data, linear_blend(s).vector.data, sli_blend(s).vector.data, out.updated.data,
                    out.weights.data):
            assert not arr.flags.writeable and arr.flags.c_contiguous and arr.dtype == np.float64

    def test_an_overflowing_slerp_gives_the_same_message(self):
        # finite, nearly antipodal inputs: both sine coefficients are about 100
        a, b = LatentVector(np.array([1e307, 0.0])), LatentVector(np.array([-1e307, 1e305]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidShape, match=r"^LatentVector contains NaN or Inf entries$"):
                slerp_pair(a, b, 0.5)


#: Runs in a fresh interpreter and prints each (d, n) it checked; it fails
#: where the rows of one file, as views and as copies, give different bits
#: (the repr of a float is exact).
BIT_CHECK = """if True:
    import sys
    import numpy as np
    from latentblendkit import (EmbeddingSet, LatentVector, ReferenceStyle, WeightedStyleSet, cosine_similarity,
                                dot, linear_blend, mean_similarity, norm, read_vectors, sli_blend, wms_score,
                                write_vectors)

    def outcome(f):
        try:
            r = f()
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        if hasattr(r, "vector"):
            return (r.vector.data.tobytes(), r.order_used, r.omega_trace)
        return r

    def results(rows, refs):
        es = EmbeddingSet(generated=tuple(rows), references=refs)
        ws = WeightedStyleSet.of(rows, [1.0 + i for i in range(len(rows))])
        per_row = [(norm(r), dot(r, refs[0].embedding), cosine_similarity(r, refs[1].embedding)) for r in rows]
        return [wms_score(es), mean_similarity(rows, refs[0].embedding), per_row,
                outcome(lambda: linear_blend(ws)), outcome(lambda: sli_blend(ws))]

    rng = np.random.default_rng(16)
    path = sys.argv[1]
    for d in (1, 3, 5, 7, 8, 17, 768, 769, 20001):
        refs = (ReferenceStyle("a", LatentVector(rng.standard_normal(d)), 1.0),
                ReferenceStyle("b", LatentVector(rng.standard_normal(d)), 0.25))
        for n in (1, 2, 3, 9, 64):
            write_vectors(path, rng.standard_normal((n, d)))
            rows = read_vectors(path, rows=True)
            assert EmbeddingSet(generated=tuple(rows), references=refs).generated is rows[0].data.base
            views = results(rows, refs)
            copies = results([LatentVector(r.data) for r in rows], refs)
            assert repr(views) == repr(copies), (d, n)
            print(d, n)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs Linux and 2+ CPUs",
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_views_and_copies_give_the_same_bits(tmp_path, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", BIT_CHECK, str(tmp_path / "rows.npy")], env=env,
                          capture_output=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert len(proc.stdout.splitlines()) == 45
