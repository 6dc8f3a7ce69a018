"""The rows of one NPY file as views of one matrix.

``read_vectors(path, rows=True)`` checks a 2-D file once and wraps each of
its rows as a read-only view. ``EmbeddingSet``, ``WeightedStyleSet`` and
``QueryCatalog`` take that matrix itself from every row of it, in order;
anything else is stacked into a copy. Either way the results are the same
bits.
"""

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentblendkit
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
    linear_blend,
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
        assert not hasattr(pickle.loads(pickle.dumps(row)), "_row")
        assert not hasattr(copy.copy(row), "_row")

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
        assert QueryCatalog(queries=tuple(QueryEntry(str(i), r) for i, r in enumerate(rows)))._embeddings is base
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
