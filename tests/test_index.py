"""Index construction, statistics conservation, snapshots, corpus readers."""

import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from twqp.analysis import AnalyzerConfig, analyze
from twqp.index import (
    Document,
    Index,
    build_index,
    collection_prob,
    read_corpus,
    read_corpus_dir,
    _pack,
    read_corpus_jsonl,
)
from twqp.retrieval import Query

from conftest import ANALYZER_CONFIGS, PLAIN, corpora, make_random_corpus, raw_corpora
from oracle import doc_length, index_from_postings, reference_build_index, score_ql, term_tf


def assert_same_arrays(built, reference):
    assert built.doc_ids == reference.doc_ids
    assert built.vocabulary == reference.vocabulary
    for name in ("lengths", "starts", "nums", "tfs"):
        got, want = getattr(built, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def read_arrays(path):
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def write_arrays(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# The dtypes snapshots were written in before each integer array was stored
# narrow; such files must still load.
WIDE_DTYPES = {"nums": np.int32, "tfs": np.int32, "lengths": np.int64, "starts": np.int64}


def wide(a):
    return a.astype(np.int64)


def rewrite_wide(path, wide_path):
    arrays = read_arrays(path)
    for name, a in arrays.items():
        dtype = np.int64 if name.endswith("_ends") else WIDE_DTYPES.get(name)
        if dtype is not None:
            arrays[name] = a.astype(dtype)
    write_arrays(wide_path, arrays)


class TestBuildIndex:
    def test_recount_oracle(self):
        """Every statistic must equal a direct recount of the analyzed text."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            docs = make_random_corpus(rng, int(rng.integers(5, 40)))
            index = build_index(docs, PLAIN)
            expected_totals: Counter = Counter()
            for doc in docs:
                tokens = analyze(doc.text, PLAIN)
                counts = Counter(tokens)
                assert index.doc_lengths[doc.doc_id] == len(tokens)
                for w, tf in counts.items():
                    assert term_tf(w, doc.doc_id, index) == tf
                expected_totals.update(counts)
            assert index.collection_tf == dict(expected_totals)
            assert index.total_tokens == sum(expected_totals.values())
            assert index.doc_count == len(docs)

    def test_collection_probs_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            index = build_index(make_random_corpus(rng, 20), PLAIN)
            total = sum(collection_prob(w, index) for w in index.vocabulary)
            assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("config", ANALYZER_CONFIGS.values(), ids=ANALYZER_CONFIGS.keys())
    @given(docs=raw_corpora())
    @settings(max_examples=80, deadline=None)
    def test_arrays_equal_the_reference_builder(self, config, docs):
        assert_same_arrays(build_index(docs, config), reference_build_index(docs, config))

    def test_ascii_and_non_ascii_documents_in_one_build(self):
        # ASCII texts are split by str.translate + str.split, the others by
        # re.findall; one build holds both.
        docs = [
            Document("d3", "Running ponies, the x86\x1cfoo_bar\x0bRUNS."),
            Document("d1", "«Straße» naïve—ponies ٣rd\u00a0running\u2028x86"),
            Document("d4", "ÉCOLE école-run"),
            Document("d2", "the caresses\tof 2nd\x1fr2d2 happy-sky"),
            Document("d0", ""),
        ]
        assert {d.text.isascii() for d in docs} == {True, False}
        config = AnalyzerConfig()
        assert_same_arrays(build_index(docs, config), reference_build_index(docs, config))

    def test_empty_matches_are_not_tokens(self):
        config = AnalyzerConfig(token_pattern=r"\w*")
        index = build_index([Document("d1", "apple pie")], config)
        assert index.vocabulary == ["appl", "pie"]
        assert index.lengths.tolist() == [2]

    def test_configs_do_not_share_a_token_table(self):
        docs = [Document("d2", "Running THE runs"), Document("d1", "ponies run")]
        built = [build_index(docs, c) for c in (AnalyzerConfig(), PLAIN, AnalyzerConfig())]
        assert [ix.vocabulary for ix in built] == [
            ["poni", "run"],
            ["ponies", "run", "running", "runs", "the"],
            ["poni", "run"],
        ]
        assert [ix.lengths.tolist() for ix in built] == [[2, 2], [2, 3], [2, 2]]

    def test_duplicate_doc_id_rejected(self):
        docs = [Document("d1", "apple"), Document("d1", "banana")]
        with pytest.raises(ValueError, match="d1"):
            build_index(docs, PLAIN)
        docs = [Document("d2", "the"), Document("d1", ""), Document("d2", "apple")]
        for config in ANALYZER_CONFIGS.values():
            with pytest.raises(ValueError, match="duplicate doc_id 'd2'"):
                build_index(docs, config)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_index([], PLAIN)
        for config in ANALYZER_CONFIGS.values():
            with pytest.raises(ValueError, match="empty corpus"):
                build_index(iter(()), config)

    @pytest.mark.parametrize("doc_id", ["", "d 1", "d\t1", " d1", "d1\n", "d\u00a01"])
    def test_doc_id_a_run_file_cannot_carry_rejected(self, doc_id):
        docs = [Document("d0", "apple"), Document(doc_id, "apple")]
        with pytest.raises(ValueError, match=re.escape(f"doc_id {doc_id!r} is empty or holds")):
            build_index(docs, PLAIN)

    def test_doc_with_no_surviving_tokens_keeps_zero_length(self):
        config = AnalyzerConfig(stemmer="none")
        index = build_index([Document("d1", "the and"), Document("d2", "apple")], config)
        assert doc_length("d1", index) == 0
        assert index.doc_count == 2


class TestAccessors:
    def test_absent_term_and_doc(self, fruit_index):
        assert term_tf("apple", "d2", fruit_index) == 0
        with pytest.raises(KeyError, match="nope"):
            fruit_index.doc_numbers(["nope"])

    def test_postings_sorted_by_doc_id(self):
        docs = [Document(f"d{j}", "apple") for j in (3, 1, 2)]
        index = build_index(docs, PLAIN)
        assert list(index.postings["apple"].items()) == [("d1", 1), ("d2", 1), ("d3", 1)]

    def test_matching_docs_union(self, fruit_index):
        # ascending document numbers: d1 is 0, d2 is 1
        assert fruit_index.matching_docs(["apple"]).tolist() == [0]
        assert fruit_index.matching_docs(["banana"]).tolist() == [0, 1]
        assert fruit_index.matching_docs(["cherry", "apple"]).tolist() == [0, 1]
        assert fruit_index.matching_docs(["durian"]).tolist() == []
        assert fruit_index.matching_docs([]).tolist() == []

    def test_term_arrays(self, fruit_index):
        assert [a.tolist() for a in fruit_index.term("banana")] == [[0, 1], [1, 1]]
        assert [a.tolist() for a in fruit_index.term("durian")] == [[], []]
        assert fruit_index.doc_numbers(["d2", "d1"]).tolist() == [1, 0]

    def test_vocabulary_sorted(self, fruit_index):
        assert fruit_index.vocabulary == ["apple", "banana", "cherry"]


class TestSnapshot:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        docs = make_random_corpus(rng, 30)
        index = build_index(docs, PLAIN)
        path = tmp_path / "idx.snap"
        index.save(path)
        loaded = Index.load(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.collection_tf == index.collection_tf
        assert loaded.total_tokens == index.total_tokens
        assert loaded.analyzer == index.analyzer

    def test_scores_identical_after_round_trip(self, tmp_path, fruit_index):
        path = tmp_path / "idx.snap"
        fruit_index.save(path)
        loaded = Index.load(path)
        q = Query("q1", ("apple", "banana"))
        for doc_id in ("d1", "d2"):
            assert score_ql(q, doc_id, 10.0, loaded) == score_ql(q, doc_id, 10.0, fruit_index)

    def test_three_doc_fixture_round_trip(self, tmp_path):
        docs = [
            Document("a", "one two two"),
            Document("b", "two three"),
            Document("c", "one"),
        ]
        index = build_index(docs, PLAIN)
        path = tmp_path / "small.snap"
        index.save(path)
        assert Index.load(path).postings == index.postings

    def test_awkward_strings_and_empty_postings_round_trip(self, tmp_path):
        doc_lengths = {"": 1, "tab\tid": 3, "new\nline": 2, "naïve ∂oc": 0, "lone\ud800": 1}
        postings = {
            "crème": {"tab\tid": 2, "": 1},
            "w": {"new\nline": 2, "tab\tid": 1, "lone\ud800": 1},
            "ghost": {},
        }
        config = AnalyzerConfig(stopwords=frozenset({"the", "ß"}), token_pattern=r"[^\s\t]+")
        index = index_from_postings(postings, doc_lengths, config)
        path = tmp_path / "odd.snap"
        index.save(path)
        loaded = Index.load(path)
        assert loaded.doc_ids == index.doc_ids == sorted(doc_lengths)
        assert loaded.doc_lengths == doc_lengths
        assert loaded.postings == postings
        assert loaded.collection_tf == {"crème": 3, "ghost": 0, "w": 4}
        assert loaded.analyzer == config
        assert doc_length("naïve ∂oc", loaded) == 0

    def test_saved_arrays_are_narrowest_and_unpickled(self, tmp_path, fruit_index):
        path = tmp_path / "idx.snap"
        fruit_index.save(path)
        arrays = read_arrays(path)
        assert all(a.dtype != object for a in arrays.values())
        narrowed = [n for n in arrays if n in WIDE_DTYPES or n.endswith("_ends")]
        assert len(narrowed) == 7
        for name in narrowed:
            a = arrays[name]
            assert a.dtype == np.min_scalar_type(int(a.max(initial=0))), name

        # tfs past 8 and 31 bits store as uint32 and load back as int64
        postings = {"a": {"d1": 300, "d2": 2**31 + 7}, "b": {"d1": 1}}
        index = index_from_postings(postings, {"d1": 301, "d2": 2**31 + 7}, PLAIN)
        index.save(path)
        assert read_arrays(path)["tfs"].dtype == np.uint32
        loaded = Index.load(path)
        assert_same_arrays(loaded, index)
        assert loaded.collection_tf == {"a": 2**31 + 307, "b": 1}

    @given(index=corpora())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_wide_and_narrow_snapshots_load_to_the_built_arrays(self, index):
        with tempfile.TemporaryDirectory() as tmp:
            narrow, wide = Path(tmp) / "narrow.snap", Path(tmp) / "wide.snap"
            index.save(narrow)
            rewrite_wide(narrow, wide)
            assert read_arrays(wide)["nums"].dtype == np.int32
            for path in (narrow, wide):
                loaded = Index.load(path)
                assert_same_arrays(loaded, index)
                assert loaded.lengths.dtype == loaded.nums.dtype == np.int64
                assert loaded.analyzer == index.analyzer

    def test_empty_terms_have_no_collection_tf(self):
        # empty spans first, between and last: each must count 0, and the
        # span before each must still run to its own end
        postings = {"a": {}, "b": {"d1": 2, "d2": 3}, "c": {}, "d": {"d2": 4}, "e": {}}
        index = index_from_postings(postings, {"d1": 2, "d2": 7}, PLAIN)
        assert index.collection_tf == {"a": 0, "b": 5, "c": 0, "d": 4, "e": 0}
        assert index_from_postings({"a": {}}, {"d1": 0}, PLAIN).collection_tf == {"a": 0}

    def test_bad_header_rejected(self, tmp_path):
        for content in (b"not a snapshot\n{}\n", b""):
            path = tmp_path / "junk.snap"
            path.write_bytes(content)
            with pytest.raises(ValueError, match="not an index snapshot"):
                Index.load(path)
        np.savez(tmp_path / "other.npz", x=np.arange(3))
        with pytest.raises(ValueError, match="not an index snapshot"):
            Index.load(tmp_path / "other.npz")

    def test_unsupported_version_rejected(self, tmp_path, fruit_index):
        path = tmp_path / "v9.snap"
        fruit_index.save(path)
        arrays = read_arrays(path)
        arrays["twqp_index_version"] = np.array(9)
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match="unsupported snapshot version 9"):
            Index.load(path)

    @pytest.mark.parametrize("damage", ["cut in half", "cut by its last byte", "flipped byte"])
    def test_damaged_snapshot_names_its_path(self, tmp_path, fruit_index, damage):
        path = tmp_path / "idx.snap"
        fruit_index.save(path)
        data = bytearray(path.read_bytes())
        if damage == "flipped byte":
            data[data.index(b"NUMPY", 100) + 20] ^= 0x01  # inside the second array's header
        else:
            del data[len(data) // 2 if damage == "cut in half" else -1 :]
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: damaged index snapshot"):
            Index.load(path)

    def test_every_flipped_bit_loads_or_names_the_path(self, tmp_path, fruit_index):
        # zipfile and numpy's header parser raise many exception types on a
        # damaged archive; every one must reach the caller as a ValueError
        path = tmp_path / "idx.snap"
        fruit_index.save(path)
        data = path.read_bytes()
        for i in range(0, len(data), 7):
            damaged = bytearray(data)
            damaged[i] ^= 1 << (i % 8)
            path.write_bytes(bytes(damaged))
            try:
                Index.load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), (i, exc)

    def test_rejected_stored_pattern_names_the_path(self, tmp_path, fruit_index):
        path = tmp_path / "idx.snap"
        fruit_index.save(path)
        arrays = read_arrays(path)
        a = fruit_index.analyzer
        arrays.update(_pack("analyzer", [a.stemmer, "(a)(b)", *sorted(a.stopwords)]))
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*capturing groups"):
            Index.load(path)

    # Each damage leaves a well-formed archive whose arrays disagree or
    # break a postings rule.  The index has 3 documents and the terms one,
    # three and two, so starts is [0, 2, 3, 5] and nums [0, 2, 1, 0, 1].
    # The arrays are stored as uint8, so the rows that subtract or reorder
    # widen first: 0 - 1 must stay -1, not wrap to 255.
    DISAGREEING_ARRAYS = {
        "lengths one short": lambda a: {"lengths": a["lengths"][:-1]},
        "lengths one long": lambda a: {"lengths": np.append(a["lengths"], 1)},
        "starts one short": lambda a: {"starts": a["starts"][:-1]},
        "starts not from 0": lambda a: {"starts": a["starts"] + 1},
        "starts descending": lambda a: {"starts": wide(a["starts"])[[0, 2, 1, 3]]},
        "starts past the postings": lambda a: {"starts": np.append(a["starts"][:-1], 99)},
        "tfs one short": lambda a: {"tfs": a["tfs"][:-1]},
        "doc number past the last document": lambda a: {"nums": np.where(a["nums"], a["nums"], 7)},
        "negative doc number": lambda a: {"nums": wide(a["nums"]) - 1},
        "doc numbers stored as floats": lambda a: {"nums": a["nums"].astype(float)},
        "tf of -2": lambda a: {"tfs": np.where(np.arange(5) == 3, -2, a["tfs"])},
        "tf of 0": lambda a: {"tfs": np.where(np.arange(5) == 0, 0, a["tfs"])},
        "doc numbers falling within a term": lambda a: {"nums": wide(a["nums"])[[1, 0, 2, 3, 4]]},
        "doc number repeated within a term": lambda a: {"nums": wide(a["nums"])[[0, 0, 2, 3, 4]]},
        "length of -2": lambda a: {"lengths": np.where(np.arange(3) == 1, -2, a["lengths"])},
        "length of 0": lambda a: {"lengths": np.where(np.arange(3) == 1, 0, a["lengths"])},
        "length of 9": lambda a: {"lengths": np.where(np.arange(3) == 1, 9, a["lengths"])},
    }

    @pytest.mark.parametrize("damage", list(DISAGREEING_ARRAYS))
    def test_disagreeing_arrays_name_the_path(self, tmp_path, damage):
        docs = [Document("a", "one two two"), Document("b", "two three"), Document("c", "one")]
        path = tmp_path / "small.snap"
        build_index(docs, PLAIN).save(path)
        arrays = read_arrays(path)
        arrays.update(self.DISAGREEING_ARRAYS[damage](arrays))
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: damaged index snapshot"):
            Index.load(path)

    # Each damage cuts a string table wrong.  Doc ids d1 and d2 are stored as
    # the bytes d1d2 with ends [2, 4]; the terms naïve and tea as naïvetea,
    # ï two bytes long, with ends [6, 9].
    DAMAGED_STRING_TABLES = {
        "ends falling": ({"doc_ids_ends": [3, 1]}, "doc_ids_ends falls"),
        "ends stored as floats": (
            {"doc_ids_ends": np.array([2.0, 4.0])},
            "doc_ids_ends is not a 1-D integer array",
        ),
        "ends short of the bytes": ({"doc_ids_ends": [2, 3]}, "doc_ids_ends ends at 3, "),
        "ends past the bytes": ({"doc_ids_ends": [2, 5]}, "doc_ids_ends ends at 5, "),
        "end inside a character": ({"vocabulary_ends": [3, 9]}, "vocabulary_utf8 is not UTF-8"),
        "bytes not UTF-8": (
            {"doc_ids_utf8": np.frombuffer(b"d1\xff2", dtype=np.uint8)},
            "doc_ids_utf8 is not UTF-8",
        ),
    }

    @pytest.mark.parametrize("damage", list(DAMAGED_STRING_TABLES))
    def test_damaged_string_table_names_the_path(self, tmp_path, damage):
        path = tmp_path / "two.snap"
        build_index([Document("d1", "naïve tea"), Document("d2", "tea")], PLAIN).save(path)
        arrays = read_arrays(path)
        assert arrays["doc_ids_ends"].tolist() == [2, 4]
        assert arrays["vocabulary_ends"].tolist() == [6, 9]
        edits, reason = self.DAMAGED_STRING_TABLES[damage]
        arrays.update({name: np.asarray(a) for name, a in edits.items()})
        write_arrays(path, arrays)
        prefix = f"{path}: damaged index snapshot ({reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
            Index.load(path)

    def test_json_snapshot_rejected(self, tmp_path):
        path = tmp_path / "v1.snap"
        path.write_text('#twqp-index 1\n{"postings": {}}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"format 1 .*`twqp index`"):
            Index.load(path)

    def test_save_writes_the_given_path(self, tmp_path, fruit_index):
        fruit_index.save(tmp_path / "idx.snap")
        assert [p.name for p in tmp_path.iterdir()] == ["idx.snap"]


class TestCorpusReaders:
    def test_jsonl_reader(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id": "d1", "text": "apple pie"}\n'
            "\n"
            '{"doc_id": "d2", "text": "banana"}\n',
            encoding="utf-8",
        )
        docs = list(read_corpus_jsonl(path))
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs[0].text == "apple pie"

    def test_jsonl_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1", "text": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            list(read_corpus_jsonl(path))

    @pytest.mark.parametrize("doc_id", ["", "d 2"])
    def test_jsonl_doc_id_with_whitespace_reports_path_and_line(self, tmp_path, doc_id):
        path = tmp_path / "c.jsonl"
        path.write_text(
            f'{{"doc_id": "d1", "text": "x"}}\n\n{{"doc_id": "{doc_id}", "text": "y"}}\n',
            encoding="utf-8",
        )
        expected = f"{path}: doc_id {doc_id!r} is empty or holds whitespace at line 3"
        with pytest.raises(ValueError, match=re.escape(expected)):
            list(read_corpus_jsonl(path))

    @pytest.mark.parametrize("field", ["doc_id", "text"])
    @pytest.mark.parametrize("value", ["null", "7", '["a", "b"]', "true"])
    def test_jsonl_field_that_is_not_a_string_rejected(self, tmp_path, field, value):
        record = {"doc_id": '"d2"', "text": '"apple"', field: value}
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id": "d1", "text": "x"}\n'
            f'{{"doc_id": {record["doc_id"]}, "text": {record["text"]}}}\n',
            encoding="utf-8",
        )
        expected = f"{path}: {field} must be a JSON string, got {value} at line 2"
        with pytest.raises(ValueError, match=re.escape(expected)):
            list(read_corpus_jsonl(path))

    def test_jsonl_missing_field_reports_lineno(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            list(read_corpus_jsonl(path))

    def test_dir_reader_uses_file_stems(self, tmp_path):
        (tmp_path / "alpha.txt").write_text("apple", encoding="utf-8")
        (tmp_path / "beta.txt").write_text("banana", encoding="utf-8")
        docs = list(read_corpus_dir(tmp_path))
        assert [d.doc_id for d in docs] == ["alpha", "beta"]

    def test_dispatch_on_path_kind(self, tmp_path):
        (tmp_path / "doc.txt").write_text("apple", encoding="utf-8")
        assert [d.doc_id for d in read_corpus(tmp_path)] == ["doc"]
        jsonl = tmp_path / "c.jsonl"
        jsonl.write_text('{"doc_id": "d9", "text": "pear"}\n', encoding="utf-8")
        assert [d.doc_id for d in read_corpus(jsonl)] == ["d9"]
