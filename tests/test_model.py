import dataclasses
import json
import random
import re
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kbforge import model
from kbforge.model import (
    TRIPLE_SEP,
    Caps,
    InputError,
    KnowledgeBase,
    NdjsonStore,
    RunConfig,
    StructuralCategory,
    TermKind,
    Triple,
    derive_categories,
    load_run,
    load_suite,
    load_triples,
    make_triple,
    normalize_label,
    read_ndjson,
    save_run,
    save_suite,
    write_atomic,
    write_triples,
)
from kbforge.model import RunRecord, Termination

from conftest import FIXTURE_ROWS, build_fixture_kb, held_bytes, label_objects, synthetic_kb


class TestNormalizeLabel:
    def test_strips_and_collapses_whitespace(self):
        assert normalize_label("  Temple   of\tMarduk ") == "Temple of Marduk"

    def test_preserves_case(self):
        assert normalize_label("Ishtar Gate") == "Ishtar Gate"

    def test_newlines_become_single_spaces(self):
        assert normalize_label("a\n\nb") == "a b"

    def test_empty_and_whitespace_only(self):
        assert normalize_label("") == ""
        assert normalize_label("   \t\n") == ""

    def test_whitespace_is_the_regex_whitespace_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        assert normalize_label(every) == re.sub(r"\s+", " ", every.strip())

    # Any text, text with whitespace in every form, and normalized labels of
    # several words.
    @given(st.text() | st.text(" \t\n\u00a0\u2003ab") | st.lists(st.text("ab", min_size=1)).map(" ".join))
    def test_is_split_and_join_and_keeps_a_normalized_label(self, raw):
        cleaned = " ".join(raw.split())
        assert normalize_label(raw) == cleaned
        if cleaned == raw:
            assert normalize_label(raw) is raw


class TestTriple:
    def test_rejects_empty_fields(self):
        with pytest.raises(ValueError):
            Triple(subject="", predicate="p", object="o", object_kind=TermKind.LITERAL, layer=0)
        with pytest.raises(ValueError):
            Triple(subject="s", predicate="p", object="o", object_kind=TermKind.LITERAL, layer=-1)

    @pytest.mark.parametrize(
        "fields",
        [
            (5, "p", "o", TermKind.LITERAL, 0),
            ("s", b"p", "o", TermKind.LITERAL, 0),
            ("s", "p", None, TermKind.LITERAL, 0),
            ("s", "p", "o", None, 0),
            ("s", "p", "o", "lit", 0),
            ("s", "p", "o", TermKind.LITERAL, 3.7),
            ("s", "p", "o", TermKind.LITERAL, 3.0),
            ("s", "p", "o", TermKind.LITERAL, True),
            ("s", "p", "o", TermKind.LITERAL, "3"),
            ("s", "p", "o", TermKind.LITERAL, None),
        ],
        ids=["int-subject", "bytes-predicate", "none-object", "none-kind", "code-kind",
             "float-layer", "whole-float-layer", "bool-layer", "text-layer", "none-layer"],
    )
    def test_rejects_wrong_field_types(self, fields):
        with pytest.raises(ValueError):
            Triple(*fields)

    def test_identity_is_the_fact(self):
        first = Triple("s", "p", "o", TermKind.LITERAL, 0)
        other = Triple("s", "p", "o", TermKind.NAMED_ENTITY, 3)
        assert first == other and hash(first) == hash(other)
        assert first != Triple("s", "p", "o2", TermKind.LITERAL, 0)
        assert repr(other) == (
            "Triple(subject='s', predicate='p', object='o', "
            "object_kind=<TermKind.NAMED_ENTITY: 'ne'>, layer=3)"
        )

    def test_make_triple_normalizes(self):
        t = make_triple(" Hammurabi ", "ruled  Over", "Babylon\n", TermKind.NAMED_ENTITY, 0)
        assert t.key() == ("Hammurabi", "ruled Over", "Babylon")

    def test_flat_uses_unit_separator(self):
        kb = KnowledgeBase([make_triple("s", "p", "o", TermKind.LITERAL, 0)])
        assert derive_categories(kb)[StructuralCategory.TRIPLES] == {"s␟p␟o"}

    def test_kind_codes_round_trip(self):
        assert TermKind.from_code("ne") is TermKind.NAMED_ENTITY
        assert TermKind.from_code("lit") is TermKind.LITERAL
        for bad in ("bogus", "x", "NE", None):
            with pytest.raises(ValueError):
                TermKind.from_code(bad)


class TestKnowledgeBase:
    def test_deduplicates_on_spo(self):
        first = make_triple("s", "p", "o", TermKind.LITERAL, 0)
        kb = KnowledgeBase([first, make_triple("s", "p", "o", TermKind.LITERAL, 3)])
        assert len(kb) == 1
        assert kb.triples[0].layer == 0

    def test_duplicate_keeps_the_first_kind_and_layer(self):
        first = Triple("s", "p", "o", TermKind.LITERAL, 1)
        kb = KnowledgeBase([
            first, Triple("s", "p", "o", TermKind.NAMED_ENTITY, 0),
            Triple("s", "p", "o", TermKind.NAMED_ENTITY, 2), first,
        ])
        assert kb.triples == [first] and kb.triples[0] is first
        assert (kb.triples[0].object_kind, kb.triples[0].layer) == (TermKind.LITERAL, 1)

    def test_constructor_keeps_the_first_copy_in_order(self):
        first = Triple("s", "p", "o", TermKind.LITERAL, 1)
        other = Triple("t", "p", "o", TermKind.NAMED_ENTITY, 0)
        kb = KnowledgeBase([
            first, Triple("s", "p", "o", TermKind.NAMED_ENTITY, 0),
            other, Triple("t", "p", "o", TermKind.LITERAL, 2), first,
        ])
        assert len(kb) == 2
        assert kb.triples[0] is first and kb.triples[1] is other
        assert [(t.object_kind, t.layer) for t in kb.triples] == [
            (TermKind.LITERAL, 1), (TermKind.NAMED_ENTITY, 0),
        ]

    def test_add_all_counts_new_facts_in_order(self):
        rows = [("a", "p", "o"), ("b", "p", "o"), ("a", "p", "o"), ("c", "p", "o"), ("b", "p", "o")]
        kb = KnowledgeBase(Triple(*row, TermKind.LITERAL, 0) for row in rows)
        assert len(kb) == 3
        assert [t.key() for t in kb.triples] == [("a", "p", "o"), ("b", "p", "o"), ("c", "p", "o")]

    def test_contains_and_subjects(self):
        kb = build_fixture_kb()
        keys = {t.key() for t in kb.triples}
        assert ("Hammurabi", "instanceOf", "King") in keys
        assert ("Hammurabi", "instanceOf", "Queen") not in keys
        assert "Tiamat" in {t.subject for t in kb.triples}


class TestDeriveCategories:
    def test_empty_kb_all_empty(self):
        cats = derive_categories(KnowledgeBase())
        assert all(len(v) == 0 for v in cats.values())

    def test_fixture_hand_counts(self, fixture_kb):
        cats = derive_categories(fixture_kb)
        assert len(cats[StructuralCategory.NAMED_ENTITIES]) == 10
        assert cats[StructuralCategory.LITERALS] == {"1792 BC", "Title", "the primordial sea"}
        assert len(cats[StructuralCategory.PREDICATES]) == 8
        assert cats[StructuralCategory.CLASSES] == {"King", "City", "Deity", "Title", "Region"}
        assert cats[StructuralCategory.TRIPLES] == {TRIPLE_SEP.join(row[:3]) for row in FIXTURE_ROWS}
        assert len(cats[StructuralCategory.TRIPLES]) == 12

    def test_single_instance_of_gives_one_class(self):
        kb = KnowledgeBase([make_triple("a", "instanceOf", "b", TermKind.NAMED_ENTITY, 0)])
        cats = derive_categories(kb)
        assert cats[StructuralCategory.CLASSES] == {"b"}


class TestConfigs:
    def test_caps_validate(self):
        with pytest.raises(ValueError):
            Caps(max_layers=0).validate()
        Caps().validate()

    def test_run_config_validate(self):
        cfg = RunConfig(topic="babylon", seed_entity="Hammurabi")
        cfg.validate()
        with pytest.raises(ValueError):
            RunConfig(topic="babylon", seed_entity="   ").validate()
        with pytest.raises(ValueError):
            RunConfig(topic="babylon", seed_entity="x", temperature=3.0).validate()

    def test_config_dict_round_trip(self):
        cfg = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            temperature=0.5,
            caps=Caps(max_layers=7),
        )
        clone = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg


class TestPersistence:
    def _record(self, kb):
        return RunRecord(
            run_id="run-test",
            config=RunConfig(topic="babylon", seed_entity="Hammurabi"),
            kb=kb,
            termination=Termination.ORGANIC,
            wall_seconds=0.25,
            deepest_layer=3,
            started_at="2024-01-01T00:00:00+00:00",
            finished_at="2024-01-01T00:00:01+00:00",
            visited_count=7,
        )

    def test_save_and_load_round_trip(self, tmp_path, fixture_kb):
        record = self._record(fixture_kb)
        save_run(record, tmp_path / "run")
        loaded = load_run(tmp_path / "run")
        assert loaded.run_id == "run-test"
        assert loaded.termination is Termination.ORGANIC
        assert loaded.deepest_layer == 3
        assert loaded.visited_count == 7
        assert [t.key() for t in loaded.kb.triples] == [t.key() for t in fixture_kb.triples]
        assert [t.object_kind for t in loaded.kb.triples] == [
            t.object_kind for t in fixture_kb.triples
        ]

    def test_triples_file_has_no_timestamps(self, tmp_path, fixture_kb):
        save_run(self._record(fixture_kb), tmp_path / "run")
        rows = (tmp_path / "run" / "triples.ndjson").read_text(encoding="utf-8")
        for line in rows.splitlines():
            assert set(json.loads(line)) == {"s", "p", "o", "o_kind", "layer"}

    def test_triples_file_layout_is_unchanged(self, tmp_path):
        kb = KnowledgeBase([
            make_triple("Nabû", "instanceOf", "God", TermKind.NAMED_ENTITY, 0),
            make_triple("Nabû", "symbol", "stylus", TermKind.LITERAL, 1),
        ])
        save_run(self._record(kb), tmp_path / "run")
        assert (tmp_path / "run" / "triples.ndjson").read_bytes() == (
            '{"s": "Nabû", "p": "instanceOf", "o": "God", "o_kind": "ne", "layer": 0}\n'
            '{"s": "Nabû", "p": "symbol", "o": "stylus", "o_kind": "lit", "layer": 1}\n'
        ).encode("utf-8")

    def test_load_triples_preserves_order(self, tmp_path, fixture_kb):
        save_run(self._record(fixture_kb), tmp_path / "run")
        triples = load_triples(tmp_path / "run" / "triples.ndjson")
        assert [t.key() for t in triples] == [t.key() for t in fixture_kb.triples]

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        def chunks():
            yield "first line\n"
            raise RuntimeError("write failed")

        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            write_atomic(path, chunks())
        assert list(tmp_path.iterdir()) == []
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            write_atomic(path, chunks())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_write_atomic_creates_the_parent_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_atomic(path, ["x\n"])
        assert path.read_text(encoding="utf-8") == "x\n"

    def test_load_suite_reads_the_runs_save_suite_lists_as_done(self, tmp_path, fixture_kb):
        run_ids = ["run-000", "run-001", "run-002"]
        for run_id in run_ids:
            save_run(dataclasses.replace(self._record(fixture_kb), run_id=run_id), tmp_path / run_id)
        save_suite(tmp_path, "seed", run_ids[::-1], {"run-001": "boom"}, "2024-01-01T00:00:00+00:00")
        manifest = json.loads((tmp_path / "suite.json").read_text(encoding="utf-8"))
        assert list(manifest) == ["dimension", "run_ids", "failed", "started_at", "finished_at"]
        runs = load_suite(tmp_path)
        assert [run.run_id for run in runs] == ["run-002", "run-000"]
        assert [t.key() for t in runs[0].kb.triples] == [t.key() for t in fixture_kb.triples]

    @pytest.mark.parametrize("damaged, named", [
        ("suite.json", "suite manifest {}/suite.json is damaged: "),
        ("run-000/manifest.json", "run {}/run-000 is damaged: "),
    ])
    def test_load_suite_names_a_damaged_file(self, tmp_path, fixture_kb, damaged, named):
        save_run(self._record(fixture_kb), tmp_path / "run-000")
        save_suite(tmp_path, "base", ["run-000"], {}, "")
        (tmp_path / damaged).write_text("{", encoding="utf-8")
        with pytest.raises(InputError) as caught:
            load_suite(tmp_path)
        assert str(caught.value).startswith(named.format(tmp_path))

    def test_save_that_fails_midway_keeps_the_previous_run(self, tmp_path, fixture_kb, monkeypatch):
        record = self._record(fixture_kb)
        run_dir = tmp_path / "run"
        save_run(record, run_dir)
        saved = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        # Encoding the last label fails, after every other line is written.
        labels_left = [3 * len(fixture_kb)]

        def encode(label):
            labels_left[0] -= 1
            if not labels_left[0]:
                raise OSError("disk full")
            return model.encode_basestring(label)

        monkeypatch.setattr(model, "encode_basestring", encode)
        with pytest.raises(OSError):
            save_run(record, tmp_path / "fresh")
        assert labels_left == [0]
        assert list((tmp_path / "fresh").iterdir()) == []
        labels_left[0] = 3 * len(fixture_kb)
        with pytest.raises(OSError):
            save_run(record, run_dir)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == saved

    def test_loaded_run_shares_equal_labels(self, tmp_path, fixture_kb):
        save_run(self._record(fixture_kb), tmp_path / "run")
        objects = label_objects([load_run(tmp_path / "run").kb])
        assert {label: len(ids) for label, ids in objects.items() if len(ids) > 1} == {}

    def test_loaded_labels_are_freed_with_the_run(self, tmp_path):
        # Long labels, so that ~2 MB is held while the run is loaded.
        kb = KnowledgeBase(
            Triple(f"subject {i} " + "s" * 2000, "p", f"object {i} " + "o" * 2000, TermKind.LITERAL, 0)
            for i in range(400)
        )
        run_dir = tmp_path / "run"
        save_run(self._record(kb), run_dir)
        # The first load of these labels is dropped at once: nothing that
        # outlives a run (a table shared between loads) may keep them.
        _, left = held_bytes(lambda: load_run(run_dir).run_id)
        loaded, held = held_bytes(lambda: load_run(run_dir))
        label = loaded.kb.triples[0].subject
        # Not interned: CPython 3.12 never frees an interned string.
        assert sys.intern("".join(label)) is not label
        assert held > 1_500_000
        assert left < 50_000

    # Set on CPython 3.11, where a loaded run measures 104 B per triple at
    # 5.5k triples and 87 B at 20k; with a dedupe index kept per KB it
    # measured 164 and 119 B, and with an (s, p, o) tuple kept per triple
    # 269 and 258 B.
    @pytest.mark.parametrize("size, budget", [(5500, 130), (20_000, 105)])
    def test_loaded_run_fits_its_byte_budget(self, tmp_path, size, budget):
        save_run(self._record(synthetic_kb(size)), tmp_path / "run")
        loaded, used = held_bytes(lambda: load_run(tmp_path / "run"))
        assert len(loaded.kb) == size
        assert used / len(loaded.kb) < budget


class TestNdjsonStore:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('\n{"a": 1}\n\n   \n{"a": 2}\n\n', encoding="utf-8")
        assert list(read_ndjson(path)) == [{"a": 1}, {"a": 2}]

    def test_non_ascii_round_trips_unescaped(self, tmp_path):
        store = NdjsonStore(tmp_path / "sub" / "s.ndjson")
        entry = {"text": "Nabû-kudurri-uṣur ␟ 巴比伦"}
        store.append([entry])
        raw = store.path.read_text(encoding="utf-8")
        assert raw == '{"text": "Nabû-kudurri-uṣur ␟ 巴比伦"}\n'
        assert list(NdjsonStore(store.path).entries()) == [entry]

    def test_concurrent_appends_stay_whole_lines(self, tmp_path):
        store = NdjsonStore(tmp_path / "s.ndjson")
        filler = "x" * 2000
        errors = []

        def worker(thread):
            try:
                for i in range(50):
                    store.append([{"thread": thread, "i": i, "pad": filler}])
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        lines = store.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 400
        seen = {(e["thread"], e["i"]) for e in map(json.loads, lines)}
        assert seen == {(t, i) for t in range(8) for i in range(50)}

    @staticmethod
    def _spy_writes(monkeypatch, short=False):
        """Record the size of each store write; with ``short``, let each
        write take half of what it is given, as a pipe or a full disk may."""
        write = model.os.write
        sizes = []

        def spy(fd, data):
            if b'"i"' in bytes(data):
                sizes.append(len(data))
                if short:
                    data = data[: max(1, len(data) // 2)]
            return write(fd, data)

        monkeypatch.setattr(model.os, "write", spy)
        return sizes

    def test_an_append_writes_once_per_256_lines(self, tmp_path, monkeypatch):
        store = NdjsonStore(tmp_path / "s.ndjson")
        sizes = self._spy_writes(monkeypatch)
        store.append([{"i": -1}])
        assert len(sizes) == 1
        store.append({"i": i} for i in range(600))
        assert len(sizes) == 4
        monkeypatch.undo()
        assert [e["i"] for e in store.entries()] == list(range(-1, 600))

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        store = NdjsonStore(tmp_path / "s.ndjson")
        sizes = self._spy_writes(monkeypatch, short=True)
        store.append({"i": i, "text": "Nabû"} for i in range(300))
        monkeypatch.undo()
        assert len(sizes) > 2
        assert [e["i"] for e in store.entries()] == list(range(300))


# Characters JSON must escape, characters it leaves raw that other line
# splitters treat as line ends, and non-ASCII text of several widths.
_AWKWARD = [
    '"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\x85",
    "\x0b", "\x0c", "␟", "巴比伦", "Nabû", "\U0001F3DB", "\U0001F600", " ", "/", "a", "Z9",
]


def _awkward_triples(seed, count=200, size=50):
    rng = random.Random(seed)

    def label():
        return "".join(rng.choice(_AWKWARD) for _ in range(rng.randint(1, size)))

    return [
        Triple(label(), label(), label(), rng.choice(list(TermKind)), rng.randrange(40))
        for _ in range(count)
    ]


class TestTripleCodec:
    def test_lines_equal_json_dumps(self, tmp_path):
        triples = _awkward_triples(seed=11)
        write_triples(tmp_path / "t.ndjson", triples)
        expected = "".join(
            json.dumps(
                {"s": t.subject, "p": t.predicate, "o": t.object,
                 "o_kind": t.object_kind.value, "layer": t.layer},
                ensure_ascii=False,
            ) + "\n"
            for t in triples
        )
        assert (tmp_path / "t.ndjson").read_bytes() == expected.encode("utf-8")

    def test_awkward_labels_round_trip(self, tmp_path):
        kb = KnowledgeBase(_awkward_triples(seed=12))
        record = TestPersistence()._record(kb)
        save_run(record, tmp_path / "run")
        loaded = load_run(tmp_path / "run")
        assert [(t.key(), t.object_kind, t.layer) for t in loaded.kb.triples] == [
            (t.key(), t.object_kind, t.layer) for t in kb.triples
        ]
        assert loaded.run_id == "run-test"

    def test_loaded_duplicates_collapse(self, tmp_path):
        path = tmp_path / "triples.ndjson"
        first = Triple("s", "p", "o", TermKind.LITERAL, 0)
        write_triples(path, [first, Triple("s", "p", "o", TermKind.NAMED_ENTITY, 2)])
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {"run_id": "r", "config": RunConfig(topic="t", seed_entity="s").to_dict(),
                 "termination": "organic", "wall_seconds": 0, "deepest_layer": 0,
                 "per_layer_counts": [], "degeneracy_events": []}
            ),
            encoding="utf-8",
        )
        assert [(t.key(), t.layer) for t in load_run(tmp_path).kb.triples] == [(first.key(), 0)]

    @pytest.mark.parametrize(
        "line",
        [
            '{"s": 5, "p": "p", "o": "o", "o_kind": "ne", "layer": 0}',
            '{"s": "s", "p": "p", "o": null, "o_kind": "ne", "layer": 0}',
            '{"s": "s", "p": "p", "o": "o", "o_kind": null, "layer": 0}',
            '{"s": "s", "p": "p", "o": "o", "o_kind": "ne", "layer": 3.7}',
            '{"s": "s", "p": "p", "o": "o", "o_kind": "ne", "layer": true}',
            '{"s": "s", "p": "p", "o": "o", "o_kind": "ne", "layer": "1"}',
            '{"s": "s", "p": "p", "o": "o", "o_kind": "ne", "layer": -1}',
            '{"s": "s", "p": ["p"], "o": "o", "o_kind": "ne", "layer": 0}',
            '{"s": "s", "p": "p", "o": {"o": 1}, "o_kind": "ne", "layer": 0}',
            '{"s": "s", "p": "p", "o": "o", "o_kind": ["ne"], "layer": 0}',
            '{"s": "s", "p": "p", "o_kind": "ne", "layer": 0}',
            '["s", "p", "o", "ne", 0]',
        ],
        ids=["int-subject", "null-object", "null-kind", "float-layer", "bool-layer", "text-layer",
             "negative-layer", "array-predicate", "object-object", "array-kind", "missing-object",
             "array-line"],
    )
    def test_damaged_line_is_rejected(self, tmp_path, line):
        path = tmp_path / "t.ndjson"
        good = '{"s": "s", "p": "p", "o": "o", "o_kind": "ne", "layer": 0}\n'
        path.write_text(good + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_triples(path)

    @pytest.mark.parametrize("field", ["s", "p", "o"])
    def test_label_that_is_not_unicode_is_rejected_naming_the_file(self, tmp_path, field):
        # json.dumps writes the lone surrogate as the escape "\\udc80".
        line = {"s": "Ur", "p": "p", "o": "o", "o_kind": "ne", "layer": 0}
        line[field] += "\udc80"
        path = tmp_path / "t.ndjson"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not Unicode") as err:
            load_triples(path)
        assert str(path) in str(err.value)

    def test_label_that_is_not_unicode_is_rejected_in_a_shared_table(self, tmp_path):
        good, bad = tmp_path / "good.ndjson", tmp_path / "bad.ndjson"
        good.write_text('{"s": "Ur", "p": "p", "o": "o", "o_kind": "ne", "layer": 0}\n', encoding="utf-8")
        bad.write_text('{"s": "Ur", "p": "p", "o": "\\udc80x", "o_kind": "lit", "layer": 0}\n', encoding="utf-8")
        labels = model.LabelTable()
        load_triples(good, labels)
        with pytest.raises(ValueError, match="bad.ndjson"):
            load_triples(bad, labels)

    def test_escaped_text_that_is_unicode_loads(self, tmp_path):
        path = tmp_path / "t.ndjson"
        # A surrogate pair, a control character and non-ASCII text, all escaped.
        path.write_text(
            '{"s": "\\ud83d\\ude00", "p": "p\\u0001", "o": "\\u00e9", "o_kind": "lit", "layer": 0}\n',
            encoding="utf-8",
        )
        assert [t.key() for t in load_triples(path)] == [("\U0001F600", "p\x01", "\u00e9")]

    def test_is_unicode(self):
        assert model.is_unicode("Babylon") and model.is_unicode("Vavilon \u0412\U0001F600")
        assert not model.is_unicode("Ur\udc80") and not model.is_unicode("\ud83d")

    def test_validation_still_runs(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"s": "", "p": "p", "o": "o", "o_kind": "ne", "layer": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_triples(path)
        path.write_text('{"s": "s", "p": "p", "o": "o", "o_kind": "x", "layer": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_triples(path)

    def test_triple_is_slotted_and_frozen(self):
        t = Triple("s", "p", "o", TermKind.LITERAL, 0)
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.layer = 1

    @pytest.mark.parametrize(
        "bad",
        [
            '{"a": 1} {"a": 2}\n',
            '{"a": 1}{"a": 2}\n',
            '{"a": 1}\n{"a": 2, "b": \n',
            '{"a": "cut\n',
        ],
    )
    def test_reader_rejects_extra_or_truncated_lines(self, tmp_path, bad):
        path = tmp_path / "s.ndjson"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            list(read_ndjson(path))

    def test_reader_splits_on_line_feed_only(self, tmp_path):
        path = tmp_path / "s.ndjson"
        entries = [{"a": "x\u2028y"}, {"a": "\x85\u2029"}, {"a": "\x0b\x0c\x1c"}]
        path.write_text(
            "\n   \n" + "\n\n".join(json.dumps(e, ensure_ascii=False) for e in entries) + "\n\n",
            encoding="utf-8",
        )
        assert list(read_ndjson(path)) == entries
