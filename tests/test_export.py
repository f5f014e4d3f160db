import sqlite3
from html.parser import HTMLParser

import pytest

from kbforge import export
from kbforge.export import (
    EXPORTERS,
    IriPolicy,
    _turtle_literal,
    export_kb,
    read_csv,
    to_csv,
    to_html,
    to_sql_dump,
    to_turtle,
)
from kbforge.model import KnowledgeBase, TermKind, Triple, make_triple

from oracles import turtle_literal_loop
from turtle_check import A_PREDICATE, TurtleSyntaxError, parse_turtle

NE = TermKind.NAMED_ENTITY
LIT = TermKind.LITERAL


def _kb(rows):
    return KnowledgeBase(make_triple(*row) for row in rows)


def _tricky_kb():
    rows = [
        ("Kudur-Mabuk's Stele", "foundIn", "Ur, \"the old\" city", LIT, 1),
        ("Esagila", "dedicatedTo", "Marduk", NE, 2),
        ("Marduk", "instanceOf", "Deity", NE, 3),
    ]
    # Crawled labels are whitespace-normalized, but the exporters must
    # survive raw control characters arriving through other paths.
    return KnowledgeBase(
        [*(make_triple(*row) for row in rows), Triple("Esagila", "note", "line one\nline two", LIT, 2)]
    )


class TestCsv:
    def test_round_trip(self, fixture_kb, tmp_path):
        path = to_csv(fixture_kb, tmp_path / "kb.csv")
        loaded = read_csv(path)
        want = sorted(
            (t.key(), t.object_kind, t.layer) for t in fixture_kb.triples
        )
        got = [(t.key(), t.object_kind, t.layer) for t in loaded.triples]
        assert got == want

    def test_quoting_round_trip(self, tmp_path):
        kb = _tricky_kb()
        loaded = read_csv(to_csv(kb, tmp_path / "kb.csv"))
        assert {t.key() for t in loaded.triples} == {t.key() for t in kb.triples}

    def test_uses_crlf_line_endings(self, fixture_kb, tmp_path):
        raw = to_csv(fixture_kb, tmp_path / "kb.csv").read_bytes()
        assert raw.count(b"\r\n") == len(fixture_kb) + 1

    def test_empty_kb_is_header_only(self, tmp_path):
        path = to_csv(KnowledgeBase(), tmp_path / "kb.csv")
        assert path.read_bytes() == b"subject,predicate,object,object_kind,layer\r\n"

    def test_read_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\r\n1,2,3\r\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(bad)


class TestSqlDump:
    def _load(self, kb, tmp_path):
        script = to_sql_dump(kb, tmp_path / "kb.sql").read_text(encoding="utf-8")
        conn = sqlite3.connect(":memory:")
        conn.executescript(script)
        return conn

    def test_counts_survive_loading(self, fixture_kb, tmp_path):
        conn = self._load(fixture_kb, tmp_path)
        (triples,) = conn.execute("SELECT COUNT(*) FROM triples").fetchone()
        assert triples == len(fixture_kb)
        (entities,) = conn.execute(
            "SELECT COUNT(*) FROM entities WHERE kind = 'ne'"
        ).fetchone()
        assert entities == 10

    def test_quotes_are_escaped(self, tmp_path):
        conn = self._load(_tricky_kb(), tmp_path)
        row = conn.execute(
            "SELECT object FROM triples WHERE subject = ?", ("Kudur-Mabuk's Stele",)
        ).fetchone()
        assert row == ('Ur, "the old" city',)

    def test_dual_role_label_recorded_once_as_entity(self, tmp_path):
        kb = _kb(
            [
                ("X", "caption", "Dual", LIT, 0),
                ("Dual", "partOf", "Y", NE, 1),
            ]
        )
        conn = self._load(kb, tmp_path)
        rows = conn.execute(
            "SELECT kind FROM entities WHERE label = 'Dual'"
        ).fetchall()
        assert rows == [("ne",)]

    def test_pure_literals_listed_as_lit(self, tmp_path):
        conn = self._load(_tricky_kb(), tmp_path)
        rows = dict(conn.execute("SELECT label, kind FROM entities").fetchall())
        assert rows["line one\nline two"] == "lit"
        assert rows["Marduk"] == "ne"


class TestTurtle:
    def test_statement_count_preserved(self, fixture_kb, tmp_path):
        path = to_turtle(fixture_kb, IriPolicy(), tmp_path / "kb.ttl")
        statements = parse_turtle(path.read_text(encoding="utf-8"))
        assert len(statements) == len(fixture_kb)

    def test_instance_of_becomes_rdf_type(self, tmp_path):
        kb = _kb([("Marduk", "instanceOf", "Deity", NE, 0)])
        path = to_turtle(kb, IriPolicy(), tmp_path / "kb.ttl")
        ((subject, predicate, obj),) = parse_turtle(path.read_text(encoding="utf-8"))
        assert predicate == A_PREDICATE
        assert subject.endswith("/Marduk")
        assert obj == ("iri", "https://kbforge.invalid/resource/Deity")

    def test_labels_percent_encode_reserved_characters(self, tmp_path):
        kb = _kb([("Code of Hammurabi", "keptIn", "Louvre/Paris", NE, 0)])
        path = to_turtle(kb, IriPolicy(), tmp_path / "kb.ttl")
        text = path.read_text(encoding="utf-8")
        assert "<https://kbforge.invalid/resource/Code%20of%20Hammurabi>" in text
        assert "<https://kbforge.invalid/resource/Louvre%2FParis>" in text
        ((_, _, obj),) = parse_turtle(text)
        assert obj[0] == "iri"

    def test_literals_escape_cleanly(self, tmp_path):
        kb = _tricky_kb()
        path = to_turtle(kb, IriPolicy(), tmp_path / "kb.ttl")
        statements = parse_turtle(path.read_text(encoding="utf-8"))
        literals = {value for _, _, (kind, value) in statements if kind == "lit"}
        assert 'Ur, "the old" city' in literals
        assert "line one\nline two" in literals

    def test_literal_escapes_equal_the_character_loop(self):
        ascii_chars = [chr(code) for code in range(0x80)]
        texts = ascii_chars + ["".join(ascii_chars), "", "Nabû\u2028巴比伦\x85\U0001F3DB\"\\\n", "\u00a0\ufeff"]
        for text in texts:
            assert _turtle_literal(text) == turtle_literal_loop(text), repr(text)

    def test_empty_kb_writes_empty_file(self, tmp_path):
        path = to_turtle(KnowledgeBase(), IriPolicy(), tmp_path / "kb.ttl")
        assert path.read_text(encoding="utf-8") == ""
        assert parse_turtle("") == []

    def test_bad_namespace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            to_turtle(KnowledgeBase(), IriPolicy(base_namespace="no-scheme/"), tmp_path / "x.ttl")
        with pytest.raises(ValueError):
            to_turtle(
                KnowledgeBase(),
                IriPolicy(base_namespace="https://kb.example/resource"),
                tmp_path / "x.ttl",
            )

    def test_parser_rejects_mangled_output(self):
        with pytest.raises(TurtleSyntaxError):
            parse_turtle("<http://a> <http://b> .")


class _HrefCollector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.hrefs = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            self.hrefs.extend(value for name, value in attrs if name == "href")


def _hrefs(path):
    collector = _HrefCollector()
    collector.feed(path.read_text(encoding="utf-8"))
    return collector.hrefs


class TestHtml:
    def test_page_per_entity_plus_index(self, fixture_kb, tmp_path):
        out = to_html(fixture_kb, tmp_path / "html")
        pages = sorted(p.name for p in out.glob("*.html"))
        assert "index.html" in pages
        assert len(pages) == 10 + 1

    def test_every_href_resolves(self, fixture_kb, tmp_path):
        out = to_html(fixture_kb, tmp_path / "html")
        for page in out.glob("*.html"):
            for href in _hrefs(page):
                assert (out / href).is_file(), f"{page.name} links to missing {href}"

    def test_leaf_entity_gets_no_facts_page(self, tmp_path):
        kb = _kb([("Esagila", "dedicatedTo", "Marduk", NE, 0)])
        out = to_html(kb, tmp_path / "html")
        marduk = (out / "Marduk.html").read_text(encoding="utf-8")
        assert "no facts" in marduk

    def test_index_lists_entities_alphabetically(self, tmp_path):
        kb = _kb(
            [
                ("Zeta", "rel", "Alpha", NE, 0),
                ("Alpha", "rel", "Mid", NE, 1),
            ]
        )
        out = to_html(kb, tmp_path / "html")
        index = (out / "index.html").read_text(encoding="utf-8")
        assert index.index(">Alpha<") < index.index(">Mid<") < index.index(">Zeta<")

    def test_colliding_slugs_get_distinct_pages(self, tmp_path):
        kb = _kb(
            [
                ("A/B", "rel", "x", LIT, 0),
                ("A_B", "rel", "y", LIT, 0),
            ]
        )
        out = to_html(kb, tmp_path / "html")
        pages = {p.name for p in out.glob("*.html")} - {"index.html"}
        assert len(pages) == 2
        hrefs = set(_hrefs(out / "index.html"))
        assert hrefs == pages

    def test_label_index_is_reserved(self, tmp_path):
        kb = _kb([("index", "rel", "x", LIT, 0)])
        out = to_html(kb, tmp_path / "html")
        pages = {p.name for p in out.glob("*.html")}
        assert "index.html" in pages
        assert len(pages) == 2
        index_text = (out / "index.html").read_text(encoding="utf-8")
        assert "<ul>" in index_text

    def test_entity_links_point_at_entity_pages(self, tmp_path):
        kb = _kb([("Esagila", "dedicatedTo", "Marduk", NE, 0)])
        out = to_html(kb, tmp_path / "html")
        esagila = out / "Esagila.html"
        assert "Marduk.html" in _hrefs(esagila)


class TestExportKb:
    def test_all_formats_at_once(self, fixture_kb, tmp_path):
        written = export_kb(fixture_kb, tmp_path, EXPORTERS)
        names = [p.name for p in written]
        assert names == ["kb.csv", "kb.sql", "kb.ttl", "html"]
        assert (tmp_path / "html" / "index.html").is_file()

    def test_unknown_format_rejected(self, fixture_kb, tmp_path):
        with pytest.raises(ValueError):
            export_kb(fixture_kb, tmp_path, ["csv", "xlsx"])

    def test_reruns_are_byte_identical(self, fixture_kb, tmp_path):
        export_kb(fixture_kb, tmp_path / "one", ["csv", "sql", "ttl"])
        export_kb(fixture_kb, tmp_path / "two", ["csv", "sql", "ttl"])
        for name in ("kb.csv", "kb.sql", "kb.ttl"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


class TestFailedWrites:
    """A write that fails partway leaves the previous file whole and no ``.tmp``."""

    @staticmethod
    def _previous(kb, tmp_path, fmt):
        (path,) = export_kb(kb, tmp_path, [fmt])
        return path, path.read_bytes()

    @staticmethod
    def _assert_kept(tmp_path, path, before):
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_csv(self, fixture_kb, tmp_path, request):
        path, before = self._previous(fixture_kb, tmp_path, "csv")
        request.getfixturevalue("failing_csv_writer")
        with pytest.raises(OSError, match="disk full"):
            to_csv(fixture_kb, path)
        self._assert_kept(tmp_path, path, before)

    # The formatter fails on its third call, after some lines are written:
    # it raises, or returns a lone surrogate, which UTF-8 cannot encode.
    @pytest.mark.parametrize("failure", ["raises", "unencodable"])
    @pytest.mark.parametrize("fmt, formatter", [("sql", "_sql_quote"), ("ttl", "_turtle_literal")])
    def test_sql_and_turtle(self, fixture_kb, tmp_path, monkeypatch, fmt, formatter, failure):
        path, before = self._previous(fixture_kb, tmp_path, fmt)
        real = getattr(export, formatter)
        calls = []

        def failing(value):
            calls.append(value)
            if len(calls) < 3:
                return real(value)
            if failure == "raises":
                raise OSError("disk full")
            return "\udc80"

        monkeypatch.setattr(export, formatter, failing)
        with pytest.raises((OSError, UnicodeEncodeError)):
            export_kb(fixture_kb, tmp_path, [fmt])
        self._assert_kept(tmp_path, path, before)
