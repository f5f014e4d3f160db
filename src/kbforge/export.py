"""Release-format serializers for a knowledge base.

Four formats: RFC-4180 CSV, a portable SQL dump, Turtle with minted IRIs,
and a directory of interlinked HTML pages. All output is sorted, so equal
KBs always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import html
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable
from urllib.parse import quote

from .model import INSTANCE_OF, KnowledgeBase, StructuralCategory, TermKind, Triple, derive_categories

CSV_HEADER = ["subject", "predicate", "object", "object_kind", "layer"]

_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")


@dataclass(frozen=True)
class IriPolicy:
    """How entity and predicate labels become IRIs.

    Labels are percent-encoded with no safe characters, which keeps minting
    injective: distinct labels always yield distinct IRIs.
    """

    base_namespace: str = "https://kbforge.invalid/resource/"

    def validate(self) -> None:
        if not _SCHEME.match(self.base_namespace):
            raise ValueError("base_namespace must be an absolute IRI")
        if not self.base_namespace.endswith(("/", "#")):
            raise ValueError("base_namespace must end with '/' or '#'")

    def mint(self, label: str) -> str:
        return self.base_namespace + quote(label, safe="")


def _sorted_triples(kb: KnowledgeBase) -> list[Triple]:
    return sorted(kb.triples, key=lambda t: t.key())


def to_csv(kb: KnowledgeBase, path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for t in _sorted_triples(kb):
            writer.writerow([t.subject, t.predicate, t.object, t.object_kind.value, t.layer])
    return path


def read_csv(path: Path) -> KnowledgeBase:
    """Inverse of to_csv over (s, p, o, kind, layer).

    Public so that a CSV export can be checked by reading it back: the
    round trip is how exports are verified to keep every fact.
    """
    kb = KnowledgeBase()
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            if len(row) != 5:
                raise ValueError(f"malformed CSV row {row!r}")
            s, p, o, kind, layer = row
            kb.add(
                Triple(
                    subject=s,
                    predicate=p,
                    object=o,
                    object_kind=TermKind.from_code(kind),
                    layer=int(layer),
                )
            )
    return kb


def _sql_quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def to_sql_dump(kb: KnowledgeBase, path: Path) -> Path:
    """Portable SQL script: an entities table plus a triples table.

    A label that occurs both as a named entity and as a literal object is
    recorded once with kind 'ne'.
    """
    categories = derive_categories(kb)
    entity_labels = categories[StructuralCategory.NAMED_ENTITIES]
    literal_labels = categories[StructuralCategory.LITERALS] - entity_labels

    lines = [
        "BEGIN TRANSACTION;",
        "CREATE TABLE entities (label TEXT PRIMARY KEY, kind TEXT NOT NULL);",
        "CREATE TABLE triples (subject TEXT NOT NULL, predicate TEXT NOT NULL, "
        "object TEXT NOT NULL, object_kind TEXT NOT NULL, layer INTEGER NOT NULL);",
    ]
    labeled = [(label, "ne") for label in entity_labels]
    labeled += [(label, "lit") for label in literal_labels]
    for label, kind in sorted(labeled):
        lines.append(f"INSERT INTO entities VALUES ({_sql_quote(label)}, '{kind}');")
    for t in _sorted_triples(kb):
        lines.append(
            "INSERT INTO triples VALUES ("
            f"{_sql_quote(t.subject)}, {_sql_quote(t.predicate)}, {_sql_quote(t.object)}, "
            f"'{t.object_kind.value}', {t.layer});"
        )
    lines.append("COMMIT;")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _turtle_literal(value: str) -> str:
    out = []
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def to_turtle(kb: KnowledgeBase, policy: IriPolicy, path: Path) -> Path:
    """One statement per line, full IRIs, instanceOf rendered as `a`."""
    policy.validate()
    lines = []
    for t in _sorted_triples(kb):
        subject = f"<{policy.mint(t.subject)}>"
        if t.predicate == INSTANCE_OF:
            predicate = "a"
        else:
            predicate = f"<{policy.mint(t.predicate)}>"
        if t.object_kind is TermKind.NAMED_ENTITY:
            obj = f"<{policy.mint(t.object)}>"
        else:
            obj = _turtle_literal(t.object)
        lines.append(f"{subject} {predicate} {obj} .")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines)
    path.write_text(text + "\n" if text else "", encoding="utf-8")
    return path


_SLUG_KEEP = re.compile(r"[^A-Za-z0-9._-]")


def _page_names(labels: Iterable[str]) -> dict[str, str]:
    """Injective label -> file name map; collisions get a hash suffix."""
    names: dict[str, str] = {}
    taken_fold = {"index.html"}
    for label in sorted(labels):
        slug = _SLUG_KEEP.sub("_", label).strip("._") or "entity"
        candidate = f"{slug}.html"
        if candidate.lower() in taken_fold:
            digest = hashlib.sha1(label.encode("utf-8")).hexdigest()[:8]
            candidate = f"{slug}-{digest}.html"
        names[label] = candidate
        taken_fold.add(candidate.lower())
    return names


def _render_page(label: str, facts: list[Triple], names: dict[str, str]) -> str:
    title = html.escape(label)
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        f'<head><meta charset="utf-8"><title>{title}</title></head>',
        "<body>",
        f"<h1>{title}</h1>",
        '<p><a href="index.html">All entities</a></p>',
    ]
    if facts:
        parts.append("<table>")
        parts.append("<tr><th>predicate</th><th>object</th></tr>")
        for t in facts:
            predicate = html.escape(t.predicate)
            if t.object_kind is TermKind.NAMED_ENTITY and t.object in names:
                target = html.escape(names[t.object], quote=True)
                obj = f'<a href="{target}">{html.escape(t.object)}</a>'
            else:
                obj = html.escape(t.object)
            parts.append(f"<tr><td>{predicate}</td><td>{obj}</td></tr>")
        parts.append("</table>")
    else:
        parts.append("<p>no facts</p>")
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"


def to_html(kb: KnowledgeBase, out_dir: Path) -> Path:
    """One page per named entity plus an alphabetical index.

    Named-entity objects link to their pages, including entities that never
    occur in subject position (those get a "no facts" page).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entities = derive_categories(kb)[StructuralCategory.NAMED_ENTITIES]
    names = _page_names(entities)

    facts_by_subject: dict[str, list[Triple]] = {label: [] for label in entities}
    for t in _sorted_triples(kb):
        facts_by_subject.setdefault(t.subject, []).append(t)

    for label in sorted(entities):
        page = _render_page(label, facts_by_subject[label], names)
        (out_dir / names[label]).write_text(page, encoding="utf-8")

    items = [
        f'<li><a href="{html.escape(names[label], quote=True)}">{html.escape(label)}</a></li>'
        for label in sorted(entities)
    ]
    index = "\n".join(
        [
            "<!DOCTYPE html>",
            '<html lang="en">',
            '<head><meta charset="utf-8"><title>Entities</title></head>',
            "<body>",
            "<h1>Entities</h1>",
            "<ul>",
            *items,
            "</ul>",
            "</body>",
            "</html>",
        ]
    )
    (out_dir / "index.html").write_text(index + "\n", encoding="utf-8")
    return out_dir


EXPORTERS = ("csv", "sql", "ttl", "html")


def export_kb(
    kb: KnowledgeBase,
    out_dir: Path,
    formats: Iterable[str],
    policy: IriPolicy | None = None,
) -> list[Path]:
    """Emit the selected formats into out_dir; returns the paths written."""
    policy = policy or IriPolicy()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for fmt in formats:
        if fmt == "csv":
            written.append(to_csv(kb, out_dir / "kb.csv"))
        elif fmt == "sql":
            written.append(to_sql_dump(kb, out_dir / "kb.sql"))
        elif fmt == "ttl":
            written.append(to_turtle(kb, policy, out_dir / "kb.ttl"))
        elif fmt == "html":
            written.append(to_html(kb, out_dir / "html"))
        else:
            raise ValueError(f"unknown export format {fmt!r}")
    return written
