"""Prompt templates for knowledge elicitation and NER classification.

English templates are built in; any other language is loaded from the
package's ``templates/{language}.json``, which holds
``{"elicitation": ..., "ner": ...}`` with a ``{topic}`` placeholder. No such
file ships yet. Known
short topic keys expand to their full topic phrase; any other topic string
is used verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path

TEMPLATE_DIR = Path(__file__).parent / "templates"

TOPIC_PHRASES = {
    "babylon": "ancient city of Babylon",
    "tbbt": "TV series The Big Bang Theory",
    "dax40": "DAX 40 Index",
}

ELICITATION_TEMPLATE_EN = (
    "I want to construct a knowledge graph on the topic of the {topic}. "
    "Given a subject entity, return all facts that you know for the subject "
    "as a list of (subject, predicate, object) triples. The number of facts "
    "may be very high, between 50 to 100 or more, for very popular subjects. "
    "For less popular subjects, the number of facts can be very low, like 5 "
    "or 10. Important:\n"
    "- If you don't know the subject, return an empty list.\n"
    "- If the subject is not a named entity, return an empty list.\n"
    "- If the subject does not belong to the topic of the {topic}, return an "
    "empty list.\n"
    '- If the subject is a named entity, include at least one triple where '
    'predicate is "instanceOf".\n'
    "- Do not get too wordy.\n"
    "- Separate several objects into multiple triples with one object."
)

NER_TEMPLATE_EN = (
    "I want you to perform named entity recognition (NER) on the topic of "
    "the {topic}. Your task is to classify if given phrases are "
    "topic-relevant named entities, or not (e.g., literals, dates, URLs, "
    "verbose phrases...). Each phrase is given to you in a line."
)


class MissingTemplateError(FileNotFoundError):
    """No prompt template file exists for the requested language."""


def topic_phrase(topic: str) -> str:
    return TOPIC_PHRASES.get(topic, topic)


def _load_language_templates(language: str) -> dict:
    path = TEMPLATE_DIR / f"{language}.json"
    if not path.exists():
        raise MissingTemplateError(f"no prompt template file for language {language!r}: {path}")
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in ("elicitation", "ner"):
        if key not in data:
            raise MissingTemplateError(f"template file {path} lacks {key!r} entry")
    return data


def render_elicitation_prompt(topic: str, language: str = "en") -> str:
    """Render the knowledge-elicitation instruction for a topic and language."""
    if not topic:
        raise ValueError("topic must be non-empty")
    phrase = topic_phrase(topic)
    if language == "en":
        return ELICITATION_TEMPLATE_EN.format(topic=phrase)
    return _load_language_templates(language)["elicitation"].format(topic=phrase)


def render_ner_prompt(topic: str, language: str = "en") -> str:
    """Render the NER classification instruction for a topic and language."""
    if not topic:
        raise ValueError("topic must be non-empty")
    phrase = topic_phrase(topic)
    if language == "en":
        return NER_TEMPLATE_EN.format(topic=phrase)
    return _load_language_templates(language)["ner"].format(topic=phrase)
