import json

import pytest

from kbforge import prompts
from kbforge.prompts import (
    MissingTemplateError,
    render_elicitation_prompt,
    render_ner_prompt,
    topic_phrase,
)


def test_topic_keys_expand_to_full_phrases():
    assert topic_phrase("babylon") == "ancient city of Babylon"
    assert topic_phrase("tbbt") == "TV series The Big Bang Theory"
    assert topic_phrase("dax40") == "DAX 40 Index"


def test_unknown_topic_used_verbatim():
    assert topic_phrase("quantum chemistry") == "quantum chemistry"
    prompt = render_elicitation_prompt("quantum chemistry")
    assert "topic of the quantum chemistry" in prompt


def test_elicitation_prompt_structure():
    prompt = render_elicitation_prompt("babylon")
    assert prompt.startswith(
        "I want to construct a knowledge graph on the topic of the ancient city of Babylon."
    )
    assert "between 50 to 100 or more" in prompt
    assert "If you don't know the subject, return an empty list." in prompt
    assert "If the subject is not a named entity, return an empty list." in prompt
    assert (
        "If the subject does not belong to the topic of the ancient city of Babylon, "
        "return an empty list." in prompt
    )
    assert 'include at least one triple where predicate is "instanceOf"' in prompt
    assert "Do not get too wordy." in prompt
    assert prompt.endswith("Separate several objects into multiple triples with one object.")


def test_ner_prompt_structure():
    prompt = render_ner_prompt("tbbt")
    assert prompt.startswith(
        "I want you to perform named entity recognition (NER) on the topic of the "
        "TV series The Big Bang Theory."
    )
    assert "topic-relevant named entities" in prompt
    assert "(e.g., literals, dates, URLs, verbose phrases...)" in prompt
    assert prompt.endswith("Each phrase is given to you in a line.")


def test_topic_slot_appears_in_both_rule_positions():
    # The elicitation prompt names the topic twice: in the opening sentence
    # and in the off-topic rejection rule.
    prompt = render_elicitation_prompt("dax40")
    assert prompt.count("DAX 40 Index") == 2


def test_empty_topic_rejected():
    with pytest.raises(ValueError):
        render_elicitation_prompt("")
    with pytest.raises(ValueError):
        render_ner_prompt("")


def test_language_templates_load_from_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(prompts, "TEMPLATE_DIR", tmp_path)
    (tmp_path / "de.json").write_text(
        json.dumps(
            {
                "elicitation": "Erstelle einen Wissensgraphen zum Thema {topic}.",
                "ner": "Erkenne Entitaeten zum Thema {topic}.",
            }
        ),
        encoding="utf-8",
    )
    prompt = render_elicitation_prompt("babylon", language="de")
    assert prompt == "Erstelle einen Wissensgraphen zum Thema ancient city of Babylon."
    ner = render_ner_prompt("babylon", language="de")
    assert "ancient city of Babylon" in ner


def test_missing_language_template_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(prompts, "TEMPLATE_DIR", tmp_path)
    with pytest.raises(MissingTemplateError):
        render_elicitation_prompt("babylon", language="fr")
    with pytest.raises(MissingTemplateError):
        render_ner_prompt("babylon", language="fr")


def test_incomplete_language_file_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(prompts, "TEMPLATE_DIR", tmp_path)
    (tmp_path / "es.json").write_text(json.dumps({"elicitation": "hola {topic}"}), encoding="utf-8")
    with pytest.raises(MissingTemplateError):
        render_ner_prompt("babylon", language="es")
