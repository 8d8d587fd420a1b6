"""Bad input fails with a UDRSError, never another exception.

Each reader gets arbitrary input and must either succeed or raise UDRSError;
the file readers also get arbitrary bytes, most of them not UTF-8.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from udrs import Lexicon, UDRSError, from_json, parse, tokenize
from udrs.cli import _read_corpus, build_session
from udrs.plurals import KnowledgeRules

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Text that can be written as UTF-8: no lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20)

NAMES = st.sampled_from(["l0", "l1", "l2", "x0", "x1"])
FIELD = NAMES | JSON
ARG = st.fixed_dictionaries({"ref": FIELD}) | st.fixed_dictionaries(
    {"pending": st.fixed_dictionaries({"max": FIELD, "min": FIELD})}) | JSON
COND = st.fixed_dictionaries({
    "type": st.sampled_from(["ref", "pred", "quant", "member", "other"]) | JSON,
    "label": FIELD,
}, optional={
    "dref": st.fixed_dictionaries({"id": FIELD, "sort": st.sampled_from(
        ["individual", "group"]) | JSON}),
    "rel": st.sampled_from(["every", "dist", "hire"]) | JSON,
    "args": st.lists(ARG, max_size=3) | JSON,
    "res": FIELD, "scope": FIELD, "element": ARG, "group": ARG,
})
CONSTRAINT = st.fixed_dictionaries({
    "kind": st.sampled_from(["weak", "strict", "identity", "conditional"]) | JSON,
    "left": FIELD, "right": FIELD,
}, optional={"antecedent": st.lists(FIELD, max_size=3) | JSON})
DOC = st.fixed_dictionaries({
    "ls": st.fixed_dictionaries({"max": FIELD, "min": FIELD}) | JSON,
    "subord": st.lists(CONSTRAINT, max_size=4) | JSON,
    "conds": st.lists(COND, max_size=5) | JSON,
})

WORDS = st.sampled_from([
    "every", "a", "an", "the", "that", "lawyer", "lawyers", "secretary",
    "clerks", "office", "john", "mary", "they", "hired", "met", "shared",
    "believed", "left", "gathered", "and", ".", "lawyer.", "left.", "zebra",
])
SENTENCE = st.lists(WORDS, max_size=8).map(" ".join) | st.text(max_size=40)


def accepts_or_raises_udrs_error(fn, *args):
    try:
        fn(*args)
    except UDRSError:
        pass


def from_file_text(reader, text):
    from_file_bytes(reader, text.encode("utf-8"))


def from_file_bytes(reader, data):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        accepts_or_raises_udrs_error(reader, path)
    finally:
        os.unlink(path)


@FUZZ
@given(JSON)
def test_from_json_on_any_json_value(value):
    accepts_or_raises_udrs_error(from_json, value)
    accepts_or_raises_udrs_error(from_json, json.dumps(value))


@FUZZ
@given(DOC)
def test_from_json_on_document_shaped_values(doc):
    accepts_or_raises_udrs_error(from_json, doc)


@FUZZ
@given(TEXT)
def test_from_json_on_any_text(text):
    accepts_or_raises_udrs_error(from_json, text)


RULE_LINES = st.lists(
    st.sampled_from(["verb gather subject collective", "continuation share",
                     "continuation share distributive", "verb x subject",
                     "# comment", ""]) | TEXT, max_size=5).map("\n".join)


@FUZZ
@given(RULE_LINES)
def test_rules_reader(text):
    from_file_text(KnowledgeRules.from_file, text)


CORPUS_LINES = st.lists(
    st.sampled_from(["case: c", "input: John left.", "disambiguate: np1=collective",
                     "expect-readings: 1", "expect-readings: many",
                     "expect-udrs: udrs_11.json", "bogus: 1", "no colon", ""])
    | TEXT, max_size=6).map("\n".join)


@FUZZ
@given(CORPUS_LINES)
def test_corpus_reader(text):
    from_file_text(_read_corpus, text)


LEXICON_LINES = st.lists(
    st.sampled_from(["# comment", "foo noun foo", "foos noun foo pl",
                     "bar verb-intrans bar collective-only", "baz verb-trans baz",
                     "qux name qux", "word whatpos rel", "noun", ""])
    | TEXT, max_size=6).map("\n".join)


@FUZZ
@given(LEXICON_LINES)
def test_lexicon_reader(text):
    from_file_text(Lexicon.from_file, text)


@FUZZ
@given(st.binary(max_size=200))
def test_file_readers_on_any_bytes(data):
    for reader in (Lexicon.from_file, KnowledgeRules.from_file, _read_corpus):
        from_file_bytes(reader, data)


@FUZZ
@given(SENTENCE)
def test_tokenize_and_parse(text):
    accepts_or_raises_udrs_error(lambda t: parse(tokenize(t)), text)
    accepts_or_raises_udrs_error(build_session, text)
