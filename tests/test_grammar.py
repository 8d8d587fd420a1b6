import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_cases
from oracle import reference_parse_sentence
from udrs.grammar import (
    COORD, FUNCTIONAL, SEP, SILENT, ParseFailure, _parse_sentence, bracketed,
    parse, tokenize, yield_tokens,
)
from udrs.lexicon import Lexicon

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestTokenize:
    def test_simple_sentence(self):
        assert tokenize("The lawyers hired a secretary.") == [
            "the", "lawyers", "hired", "a", "secretary", SEP]

    def test_empty(self):
        assert tokenize("") == []

    def test_that_clause(self):
        toks = tokenize("Every lawyer believed that a clerk left.")
        assert "that" in toks

    def test_and_becomes_separator(self):
        assert tokenize("John left and Mary left.") == [
            "john", "left", SEP, "mary", "left", SEP]

    def test_case_folding(self):
        assert tokenize("JOHN Left") == ["john", "left"]

    def test_exclamation_and_question_marks_end_sentences(self):
        assert tokenize("John left! Mary left? John left.") == [
            "john", "left", SEP, "mary", "left", SEP, "john", "left", SEP]

    @pytest.mark.parametrize("text", ["John left! Mary left.", "John left? Mary left!"])
    def test_a_sentence_ending_in_a_mark_parses(self, text):
        (deriv,) = parse(tokenize(text))
        assert deriv.construction == COORD
        assert yield_tokens(deriv) == ["john", "left", SEP, "mary", "left", SEP]


class TestParse:
    def test_unambiguous_transitive(self):
        derivs = parse(tokenize("the lawyers hired a secretary"))
        assert len(derivs) == 1

    def test_unambiguous_with_final_period(self):
        derivs = parse(tokenize("The lawyers hired a secretary."))
        assert len(derivs) == 1
        assert derivs[0].trailing_sep

    def test_embedded_clause_has_functional_node(self):
        (deriv,) = parse(tokenize("every lawyer believed that a clerk left"))
        functional = []

        def walk(n):
            if n.construction == FUNCTIONAL and n.head.word == "that":
                functional.append(n)
            for c in n.children():
                walk(c)

        walk(deriv)
        assert len(functional) == 1

    def test_root_wrapped_in_silent_complementizer(self):
        (deriv,) = parse(tokenize("john left"))
        assert deriv.construction == FUNCTIONAL
        assert deriv.head.word == SILENT

    def test_missing_subject_fails(self):
        with pytest.raises(ParseFailure) as info:
            parse(tokenize("hired the lawyers"))
        assert info.value.position == 3

    def test_unknown_word_position(self):
        with pytest.raises(ParseFailure) as info:
            parse(tokenize("john saw mary"))
        assert info.value.position == 1

    def test_determiner_agreement_blocks(self):
        with pytest.raises(ParseFailure):
            parse(tokenize("the lawyer left"))   # plural "the" with singular noun
        with pytest.raises(ParseFailure):
            parse(tokenize("a lawyers left"))

    def test_empty_input(self):
        assert parse([]) == []

    def test_discourse_coordination(self):
        (deriv,) = parse(tokenize("John left. Mary left."))
        assert deriv.construction == COORD
        assert deriv.head.construction == FUNCTIONAL
        assert deriv.nonhead.construction == FUNCTIONAL

    def test_three_sentences_fold_left(self):
        (deriv,) = parse(tokenize("John left. Mary left. John left."))
        assert deriv.construction == COORD
        assert deriv.head.construction == COORD


SENTENCES = [
    "The lawyers hired a secretary.",
    "Every lawyer hired a secretary.",
    "Every lawyer believed that a clerk left.",
    "Every lawyer believed that every clerk left.",
    "John hired a secretary.",
    "John left",
    "The lawyers gathered.",
    "Mary met every student.",
    "John left. Mary left.",
    "The lawyers hired a secretary. They shared an office.",
]


@pytest.mark.parametrize("text", SENTENCES)
def test_yield_inverts_parse(text):
    tokens = tokenize(text)
    for deriv in parse(tokens):
        assert yield_tokens(deriv) == tokens


@pytest.mark.parametrize("text", SENTENCES)
def test_single_derivation_per_sentence(text):
    assert len(parse(tokenize(text))) == 1


def test_binary_branching_throughout():
    (deriv,) = parse(tokenize("every lawyer believed that a clerk left."))

    def walk(n):
        kids = n.children()
        if n.construction == "lexical":
            assert kids == []
        else:
            assert len(kids) == 2
        for c in kids:
            walk(c)

    walk(deriv)


def test_bracketed_rendering():
    (deriv,) = parse(tokenize("john left"))
    text = bracketed(deriv)
    assert "(john)" in text and "(left)" in text
    assert "[head_subj" in text


# --- The one-pass parser against the first, dense one ---------------------------

def segments(tokens: list[str]) -> list[tuple[int, list[str]]]:
    """The sentence segments parse hands to _parse_sentence, with offsets."""
    out, start = [], 0
    for i, tok in enumerate(tokens):
        if tok == SEP:
            out.append((start, tokens[start:i]))
            start = i + 1
    if start < len(tokens):
        out.append((start, tokens[start:]))
    return out


def outcome(parser, tokens: list[str], offset: int) -> object:
    try:
        return [bracketed(node) for node in parser(tokens, offset, Lexicon.default())]
    except ParseFailure as e:
        return e.position, str(e)


def one_parse(tokens: list[str], offset: int, lexicon: Lexicon) -> list:
    return [_parse_sentence(tokens, offset, lexicon)]


def assert_same_parses(text: str) -> int:
    """Each segment of text parses as the dense CKY parses it, to its one
    parse, or fails at the same token with the same message; how many
    segments failed."""
    failed = 0
    for offset, seg in segments(tokenize(text)):
        mine = outcome(one_parse, seg, offset)
        assert mine == outcome(reference_parse_sentence, seg, offset), (text, offset)
        failed += isinstance(mine, tuple)
    return failed


def catalogue_texts() -> list[str]:
    """The texts of the benchmark's four catalogues at seeds 7 and 8."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import CATALOGUES, generate, read_vocabulary
    finally:
        sys.path.remove(str(ROOT / "bench"))
    vocab = read_vocabulary()
    return [inp.text for make in CATALOGUES.values() for seed in (7, 8)
            for inp in generate(make(), seed, vocab)]


def test_corpus_parses_match_dense_cky():
    for case in corpus_cases():
        assert_same_parses(case.input)


def test_catalogue_parses_match_dense_cky():
    texts = catalogue_texts()
    failed = sum(assert_same_parses(text) for text in texts)
    assert len(texts) > 500 and failed  # the catalogues hold unparsable inputs too


@pytest.mark.parametrize("text,position", [
    ("hired a lawyer every lawyer", 3),       # a VP starts the segment
    ("believed that John left Mary", 4),      # a VP with a clause
    ("that John left John", 3),               # a CS
    ("every lawyer left John", 3),            # an S that stops short
    ("John believed that every lawyer", 1),   # an NP: the clause has no VP
    ("the lawyers", 2),                       # an NP alone
    ("left John", 1),                         # an intransitive VP
    ("lawyer left", 1),                       # a noun: no constituent but the word
])
def test_failure_at_the_longest_constituent_that_starts_the_segment(text, position):
    """A segment no S spans fails at the end of the longest constituent
    that starts it, as the dense CKY reports, also where that constituent
    is not an S."""
    assert assert_same_parses(text) == 1
    with pytest.raises(ParseFailure) as info:
        parse(tokenize(text))
    assert info.value.position == position


WORDS = sorted({line.split("#", 1)[0].split()[0]
                for line in (ROOT / "src" / "udrs" / "data" / "fragment.lex")
                .read_text("utf-8").splitlines()
                if line.split("#", 1)[0].strip()})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(WORDS + ["."]), max_size=14))
def test_token_strings_parse_as_dense_cky(words):
    assert_same_parses(" ".join(words))


def random_sentence(rng: random.Random, by_cat: dict, depth: int) -> list[str]:
    """A grammatical sentence over one word of each category: NP VP, the
    VP intransitive, transitive or, above depth 0, a that-clause."""
    def np() -> list[str]:
        kind = rng.choice([cat for cat in by_cat if cat[0] in ("det", "np")])
        return [by_cat[kind]] if kind[0] == "np" else [by_cat[kind], by_cat[("n", kind[1])]]

    kind = rng.choice(["intrans", "trans", "clause"] if depth else ["intrans", "trans"])
    if kind == "intrans":
        return np() + [by_cat[("v", "intrans")]]
    if kind == "trans":
        return np() + [by_cat[("v", "trans")]] + np()
    return np() + [by_cat[("v", "clause")], by_cat[("comp",)]] + random_sentence(
        rng, by_cat, depth - 1)


def test_at_most_one_parse_per_segment():
    """The grammar is unambiguous: the dense CKY finds exactly one parse of
    a grammatical sentence, the one _parse_sentence returns, and at most
    one of any string of categories."""
    lexicon = Lexicon.default()
    by_cat: dict = {}
    for word in WORDS:
        by_cat.setdefault(lexicon.category(word), word)
    rng = random.Random(1995)
    for _ in range(300):
        tokens = random_sentence(rng, by_cat, 3)
        (node,) = reference_parse_sentence(tokens, 0, lexicon)
        assert bracketed(_parse_sentence(tokens, 0, lexicon)) == bracketed(node)
    words = sorted(by_cat.values())
    for _ in range(3000):
        tokens = rng.choices(words, k=rng.randint(1, 9))
        try:
            assert len(reference_parse_sentence(tokens, 0, lexicon)) <= 1
        except ParseFailure:
            pass
