"""The one-pass document writer against the writer it replaced.

``to_json_str`` must write exactly the text that ``json.dumps`` gives for
``oracle.reference_to_json``'s nested dicts (2-space indent, text other than
ASCII not escaped, a final newline), and ``display_names`` must give the
names ``oracle.reference_display_names`` gives, which are the names the
document uses.  Inputs: the goldens and every corpus case, the four
benchmark input families rebuilt from the built-in vocabulary, UDRSs that
``from_json`` builds from arbitrary document-shaped values, and hand-built
edge cases.
"""

import json
import random
from collections import Counter

import pytest
from hypothesis import given

from conftest import (
    NAMES, NOUNS, PLURALS, VERBS, analyze, corpus_cases, discourse, golden_path,
    quantified_pairs, session_for_case, that_chains, wide_discourses,
)
from oracle import reference_display_names, reference_to_json
from test_fuzz import DOC, FUZZ, WELL_FORMED_DOC
from udrs import (
    GROUP, LS, Membership, Predicate, Quantifier, ReferentIntro, UDRSError,
    conditional, fresh_label, fresh_referent, fresh_slot, from_json,
    make_udrs, strict, top_label, weak,
)
from udrs.core import EVERY
from udrs.delay import PendingKey
from udrs.plurals import COLLECTIVE, DISTRIBUTIVE
from udrs.serialize import SerializationError, display_names, to_json_str


def reference_text(u) -> str:
    return json.dumps(reference_to_json(u), indent=2, ensure_ascii=False) + "\n"


def assert_names_match_document(u, names):
    """Each label the document shows carries the name display_names gives."""
    doc = json.loads(to_json_str(u))
    assert doc["ls"] == {"max": names[u.ls.l_max], "min": names[u.ls.l_min]}
    shown = Counter((c["kind"], c["left"], c["right"], tuple(c.get("antecedent", ())))
                    for c in doc["subord"])
    assert shown == Counter((c.kind, names[c.left], names[c.right],
                             tuple(names[a] for a in c.antecedent or ()))
                            for c in u.subord)
    assert Counter(c["label"] for c in doc["conds"]) == Counter(
        names[c.label] for c in u.conds)


def assert_same_document(u, what=""):
    assert to_json_str(u) == reference_text(u), what
    names = display_names(u)
    assert names == reference_display_names(u), what
    assert_names_match_document(u, names)


# --- Goldens and corpus ------------------------------------------------------

@pytest.mark.parametrize("name", ["udrs_11.json", "udrs_15.json", "udrs_16.json"])
def test_golden_documents(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        text = fh.read()
    u = from_json(text)
    assert to_json_str(u) == text
    assert_same_document(u, name)


def test_corpus_cases():
    for case in corpus_cases():
        session = session_for_case(case)
        assert_same_document(session.udrs, case.name)
        if session.udrs.pending_slots():
            for verdict in (COLLECTIVE, DISTRIBUTIVE):
                variant = session_for_case(case)
                variant.disambiguate(1, verdict)
                assert_same_document(variant.udrs, f"{case.name}/{verdict}")


# --- The benchmark input families, rebuilt -----------------------------------

# Clause templates of the construct family: (text, how its plural is decided).
CLAUSES = [
    ("every {a} {v} a {b}", None), ("a {a} {v} every {b}", None),
    ("{p} {v} a {a}", None), ("{p} left", None), ("every {a} left", None),
    ("{p} believed that every {a} {v} a {b}", None),
    ("every {a} believed that a {b} left", None),
    ("the {pl} {v} a {b}", "pending"), ("the {pl} gathered", "lexical"),
    ("{p} believed that the {pl} left", "pending"),
    ("they {v} a {a}", None), ("they left", None),
]
TRIGGER = ("the {pl} shared a {b}", "rule")


def construct_discourses(count=24):
    """Discourses of 8-40 clauses; plurals left pending, decided by the
    `share` continuation rule, or decided by directives on a random subset."""
    rng = random.Random(1995)
    out = []
    for k in range(count):
        mode = ("plain", "rules", "directives")[k % 3]
        picked = [rng.choice(CLAUSES) for _ in range(rng.randint(8, 40))]
        if mode == "rules":
            picked.insert(rng.randrange(len(picked) + 1), TRIGGER)
        clauses, directives, plural = [], [], 0
        for template, kind in picked:
            a, b = rng.sample(NOUNS, 2)
            clauses.append(template.format(a=a, b=b, pl=PLURALS[a],
                                           p=rng.choice(NAMES), v=rng.choice(VERBS)))
            if kind is not None:
                plural += 1
                if mode == "directives" and kind == "pending" and rng.random() < 0.7:
                    directives.append((plural, rng.choice((COLLECTIVE, DISTRIBUTIVE))))
        out.append((discourse(clauses), mode == "rules", tuple(directives)))
    return out


@pytest.mark.parametrize("text", that_chains())
def test_that_chains(text):
    assert_same_document(analyze(text).udrs, text)


@pytest.mark.parametrize("text,directives", wide_discourses())
def test_wide_discourses(text, directives):
    assert_same_document(analyze(text, disambiguate=directives).udrs, text)


@pytest.mark.parametrize("text", quantified_pairs())
def test_quantified_pairs(text):
    assert_same_document(analyze(text).udrs, text)


@pytest.mark.parametrize("text,rules,directives", construct_discourses())
def test_construct_discourses(text, rules, directives):
    session = analyze(text, golden_path("rules.txt") if rules else None, directives)
    assert_same_document(session.udrs, text)


# --- Arbitrary documents -----------------------------------------------------

def outcome(fn, u):
    """What fn gives, or the type and text of what it raises."""
    try:
        return fn(u)
    except UDRSError as e:  # each writer has its own SerializationError
        return ("UDRSError", str(e))
    except Exception as e:  # a hand-written document can break either writer
        return (type(e).__name__,)


def assert_same_outcome(doc):
    try:
        u = from_json(doc)
    except UDRSError:
        return
    assert outcome(to_json_str, u) == outcome(reference_text, u)
    assert outcome(display_names, u) == outcome(reference_display_names, u)


@FUZZ
@given(DOC)
def test_documents_from_any_document_shaped_value(doc):
    assert_same_outcome(doc)


@FUZZ
@given(WELL_FORMED_DOC)
def test_well_formed_documents(doc):
    u = from_json(doc)
    assert_same_document(u)


# --- Hand-built edge cases ---------------------------------------------------

def test_rels_that_need_escaping():
    t, a = top_label(), fresh_label()
    x = fresh_referent()
    rels = ['say "hi"', "back\\slash", "bell\x07 tab\t newline\n", "café",
            "naïve 😀", "line\u2028sep", ""]
    u = make_udrs(LS(t, a), [weak(t, a)],
                  [ReferentIntro(a, x)] + [Predicate(a, rel, (x,)) for rel in rels])
    assert_same_document(u)
    text = to_json_str(u)
    assert "café" in text and "\\u00e9" not in text
    assert '"say \\"hi\\""' in text and "\\u0007" in text


def test_empty_constraints_and_conditions():
    u = make_udrs(LS(top_label(), fresh_label()))
    assert_same_document(u)
    assert '"subord": [],\n  "conds": []\n' in to_json_str(u)


def test_predicate_without_arguments_and_group_sort():
    t, a = top_label(), fresh_label()
    g = fresh_referent(GROUP)
    u = make_udrs(LS(t, a), [strict(t, a)],
                  [ReferentIntro(a, g), Predicate(a, "rain", ()), Predicate(a, "gather", (g,))])
    assert_same_document(u)
    assert '"args": []' in to_json_str(u)


def pending_membership(mentioned: bool):
    """A membership whose element waits on a plural key; the key's labels
    are mentioned elsewhere in the UDRS, or only by the key."""
    t, a, b = top_label(), fresh_label(), fresh_label()
    np_max, np_min = fresh_label(), fresh_label()
    g, y = fresh_referent(GROUP), fresh_referent()
    slot, other = fresh_slot(), fresh_slot()
    key = PendingKey(np_max, np_min)
    subord = [weak(t, a), weak(a, b)]
    if mentioned:
        subord.append(weak(np_max, np_min))
    conds = [ReferentIntro(a, g), ReferentIntro(b, y),
             Membership(b, slot, g), Membership(a, y, other),
             Predicate(b, "hire", (other, y))]
    return make_udrs(LS(t, b), subord, conds, {slot: key, other: g})


@pytest.mark.parametrize("mentioned", [False, True])
def test_pending_argument_inside_a_membership(mentioned):
    u = pending_membership(mentioned)
    assert_same_document(u)
    assert '"pending"' in to_json_str(u)


def test_pending_predicate_argument_and_conditional_antecedents():
    t, a, b, c, d = top_label(), fresh_label(), fresh_label(), fresh_label(), fresh_label()
    g, x = fresh_referent(GROUP), fresh_referent()
    slot = fresh_slot()
    u = make_udrs(
        LS(t, a),
        [weak(t, a), strict(a, b), weak(c, d), conditional(a, b, c, d),
         conditional(c, d, t, d)],
        [ReferentIntro(c, g), ReferentIntro(b, x), Quantifier(a, EVERY, b, d),
         Predicate(d, "hire", (slot, x))],
        {slot: PendingKey(c, d)})
    assert_same_document(u)
    assert to_json_str(u).count('"antecedent": [') == 2


def test_unlinked_argument_raises_like_the_reference():
    t, a = top_label(), fresh_label()
    u = make_udrs(LS(t, a), [weak(t, a)], [Predicate(a, "sleep", (fresh_slot(),))])
    with pytest.raises(SerializationError, match="unlinked argument slot"):
        to_json_str(u)
    assert outcome(to_json_str, u) == outcome(reference_text, u)
    assert display_names(u) == reference_display_names(u)


@pytest.mark.parametrize("field, value", [
    ("rel", [1, {"é": None, "b": [2.5, True]}, []]), ("rel", 5), ("rel", None),
    ("sort", 7), ("sort", [1]), ("sort", {"s": "group"})])
def test_non_string_values_from_hand_written_documents(field, value):
    doc = json.loads(to_json_str(analyze("The lawyers hired a secretary.").udrs))
    for c in doc["conds"]:
        if field == "rel" and c["type"] == "pred":
            c["rel"] = value
        if field == "sort" and c["type"] == "ref":
            c["dref"]["sort"] = value
    with pytest.raises(SerializationError, match=f"^malformed UDRS document: {field} .* "
                                                 "is not a string$"):
        from_json(doc)
