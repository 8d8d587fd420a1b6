import copy
import json

import pytest

from conftest import analyze, golden_path
from udrs import (
    GROUP, LS, Predicate, ReferentIntro, fresh_label, fresh_referent,
    make_udrs, top_label, weak,
)
from udrs.delay import PendingKey
from udrs.serialize import (
    SerializationError, from_json, to_dot, to_json, to_json_str,
)


def roundtrip(u):
    doc = to_json(u)
    rebuilt = from_json(doc)
    assert to_json(rebuilt) == doc
    return doc


def test_roundtrip_simple():
    t, a = top_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(t, a), [weak(t, a)],
                  [ReferentIntro(a, x), Predicate(a, "sleep", (x,))])
    doc = roundtrip(u)
    assert doc["ls"]["max"] == "l0"  # top is always l0
    assert {c["type"] for c in doc["conds"]} == {"ref", "pred"}


def test_roundtrip_sentence():
    session = analyze("Every lawyer hired a secretary.")
    roundtrip(session.udrs)


def test_roundtrip_discourse_with_pending_slot():
    session = analyze("The lawyers hired a secretary.")
    doc = roundtrip(session.udrs)
    hire = next(c for c in doc["conds"] if c["type"] == "pred" and c["rel"] == "hire")
    subject = hire["args"][0]
    assert set(subject) == {"pending"}
    assert set(subject["pending"]) == {"max", "min"}


def test_roundtrip_string_form():
    session = analyze("John left.")
    text = to_json_str(session.udrs)
    rebuilt = from_json(text)
    assert to_json_str(rebuilt) == text


def test_golden_document_roundtrips_byte_identically():
    with open(golden_path("udrs_11.json"), encoding="utf-8") as fh:
        text = fh.read()
    assert to_json_str(from_json(text)) == text


def _without(doc, path):
    """A deep copy of doc with the field at path (a key/index sequence) removed."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    del node[last]
    return doc


def test_malformed_documents_raise_serialization_error():
    doc = to_json(analyze("The lawyers hired a secretary.").udrs)
    hire = next(i for i, c in enumerate(doc["conds"]) if c.get("rel") == "hire")
    malformed = {
        "ls": _without(doc, ["ls"]),
        "label": _without(doc, ["conds", 0, "label"]),
        "pending": _without(doc, ["conds", hire, "args", 0, "pending"]),
    }
    for missing, bad in malformed.items():
        with pytest.raises(SerializationError, match=repr(missing)):
            from_json(bad)
        with pytest.raises(SerializationError, match=repr(missing)):
            from_json(json.dumps(bad))
    with pytest.raises(SerializationError):
        from_json({"ls": doc["ls"], "subord": [], "conds": ["not a condition"]})
    bad_kind = copy.deepcopy(doc)
    bad_kind["subord"][0]["kind"] = "sideways"
    with pytest.raises(SerializationError, match="unknown constraint kind 'sideways'"):
        from_json(bad_kind)


def test_parsed_pending_slots_wait_on_their_keys():
    session = analyze("The lawyers hired a secretary.")
    rebuilt = from_json(to_json(session.udrs))
    (key,) = rebuilt.pending_slots()
    assert isinstance(key, PendingKey)
    assert rebuilt.find_intro(key.np_l_max).dref.sort == GROUP


def test_alpha_equivalent_structures_serialize_identically():
    # same sentence analyzed twice: all-new labels, identical document
    u1 = analyze("Every lawyer hired a secretary.").udrs
    u2 = analyze("Every lawyer hired a secretary.").udrs
    assert to_json(u1) == to_json(u2)
    assert u1.labels() != u2.labels()


def test_distinct_structures_serialize_differently():
    u1 = analyze("Every lawyer hired a secretary.").udrs
    u2 = analyze("Every lawyer met a secretary.").udrs
    assert to_json(u1) != to_json(u2)


def test_group_sort_survives_roundtrip():
    u = analyze("The lawyers hired a secretary.").udrs
    doc = to_json(u)
    group_intro = [c for c in doc["conds"]
                   if c["type"] == "ref" and c["dref"]["sort"] == GROUP]
    assert len(group_intro) == 1
    rebuilt = from_json(doc)
    assert to_json(rebuilt) == doc


def test_serialization_is_deterministic():
    u = analyze("Every lawyer believed that a clerk left.").udrs
    assert to_json_str(u) == to_json_str(u)


def test_dot_output_shape():
    session = analyze("The lawyers hired a secretary.")
    dot = to_dot(session.udrs)
    assert dot.startswith("digraph")
    doc = to_json(session.udrs)
    cond_labels = {c["label"] for c in doc["conds"]}
    for name in cond_labels:
        assert f"{name} [label=" in dot
    # one dashed edge for the single conditional constraint
    assert dot.count("style=dashed") == 1
    solid = [c for c in doc["subord"] if c["kind"] != "conditional"]
    assert dot.count("->") == len(solid) + 1


def test_text_that_is_not_json_raises_serialization_error():
    with pytest.raises(SerializationError, match="malformed UDRS document"):
        from_json("not json")


def _doc(subord=(), conds=(), ls=("l0", "l1")):
    return {"ls": {"max": ls[0], "min": ls[1]}, "subord": list(subord), "conds": list(conds)}


@pytest.mark.parametrize("field, doc", [
    ("max", _doc(ls=(0, "l1"))),
    ("min", _doc(ls=("l0", ["l1"]))),
    ("label", _doc(conds=[{"type": "ref", "label": 1,
                           "dref": {"id": "x1", "sort": "individual"}}])),
    ("id", _doc(conds=[{"type": "ref", "label": "l1", "dref": {"id": 5, "sort": "individual"}}])),
    ("ref", _doc(conds=[{"type": "pred", "label": "l1", "rel": "leave", "args": [{"ref": 5}]}])),
    ("max", _doc(conds=[{"type": "pred", "label": "l1", "rel": "leave",
                         "args": [{"pending": {"max": None, "min": "l2"}}]}])),
    ("right", _doc(subord=[{"kind": "weak", "left": "l0", "right": 1}])),
    ("antecedent", _doc(subord=[{"kind": "conditional", "left": "l0", "right": "l1",
                                 "antecedent": ["l1", 2]}])),
])
def test_non_string_names_raise_serialization_error(field, doc):
    """A label or referent name that is not a string is an error naming its
    field, not a fresh label or referent."""
    with pytest.raises(SerializationError, match=f"^malformed UDRS document: {field} .* "
                                                 "is not a string$"):
        from_json(doc)
