import pytest

from udrs import GROUP, INDIVIDUAL, Predicate, Quantifier, ReferentIntro, Slot, closure
from udrs.lexicon import Lexicon, UnknownWord, entry_complementizer, entry_noun

# How an NP's own constraints relate its l_max to its l_min, as
# (identical, strictly, weakly): the pattern dref_res classifies.
IDENTITY = (True, False, True)
STRICT = (False, True, True)
WEAK_ONLY = (False, False, True)


@pytest.fixture(scope="module")
def lex():
    return Lexicon.default()


def conds_by_type(sign, cls):
    return [c for c in sign.udrs.conds if isinstance(c, cls)]


def ls_relation(sign):
    c = closure(sign.udrs.subord)
    l_max, l_min = sign.udrs.ls.l_max, sign.udrs.ls.l_min
    return c.identical(l_max, l_min), c.strictly(l_max, l_min), c.weakly(l_max, l_min)


class TestVerbEntries:
    def test_transitive_shape(self, lex):
        sign = lex.sign("hired")
        preds = conds_by_type(sign, Predicate)
        assert len(sign.udrs.conds) == 1
        assert preds[0].rel == "hire"
        assert len(preds[0].args) == 2
        assert all(isinstance(sign.udrs.resolve(a), Slot) for a in preds[0].args)
        assert sign.udrs.subord == frozenset()
        assert preds[0].label == sign.udrs.ls.l_min

    def test_two_instantiations_are_label_disjoint(self, lex):
        s1, s2 = lex.sign("hired"), lex.sign("hired")
        assert not (s1.udrs.labels() & s2.udrs.labels())

    def test_collective_only_directive(self, lex):
        gathered = lex.sign("gathered")
        assert gathered.collective_subject
        assert len(gathered.subcat) == 1
        left = lex.sign("left")
        assert not left.collective_subject

    def test_clause_verb_subcat(self, lex):
        sign = lex.sign("believed")
        assert [s.expects for s in sign.subcat] == ["np", "clause"]
        (pred,) = conds_by_type(sign, Predicate)
        assert len(pred.args) == 1  # clause argument links via subordination only


class TestDeterminerEntries:
    def test_every_duplex(self, lex):
        sign = lex.sign("every")
        (q,) = conds_by_type(sign, Quantifier)
        (intro,) = conds_by_type(sign, ReferentIntro)
        assert intro.label == q.res
        assert intro.dref.sort == INDIVIDUAL
        c = closure(sign.udrs.subord)
        assert c.strictly(sign.udrs.ls.l_max, q.res)
        assert c.strictly(sign.udrs.ls.l_max, q.scope)
        assert sign.udrs.ls.l_min == q.scope
        assert ls_relation(sign) == STRICT

    def test_indefinite_identity(self, lex):
        sign = lex.sign("a")
        (intro,) = conds_by_type(sign, ReferentIntro)
        assert intro.dref.sort == INDIVIDUAL
        assert len(sign.udrs.conds) == 1
        assert ls_relation(sign) == IDENTITY

    def test_plural_weak_and_group_referent(self, lex):
        sign = lex.sign("the")
        (intro,) = conds_by_type(sign, ReferentIntro)
        assert intro.dref.sort == GROUP
        assert ls_relation(sign) == WEAK_ONLY
        assert sign.subcat[0].agr == "pl"

    def test_no_lexical_entry_has_conditional_constraints(self, lex):
        for word in ("every", "a", "the", "hired", "left", "john", "that"):
            sign = lex.sign(word)
            assert all(c.kind != "conditional" for c in sign.udrs.subord)


class TestNounsAndNames:
    def test_noun_minimal(self, lex):
        sign = lex.sign("lawyer")
        (pred,) = conds_by_type(sign, Predicate)
        assert pred.rel == "lawyer"
        assert len(sign.udrs.conds) == 1

    def test_plural_noun_differs_only_in_agreement(self, lex):
        sg, pl = lex.sign("lawyer"), lex.sign("lawyers")
        assert sg.agr == "sg" and pl.agr == "pl"
        (p1,), (p2,) = conds_by_type(sg, Predicate), conds_by_type(pl, Predicate)
        assert p1.rel == p2.rel

    def test_noun_binds_to_given_label_and_referent(self):
        from udrs.core import fresh_label, fresh_referent
        l, x = fresh_label(), fresh_referent()
        sign = entry_noun("clerk", label=l, dref=x)
        (pred,) = conds_by_type(sign, Predicate)
        assert pred.label == l
        assert sign.udrs.resolve(pred.args[0]) == x

    def test_name_shape(self, lex):
        sign = lex.sign("john")
        (intro,) = conds_by_type(sign, ReferentIntro)
        (pred,) = conds_by_type(sign, Predicate)
        assert pred.label == intro.label == sign.udrs.ls.l_max
        assert ls_relation(sign) == IDENTITY

    def test_pronoun_is_identity_classified(self, lex):
        sign = lex.sign("they")
        assert ls_relation(sign) == IDENTITY
        assert conds_by_type(sign, Predicate) == []


def test_complementizer_contributes_no_conditions(lex):
    for word in ("that", None):
        sign = lex.sign("that") if word else entry_complementizer(None)
        assert sign.udrs.conds == frozenset()
        assert sign.udrs.subord == frozenset()


def test_unknown_word(lex):
    with pytest.raises(UnknownWord):
        lex.sign("sesquipedalian")


def test_freshness_across_entry_kinds(lex):
    words = ["every", "a", "the", "lawyer", "john", "hired", "that"]
    seen_labels, seen_refs = set(), set()
    for word in words:
        sign = lex.sign(word)
        labels = sign.udrs.labels()
        assert not (labels & seen_labels)
        seen_labels |= labels
        for cond in sign.udrs.conds:
            if isinstance(cond, ReferentIntro):
                assert cond.dref not in seen_refs
                seen_refs.add(cond.dref)


def test_category_per_pos_tag(lex):
    expectations = {"every": ("det", "sg"), "a": ("det", "sg"), "the": ("det", "pl"),
                    "lawyer": ("n", "sg"), "lawyers": ("n", "pl"),
                    "john": ("np", "sg"), "they": ("np", "pl"),
                    "hired": ("v", "trans"), "left": ("v", "intrans"),
                    "believed": ("v", "clause"), "that": ("comp",)}
    for word, category in expectations.items():
        assert lex.category(word) == category, word
    with pytest.raises(UnknownWord):
        lex.category("sesquipedalian")


def test_lexicon_file_loading(tmp_path):
    path = tmp_path / "tiny.lex"
    path.write_text("# tiny\nfoo noun foo\nbar verb-intrans bar collective-only\n"
                    "baz verb-clause baz collective-only\n")
    lex = Lexicon.from_file(str(path))
    assert "foo" in lex
    assert lex.sign("bar").collective_subject
    assert lex.sign("baz").collective_subject  # every verb kind takes the flag


def test_lexicon_file_errors(tmp_path):
    from udrs.lexicon import LexiconError
    bad = tmp_path / "bad.lex"
    bad.write_text("word whatpos rel\n")
    with pytest.raises(LexiconError):
        Lexicon.from_file(str(bad))


def test_only_function_words_may_have_no_rel(tmp_path):
    from udrs.lexicon import LexiconError
    path = tmp_path / "dash.lex"
    path.write_text("every det-quant -\na det-indef -\nthe det-pl -\nthey pron -\n"
                    "that comp -\n")
    assert Lexicon.from_file(str(path)).entry("they").rel is None
    for pos in ("noun", "name", "verb-trans", "verb-intrans", "verb-clause"):
        path.write_text(f"john name john\n# {pos}\nword {pos} -\n")
        with pytest.raises(LexiconError, match=f"dash.lex:3: a {pos} entry needs a rel"):
            Lexicon.from_file(str(path))


def test_lexicon_file_not_utf8(tmp_path):
    from udrs.core import EncodingError
    bad = tmp_path / "latin1.lex"
    bad.write_bytes(b"caf\xe9 noun cafe\n\xff\n")
    with pytest.raises(EncodingError, match="latin1.lex: not UTF-8"):
        Lexicon.from_file(str(bad))
