import pytest

from conftest import (
    analyze, corpus_cases, quantified_pairs, that_chains, wide_discourses,
)
from oracle import ReferenceClosure, reference_dref_res
from udrs import (
    EVERY, LS, Predicate, Quantifier, ReferentIntro, fresh_label, fresh_referent,
    identity, make_udrs, strict, weak,
)
from udrs import principles
from udrs.delay import MalformedNP, PendingKey, PendingRegistry, dref_res
from udrs.lexicon import Lexicon
from udrs.plurals import pl_dis_collective
from udrs.principles import Derivation, combine_head_comp


@pytest.fixture()
def lex():
    return Lexicon.default()


def saturated_np(lex, det_word, noun_word):
    ctx = Derivation.new(lex)
    det = lex.sign(det_word)
    noun = lex.sign(noun_word)
    return combine_head_comp(det, noun, ctx)


class TestDrefRes:
    def test_indefinite_resolves_to_its_referent(self, lex):
        np = saturated_np(lex, "a", "secretary")
        intro = next(c for c in np.udrs.conds if isinstance(c, ReferentIntro))
        assert dref_res(np.udrs) == intro.dref

    def test_name_resolves_like_indefinite(self, lex):
        john = lex.sign("john")
        intro = next(c for c in john.udrs.conds if isinstance(c, ReferentIntro))
        assert dref_res(john.udrs) == intro.dref

    def test_quantifier_resolves_to_restrictor_referent(self, lex):
        np = saturated_np(lex, "every", "lawyer")
        intro = next(c for c in np.udrs.conds if isinstance(c, ReferentIntro))
        assert dref_res(np.udrs) == intro.dref

    def test_plural_is_pending(self, lex):
        np = saturated_np(lex, "the", "lawyers")
        assert dref_res(np.udrs) == PendingKey(np.udrs.ls.l_max, np.udrs.ls.l_min)

    def test_determinism(self, lex):
        np = saturated_np(lex, "every", "lawyer")
        assert dref_res(np.udrs) == dref_res(np.udrs)

    def test_malformed_without_referent(self):
        # identity pattern but nothing introduced at the maximal label
        l1, l2 = fresh_label(), fresh_label()
        u = make_udrs(LS(l1, l2), [identity(l1, l2)])
        with pytest.raises(MalformedNP):
            dref_res(u)

    def test_malformed_without_pattern(self):
        l1, l2 = fresh_label(), fresh_label()
        u = make_udrs(LS(l1, l2), [], [ReferentIntro(l1, fresh_referent())])
        with pytest.raises(MalformedNP):
            dref_res(u)


def test_dref_res_matches_reference_on_every_argument_np(monkeypatch):
    """Every NP linking meets on the corpus and the benchmark families."""
    nps = []

    def spy(np_udrs):
        nps.append(np_udrs)
        return dref_res(np_udrs)

    monkeypatch.setattr(principles, "dref_res", spy)
    texts = [case.input for case in corpus_cases()] + that_chains() + quantified_pairs()
    texts += [text for text, _ in wide_discourses()]
    for text in texts:
        analyze(text)
    assert len(nps) > 1000
    kinds = set()
    for u in nps:
        assert dref_res(u) == reference_dref_res(u)
        # clause V's test: no identity constraint exactly when the closure
        # of the NP's own constraints does not identify l_max and l_min
        l_max, l_min = u.ls.l_max, u.ls.l_min
        not_identity = identity(l_max, l_min) not in u.subord
        assert not_identity == (not ReferenceClosure(u.subord).identical(l_max, l_min))
        kinds.add((type(dref_res(u)), not_identity))
    assert len(kinds) == 3  # identity, strict and weak NPs all occur


@pytest.mark.parametrize("kind", ["identity", "strict", "weak"])
def test_pattern_only_through_other_labels_is_malformed(kind):
    # A hand-built NP whose pattern holds only through a third label l2:
    # the closure derives it, so the reference classifies the NP, but no
    # constraint between l_max and l_min states it, so dref_res does not.
    l1, l2, l3, res = (fresh_label() for _ in range(4))
    x = fresh_referent()
    if kind == "identity":
        u = make_udrs(LS(l1, l3), [identity(l1, l2), identity(l2, l3)],
                      [ReferentIntro(l1, x)])
    elif kind == "strict":
        u = make_udrs(LS(l1, l3), [strict(l1, l2), weak(l2, l3), strict(l1, res)],
                      [Quantifier(l1, EVERY, res, l2), ReferentIntro(res, x)])
    else:
        u = make_udrs(LS(l1, l3), [weak(l1, l2), weak(l2, l3)], [ReferentIntro(l1, x)])
    assert reference_dref_res(u) == (PendingKey(l1, l3) if kind == "weak" else x)
    with pytest.raises(MalformedNP):
        dref_res(u)


def link_object(lex, det_word, noun_word):
    """hired + det noun: the derivation, the NP and the linked VP's UDRS."""
    ctx = Derivation.new(lex)
    obj = combine_head_comp(lex.sign(det_word), lex.sign(noun_word), ctx)
    vp = combine_head_comp(lex.sign("hired"), obj, ctx)
    hire = next(c for c in vp.udrs.conds if isinstance(c, Predicate) and c.rel == "hire")
    return ctx, obj, vp.udrs, hire.args[1]


class TestLinking:
    def test_link_binds_indefinite_to_its_referent(self, lex):
        ctx, obj, u, arg = link_object(lex, "a", "secretary")
        intro = next(c for c in obj.udrs.conds if isinstance(c, ReferentIntro))
        assert u.resolve(arg) == intro.dref
        assert ctx.registry.all_keys() == []

    def test_link_registers_plural(self, lex):
        ctx, obj, u, arg = link_object(lex, "the", "lawyers")
        key = u.resolve(arg)
        assert key == PendingKey(obj.udrs.ls.l_max, obj.udrs.ls.l_min)
        assert ctx.registry.all_keys() == [key]
        assert key in u.pending_slots()   # beside the still unlinked subject

    def test_binding_the_key_resolves_the_argument(self, lex):
        ctx, obj, u, arg = link_object(lex, "the", "lawyers")
        key = u.resolve(arg)
        after = pl_dis_collective(u, key)
        group = next(c for c in obj.udrs.conds if isinstance(c, ReferentIntro)).dref
        assert after.resolve(arg) == group
        assert key in after.bindings and key not in u.bindings
        assert u.resolve(arg) == key          # the earlier value is unchanged

    def test_register_keeps_first_order_once(self):
        registry = PendingRegistry()
        k1 = PendingKey(fresh_label(), fresh_label())
        k2 = PendingKey(fresh_label(), fresh_label())
        for key in (k1, k2, k1):
            registry.register(key)
        assert registry.all_keys() == [k1, k2]
        assert registry.unresolved() == [k1, k2]
        registry.discourse = make_udrs(LS(k1.np_l_max, k1.np_l_min),
                                       bindings={k2: fresh_referent()})
        assert registry.unresolved() == [k1]


def test_final_udrs_pending_iff_undisambiguated_plural():
    cases = {
        "John hired a secretary.": 0,
        "Every lawyer hired a secretary.": 0,
        "The lawyers hired a secretary.": 1,
        "The lawyers gathered.": 0,          # lexical directive resolves it
    }
    for text, expected in cases.items():
        session = analyze(text)
        assert len(session.udrs.pending_slots()) == expected, text
