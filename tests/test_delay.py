import pytest

from conftest import analyze
from udrs import (
    LS, Predicate, ReferentIntro, fresh_label, fresh_referent, make_udrs,
)
from udrs.delay import PENDING, MalformedNP, PendingKey, PendingRegistry, dref_res
from udrs.lexicon import Lexicon
from udrs.plurals import pl_dis_collective, target_for
from udrs.principles import Derivation, combine_head_comp


@pytest.fixture()
def lex():
    return Lexicon.default()


def saturated_np(lex, det_word, noun_word):
    ctx = Derivation.new(lex)
    det = lex.sign(det_word)
    noun = lex.sign(noun_word)
    return combine_head_comp(det, noun, ctx).sign


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
        assert dref_res(np.udrs) is PENDING

    def test_determinism(self, lex):
        np = saturated_np(lex, "every", "lawyer")
        assert dref_res(np.udrs) == dref_res(np.udrs)

    def test_malformed_without_referent(self):
        # identity pattern but nothing introduced at the maximal label
        l1, l2 = fresh_label(), fresh_label()
        from udrs.core import identity
        u = make_udrs(LS(l1, l2), [identity(l1, l2)])
        with pytest.raises(MalformedNP):
            dref_res(u)

    def test_malformed_without_pattern(self):
        l1, l2 = fresh_label(), fresh_label()
        u = make_udrs(LS(l1, l2), [], [ReferentIntro(l1, fresh_referent())])
        with pytest.raises(MalformedNP):
            dref_res(u)


def link_object(lex, det_word, noun_word):
    """hired + det noun: the derivation, the NP and the linked VP's UDRS."""
    ctx = Derivation.new(lex)
    obj = combine_head_comp(lex.sign(det_word), lex.sign(noun_word), ctx).sign
    vp = combine_head_comp(lex.sign("hired"), obj, ctx).sign
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
        after = pl_dis_collective(u, target_for(u, key.np_l_max, key.np_l_min))
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
