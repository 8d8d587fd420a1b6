import pytest

from conftest import analyze
from udrs import (
    CONDITIONAL, GROUP, WEAK, DiscourseReferent, PendingKey, Predicate,
    Quantifier, ReferentIntro, check_udrs, closure,
)
from udrs.grammar import parse, tokenize
from udrs.lexicon import Lexicon
from udrs.principles import (
    Derivation, SubcatMismatch, combine_coord, combine_functional,
    combine_head_comp, combine_head_subj, empty_discourse, interpret,
)


@pytest.fixture()
def ctx():
    return Derivation.new(Lexicon.default())


def np(ctx, det, noun):
    return combine_head_comp(ctx.lexicon.sign(det), ctx.lexicon.sign(noun), ctx)


def added(result, head, comp):
    """The constraints a combination added to its daughters'."""
    return result.udrs.subord - (head.udrs.subord | comp.udrs.subord)


def the_pred(sign, rel):
    return next(c for c in sign.udrs.conds
                if isinstance(c, Predicate) and c.rel == rel)


class TestHeadComp:
    def test_det_noun_links_restrictor(self, ctx):
        every_lawyer = np(ctx, "every", "lawyer")
        quant = next(c for c in every_lawyer.udrs.conds if isinstance(c, Quantifier))
        pred = the_pred(every_lawyer, "lawyer")
        assert pred.label == quant.res
        intro = every_lawyer.udrs.find_intro(quant.res)
        assert every_lawyer.udrs.resolve(pred.args[0]) == intro.dref

    def test_det_noun_indefinite_shares_label(self, ctx):
        a_secretary = np(ctx, "a", "secretary")
        pred = the_pred(a_secretary, "secretary")
        intro = next(c for c in a_secretary.udrs.conds if isinstance(c, ReferentIntro))
        c = closure(a_secretary.udrs.subord)
        assert c.identical(pred.label, intro.label)
        assert a_secretary.udrs.resolve(pred.args[0]) == intro.dref

    def test_det_noun_plural_shares_label_directly(self, ctx):
        the_lawyers = np(ctx, "the", "lawyers")
        pred = the_pred(the_lawyers, "lawyer")
        intro = next(c for c in the_lawyers.udrs.conds if isinstance(c, ReferentIntro))
        assert pred.label == intro.label == the_lawyers.udrs.ls.l_max
        assert intro.dref.sort == GROUP

    def test_indefinite_object_adds_weak_only(self, ctx):
        hired = ctx.lexicon.sign("hired")
        a_secretary = np(ctx, "a", "secretary")
        result = combine_head_comp(hired, a_secretary, ctx)
        (c,) = added(result, hired, a_secretary)
        assert c.kind == WEAK
        assert c.right == hired.udrs.ls.l_min  # verb label sits below the argument

    def test_quantified_object_adds_conditional_and_resolves(self, ctx):
        hired = ctx.lexicon.sign("hired")
        every_secretary = np(ctx, "every", "secretary")
        result = combine_head_comp(hired, every_secretary, ctx)
        delta = added(result, hired, every_secretary)
        assert sorted(c.kind for c in delta) == [CONDITIONAL, WEAK]
        pred = the_pred(result, "hire")
        restrictor_ref = next(c for c in every_secretary.udrs.conds
                              if isinstance(c, ReferentIntro)).dref
        assert result.udrs.resolve(pred.args[1]) == restrictor_ref
        cond = next(c for c in delta if c.kind == CONDITIONAL)
        assert cond.antecedent == (every_secretary.udrs.ls.l_max,
                                   every_secretary.udrs.ls.l_min)
        assert cond.left == hired.udrs.ls.l_max
        assert cond.right == every_secretary.udrs.ls.l_max

    def test_plural_object_adds_conditional_and_stays_pending(self, ctx):
        hired = ctx.lexicon.sign("hired")
        the_lawyers = np(ctx, "the", "lawyers")
        result = combine_head_comp(hired, the_lawyers, ctx)
        kinds = sorted(c.kind for c in added(result, hired, the_lawyers))
        assert kinds == [CONDITIONAL, WEAK]
        pred = the_pred(result, "hire")
        assert isinstance(result.udrs.resolve(pred.args[1]), PendingKey)

    def test_conditions_and_constraints_union(self, ctx):
        hired = ctx.lexicon.sign("hired")
        obj = np(ctx, "every", "secretary")
        result = combine_head_comp(hired, obj, ctx)
        assert result.udrs.conds == hired.udrs.conds | obj.udrs.conds
        assert result.udrs.subord >= hired.udrs.subord | obj.udrs.subord

    def test_ls_projected_from_head(self, ctx):
        hired = ctx.lexicon.sign("hired")
        result = combine_head_comp(hired, np(ctx, "a", "secretary"), ctx)
        assert result.udrs.ls == hired.udrs.ls

    def test_head_sign_is_reusable(self, ctx):
        hired = ctx.lexicon.sign("hired")
        slot = hired.next_comp_slot()
        objects = [np(ctx, "a", "secretary"), np(ctx, "every", "clerk")]
        vps = [combine_head_comp(hired, obj, ctx) for obj in objects]
        for vp, obj in zip(vps, objects):
            assert vp.cat == "vp" and vp.next_comp_slot() is None
            obj_ref = next(c for c in obj.udrs.conds if isinstance(c, ReferentIntro)).dref
            assert vp.udrs.resolve(the_pred(vp, "hire").args[1]) == obj_ref
        assert hired.next_comp_slot() is slot      # filling made new signs
        assert hired.cat == "v" and not hired.saturated

    def test_mismatch_rejected(self, ctx):
        with pytest.raises(SubcatMismatch):
            combine_head_comp(ctx.lexicon.sign("hired"),
                              ctx.lexicon.sign("lawyer"), ctx)
        with pytest.raises(SubcatMismatch):
            combine_head_comp(ctx.lexicon.sign("john"),
                              ctx.lexicon.sign("john"), ctx)


class TestHeadSubj:
    def test_quantified_subject_resolves_to_restrictor(self, ctx):
        vp = combine_head_comp(ctx.lexicon.sign("hired"),
                               np(ctx, "a", "secretary"), ctx)
        subj = np(ctx, "every", "lawyer")
        s = combine_head_subj(vp, subj, ctx)
        pred = the_pred(s, "hire")
        restrictor_ref = next(c for c in subj.udrs.conds
                              if isinstance(c, ReferentIntro)).dref
        assert s.udrs.resolve(pred.args[0]) == restrictor_ref

    def test_name_subject_resolves_directly(self, ctx):
        vp = ctx.lexicon.sign("left")
        john = ctx.lexicon.sign("john")
        s = combine_head_subj(vp, john, ctx)
        pred = the_pred(s, "leave")
        john_ref = next(c for c in john.udrs.conds
                        if isinstance(c, ReferentIntro)).dref
        assert s.udrs.resolve(pred.args[0]) == john_ref

    def test_collective_only_verb_forces_group_subject(self, ctx):
        gathered = ctx.lexicon.sign("gathered")
        subj = np(ctx, "the", "lawyers")
        s = combine_head_subj(gathered, subj, ctx)
        pred = the_pred(s, "gather")
        group = next(c for c in subj.udrs.conds
                     if isinstance(c, ReferentIntro)).dref
        assert s.udrs.resolve(pred.args[0]) == group
        c = closure(s.udrs.subord)
        assert c.identical(subj.udrs.ls.l_max, subj.udrs.ls.l_min)


class TestFunctional:
    def test_root_identifies_ceiling_with_top(self, ctx):
        (deriv,) = parse(tokenize("john left"), ctx.lexicon)
        sign = interpret(deriv, ctx)
        c = closure(sign.udrs.subord)
        assert c.identical(sign.udrs.ls.l_max, ctx.top)

    def test_root_completion_dominates_every_label(self, ctx):
        (deriv,) = parse(tokenize("every lawyer hired a secretary"), ctx.lexicon)
        sign = interpret(deriv, ctx)
        c = closure(sign.udrs.subord)
        for label in sign.udrs.labels():
            assert c.weakly(ctx.top, label)

    def test_functional_adds_no_conditions(self, ctx):
        (deriv,) = parse(tokenize("john left"), ctx.lexicon)
        interpret(deriv, ctx)
        s_node = deriv.nonhead
        assert deriv.sign.udrs.conds == s_node.sign.udrs.conds

    def test_filled_complementizer_takes_no_second_clause(self, ctx):
        clause = combine_head_subj(ctx.lexicon.sign("left"),
                                   ctx.lexicon.sign("john"), ctx)
        that = ctx.lexicon.sign("that")
        cs = combine_functional(that, clause, ctx)
        assert cs.cat == "cs" and cs.saturated and not that.saturated
        with pytest.raises(SubcatMismatch):
            combine_functional(cs, clause, ctx)

    def test_embedded_ceiling_capped_below_matrix_verb(self, ctx):
        (deriv,) = parse(tokenize("every lawyer believed that every clerk left"),
                         ctx.lexicon)
        sign = interpret(deriv, ctx)
        believe = the_pred(sign, "believe")
        c = closure(sign.udrs.subord)
        embedded_quant = next(
            cond for cond in sign.udrs.conds
            if isinstance(cond, Quantifier)
            and any(p.rel == "clerk" for p in sign.udrs.conds
                    if isinstance(p, Predicate) and p.label == cond.res))
        assert c.weakly(believe.label, embedded_quant.label)


class TestCoord:
    def test_two_singulars_union_unchanged(self, ctx):
        (deriv,) = parse(tokenize("John left. Mary left."), ctx.lexicon)
        sign = interpret(deriv, ctx)
        s1 = deriv.head.sign
        s2 = deriv.nonhead.sign
        assert sign.udrs.conds == s1.udrs.conds | s2.udrs.conds
        assert sign.udrs.subord >= s1.udrs.subord | s2.udrs.subord

    def test_coord_with_empty_discourse_is_union(self, ctx):
        (deriv,) = parse(tokenize("john left"), ctx.lexicon)
        sign = interpret(deriv, ctx)
        result = combine_coord(empty_discourse(ctx), sign, ctx)
        assert result.udrs.conds == sign.udrs.conds
        assert result.udrs.subord == sign.udrs.subord  # the sentence is below top already


class TestInterpret:
    def test_fixture_11_inventory(self):
        session = analyze("The lawyers hired a secretary.")
        u = session.udrs
        preds = {c.rel: c for c in u.conds if isinstance(c, Predicate)}
        assert set(preds) == {"lawyer", "secretary", "hire"}
        hire = preds["hire"]
        assert isinstance(u.resolve(hire.args[0]), PendingKey)  # subject delayed
        secretary_intro = next(c for c in u.conds if isinstance(c, ReferentIntro)
                               and c.dref == u.resolve(hire.args[1]))
        assert secretary_intro is not None
        lawyers_intro = next(c for c in u.conds if isinstance(c, ReferentIntro)
                             and c.dref.sort == GROUP)
        assert preds["lawyer"].label == lawyers_intro.label
        c = closure(u.subord)
        top = next(l for l in u.labels() if l.is_top)
        l1 = lawyers_intro.label
        l12 = u.resolve(hire.args[0]).np_l_min
        l2 = preds["secretary"].label
        l3 = hire.label
        assert c.weakly(top, l1) and c.weakly(top, l2)
        assert c.weakly(l1, l12)
        assert c.weakly(l12, l3)
        assert c.weakly(l2, l3)
        assert check_udrs(u) == []

    def test_every_lawyer_hired_a_secretary_shape(self):
        u = analyze("Every lawyer hired a secretary.").udrs
        quants = [c for c in u.conds if isinstance(c, Quantifier)]
        assert len(quants) == 1
        hire = next(c for c in u.conds if isinstance(c, Predicate) and c.rel == "hire")
        assert all(isinstance(u.resolve(a), DiscourseReferent) for a in hire.args)

    def test_john_left_collapses_to_top_chain(self):
        u = analyze("John left.").udrs
        c = closure(u.subord)
        top = next(l for l in u.labels() if l.is_top)
        for cond in u.conds:
            assert c.weakly(top, cond.label)

    def test_interpret_fills_node_signs(self):
        (deriv,) = parse(tokenize("john left"))
        interpret(deriv, Derivation.new())
        assert deriv.sign is not None
        assert deriv.nonhead.sign is not None
        assert all(n.sign is not None for n in deriv.lexical_nodes())
