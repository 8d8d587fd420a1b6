import copy
import os
import pickle
import random
import subprocess
import sys
from types import MappingProxyType

import pytest

import udrs.core
from conftest import analyze, relations, to_constraints
from udrs.cli import CorpusCase
from udrs.core import (
    CONDITIONAL, EVERY, GROUP, STRICT, WEAK, Condition, CycleError,
    DiscourseReferent, LS, Label, Membership, Predicate, Quantifier,
    ReferentIntro, Slot, SubordConstraint, Violation, check_udrs, closure,
    conditional, fresh_label, fresh_referent, identity, make_udrs, merge,
    strict, top_label, weak,
)
from udrs.delay import PendingKey, PendingRegistry
from udrs.grammar import HEAD_COMP, LEXICAL, DerivationNode
from udrs.lexicon import Lexicon, Sign, SubcatSlot, VocabEntry
from udrs.plurals import KnowledgeRules
from udrs.principles import Derivation
from udrs.readings import DRS, DuplexCondition, enumerate_readings

SRC = os.path.dirname(os.path.dirname(udrs.core.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


def run_fresh(args: list[str], **env: str) -> str:
    """The stdout of a fresh interpreter run on args, with src on its path."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_fresh_labels_distinct():
    a, b = fresh_label(), fresh_label()
    assert a != b


def test_fresh_labels_distinct_at_scale():
    labels = [fresh_label() for _ in range(1000)]
    assert len(set(labels)) == 1000


def test_fresh_label_is_not_top():
    assert not fresh_label().is_top
    assert top_label().is_top


def test_concurrent_derivations_never_collide_on_identifiers():
    import threading
    buckets = [[] for _ in range(8)]

    def work(bucket):
        bucket.extend(fresh_label() for _ in range(500))

    threads = [threading.Thread(target=work, args=(b,)) for b in buckets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_labels = [l for b in buckets for l in b]
    assert len(set(all_labels)) == len(all_labels)


# --- Value types ------------------------------------------------------------

_EMPTY_BOX = DRS(frozenset(), frozenset(), frozenset(), frozenset())
_U = make_udrs(LS(Label(1, True), Label(2)), [weak(Label(1, True), Label(2))],
               [ReferentIntro(Label(2), DiscourseReferent(3))])
VALUES = [
    Label(5), Label(6, is_top=True), DiscourseReferent(5), DiscourseReferent(6, GROUP),
    Slot(5), weak(Label(1), Label(2)), conditional(Label(1), Label(2), Label(3), Label(4)),
    PendingKey(Label(1), Label(2)), DuplexCondition("every", _EMPTY_BOX, _EMPTY_BOX),
    LS(Label(1), Label(2)), Violation("top", "l1 does not dominate l2"),
    SubcatSlot("comp", "noun", agr="sg", bind_label=Label(4), bind_dref=DiscourseReferent(5)),
    Sign("np", (), _U, word="john"), VocabEntry("lawyers", "noun", "lawyer", plural=True),
]


@pytest.mark.parametrize("v", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_hash_as_the_tuple_of_their_fields(v):
    # Sets and dicts of these values, and so every output order, iterate as
    # they did when each was a frozen dataclass hashing that same tuple.
    assert hash(v) == hash(tuple(v)) == hash(tuple(getattr(v, f) for f in v._fields))
    assert type(v).__hash__ is tuple.__hash__
    assert type(v).__eq__ is tuple.__eq__
    with pytest.raises(AttributeError):
        setattr(v, v._fields[0], v[0])


def test_value_reprs():
    assert [repr(v) for v in VALUES[:8]] == [
        "l5", "l⊤6", "x5", "X6", "?5", "(l1 ≥ l2)", "(l1 > l2 ⇒ l3 ≥ l4)",
        "dref_res(l1,l2)"]


def test_record_reprs_name_every_field():
    u = ("UDRS(ls=LS(l_max=l⊤1, l_min=l2), subord=frozenset({(l⊤1 ≥ l2)}), "
         "conds=frozenset({[l2: x3]}), bindings=mappingproxy({}))")
    assert repr(_U) == u
    assert [repr(v) for v in VALUES[9:]] == [
        "LS(l_max=l1, l_min=l2)",
        "Violation(kind='top', detail='l1 does not dominate l2')",
        "SubcatSlot(role='comp', expects='noun', agr='sg', arg=None, bind_label=l4, "
        "bind_dref=x5)",
        f"Sign(cat='np', subcat=(), udrs={u}, agr=None, word='john', collective_subject=False)",
        "VocabEntry(word='lawyers', pos='noun', rel='lawyer', plural=True, collective_only=False)",
    ]


def test_drs_is_a_value_made_by_hand_or_built():
    """A DRS is no tuple: one that build_drs made is its box over referent
    indices and grounds its fields, and its duplexes' DRSs, on first
    access.  Either way it hashes as the tuple of its four fields, equals
    that tuple, DRS(*d) and the same DRS made the other way, both ways,
    has no field to assign, prints as DRS(referents=..., predicates=...,
    memberships=..., duplexes=...), and copies and pickles as a DRS of its
    fields."""
    x = DiscourseReferent(3)
    lawyer = DRS(frozenset([x]), frozenset([("lawyer", (x,))]), frozenset(), frozenset())
    assert repr(lawyer) == ("DRS(referents=frozenset({x3}), predicates=frozenset({('lawyer', "
                            "(x3,))}), memberships=frozenset(), duplexes=frozenset())")
    u = analyze("A lawyer left.").udrs
    (y,) = {c.dref for c in u.conds if isinstance(c, ReferentIntro)}
    (left,) = enumerate_readings(u)
    by_hand = DRS(frozenset([y]), frozenset([("lawyer", (y,)), ("leave", (y,))]),
                  frozenset(), frozenset())
    assert left == by_hand and by_hand == left and hash(left) == hash(by_hand)
    readings = enumerate_readings(analyze("Every lawyer hired a secretary.").udrs)
    for built in [left, *readings]:
        made = DRS(*built)
        assert type(made) is DRS and repr(built) == repr(made)
        assert built == made and made == built
        for dup in built.duplexes:
            assert type(dup.res) is type(dup.scope) is DRS and dup in made.duplexes
    for d in [lawyer, by_hand, left, *readings]:
        fields = tuple(d)
        assert len(fields) == 4 and hash(d) == hash(fields)
        assert d == fields and fields == d and d == DRS(*d) and DRS(*d) == d
        assert d != fields[:3] and d != list(fields)
        for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(clone) is DRS and clone == d
        for name in ("referents", "predicates", "memberships", "duplexes", "labelling"):
            with pytest.raises(AttributeError):
                setattr(d, name, frozenset())
            with pytest.raises(AttributeError):
                delattr(d, name)
    assert lawyer != by_hand and by_hand != lawyer


def test_udrs_hashes_as_its_fields_but_the_bindings():
    bound = _U._replace(bindings=MappingProxyType({Slot(7): DiscourseReferent(3)}))
    assert hash(bound) == hash((_U.ls, _U.subord, _U.conds)) == hash(_U)
    assert bound != _U == make_udrs(_U.ls, _U.subord, _U.conds)
    for field in _U._fields:
        with pytest.raises(AttributeError):
            setattr(_U, field, None)


CONDITIONS = [
    Condition(Label(1)), ReferentIntro(Label(1), DiscourseReferent(6, GROUP)),
    Predicate(Label(2), "hire", (DiscourseReferent(3), Slot(4))),
    Quantifier(Label(1), EVERY, Label(2), Label(3)),
    Membership(Label(1), DiscourseReferent(3), DiscourseReferent(6, GROUP)),
]


@pytest.mark.parametrize("c", CONDITIONS, ids=lambda c: type(c).__name__)
def test_conditions_compare_and_hash_by_identity(c):
    fields = [f for k in reversed(type(c).__mro__) for f in getattr(k, "__slots__", ())]
    twin = type(c)(*(getattr(c, f) for f in fields))
    assert [getattr(twin, f) for f in fields] == [getattr(c, f) for f in fields]
    assert twin != c and len({c, twin}) == 2
    assert hash(c) == object.__hash__(c)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(c, f, None)
        with pytest.raises(AttributeError):
            delattr(c, f)
    with pytest.raises(AttributeError):
        c.extra = None


@pytest.mark.parametrize("c", CONDITIONS, ids=lambda c: type(c).__name__)
def test_conditions_copy_and_pickle_as_new_conditions(c):
    for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(clone) is type(c) and clone is not c and repr(clone) == repr(c)


def test_condition_reprs():
    assert [repr(c) for c in CONDITIONS] == [
        "Condition(label=l1)", "[l1: X6]", "[l2: hire(x3, ?4)]",
        "[l1: every(res=l2, scope=l3)]", "[l1: x3 ∈ X6]"]


def test_constructors_take_their_field_names_as_keywords():
    slot = SubcatSlot("comp", "noun", agr="sg", bind_label=Label(4), bind_dref=DiscourseReferent(5))
    assert SubcatSlot("subj", "np", arg=Slot(3)).arg == Slot(3)
    sign = Sign("v", (slot,), _U, word="hired", collective_subject=True)
    assert sign.fill(slot, "vp", _U) == Sign("vp", (), _U, word="hired", collective_subject=True)
    assert Sign("n", (), _U, agr="pl", word="lawyers").agr == "pl"
    entry = VocabEntry(word="lawyers", pos="noun", rel="lawyer", plural=True,
                       collective_only=False)
    assert entry == VALUES[13] and entry.agr == "pl"

    leaf, verb = DerivationNode(LEXICAL, word="john"), DerivationNode(LEXICAL, word="left")
    node = DerivationNode(HEAD_COMP, head=verb, nonhead=leaf)
    assert (node.word, node.sign) == (None, None)
    assert node.children() == [verb, leaf]
    ctx = Derivation(lexicon=Lexicon.default(), top=top_label(), registry=PendingRegistry(),
                     rules=KnowledgeRules())
    assert ctx.top.is_top
    case, other = CorpusCase(name="a", lineno=3), CorpusCase("b")
    case.disambiguate.append("np1=collective")
    assert other.disambiguate == []
    assert (case.input, case.expect_readings, case.expect_udrs, case.lineno) == ("", None, None, 3)


def test_bindings_keys_and_values_never_collide():
    # A bindings map holds Slots and PendingKeys as keys and referents and
    # PendingKeys as values; labels share its uid counter.
    values = [Slot(5), Label(5), DiscourseReferent(5), PendingKey(Label(5), Label(5))]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b


def test_subord_constraint_antecedent_iff_conditional():
    a, b = Label(1), Label(2)
    with pytest.raises(ValueError, match="antecedent present iff kind is conditional"):
        SubordConstraint(CONDITIONAL, a, b)
    for kind in (WEAK, STRICT):
        with pytest.raises(ValueError, match="antecedent present iff kind is conditional"):
            SubordConstraint(kind, a, b, (a, b))
    assert SubordConstraint(CONDITIONAL, a, b, (b, a)).antecedent == (b, a)
    assert SubordConstraint(WEAK, a, b) == weak(a, b)


def test_constraint_hash_is_the_same_in_every_process():
    """With one hash seed, sets of constraints iterate alike in every
    process: no field may hash by address, as None does before Python 3.12."""
    code = ("from udrs.core import Label, weak, conditional; a, b = Label(3, True), Label(4); "
            "print(hash(weak(a, b)), hash(conditional(a, b, b, a)))")
    outs = [run_fresh(["-c", code], PYTHONHASHSEED="0") for _ in range(2)]
    assert outs[0] == outs[1] != ""


class TestClosure:
    def test_weak_transitivity(self):
        a, b, c = (fresh_label() for _ in range(3))
        derived = closure([weak(a, b), weak(b, c)])
        assert derived.weakly(a, c)
        assert not derived.strictly(a, c)

    def test_identity_substitution_composes_with_strict(self):
        a, b, c = (fresh_label() for _ in range(3))
        derived = closure([strict(a, b), identity(b, c)])
        assert derived.strictly(a, c)

    def test_strict_weak_composition_is_strict(self):
        a, b, c = (fresh_label() for _ in range(3))
        derived = closure([strict(a, b), weak(b, c)])
        assert derived.strictly(a, c)

    def test_conditional_fires_at_fixpoint(self):
        # {a > b, (a > b => t >= a)}: the antecedent holds, so t >= a joins
        a, b, t = fresh_label(), fresh_label(), fresh_label()
        derived = closure([strict(a, b), conditional(a, b, t, a)])
        assert derived.weakly(t, a)
        assert len(derived.activated) == 1

    def test_conditional_stays_inert_without_antecedent(self):
        a, b, t = fresh_label(), fresh_label(), fresh_label()
        derived = closure([weak(a, b), conditional(a, b, t, a)])
        assert not derived.weakly(t, a)
        assert derived.activated == []

    def test_chained_conditionals_iterate(self):
        # first activation derives the strict relation the second one waits on
        a, b, c, t = (fresh_label() for _ in range(4))
        derived = closure([
            strict(a, b),
            conditional(a, b, c, a),       # activates: c >= a
            strict(c, b),
            conditional(c, a, t, c),       # needs c > a: not derivable
        ])
        assert derived.weakly(c, a)
        assert not derived.weakly(t, c)

    def test_strict_cycle_raises(self):
        a, b = fresh_label(), fresh_label()
        with pytest.raises(CycleError):
            closure([strict(a, b), strict(b, a)])

    def test_strict_against_identity_raises(self):
        a, b = fresh_label(), fresh_label()
        with pytest.raises(CycleError):
            closure([strict(a, b), identity(a, b)])

    def test_reflexivity(self):
        a, b = fresh_label(), fresh_label()
        derived = closure([weak(a, b)])
        assert derived.weakly(a, a)
        assert derived.weakly(b, b)

    def test_idempotence(self):
        rng = random.Random(11)
        for _ in range(50):
            labels = [fresh_label() for _ in range(rng.randint(2, 6))]
            constraints = []
            for _ in range(rng.randint(1, 8)):
                kind = rng.choice("wwsi")
                a, b = rng.sample(labels, 2)
                ctor = {"w": weak, "s": strict, "i": identity}[kind]
                constraints.append(ctor(a, b))
            try:
                once = closure(constraints)
            except CycleError:
                continue
            twice = closure(to_constraints(once))
            assert set(relations(once)) == set(relations(twice))

    def test_identity_collapse_mirrors_relations(self):
        a, b, c, d = (fresh_label() for _ in range(4))
        derived = closure([identity(a, b), weak(c, a), strict(b, d)])
        # every relation mentioning a has the counterpart mentioning b
        assert derived.weakly(c, b) and derived.weakly(c, a)
        assert derived.strictly(a, d) and derived.strictly(b, d)


class TestCheckUdrs:
    def test_empty_with_top_is_ok(self):
        t = top_label()
        u = make_udrs(LS(t, t))
        assert check_udrs(u) == []

    def test_strict_cycle_reported_not_raised(self):
        a, b = fresh_label(), fresh_label()
        u = make_udrs(LS(a, b), [strict(a, b), strict(b, a)])
        violations = check_udrs(u)
        assert [v.kind for v in violations] == ["cycle"]

    def test_undominated_label_reported(self):
        t, a, b = top_label(), fresh_label(), fresh_label()
        u = make_udrs(LS(t, a), [weak(t, a), weak(b, a)])
        assert any(v.kind == "top" for v in check_udrs(u))

    def test_condition_label_outside_domain_reported(self):
        t, a, orphan = top_label(), fresh_label(), fresh_label()
        x = fresh_referent()
        u = make_udrs(LS(t, a), [weak(t, a)],
                      [Predicate(orphan, "p", (x,))])
        assert any(v.kind == "orphan" for v in check_udrs(u))


class TestMerge:
    def test_empty_is_identity_element(self):
        t = top_label()
        a = fresh_label()
        x = fresh_referent()
        u = make_udrs(LS(t, a), [weak(t, a)], [Predicate(a, "p", (x,))])
        empty = make_udrs(LS(t, t))
        subord, conds, bindings = merge(u, empty)
        assert subord == u.subord
        assert conds == u.conds
        assert bindings == u.bindings

    def test_union_bounds(self):
        def mk():
            a, b = fresh_label(), fresh_label()
            return make_udrs(LS(a, b), [weak(a, b)],
                             [Predicate(b, "p", (fresh_referent(),))])
        u1, u2 = mk(), mk()
        subord, conds, _ = merge(u1, u2)
        assert len(conds) == len(u1.conds) + len(u2.conds)  # label-disjoint
        assert len(subord) <= len(u1.subord) + len(u2.subord)
        merged_self = merge(u1, u1)
        assert merged_self == (u1.subord, u1.conds, u1.bindings)

    def test_merge_is_monotone(self):
        a, b = fresh_label(), fresh_label()
        u1 = make_udrs(LS(a, a), [weak(a, b)])
        u2 = make_udrs(LS(b, b), [strict(a, b)])
        subord, conds, _ = merge(u1, u2)
        assert subord >= u1.subord and subord >= u2.subord
        assert conds >= u1.conds and conds >= u2.conds

    def test_merge_of_verb_and_quantifier_entries(self):
        from udrs.core import Quantifier, ReferentIntro
        from udrs.lexicon import Lexicon
        lex = Lexicon.default()
        verb, det = lex.sign("hired"), lex.sign("every")
        subord, conds, _ = merge(verb.udrs, det.udrs)
        rels = {c.rel for c in conds if isinstance(c, Predicate)}
        assert "hire" in rels
        assert any(isinstance(c, Quantifier) for c in conds)
        assert any(isinstance(c, ReferentIntro) for c in conds)
        assert subord == det.udrs.subord  # the verb entry contributes none


def test_star_import_binds_no_module():
    import ast
    import json
    import pathlib
    import re
    import types

    import udrs

    # in a fresh interpreter, where no reading or serialization name has been
    # used yet, dir() lists them all and the star import resolves them all
    code = ("import json, types, udrs; listed = set(dir(udrs)); ns = {}; "
            "exec('from udrs import *', ns); ns.pop('__builtins__'); "
            "print(json.dumps([sorted(ns), sorted(set(udrs.__all__) - listed), "
            "[n for n, v in ns.items() if isinstance(v, types.ModuleType)]]))")
    names, unlisted, modules = json.loads(run_fresh(["-c", code]))
    assert not modules and not unlisted
    assert names == sorted(udrs.__all__)
    # every name but a submodule that the README, the benchmark or the tests
    # import from udrs is exported
    root = pathlib.Path(__file__).resolve().parent.parent
    imported = set()
    for path in [*root.glob("tests/*.py"), *root.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "udrs":
                imported.update(a.name for a in node.names)
    readme = (root / "README.md").read_text("utf-8")
    for names in re.findall(r"^from udrs import (.+)$", readme, re.M):
        imported.update(n.strip() for n in names.split(","))
    submodules = {n for n in imported if isinstance(getattr(udrs, n, None), types.ModuleType)}
    assert imported - submodules <= set(udrs.__all__)
    assert len(imported - submodules) > 40


def test_cold_start_loads_only_the_construction_layers():
    # without cached bytecode, as the benchmark's set-up probe runs
    out = run_fresh([os.path.join(TESTS, "cold_start.py")], PYTHONDONTWRITEBYTECODE="1")
    assert out == "cold start ok\n"
