"""Command-line front end.

Subcommands: ``parse`` builds the UDRS for a sentence or short discourse and
prints it as text, JSON or DOT, optionally disambiguating plurals and
enumerating readings; ``corpus`` runs a golden regression file and exits
nonzero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

from .core import UDRS, UDRSError, read_text
from .grammar import COORD, DerivationNode, ParseFailure, bracketed, parse, tokenize
from .lexicon import Lexicon, Sign
from .plurals import (
    COLLECTIVE, DISAMBIGUATE, DISTRIBUTIVE, KnowledgeRules, PluralTarget,
    target_for,
)
from .principles import Derivation, combine_coord, empty_discourse, interpret
from .readings import count_readings, drs_to_json, enumerate_readings, render_drs
from .serialize import (
    constraint_text, display_names, render_text, to_dot, to_json, to_json_str,
)


class Session:
    """Discourse state accumulated across input sentences.

    After each sentence the session UDRS is the coordination of the previous
    session UDRS with the new sentence sign's UDRS.
    """

    def __init__(self, lexicon: Optional[Lexicon] = None,
                 rules: Optional[KnowledgeRules] = None):
        self.ctx = Derivation.new(lexicon, rules)
        self.discourse: Sign = empty_discourse(self.ctx)
        self.sentence_signs: list[Sign] = []
        self.coord_deltas: list[tuple] = []
        self.coord_cond_deltas: list[tuple] = []
        self.parses = 1  # of the input text; build_session keeps the first

    @property
    def udrs(self) -> UDRS:
        return self.discourse.udrs

    def add(self, sentence_root: DerivationNode) -> Sign:
        sign = interpret(sentence_root, self.ctx)
        result = combine_coord(self.discourse, sign, self.ctx)
        self.discourse = result.sign
        self.sentence_signs.append(sign)
        self.coord_deltas.append(tuple(result.introduced_constraints))
        self.coord_cond_deltas.append(tuple(result.introduced_conditions))
        return sign

    def plural_targets(self) -> list[PluralTarget]:
        """Plural NPs in order of appearance, disambiguated or not."""
        targets = []
        for key in self.ctx.registry.all_keys():
            targets.append(target_for(self.udrs, key.np_l_max, key.np_l_min))
        return targets

    def disambiguate(self, index: int, verdict: str) -> None:
        """Apply a reading to the index-th plural NP (1-based).

        The session moves on to a new UDRS value; earlier values, such as
        one read from ``udrs`` before this call, stay as they were.
        """
        if verdict not in DISAMBIGUATE:
            raise UDRSError(f"unknown reading {verdict!r}")
        targets = self.plural_targets()
        if not 1 <= index <= len(targets):
            raise UDRSError(f"no plural NP #{index} (found {len(targets)})")
        u = DISAMBIGUATE[verdict](self.udrs, targets[index - 1])
        self.discourse = replace(self.discourse, udrs=u)
        self.ctx.registry.discourse = u


def sentence_roots(node: DerivationNode) -> list[DerivationNode]:
    if node.construction == COORD:
        return sentence_roots(node.head) + sentence_roots(node.nonhead)
    return [node]


def build_session(text: str, lexicon: Optional[Lexicon] = None,
                  rules: Optional[KnowledgeRules] = None,
                  ) -> tuple[Session, list[DerivationNode]]:
    derivations = parse(tokenize(text), lexicon or Lexicon.default())
    if not derivations:
        raise ParseFailure(0, "no input")
    roots = sentence_roots(derivations[0])
    session = Session(lexicon, rules)
    session.parses = len(derivations)
    for root in roots:
        session.add(root)
    return session, roots


def build_directed_session(text: str, specs: list[str],
                           lexicon: Optional[Lexicon] = None,
                           rules: Optional[KnowledgeRules] = None,
                           ) -> tuple[Session, list[DerivationNode]]:
    """build_session with ``np<k>=reading`` directives as rule overrides.

    Sequencing applies each directive when it meets the plural, ahead of any
    rule, so an explicit directive always wins over the rules file.
    """
    directives: dict[int, str] = {}
    for spec in specs:
        index, verdict = _parse_disambiguation(spec)
        if directives.setdefault(index, verdict) != verdict:
            raise UDRSError(f"conflicting directives for np{index}")
    if directives:
        rules = (rules or KnowledgeRules()).with_overrides(directives)
    session, roots = build_session(text, lexicon, rules)
    found = len(session.ctx.registry.all_keys())
    for index in sorted(directives):
        if not 1 <= index <= found:
            raise UDRSError(f"no plural NP #{index} (found {found})")
    return session, roots


def _parse_disambiguation(spec: str) -> tuple[int, str]:
    try:
        name, verdict = spec.split("=", 1)
        if not name.startswith("np"):
            raise ValueError
        index = int(name[2:])
        if verdict not in (COLLECTIVE, DISTRIBUTIVE):
            raise ValueError
        return index, verdict
    except ValueError:
        raise UDRSError(
            f"bad --disambiguate value {spec!r}; expected np<k>=collective|distributive"
        ) from None


def _trace_semantics(session: Session, roots: list[DerivationNode]) -> str:
    names = display_names(session.udrs)
    lines = []

    def text(c) -> str:
        def n(l):
            return names.get(l, repr(l))
        return constraint_text(c.kind, n(c.left), n(c.right),
                               [n(l) for l in c.antecedent or ()])

    def walk(node: DerivationNode, depth: int) -> None:
        pad = "  " * depth
        if node.construction == "lexical":
            lines.append(f"{pad}{node.word}")
            return
        delta = ", ".join(sorted(text(c) for c in node.introduced))
        lines.append(f"{pad}{node.construction}" + (f"  +{{{delta}}}" if delta else ""))
        for child in node.children():
            walk(child, depth + 1)

    for i, root in enumerate(roots, 1):
        lines.append(f"sentence {i}:")
        walk(root, 1)
    for i, delta in enumerate(session.coord_deltas, 1):
        if delta:
            shown = ", ".join(sorted(text(c) for c in delta))
            lines.append(f"discourse {i}: +{{{shown}}}")
    return "\n".join(lines) + "\n"


def _note_parses(session: Session) -> None:
    if session.parses > 1:
        print(f"note: {session.parses} parses; using the first", file=sys.stderr)


def cmd_parse(args: argparse.Namespace) -> int:
    lexicon = Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon.default()
    rules = KnowledgeRules.from_file(args.rules) if args.rules else None
    if args.text is None:
        raise UDRSError("no input: give a sentence")
    session, roots = build_directed_session(args.text, args.disambiguate or [],
                                            lexicon, rules)
    _note_parses(session)
    u = session.udrs

    if args.trace_syntax:
        for root in roots:
            print(bracketed(root))
    if args.trace_semantics:
        print(_trace_semantics(session, roots), end="")

    if args.dot:
        print(to_dot(u), end="")
        return 0

    readings = None
    if args.readings:
        readings = enumerate_readings(u)

    if args.json:
        if readings is None:
            print(to_json_str(u), end="")
        else:
            doc = {"udrs": to_json(u),
                   "readings": [drs_to_json(d) for d in readings]}
            print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print(render_text(u), end="")
        if readings is not None:
            print(f"\n{len(readings)} reading(s)")
            for i, d in enumerate(readings, 1):
                print(f"\nreading {i}:")
                print(render_drs(d))
    return 0


@dataclass
class CorpusCase:
    name: str
    input: str = ""
    disambiguate: list[str] = field(default_factory=list)
    expect_readings: Optional[int] = None
    expect_udrs: Optional[str] = None
    lineno: int = 0


def _read_corpus(path: str) -> list[CorpusCase]:
    cases: list[CorpusCase] = []
    current: Optional[CorpusCase] = None
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            current = None
            continue
        if ":" not in line:
            raise UDRSError(f"{path}:{lineno}: expected 'field: value'")
        key, value = (s.strip() for s in line.split(":", 1))
        if current is None:
            current = CorpusCase(name=f"case-{len(cases) + 1}", lineno=lineno)
            cases.append(current)
        if key == "case":
            current.name = value
        elif key == "input":
            current.input = value
        elif key == "disambiguate":
            current.disambiguate.extend(value.split())
        elif key == "expect-readings":
            try:
                current.expect_readings = int(value)
            except ValueError:
                raise UDRSError(f"{path}:{lineno}: expect-readings needs a "
                                f"count, got {value!r}") from None
        elif key == "expect-udrs":
            current.expect_udrs = value
        else:
            raise UDRSError(f"{path}:{lineno}: unknown field {key!r}")
    for case in cases:
        if not case.input:
            raise UDRSError(f"{path}:{case.lineno}: case {case.name!r} has no input")
    return cases


def run_corpus(path: str, lexicon: Optional[Lexicon] = None,
               rules: Optional[KnowledgeRules] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    base = os.path.dirname(os.path.abspath(path))
    failures = 0
    for case in _read_corpus(path):
        problems = []
        try:
            session, _ = build_directed_session(case.input, case.disambiguate,
                                                lexicon, rules)
            _note_parses(session)
            if case.expect_udrs is not None:
                expected = json.loads(read_text(os.path.join(base, case.expect_udrs)))
                got = to_json(session.udrs)
                if got != expected:
                    problems.append("udrs mismatch")
            if case.expect_readings is not None:
                n = count_readings(session.udrs)
                if n != case.expect_readings:
                    problems.append(f"readings: got {n}, "
                                    f"expected {case.expect_readings}")
        except UDRSError as e:
            problems.append(str(e))
        except json.JSONDecodeError as e:
            problems.append(f"expect-udrs {case.expect_udrs} is not JSON: {e}")
        if problems:
            failures += 1
            print(f"FAIL {case.name}: {'; '.join(problems)}", file=out)
        else:
            print(f"PASS {case.name}", file=out)
    return 1 if failures else 0


def cmd_corpus(args: argparse.Namespace) -> int:
    lexicon = Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon.default()
    rules = KnowledgeRules.from_file(args.rules) if args.rules else None
    return run_corpus(args.file, lexicon, rules)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="udrs",
        description="Build underspecified discourse representations for a "
                    "small English fragment and enumerate their readings.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse text and print its UDRS")
    p.add_argument("text", nargs="?", help="sentence or discourse to analyze")
    p.add_argument("--json", action="store_true", help="print canonical JSON")
    p.add_argument("--dot", action="store_true", help="print Graphviz DOT")
    p.add_argument("--readings", action="store_true",
                   help="enumerate fully scoped readings")
    p.add_argument("--trace-syntax", action="store_true",
                   help="print the derivation tree")
    p.add_argument("--trace-semantics", action="store_true",
                   help="print per-node constraint deltas")
    p.add_argument("--disambiguate", action="append", metavar="npK=READING",
                   help="force np<k> collective or distributive (repeatable)")
    p.add_argument("--rules", help="knowledge rules file")
    p.add_argument("--lexicon", help="vocabulary file (default: built-in fragment)")
    p.set_defaults(func=cmd_parse)

    c = sub.add_parser("corpus", help="run a golden regression corpus")
    c.add_argument("file", help="corpus file")
    c.add_argument("--rules", help="knowledge rules file")
    c.add_argument("--lexicon", help="vocabulary file")
    c.set_defaults(func=cmd_corpus)
    return ap


def run(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UDRSError, OSError) as e:  # unreadable input files
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
