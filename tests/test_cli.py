import json
import os
import re
import subprocess
import sys
from importlib import resources

import pytest

import udrs
from conftest import golden_path
from udrs.cli import Session, _read_corpus, build_session, run
from udrs.plurals import KnowledgeRules


def read_golden(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        return fh.read()


class TestParseCommand:
    def test_json_output_matches_golden_11(self, capsys):
        assert run(["parse", "The lawyers hired a secretary.", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == read_golden("udrs_11.json")

    def test_collective_readings(self, capsys):
        status = run(["parse", "The lawyers hired a secretary.",
                      "--disambiguate", "np1=collective", "--readings"])
        assert status == 0
        out = capsys.readouterr().out
        assert "1 reading(s)" in out
        assert "hire(X0, x1)" in out

    def test_two_readings_enumerated(self, capsys):
        assert run(["parse", "Every lawyer hired a secretary.", "--readings"]) == 0
        out = capsys.readouterr().out
        assert "2 reading(s)" in out
        assert out.count("reading ") == 2

    def test_json_with_readings_wraps_both(self, capsys):
        assert run(["parse", "Every lawyer hired a secretary.",
                    "--json", "--readings"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"udrs", "readings"}
        assert len(doc["readings"]) == 2

    def test_both_json_outputs_write_non_ascii_text_as_is(self, tmp_path, capsys):
        lexicon = tmp_path / "cafe.lex"
        fragment = resources.files("udrs.data").joinpath("fragment.lex").read_text("utf-8")
        lexicon.write_text(fragment + "café noun café\n", encoding="utf-8")
        args = ["parse", "John met a café.", "--lexicon", str(lexicon), "--json"]
        assert run(args) == 0
        alone = capsys.readouterr().out
        assert run(args + ["--readings"]) == 0
        wrapped = capsys.readouterr().out
        for out in (alone, wrapped):
            assert '"café"' in out and "\\u" not in out
        assert json.loads(wrapped)["udrs"] == json.loads(alone)

    def test_dot_output(self, capsys):
        assert run(["parse", "The lawyers hired a secretary.", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "style=dashed" in out

    def test_trace_syntax(self, capsys):
        assert run(["parse", "John left.", "--trace-syntax"]) == 0
        out = capsys.readouterr().out
        assert "[head_subj" in out and "(john)" in out

    def test_trace_semantics(self, capsys):
        assert run(["parse", "Every lawyer hired a secretary.",
                    "--trace-semantics"]) == 0
        out = capsys.readouterr().out
        assert "head_subj" in out
        assert ">=" in out

    def test_trace_semantics_shows_what_sequencing_decides(self, capsys, corpus_rules):
        """A discourse line holds exactly the constraints of the plural
        decision sequencing made there, and a step that decides nothing
        prints none."""
        assert run(["parse", "The lawyers hired a secretary. They shared an office.",
                    "--rules", corpus_rules, "--trace-semantics"]) == 0
        trace = capsys.readouterr().out
        assert [l for l in trace.splitlines() if l.startswith("discourse")] == [
            "discourse 2: +{l1 = l10}"]  # the continuation rule makes np1 collective
        assert run(["parse", "The lawyers hired a secretary.",
                    "--disambiguate", "np1=distributive", "--trace-semantics"]) == 0
        trace = capsys.readouterr().out
        assert [l for l in trace.splitlines() if l.startswith("discourse")] == [
            "discourse 1: +{l1 > l3, l1 > l6}"]
        assert run(["parse", "John left. Mary left.", "--trace-semantics"]) == 0
        assert "discourse" not in capsys.readouterr().out

    def test_rules_flag(self, capsys, corpus_rules):
        status = run(["parse",
                      "The lawyers hired a secretary. They shared an office.",
                      "--rules", corpus_rules, "--readings"])
        assert status == 0
        assert "1 reading(s)" in capsys.readouterr().out

    def test_parse_failure_exits_1(self, capsys):
        assert run(["parse", "colorless green ideas"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_pending_readings_exit_1(self, capsys):
        assert run(["parse", "The lawyers hired a secretary.", "--readings"]) == 1
        assert capsys.readouterr().err == (
            "error: 1 unresolved argument slot(s); disambiguate first\n")

    def test_bad_disambiguation_spec(self, capsys):
        assert run(["parse", "John left.", "--disambiguate", "np1=upside-down"]) == 1
        assert run(["parse", "John left.", "--disambiguate", "np1=collective"]) == 1

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["parse", "John left.", "--disambiguate"])  # missing value
        assert info.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"case: caf\xe9\ninput: John left.\n")
        assert run(["parse", "John left.", "--rules", missing]) == 1
        assert run(["corpus", missing]) == 1
        assert run(["corpus", str(latin1)]) == 1
        assert capsys.readouterr().err.count("error: ") == 3

    def test_entry_without_rel_exits_1(self, tmp_path):
        lexicon = tmp_path / "dash.lex"
        lexicon.write_text("john name john\nleft verb-intrans -\nmary name -\n")
        src = os.path.dirname(os.path.dirname(udrs.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "udrs", "parse", "John left.",
                               "--lexicon", str(lexicon)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {lexicon}:2: a verb-intrans entry needs a rel, not '-'\n"

    def test_corpus_reader_rejects_non_utf8(self, tmp_path):
        from udrs.core import EncodingError
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes(b"case: c\ninput: John left.\xff\n")
        with pytest.raises(EncodingError, match="latin1.txt: not UTF-8"):
            _read_corpus(str(corpus))

    def test_no_input_exits_1(self, capsys):
        assert run(["parse"]) == 1
        assert "no input" in capsys.readouterr().err

    def test_corpus_is_a_command_not_a_parse_option(self):
        with pytest.raises(SystemExit) as info:
            run(["parse", "--corpus", golden_path("corpus.txt")])
        assert info.value.code == 2


class TestCorpusCommand:
    def test_golden_corpus_passes(self, capsys, corpus_rules):
        status = run(["corpus", golden_path("corpus.txt"), "--rules", corpus_rules])
        out = capsys.readouterr().out
        assert status == 0, out
        assert "FAIL" not in out
        assert out.count("PASS") == len([l for l in read_golden("corpus.txt")
                                         .splitlines() if l.startswith("case:")])

    def test_golden_corpus_without_rules_fails_the_rule_case(self, capsys):
        assert run(["corpus", golden_path("corpus.txt")]) == 1
        fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
        assert fails == ["FAIL discourse-collective-by-rule: "
                         "1 unresolved argument slot(s); disambiguate first"]

    def test_mismatch_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("case: wrong\ninput: John left.\nexpect-readings: 7\n")
        assert run(["corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "FAIL wrong" in out

    def test_udrs_mismatch_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("case: wrong-udrs\ninput: John left.\n"
                          f"expect-udrs: {golden_path('udrs_11.json')}\n")
        assert run(["corpus", str(corpus)]) == 1
        assert "udrs mismatch" in capsys.readouterr().out

    def test_expected_udrs_not_json_fails_the_case(self, tmp_path, capsys):
        (tmp_path / "expected.json").write_text("not json")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("case: bad-expectation\ninput: John left.\n"
                          "expect-udrs: expected.json\n\n"
                          "case: fine\ninput: John left.\nexpect-readings: 1\n")
        assert run(["corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "FAIL bad-expectation: expect-udrs expected.json is not JSON: "
            "Expecting value: line 1 column 1 (char 0)",
            "PASS fine"]

    def test_expected_udrs_unreadable_fails_the_case(self, tmp_path, capsys):
        (tmp_path / "a-directory.json").mkdir()
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("case: missing\ninput: John left.\nexpect-udrs: missing.json\n\n"
                          "case: directory\ninput: John left.\nexpect-udrs: a-directory.json\n\n"
                          "case: fine\ninput: John left.\nexpect-readings: 1\n")
        assert run(["corpus", str(corpus)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("FAIL missing: expect-udrs missing.json cannot be read: "
                          "No such file or directory")
        assert out[1].startswith("FAIL directory: expect-udrs a-directory.json cannot be read: ")
        assert out[2:] == ["PASS fine"]

    def test_malformed_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("case: no-input\nexpect-readings: 1\n")
        assert run(["corpus", str(corpus)]) == 1


class TestSession:
    def test_discourse_accumulates_by_coordination(self):
        session, roots = build_session("John left. Mary left.")
        s1, s2 = (root.sign for root in roots)
        assert session.udrs.conds == s1.udrs.conds | s2.udrs.conds
        assert session.udrs.subord >= s1.udrs.subord | s2.udrs.subord
        assert session.udrs.ls.l_max.is_top

    def test_sentences_share_one_top(self):
        session, _ = build_session("John left. Mary left.")
        tops = [l for l in session.udrs.labels() if l.is_top]
        assert len(tops) == 1

    def test_session_leaves_the_callers_rules_alone(self):
        rules = KnowledgeRules()
        Session(None, rules)
        assert rules.subject_rules == {}

    def test_disambiguate_unknown_index(self):
        session, _ = build_session("The lawyers hired a secretary.")
        from udrs import UDRSError
        with pytest.raises(UDRSError):
            session.disambiguate(2, "collective")


class TestDirectives:
    """``--disambiguate`` and corpus ``disambiguate:`` lines are rule overrides
    applied during sequencing, ahead of every rule."""

    RULE_CASE = "The lawyers hired a secretary. They shared an office."

    def test_directive_wins_over_a_continuation_rule(self, capsys, corpus_rules):
        argv = ["parse", self.RULE_CASE, "--disambiguate", "np1=distributive",
                "--readings"]
        assert run(argv + ["--rules", corpus_rules]) == 0
        with_rules = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == with_rules  # the rule never fired
        assert "18 reading(s)" in with_rules

    def test_directed_reading_count_matches_the_oracle(self):
        from conftest import analyze
        from oracle import oracle_count
        u = analyze(self.RULE_CASE, disambiguate=((1, "distributive"),)).udrs
        assert oracle_count(u) == 18

    def test_directive_against_the_verb_fails_with_display_names(self, capsys):
        assert run(["parse", "The lawyers gathered.", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"kind": "identity", "left": "l1", "right": "l4"} in doc["subord"]
        assert run(["parse", "The lawyers gathered.",
                    "--disambiguate", "np1=distributive"]) == 1
        assert capsys.readouterr().err == "error: l1/l4 already classified\n"

    def test_directive_agreeing_with_the_verb_is_accepted(self, capsys):
        assert run(["parse", "The lawyers gathered."]) == 0
        plain = capsys.readouterr().out
        assert run(["parse", "The lawyers gathered.",
                    "--disambiguate", "np1=collective"]) == 0
        assert capsys.readouterr().out == plain

    def test_collective_only_clause_verb_decides_at_linking(self, tmp_path, capsys):
        fragment = resources.files("udrs.data").joinpath("fragment.lex").read_text("utf-8")
        lexicon = tmp_path / "conspire.lex"
        lexicon.write_text(fragment + "conspired verb-clause conspire collective-only\n")
        argv = ["parse", "The lawyers conspired that John left.", "--lexicon", str(lexicon)]
        assert run(argv + ["--trace-semantics"]) == 0
        trace = capsys.readouterr().out
        assert "    head_subj  +{(l1 > l8 => l5 >= l1), l1 = l8, l8 >= l3}\n" in trace
        assert "discourse" not in trace  # linking decided it; sequencing adds nothing
        assert run(argv + ["--disambiguate", "np1=distributive"]) == 1
        assert capsys.readouterr().err == "error: l1/l8 already classified\n"

    def test_conflicting_directives_rejected(self, capsys):
        assert run(["parse", "The lawyers hired a secretary.",
                    "--disambiguate", "np1=collective",
                    "--disambiguate", "np1=distributive"]) == 1
        assert "conflicting directives for np1" in capsys.readouterr().err

    def test_corpus_directive_wins_over_a_rule(self, tmp_path, capsys, corpus_rules):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"case: directed\ninput: {self.RULE_CASE}\n"
                          "disambiguate: np1=distributive\nexpect-readings: 18\n")
        assert run(["corpus", str(corpus), "--rules", corpus_rules]) == 0
        assert capsys.readouterr().out == "PASS directed\n"


def _run_python(args):
    src = os.path.dirname(os.path.dirname(udrs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_python_dash_m_udrs_runs_the_command_line(capsys):
    proc = _run_python(["-m", "udrs", "parse", "John left."])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert run(["parse", "John left."]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_readme_library_sketch_prints_what_its_comments_say():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        (block,) = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    # tag each print whose comment starts with a count: "print(...)  # 2: ..."
    counted = re.compile(r"^print\((.*)\)\s+# (\d+)\b")
    expected, lines = [], []
    for line in block.splitlines():
        m = counted.match(line)
        if m:
            expected.append(int(m.group(2)))
            line = f"print('#>', {m.group(1)})"
        lines.append(line)
    proc = _run_python(["-c", "\n".join(lines)])
    assert proc.returncode == 0, proc.stderr
    printed = [int(l.split()[1]) for l in proc.stdout.splitlines() if l.startswith("#> ")]
    assert expected and printed == expected
