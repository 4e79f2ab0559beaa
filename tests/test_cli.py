"""Driver behavior: commands, exit codes, JSON output, configuration."""

import json
import pathlib
import re
import time

import jsonschema
import pytest

from pilly.cli import main

GOOD = """
type N = all a. (a -o a) -> a -o a
term id : all a. a -o a = /\\a. fn x:a. x
term zero : N = /\\a. lam f:a -o a. fn x:a. x
rel RW : Rel(I, I)
rel EQ = (x:I, y:I). x =_{I} y
#check id
#equal id [I] <> == <>
#normalize (fn x:I. x) <>
#admissible EQ
#schema identity-extension all a. a
#schema parametricity all b. (b -> b) -> b
#schema lrl id
"""

BAD_TYPES = "term broken = fn x:I. x x\n"
UNKNOWN_EQ = ("term om = Y [I] !(lam w:I. w)\n"
              "#equal om == <>\n")


def run_json(argv, capsys):
    """Exit code and report lines of one `pilly --json` run."""
    rc = main(["--json"] + argv)
    return rc, [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]


FILE = "<file>"


def assert_same_as_directive(write, capsys, decls, directive, command,
                             flags=()):
    """`command`, with FILE standing for a file holding `decls` and
    `directive`, prints what `pilly check` prints for that directive:
    target, kind, status and message."""
    f = write("d.pilly", decls + directive + "\n")
    rc_check, lines = run_json([*flags, "check", f], capsys)
    rc_cmd, got = run_json([*flags, *(f if a == FILE else a for a in command)],
                           capsys)
    key = ("target", "kind", "status", "message")
    want = [tuple(e[k] for k in key) for e in lines
            if e["kind"].startswith("#")]
    assert [tuple(e[k] for k in key) for e in got] == want
    assert rc_cmd == rc_check
    return got[0]


@pytest.fixture()
def write(tmp_path):
    def go(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return go


class TestCheck:
    def test_clean_file_exits_zero(self, write, capsys):
        f = write("good.pilly", GOOD)
        assert main(["check", f]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_empty_file_ok(self, write):
        assert main(["check", write("empty.pilly", "")]) == 0

    def test_type_error_exits_one(self, write, capsys):
        assert main(["check", write("bad.pilly", BAD_TYPES)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_is_warning_by_default(self, write, capsys):
        f = write("unk.pilly", UNKNOWN_EQ)
        assert main(["check", f]) == 0
        assert "unknown" in capsys.readouterr().out

    def test_strict_promotes_unknown(self, write):
        f = write("unk.pilly", UNKNOWN_EQ)
        assert main(["--strict", "check", f]) == 1

    def test_multiple_files_processed(self, write, capsys):
        f1 = write("a.pilly", "term a = <>\n")
        f2 = write("b.pilly", "term b = Y\n")
        assert main(["check", f1, f2]) == 0
        out = capsys.readouterr().out
        assert ":a" in out and ":b" in out

    @pytest.mark.parametrize("depth", [200, 2000])
    def test_deep_nesting_is_a_located_parse_error(self, write, capsys,
                                                   depth):
        src = "term t = " + "(" * depth + "<>" + ")" * depth + "\n"
        assert main(["check", write("deep.pilly", src)]) == 1
        out = capsys.readouterr().out
        located = re.search(r"\b1:(\d+): nesting too deep", out)
        assert located and int(located.group(1)) > len("term t = ")
        assert "internal error" not in out

    def test_relation_arity_error_is_not_backtracked(self, write, capsys):
        """Once `]` closes a relational interpretation, its arity error
        stands: no other reading of the relation replaces it."""
        f = write("arity.pilly", "rel R : Rel(I, I)\nrel S : AdmRel(I, I)\n"
                  "rel H = (I -o I)[R, S]\n")
        assert main(["check", f]) == 1
        out = capsys.readouterr().out
        assert ("3:17: type has 0 free type variable(s) but 2 relation(s) "
                "were supplied") in out
        assert "expected a relation" not in out

    def test_synonym_does_not_capture_its_free_variables(self, write,
                                                          capsys):
        """`a` is free in Sa, and stays free where Sa is used under a
        binder of the same name."""
        f = write("syn.pilly", "type Sa = a -o a\ntype U = all a. Sa\n"
                  "term k : U = /\\a. fn x:a. x\n")
        rc, lines = run_json(["check", f], capsys)
        assert rc == 1
        status = {e["target"].rsplit(":", 1)[1]: e for e in lines}
        assert [status[n]["status"] for n in ("Sa", "U", "k")] == \
            ["error"] * 3
        assert all("UnboundVariable" in status[n]["message"]
                   for n in ("Sa", "U"))

    def test_claimed_type_is_kind_checked(self, write, capsys):
        """A term's declared type naming an unbound type variable is a
        located UnboundVariable, not a type mismatch."""
        f = write("kc.pilly", "term k : b -o b = fn x:I. x\n"
                  "term j : c = <>\nterm u : I = <>\n")
        rc, lines = run_json(["check", f], capsys)
        assert rc == 1
        assert [(e["status"], e["message"]) for e in lines] == [
            ("error", "1:10: UnboundVariable: type variable 'b' is not in "
             "scope"),
            ("error", "2:10: UnboundVariable: type variable 'c' is not in "
             "scope"),
            ("ok", ": I")]

    def test_unbound_type_variable_is_located_at_its_occurrence(
            self, write, capsys):
        """Inside a type with no span of its own, an unbound variable is
        reported where it occurs; one that a synonym brings in from
        another declaration is reported at the type that uses it."""
        f = write("occ.pilly", "term m : !(I * d) = <>\n"
                  "term f = fn x: I -o q. x\n"
                  "type Sa = a -o a\nterm g = fn x: Sa. x\n"
                  "rel R : Rel(I, q)\n")
        rc, lines = run_json(["check", f], capsys)
        assert rc == 1
        assert [e["message"].split(": ")[0] for e in lines] == [
            "1:16", "2:21", "3:11", "4:10", "5:16"]
        assert all("UnboundVariable" in e["message"] for e in lines)

    def test_directive_error_is_located_in_its_file(self, write, capsys):
        """A directive's error carries its line and column, as a
        declaration's does; a command's arguments are not the file, so
        the same error there stays unlocated."""
        f = write("dir.pilly", "term t = fn y: !q. y\n#check fn y: !q. y\n"
                  "#normalize fn y: !q. y\n")
        rc, lines = run_json(["check", f], capsys)
        assert rc == 1
        assert [e["message"].split(": ")[0] for e in lines] == [
            "1:17", "2:15", "3:19"]
        rc, lines = run_json(["schema", "lrl", "fn y: !q. y"], capsys)
        assert rc == 1
        assert lines[-1]["message"].startswith("UnboundVariable: ")

    def test_misspelt_directive_is_a_located_error(self, write, capsys):
        """`#` directly followed by a letter is a directive, so a
        misspelt one is reported, not skipped as a comment."""
        f = write("typo.pilly", "term a = <>\n#eqaul a == fn x:I. x\n")
        assert main(["check", f]) == 1
        assert "2:1: unknown directive 'eqaul'" in capsys.readouterr().out

    def test_check_prints_inferred_type_of_y(self, write, capsys):
        f = write("y.pilly", "term y2 = Y\n#check y2\n")
        assert main(["check", f]) == 0
        assert "all a. !(!a -o a) -o a" in capsys.readouterr().out


class TestJson:
    def test_lines_validate_against_shipped_schema(self, write, capsys):
        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "src" / "pilly"
             / "report-schema.json").read_text())
        f = write("good.pilly", GOOD)
        assert main(["--json", "check", f]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            jsonschema.validate(json.loads(line), schema)

    def test_error_reports_also_validate(self, write, capsys):
        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "src" / "pilly"
             / "report-schema.json").read_text())
        f = write("bad.pilly", BAD_TYPES)
        assert main(["--json", "check", f]) == 1
        for line in capsys.readouterr().out.strip().splitlines():
            jsonschema.validate(json.loads(line), schema)

    def test_options_do_not_leak_between_calls(self, write, capsys):
        """The argument parser is built once per process; each call
        still starts from the defaults."""
        f = write("unk.pilly", UNKNOWN_EQ)
        rc, lines = run_json(["--strict", "check", f], capsys)
        assert rc == 1 and [e["status"] for e in lines] == ["ok", "unknown"]
        assert main(["check", f]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and not any(ln.startswith("{") for ln in out)
        assert main(["--json", "encode", "unit"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert main(["encode", "unit"]) == 0
        assert capsys.readouterr().out.startswith("[ok] encode unit")

    def test_entry_seconds_fit_in_wall_time(self, capsys):
        t0 = time.perf_counter()
        rc, entries = run_json(["check"], capsys)
        wall = time.perf_counter() - t0
        assert rc == 0
        assert sum(e["seconds"] for e in entries) <= wall
        files = [e["target"].split(":", 1)[0] for e in entries]
        assert files == sorted(files)
        assert len(set(files)) == 10


class TestNormalize:
    def test_normalizes_declared_term(self, write, capsys):
        f = write("n.pilly", "term t = (fn x:I. x) <>\n")
        assert main(["normalize", f, "t"]) == 0
        assert "<>" in capsys.readouterr().out

    def test_inlines_earlier_declarations(self, write, capsys):
        f = write("n.pilly",
                  "term id2 = fn x:I. x\nterm t = id2 <>\n")
        assert main(["normalize", f, "t"]) == 0
        out = capsys.readouterr().out
        assert "<>" in out and "id2" not in out.split("--")[-1]

    def test_missing_name(self, write):
        assert main(["normalize", write("n.pilly", ""), "nope"]) == 1

    def test_unparsable_file_reported_once(self, write, capsys):
        rc, got = run_json(["normalize", write("n.pilly", "term = \n"), "t"],
                           capsys)
        assert rc == 1
        assert [(e["kind"], e["status"], e["message"]) for e in got] == \
            [("#normalize", "error", "file did not parse")]

    def test_failed_declaration_is_reported(self, write, capsys):
        f = write("c.pilly", "term ok = <>\nterm bad = <> <>\n")
        rc, got = run_json(["normalize", f, "bad"], capsys)
        assert rc == 1
        assert [(e["target"], e["kind"], e["status"]) for e in got] == [
            (f"{f}:bad", "decl", "error"), (f"{f}:#normalize", "#normalize",
                                            "error")]
        assert got[0]["message"] == \
            "2:12: NotAFunction: application head has type I"

    @pytest.mark.parametrize("flags, status", [((), "ok"),
                                               (("--fuel", "1"), "unknown")])
    def test_matches_directive(self, write, capsys, flags, status):
        got = assert_same_as_directive(
            write, capsys,
            "term t = (fn x:I. x) ((fn x:I. x) <>)\n", "#normalize t",
            ["normalize", FILE, "t"], flags)
        assert got["kind"] == "#normalize" and got["status"] == status
        assert got["target"].endswith("d.pilly:#normalize")
        if status == "unknown":
            assert got["message"].startswith("fuel exhausted at ")

    def test_fuel_flag(self, write):
        f = write("n.pilly",
                  "term t = (fn x:I. x) ((fn x:I. x) ((fn x:I. x) <>))\n")
        assert main(["--fuel", "1", "normalize", f, "t"]) == 0  # warn only
        assert main(["--fuel", "1", "--strict", "normalize", f, "t"]) == 1

    @pytest.mark.parametrize("flags", [["--fuel", "0"], ["--fuel", "-3"],
                                       ["--y-unroll", "-1"]])
    def test_bad_budget_flag_is_usage_error(self, write, capsys, flags):
        f = write("n.pilly", "term t = (fn x:I. x) <>\n")
        assert main(flags + ["normalize", f, "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal" not in err

    @pytest.mark.parametrize("text", ["fuel = 0\n", "fuel = -3\n",
                                      "fuel = lots\n", "y_unroll = -1\n",
                                      "y_unroll = true\n"])
    def test_bad_budget_in_config_is_usage_error(self, write, tmp_path,
                                                 capsys, text):
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text(text)
        f = write("n.pilly", "term t = (fn x:I. x) <>\n")
        assert main(["--config", str(cfgp), "normalize", f, "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal" not in err


class TestEqual:
    def test_equal_expressions(self, write):
        f = write("e.pilly", "term id2 = fn x:I. x\n")
        assert main(["equal", f, "id2 <>", "<>"]) == 0

    def test_unequal_expressions(self, write):
        f = write("e.pilly", "")
        assert main(["equal", f, "fn x:I. x",
                     "fn x:I. let <> = x in <> (*) <>"]) == 1

    def test_y_budget_flag(self, write):
        f = write("e.pilly", "term om = Y [I] !(lam w:I. w)\n")
        assert main(["--y-unroll", "2", "equal", f, "om", "om"]) == 0

    @pytest.mark.parametrize("lhs, rhs, status", [
        ("zero", "zero", "ok"),
        ("zero", "one", "error"),
        ("om", "<>", "unknown"),
    ])
    def test_matches_directive(self, write, capsys, lhs, rhs, status):
        decls = ("term zero = /\\a. lam f:a -o a. fn x:a. x\n"
                 "term one = /\\a. lam f:a -o a. fn x:a. f x\n"
                 "term om = Y [I] !(lam w:I. w)\n")
        got = assert_same_as_directive(write, capsys, decls,
                                       f"#equal {lhs} == {rhs}",
                                       ["equal", FILE, lhs, rhs])
        assert got["status"] == status
        if status == "error":
            assert got["message"].startswith("not βη-convertible: ")

    @pytest.mark.parametrize("lhs, rhs, status", [
        ("fn q:pair I I. sw q", "fn q:I * I. q", "ok"),
        ("/\\a. fn q:pair a I. q", "/\\b. fn q:b * I. q", "ok"),
        ("/\\a. fn q:pair a I. q", "/\\b. fn q:I * b. q", "error"),
    ])
    def test_arguments_read_the_file_synonyms(self, write, capsys, lhs, rhs,
                                              status):
        """`pilly equal` parses its sides against the file's signature; a
        synonym's parameter may be a type variable bound in the argument."""
        decls = "type pair a b = a * b\nterm sw = fn p:pair I I. p\n"
        got = assert_same_as_directive(write, capsys, decls,
                                       f"#equal {lhs} == {rhs}",
                                       ["equal", FILE, lhs, rhs])
        assert got["status"] == status

    @pytest.mark.parametrize("text", [
        "term t = fn p: I*I. let x (*) y = p in let <> = x in y\n"
        "#equal t == fn p: I*I. let x (*) y = p in let <> = x in y\n",
        "#equal fn p: !I. let !x = p in x == fn p: !I. let !x : I = p in x\n",
    ])
    def test_let_annotation_does_not_separate(self, write, capsys, text):
        """An inlined term carries the annotation the type checker filled
        in; the other side has none."""
        assert main(["check", write("a.pilly", text)]) == 0
        assert "[ok] #equal" in capsys.readouterr().out

    def test_ill_typed_side_is_type_error(self, write, capsys):
        f = write("e.pilly", "")
        assert main(["equal", f, "<> <>", "<>"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] #equal" in out and "NotAFunction" in out


class TestEncode:
    @pytest.mark.parametrize("argv", [
        ["encode", "unit"],
        ["encode", "nat"],
        ["encode", "iso-self", "I"],
        ["encode", "tensor", "N", "I"],
        ["encode", "sum", "N", "I"],
        ["encode", "mu", "1 + a"],
        ["encode", "nu", "N * a"],
        ["encode", "rec", "1 + (N * a)"],
        ["encode", "rec-params", "b1 * a"],
    ])
    def test_kinds(self, argv):
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, message", [
        (["tensor", "N"], "tensor takes 2 type argument(s), got 1"),
        (["rec"], "rec takes 1 type argument(s), got 0"),
        (["nat", "I"], "nat takes 0 type argument(s), got 1"),
        (["iso-self", "I", "N"], "iso-self takes 1 type argument(s), got 2"),
    ])
    def test_wrong_number_of_type_arguments(self, argv, message, capsys):
        assert main(["encode", *argv]) == 1
        assert capsys.readouterr().out.strip() == \
            f"[FAIL] encode {' '.join(argv)} -- {message}"

    @pytest.mark.parametrize("argv", [
        ["mu", "b + a"], ["nu", "b * a"], ["mu", "I"], ["mu", "all a. a"],
        ["iso-self", "b"], ["tensor", "b", "I"], ["sum", "b", "I"],
        ["product", "b", "I"], ["exists", "a * b"], ["rec", "b + a"],
    ])
    def test_type_parameters(self, argv, capsys):
        """Any other free type variable of an argument is a parameter:
        the bundle is checked under it, not rejected or crashed on."""
        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "src" / "pilly"
             / "report-schema.json").read_text())
        assert main(["encode", *argv]) == 0
        assert capsys.readouterr().out.startswith("[ok] encode")
        rc, lines = run_json(["encode", *argv], capsys)
        assert rc == 0 and [e["status"] for e in lines] == ["ok"]
        for e in lines:
            jsonschema.validate(e, schema)

    def test_ill_typed_beta_law_fails_the_bundle(self, monkeypatch, capsys):
        """A generator bug that makes a law ill-typed fails that law; it
        is not an internal error."""
        import pilly.cli as cli
        from pilly import encodings as E
        from pilly.parser import parse_term

        def faulty():
            b = E.encode_unit()
            b.beta_laws.append(("ill_typed", parse_term("<> <>"),
                                parse_term("<>")))
            return b

        monkeypatch.setitem(cli._ENCODINGS, "unit", (0, faulty))
        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "src" / "pilly"
             / "report-schema.json").read_text())
        assert main(["encode", "unit"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] encode") and "failed: ill_typed (" in out
        assert "NotAFunction: application head has type I" in out
        rc, lines = run_json(["encode", "unit"], capsys)
        assert rc == 1 and [e["status"] for e in lines] == ["error"]
        for e in lines:
            jsonschema.validate(e, schema)

    def test_failed_law_names_its_normal_forms(self, monkeypatch, capsys):
        import pilly.cli as cli
        from pilly import encodings as E
        from pilly.parser import parse_term

        def faulty():
            b = E.encode_unit()
            b.beta_laws.append(("swapped", parse_term(
                "fn x:I. fn y:I. let <> = x in y"), parse_term(
                "fn x:I. fn y:I. let <> = y in x")))
            return b

        monkeypatch.setitem(cli._ENCODINGS, "unit", (0, faulty))
        assert main(["encode", "unit"]) == 1
        assert capsys.readouterr().out.strip() == (
            "[FAIL] encode unit -- failed: swapped (not βη-convertible: "
            "fn x:I. fn y:I. let <> = x in y vs "
            "fn x:I. fn y:I. let <> = y in x)")

    def test_bad_polarity(self, capsys):
        assert main(["encode", "mu", "a -o a"]) == 1
        assert "only positively" in capsys.readouterr().out

    def test_fuel_cut_is_unknown(self, capsys, monkeypatch):
        from pilly import relations
        from pilly.rewrite import RewriteConfig
        monkeypatch.setattr(relations, "_NF_CFG", RewriteConfig(fuel=7))
        assert main(["encode", "rec-params", "b -o a"]) == 0
        assert capsys.readouterr().out == (
            "[unknown] encode rec-params b -o a -- "
            "fuel exhausted under a binder\n")

    @pytest.mark.parametrize("args", [
        pytest.param(["mu", "1 + a"], id="mu"),
        pytest.param(["sum", "b", "I"], id="sum-b-I"),
        pytest.param(["rec-params", "f * a"], id="rec-params-f")])
    def test_emit_bundle_rechecks(self, write, tmp_path, capsys, args):
        out = tmp_path / "bundle.pilly"
        assert main(["encode", *args, "--emit-bundle", str(out)]) == 0
        assert main(["check", str(out)]) == 0


class TestAdmissible:
    def test_definition_derives(self, write, capsys):
        f = write("a.pilly", "rel EQ = (x:I, y:I). x =_{I} y\n")
        assert main(["admissible", f, "EQ"]) == 0
        assert "applied-relation" in capsys.readouterr().out \
            or "equality" in capsys.readouterr().out

    def test_raw_variable_not_derivable(self, write, capsys):
        f = write("a.pilly", "rel RW : Rel(I, I)\n")
        assert main(["admissible", f, "RW"]) == 1
        assert "NotDerivable" in capsys.readouterr().out

    def test_admissible_variable(self, write):
        f = write("a.pilly", "rel SA : AdmRel(I, I)\n")
        assert main(["admissible", f, "SA"]) == 0

    def test_undeclared_name(self, write, capsys):
        f = write("a.pilly", "#admissible NOPE\n")
        assert main(["check", f]) == 1
        assert "no relation named 'NOPE'" in capsys.readouterr().out

    def test_converse_reindexing_derives(self, write, capsys):
        f = write("a.pilly", "term f = fn u:I. u\nrel S : AdmRel(I, I)\n"
                  "rel G = (x:I, y:I). S(f y, f x)\n")
        assert main(["admissible", f, "G"]) == 0
        assert "converse: reindex via beta-unfolding" in \
            capsys.readouterr().out

    def test_fuel_cut_is_unknown(self, write, capsys, monkeypatch):
        from pilly import relations
        from pilly.rewrite import RewriteConfig
        monkeypatch.setattr(relations, "_NF_CFG", RewriteConfig(fuel=3))
        f = write("a.pilly", "rel G = ((I -o I) -o I)[]\n")
        assert main(["admissible", f, "G"]) == 0
        assert capsys.readouterr().out.startswith(
            "[unknown] #admissible ")

    @pytest.mark.parametrize("name, status", [("EQ", "ok"),
                                              ("RW", "error")])
    def test_matches_directive(self, write, capsys, name, status):
        decls = "rel RW : Rel(I, I)\nrel EQ = (x:I, y:I). x =_{I} y\n"
        got = assert_same_as_directive(write, capsys, decls,
                                       f"#admissible {name}",
                                       ["admissible", FILE, name])
        assert got["status"] == status


class TestSchema:
    def test_identity_extension(self, capsys):
        assert main(["schema", "identity-extension", "a * a"]) == 0

    def test_without_file_runs_against_empty_file(self, capsys):
        rc, got = run_json(["schema", "identity-extension", "a"], capsys)
        assert rc == 0
        assert [(e["target"], e["kind"], e["status"]) for e in got] == \
            [("<args>:#schema", "#schema", "ok")]

    def test_parametricity(self, capsys):
        assert main(["schema", "parametricity", "all b. (b -> b) -> b"]) == 0
        assert "AdmRel" in capsys.readouterr().out

    def test_lrl_named_term(self, write):
        f = write("s.pilly", "term id2 = /\\a. fn x:a. x\n")
        assert main(["schema", "lrl", "id2", "--file", f]) == 0

    def test_lrl_matches_directive(self, write, capsys):
        got = assert_same_as_directive(
            write, capsys, "term id2 = /\\a. fn x:a. x\n", "#schema lrl id2",
            ["schema", "lrl", "id2", "--file", FILE])
        assert got["status"] == "ok"

    def test_usage_error_is_exit_two(self):
        with pytest.raises(SystemExit) as e:
            main(["schema", "bogus-kind", "a"])
        assert e.value.code == 2


class TestConfig:
    def test_config_file_sets_defaults(self, write, tmp_path, capsys):
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text("fuel = 1\nstrict = true\n")
        f = write("n.pilly",
                  "term t = (fn x:I. x) ((fn x:I. x) ((fn x:I. x) <>))\n")
        assert main(["--config", str(cfgp), "normalize", f, "t"]) == 1

    def test_flags_override_config(self, write, tmp_path):
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text("fuel = 1\n")
        f = write("n.pilly", "term t = (fn x:I. x) <>\n")
        assert main(["--config", str(cfgp), "--fuel", "100",
                     "normalize", f, "t"]) == 0

    @pytest.mark.parametrize("value, rc", [("no", 2), ("false", 0),
                                           ("true", 1)])
    def test_strict_must_be_boolean(self, write, tmp_path, capsys, value, rc):
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text(f"strict = {value}\n")
        f = write("e.pilly", "")
        assert main(["--config", str(cfgp), "equal", f,
                     "Y [I] !(lam w:I. w)", "<>"]) == rc
        if rc == 2:
            assert capsys.readouterr().err.startswith("error: strict")

    def test_bad_config_is_usage_error(self, write, tmp_path, capsys):
        cfgp = tmp_path / "pilly.toml"
        for text, msg in [("fuel\n", "bad config line"),
                          ("catalog = 3\n", "catalog must be a path, got 3"),
                          ("catalog = true\n", "catalog must be a path")]:
            cfgp.write_text(text)
            assert main(["--config", str(cfgp), "check",
                         write("x.pilly", "")]) == 2
            assert capsys.readouterr().err.startswith("error: " + msg)


class TestCatalogFiles:
    def test_shipped_catalog_checks_clean(self):
        cat = pathlib.Path(__file__).parent.parent / "src" / "pilly" / "catalog"
        files = sorted(str(p) for p in cat.glob("*.pilly"))
        assert len(files) == 10
        assert main(["check"] + files) == 0


class TestInternalError:
    def test_unexpected_exception_is_exit_three(self, monkeypatch, write):
        import pilly.cli as cli

        def boom(args, cfg):
            raise RuntimeError("synthetic")

        monkeypatch.setitem(cli._COMMANDS, "check", boom)
        assert main(["check", write("x.pilly", "")]) == 3


class TestClaimedTypes:
    def test_alpha_equal_claim_accepted(self, write):
        f = write("c.pilly", "term id : all b. b -o b = /\\a. fn x:a. x\n")
        assert main(["check", f]) == 0

    def test_mismatched_claim_rejected(self, write, capsys):
        f = write("c.pilly", "term bad : I -o I = <>\n")
        assert main(["check", f]) == 1
        assert "declared type" in capsys.readouterr().out


class TestCatalogFallback:
    def test_no_files_checks_shipped_catalog(self, capsys):
        assert main(["check"]) == 0
        assert "rec_ll_t" in capsys.readouterr().out

    def test_configured_catalog_directory(self, tmp_path, capsys):
        (tmp_path / "only.pilly").write_text("term a = <>\n")
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text(f"catalog = {tmp_path}\n")
        assert main(["--config", str(cfgp), "check"]) == 0
        assert "only.pilly" in capsys.readouterr().out

    def test_configured_catalog_without_files(self, tmp_path, capsys):
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text(f"catalog = {tmp_path}\n")
        assert main(["--config", str(cfgp), "check"]) == 1
        assert "no .pilly files found" in capsys.readouterr().out
