"""Driver behavior: commands, exit codes, JSON output, configuration."""

import json
import pathlib
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
            assert got["message"].startswith("distinct normal forms: ")

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

    def test_bad_polarity(self, capsys):
        assert main(["encode", "mu", "a -o a"]) == 1
        assert "only positively" in capsys.readouterr().out

    def test_emit_bundle_rechecks(self, write, tmp_path, capsys):
        out = tmp_path / "bundle.pilly"
        assert main(["encode", "mu", "1 + a",
                     "--emit-bundle", str(out)]) == 0
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

    def test_bad_config_is_usage_error(self, write, tmp_path):
        cfgp = tmp_path / "pilly.toml"
        cfgp.write_text("fuel\n")
        assert main(["--config", str(cfgp), "check",
                     write("x.pilly", "")]) == 2


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
