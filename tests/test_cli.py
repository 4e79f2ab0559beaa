"""Driver behavior: commands, exit codes, JSON output, configuration."""

import json
import pathlib

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


class TestSchema:
    def test_identity_extension(self, capsys):
        assert main(["schema", "identity-extension", "a * a"]) == 0

    def test_parametricity(self, capsys):
        assert main(["schema", "parametricity", "all b. (b -> b) -> b"]) == 0
        assert "AdmRel" in capsys.readouterr().out

    def test_lrl_named_term(self, write):
        f = write("s.pilly", "term id2 = /\\a. fn x:a. x\n")
        assert main(["schema", "lrl", "id2", "--file", f]) == 0

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
