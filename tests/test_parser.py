"""Concrete syntax: grammar, precedence, diagnostics, round trips."""

import random

import pytest

from conftest import gen_scoped_prop, gen_scoped_rel, gen_scoped_term, gen_type
from pilly import syntax as S
from pilly.parser import (Diagnostic, ParseError, Signature, parse_file,
                          parse_prop, parse_rel, parse_term, parse_type)
from pilly.pretty import pp
from pilly.syntax import Bang, Flavor, Lolli, TyVar, Unit


class TestTypeGrammar:
    def test_bang_binds_tighter_than_lolli(self):
        assert parse_type("!a -o b") == Lolli(Bang(TyVar("a")), TyVar("b"))

    def test_lolli_right_associative(self):
        assert parse_type("a -o b -o c") == \
            Lolli(TyVar("a"), Lolli(TyVar("b"), TyVar("c")))

    def test_arrow_sugar(self):
        assert parse_type("a -> b") == parse_type("!a -o b")

    def test_tensor_between_bang_and_lolli(self):
        assert parse_type("!a * b -o c") == \
            Lolli(S.Tensor(Bang(TyVar("a")), TyVar("b")), TyVar("c"))

    def test_forall_extends_right(self):
        t = parse_type("all a. a -o a")
        assert isinstance(t, S.Forall)


class TestTermGrammar:
    def test_let_tensor(self):
        t = parse_term("let x (*) y : a * b = p in x")
        assert isinstance(t, S.LetTensor)
        assert t.tyx == TyVar("a") and t.tyy == TyVar("b")

    def test_annotation_optional(self):
        t = parse_term("let x (*) y = p in x")
        assert t.tyx is None and t.tyy is None

    def test_self_application_parses(self):
        # parsing is syntax-only; the checker rejects this later
        t = parse_term("fn x:I. x x")
        assert isinstance(t, S.LinLam)
        assert isinstance(t.body, S.App)

    def test_lam_sugar_expands(self):
        t = parse_term("lam x:a. x")
        assert isinstance(t, S.LinLam)
        assert isinstance(t.ty, Bang)
        assert isinstance(t.body, S.LetBang)

    def test_bang_tighter_than_application(self):
        assert parse_term("!f x") == S.App(S.BangIntro(S.Var("f")), S.Var("x"))
        assert parse_term("f !x") == S.App(S.Var("f"), S.BangIntro(S.Var("x")))


class TestFileParsing:
    def test_declarations(self):
        src = """
        term id : all a. a -o a = /\\a. fn x:a. x
        term y2 = Y
        """
        f, diags = parse_file(src)
        assert not diags
        assert [d.name for d in f.decls] == ["id", "y2"]
        id_decl = f.decls[0]
        assert isinstance(id_decl.body, S.TyLam)

    def test_duplicate_names_rejected(self):
        _, diags = parse_file("term a = <>\nterm a = <>")
        assert len(diags) == 1
        assert "duplicate" in diags[0].message

    def test_lexical_error_has_span(self):
        _, diags = parse_file("term a = ?")
        assert diags and diags[0].span.start >= 0
        assert diags[0].span.end <= len("term a = ?")

    def test_unbalanced_delimiter(self):
        _, diags = parse_file("term a = (<>")
        assert diags
        assert "expected" in diags[0].message

    def test_deep_nesting_is_a_located_error(self):
        """Nesting past Python's stack is a located parse error, and the
        file parses on at the next declaration; shallower input still
        parses (propositions backtrack, so they stay at 40 levels)."""
        for parse, atom, ok in ((parse_term, "x", 150), (parse_type, "a", 150),
                                (parse_prop, "T", 40)):
            assert parse("(" * ok + atom + ")" * ok) is not None
            with pytest.raises(ParseError) as e:
                parse("(" * 2000 + atom + ")" * 2000)
            assert e.value.message == "nesting too deep"
            assert 0 < e.value.span.start < 2000
        deep = "!" * 3000 + "<>"
        with pytest.raises(ParseError):
            parse_term(deep)
        f, diags = parse_file(f"term a = {deep}\nterm b = <>")
        assert [d.message for d in diags] == ["nesting too deep"]
        assert [d.name for d in f.decls] == ["b"]

    def test_resynchronization(self):
        src = "term a = (<>\nterm b = <>"
        f, diags = parse_file(src)
        assert len(diags) == 1
        assert [d.name for d in f.decls] == ["b"]

    def test_comments_and_directives(self):
        src = "# plain comment\nterm a = <>\n#check a"
        f, diags = parse_file(src)
        assert not diags
        kinds = [type(d).__name__ for d in f.decls]
        assert kinds == ["TermDecl", "Directive"]

    def test_type_synonym_with_params(self):
        src = "type pair a b = a * b\nterm f = fn x:pair I I. x"
        f, diags = parse_file(src)
        assert not diags
        assert f.decls[1].body.ty == S.Tensor(Unit(), Unit())


def _scope_sig():
    sig = Signature()
    sig.rels["R"] = (Unit(), Unit(), Flavor.REL, None)
    sig.rels["Sa"] = (Unit(), Unit(), Flavor.ADMREL, None)
    return sig


class TestRoundTrip:
    def test_y_type_prints_as_documented(self):
        from pilly.typecheck import TermContext, infer_type
        ty = infer_type(TermContext(), S.Y()).ty
        assert pp(ty) == "all a. !(!a -o a) -o a"

    def test_print_parse_identity(self):
        assert pp(parse_type("I -o I")) == "I -o I"

    def test_fuzz_types(self):
        rng = random.Random(21)
        for _ in range(150):
            t = gen_type(rng, ["a", "b"], 4)
            assert parse_type(pp(t)) == t

    def test_fuzz_terms(self):
        rng = random.Random(22)
        for _ in range(150):
            t = gen_scoped_term(rng, ["a"], ["v", "w"], 4)
            assert parse_term(pp(t)) == t

    def test_fuzz_terms_sugar(self):
        rng = random.Random(23)
        for _ in range(80):
            t = gen_scoped_term(rng, ["a"], ["v"], 4)
            assert parse_term(pp(t, sugar=True)) == t

    def test_fuzz_rels_and_props(self):
        rng = random.Random(24)
        sig = _scope_sig()
        rels = {n: (d, c, f) for n, (d, c, f, _) in sig.rels.items()}
        for _ in range(80):
            r = gen_scoped_rel(rng, ["a"], ["v"], rels, 3)
            assert parse_rel(pp(r), sig) == r
        for _ in range(80):
            p = gen_scoped_prop(rng, ["a"], ["v"], rels, 3)
            assert parse_prop(pp(p), sig) == p


class TestPrinterFreshness:
    def test_binder_hint_colliding_with_free_name_is_renamed(self):
        # a binder hinted 'a' over a body mentioning a free 'a'
        trap = S.Forall("a", S.Lolli(S.TyBound(0), TyVar("a")))
        printed = pp(trap)
        assert parse_type(printed) == trap
        assert printed != "all a. a -o a"

    def test_annotation_with_quantifier_before_dot(self):
        t = parse_term("fn x:all a. a. x")
        assert isinstance(t, S.LinLam)
        assert isinstance(t.ty, S.Forall)
