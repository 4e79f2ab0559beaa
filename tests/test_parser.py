"""Concrete syntax: grammar, precedence, diagnostics, round trips."""

import dataclasses
import random

import pytest

from conftest import gen_scoped_prop, gen_scoped_rel, gen_scoped_term, gen_type
from pilly import encodings as E
from pilly import syntax as S
from pilly.parser import (ParseError, Parser, Signature,
                          parse_encode_type, parse_file, parse_prop, parse_rel,
                          parse_term, parse_type, tokenize)
from pilly.pretty import pp, print_term, print_type
from pilly.syntax import Bang, Bound, Flavor, Lolli, Span, TyBound, TyVar, Unit


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


class TestTokenizer:
    def test_comments_are_skipped_and_directives_kept(self):
        text = "a # one\n#checkx two\n#check b #equal'\n#"
        toks = tokenize(text)
        assert [(t.kind, t.text, t.span) for t in toks] == [
            ("ident", "a", Span(0, 1)), ("dir", "checkx", Span(8, 15)),
            ("ident", "two", Span(16, 19)), ("dir", "check", Span(20, 26)),
            ("ident", "b", Span(27, 28)), ("dir", "equal'", Span(29, 36)),
            ("eof", "", Span(len(text), len(text)))]

    def test_symbols_take_the_longest_match(self):
        kinds = [t.kind for t in tokenize("(*) ( -o -> - =_ == => = <> 01")]
        assert kinds == ["(*)", "(", "-o", "->", "-", "=_", "==", "=>", "=",
                         "<>", "0", "1", "eof"]

    def test_identifiers(self):
        toks = tokenize("x' _a1 é fn")
        assert [(t.kind, t.text) for t in toks[:4]] == [
            ("ident", "x'"), ("ident", "_a1"), ("ident", "é"), ("kw", "fn")]

    @pytest.mark.parametrize("text, at", [("a ?", 2), ("a \f", 2),
                                          ("x ²", 2), ("1 2", 2)])
    def test_unexpected_character(self, text, at):
        with pytest.raises(ParseError) as e:
            tokenize(text)
        assert e.value.span == Span(at, at + 1)
        assert e.value.message == f"unexpected character {text[at]!r}"


def _lam_carrier(n):
    """The carrier hint of the first `lam` sugar in n, outermost first."""
    for x in S.subnodes(n):
        if isinstance(x, S.LinLam) and isinstance(x.body, S.LetBang):
            return x.hint
    raise AssertionError("no lam in the tree")


class TestResolution:
    """Bound names become indices as they are read."""

    def test_shadowing(self):
        assert parse_term("fn x:I. fn x:I. x") == \
            S.LinLam("x", Unit(), S.LinLam("x", Unit(), Bound(0)))
        assert parse_term("fn x:I. fn y:I. x").body.body == Bound(1)
        assert parse_type("all a. all b. a -o b").body.body == \
            Lolli(TyBound(1), TyBound(0))

    def test_bound_variable_has_no_span_and_a_free_one_keeps_it(self):
        t = parse_term("fn x:I. x y")
        assert type(t.body.fn) is Bound
        assert t.body.arg.span == Span(10, 11)
        assert t.span == Span(0, 11) and t.body.span == Span(8, 11)

    def test_repeated_pattern_name_refers_to_the_left_one(self):
        assert parse_term("let x (*) x = p in x").body == Bound(1)
        assert parse_rel("(x: I, x: I). x =_{I} x").body.lhs == Bound(1)

    def test_relation_quantifier(self):
        p = parse_prop("all R: Rel(I, I). all S: Rel(I, I). R(v, v)")
        assert p.body.body.rel == S.RelBound(1)

    def test_synonym_shadows_a_bound_name(self):
        f, diags = parse_file("type Sa = I\nterm k = /\\Sa. fn x:Sa. x")
        assert not diags
        assert f.decls[1].body.body.ty == Unit()

    def test_synonym_argument_under_binders(self):
        f, diags = parse_file("type Fb b = all c. b -o c\n"
                              "term k = /\\a. fn x:Fb a. x")
        assert not diags
        assert f.decls[1].body.body.ty == \
            S.Forall("c", Lolli(TyBound(1), TyBound(0)))
        assert f.decls[0].body == S.Forall("c", Lolli(TyVar("b"), TyBound(0)))

    def test_type_rel_treats_outer_binders_as_slots(self):
        p = parse_prop("all a. all x: a. (a -o a)[R](x, x)", _scope_sig())
        assert p.body.ty == TyBound(0)
        rel = p.body.body.rel
        assert rel.hints == ("a",)
        assert rel.body == Lolli(TyBound(0), TyBound(0))
        assert rel.args == (S.RelVar("R", Unit(), Unit(), Flavor.REL),)

    @pytest.mark.parametrize("src, carrier", [
        ("lam x:I. x", "x1"),
        ("lam x:I. x1", "x2"),
        ("lam x:I. fn x1:I. x1", "x1"),       # bound inside the body
        ("fn x1:I. lam x:I. x1", "x2"),       # an enclosing binder it mentions
        ("fn x1:I. lam x:I. x", "x1"),        # one it does not mention
        ("/\\x1. lam x:I. fn y:x1. y", "x2"),  # a type binder it mentions
        ("lam x2:x1. x2", "x1"),              # the annotation does not count
    ])
    def test_lam_carrier_avoids_what_the_body_mentions(self, src, carrier):
        assert _lam_carrier(parse_term(src)) == carrier

    def test_lam_carrier_after_backtracking(self):
        """The relation application fails at `)`, so the `lam` is read again
        as an argument while its parenthesised body comes from the memo."""
        sig = _scope_sig()
        for src in ("R(lam x:I. (x1)) =_{I} z",
                    "all x1: I. R(lam x:I. (x1)) =_{I} z"):
            assert _lam_carrier(parse_prop(src, sig)) == "x2"

    def test_sum_types_under_binders(self):
        t = parse_encode_type("all a. a + b")
        assert t == S.forall("a", E.sum_type(TyVar("a"), TyVar("b")))
        assert t.body.hint == "a1"
        assert parse_encode_type("all b. (b + 0) * b") == S.forall(
            "b", S.Tensor(E.sum_type(TyVar("b"), E.void_type()), TyVar("b")))


class TestHygiene:
    """A name from the signature keeps its meaning under a binder of the
    same name."""

    def test_free_variable_of_a_synonym_is_not_captured(self):
        f, diags = parse_file("type Sa = a -o a\ntype U = all a. Sa\n")
        assert not diags
        u = f.decls[1].body
        assert u == S.Forall("a", Lolli(TyVar("a"), TyVar("a")))
        assert S.free_type_names(u) == ["a"]

    def test_signature_relations_are_not_captured(self):
        f, diags = parse_file(
            "rel R : Rel(I, I)\nrel S = R\n"
            "rel Q = (x:I, y:I). all R: Rel(I, I). S(x, y)\n"
            "rel A : Rel(a, a)\nrel B = (x:I, y:I). all a. A(x, y)\n")
        assert not diags
        assert f.decls[2].body.body.body.rel == \
            S.RelVar("R", Unit(), Unit(), Flavor.REL)
        assert f.decls[4].body.body.body.rel == \
            S.RelVar("A", TyVar("a"), TyVar("a"), Flavor.REL)

    def test_parameters_are_still_substituted(self):
        f, diags = parse_file("type P a b = b * a\n"
                              "term k = /\\a. /\\b. fn x: P (P a b) b. x")
        assert not diags
        assert f.decls[1].body.body.body.ty == S.Tensor(
            TyBound(0), S.Tensor(TyBound(0), TyBound(1)))


class _CountingParser(Parser):
    taken = 0

    def next(self):
        self.taken += 1
        return super().next()


class TestBacktrackingIsLinear:
    def test_nested_parentheses_in_propositions(self):
        """Each alternative of a proposition or relation atom is read once
        per token and binders in scope, so the tokens consumed grow
        linearly with the nesting depth."""
        taken = {}
        for d in (20, 40, 80):
            p = _CountingParser(tokenize("(" * d + "T" + ")" * d))
            assert p.parse("prop") == S.Top()
            taken[d] = p.taken
        assert taken[80] - taken[40] == 2 * (taken[40] - taken[20])
        assert taken[80] <= 10 * 80
        assert parse_prop("(" * 150 + "T" + ")" * 150) == S.Top()

    def test_errors_keep_their_message_and_span(self):
        for src, msg, at in (
                ("((T)", "expected ')', found 'eof'", 4),
                ("((R)(v, ))", "expected a proposition, found 'R'", 2),
                ("((I[R, R]))(v, v)", "type has 0 free type variable(s) "
                 "but 2 relation(s) were supplied", 3),
                ("(x: I, y). T", "expected a proposition, found 'x'", 1),
                ("all R: Rel(I, I). ((R))(v, (w)",
                 "expected a proposition, found 'R'", 20)):
            with pytest.raises(ParseError) as e:
                parse_prop(src, _scope_sig())
            assert (e.value.message, e.value.span.start) == (msg, at)


def _fields(n, spans: bool):
    """Class and every field of a tree, binder hints included, and spans
    when `spans` is set: a comparison stricter than alpha-equivalence."""
    if dataclasses.is_dataclass(n) and not isinstance(n, type):
        return (type(n).__name__,) + tuple(
            (f.name, _fields(getattr(n, f.name), spans))
            for f in dataclasses.fields(n) if spans or f.name != "span")
    if isinstance(n, (list, tuple)):
        return tuple(_fields(a, spans) for a in n)
    return n


_LEAF_TEXT = {S.Unit: "I", S.Star: "<>", S.Y: "Y", S.Top: "T", S.Bottom: "F"}
_BINDER_TEXT = {S.Forall: "all", S.LinLam: "fn", S.TyLam: "/\\",
                S.LetStar: "let", S.LetBang: "let", S.LetTensor: "let",
                S.Compr: "("}


def _check_spans(n, text, outer=None):
    """A named leaf's span covers its token, a binder's starts at its
    keyword, and every span lies inside the nearest enclosing one."""
    if not (dataclasses.is_dataclass(n) and not isinstance(n, type)):
        if isinstance(n, (list, tuple)):
            for a in n:
                _check_spans(a, text, outer)
        return
    span = getattr(n, "span", None)
    if span is not None:
        if outer is not None:
            assert outer.start <= span.start <= span.end <= outer.end, n
        word = text[span.start:span.end]
        if isinstance(n, (TyVar, S.Var, S.RelVar)):
            assert word == n.name
        elif type(n) in _LEAF_TEXT:
            assert word == _LEAF_TEXT[type(n)]
        elif type(n) in _BINDER_TEXT:
            assert word.startswith(_BINDER_TEXT[type(n)])
        outer = span
    for f in dataclasses.fields(n):
        if f.name != "span":
            _check_spans(getattr(n, f.name), text, outer)


class TestStrictRoundTrip:
    """Print, then parse, and compare every field: hints, spans, and the
    relation variables' domains."""

    def test_seeded_corpora(self):
        sig = _scope_sig()
        rels = {n: (d, c, f) for n, (d, c, f, _) in sig.rels.items()}
        rng = random.Random(31)
        for _ in range(150):
            for x, parse in (
                    (gen_scoped_term(rng, ["a"], ["v", "w"], 4), parse_term),
                    (gen_scoped_rel(rng, ["a"], ["v"], rels, 3),
                     lambda s: parse_rel(s, sig)),
                    (gen_scoped_prop(rng, ["a"], ["v"], rels, 3),
                     lambda s: parse_prop(s, sig))):
                for sugar in (False, True):
                    text = pp(x, sugar=sugar)
                    got = parse(text)
                    assert _fields(got, False) == _fields(x, False), text
                    _check_spans(got, text)

    def test_catalog_bundles(self):
        """The printer may rename a binder, so a bundle's hints are checked
        by printing again; its spans against the file's text."""
        for name, b in E.catalog().items():
            text = E.bundle_to_source(b)
            f, diags = parse_file(text)
            assert not diags, name
            again, _ = parse_file(text)
            assert _fields(f.decls, True) == _fields(again.decls, True)
            terms = [d for d in f.decls if hasattr(d, "claimed")]
            assert len(terms) == len(b.combinators)
            for d, (term, ty) in zip(terms, b.combinators.values()):
                assert d.body == term and d.claimed == ty
                assert print_term(d.body, sugar=True) == \
                    print_term(term, sugar=True)
                assert print_type(d.claimed, sugar=True) == \
                    print_type(ty, sugar=True)
            for d in f.decls:
                _check_spans(d, text)
