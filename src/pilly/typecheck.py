"""Kind checking and type inference with a dual context.

Linear splitting uses leftover threading: inference of a subterm returns
the set of linear variables it consumed, and each node with several
subterms checks the consumed sets are disjoint.  The rules for <>, Y and
!t demand an empty linear context; under leftover threading that becomes
"consumes nothing", enforced at those nodes.  The root additionally
requires that the full linear context was consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import syntax as S
from .pretty import print_term, print_type
from .syntax import Span, TermContext, Type

UNBOUND = "UnboundVariable"
LINEAR_UNUSED = "LinearVariableUnused"
LINEAR_REUSED = "LinearVariableReused"
LINEAR_IN_BANG = "LinearInBangBody"
MISMATCH = "TypeMismatch"
NOT_A_FUNCTION = "NotAFunction"
NOT_A_FORALL = "NotAForall"
ILL_KINDED = "IllKinded"
CONTEXT_ILL_FORMED = "ContextIllFormed"


class TypeCheckError(Exception):
    def __init__(self, kind: str, message: str, span: Optional[Span] = None,
                 expected: Optional[Type] = None, found: Optional[Type] = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.span = span
        self.expected = expected
        self.found = found


@dataclass
class TypingResult:
    ty: Type
    term: S.Term  # elaborated: let-pattern annotations filled in


def kind_check(xi: tuple[str, ...] | list[str], ty: Type, depth: int = 0,
               span: Optional[Span] = None) -> None:
    """A type is well kinded under xi and `depth` type binders iff all its
    free variables are in xi and each loose index names one of the
    binders.  Errors carry the type's own span, or else `span`, or the
    first occurrence of an unbound variable if it lies inside that."""
    span = getattr(ty, "span", None) or span
    for name in S.free_type_names(ty):
        if name not in xi:
            at = next(x.span for x in S.subnodes(ty)
                      if type(x) is S.TyVar and x.name == name)
            if not (span and at
                    and span.start <= at.start <= at.end <= span.end):
                at = span
            raise TypeCheckError(
                UNBOUND, f"type variable {name!r} is not in scope", at)
    if S.loose_bounds(ty)[0] > depth:
        raise TypeCheckError(UNBOUND, "dangling type index", span)


def validate_context(ctx: TermContext) -> None:
    names: set[str] = set()
    for group in (ctx.gamma, ctx.delta):
        for n in group:
            if n in names:
                raise TypeCheckError(
                    CONTEXT_ILL_FORMED, f"repeated variable {n!r} in context")
            names.add(n)
    for group in (ctx.gamma, ctx.delta):
        for n, ty in group.items():
            try:
                kind_check(ctx.xi, ty)
            except TypeCheckError as e:
                raise TypeCheckError(
                    CONTEXT_ILL_FORMED,
                    f"type of {n!r} is not well kinded: {e.message}",
                    e.span) from e


class Inferencer:
    """Infers under the binders of a term without opening them.

    `tys` holds the hints of the type binders in scope, outermost first,
    so a type's loose index k names `tys[-1-k]`.  `tms` holds the term
    binders in scope, outermost first, as (hint, type, len(tys) when
    bound, linear?); `Bound(k)` reads `tms[-1-k]`.  A binder's type is
    shifted when it is read under later type binders.  The consumed set
    holds the names of consumed context variables and the stack levels of
    consumed bound ones.  `relations` checks formation on these stacks.
    `infer_type` caches a closed term's type, and its elaboration if new,
    on the node; a hit counts where xi holds every free type name of the
    term, and elsewhere the walk runs, so errors stay exact.
    """

    def __init__(self, ctx: TermContext):
        self.xi = ctx.xi
        self.gamma = ctx.gamma
        self.delta = ctx.delta
        self.tys: list[str] = []
        self.tms: list[tuple[str, Type, int, bool]] = []
        self.read_var = False

    def named(self, ty: Type) -> Type:
        """`ty` with each type binder in scope named by its hint, for
        messages; a hint that clashes with xi or an outer hint is
        freshened."""
        if not self.tys:
            return ty
        names = S.fresh_many(self.tys, self.xi)
        return S.instantiate_ty(ty, *[S.TyVar(n) for n in names])

    def show(self, ty: Type) -> str:
        return print_type(self.named(ty))

    def show_vars(self, used) -> str:
        return ", ".join(self.tms[n][0] if isinstance(n, int) else n
                         for n in used)

    def bind(self, hint: str, ty: Type, linear: bool) -> int:
        self.tms.append((hint, ty, len(self.tys), linear))
        return len(self.tms) - 1

    def infer(self, t: S.Term) -> tuple[Type, dict, S.Term]:
        hit = t._ty
        if hit and all(n in self.xi for n in S.free_type_names(t)):
            return hit[0], {}, hit[1] or t
        if isinstance(t, S.Bound):
            level = len(self.tms) - 1 - t.index
            if level < 0:
                raise TypeCheckError(UNBOUND, "dangling bound variable", None)
            _, ty, depth, linear = self.tms[level]
            ty = S.shift(ty, ty_by=len(self.tys) - depth)
            return ty, {level: None} if linear else {}, t
        if isinstance(t, S.Var):
            self.read_var = True
            if t.name in self.delta:
                return self.delta[t.name], {t.name: None}, t
            if t.name in self.gamma:
                return self.gamma[t.name], {}, t
            raise TypeCheckError(UNBOUND, f"variable {t.name!r} is not in scope",
                                 t.span)
        if isinstance(t, S.Star):
            return S.Unit(), {}, t
        if isinstance(t, S.Y):
            return S.y_type(), {}, t
        if isinstance(t, S.LinLam):
            kind_check(self.xi, t.ty, len(self.tys), t.span)
            x = self.bind(t.hint, t.ty, True)
            bty, used, belab = self.infer(t.body)
            self.tms.pop()
            if x not in used:
                raise TypeCheckError(
                    LINEAR_UNUSED,
                    f"linear variable {t.hint!r} is not used by the body",
                    t.span)
            del used[x]
            return (S.Lolli(t.ty, bty), used,
                    t if belab is t.body
                    else S.LinLam(t.hint, t.ty, belab, t.span))
        if isinstance(t, S.App):
            fty, fused, felab = self.infer(t.fn)
            if not isinstance(fty, S.Lolli):
                raise TypeCheckError(
                    NOT_A_FUNCTION,
                    f"application head has type {self.show(fty)}",
                    t.span, found=self.named(fty))
            aty, aused, aelab = self.infer(t.arg)
            used = self._join(fused, aused, t.span)
            if aty != fty.dom:
                raise TypeCheckError(
                    MISMATCH,
                    f"argument has type {self.show(aty)}, expected "
                    f"{self.show(fty.dom)}", t.span,
                    expected=self.named(fty.dom), found=self.named(aty))
            return fty.cod, used, (t if felab is t.fn and aelab is t.arg
                                   else S.App(felab, aelab, t.span))
        if isinstance(t, S.TensorPair):
            lty, lused, lelab = self.infer(t.left)
            rty, rused, relab = self.infer(t.right)
            used = self._join(lused, rused, t.span)
            return S.Tensor(lty, rty), used, (
                t if lelab is t.left and relab is t.right
                else S.TensorPair(lelab, relab, t.span))
        if isinstance(t, S.BangIntro):
            bty, used, belab = self.infer(t.body)
            if used:
                raise TypeCheckError(
                    LINEAR_IN_BANG,
                    f"linear variable(s) {self.show_vars(used)} consumed "
                    "under '!'", t.span)
            return S.Bang(bty), {}, (t if belab is t.body
                                     else S.BangIntro(belab, t.span))
        if isinstance(t, S.TyLam):
            self.tys.append(t.hint)
            bty, used, belab = self.infer(t.body)
            self.tys.pop()
            return (S.Forall(t.hint, bty), used,
                    t if belab is t.body else S.TyLam(t.hint, belab, t.span))
        if isinstance(t, S.TyApp):
            fty, used, felab = self.infer(t.fn)
            if not isinstance(fty, S.Forall):
                raise TypeCheckError(
                    NOT_A_FORALL,
                    f"type application head has type {self.show(fty)}",
                    t.span, found=self.named(fty))
            kind_check(self.xi, t.ty, len(self.tys), t.span)
            return (S.instantiate_ty(fty.body, t.ty), used,
                    t if felab is t.fn else S.TyApp(felab, t.ty, t.span))
        if isinstance(t, S.LetStar):
            sty, sused, selab = self.infer(t.scrut)
            if not isinstance(sty, S.Unit):
                raise TypeCheckError(
                    MISMATCH, f"let <> scrutinee has type {self.show(sty)}, "
                    "expected I", t.span, expected=S.Unit(),
                    found=self.named(sty))
            bty, bused, belab = self.infer(t.body)
            used = self._join(sused, bused, t.span)
            return bty, used, (t if selab is t.scrut and belab is t.body
                               else S.LetStar(selab, belab, t.span))
        if isinstance(t, S.LetTensor):
            sty, sused, selab = self.infer(t.scrut)
            if not isinstance(sty, S.Tensor):
                raise TypeCheckError(
                    MISMATCH, f"tensor pattern scrutinee has type "
                    f"{self.show(sty)}", t.span, found=self.named(sty))
            for ann, actual, which in ((t.tyx, sty.left, t.hintx),
                                       (t.tyy, sty.right, t.hinty)):
                if ann is not None and ann != actual:
                    raise TypeCheckError(
                        MISMATCH,
                        f"pattern annotation on {which!r} is "
                        f"{self.show(ann)}, scrutinee component is "
                        f"{self.show(actual)}", t.span,
                        expected=self.named(actual), found=self.named(ann))
            x = self.bind(t.hintx, sty.left, True)
            y = self.bind(t.hinty, sty.right, True)
            bty, bused, belab = self.infer(t.body)
            del self.tms[x:]
            for n, hint in ((x, t.hintx), (y, t.hinty)):
                if n not in bused:
                    raise TypeCheckError(
                        LINEAR_UNUSED,
                        f"linear pattern variable {hint!r} is not used",
                        t.span)
            del bused[x], bused[y]
            used = self._join(sused, bused, t.span)
            if (None in (t.tyx, t.tyy) or selab is not t.scrut
                    or belab is not t.body):
                t = S.LetTensor(t.hintx, t.hinty, sty.left, sty.right, selab,
                                belab, t.span)
            return bty, used, t
        if isinstance(t, S.LetBang):
            sty, sused, selab = self.infer(t.scrut)
            if not isinstance(sty, S.Bang):
                raise TypeCheckError(
                    MISMATCH, f"let ! scrutinee has type {self.show(sty)}, "
                    "expected a !-type", t.span, found=self.named(sty))
            if t.ty is not None and t.ty != sty.body:
                raise TypeCheckError(
                    MISMATCH, f"pattern annotation is {self.show(t.ty)}, "
                    f"scrutinee carries {self.show(sty.body)}", t.span,
                    expected=self.named(sty.body), found=self.named(t.ty))
            self.bind(t.hint, sty.body, False)
            bty, bused, belab = self.infer(t.body)
            self.tms.pop()
            used = self._join(sused, bused, t.span)
            if t.ty is None or selab is not t.scrut or belab is not t.body:
                t = S.LetBang(t.hint, sty.body, selab, belab, t.span)
            return bty, used, t
        raise TypeCheckError(ILL_KINDED, f"unrecognized term node {t!r}")

    def _join(self, a: dict, b: dict, span: Optional[Span]) -> dict:
        overlap = [n for n in b if n in a]
        if overlap:
            raise TypeCheckError(
                LINEAR_REUSED,
                f"linear variable(s) {self.show_vars(overlap)} consumed twice",
                span)
        out = dict(a)
        out.update(b)
        return out


def infer_type(ctx: TermContext, t: S.Term) -> TypingResult:
    """Infer the unique type of a term, enforcing full linear consumption.
    A success that read no context variable caches the answer on `t`."""
    validate_context(ctx)
    inf = Inferencer(ctx)
    ty, used, elab = inf.infer(t)
    leftover = [n for n in ctx.delta if n not in used]
    if leftover:
        names = ", ".join(leftover)
        raise TypeCheckError(
            LINEAR_UNUSED, f"linear variable(s) {names} not consumed",
            getattr(t, "span", None))
    if not inf.read_var:
        t.__dict__["_ty"] = (ty, None if elab is t else elab)
    return TypingResult(ty, elab)


def check_type(ctx: TermContext, t: S.Term, expected: Type) -> TypingResult:
    kind_check(ctx.xi, expected)
    res = infer_type(ctx, t)
    if res.ty != expected:
        raise TypeCheckError(
            MISMATCH, f"term has type {print_type(res.ty)}, expected "
            f"{print_type(expected)}", getattr(t, "span", None),
            expected=expected, found=res.ty)
    return res


class SubstitutionLemmaFailure(Exception):
    pass


def check_substitution_lemma(which: str, ctx: TermContext, t: S.Term,
                             x: str, u: S.Term,
                             ctx_u: TermContext | None = None,
                             rep_ty: Type | None = None) -> TypingResult:
    """Re-derive the conclusion of one of the three substitution rules.

    which="linear":          x in ctx.delta, u typed under ctx_u
    which="intuitionistic":  x in ctx.gamma, u typed under (xi | gamma-x ; -)
    which="type":            x in ctx.xi, rep_ty well kinded under xi-x
    """
    if which == "linear":
        sigma = ctx.delta[x]
        ctx_u = ctx_u or TermContext(ctx.xi, dict(ctx.gamma), {})
        rest = {n: ty for n, ty in ctx.delta.items() if n != x}
        target = TermContext(ctx.xi, dict(ctx.gamma), {**rest, **ctx_u.delta})
    elif which == "intuitionistic":
        sigma = ctx.gamma[x]
        gamma2 = {n: ty for n, ty in ctx.gamma.items() if n != x}
        ctx_u = TermContext(ctx.xi, gamma2, {})
        target = TermContext(ctx.xi, gamma2, dict(ctx.delta))
    if which in ("linear", "intuitionistic"):
        want = infer_type(ctx, t).ty
        u_ty = infer_type(ctx_u, u).ty
        if u_ty != sigma:
            raise SubstitutionLemmaFailure(
                f"replacement has type {print_type(u_ty)}, wanted "
                f"{print_type(sigma)}")
        result = infer_type(target, S.subst_term_in_term(t, x, u))
    elif which == "type":
        if rep_ty is None:
            raise ValueError("type substitution needs rep_ty")
        xi2 = tuple(n for n in ctx.xi if n != x)
        kind_check(xi2, rep_ty)
        tau = infer_type(ctx, t).ty
        ctx2 = TermContext(
            xi2,
            {n: S.subst_type_in_type(ty, x, rep_ty)
             for n, ty in ctx.gamma.items()},
            {n: S.subst_type_in_type(ty, x, rep_ty)
             for n, ty in ctx.delta.items()})
        result = infer_type(ctx2, S.subst_types(t, {x: rep_ty}))
        want = S.subst_type_in_type(tau, x, rep_ty)
    else:
        raise ValueError(f"unknown substitution rule {which!r}")
    if result.ty != want:
        raise SubstitutionLemmaFailure(
            f"{which}: substituted term has type {print_type(result.ty)}, "
            f"lemma predicts {print_type(want)} for {print_term(t)}")
    return result
