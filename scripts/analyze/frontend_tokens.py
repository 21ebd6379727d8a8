"""Token-level frontend: extract FileFacts without a compiler.

A single linear pass over the token stream with an explicit scope stack.
This is a *micro-parser*, not a C++ parser: it understands exactly the
constructs the rules need — namespace/class nesting (for qualified
names and member tables), function definitions, try/catch, range-for,
lambdas, a restricted set of declarations (float/double scalars,
unordered containers, std::atomic<fp>, mutexes, std::function,
ResourceGovernor), lock-guard constructions, calls, throws, returns and
compound assignments. Anything it cannot classify it skips, erring
toward *fewer* facts (the libclang frontend recovers the precision).

Preprocessor directives (including continuation lines) are blanked
before lexing: macro bodies would otherwise parse as namespace-scope
code. Line numbers are preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from cpplex import IDENT, PUNCT, Token, lex, match_forward
from model import (AccumEvent, CallEvent, FileFacts, FuncFacts, LockEvent,
                   ReturnEvent, ThrowEvent)

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "return",
    "break", "continue", "goto", "try", "catch", "throw", "new", "delete",
    "sizeof", "alignof", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "template", "typename", "using", "namespace", "class",
    "struct", "enum", "union", "public", "private", "protected", "operator",
    "static_assert", "decltype", "noexcept", "constexpr", "consteval",
    "constinit", "co_await", "co_return", "co_yield", "requires",
}

GUARD_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
MUTEX_TYPES = {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
               "recursive_timed_mutex"}
UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
CONTAINER_TYPES = {"vector", "array", "span", "deque", "list", "map", "set",
                   "valarray", "string", "multimap", "multiset"}
FP_TYPES = {"double", "float"}
PAR_ALGOS = {"reduce", "transform_reduce", "for_each", "sort", "transform",
             "inclusive_scan", "exclusive_scan", "accumulate"}
PARALLEL_FNS = {"parallel_for", "parallel_for_blocked"}
ATOMIC_ARITH = {"fetch_add", "fetch_sub"}
GOVERNOR_METHODS = {"try_reserve", "reserve", "release"}

# A directive line plus its backslash-continued lines.
_DIRECTIVE_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\[ \t\r\f\v]*\n)*[^\n]*",
                           re.MULTILINE)


def _blank_directives(text: str) -> str:
    """Blank preprocessor directives (with backslash continuations),
    keeping every newline so line numbers survive."""
    return _DIRECTIVE_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)


@dataclass
class _Scope:
    kind: str                   # ns | class | fn | lambda | block | try | catch | loop
    name: str = ""
    vars: dict = field(default_factory=dict)      # name -> category
    raw_types: dict = field(default_factory=dict)  # name -> type ident (best effort)
    locks: list = field(default_factory=list)     # mutex ids acquired here
    unordered_loop: bool = False
    parallel: bool = False      # lambda passed to parallel_for(_blocked)
    access: str = "public"      # current access section in a class scope


class _Parser:
    def __init__(self, path: str, text: str):
        self.path = path
        self.toks = lex(_blank_directives(text))[0]
        self.n = len(self.toks)
        self.facts = FileFacts(path=path)
        self.scopes: list[_Scope] = [_Scope("ns", name="")]
        self.fn_stack: list[FuncFacts] = []
        self.pending: _Scope | None = None   # scope to push at the next '{'
        self.pending_body_at: int = -1       # token index of that '{' (-1 = next)
        self.parallel_ends: list[int] = []   # close-paren indices of active parallel calls

    # ---- small helpers -------------------------------------------------

    def tok(self, i: int) -> Token | None:
        return self.toks[i] if 0 <= i < self.n else None

    def text_at(self, i: int) -> str:
        t = self.tok(i)
        return t.text if t else ""

    def cur_fn(self) -> FuncFacts | None:
        return self.fn_stack[-1] if self.fn_stack else None

    def enclosing_class(self) -> str:
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.name
        # Out-of-line method: derive from the function's qualified name.
        fn = self.cur_fn()
        if fn and "::" in fn.qual_name:
            return fn.qual_name.rsplit("::", 1)[0]
        return ""

    def in_guarded_try(self) -> bool:
        for s in reversed(self.scopes):
            if s.kind == "fn":
                return False
            if s.kind == "try":
                return True
        return False

    def held_locks(self) -> tuple:
        held: list[str] = []
        for s in self.scopes:
            held.extend(s.locks)
        return tuple(held)

    def lookup(self, name: str) -> tuple[str | None, _Scope | None]:
        """Resolve `name` to (category, declaring scope), innermost first."""
        for s in reversed(self.scopes):
            if name in s.vars:
                return s.vars[name], s
        cls = self.enclosing_class()
        members = self.facts.class_members.get(cls)
        if members and name in members:
            return members[name], None
        return None, None

    def declare(self, name: str, category: str, raw: str = "") -> None:
        scope = self.scopes[-1]
        scope.vars[name] = category
        if raw:
            scope.raw_types[name] = raw
        if scope.kind == "class":
            self.facts.class_members.setdefault(scope.name, {})[name] = category

    def mutex_id(self, arg: list[Token]) -> str:
        """Stable cross-TU identity for a mutex expression."""
        text = "".join(t.text for t in arg if t.kind in (IDENT, PUNCT))
        text = text.strip("&*() ")
        parts = re.split(r"\.|->", text)
        base = parts[0].split("::")[-1]
        if len(parts) == 1:
            cat, scope = self.lookup(base)
            if scope is not None and scope.kind in ("fn", "lambda", "block",
                                                    "try", "catch", "loop"):
                fn = self.cur_fn()
                return f"{fn.qual_name if fn else self.path}:{base}"
            cls = self.enclosing_class()
            if cat is not None and scope is not None:   # file-scope global
                return f"{self.path}:{base}"
            if cls:
                return f"{cls}::{base}"
            return f"{self.path}:{base}"
        # Member chain: qualify by the base's recorded type when we have it.
        for s in reversed(self.scopes):
            if base in s.raw_types:
                return f"{s.raw_types[base]}::{parts[-1]}"
        return f"{self.path}:{text}"

    # ---- declaration matching ------------------------------------------

    def match_decl(self, i: int) -> tuple[str, str, str, int] | None:
        """Try to match a tracked declaration whose type keyword is at i.
        Returns (var, category, raw_type, next_index) or None."""
        t = self.text_at(i)
        prev = self.text_at(i - 1)
        if prev in (".", "->"):
            return None
        category = None
        j = i + 1
        if t in FP_TYPES:
            category = "fp"
        elif t in UNORDERED_TYPES:
            category = "unordered"
        elif t in MUTEX_TYPES:
            category = "mutex"
        elif t == "function":
            if self.text_at(j) != "<":
                return None
            category = "function"
        elif t == "atomic":
            if self.text_at(j) != "<":
                return None
            close = self._skip_template(j)
            inner = {tk.text for tk in self.toks[j:close]}
            category = "atomic_fp" if inner & FP_TYPES else "atomic"
        elif t in CONTAINER_TYPES:
            category = "container"
        elif t == "ResourceGovernor":
            category = "governor"
        else:
            return None
        if self.text_at(j) == "<":
            j = self._skip_template(j) + 1
        while self.text_at(j) in ("&", "*", "const"):
            j += 1
        name_tok = self.tok(j)
        if name_tok is None or name_tok.kind != IDENT or name_tok.text in KEYWORDS:
            return None
        after = self.text_at(j + 1)
        if after not in ("=", ";", ",", "(", ")", "{", "[", ":"):
            return None
        return name_tok.text, category, t, j + 1

    def _skip_template(self, i: int) -> int:
        """i points at '<'; return index of the matching '>'."""
        depth = 0
        while i < self.n:
            t = self.toks[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i
            elif t in (";", "{"):
                break  # not a template argument list after all
            i += 1
        return i

    # ---- function definition matching ----------------------------------

    def match_function(self, i: int) -> tuple[FuncFacts, int, int] | None:
        """Try to match a function definition whose *name* starts at token i
        (ident, optionally A::B qualified). Returns (facts, params_open,
        body_open) token indices, or None."""
        names = [self.text_at(i)]
        j = i + 1
        while self.text_at(j) == "::" and (tk := self.tok(j + 1)) and tk.kind == IDENT:
            names.append(tk.text)
            j += 2
        if self.text_at(j) != "(":
            return None
        if names[-1] in KEYWORDS:
            return None
        params_open = j
        params_close = match_forward(self.toks, params_open, "(", ")")
        if params_close >= self.n:
            return None
        # Scan past const/noexcept/override/trailing-return/ctor-initializers
        # to the body '{'. A '{' directly after an identifier is brace-init
        # inside a ctor initializer list — skip it.
        k = params_close + 1
        steps = 0
        while k < self.n and steps < 400:
            steps += 1
            t = self.toks[k]
            if t.text == ";":
                return None            # declaration only
            if t.text == "=":
                return None            # = default / = delete / assignment
            if t.text == "(":
                k = match_forward(self.toks, k, "(", ")") + 1
                continue
            if t.text == "<":
                k = self._skip_template(k) + 1
                continue
            if t.text == "{":
                prev = self.toks[k - 1]
                if prev.kind == IDENT and prev.text not in (
                        "const", "noexcept", "override", "final", "mutable"):
                    k = match_forward(self.toks, k, "{", "}") + 1
                    continue
                body_open = k
                break
            if t.kind in (IDENT, PUNCT) and t.text in (
                    ",", ":", "::", "&", "*", ">", "->", "[", "]") \
                    or t.kind == IDENT or t.kind == "number":
                k += 1
                continue
            return None
        else:
            return None
        name = names[-1]
        if len(names) >= 2:
            qual = f"{names[-2]}::{name}"
        else:
            cls = ""
            for s in reversed(self.scopes):
                if s.kind == "class":
                    cls = s.name
                    break
            qual = f"{cls}::{name}" if cls else name
        facts = FuncFacts(qual_name=qual, name=name, file=self.path,
                          line=self.toks[i].line)
        return facts, params_open, body_open

    def declare_params(self, scope: _Scope, open_paren: int) -> None:
        close = match_forward(self.toks, open_paren, "(", ")")
        i = open_paren + 1
        while i < close:
            d = None
            if self.toks[i].kind == IDENT:
                d = self.match_decl(i)
            if d:
                var, category, raw, nxt = d
                scope.vars[var] = category
                scope.raw_types[var] = raw
                i = nxt
            else:
                if self.toks[i].text in ("(", "<", "{", "["):
                    pairs = {"(": ")", "<": ">", "{": "}", "[": "]"}
                    i = (self._skip_template(i) if self.toks[i].text == "<" else
                         match_forward(self.toks, i, self.toks[i].text,
                                       pairs[self.toks[i].text]))
                i += 1

    # ---- main loop ------------------------------------------------------

    def run(self) -> FileFacts:
        i = 0
        while i < self.n:
            t = self.toks[i]
            text = t.text

            if text == "{":
                scope = self.pending if (self.pending is not None and
                                         (self.pending_body_at in (-1, i))) \
                    else _Scope("block")
                self.pending = None
                self.pending_body_at = -1
                self.scopes.append(scope)
                i += 1
                continue
            if text == "}":
                if len(self.scopes) > 1:
                    closed = self.scopes.pop()
                    if closed.kind == "fn" and self.fn_stack:
                        self.fn_stack.pop()
                i += 1
                continue
            if text == ";" and self.pending is not None and self.pending_body_at == -1:
                # `try`/`for`/... heading a braceless statement: drop it.
                self.pending = None

            while self.parallel_ends and i > self.parallel_ends[-1]:
                self.parallel_ends.pop()

            if t.kind == PUNCT:
                if text in ("+=", "-=", "*=", "/="):
                    self._compound_assign(i)
                elif text == "[" and self.text_at(i + 1) == "[":
                    # Attribute-specifier sequence ([[nodiscard]], ...):
                    # skip it so the definition it heads still matches.
                    i = match_forward(self.toks, i, "[", "]") + 1
                    continue
                elif text == "[":
                    li = self._try_lambda(i)
                    if li is not None:
                        i = li
                        continue
                i += 1
                continue

            if t.kind != IDENT:
                i += 1
                continue

            # --- keywords with structure ---
            if text == "namespace":
                j = i + 1
                name = ""
                while self.tok(j) and self.tok(j).kind == IDENT:
                    name = self.text_at(j)
                    j += 1
                    if self.text_at(j) == "::":
                        j += 1
                if self.text_at(j) == "{":
                    self.pending = _Scope("ns", name=name)
                    self.pending_body_at = j
                i = j
                continue
            if text in ("class", "struct", "union"):
                j = i + 1
                if self.text_at(j) == "alignas":
                    j = match_forward(self.toks, j + 1, "(", ")") + 1
                name_tok = self.tok(j)
                if name_tok is not None and name_tok.kind == IDENT:
                    j += 1
                    while j < self.n and self.text_at(j) not in ("{", ";"):
                        if self.text_at(j) == "<":
                            j = self._skip_template(j)
                        j += 1
                    if self.text_at(j) == "{":
                        self.pending = _Scope(
                            "class", name=name_tok.text,
                            access="public" if text == "struct" else "private")
                        self.pending_body_at = j
                    i = j
                    continue
                i += 1
                continue
            if text in ("public", "private", "protected") and \
                    self.scopes[-1].kind == "class" and self.text_at(i + 1) == ":":
                self.scopes[-1].access = text
                i += 2
                continue
            if text == "template":
                if self.text_at(i + 1) == "<":
                    i = self._skip_template(i + 1) + 1
                else:
                    i += 1
                continue
            if text == "try":
                self.pending = _Scope("try")
                self.pending_body_at = -1
                i += 1
                continue
            if text == "catch":
                j = i + 1
                if self.text_at(j) == "(":
                    j = match_forward(self.toks, j, "(", ")") + 1
                self.pending = _Scope("catch")
                self.pending_body_at = -1
                i = j
                continue
            if text == "for":
                i = self._handle_for(i)
                continue
            if text == "return":
                fn = self.cur_fn()
                if fn is not None and not any(s.kind == "lambda" for s in self.scopes):
                    fn.returns.append(ReturnEvent(line=t.line))
                i += 1
                continue
            if text == "throw":
                fn = self.cur_fn()
                if fn is not None:
                    fn.throws.append(ThrowEvent(line=t.line,
                                                guarded=self.in_guarded_try()))
                i += 1
                continue
            if text in ("if", "while", "switch"):
                # Step into the condition: calls inside it (e.g.
                # `if (!governor_.try_reserve(...))`) are facts too.
                i += 1
                continue

            # --- lock guard construction ---
            if text in GUARD_TYPES and self.cur_fn() is not None:
                ni = self._handle_guard(i)
                if ni is not None:
                    i = ni
                    continue

            # --- tracked declarations ---
            d = self.match_decl(i)
            if d is not None:
                var, category, raw, nxt = d
                # Don't re-declare on assignments: `x = ...` has no type token
                # at i, so reaching here means a real declaration.
                self.declare(var, category, raw)
                if category == "atomic_fp":
                    self.facts.atomic_fp_decls.append((var, t.line))
                i = nxt
                continue

            # --- function definition (namespace/class scope only) ---
            if self.scopes[-1].kind in ("ns", "class"):
                f = self.match_function(i)
                if f is not None:
                    facts, params_open, body_open = f
                    if self.scopes[-1].kind == "class" and \
                            self.scopes[-1].access == "public":
                        self.facts.public_methods.setdefault(
                            self.scopes[-1].name, set()).add(facts.name)
                    self.facts.functions.append(facts)
                    self.fn_stack.append(facts)
                    scope = _Scope("fn")
                    self.declare_params(scope, params_open)
                    self.pending = scope
                    self.pending_body_at = body_open
                    i = body_open
                    continue

            # --- in-class method declaration (for the entry-point registry) ---
            if self.scopes[-1].kind == "class" and self.text_at(i + 1) == "(" \
                    and text not in KEYWORDS:
                if self.scopes[-1].access == "public":
                    self.facts.public_methods.setdefault(
                        self.scopes[-1].name, set()).add(text)
                i = match_forward(self.toks, i + 1, "(", ")") + 1
                continue

            # --- call expression ---
            if self.text_at(i + 1) == "(" and text not in KEYWORDS:
                self._handle_call(i)
            i += 1
        return self.facts

    # ---- construct handlers ---------------------------------------------

    def _handle_for(self, i: int) -> int:
        j = i + 1
        if self.text_at(j) != "(":
            return i + 1
        close = match_forward(self.toks, j, "(", ")")
        # Range-for: a top-level ':' (not '::') inside the parens.
        depth = 0
        colon = -1
        for k in range(j, close):
            tk = self.toks[k].text
            if tk in ("(", "[", "{", "<"):
                depth += 1
            elif tk in (")", "]", "}", ">"):
                depth -= 1
            elif tk == ":" and depth == 1:
                colon = k
                break
        scope = _Scope("loop")
        if colon > 0:
            range_toks = self.toks[colon + 1:close]
            base = next((tk.text for tk in range_toks if tk.kind == IDENT
                         and tk.text not in ("std", "this")), "")
            cat, _ = self.lookup(base)
            texts = {tk.text for tk in range_toks}
            if cat == "unordered" or texts & UNORDERED_TYPES:
                scope.unordered_loop = True
            # Declare the loop variable (last ident before ':').
            for k in range(colon - 1, j, -1):
                if self.toks[k].kind == IDENT and self.toks[k].text not in KEYWORDS:
                    scope.vars[self.toks[k].text] = "loopvar"
                    break
        self.pending = scope
        self.pending_body_at = -1
        return close + 1

    def _handle_guard(self, i: int) -> int | None:
        j = i + 1
        if self.text_at(j) == "<":
            j = self._skip_template(j) + 1
        var = None
        if (tk := self.tok(j)) and tk.kind == IDENT:
            var = tk.text
            j += 1
        if self.text_at(j) not in ("(", "{"):
            return None
        open_b, close_b = self.text_at(j), ")" if self.text_at(j) == "(" else "}"
        close = match_forward(self.toks, j, open_b, close_b)
        args: list[list[Token]] = [[]]
        depth = 0
        for k in range(j + 1, close):
            tk = self.toks[k]
            if tk.text in ("(", "[", "{"):
                depth += 1
            elif tk.text in (")", "]", "}"):
                depth -= 1
            if tk.text == "," and depth == 0:
                args.append([])
            else:
                args[-1].append(tk)
        arg_texts = ["".join(t.text for t in a) for a in args]
        if any("defer_lock" in a for a in arg_texts):
            return close + 1
        fn = self.cur_fn()
        for a, atext in zip(args, arg_texts):
            if not a or atext.endswith("_lock"):
                continue
            mid = self.mutex_id(a)
            held = self.held_locks()
            ev = LockEvent(mutex=mid, line=self.toks[i].line, held=held)
            if fn is not None:
                fn.locks.append(ev)
            self.scopes[-1].locks.append(mid)
        if var:
            self.declare(var, "lock")
        return close + 1

    def _try_lambda(self, i: int) -> int | None:
        prev = self.tok(i - 1)
        if prev is not None and (prev.kind in ("number",) or
                                 (prev.kind == IDENT and prev.text not in
                                  ("return", "co_return")) or
                                 prev.text in ("]", ")", "[")):
            return None  # subscript or attribute, not a lambda introducer
        close = match_forward(self.toks, i, "[", "]")
        if close >= self.n:
            return None
        j = close + 1
        params_open = -1
        if self.text_at(j) == "(":
            params_open = j
            j = match_forward(self.toks, j, "(", ")") + 1
        steps = 0
        while j < self.n and steps < 60:
            steps += 1
            t = self.text_at(j)
            if t == "{":
                scope = _Scope("lambda")
                scope.parallel = bool(self.parallel_ends)
                if params_open >= 0:
                    self.declare_params(scope, params_open)
                self.pending = scope
                self.pending_body_at = j
                return j
            if t in (";", ")", ",", "]", "}"):
                return None
            if t == "(":
                j = match_forward(self.toks, j, "(", ")") + 1
                continue
            if t == "<":
                j = self._skip_template(j) + 1
                continue
            j += 1
        return None

    def _receiver_chain(self, i: int) -> tuple[str, bool, bool]:
        """For a call/member at token i, walk back over `a.b->c` chains.
        Returns (base identifier, is_member_chain, subscripted)."""
        j = i
        member = False
        subscripted = False
        base = self.text_at(i)
        while True:
            p = self.text_at(j - 1)
            if p in (".", "->"):
                member = True
                j -= 2
                while self.text_at(j) == "]":
                    subscripted = True
                    depth = 0
                    while j >= 0:
                        if self.text_at(j) == "]":
                            depth += 1
                        elif self.text_at(j) == "[":
                            depth -= 1
                            if depth == 0:
                                break
                        j -= 1
                    j -= 1
                if (tk := self.tok(j)) and tk.kind == IDENT:
                    base = tk.text
                else:
                    break
            else:
                break
        return base, member, subscripted

    def _handle_call(self, i: int) -> None:
        t = self.toks[i]
        name = t.text
        fn = self.cur_fn()
        base, member, _ = self._receiver_chain(i)
        cat, _scope = self.lookup(base)

        # Qualified path (a::b::name) for emit/rethrow detection.
        qual_parts = [name]
        j = i
        while self.text_at(j - 1) == "::" and (tk := self.tok(j - 2)) \
                and tk.kind == IDENT:
            qual_parts.append(tk.text)
            j -= 2
        qual = "::".join(reversed(qual_parts))

        if name == "rethrow_exception" and fn is not None:
            fn.throws.append(ThrowEvent(line=t.line, guarded=self.in_guarded_try(),
                                        text="std::rethrow_exception"))
        if member and name in ("lock", "unlock") and cat == "mutex":
            mid = self.mutex_id([self.tok(i - 2)])
            if name == "lock":
                if fn is not None:
                    fn.locks.append(LockEvent(mutex=mid, line=t.line,
                                              held=self.held_locks()))
                self.scopes[-1].locks.append(mid)
            else:
                for s in reversed(self.scopes):
                    if mid in s.locks:
                        s.locks.remove(mid)
                        break
            return
        if member and name in ATOMIC_ARITH and cat == "atomic_fp":
            self.facts.atomic_fp_ops.append((base, t.line))
        if member and name in GOVERNOR_METHODS and (
                cat == "governor" or "governor" in base.lower()):
            self.facts.governor_calls.append((name, t.line))
        if name in PAR_ALGOS:
            close = match_forward(self.toks, i + 1, "(", ")")
            for k in range(i + 2, close):
                if self.toks[k].text == "execution" and \
                        self.text_at(k + 1) == "::" and \
                        self.text_at(k + 2) in ("par", "par_unseq"):
                    self.facts.par_policy_calls.append((name, t.line))
                    break
        if fn is not None:
            close = match_forward(self.toks, i + 1, "(", ")")
            arg0 = []
            depth = 0
            for k in range(i + 2, min(close, i + 40)):
                tk = self.toks[k].text
                if tk in ("(", "[", "{"):
                    depth += 1
                elif tk in (")", "]", "}"):
                    depth -= 1
                elif tk == "," and depth == 0:
                    break
                arg0.append(tk)
            recv_type = ""
            if member and self.text_at(i - 1) in (".", "->"):
                rtk = self.tok(i - 2)
                if rtk is not None and rtk.kind == IDENT:
                    for s in reversed(self.scopes):
                        if rtk.text in s.raw_types:
                            recv_type = s.raw_types[rtk.text]
                            break
            ev = CallEvent(name=name, line=t.line, guarded=self.in_guarded_try(),
                           locks_held=self.held_locks(),
                           is_callback=(cat == "function" and not member),
                           arg0="".join(arg0), member=member,
                           recv_type=recv_type)
            fn.calls.append(ev)
            if name == "emit_request" or qual.endswith("reqtrace::log_request"):
                fn.emit_lines.append(t.line)
            if name in PARALLEL_FNS:
                close = match_forward(self.toks, i + 1, "(", ")")
                self.parallel_ends.append(close)

    def _compound_assign(self, i: int) -> None:
        fn = self.cur_fn()
        if fn is None:
            return
        # Walk back over the assignment target: ident, member ops, subscripts.
        j = i - 1
        subscripted = False
        member = False
        while j >= 0:
            tk = self.toks[j]
            if tk.text == "]":
                subscripted = True
                depth = 0
                while j >= 0:
                    if self.toks[j].text == "]":
                        depth += 1
                    elif self.toks[j].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                j -= 1
            elif tk.kind == IDENT:
                if self.text_at(j - 1) in (".", "->"):
                    member = True
                    j -= 2
                else:
                    break
            elif tk.text in (")", "*"):
                return  # (*p) += … or expression target: out of scope
            else:
                return
        if j < 0 or self.toks[j].kind != IDENT:
            return
        base = self.toks[j].text
        cat, scope = self.lookup(base)
        if cat == "atomic_fp":
            self.facts.atomic_fp_ops.append((base, self.toks[i].line))
        # Scope relations for the determinism rules.
        outside_parallel = False
        in_unordered = False
        lam = None
        for s in reversed(self.scopes):
            if s.kind == "lambda" and s.parallel:
                lam = s
                break
        if lam is not None and scope is not None:
            idx_scope = self.scopes.index(scope)
            idx_lam = self.scopes.index(lam)
            outside_parallel = idx_scope < idx_lam
        elif lam is not None and scope is None and cat is not None:
            outside_parallel = True    # class member captured by reference
        loop = None
        for s in reversed(self.scopes):
            if s.kind == "loop" and s.unordered_loop:
                loop = s
                break
            if s.kind in ("fn", "lambda"):
                break
        if loop is not None:
            if scope is None or self.scopes.index(scope) < self.scopes.index(loop):
                in_unordered = True
        fn.accums.append(AccumEvent(
            base=base, line=self.toks[i].line, is_fp=(cat == "fp"),
            subscripted=subscripted, member=member,
            outside_parallel=outside_parallel, in_unordered_loop=in_unordered))


def extract(rel: str, text: str) -> FileFacts:
    """Parse one file's text into FileFacts. `rel` is the repo-relative
    path recorded in facts and findings."""
    return _Parser(rel, text).run()
