"""Lexical pass: token facts for the source-hygiene rules.

One scan of ``cpplex.lex`` tokens over the raw text (preprocessor lines
kept) collects includes, allocations, std::pow exponents, span/metric name
arguments, atomic ops, throws, registry constants and evaluator/validation
markers, plus the ``// analyze-allow`` suppressions. It runs after either
frontend, so these facts and rules do not depend on libclang.
"""

from __future__ import annotations

from cpplex import IDENT, NUMBER, STRING, Token, lex, match_forward
from model import FileFacts, LexicalFacts, NameArg

ALLOC_FNS = {"malloc", "calloc", "realloc", "free"}
ATOMIC_OPS = {"fetch_add", "fetch_sub", "fetch_or", "fetch_and", "load",
              "store", "exchange", "compare_exchange_weak",
              "compare_exchange_strong"}
# Name-argument call sites: callee -> (registry, index of the name
# argument). ScopedTimer/RequestScope/PhaseSpan also match as declarations
# (`PhaseSpan span(name)`); the metric accessors only as `.x(` / `->x(`.
NAME_ARGS = {
    "ScopedTimer": ("span", 0), "RequestScope": ("span", 0),
    "PhaseSpan": ("span", 0), "record_timeline_span": ("span", 0),
    "record_span": ("span", 1), "record_event": ("span", 0),
    "trigger": ("span", 0), "parallel_for": ("span", -1),
    "parallel_for_blocked": ("span", -1), "flush_counts": ("metric", 0),
    "counter": ("metric", 0), "gauge": ("metric", 0),
    "histogram": ("metric", 0), "series": ("metric", 0)}
SPAN_TYPES = {"ScopedTimer", "RequestScope", "PhaseSpan"}
METRIC_ACCESSORS = {"counter", "gauge", "histogram", "series"}
VALIDATE_CALLS = {"enforce_validation", "assign_degrees"}


def joined(toks: list[Token]) -> str:
    """Token texts glued back together, a space only between words."""
    out = ""
    prev_word = False
    for t in toks:
        word = t.kind in (IDENT, NUMBER)
        text = f'"{t.text}"' if t.kind == STRING else t.text
        out += (" " if word and prev_word else "") + text
        prev_word = word
    return out


def split_args(toks: list[Token], open_paren: int) -> list[list[Token]]:
    """Top-level argument token lists of the call whose '(' is at
    open_paren; (), [] and {} nest, so lambdas and brace-inits stay whole."""
    close = match_forward(toks, open_paren, "(", ")")
    args: list[list[Token]] = [[]]
    depth = 0
    for t in toks[open_paren + 1:close]:
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "," and depth == 0:
            args.append([])
            continue
        args[-1].append(t)
    return args


def _is_evaluator_entry(at, i: int) -> bool:
    """`EvalResult [X::]evaluate*(`, `FooEvaluator::FooEvaluator(` or
    `EvalSession::EvalSession(` at token i (`at(k)` is token k's text)."""
    t = at(i)
    if t == "EvalResult":
        k = i + 3 if at(i + 2) == "::" else i + 1
        return at(k).startswith("evaluate") and at(k + 1) == "("
    if t == "EvalSession" or (t.endswith("Evaluator") and t != "Evaluator"):
        return at(i + 1) == "::" and at(i + 2) == t and at(i + 3) == "("
    return False


def extract(text: str) -> tuple[LexicalFacts, dict[int, set[str]]]:
    """Lexical facts and suppressions for one file's raw text."""
    toks, suppressions = lex(text)
    lf = LexicalFacts()
    n = len(toks)

    def at(k: int) -> str:
        return toks[k].text if 0 <= k < n else ""

    for i, t in enumerate(toks):
        line = t.line
        if t.text == "#" and (i == 0 or toks[i - 1].line != line):
            if at(i + 1) == "pragma" and at(i + 2) == "once":
                lf.pragma_once = True
            elif at(i + 1) == "include" and i + 2 < n:
                target = toks[i + 2]
                if target.kind == STRING:
                    lf.includes.append((f'"{target.text}"', line))
                elif target.text == "<":
                    k = i + 3
                    while k < n and toks[k].text != ">" and toks[k].line == line:
                        k += 1
                    lf.includes.append(("<" + "".join(
                        tk.text for tk in toks[i + 3:k]) + ">", line))
            continue
        if t.kind != IDENT:
            continue
        word, call = t.text, at(i + 1) == "("
        if word == "new" and at(i - 1) not in ("::", "<") and not call:
            lf.allocs.append(("new", line))
        elif word in ALLOC_FNS and call:
            lf.allocs.append((word, line))
        elif word == "pow" and call and at(i - 1) == "::" and at(i - 2) == "std":
            args = split_args(toks, i + 1)
            if len(args) >= 2:
                lf.pow_exponents.append((joined(args[-1]), line))
        elif word == "throw":
            lf.throw_lines.append(line)
        elif word in ATOMIC_OPS and call and at(i - 1) == ".":
            k = i
            while k < n and toks[k].text != ";":
                k += 1
            relaxed = any(tk.text == "memory_order_relaxed"
                          for tk in toks[i:k])
            lf.atomic_ops.append((word, toks[i - 1].line, relaxed))
        elif word == "constexpr" and at(i + 1) == "const" and \
                at(i + 2) == "char" and at(i + 3) == "*" and \
                at(i + 4).startswith("k") and at(i + 5) == "=" and \
                i + 6 < n and toks[i + 6].kind == STRING:
            lf.registry_consts.append((at(i + 4), toks[i + 6].text, line))
        elif word in NAME_ARGS:
            registry, which = NAME_ARGS[word]
            paren = i + 2 if word in SPAN_TYPES and not call and \
                at(i + 1).isidentifier() else i + 1
            member = at(i - 1) in (".", "->")
            args = split_args(toks, paren) if at(paren) == "(" and (
                member or word not in METRIC_ACCESSORS) else []
            if which < len(args):
                arg = args[which]
                lf.name_args.append(NameArg(
                    registry=registry, callee=word, text=joined(arg),
                    line=toks[i - 1].line if member else line,
                    literal=len(arg) == 1 and arg[0].kind == STRING))
        if call and (word in VALIDATE_CALLS or (
                word == "validate" and at(i - 1) == "." and at(i + 2) == ")")):
            lf.validates = True
        if _is_evaluator_entry(at, i):
            lf.evaluator_entry = True
    return lf, suppressions


def attach(facts: FileFacts, text: str) -> FileFacts:
    """Add the lexical facts and suppressions of `text` to a frontend's
    FileFacts; returns `facts`."""
    facts.lexical, facts.suppressions = extract(text)
    return facts
