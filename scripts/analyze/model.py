"""Fact model shared by the libclang and token frontends.

A frontend reduces one source file to a ``FileFacts``: the functions it
defines (with their call, throw, lock, return and accumulation events in
source order) plus file-level facts (class member types, atomic-FP
arithmetic, unordered-container iteration). The lexical pass
(lexical.py) then adds the same ``LexicalFacts`` and suppressions under
either frontend. Rules consume a list of ``FileFacts`` — they never read
source text, so rule behaviour is identical under both frontends; only
fact *precision* differs.

Mutex identity: a lock event names its mutex with a stable id — for a
bare member (``mu_``) the id is ``EnclosingClass::mu_``; for a member
reached through an object (``s.sink_mutex``) it is ``DeclType::member``
when the receiver's type is known, else the normalized expression text.
Identical ids across translation units merge into one node of the global
acquisition graph, which is what makes the cross-TU lock-order cycle
check possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CallEvent:
    """One call expression inside a function body."""
    name: str               # last identifier of the callee (``emit`` for a::b::emit)
    line: int
    guarded: bool = False   # lexically inside a try block that has a catch clause
    locks_held: tuple = ()  # mutex ids held at the call site, outermost first
    is_callback: bool = False  # invocation of a std::function-typed value
    arg0: str = ""          # normalized text of the first argument (best effort)
    member: bool = False    # call through `.` or `->`
    recv_type: str = ""     # declared type of the immediate receiver, if known


@dataclass
class ThrowEvent:
    """A ``throw`` statement (or std::rethrow_exception call)."""
    line: int
    guarded: bool = False   # lexically inside a try block that has a catch clause
    text: str = "throw"


@dataclass
class LockEvent:
    """One lock acquisition (guard construction or explicit .lock())."""
    mutex: str
    line: int
    held: tuple = ()        # mutex ids already held when this one is taken


@dataclass
class AccumEvent:
    """A compound assignment (+=, -=, *=, /=) or atomic fetch-arithmetic."""
    base: str               # base identifier of the assignment target
    line: int
    is_fp: bool = False     # target's declared type is float/double (when known)
    subscripted: bool = False   # target is an element access (disjoint per index)
    member: bool = False        # target is a member chain off `base`
    outside_parallel: bool = False  # base declared outside the enclosing parallel body
    in_unordered_loop: bool = False  # inside a range-for over an unordered container


@dataclass
class ReturnEvent:
    line: int


@dataclass
class FuncFacts:
    """Facts for one function definition, events in source order."""
    qual_name: str          # e.g. ``EvalSession::try_compile`` (namespaces dropped)
    name: str               # unqualified
    file: str               # repo-relative path
    line: int
    calls: list[CallEvent] = field(default_factory=list)
    throws: list[ThrowEvent] = field(default_factory=list)
    locks: list[LockEvent] = field(default_factory=list)
    accums: list[AccumEvent] = field(default_factory=list)
    returns: list[ReturnEvent] = field(default_factory=list)
    # Line of each call to a request-record emit helper (rules.EMIT_HELPERS).
    emit_lines: list[int] = field(default_factory=list)


@dataclass
class NameArg:
    """The name argument at a span or metric call site."""
    registry: str           # "span" or "metric"
    callee: str             # ScopedTimer, record_span, parallel_for, counter, ...
    line: int
    text: str               # argument tokens joined, "" when absent
    literal: bool = False   # the argument is one string literal


@dataclass
class LexicalFacts:
    """Token-level facts the lexical pass extracts from raw source text."""
    includes: list[tuple[str, int]] = field(default_factory=list)  # (<x> or "x", line)
    pragma_once: bool = False
    # (new | malloc | calloc | realloc | free, line); not placement/::new
    allocs: list[tuple[str, int]] = field(default_factory=list)
    # (exponent text, line) of every std::pow call with two arguments
    pow_exponents: list[tuple[str, int]] = field(default_factory=list)
    name_args: list[NameArg] = field(default_factory=list)
    # (member op, line, statement names memory_order_relaxed)
    atomic_ops: list[tuple[str, int, bool]] = field(default_factory=list)
    throw_lines: list[int] = field(default_factory=list)  # `throw` keywords
    # (kName, value, line) for `constexpr const char* kName = "value"`
    registry_consts: list[tuple[str, str, int]] = field(default_factory=list)
    evaluator_entry: bool = False  # defines a public evaluator entry point
    validates: bool = False        # calls validate()/enforce_validation()/assign_degrees()


@dataclass
class FileFacts:
    """Everything a frontend extracted from one source file."""
    path: str               # repo-relative
    functions: list[FuncFacts] = field(default_factory=list)
    # class name -> {member name -> type text} for every class/struct whose
    # body appears in this file (merged across files by the rule engine so
    # out-of-line methods resolve their members' types).
    class_members: dict[str, dict[str, str]] = field(default_factory=dict)
    # class name -> set of method names declared under public access. The
    # API-contract and throw-path rules define "entry point" as a public
    # method whose name starts with ``try_``.
    public_methods: dict[str, set[str]] = field(default_factory=dict)
    # Calls to std::reduce/transform_reduce/for_each with a parallel
    # execution policy argument: (callee, line).
    par_policy_calls: list[tuple[str, int]] = field(default_factory=list)
    # Declarations of std::atomic<float|double>: (var, line).
    atomic_fp_decls: list[tuple[str, int]] = field(default_factory=list)
    # Arithmetic on std::atomic<float|double> values (+=, -=, fetch_add,
    # fetch_sub): (var, line).
    atomic_fp_ops: list[tuple[str, int]] = field(default_factory=list)
    # Direct ResourceGovernor reserve/release calls: (method, line).
    governor_calls: list[tuple[str, int]] = field(default_factory=list)
    lexical: LexicalFacts = field(default_factory=LexicalFacts)
    # suppressed lines: {line -> set of rule names allowed on that line}
    suppressions: dict[int, set[str]] = field(default_factory=dict)


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    suppressed: bool = False

    def key(self) -> tuple:
        return (self.rule, self.file, self.line, self.message)
