"""libclang frontend: extract FileFacts from a real AST.

Uses the python `clang.cindex` bindings driven by the exported
`compile_commands.json`, so types are exact: an accumulation target is
FP because its canonical type says so, a receiver is a ResourceGovernor
because the record decl says so — not because the spelling looks right.
Emits the same fact model as frontend_tokens; rules cannot tell the
frontends apart except by precision.

Availability is probed with `available()`; the CLI falls back to the
token frontend (or fails under --require-libclang) when the bindings or
a loadable libclang are missing.
"""

from __future__ import annotations

import os

from model import (AccumEvent, CallEvent, FileFacts, FuncFacts, LockEvent,
                   ReturnEvent, ThrowEvent)

GUARD_TYPES = ("lock_guard", "unique_lock", "scoped_lock", "shared_lock")
MUTEX_TYPES = ("std::mutex", "std::shared_mutex", "std::recursive_mutex",
               "std::timed_mutex", "std::recursive_timed_mutex")
PAR_ALGOS = {"reduce", "transform_reduce", "for_each", "sort", "transform",
             "inclusive_scan", "exclusive_scan"}
PARALLEL_FNS = {"parallel_for", "parallel_for_blocked"}
ATOMIC_ARITH = {"fetch_add", "fetch_sub", "operator+=", "operator-="}
GOVERNOR_METHODS = {"try_reserve", "reserve", "release"}

_cindex = None
_index = None


def _probe_library_file(cindex) -> str | None:
    """Distro python bindings (e.g. python3-clang-18) don't always know
    where the matching libclang.so lives; probe the usual llvm prefixes."""
    import glob
    candidates: list[str] = []
    for pattern in ("/usr/lib/llvm-*/lib/libclang*.so*",
                    "/usr/lib/*/libclang-*.so*",
                    "/usr/local/lib/libclang*.so*"):
        candidates.extend(glob.glob(pattern))
    # Prefer the newest llvm prefix, and real files over dangling symlinks.
    for cand in sorted(set(candidates), reverse=True):
        if os.path.exists(cand):
            return cand
    return None


def available() -> tuple[bool, str]:
    """(usable, detail). Tries to import clang.cindex and create an Index."""
    global _cindex, _index
    if _index is not None:
        return True, "libclang (cached)"
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError as e:
        return False, f"python clang bindings unavailable: {e}"
    try:
        _index = cindex.Index.create()
    except Exception as first:  # cindex raises LibclangError, an Exception
        lib = _probe_library_file(cindex)
        if lib is None:
            return False, f"libclang not loadable: {first}"
        try:
            cindex.Config.set_library_file(lib)
            _index = cindex.Index.create()
        except Exception as e:
            return False, f"libclang not loadable (tried {lib}): {e}"
    _cindex = cindex
    try:
        return True, str(cindex.conf.lib.clang_getClangVersion())
    except Exception:  # bindings without the version entry point
        return True, "libclang"


def _compile_args(build_dir: str, path: str) -> list[str]:
    """Arguments for `path` from compile_commands.json, stripped of the
    compiler/output/input words; header files reuse a sibling TU's args."""
    ci = _cindex
    try:
        db = ci.CompilationDatabase.fromDirectory(build_dir)
    except ci.CompilationDatabaseError:
        return ["-std=c++20"]
    cmds = db.getCompileCommands(path)
    if not cmds:
        # Headers aren't in the database: borrow the first entry's flags.
        cmds = db.getAllCompileCommands()
        if not cmds:
            return ["-std=c++20"]
    cmd = cmds[0]
    args = []
    skip_next = False
    words = list(cmd.arguments)
    for w in words[1:]:
        if skip_next:
            skip_next = False
            continue
        if w in ("-c", "-o"):
            skip_next = (w == "-o")
            continue
        if w == words[-1] and not w.startswith("-"):
            continue  # the source file itself
        args.append(w)
    return args


class _Walker:
    """Per-file AST walk collecting facts for cursors located in `path`."""

    def __init__(self, path: str, rel: str):
        self.ci = _cindex
        self.path = path
        self.facts = FileFacts(path=rel)
        self.K = self.ci.CursorKind

    # -- helpers ----------------------------------------------------------

    def _in_file(self, cursor) -> bool:
        loc = cursor.location
        return loc.file is not None and os.path.samefile(loc.file.name,
                                                         self.path)

    def _type_spelling(self, cursor) -> str:
        try:
            return cursor.type.get_canonical().spelling
        except Exception:
            return ""

    def _is_fp(self, cursor) -> bool:
        sp = self._type_spelling(cursor).replace("const", "").strip(" &")
        return sp in ("double", "float", "long double")

    def _is_atomic_fp(self, spelling: str) -> bool:
        sp = spelling.replace(" ", "")
        return ("atomic<double>" in sp or "atomic<float>" in sp or
                "atomic<longdouble>" in sp)

    def _qual_name(self, cursor) -> tuple[str, str]:
        name = cursor.spelling
        parent = cursor.semantic_parent
        if parent is not None and parent.kind in (self.K.CLASS_DECL,
                                                  self.K.STRUCT_DECL,
                                                  self.K.CLASS_TEMPLATE):
            return f"{parent.spelling}::{name}", name
        return name, name

    def _mutex_id(self, expr, fn: FuncFacts) -> str:
        """Stable identity for a mutex expression cursor (same scheme as
        the token frontend)."""
        K = self.K
        for node in [expr] + list(expr.walk_preorder()):
            if node.kind == K.MEMBER_REF_EXPR:
                ref = node.referenced
                if ref is not None:
                    owner = ref.semantic_parent
                    if owner is not None and owner.spelling:
                        return f"{owner.spelling}::{ref.spelling}"
                return f"{self.facts.path}:{node.spelling}"
            if node.kind == K.DECL_REF_EXPR:
                ref = node.referenced
                if ref is None:
                    return f"{self.facts.path}:{node.spelling}"
                parent = ref.semantic_parent
                if parent is not None and parent.kind in (
                        K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                        K.DESTRUCTOR, K.LAMBDA_EXPR):
                    return f"{fn.qual_name}:{ref.spelling}"
                return f"{self.facts.path}:{ref.spelling}"
        return f"{self.facts.path}:<unknown-mutex>"

    def _first_arg_text(self, call) -> str:
        args = list(call.get_arguments())
        if not args:
            return ""
        try:
            return "".join(t.spelling for t in args[0].get_tokens())[:120]
        except Exception:
            return ""

    # -- traversal --------------------------------------------------------

    def top(self, cursor) -> None:
        K = self.K
        for c in cursor.get_children():
            if c.kind in (K.NAMESPACE, K.LINKAGE_SPEC):
                self.top(c)
            elif c.kind in (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                if self._safe_in_file(c):
                    self.klass(c)
            elif c.kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                            K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                if self._safe_in_file(c) and c.is_definition():
                    self.function(c)

    def _safe_in_file(self, cursor) -> bool:
        try:
            return self._in_file(cursor)
        except OSError:
            return False

    def klass(self, cursor) -> None:
        K = self.K
        name = cursor.spelling
        members = self.facts.class_members.setdefault(name, {})
        pub = self.facts.public_methods.setdefault(name, set())
        for c in cursor.get_children():
            if c.kind == K.FIELD_DECL:
                sp = self._type_spelling(c)
                if self._is_fp(c):
                    members[c.spelling] = "fp"
                elif "unordered_" in sp:
                    members[c.spelling] = "unordered"
                elif any(sp.startswith(m) or f" {m}" in sp
                         for m in MUTEX_TYPES):
                    members[c.spelling] = "mutex"
                elif self._is_atomic_fp(sp):
                    members[c.spelling] = "atomic_fp"
                    self.facts.atomic_fp_decls.append(
                        (c.spelling, c.location.line))
                elif "function<" in sp:
                    members[c.spelling] = "function"
                elif "ResourceGovernor" in sp:
                    members[c.spelling] = "governor"
                else:
                    members[c.spelling] = sp
            elif c.kind == K.CXX_METHOD:
                if c.access_specifier == self.ci.AccessSpecifier.PUBLIC:
                    pub.add(c.spelling)
                if c.is_definition():
                    self.function(c)
            elif c.kind in (K.CLASS_DECL, K.STRUCT_DECL):
                self.klass(c)

    def function(self, cursor) -> None:
        qual, name = self._qual_name(cursor)
        fn = FuncFacts(qual_name=qual, name=name, file=self.facts.path,
                       line=cursor.location.line)
        self.facts.functions.append(fn)
        body = None
        for c in cursor.get_children():
            if c.kind == self.K.COMPOUND_STMT:
                body = c
        if body is not None:
            self.stmt(body, fn, guarded=False, held=(), parallel=False,
                      unordered=False, lam_extent=None)

    def stmt(self, cursor, fn: FuncFacts, guarded: bool, held: tuple,
             parallel: bool, unordered: bool, lam_extent) -> None:
        K = self.K
        kind = cursor.kind

        if kind == K.CXX_TRY_STMT:
            kids = list(cursor.get_children())
            has_catch = any(k.kind == K.CXX_CATCH_STMT for k in kids)
            for k in kids:
                self.stmt(k, fn, guarded or has_catch, held, parallel,
                          unordered, lam_extent)
            return
        if kind == K.CXX_FOR_RANGE_STMT:
            kids = list(cursor.get_children())
            rng_unordered = unordered
            for k in kids[:-1]:
                if "unordered_" in self._type_spelling(k):
                    rng_unordered = True
                self.stmt(k, fn, guarded, held, parallel, unordered,
                          lam_extent)
            if kids:
                self.stmt(kids[-1], fn, guarded, held, parallel,
                          rng_unordered, lam_extent)
            return
        if kind == K.CXX_THROW_EXPR:
            fn.throws.append(ThrowEvent(line=cursor.location.line,
                                        guarded=guarded, text="throw"))
            for k in cursor.get_children():
                self.stmt(k, fn, guarded, held, parallel, unordered,
                          lam_extent)
            return
        if kind == K.RETURN_STMT:
            if lam_extent is None:
                fn.returns.append(ReturnEvent(line=cursor.location.line))
            for k in cursor.get_children():
                self.stmt(k, fn, guarded, held, parallel, unordered,
                          lam_extent)
            return
        if kind == K.VAR_DECL:
            sp = self._type_spelling(cursor)
            if any(g in sp for g in GUARD_TYPES) and "defer_lock" not in \
                    "".join(t.spelling for t in cursor.get_tokens())[:200]:
                mid = self._mutex_id(cursor, fn)
                fn.locks.append(LockEvent(mutex=mid,
                                          line=cursor.location.line,
                                          held=held))
                # Guard lives to the end of the enclosing compound: the
                # caller (COMPOUND_STMT branch) extends `held` for later
                # siblings via the return value convention below.
                cursor._treecode_acquired = mid  # noqa: SLF001
            elif self._is_atomic_fp(sp):
                self.facts.atomic_fp_decls.append(
                    (cursor.spelling, cursor.location.line))
            for k in cursor.get_children():
                self.stmt(k, fn, guarded, held, parallel, unordered,
                          lam_extent)
            return
        if kind == K.COMPOUND_STMT:
            local_held = held
            for k in cursor.get_children():
                self.stmt(k, fn, guarded, local_held, parallel, unordered,
                          lam_extent)
                acquired = None
                if k.kind == K.DECL_STMT:
                    for d in k.get_children():
                        acquired = getattr(d, "_treecode_acquired", None) \
                            or acquired
                else:
                    acquired = getattr(k, "_treecode_acquired", None)
                if acquired:
                    local_held = local_held + (acquired,)
            return
        if kind == K.LAMBDA_EXPR:
            kids = list(cursor.get_children())
            for k in kids:
                if k.kind == K.COMPOUND_STMT:
                    self.stmt(k, fn, guarded, held, parallel, unordered,
                              cursor.extent)
            return
        if kind == K.COMPOUND_ASSIGNMENT_OPERATOR:
            self._accum(cursor, fn, parallel, unordered, lam_extent)
            for k in cursor.get_children():
                self.stmt(k, fn, guarded, held, parallel, unordered,
                          lam_extent)
            return
        if kind == K.CALL_EXPR:
            self._call(cursor, fn, guarded, held, parallel, unordered,
                       lam_extent)
            return
        for k in cursor.get_children():
            self.stmt(k, fn, guarded, held, parallel, unordered, lam_extent)

    # -- expression handlers ---------------------------------------------

    def _receiver(self, call):
        """(member?, receiver cursor or None) for a member call."""
        K = self.K
        kids = list(call.get_children())
        if kids and kids[0].kind == K.MEMBER_REF_EXPR:
            sub = list(kids[0].get_children())
            return True, (sub[0] if sub else None)
        return False, None

    def _call(self, call, fn: FuncFacts, guarded: bool, held: tuple,
              parallel: bool, unordered: bool, lam_extent) -> None:
        name = call.spelling or ""
        member, recv = self._receiver(call)
        recv_sp = self._type_spelling(recv) if recv is not None else ""
        recv_type = ""
        if recv_sp:
            base = recv_sp.replace("const", "").strip(" &*")
            recv_type = base.split("<")[0].split("::")[-1]

        if name == "rethrow_exception":
            fn.throws.append(ThrowEvent(line=call.location.line,
                                        guarded=guarded,
                                        text="std::rethrow_exception"))
        if member and name in ATOMIC_ARITH and self._is_atomic_fp(recv_sp):
            self.facts.atomic_fp_ops.append(
                (recv.spelling if recv is not None else "",
                 call.location.line))
        if member and name in GOVERNOR_METHODS and \
                "ResourceGovernor" in recv_sp:
            self.facts.governor_calls.append((name, call.location.line))
        if name in PAR_ALGOS:
            for arg in call.get_arguments():
                if "execution::" in self._type_spelling(arg) or \
                        "parallel_policy" in self._type_spelling(arg):
                    self.facts.par_policy_calls.append(
                        (name, call.location.line))
                    break

        is_callback = False
        if not member:
            kids = list(call.get_children())
            if kids and "function<" in self._type_spelling(kids[0]):
                is_callback = True

        fn.calls.append(CallEvent(
            name=name, line=call.location.line, guarded=guarded,
            locks_held=held, is_callback=is_callback,
            arg0=self._first_arg_text(call), member=member,
            recv_type=recv_type))
        if name == "emit_request" or (name == "log_request" and not member):
            fn.emit_lines.append(call.location.line)

        child_parallel = parallel or name in PARALLEL_FNS
        for k in call.get_children():
            self.stmt(k, fn, guarded, held, child_parallel, unordered,
                      lam_extent)

    def _accum(self, op, fn: FuncFacts, parallel: bool, unordered: bool,
               lam_extent) -> None:
        K = self.K
        kids = list(op.get_children())
        if not kids:
            return
        lhs = kids[0]
        subscripted = any(n.kind == K.ARRAY_SUBSCRIPT_EXPR
                          for n in lhs.walk_preorder())
        ref = None
        base = lhs.spelling
        member = False
        for n in lhs.walk_preorder():
            if n.kind in (K.DECL_REF_EXPR, K.MEMBER_REF_EXPR):
                ref = n.referenced
                base = n.spelling
                member = n.kind == K.MEMBER_REF_EXPR
                break
        outside_parallel = False
        if parallel and lam_extent is not None and ref is not None:
            loc = ref.location
            inside = (loc.file is not None and lam_extent.start.file is not None
                      and loc.file.name == lam_extent.start.file.name
                      and lam_extent.start.line <= loc.line
                      <= lam_extent.end.line)
            outside_parallel = not inside
        fn.accums.append(AccumEvent(
            base=base, line=op.location.line,
            is_fp=self._is_fp(lhs), subscripted=subscripted, member=member,
            outside_parallel=outside_parallel, in_unordered_loop=unordered))


def extract(path: str, rel: str, build_dir: str) -> FileFacts:
    """Parse one file with libclang; the AST comes from disk + the
    compilation database in `build_dir`. Suppression comments (which
    libclang drops) come from the lexical pass."""
    ok, detail = available()
    if not ok:
        raise RuntimeError(detail)
    args = _compile_args(build_dir, path)
    tu = _index.parse(path, args=args)
    walker = _Walker(path, rel)
    walker.top(tu.cursor)
    return walker.facts
