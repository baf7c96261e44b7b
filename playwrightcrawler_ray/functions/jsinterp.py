"""Deterministic sandboxed mini-JavaScript interpreter (render hook).

The reference's headline capability is Playwright navigation: inline
scripts RUN, and links are extracted from the live DOM
(playwrightcrawler.py:4926-5207, :5174-5185).  A sealed sandbox has no
browser engine, but the dominant observable behavior — scripts that
*compute* URLs and inject them via ``document.write`` /
``createElement`` / ``innerHTML`` / ``location`` — is ordinary
ECMAScript that a small interpreter can execute for real.  This module
implements that interpreter from the public ECMAScript language
definition: a regex lexer, a recursive-descent parser to a tuple AST,
and a tree-walking evaluator.

Supported subset (chosen from what link-building inline scripts use):
``var``/``let``/``const``, functions (declarations, expressions,
arrows, closures), ``if``/``else``, ``for`` (classic, ``of``, ``in``),
``while``/``do``, ``switch``, ``break``/``continue``/``return``,
``try``/``catch``/``finally`` + ``throw``,
all arithmetic/comparison/logical/bitwise operators, template
literals with ``${}``, arrays + objects with the common methods
(``push``/``join``/``map``/``filter``/``forEach``/``slice``/...),
string methods (``replace``/``split``/``slice``/``charAt``/...),
``Math``/``JSON``-free numerics (``parseInt``, ``parseFloat``,
``encodeURIComponent``, ...).

Determinism and safety are structural:

- **No ambient authority**: the global environment contains only what
  the host (functions/render.py) injects; there is no route from a JS
  value to any Python object, attribute, or import.
- **Nontermination-proof**: every AST-node evaluation decrements a
  step budget (default 200k) and parser/call depth are capped, so
  hostile pages (``while(true)``, deep nesting, string bombs —
  ``.repeat`` and concat results are size-capped) raise ``JsError``
  instead of hanging a fetch task.
- **Deterministic by construction**: ``Math.random`` is a fixed-seed
  LCG per run and ``Date.now`` a constant, so rendering a page is a
  pure function of its bytes — the property the golden crawl oracle
  relies on.

Regex literals (``/re/gi``), ``new RegExp``, and the regex forms of
``match``/``matchAll``/``replace``/``replaceAll``/``search``/``split``
/``test``/``exec`` are supported over a SAFE TRANSLATED SUBSET of JS
regex syntax (see ``_translate_js_regex``): patterns are compiled to
Python ``re`` with named-group/backreference rewriting, a 512-char
source cap, and a structural ReDoS guard: nested unbounded
quantifiers, alternation under unbounded repetition, and adjacent
unbounded quantifiers with overlapping character sets are all
rejected at translation time (Python's backtracking matcher cannot be
interrupted mid-call); patterns that keep an unbounded quantifier are
additionally subject-length-capped and charged more heavily against
the same step budget as evaluation.

Anything outside the subset (``class``, generators, ``async``, real
DOM queries, rejected regex constructs...) raises ``JsError`` at parse
or eval time; the caller falls back to the literal ``document.write``
scan for that script, so unsupported pages degrade to round-3 behavior
instead of failing.
"""

from __future__ import annotations

import math
import re

__all__ = ["JsError", "Interp", "JSObject", "JSArray",
           "NativeFn", "UNDEF", "js_str", "js_truthy"]

MAX_STEPS = 200_000
# each parse-depth level costs ~19 Python frames through the
# precedence chain — 64 keeps the cap tripping well before
# CPython's own recursion limit even under a deep test stack
MAX_PARSE_DEPTH = 64
MAX_CALL_DEPTH = 48
MAX_STR = 1 << 20  # 1 MiB cap on any single string value


class JsError(Exception):
    """Script cannot run (syntax, unsupported construct, budget)."""


class JsThrow(Exception):
    """An in-language `throw` — catchable by in-language try/catch."""

    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Undefined:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "undefined"


UNDEF = _Undefined()


class JSObject:
    __slots__ = ("props",)

    def __init__(self, props=None):
        self.props = props or {}


class JSArray:
    __slots__ = ("items", "js_props")

    def __init__(self, items=None, js_props=None):
        self.items = items if items is not None else []
        # extra named properties (regex match arrays carry .index and
        # .input); None for ordinary arrays
        self.js_props = js_props


class JSRegExp:
    """A JS regular-expression value: the original source/flags plus
    the translated, compiled Python pattern (``_compile_js_regex``).
    ``lastIndex`` carries the /g and /y iteration state, per-object
    (ES5+ semantics: a regex literal evaluates to a fresh object)."""

    __slots__ = ("source", "flags", "pattern", "global_", "sticky",
                 "last_index", "unbounded")

    def __init__(self, source: str, flags: str, pattern,
                 unbounded: bool = True):
        self.source = source
        self.flags = flags
        self.pattern = pattern
        self.global_ = "g" in flags
        self.sticky = "y" in flags
        self.last_index = 0
        # pattern contains an unbounded quantifier: matching cost can
        # be superlinear in the subject, so subjects are length-capped
        # and charged more steps (Interp._regex_guard)
        self.unbounded = unbounded


class JSFunction:
    __slots__ = ("params", "body", "env", "is_arrow", "is_expr_body")

    def __init__(self, params, body, env, is_arrow=False,
                 is_expr_body=False):
        self.params = params
        self.body = body
        self.env = env
        self.is_arrow = is_arrow
        self.is_expr_body = is_expr_body


class NativeFn:
    __slots__ = ("fn", "name", "props")

    def __init__(self, fn, name="native", props=None):
        self.fn = fn
        self.name = name
        self.props = props or {}  # static members (String.fromCharCode…)


# ---------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<num>0[xX][0-9a-fA-F]+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<str>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")
  | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<punct>===|!==|\*\*=|<<=|>>>=|>>=|&&=|\|\|=|\?\?=|==|!=|<=|>=|&&|\|\||\?\?|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|\*\*|<<|>>>|>>|=>|[-+*/%<>=!&|^~?:;,.()\[\]{}])
    """,
    re.S | re.X,
)

_ESC = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "v": "\v",
        "0": "\0", "'": "'", '"': '"', "\\": "\\", "`": "`", "\n": "",
        "/": "/"}


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            n = s[i + 1]
            if n == "u" and i + 5 < len(s):
                try:
                    out.append(chr(int(s[i + 2:i + 6], 16)))
                    i += 6
                    continue
                except ValueError:
                    pass
            if n == "x" and i + 3 < len(s):
                try:
                    out.append(chr(int(s[i + 2:i + 4], 16)))
                    i += 4
                    continue
                except ValueError:
                    pass
            out.append(_ESC.get(n, n))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ------------------------------------------------------------- JS regex
#
# JS regex sources are translated to Python ``re`` syntax over a SAFE
# SUBSET and compiled once per (source, flags) (process-level cache).
# Outside-subset constructs raise JsError → the calling script fails →
# the render's per-script rollback + literal fallback applies, so an
# exotic page degrades instead of crashing a fetch task.  Rejected:
# patterns > _MAX_REGEX_SRC chars, ``\c``/``\u{…}`` escapes, and — the
# ReDoS guard — Python's backtracking engine cannot be budgeted
# mid-match (one pattern.search() is a single C call), so hostile
# patterns must be rejected STRUCTURALLY before compilation:
#   1. unbounded quantifier over a group containing an unbounded
#      quantifier — the classic exponential ``(a+)+``;
#   2. unbounded quantifier over a group containing an ALTERNATION —
#      the overlapping-branch exponential ``(a|ab)*``;
#   3. two unbounded quantifiers whose atoms' character sets OVERLAP
#      and that are adjacent (or separated only by optional /
#      same-set atoms) — the quadratic-to-worse ``a*a*`` / ``\s*\w*``
#      family; atom sets are approximated (literal, escape class,
#      [class] union; '.'/negated/unknown = ALL).
# Rejection degrades gracefully: JsError → per-script rollback →
# literal-scan fallback, identically in engine and oracle. A subject-
# length cap + heavier step charge for unbounded patterns bounds the
# residual polynomial cases (see Interp._regex_guard).

_MAX_REGEX_SRC = 512
_MAX_REGEX_SUBJECT = 8192  # cap for unbounded-quantifier patterns
_REGEX_CACHE: dict = {}
_REGEX_CACHE_CAP = 256
_UNBOUNDED_REP_CAP = 64  # {m,n} with n above this counts as unbounded

_SET_ALL = None  # sentinel: "could match anything" (dot, negations, groups)
_SET_DIGIT = frozenset("0123456789")
_SET_WORD = frozenset(
    "abcdefghijklmnopqrstuvwxyz0123456789_")
_SET_SPACE = frozenset(" \t\n\r\f\v ")


def _overlap(a, b) -> bool:
    if a is _SET_ALL or b is _SET_ALL:
        return True
    return bool(a & b)


def _escape_set(ch: str):
    """First-set of an escape atom (lowercased approximation)."""
    if ch == "d":
        return _SET_DIGIT
    if ch == "w":
        return _SET_WORD
    if ch == "s":
        return _SET_SPACE
    if ch in "DWS":
        return _SET_ALL  # complements: effectively anything
    if ch in "bB":
        return frozenset()  # zero-width
    return frozenset(ch.lower())


def _class_set(body: str):
    """Approximate character set of a [...] class body."""
    if body.startswith("^"):
        return _SET_ALL  # complement: treat as anything
    out: set = set()
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c == "\\" and i + 1 < n:
            s = _escape_set(body[i + 1])
            if s is _SET_ALL:
                return _SET_ALL
            out |= s
            i += 2
            continue
        if i + 2 < n and body[i + 1] == "-" and body[i + 2] != "]":
            lo, hi = ord(c), ord(body[i + 2])
            if hi - lo > 256:
                return _SET_ALL
            out |= {chr(x).lower() for x in range(lo, hi + 1)}
            i += 3
            continue
        out.add(c.lower())
        i += 1
    return frozenset(out)


def _translate_js_regex(src: str) -> tuple[str, bool]:
    """JS regex source → (python pattern, has_unbounded_quantifier).

    Raises JsError for syntax outside the safe subset, including the
    structural ReDoS shapes documented above."""
    out = []
    i, n = 0, len(src)
    in_class = False
    class_start = -1
    # per-group-depth state (index 0 = top level):
    #   unbounded[d]: depth contains an unbounded quantifier
    #   alt[d]:       depth contains an alternation
    #   pending[d]:   charset of a still-"reachable" unbounded atom
    #                 (None = nothing pending); survives through
    #                 optional and overlapping atoms
    unbounded = [False]
    alt = [False]
    gkind: list = []  # per OPEN group: 'cap' (consuming) | 'look'
    NOTHING = object()  # pending sentinel: no unbounded atom reachable
    pending: list = [NOTHING]
    any_unbounded = False

    def quant_after(j):
        """classify the quantifier starting at src[j]:
        (None|'bounded'|'unbounded', min_is_zero, end_index)."""
        if j >= n:
            return None, False, j
        c = src[j]
        if c == "*":
            return "unbounded", True, j + 1
        if c == "+":
            return "unbounded", False, j + 1
        if c == "?":
            return "bounded", True, j + 1
        if c == "{":
            m = re.match(r"\{(\d+)(,(\d*)?)?\}", src[j:])
            if not m:
                return None, False, j
            lo = int(m.group(1))
            hi = m.group(3)
            if m.group(2) is not None and (hi == "" or hi is None):
                kind = "unbounded"
            else:
                top = int(hi) if hi else lo
                kind = "unbounded" if top > _UNBOUNDED_REP_CAP else "bounded"
            return kind, lo == 0, j + m.end()
        return None, False, j

    def apply_atom(atom_set, kind, min_zero):
        """Update the pending-unbounded state for one consumed atom
        (the adjacent-overlap ambiguity approximation)."""
        nonlocal any_unbounded
        if kind == "unbounded":
            any_unbounded = True
            unbounded[-1] = True
            if pending[-1] is not NOTHING and _overlap(pending[-1], atom_set):
                raise JsError("regex: adjacent overlapping unbounded "
                              "quantifiers (outside safe subset)")
            if min_zero and pending[-1] is not NOTHING:
                # a zero-min repeat keeps the previous unbounded atom
                # reachable: track the union
                prev = pending[-1]
                pending[-1] = (_SET_ALL if prev is _SET_ALL
                               or atom_set is _SET_ALL else prev | atom_set)
            else:
                pending[-1] = atom_set
        elif kind == "bounded" and min_zero:
            pass  # optional atom: previous unbounded stays reachable
        else:
            # required atom (plain, or bounded min>=1): clears the
            # pending set only if unambiguously disjoint
            if atom_set and pending[-1] is not NOTHING \
                    and not _overlap(pending[-1], atom_set):
                pending[-1] = NOTHING

    while i < n:
        c = src[i]
        if in_class:
            if c == "\\":
                if i + 1 >= n:
                    raise JsError("regex: trailing backslash")
                if src[i + 1] == "c":
                    raise JsError("regex: unsupported escape")
                i += 2  # class content copied whole at the closing ]
                continue
            if c == "]":
                body = src[class_start + 1:i]
                if body == "^":
                    out.append(r"[\s\S]")   # JS [^] = any char
                elif body == "":
                    out.append(r"(?!)")     # JS [] never matches
                else:
                    out.append("[" + body + "]")
                in_class = False
                kind, mz, j = quant_after(i + 1)
                out.append(src[i + 1:j])
                apply_atom(_SET_ALL if body.startswith("^") or body in ("", "^")
                           else _class_set(body), kind, mz)
                i = j
                continue
            i += 1
            continue
        if c == "\\":
            if i + 1 >= n:
                raise JsError("regex: trailing backslash")
            nxt = src[i + 1]
            if nxt == "c" or (nxt == "u" and i + 2 < n and src[i + 2] == "{"):
                raise JsError("regex: unsupported escape")
            if nxt == "k" and i + 2 < n and src[i + 2] == "<":
                j = src.find(">", i + 3)
                if j < 0:
                    raise JsError("regex: bad \\k<…>")
                out.append("(?P=" + src[i + 3:j] + ")")
                i = j + 1
                kind, mz, j2 = quant_after(i)
                out.append(src[i:j2])
                apply_atom(_SET_ALL, kind, mz)  # backref: unknown set
                i = j2
                continue
            out.append(src[i:i + 2])
            i += 2
            kind, mz, j = quant_after(i)
            out.append(src[i:j])
            apply_atom(_escape_set(nxt), kind, mz)
            i = j
            continue
        if c == "[":
            in_class = True
            class_start = i
            i += 1
            continue
        if c == "(":
            unbounded.append(False)
            alt.append(False)
            look = False
            if src.startswith("(?<", i) and not src.startswith("(?<=", i) \
                    and not src.startswith("(?<!", i):
                j = src.find(">", i + 3)
                if j < 0:
                    raise JsError("regex: bad (?<name>")
                out.append("(?P<" + src[i + 3:j + 1])
                i = j + 1
            elif src.startswith("(?", i):
                for pre in ("(?:", "(?<=", "(?<!", "(?=", "(?!"):
                    if src.startswith(pre, i):
                        out.append(pre)
                        i += len(pre)
                        look = pre not in ("(?:",)
                        break
                else:
                    raise JsError("regex: unsupported group prefix")
            else:
                out.append(c)
                i += 1
            gkind.append("look" if look else "cap")
            # consuming groups inherit the pending set (a*(a+) is still
            # adjacent); lookarounds are zero-width — fresh slate inside
            pending.append(NOTHING if look else pending[-1])
            continue
        if c == ")":
            out.append(c)
            i += 1
            if len(unbounded) < 2:
                raise JsError("regex: unbalanced )")
            inner_unb = unbounded.pop()
            inner_alt = alt.pop()
            inner_pending = pending.pop()
            was_look = gkind.pop() == "look"
            kind, mz, j = quant_after(i)
            if kind == "unbounded":
                if inner_unb:
                    raise JsError("regex: nested unbounded quantifier "
                                  "(outside safe subset)")
                if inner_alt:
                    raise JsError("regex: alternation under unbounded "
                                  "quantifier (outside safe subset)")
                any_unbounded = True
                unbounded[-1] = True
                if not was_look:
                    pending[-1] = _SET_ALL  # group first-set unknown
            else:
                if inner_unb:
                    unbounded[-1] = True
                if inner_alt:
                    alt[-1] = True
                if not was_look:
                    # the group's trailing unbounded atom stays reachable
                    pending[-1] = inner_pending
            out.append(src[i:j])
            i = j
            continue
        if c == "|":
            out.append(c)
            alt[-1] = True
            pending[-1] = NOTHING  # branches are independent
            i += 1
            continue
        if c in "^$":
            out.append(c)
            i += 1
            continue  # zero-width: pending unchanged
        kind, j = None, i
        if c in "*+?{":
            # quantifier with no preceding atom here means it followed
            # an atom already handled above, or is literal '{'
            kind, mz, j = quant_after(i)
            if kind is not None and j > i:
                out.append(src[i:j])
                apply_atom(_SET_ALL, kind, mz)
                i = j
                continue
        out.append(c)
        i += 1
        kind, mz, j = quant_after(i)
        out.append(src[i:j])
        apply_atom(_SET_ALL if c == "." else frozenset(c.lower()), kind, mz)
        i = j
    if in_class:
        raise JsError("regex: unterminated character class")
    if len(unbounded) != 1:
        raise JsError("regex: unbalanced (")
    return "".join(out), any_unbounded


def _compile_js_regex(source: str, flags: str) -> "JSRegExp":
    if len(source) > _MAX_REGEX_SRC:
        raise JsError("regex too long")
    if any(f not in "gimsuy" for f in flags) or \
            len(set(flags)) != len(flags):
        raise JsError(f"invalid regex flags {flags!r}")
    key = (source, flags)
    hit = _REGEX_CACHE.get(key)
    if hit is None:
        pyflags = 0
        if "i" in flags:
            pyflags |= re.I
        if "m" in flags:
            pyflags |= re.M
        if "s" in flags:
            pyflags |= re.S
        translated, unb = _translate_js_regex(source)
        try:
            pat = re.compile(translated, pyflags)
        except re.error as e:
            raise JsError(f"regex: {e}") from None
        if len(_REGEX_CACHE) >= _REGEX_CACHE_CAP:
            _REGEX_CACHE.clear()
        hit = _REGEX_CACHE[key] = (pat, unb)
    return JSRegExp(source, flags, hit[0], hit[1])


# after these, a `/` must be division, not a regex literal (the
# standard lexer disambiguation: value-ending tokens precede division)
_REGEX_DISALLOW_PUNCT = {")", "]", "}", "++", "--"}
_VALUE_IDENTS = {"this", "true", "false", "null", "undefined"}


def _regex_allowed(toks) -> bool:
    if not toks:
        return True
    k, v = toks[-1]
    if k in ("num", "str", "template", "regex"):
        return False
    if k == "ident":
        # after a keyword (return, typeof, case, in, of, …) a regex may
        # start; after a value-producing identifier `/` is division
        return v in _KEYWORDS and v not in _VALUE_IDENTS
    if k == "punct":
        return v not in _REGEX_DISALLOW_PUNCT
    return True


def _scan_regex(src: str, i: int) -> tuple:
    """Scan a regex literal starting at src[i] == '/'; returns
    ((body, flags), end_index)."""
    j, n = i + 1, len(src)
    in_class = False
    while j < n:
        c = src[j]
        if c == "\\":
            j += 2
            continue
        if c == "\n":
            break
        if in_class:
            if c == "]":
                in_class = False
        elif c == "[":
            in_class = True
        elif c == "/":
            body = src[i + 1:j]
            k = j + 1
            while k < n and (src[k].isalpha() or src[k] == "_"):
                k += 1
            return (body, src[j + 1:k]), k
        j += 1
    raise JsError("unterminated regex literal")


def tokenize(src: str):
    """→ list of (kind, value) + ('eof', None).  Template literals are
    scanned manually (nested ``${}`` needs bracket counting); regex
    literals too (the `/` division ambiguity needs the previous
    token)."""
    toks = []
    i, n = 0, len(src)
    while i < n:
        if (src[i] == "/" and i + 1 < n and src[i + 1] not in "/*"
                and _regex_allowed(toks)):
            val, i = _scan_regex(src, i)
            toks.append(("regex", val))
            continue
        if src[i] == "`":
            j = i + 1
            parts = []  # alternating literal / ('expr', src)
            buf = []
            while j < n and src[j] != "`":
                if src[j] == "\\" and j + 1 < n:
                    buf.append(src[j:j + 2])
                    j += 2
                elif src[j] == "$" and j + 1 < n and src[j + 1] == "{":
                    parts.append(("lit", _unescape("".join(buf))))
                    buf = []
                    depth, k = 1, j + 2
                    while k < n and depth:
                        if src[k] == "{":
                            depth += 1
                        elif src[k] == "}":
                            depth -= 1
                        k += 1
                    if depth:
                        raise JsError("unterminated ${} in template")
                    parts.append(("expr", src[j + 2:k - 1]))
                    j = k
                else:
                    buf.append(src[j])
                    j += 1
            if j >= n:
                raise JsError("unterminated template literal")
            parts.append(("lit", _unescape("".join(buf))))
            toks.append(("template", parts))
            i = j + 1
            continue
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise JsError(f"lex error at {i}: {src[i:i+12]!r}")
        i = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        v = m.group()
        if kind == "num":
            toks.append(("num", float(int(v, 16)) if v[:2].lower() == "0x"
                         else float(v)))
        elif kind == "str":
            toks.append(("str", _unescape(v[1:-1])))
        else:
            toks.append((kind, v))
    toks.append(("eof", None))
    return toks


# --------------------------------------------------------------- parser

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "**=", "<<=", ">>=", "&&=", "||=", "??="}
_KEYWORDS = {"var", "let", "const", "function", "return", "if", "else",
             "for", "while", "do", "break", "continue", "true", "false",
             "null", "undefined", "typeof", "new", "in", "of", "try",
             "catch", "finally", "throw", "delete", "void", "instanceof",
             "this", "switch", "case", "default", "class", "async",
             "yield", "await"}
_UNSUPPORTED_KW = {"class", "async", "yield", "await", "instanceof"}


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, val):
        t = self.next()
        if t[1] != val:
            raise JsError(f"expected {val!r}, got {t[1]!r}")
        return t

    def at(self, val):
        return self.peek()[1] == val and self.peek()[0] in ("punct", "ident")

    def eat(self, val):
        if self.at(val):
            self.next()
            return True
        return False

    def _enter(self):
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            raise JsError("nesting too deep")

    def _exit(self):
        self.depth -= 1

    # ---- statements
    def parse_program(self):
        body = []
        while self.peek()[0] != "eof":
            body.append(self.statement())
        return ("block", body)

    def statement(self):
        self._enter()
        try:
            k, v = self.peek()
            if k == "ident" and v in _UNSUPPORTED_KW:
                raise JsError(f"unsupported construct: {v}")
            if self.at("{"):
                return self.block()
            if self.eat(";"):
                return ("empty",)
            if k == "ident" and v in ("var", "let", "const"):
                s = self.var_decl()
                self.eat(";")
                return s
            if self.at("function"):
                return self.function_decl()
            if self.at("if"):
                return self.if_stmt()
            if self.at("for"):
                return self.for_stmt()
            if self.at("while"):
                self.next()
                self.expect("(")
                cond = self.expression()
                self.expect(")")
                return ("while", cond, self.statement())
            if self.at("do"):
                self.next()
                body = self.statement()
                self.expect("while")
                self.expect("(")
                cond = self.expression()
                self.expect(")")
                self.eat(";")
                return ("dowhile", cond, body)
            if self.at("return"):
                self.next()
                if self.at(";") or self.at("}") or self.peek()[0] == "eof":
                    self.eat(";")
                    return ("return", None)
                e = self.expression()
                self.eat(";")
                return ("return", e)
            if self.at("break"):
                self.next()
                self.eat(";")
                return ("break",)
            if self.at("continue"):
                self.next()
                self.eat(";")
                return ("continue",)
            if self.at("throw"):
                self.next()
                e = self.expression()
                self.eat(";")
                return ("throw", e)
            if self.at("try"):
                return self.try_stmt()
            if self.at("switch"):
                return self.switch_stmt()
            e = self.expression()
            self.eat(";")
            return ("expr", e)
        finally:
            self._exit()

    def block(self):
        self.expect("{")
        body = []
        while not self.at("}"):
            if self.peek()[0] == "eof":
                raise JsError("unterminated block")
            body.append(self.statement())
        self.expect("}")
        return ("block", body)

    def var_decl(self):
        kind = self.next()[1]
        decls = []
        while True:
            name = self._ident()
            init = self.expression(no_comma=True) if self.eat("=") else None
            decls.append((name, init))
            if not self.eat(","):
                break
        return ("vardecl", kind, decls)

    def _ident(self):
        k, v = self.next()
        if k != "ident" or v in _KEYWORDS:
            raise JsError(f"expected identifier, got {v!r}")
        return v

    def function_decl(self):
        self.expect("function")
        name = self._ident()
        params = self._params()
        body = self.block()
        return ("funcdecl", name, params, body)

    def _params(self):
        self.expect("(")
        params = []
        while not self.at(")"):
            params.append(self._ident())
            if not self.eat(","):
                break
        self.expect(")")
        return params

    def if_stmt(self):
        self.expect("if")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then = self.statement()
        alt = self.statement() if self.eat("else") else None
        return ("if", cond, then, alt)

    def for_stmt(self):
        self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            if self.peek()[0] == "ident" and self.peek()[1] in (
                    "var", "let", "const"):
                kind = self.next()[1]
                name = self._ident()
                if self.at("of") or self.at("in"):
                    mode = self.next()[1]
                    seq = self.expression()
                    self.expect(")")
                    return ("for" + mode, kind, name, seq, self.statement())
                init_expr = (self.expression(no_comma=True)
                             if self.eat("=") else None)
                decls = [(name, init_expr)]
                while self.eat(","):
                    n2 = self._ident()
                    decls.append((n2, self.expression(no_comma=True)
                                  if self.eat("=") else None))
                init = ("vardecl", kind, decls)
            else:
                e = self.expression()
                if (e[0] == "ident" and (self.at("of") or self.at("in"))):
                    mode = self.next()[1]
                    seq = self.expression()
                    self.expect(")")
                    return ("for" + mode, None, e[1], seq, self.statement())
                init = ("expr", e)
        self.expect(";")
        cond = None if self.at(";") else self.expression()
        self.expect(";")
        update = None if self.at(")") else self.expression()
        self.expect(")")
        return ("for", init, cond, update, self.statement())

    def switch_stmt(self):
        self.expect("switch")
        self.expect("(")
        disc = self.expression()
        self.expect(")")
        self.expect("{")
        cases = []  # (test_expr | None for default, [stmts])
        while not self.at("}"):
            if self.eat("case"):
                test = self.expression()
            else:
                self.expect("default")
                test = None
            self.expect(":")
            body = []
            while not (self.at("case") or self.at("default")
                       or self.at("}")):
                if self.peek()[0] == "eof":
                    raise JsError("unterminated switch")
                body.append(self.statement())
            cases.append((test, body))
        self.expect("}")
        return ("switch", disc, cases)

    def try_stmt(self):
        self.expect("try")
        body = self.block()
        cname, handler, fin = None, None, None
        if self.eat("catch"):
            if self.eat("("):
                cname = self._ident()
                self.expect(")")
            handler = self.block()
        if self.eat("finally"):
            fin = self.block()
        if handler is None and fin is None:
            raise JsError("try without catch/finally")
        return ("try", body, cname, handler, fin)

    # ---- expressions (precedence climbing)
    def expression(self, no_comma=False):
        self._enter()
        try:
            e = self.assignment()
            while not no_comma and self.at(","):
                self.next()
                e = ("comma", e, self.assignment())
            return e
        finally:
            self._exit()

    def assignment(self):
        left = self.conditional()
        t = self.peek()
        if t[0] == "punct" and t[1] in _ASSIGN_OPS:
            if left[0] not in ("ident", "member", "index"):
                raise JsError("bad assignment target")
            op = self.next()[1]
            right = self.assignment()
            return ("assign", op, left, right)
        return left

    def conditional(self):
        cond = self.nullish()
        if self.at("?"):
            self.next()
            then = self.assignment()
            self.expect(":")
            alt = self.assignment()
            return ("cond", cond, then, alt)
        return cond

    def nullish(self):
        e = self.logic_or()
        while self.at("??"):
            self.next()
            e = ("nullish", e, self.logic_or())
        return e

    def logic_or(self):
        e = self.logic_and()
        while self.at("||"):
            self.next()
            e = ("or", e, self.logic_and())
        return e

    def logic_and(self):
        e = self.bit_or()
        while self.at("&&"):
            self.next()
            e = ("and", e, self.bit_or())
        return e

    def _binlevel(self, ops, sub):
        e = sub()
        while self.peek()[0] == "punct" and self.peek()[1] in ops:
            op = self.next()[1]
            e = ("bin", op, e, sub())
        return e

    def bit_or(self):
        return self._binlevel({"|"}, self.bit_xor)

    def bit_xor(self):
        return self._binlevel({"^"}, self.bit_and)

    def bit_and(self):
        return self._binlevel({"&"}, self.equality)

    def equality(self):
        return self._binlevel({"==", "!=", "===", "!=="}, self.relational)

    def relational(self):
        e = self.shift()
        while True:
            t = self.peek()
            if t[0] == "punct" and t[1] in ("<", ">", "<=", ">="):
                op = self.next()[1]
                e = ("bin", op, e, self.shift())
            elif t[0] == "ident" and t[1] == "in":
                self.next()
                e = ("bin", "in", e, self.shift())
            else:
                return e

    def shift(self):
        return self._binlevel({"<<", ">>", ">>>"}, self.additive)

    def additive(self):
        return self._binlevel({"+", "-"}, self.multiplicative)

    def multiplicative(self):
        return self._binlevel({"*", "/", "%"}, self.exponent)

    def exponent(self):
        e = self.unary()
        if self.at("**"):
            self.next()
            return ("bin", "**", e, self.exponent())
        return e

    def unary(self):
        self._enter()
        try:
            t = self.peek()
            if t[0] == "punct" and t[1] in ("!", "-", "+", "~"):
                op = self.next()[1]
                return ("unary", op, self.unary())
            if t[0] == "ident" and t[1] in ("typeof", "void", "delete"):
                op = self.next()[1]
                return ("unary", op, self.unary())
            if t[0] == "punct" and t[1] in ("++", "--"):
                op = self.next()[1]
                tgt = self.unary()
                if tgt[0] not in ("ident", "member", "index"):
                    raise JsError("bad ++/-- target")
                return ("update", op, tgt, True)
            return self.postfix()
        finally:
            self._exit()

    def postfix(self):
        e = self.call_member()
        t = self.peek()
        if t[0] == "punct" and t[1] in ("++", "--"):
            if e[0] not in ("ident", "member", "index"):
                raise JsError("bad ++/-- target")
            op = self.next()[1]
            return ("update", op, e, False)
        return e

    def call_member(self):
        if self.at("new"):
            self.next()
            ctor = self.primary()
            while self.eat("."):  # e.g. new ns.Thing(...)
                ctor = ("member", ctor, self._membername())
            args = []
            if self.at("("):
                self.next()
                while not self.at(")"):
                    args.append(self.assignment())
                    if not self.eat(","):
                        break
                self.expect(")")
            e = ("new", ctor, args)
            # fall through: members/calls chain off the new expression
            # (new RegExp(p, 'g').exec(s) …)
        else:
            e = self.primary()
        while True:
            if self.eat("."):
                e = ("member", e, self._membername())
            elif self.at("["):
                self.next()
                idx = self.expression()
                self.expect("]")
                e = ("index", e, idx)
            elif self.at("("):
                self.next()
                args = []
                while not self.at(")"):
                    args.append(self.assignment())
                    if not self.eat(","):
                        break
                self.expect(")")
                e = ("call", e, args)
            else:
                return e

    def _membername(self):
        k, v = self.next()
        if k != "ident":
            raise JsError(f"expected member name, got {v!r}")
        return v

    def primary(self):
        self._enter()
        try:
            k, v = self.peek()
            if k == "num":
                self.next()
                return ("num", v)
            if k == "str":
                self.next()
                return ("str", v)
            if k == "regex":
                self.next()
                body, flags = v
                _compile_js_regex(body, flags)  # validate at parse time
                return ("regexlit", body, flags)
            if k == "template":
                self.next()
                parts = []
                for pk, pv in v:
                    if pk == "lit":
                        parts.append(("lit", pv))
                    else:
                        parts.append(("expr", Parser(pv).expression()))
                return ("template", parts)
            if k == "ident":
                if v == "true":
                    self.next()
                    return ("bool", True)
                if v == "false":
                    self.next()
                    return ("bool", False)
                if v == "null":
                    self.next()
                    return ("null",)
                if v == "undefined":
                    self.next()
                    return ("undef",)
                if v == "function":
                    self.next()
                    if self.peek()[0] == "ident" and \
                            self.peek()[1] not in _KEYWORDS:
                        self.next()  # optional name (not bound)
                    params = self._params()
                    return ("func", params, self.block())
                if v == "this":
                    self.next()
                    return ("ident", "this")
                if v in _UNSUPPORTED_KW:
                    raise JsError(f"unsupported construct: {v}")
                # arrow fn: ident => ...
                if self.peek(1)[1] == "=>":
                    name = self._ident()
                    self.next()
                    return self._arrow_body([name])
                self.next()
                return ("ident", v)
            if v == "(":
                # could be parenthesized expr OR arrow params
                save = self.pos
                try:
                    params = self._params()
                    if self.at("=>"):
                        self.next()
                        return self._arrow_body(params)
                except JsError:
                    pass
                self.pos = save
                self.expect("(")
                e = self.expression()
                self.expect(")")
                return e
            if v == "[":
                self.next()
                items = []
                while not self.at("]"):
                    items.append(self.assignment())
                    if not self.eat(","):
                        break
                self.expect("]")
                return ("array", items)
            if v == "{":
                self.next()
                pairs = []
                while not self.at("}"):
                    pk, pv_ = self.next()
                    if pk not in ("ident", "str", "num"):
                        raise JsError("bad object key")
                    key = js_str(pv_) if pk == "num" else pv_
                    if self.eat(":"):
                        pairs.append((key, self.assignment()))
                    else:  # shorthand {a}
                        pairs.append((key, ("ident", key)))
                    if not self.eat(","):
                        break
                self.expect("}")
                return ("object", pairs)
            raise JsError(f"unexpected token {v!r}")
        finally:
            self._exit()

    def _arrow_body(self, params):
        if self.at("{"):
            return ("arrow", params, self.block(), False)
        return ("arrow", params, self.assignment(), True)


# ------------------------------------------------------------ evaluator

def js_truthy(v) -> bool:
    if v is UNDEF or v is None or v is False:
        return False
    if v is True:
        return True
    if isinstance(v, float):
        return not (v == 0 or math.isnan(v))
    if isinstance(v, str):
        return len(v) > 0
    return True


def js_str(v) -> str:
    if v is UNDEF:
        return "undefined"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        if v == int(v) and abs(v) < 1e21:
            return str(int(v))
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, JSArray):
        return ",".join("" if x is UNDEF or x is None else js_str(x)
                        for x in v.items)
    if isinstance(v, JSObject):
        return "[object Object]"
    if isinstance(v, JSRegExp):
        return f"/{v.source}/{v.flags}"
    if isinstance(v, (JSFunction, NativeFn)):
        return "function"
    return str(v)


def js_num(v) -> float:
    if isinstance(v, float):
        return v
    if v is True:
        return 1.0
    if v is False or v is None:
        return 0.0
    if v is UNDEF:
        return math.nan
    if isinstance(v, str):
        s = v.strip()
        if not s:
            return 0.0
        try:
            return float(int(s, 16)) if s[:2].lower() == "0x" else float(s)
        except ValueError:
            return math.nan
    if isinstance(v, JSArray):
        if not v.items:
            return 0.0
        if len(v.items) == 1:
            return js_num(v.items[0])
        return math.nan
    return math.nan


def _toint32(v) -> int:
    f = js_num(v)
    if math.isnan(f) or math.isinf(f):
        return 0
    i = int(f) & 0xFFFFFFFF
    return i - (1 << 32) if i >= (1 << 31) else i


def _touint32(v) -> int:
    f = js_num(v)
    if math.isnan(f) or math.isinf(f):
        return 0
    return int(f) & 0xFFFFFFFF


def _cap(s: str) -> str:
    if len(s) > MAX_STR:
        raise JsError("string too large")
    return s


class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent=None, vars=None):
        self.vars = vars or {}
        self.parent = parent

    def get(self, name):
        e = self
        while e is not None:
            if name in e.vars:
                return e.vars[name]
            e = e.parent
        raise JsThrow(f"ReferenceError: {name} is not defined")

    def set(self, name, value):
        e = self
        while e is not None:
            if name in e.vars:
                e.vars[name] = value
                return
            e = e.parent
        # implicit global (sloppy mode): define at root
        e = self
        while e.parent is not None:
            e = e.parent
        e.vars[name] = value

    def declare(self, name, value):
        self.vars[name] = value


class Interp:
    def __init__(self, global_vars: dict, max_steps: int = MAX_STEPS):
        self.genv = Env(vars=dict(global_vars))
        self.steps = max_steps
        self.call_depth = 0

    # -- public
    def run(self, src: str):
        ast = Parser(src).parse_program()
        self._hoist(ast, self.genv)
        self.exec_block(ast, self.genv)

    def call_function(self, fn, args, this=UNDEF):
        return self._invoke(fn, list(args), this)

    # -- execution
    def _tick(self):
        self.steps -= 1
        if self.steps <= 0:
            raise JsError("step budget exhausted")

    def _hoist(self, block, env):
        for st in block[1]:
            if st[0] == "funcdecl":
                env.declare(st[1], JSFunction(st[2], st[3], env))

    def exec_block(self, block, env):
        for st in block[1]:
            self.exec_stmt(st, env)

    def exec_stmt(self, st, env):
        self._tick()
        op = st[0]
        if op == "expr":
            self.eval(st[1], env)
        elif op == "vardecl":
            for name, init in st[2]:
                env.declare(name, self.eval(init, env)
                            if init is not None else UNDEF)
        elif op == "block":
            sub = Env(env)
            self._hoist(st, sub)
            self.exec_block(st, sub)
        elif op == "if":
            if js_truthy(self.eval(st[1], env)):
                self.exec_stmt(st[2], env)
            elif st[3] is not None:
                self.exec_stmt(st[3], env)
        elif op == "while":
            while js_truthy(self.eval(st[1], env)):
                self._tick()
                try:
                    self.exec_stmt(st[2], env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif op == "dowhile":
            while True:
                self._tick()
                try:
                    self.exec_stmt(st[2], env)
                except _Break:
                    break
                except _Continue:
                    pass
                if not js_truthy(self.eval(st[1], env)):
                    break
        elif op == "for":
            _, init, cond, update, body = st
            sub = Env(env)
            if init is not None:
                self.exec_stmt(init, sub)
            while cond is None or js_truthy(self.eval(cond, sub)):
                self._tick()
                try:
                    self.exec_stmt(body, sub)
                except _Break:
                    break
                except _Continue:
                    pass
                if update is not None:
                    self.eval(update, sub)
        elif op == "forof":
            _, kind, name, seqe, body = st
            seq = self.eval(seqe, env)
            if isinstance(seq, JSArray):
                it = list(seq.items)
            elif isinstance(seq, str):
                it = list(seq)
            else:
                raise JsThrow("TypeError: not iterable")
            for v in it:
                self._tick()
                sub = Env(env)
                sub.declare(name, v)
                try:
                    self.exec_stmt(body, sub)
                except _Break:
                    break
                except _Continue:
                    continue
        elif op == "forin":
            _, kind, name, seqe, body = st
            seq = self.eval(seqe, env)
            if isinstance(seq, JSObject):
                keys = list(seq.props.keys())
            elif isinstance(seq, JSArray):
                keys = [js_str(float(i)) for i in range(len(seq.items))]
            elif isinstance(seq, str):
                keys = [js_str(float(i)) for i in range(len(seq))]
            else:
                keys = []
            for kk in keys:
                self._tick()
                sub = Env(env)
                sub.declare(name, kk)
                try:
                    self.exec_stmt(body, sub)
                except _Break:
                    break
                except _Continue:
                    continue
        elif op == "funcdecl":
            env.declare(st[1], JSFunction(st[2], st[3], env))
        elif op == "return":
            raise _Return(self.eval(st[1], env) if st[1] is not None
                          else UNDEF)
        elif op == "break":
            raise _Break()
        elif op == "continue":
            raise _Continue()
        elif op == "throw":
            raise JsThrow(self.eval(st[1], env))
        elif op == "try":
            _, body, cname, handler, fin = st
            try:
                try:
                    self.exec_stmt(body, env)
                except JsThrow as e:
                    if handler is not None:
                        sub = Env(env)
                        if cname:
                            sub.declare(cname, e.value)
                        self.exec_stmt(handler, sub)
                    else:
                        raise
            finally:
                if fin is not None:
                    self.exec_stmt(fin, env)
        elif op == "switch":
            _, disc_e, cases = st
            disc = self.eval(disc_e, env)
            start = None
            for idx, (test, _body) in enumerate(cases):
                if test is not None and self._strict_eq(
                        disc, self.eval(test, env)):
                    start = idx
                    break
            if start is None:
                for idx, (test, _body) in enumerate(cases):
                    if test is None:
                        start = idx
                        break
            if start is not None:
                sub = Env(env)
                try:
                    for _test, body in cases[start:]:  # fallthrough
                        for s2 in body:
                            self.exec_stmt(s2, sub)
                except _Break:
                    pass
        elif op == "empty":
            pass
        else:  # pragma: no cover - parser produces only the above
            raise JsError(f"unknown statement {op}")

    # -- expressions
    def eval(self, e, env):
        self._tick()
        op = e[0]
        if op == "num":
            return e[1]
        if op == "str":
            return e[1]
        if op == "bool":
            return e[1]
        if op == "null":
            return None
        if op == "undef":
            return UNDEF
        if op == "ident":
            if e[1] == "this":
                return UNDEF
            return env.get(e[1])
        if op == "template":
            out = []
            for pk, pv in e[1]:
                out.append(pv if pk == "lit" else js_str(self.eval(pv, env)))
            return _cap("".join(out))
        if op == "array":
            return JSArray([self.eval(x, env) for x in e[1]])
        if op == "object":
            return JSObject({k: self.eval(v, env) for k, v in e[1]})
        if op == "func":
            return JSFunction(e[1], e[2], env)
        if op == "arrow":
            return JSFunction(e[1], e[2], env, is_arrow=True,
                              is_expr_body=e[3])
        if op == "member":
            return self.get_member(self.eval(e[1], env), e[2])
        if op == "index":
            obj = self.eval(e[1], env)
            key = self.eval(e[2], env)
            return self.get_index(obj, key)
        if op == "call":
            return self.eval_call(e, env)
        if op == "new":
            return self.eval_new(e, env)
        if op == "assign":
            return self.eval_assign(e, env)
        if op == "update":
            return self.eval_update(e, env)
        if op == "cond":
            return (self.eval(e[2], env) if js_truthy(self.eval(e[1], env))
                    else self.eval(e[3], env))
        if op == "and":
            left = self.eval(e[1], env)
            return self.eval(e[2], env) if js_truthy(left) else left
        if op == "or":
            left = self.eval(e[1], env)
            return left if js_truthy(left) else self.eval(e[2], env)
        if op == "nullish":
            left = self.eval(e[1], env)
            return (self.eval(e[2], env)
                    if left is None or left is UNDEF else left)
        if op == "comma":
            self.eval(e[1], env)
            return self.eval(e[2], env)
        if op == "regexlit":
            # fresh object per evaluation (ES5+): lastIndex is
            # per-object state; the compiled pattern is cached
            return _compile_js_regex(e[1], e[2])
        if op == "bin":
            return self.eval_bin(e[1], self.eval(e[2], env),
                                 self.eval(e[3], env))
        if op == "unary":
            return self.eval_unary(e, env)
        raise JsError(f"unknown expression {op}")

    def eval_unary(self, e, env):
        op = e[1]
        if op == "typeof":
            try:
                v = self.eval(e[2], env)
            except JsThrow:
                return "undefined"
            if v is UNDEF:
                return "undefined"
            if v is None:
                return "object"
            if isinstance(v, bool):
                return "boolean"
            if isinstance(v, float):
                return "number"
            if isinstance(v, str):
                return "string"
            if isinstance(v, (JSFunction, NativeFn)):
                return "function"
            return "object"
        v = self.eval(e[2], env)
        if op == "!":
            return not js_truthy(v)
        if op == "-":
            return -js_num(v)
        if op == "+":
            return js_num(v)
        if op == "~":
            return float(~_toint32(v))
        if op == "void":
            return UNDEF
        if op == "delete":
            return True  # effect-free approximation
        raise JsError(f"unknown unary {op}")

    def eval_bin(self, op, a, b):
        if op == "+":
            if isinstance(a, str) or isinstance(b, str) or \
                    isinstance(a, (JSArray, JSObject)) or \
                    isinstance(b, (JSArray, JSObject)):
                return _cap(js_str(a) + js_str(b))
            return js_num(a) + js_num(b)
        if op == "-":
            return js_num(a) - js_num(b)
        if op == "*":
            return js_num(a) * js_num(b)
        if op == "/":
            na, nb = js_num(a), js_num(b)
            if nb == 0:
                if na == 0 or math.isnan(na):
                    return math.nan
                return math.inf if na > 0 else -math.inf
            return na / nb
        if op == "%":
            na, nb = js_num(a), js_num(b)
            if nb == 0 or math.isnan(na) or math.isinf(na):
                return math.nan
            return math.fmod(na, nb)
        if op == "**":
            try:
                return float(js_num(a) ** js_num(b))
            except (OverflowError, ZeroDivisionError):
                return math.inf
        if op in ("==", "!="):
            r = self._loose_eq(a, b)
            return r if op == "==" else not r
        if op in ("===", "!=="):
            r = self._strict_eq(a, b)
            return r if op == "===" else not r
        if op in ("<", ">", "<=", ">="):
            if isinstance(a, str) and isinstance(b, str):
                if op == "<":
                    return a < b
                if op == ">":
                    return a > b
                if op == "<=":
                    return a <= b
                return a >= b
            na, nb = js_num(a), js_num(b)
            if math.isnan(na) or math.isnan(nb):
                return False
            if op == "<":
                return na < nb
            if op == ">":
                return na > nb
            if op == "<=":
                return na <= nb
            return na >= nb
        if op == "&":
            return float(_toint32(a) & _toint32(b))
        if op == "|":
            return float(_toint32(a) | _toint32(b))
        if op == "^":
            return float(_toint32(a) ^ _toint32(b))
        if op == "<<":
            return float(_toint32(float(_toint32(a) << (_touint32(b) & 31)
                                        & 0xFFFFFFFF)))
        if op == ">>":
            return float(_toint32(a) >> (_touint32(b) & 31))
        if op == ">>>":
            return float(_touint32(a) >> (_touint32(b) & 31))
        if op == "in":
            key = js_str(a)
            if isinstance(b, JSObject):
                return key in b.props
            if isinstance(b, JSArray):
                try:
                    return 0 <= int(float(key)) < len(b.items)
                except ValueError:
                    return key == "length"
            raise JsThrow("TypeError: 'in' on non-object")
        raise JsError(f"unknown operator {op}")

    def _strict_eq(self, a, b):
        if a is UNDEF and b is UNDEF:
            return True
        if a is None and b is None:
            return True
        if isinstance(a, bool) or isinstance(b, bool):
            return a is b
        if isinstance(a, float) and isinstance(b, float):
            return a == b
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        return a is b

    def _loose_eq(self, a, b):
        if (a is None or a is UNDEF) and (b is None or b is UNDEF):
            return True
        if (a is None or a is UNDEF) or (b is None or b is UNDEF):
            return False
        if isinstance(a, bool):
            a = 1.0 if a else 0.0
        if isinstance(b, bool):
            b = 1.0 if b else 0.0
        if isinstance(a, float) and isinstance(b, str):
            return a == js_num(b)
        if isinstance(a, str) and isinstance(b, float):
            return js_num(a) == b
        if isinstance(a, float) and isinstance(b, float):
            return a == b
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        return a is b

    # -- members / calls
    def get_member(self, obj, name):
        if obj is UNDEF or obj is None:
            raise JsThrow(f"TypeError: cannot read {name!r} of "
                          f"{js_str(obj)}")
        if isinstance(obj, JSObject):
            if name in ("_rec", "__set__"):
                return UNDEF  # host-internal plumbing, invisible to JS
            if name in obj.props:
                return obj.props[name]
            return UNDEF
        if isinstance(obj, str):
            return self._string_member(obj, name)
        if isinstance(obj, JSArray):
            return self._array_member(obj, name)
        if isinstance(obj, JSRegExp):
            return self._regexp_member(obj, name)
        if isinstance(obj, float):
            return self._number_member(obj, name)
        if isinstance(obj, NativeFn) and name in obj.props:
            return obj.props[name]
        if isinstance(obj, (JSFunction, NativeFn)):
            if name == "call":
                return NativeFn(lambda this, args:
                                self._invoke(obj, list(args[1:]),
                                             args[0] if args else UNDEF),
                                "call")
            if name == "apply":
                def _apply(this, args):
                    lst = args[1] if len(args) > 1 else JSArray([])
                    items = lst.items if isinstance(lst, JSArray) else []
                    return self._invoke(obj, list(items),
                                        args[0] if args else UNDEF)
                return NativeFn(_apply, "apply")
            return UNDEF
        if isinstance(obj, bool):
            return UNDEF
        raise JsError(f"member access on {type(obj).__name__}")

    def get_index(self, obj, key):
        if isinstance(obj, JSArray):
            if isinstance(key, float) and not math.isnan(key):
                i = int(key)
                if 0 <= i < len(obj.items):
                    return obj.items[i]
                return UNDEF
            return self.get_member(obj, js_str(key))
        if isinstance(obj, str):
            if isinstance(key, float) and not math.isnan(key):
                i = int(key)
                if 0 <= i < len(obj):
                    return obj[i]
                return UNDEF
            return self.get_member(obj, js_str(key))
        if isinstance(obj, JSObject):
            return obj.props.get(js_str(key), UNDEF)
        return self.get_member(obj, js_str(key))

    def set_member(self, obj, name, value):
        if isinstance(obj, JSRegExp):
            if name == "lastIndex":
                obj.last_index = max(0, int(js_num(value))
                                     if math.isfinite(js_num(value)) else 0)
            return  # other regex props read-only (JS semantics)
        if isinstance(obj, JSObject):
            setter = obj.props.get("__set__")
            if isinstance(setter, NativeFn):
                setter.fn(obj, [name, value])
            else:
                obj.props[name] = value
            return
        if isinstance(obj, JSArray):
            if name == "length":
                n = int(js_num(value))
                del obj.items[n:]
                while len(obj.items) < n:
                    obj.items.append(UNDEF)
                return
            try:
                i = int(float(name))
            except ValueError:
                return  # expando on array: ignored
            while len(obj.items) <= i:
                obj.items.append(UNDEF)
            obj.items[i] = value
            return
        if obj is UNDEF or obj is None:
            raise JsThrow(f"TypeError: cannot set {name!r} of "
                          f"{js_str(obj)}")
        # set on primitives: silently ignored (JS sloppy-mode behavior)

    def eval_assign(self, e, env):
        _, op, target, value_e = e
        if op == "=":
            value = self.eval(value_e, env)
        elif op in ("&&=", "||=", "??="):
            cur = self._read_target(target, env)
            if op == "&&=" and not js_truthy(cur):
                return cur
            if op == "||=" and js_truthy(cur):
                return cur
            if op == "??=" and not (cur is None or cur is UNDEF):
                return cur
            value = self.eval(value_e, env)
        else:
            cur = self._read_target(target, env)
            value = self.eval_bin(op[:-1], cur, self.eval(value_e, env))
        self._write_target(target, value, env)
        return value

    def eval_update(self, e, env):
        _, op, target, prefix = e
        cur = js_num(self._read_target(target, env))
        new = cur + (1.0 if op == "++" else -1.0)
        self._write_target(target, new, env)
        return new if prefix else cur

    def _read_target(self, t, env):
        if t[0] == "ident":
            return env.get(t[1])
        if t[0] == "member":
            return self.get_member(self.eval(t[1], env), t[2])
        if t[0] == "index":
            return self.get_index(self.eval(t[1], env),
                                  self.eval(t[2], env))
        raise JsError("bad target")

    def _write_target(self, t, value, env):
        if t[0] == "ident":
            env.set(t[1], value)
        elif t[0] == "member":
            self.set_member(self.eval(t[1], env), t[2], value)
        elif t[0] == "index":
            obj = self.eval(t[1], env)
            key = self.eval(t[2], env)
            if isinstance(obj, JSArray) and isinstance(key, float):
                i = int(key)
                while len(obj.items) <= i:
                    obj.items.append(UNDEF)
                obj.items[i] = value
            else:
                self.set_member(obj, js_str(key), value)
        else:
            raise JsError("bad target")

    def eval_call(self, e, env):
        _, callee, arg_es = e
        args = None
        if callee[0] == "member":
            obj = self.eval(callee[1], env)
            fn = self.get_member(obj, callee[2])
            this = obj
        elif callee[0] == "index":
            obj = self.eval(callee[1], env)
            fn = self.get_index(obj, self.eval(callee[2], env))
            this = obj
        else:
            fn = self.eval(callee, env)
            this = UNDEF
        args = [self.eval(a, env) for a in arg_es]
        return self._invoke(fn, args, this)

    def eval_new(self, e, env):
        _, callee, arg_es = e
        fn = self.eval(callee, env) if callee[0] != "member" else \
            self.get_member(self.eval(callee[1], env), callee[2])
        args = [self.eval(a, env) for a in arg_es]
        if isinstance(fn, NativeFn) and fn.name.startswith("ctor:"):
            return fn.fn(UNDEF, args)
        raise JsError("unsupported constructor")

    def _invoke(self, fn, args, this):
        if isinstance(fn, NativeFn):
            return fn.fn(this, args)
        if not isinstance(fn, JSFunction):
            raise JsThrow(f"TypeError: {js_str(fn)} is not a function")
        self.call_depth += 1
        if self.call_depth > MAX_CALL_DEPTH:
            self.call_depth -= 1
            raise JsError("call depth exceeded")
        try:
            sub = Env(fn.env)
            for i, p in enumerate(fn.params):
                sub.declare(p, args[i] if i < len(args) else UNDEF)
            sub.declare("arguments", JSArray(list(args)))
            if fn.is_expr_body:
                return self.eval(fn.body, sub)
            try:
                if fn.body[0] == "block":
                    self._hoist(fn.body, sub)
                self.exec_stmt(fn.body, sub)
            except _Return as r:
                return r.value
            return UNDEF
        finally:
            self.call_depth -= 1

    # -- built-in prototypes
    def _string_member(self, s: str, name: str):
        if name == "length":
            return float(len(s))

        def m(fn):
            return NativeFn(lambda this, args: fn(args), name)

        if name in ("charAt",):
            return m(lambda a: s[int(js_num(a[0]) if a else 0)]
                     if 0 <= int(js_num(a[0]) if a else 0) < len(s) else "")
        if name == "charCodeAt":
            def _cca(a):
                i = int(js_num(a[0])) if a else 0
                return float(ord(s[i])) if 0 <= i < len(s) else math.nan
            return m(_cca)
        if name == "indexOf":
            return m(lambda a: float(s.find(js_str(a[0]) if a else "undefined",
                     int(js_num(a[1])) if len(a) > 1 else 0)))
        if name == "lastIndexOf":
            return m(lambda a: float(s.rfind(js_str(a[0]))) if a
                     else -1.0)
        if name == "includes":
            return m(lambda a: (js_str(a[0]) in s) if a else False)
        if name == "startsWith":
            return m(lambda a: s.startswith(js_str(a[0])) if a else False)
        if name == "endsWith":
            return m(lambda a: s.endswith(js_str(a[0])) if a else False)
        if name in ("slice", "substring"):
            def _slice(a):
                st = int(js_num(a[0])) if a else 0
                en = int(js_num(a[1])) if len(a) > 1 and a[1] is not UNDEF \
                    else len(s)
                if name == "slice":
                    if st < 0:
                        st += len(s)
                    if en < 0:
                        en += len(s)
                else:
                    st, en = max(0, st), max(0, en)
                    if st > en:
                        st, en = en, st
                return s[max(0, st):max(0, en)]
            return m(_slice)
        if name == "substr":
            def _substr(a):
                st = int(js_num(a[0])) if a else 0
                if st < 0:
                    st = max(0, len(s) + st)
                ln = int(js_num(a[1])) if len(a) > 1 else len(s) - st
                return s[st:st + max(0, ln)]
            return m(_substr)
        if name == "toUpperCase":
            return m(lambda a: s.upper())
        if name == "toLowerCase":
            return m(lambda a: s.lower())
        if name == "trim":
            return m(lambda a: s.strip())
        if name == "split":
            def _split(a):
                if not a or a[0] is UNDEF:
                    return JSArray([s])
                if isinstance(a[0], JSRegExp):
                    self._regex_guard(a[0], s)
                    parts = a[0].pattern.split(s)
                    return JSArray([UNDEF if p is None else p
                                    for p in parts])
                sep = js_str(a[0])
                if sep == "":
                    return JSArray(list(s))
                return JSArray(s.split(sep))
            return m(_split)

        def _regex_replace(rx: JSRegExp, rep, all_matches: bool):
            if all_matches:
                matches = self._regex_find_all(rx, s)
            else:
                self._regex_guard(rx, s)
                mm = rx.pattern.search(s)
                matches = [mm] if mm else []
            if not matches:
                return s
            out = []
            pos = 0
            for mt in matches:
                out.append(s[pos:mt.start()])
                if isinstance(rep, (JSFunction, NativeFn)):
                    args = [mt.group(0)]
                    args += [UNDEF if g is None else g
                             for g in mt.groups()]
                    args += [float(mt.start()), s]
                    out.append(js_str(self._invoke(rep, args, UNDEF)))
                else:
                    out.append(self._expand_replacement(js_str(rep), mt))
                pos = mt.end()
            out.append(s[pos:])
            return _cap("".join(out))

        if name == "replace":
            def _replace(a):
                rep = a[1] if len(a) > 1 else UNDEF
                if a and isinstance(a[0], JSRegExp):
                    return _regex_replace(a[0], rep, a[0].global_)
                pat = js_str(a[0]) if a else ""
                if isinstance(rep, (JSFunction, NativeFn)):
                    i = s.find(pat)
                    if i < 0:
                        return s
                    r = js_str(self._invoke(rep, [pat], UNDEF))
                    return _cap(s[:i] + r + s[i + len(pat):])
                return _cap(s.replace(pat, js_str(rep), 1))
            return m(_replace)
        if name == "replaceAll":
            def _replace_all(a):
                rep = a[1] if len(a) > 1 else UNDEF
                if a and isinstance(a[0], JSRegExp):
                    if not a[0].global_:
                        raise JsThrow("TypeError: replaceAll must be "
                                      "called with a global RegExp")
                    return _regex_replace(a[0], rep, True)
                if isinstance(rep, (JSFunction, NativeFn)):
                    pat = js_str(a[0]) if a else ""
                    out, pos = [], 0
                    while True:
                        i = s.find(pat, pos)
                        if i < 0 or not pat:
                            break
                        out.append(s[pos:i])
                        out.append(js_str(self._invoke(
                            rep, [pat, float(i), s], UNDEF)))
                        pos = i + len(pat)
                    out.append(s[pos:])
                    return _cap("".join(out))
                return _cap(s.replace(js_str(a[0]) if a else "undefined",
                                      js_str(rep) if len(a) > 1
                                      else "undefined"))
            return m(_replace_all)
        if name == "match":
            def _match(a):
                if not a:
                    return None
                rx = a[0] if isinstance(a[0], JSRegExp) else \
                    _compile_js_regex(js_str(a[0]), "")
                if rx.global_:
                    found = self._regex_find_all(rx, s)
                    return (JSArray([mt.group(0) for mt in found])
                            if found else None)
                mt = self._regex_exec(rx, s)
                return None if mt is None else self._match_array(mt, s)
            return m(_match)
        if name == "matchAll":
            def _match_all(a):
                if not a or not isinstance(a[0], JSRegExp) \
                        or not a[0].global_:
                    raise JsThrow("TypeError: matchAll needs a global "
                                  "RegExp")
                return JSArray([self._match_array(mt, s)
                                for mt in self._regex_find_all(a[0], s)])
            return m(_match_all)
        if name == "search":
            def _search(a):
                if not a:
                    return -1.0
                rx = a[0] if isinstance(a[0], JSRegExp) else \
                    _compile_js_regex(js_str(a[0]), "")
                self._regex_guard(rx, s)
                mt = rx.pattern.search(s)
                return float(mt.start()) if mt else -1.0
            return m(_search)
        if name == "repeat":
            def _repeat(a):
                n = int(js_num(a[0])) if a else 0
                if n < 0:
                    raise JsThrow("RangeError: repeat count")
                if n * len(s) > MAX_STR:
                    raise JsError("string too large")
                return s * n
            return m(_repeat)
        if name == "concat":
            return m(lambda a: _cap(s + "".join(js_str(x) for x in a)))
        if name == "padStart":
            return m(lambda a: s.rjust(min(int(js_num(a[0])), MAX_STR)
                                       if a else 0,
                                       (js_str(a[1]) if len(a) > 1
                                        else " ")[:1] or " "))
        if name == "padEnd":
            return m(lambda a: s.ljust(min(int(js_num(a[0])), MAX_STR)
                                       if a else 0,
                                       (js_str(a[1]) if len(a) > 1
                                        else " ")[:1] or " "))
        if name == "toString":
            return m(lambda a: s)
        return UNDEF

    def _array_member(self, arr: JSArray, name: str):
        items = arr.items

        def m(fn):
            return NativeFn(lambda this, args: fn(args), name)

        if name == "length":
            return float(len(items))
        if name == "push":
            def _push(a):
                items.extend(a)
                if len(items) > 1_000_000:
                    raise JsError("array too large")
                return float(len(items))
            return m(_push)
        if name == "pop":
            return m(lambda a: items.pop() if items else UNDEF)
        if name == "shift":
            return m(lambda a: items.pop(0) if items else UNDEF)
        if name == "unshift":
            def _unshift(a):
                items[:0] = a
                return float(len(items))
            return m(_unshift)
        if name == "join":
            return m(lambda a: _cap((js_str(a[0]) if a else ",").join(
                "" if x is UNDEF or x is None else js_str(x)
                for x in items)))
        if name == "indexOf":
            def _io(a):
                t = a[0] if a else UNDEF
                for i, x in enumerate(items):
                    if self._strict_eq(x, t):
                        return float(i)
                return -1.0
            return m(_io)
        if name == "includes":
            def _inc(a):
                t = a[0] if a else UNDEF
                return any(self._strict_eq(x, t) for x in items)
            return m(_inc)
        if name == "slice":
            def _slice(a):
                st = int(js_num(a[0])) if a else 0
                en = int(js_num(a[1])) if len(a) > 1 and a[1] is not UNDEF \
                    else len(items)
                if st < 0:
                    st += len(items)
                if en < 0:
                    en += len(items)
                return JSArray(items[max(0, st):max(0, en)])
            return m(_slice)
        if name == "concat":
            def _concat(a):
                out = list(items)
                for x in a:
                    out.extend(x.items if isinstance(x, JSArray) else [x])
                return JSArray(out)
            return m(_concat)
        if name == "reverse":
            def _rev(a):
                items.reverse()
                return arr
            return m(_rev)
        if name == "sort":
            def _sort(a):
                if a and isinstance(a[0], (JSFunction, NativeFn)):
                    import functools
                    cmp = a[0]
                    items.sort(key=functools.cmp_to_key(
                        lambda x, y: (lambda r: -1 if r < 0 else
                                      (1 if r > 0 else 0))(
                            js_num(self._invoke(cmp, [x, y], UNDEF)))))
                else:
                    items.sort(key=js_str)
                return arr
            return m(_sort)
        if name == "map":
            def _map(a):
                fn = a[0]
                return JSArray([self._invoke(fn, [x, float(i), arr], UNDEF)
                                for i, x in enumerate(list(items))])
            return m(_map)
        if name == "filter":
            def _filter(a):
                fn = a[0]
                return JSArray([x for i, x in enumerate(list(items))
                                if js_truthy(self._invoke(
                                    fn, [x, float(i), arr], UNDEF))])
            return m(_filter)
        if name == "forEach":
            def _each(a):
                fn = a[0]
                for i, x in enumerate(list(items)):
                    self._invoke(fn, [x, float(i), arr], UNDEF)
                return UNDEF
            return m(_each)
        if name == "reduce":
            def _reduce(a):
                fn = a[0]
                it = list(items)
                if len(a) > 1:
                    acc, start = a[1], 0
                elif it:
                    acc, start = it[0], 1
                else:
                    raise JsThrow("TypeError: reduce of empty array")
                for i in range(start, len(it)):
                    acc = self._invoke(fn, [acc, it[i], float(i), arr],
                                       UNDEF)
                return acc
            return m(_reduce)
        if name == "find":
            def _find(a):
                fn = a[0]
                for i, x in enumerate(list(items)):
                    if js_truthy(self._invoke(fn, [x, float(i), arr],
                                              UNDEF)):
                        return x
                return UNDEF
            return m(_find)
        if arr.js_props is not None and name in arr.js_props:
            return arr.js_props[name]  # match-array .index / .input
        return UNDEF

    # -- regex support
    def _charge(self, cost: int):
        """Budget non-AST work (regex matching) against the same step
        counter that bounds evaluation."""
        self.steps -= cost
        if self.steps <= 0:
            raise JsError("step budget exhausted")

    def _match_array(self, m, subject: str) -> JSArray:
        groups = [m.group(0)]
        for g in m.groups():
            groups.append(UNDEF if g is None else g)
        return JSArray(groups, js_props={
            "index": float(m.start()), "input": subject})

    def _regex_guard(self, rx: JSRegExp, s: str) -> None:
        """Pre-match guard: one pattern.search() is a single
        un-interruptible C call, so patterns with unbounded quantifiers
        get a subject-length cap (bounding the residual polynomial
        backtracking the structural translate-time guard cannot
        exclude) and a heavier step charge. Over-long subjects raise
        JsError -> per-script rollback -> literal-scan fallback,
        identically in engine and oracle."""
        if rx.unbounded:
            if len(s) > _MAX_REGEX_SUBJECT:
                raise JsError("regex: subject too long for a pattern "
                              "with unbounded quantifiers")
            self._charge(1 + len(s) // 8)
        else:
            self._charge(1 + len(s) // 32)

    def _regex_exec(self, rx: JSRegExp, s: str):
        """One exec step honoring /g and /y lastIndex state; returns a
        Python match or None (and updates lastIndex)."""
        self._regex_guard(rx, s)
        stateful = rx.global_ or rx.sticky
        pos = rx.last_index if stateful else 0
        if pos > len(s):
            m = None
        elif rx.sticky:
            m = rx.pattern.match(s, pos)
        else:
            m = rx.pattern.search(s, pos)
        if stateful:
            if m is None:
                rx.last_index = 0
            else:
                # zero-width match still advances (JS exec loop rule is
                # caller-side, but lastIndex=end; guard infinite loops
                # by bumping past a zero-width match)
                rx.last_index = m.end() + (1 if m.end() == m.start() else 0)
        return m

    def _regex_find_all(self, rx: JSRegExp, s: str):
        """All non-overlapping matches from 0 (the /g sweep), bounded
        by the step budget."""
        self._regex_guard(rx, s)
        out = []
        pos = 0
        while pos <= len(s):
            m = rx.pattern.search(s, pos)
            if m is None:
                break
            out.append(m)
            pos = m.end() + (1 if m.end() == m.start() else 0)
            self._charge(1)
        return out

    def _expand_replacement(self, template: str, m) -> str:
        """JS $-patterns in a string replacement: $$ $& $` $' $1..$99."""
        out = []
        i, n = 0, len(template)
        while i < n:
            c = template[i]
            if c == "$" and i + 1 < n:
                nx = template[i + 1]
                if nx == "$":
                    out.append("$")
                    i += 2
                    continue
                if nx == "&":
                    out.append(m.group(0))
                    i += 2
                    continue
                if nx == "`":
                    out.append(m.string[:m.start()])
                    i += 2
                    continue
                if nx == "'":
                    out.append(m.string[m.end():])
                    i += 2
                    continue
                if nx.isdigit():
                    j = i + 2
                    if j < n and template[j].isdigit() and \
                            int(template[i + 1:j + 1]) <= len(m.groups()):
                        j += 1
                    gi = int(template[i + 1:j])
                    if 1 <= gi <= len(m.groups()):
                        out.append(m.group(gi) or "")
                        i = j
                        continue
            out.append(c)
            i += 1
        return "".join(out)

    def _regexp_member(self, rx: JSRegExp, name: str):
        if name == "source":
            return rx.source
        if name == "flags":
            return rx.flags
        if name == "global":
            return rx.global_
        if name == "ignoreCase":
            return "i" in rx.flags
        if name == "multiline":
            return "m" in rx.flags
        if name == "sticky":
            return rx.sticky
        if name == "lastIndex":
            return float(rx.last_index)
        if name == "test":
            return NativeFn(
                lambda this, a: self._regex_exec(
                    rx, js_str(a[0]) if a else "undefined") is not None,
                "test")
        if name == "exec":
            def _exec(this, a):
                s = js_str(a[0]) if a else "undefined"
                m = self._regex_exec(rx, s)
                return None if m is None else self._match_array(m, s)
            return NativeFn(_exec, "exec")
        if name == "toString":
            return NativeFn(lambda this, a: js_str(rx), "toString")
        return UNDEF

    def _number_member(self, v: float, name: str):
        if name == "toString":
            def _ts(this, args):
                if args:
                    base = int(js_num(args[0]))
                    if base == 10:
                        return js_str(v)
                    if not 2 <= base <= 36:
                        raise JsThrow("RangeError: radix")
                    iv = int(v)
                    if iv == 0:
                        return "0"
                    digs = "0123456789abcdefghijklmnopqrstuvwxyz"
                    neg, iv = iv < 0, abs(iv)
                    out = []
                    while iv:
                        out.append(digs[iv % base])
                        iv //= base
                    return ("-" if neg else "") + "".join(reversed(out))
                return js_str(v)
            return NativeFn(_ts, "toString")
        if name == "toFixed":
            return NativeFn(lambda this, args:
                            f"{v:.{int(js_num(args[0])) if args else 0}f}",
                            "toFixed")
        return UNDEF


# --------------------------------------------------- standard global env

def _math_obj(seed: int = 0x5EED) -> JSObject:
    state = [seed & 0x7FFFFFFF]

    def _rand(this, args):
        # deterministic LCG (Lehmer) — render purity (module docstring)
        state[0] = (state[0] * 48271) % 0x7FFFFFFF
        return state[0] / 0x7FFFFFFF

    def n1(f):
        return NativeFn(lambda this, a: float(f(js_num(a[0]))) if a
                        else math.nan, "math")

    return JSObject({
        "floor": n1(math.floor), "ceil": n1(math.ceil),
        "round": n1(lambda x: math.floor(x + 0.5)),
        "trunc": n1(math.trunc), "abs": n1(abs),
        "sqrt": n1(lambda x: math.sqrt(x) if x >= 0 else math.nan),
        "sign": n1(lambda x: (x > 0) - (x < 0)),
        "min": NativeFn(lambda this, a: min((js_num(x) for x in a),
                                            default=math.inf), "min"),
        "max": NativeFn(lambda this, a: max((js_num(x) for x in a),
                                            default=-math.inf), "max"),
        "pow": NativeFn(lambda this, a: float(js_num(a[0]) ** js_num(a[1]))
                        if len(a) > 1 else math.nan, "pow"),
        "random": NativeFn(_rand, "random"),
        "PI": math.pi, "E": math.e,
    })


def _parse_int(this, args):
    s = js_str(args[0]).strip() if args else ""
    base = int(js_num(args[1])) if len(args) > 1 and \
        args[1] is not UNDEF else 10
    m = re.match(r"[+-]?(0[xX][0-9a-fA-F]+|[0-9a-zA-Z]*)", s)
    if not m or not m.group():
        return math.nan
    tok = m.group()
    try:
        if tok[:2].lower() == "0x" or (base == 16):
            return float(int(tok, 16))
        # trim chars not valid in base
        out = ""
        neg = tok[0] in "+-"
        body = tok[1:] if neg else tok
        for ch in body:
            if int(ch, 36) < base if ch.isalnum() else False:
                out += ch
            else:
                break
        if not out:
            return math.nan
        v = float(int(out, base))
        return -v if tok[0] == "-" else v
    except ValueError:
        return math.nan


def _parse_float(this, args):
    s = js_str(args[0]).strip() if args else ""
    m = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", s)
    return float(m.group()) if m else math.nan


_URI_SAFE = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
             "0123456789-_.!~*'()")


def _encode_uri_component(this, args):
    s = js_str(args[0]) if args else "undefined"
    out = []
    for b in s.encode("utf-8"):
        c = chr(b)
        out.append(c if c in _URI_SAFE else f"%{b:02X}")
    return "".join(out)


def _decode_uri_component(this, args):
    s = js_str(args[0]) if args else "undefined"
    try:
        out = bytearray()
        i = 0
        while i < len(s):
            if s[i] == "%" and i + 2 < len(s) + 1:
                out.extend(bytes([int(s[i + 1:i + 3], 16)]))
                i += 3
            else:
                out.extend(s[i].encode("utf-8"))
                i += 1
        return out.decode("utf-8", "replace")
    except (ValueError, IndexError):
        raise JsThrow("URIError: malformed URI sequence")


def std_globals() -> dict:
    """The sandbox's entire ambient environment — no host escape."""
    def _string_ctor(this, args):
        return js_str(args[0]) if args else ""

    def _number_ctor(this, args):
        return js_num(args[0]) if args else 0.0

    def _bool_ctor(this, args):
        return js_truthy(args[0]) if args else False

    def _array_ctor(this, args):
        if len(args) == 1 and isinstance(args[0], float):
            n = int(args[0])
            if n > 1_000_000:
                raise JsError("array too large")
            return JSArray([UNDEF] * n)
        return JSArray(list(args))

    def _from_char_code(this, args):
        out = []
        for a in args:
            c = int(js_num(a)) & 0xFFFF
            out.append(chr(c))
        return _cap("".join(out))

    str_ctor = NativeFn(_string_ctor, "ctor:String", props={
        "fromCharCode": NativeFn(_from_char_code, "fromCharCode"),
    })
    arr_ctor = NativeFn(_array_ctor, "ctor:Array", props={
        "isArray": NativeFn(
            lambda this, a: isinstance(a[0], JSArray) if a else False,
            "isArray"),
        "from": NativeFn(
            lambda this, a: JSArray(
                list(a[0].items) if a and isinstance(a[0], JSArray)
                else list(a[0]) if a and isinstance(a[0], str)
                else []), "from"),
    })

    def _obj_keys(this, a):
        if a and isinstance(a[0], JSObject):
            return JSArray([k for k in a[0].props
                            if k not in ("_rec", "__set__")])
        if a and isinstance(a[0], JSArray):
            return JSArray([js_str(float(i))
                            for i in range(len(a[0].items))])
        return JSArray([])

    def _obj_values(this, a):
        if a and isinstance(a[0], JSObject):
            return JSArray([v for k, v in a[0].props.items()
                            if k not in ("_rec", "__set__")])
        if a and isinstance(a[0], JSArray):
            return JSArray(list(a[0].items))
        return JSArray([])

    def _obj_assign(this, a):
        if not a or not isinstance(a[0], JSObject):
            raise JsThrow("TypeError: Object.assign target")
        for src in a[1:]:
            if isinstance(src, JSObject):
                a[0].props.update(src.props)
        return a[0]

    def _json_stringify(this, a):
        def ser(v, depth):
            if depth > 16:
                raise JsThrow("TypeError: cyclic or too-deep JSON")
            if v is True:
                return "true"
            if v is False:
                return "false"
            if v is None or v is UNDEF:
                return "null"
            if isinstance(v, float):
                return js_str(v) if math.isfinite(v) else "null"
            if isinstance(v, str):
                return ('"' + v.replace("\\", "\\\\").replace('"', '\\"')
                        .replace("\n", "\\n").replace("\r", "\\r")
                        .replace("\t", "\\t") + '"')
            if isinstance(v, JSArray):
                return "[" + ",".join(ser(x, depth + 1)
                                      for x in v.items) + "]"
            if isinstance(v, JSObject):
                parts = []
                for k, x in v.props.items():
                    if k in ("_rec", "__set__") or isinstance(
                            x, (JSFunction, NativeFn)):
                        continue
                    parts.append(ser(k, depth + 1) + ":"
                                 + ser(x, depth + 1))
                return "{" + ",".join(parts) + "}"
            return "null"  # functions at top level → null-ish

        return _cap(ser(a[0] if a else UNDEF, 0))

    def _json_parse(this, a):
        import json as _json

        try:
            data = _json.loads(js_str(a[0]) if a else "")
        except ValueError:
            raise JsThrow("SyntaxError: JSON.parse")

        def conv(v):
            if isinstance(v, bool):
                return v
            if v is None:
                return None
            if isinstance(v, (int, float)):
                return float(v)
            if isinstance(v, str):
                return v
            if isinstance(v, list):
                return JSArray([conv(x) for x in v])
            return JSObject({k: conv(x) for k, x in v.items()})

        return conv(data)

    return {
        "Math": _math_obj(),
        "parseInt": NativeFn(_parse_int, "parseInt"),
        "parseFloat": NativeFn(_parse_float, "parseFloat"),
        "isNaN": NativeFn(lambda this, a:
                          math.isnan(js_num(a[0])) if a else True, "isNaN"),
        "isFinite": NativeFn(lambda this, a:
                             math.isfinite(js_num(a[0])) if a else False,
                             "isFinite"),
        "encodeURIComponent": NativeFn(_encode_uri_component, "eUC"),
        "decodeURIComponent": NativeFn(_decode_uri_component, "dUC"),
        "encodeURI": NativeFn(_encode_uri_component, "eU"),
        "String": str_ctor,
        "Number": NativeFn(_number_ctor, "ctor:Number", props={
            "parseInt": NativeFn(_parse_int, "parseInt"),
            "parseFloat": NativeFn(_parse_float, "parseFloat"),
            "isInteger": NativeFn(
                lambda this, a: isinstance(a[0], float)
                and float(a[0]).is_integer() if a else False, "isInteger"),
            "isFinite": NativeFn(
                lambda this, a: isinstance(a[0], float)
                and math.isfinite(a[0]) if a else False, "isFinite"),
            "MAX_SAFE_INTEGER": float(2**53 - 1),
        }),
        "Boolean": NativeFn(_bool_ctor, "ctor:Boolean"),
        "RegExp": NativeFn(
            lambda this, a: (
                a[0] if a and isinstance(a[0], JSRegExp) and len(a) < 2
                else _compile_js_regex(
                    (a[0].source if isinstance(a[0], JSRegExp)
                     else js_str(a[0])) if a else "",
                    js_str(a[1]) if len(a) > 1 and a[1] is not UNDEF
                    else "")),
            "ctor:RegExp"),
        "Array": arr_ctor,
        "Object": NativeFn(
            lambda this, a: a[0] if a and isinstance(a[0], JSObject)
            else JSObject({}), "ctor:Object", props={
                "keys": NativeFn(_obj_keys, "keys"),
                "values": NativeFn(_obj_values, "values"),
                "assign": NativeFn(_obj_assign, "assign"),
            }),
        "JSON": JSObject({
            "stringify": NativeFn(_json_stringify, "stringify"),
            "parse": NativeFn(_json_parse, "parse"),
        }),
        "NaN": math.nan,
        "Infinity": math.inf,
        "Date": JSObject({"now": NativeFn(lambda this, a: 1.7e12, "now")}),
        "Error": NativeFn(lambda this, a: JSObject(
            {"message": js_str(a[0]) if a else "", "name": "Error"}),
            "ctor:Error"),
        "TypeError": NativeFn(lambda this, a: JSObject(
            {"message": js_str(a[0]) if a else "", "name": "TypeError"}),
            "ctor:TypeError"),
        "console": JSObject({
            "log": NativeFn(lambda this, a: UNDEF, "log"),
            "warn": NativeFn(lambda this, a: UNDEF, "warn"),
            "error": NativeFn(lambda this, a: UNDEF, "error"),
        }),
    }
