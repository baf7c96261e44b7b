"""Sandboxed mini-JS interpreter + render hook tests.

The reference renders pages with Playwright so inline scripts RUN
(playwrightcrawler.py:4926-5207); functions/jsinterp.py executes the
link-building subset of ECMAScript for real.  These tests pin (a)
language semantics against values Node/browsers produce, (b) the DOM
shim's observable render contract, (c) determinism and hostile-input
bounds — the properties the golden crawl oracle depends on.
"""

from __future__ import annotations

import math

import pytest

from playwrightcrawler_ray.functions.jsinterp import (
    Interp, JsError, JSArray, JSObject, NativeFn, UNDEF, js_str,
    std_globals,
)
from playwrightcrawler_ray.functions.render import render_html


def ev(src: str, **extra):
    """Run `result = <src>` and return the JS value of `result`."""
    g = std_globals()
    g.update(extra)
    interp = Interp(g)
    interp.run("var __r = (" + src + ");")
    return interp.genv.get("__r")


def run(src: str, **extra):
    g = std_globals()
    g.update(extra)
    interp = Interp(g)
    interp.run(src)
    return interp


# ------------------------------------------------------------ language

def test_arithmetic_and_coercion():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("'a' + 1") == "a1"
    assert ev("1 + '2'") == "12"
    assert ev("'5' - 2") == 3.0
    assert ev("7 % 3") == 1.0
    assert ev("-7 % 3") == -1.0  # JS remainder keeps dividend sign
    assert ev("2 ** 10") == 1024.0
    assert math.isnan(ev("0 / 0"))
    assert ev("1 / 0") == math.inf
    assert ev("5 | 3") == 7.0
    assert ev("5 & 3") == 1.0
    assert ev("1 << 4") == 16.0
    assert ev("-1 >>> 28") == 15.0
    assert ev("~5") == -6.0


def test_equality_and_truthiness():
    assert ev("1 == '1'") is True
    assert ev("1 === '1'") is False
    assert ev("null == undefined") is True
    assert ev("null === undefined") is False
    assert ev("'' ? 1 : 2") == 2.0
    assert ev("0 || 'x'") == "x"
    assert ev("'a' && 'b'") == "b"
    assert ev("null ?? 'd'") == "d"
    assert ev("0 ?? 'd'") == 0.0


def test_strings_and_templates():
    assert ev("'abc'.length") == 3.0
    assert ev("'a,b,c'.split(',').join('-')") == "a-b-c"
    assert ev("'Hello'.toLowerCase()") == "hello"
    assert ev("'  x '.trim()") == "x"
    assert ev("'abcdef'.slice(1, -1)") == "bcde"
    assert ev("'aXbXc'.replace('X', '-')") == "a-bXc"   # first only
    assert ev("'aXbXc'.replaceAll('X', '-')") == "a-b-c"
    assert ev("'ab'.repeat(3)") == "ababab"
    assert ev("'abc'.charCodeAt(1)") == 98.0
    assert ev("'abc'[1]") == "b"
    interp = run("var n = 7; var s = `p${n * 2}q`;")
    assert interp.genv.get("s") == "p14q"


def test_arrays_and_objects():
    assert ev("[1,2,3].length") == 3.0
    assert ev("[3,1,2].sort().join('')") == "123"
    assert ev("[1,2,3].map(function(x){return x*2}).join(',')") == "2,4,6"
    assert ev("[1,2,3,4].filter(x => x % 2 == 0).length") == 2.0
    assert ev("[1,2,3].reduce((a,b) => a+b, 10)") == 16.0
    assert ev("[1,2].concat([3], 4).length") == 4.0
    assert ev("({a: 1, b: 2}).a") == 1.0
    assert ev("({x: {y: 5}}).x.y") == 5.0
    interp = run("var a = []; for (var i = 0; i < 4; i++) a.push(i);")
    assert [x for x in interp.genv.get("a").items] == [0.0, 1.0, 2.0, 3.0]


def test_control_flow_and_functions():
    src = """
    function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
    var r = fib(10);
    var s = 0;
    for (var i = 0; i < 10; i++) { if (i == 5) continue; s += i; }
    var w = 0; while (w < 100) { w += 7; if (w > 50) break; }
    var seen = [];
    for (const v of ['a', 'b']) seen.push(v);
    for (const k in {p: 1, q: 2}) seen.push(k);
    """
    interp = run(src)
    assert interp.genv.get("r") == 55.0
    assert interp.genv.get("s") == 40.0
    assert interp.genv.get("w") == 56.0
    assert [x for x in interp.genv.get("seen").items] == \
        ["a", "b", "p", "q"]


def test_closures():
    src = """
    function counter() { var n = 0; return function() { return ++n; }; }
    var c = counter();
    c(); c();
    var r = c();
    """
    assert run(src).genv.get("r") == 3.0


def test_try_catch_throw():
    src = """
    var msg = '';
    try { throw 'boom'; } catch (e) { msg = 'got:' + e; }
    var fin = 0;
    try { var z = 1; } finally { fin = 1; }
    """
    interp = run(src)
    assert interp.genv.get("msg") == "got:boom"
    assert interp.genv.get("fin") == 1.0


def test_builtins():
    assert ev("parseInt('42px')") == 42.0
    assert ev("parseInt('ff', 16)") == 255.0
    assert ev("parseFloat('3.5rem')") == 3.5
    assert ev("Math.floor(3.9)") == 3.0
    assert ev("Math.max(1, 5, 3)") == 5.0
    assert ev("encodeURIComponent('a b/c')") == "a%20b%2Fc"
    assert ev("decodeURIComponent('a%20b')") == "a b"
    assert ev("String(12)") == "12"
    assert ev("Number('8') + 1") == 9.0
    assert ev("(255).toString(16)") == "ff"
    assert ev("isNaN('x')") is True
    assert ev("typeof 'a'") == "string"
    assert ev("typeof undefinedGlobal") == "undefined"


def test_js_str_number_formatting():
    assert js_str(1.0) == "1"          # integral floats print as ints
    assert js_str(1.5) == "1.5"
    assert js_str(math.nan) == "NaN"
    assert js_str(UNDEF) == "undefined"
    assert js_str(None) == "null"
    assert js_str(JSArray([1.0, "a"])) == "1,a"


# ------------------------------------------------------- hostile bounds

def test_infinite_loop_bounded():
    with pytest.raises(JsError):
        run("while (true) {}")


def test_string_bomb_bounded():
    with pytest.raises(JsError):
        run("var s = 'x'; while (true) { s = s + s; }")
    with pytest.raises(JsError):
        run("'x'.repeat(99999999)")


def test_deep_recursion_bounded():
    with pytest.raises(JsError):
        run("function f() { f(); } f();")


def test_deep_nesting_bounded():
    with pytest.raises(JsError):
        run("var x = " + "(" * 500 + "1" + ")" * 500 + ";")


def test_unsupported_constructs_raise():
    for src in ("class A {}", "async function f() {}", "x?.y",
                # regex OUTSIDE the safe subset still rejects: the
                # catastrophic-backtracking shape and \c escapes
                "var re = /(a+)+b/;", "var re = /\\cJ/;"):
        with pytest.raises((JsError,)):
            run(src)


def test_regex_literals_and_methods():
    """JS regex over the translated safe subset: literals, flags,
    exec/test with /g lastIndex state, string match/replace/split/
    search, $-patterns, function replacers — values pinned to what
    Node produces."""
    cases = [
        ("/ab+c/.test('xabbc')", True),
        ("/ab+c/.test('xac')", False),
        ("/a(b)(c)?/.exec('zab')[1]", "b"),
        ("/ab/.exec('zab').index", 1.0),
        ("/AB/i.test('xab')", True),
        ("'a\\nb'.match(/^b/m)[0]", "b"),
        ("'a1b22c'.replace(/\\d+/g, '#')", "a#b#c"),
        ("'a1b22c'.replace(/\\d+/, '#')", "a#b22c"),
        ("'x-y-z'.split(/-/).join('|')", "x|y|z"),
        ("'a1b2'.match(/\\d/g).length", 2.0),
        ("'a1b2'.search(/\\d/)", 1.0),
        ("'ab'.match(/c/)", None),
        ("'john smith'.replace(/(\\w+) (\\w+)/, '$2 $1')", "smith john"),
        ("'abc'.replace(/b/, function(m){return m.toUpperCase();})",
         "aBc"),
        ("new RegExp('a.c', 'i').test('ABC')", True),
        ("/(?<w>ab)\\k<w>/.test('abab')", True),
        ("/(a)\\1/.test('aa')", True),
        ("/a[^]c/.test('a\\nc')", True),  # [^] = any char incl newline
        ("'a1b2'.replaceAll(/\\d/g, '.')", "a.b."),
        ("/ab/gi.source", "ab"),
        ("'' + /ab/g", "/ab/g"),
        ("typeof /x/", "object"),
        ("6 / 2 / 3", 1.0),  # division still lexes as division
        ("'aaa'.replace(/a/g, '$&$&')", "aaaaaa"),
        ("'abc'.replace(/b/, \"[$`|$']\")", "a[a|c]c"),
    ]
    for src, want in cases:
        got = ev(src)
        assert got == want or (got is want), (src, got, want)


def test_regex_exec_global_loop_and_sticky():
    # the minified while((m = re.exec(s))) idiom
    src = ("var re = /(\\w+)=(\\w+)/g, s = 'a=1&b=2', m, out = [];"
           "while ((m = re.exec(s)) !== null)"
           "{ out.push(m[1] + ':' + m[2]); }"
           "var got = out.join(',');")
    assert run(src).genv.get("got") == "a:1,b:2"
    # sticky /y anchors at lastIndex
    src2 = ("var r = /ab/y; r.lastIndex = 2; var hit = r.test('xxab');"
            "var r2 = /ab/y; r2.lastIndex = 1; var miss = r2.test('xxab');")
    interp = run(src2)
    assert interp.genv.get("hit") is True
    assert interp.genv.get("miss") is False
    # zero-width /g matches terminate (lastIndex bumps)
    assert ev("'abc'.replace(/x*/g, '-')") == "-a-b-c-"


def test_render_regex_built_links():
    # a page whose link URL is assembled via regex extraction — the
    # round-4 literal scan finds nothing here
    html = ("<html><body><script>"
            "var cfg = 'page=detail42;lang=en';"
            "var id = cfg.match(/detail(\\d+)/)[1];"
            "document.write('<a href=\"/item' + id + '.html\">x</a>');"
            "</script></body></html>")
    out = render_html(html)
    assert '/item42.html' in out[len(html):]


def test_no_host_escape():
    """The sandbox's global env is exactly std_globals + injections —
    no import, require, eval, Function, or Python-object route."""
    for name in ("require", "eval", "Function", "globalThis", "process",
                 "__import__", "open"):
        interp = run(f"var t = typeof {name};")
        assert interp.genv.get("t") == "undefined", name


def test_determinism():
    src = "var r = [Math.random(), Math.random(), Date.now()].join(',');"
    assert run(src).genv.get("r") == run(src).genv.get("r")


# ------------------------------------------------------- render contract

def _added(html: str, url: str = "") -> str:
    out = render_html(html, url)
    # data-src promotion rewrites in place; compare via marker split
    return out[len(html):] if out.startswith(html[:40]) and \
        len(out) >= len(html) else out


def test_render_computed_writes():
    html = ('<html><body><script>var b="/s";'
            "for (var i = 0; i < 2; i++)"
            "document.write('<a href=\"' + b + i + '.html\">x</a>');"
            "</script></body></html>")
    added = render_html(html)[len(html):]
    assert '<a href="/s0.html">' in added
    assert '<a href="/s1.html">' in added


def test_render_dom_built_links_attached_only():
    html = ("<html><body><script>"
            "var a = document.createElement('a'); a.href = '/built.html';"
            "document.body.appendChild(a);"
            "var d = document.createElement('a'); d.href = '/dropped.html';"
            "</script></body></html>")
    added = render_html(html)[len(html):]
    assert 'href="/built.html"' in added
    assert 'href="/dropped.html"' not in added


def test_render_innerhtml_and_location():
    html = ("<html><body><script>"
            "document.getElementById('x').innerHTML = "
            "'<a href=\"/inner.html\">i</a>';"
            "location.href = '/redir.html';"
            "</script></body></html>")
    added = render_html(html)[len(html):]
    assert "/inner.html" in added
    assert 'href="/redir.html"' in added


def test_render_shared_globals_and_settimeout():
    html = ("<html><body>"
            "<script>var base = '/shared';</script>"
            "<script>setTimeout(function () {"
            "document.write('<a href=\"' + base + '/t.html\">t</a>');"
            "}, 50);</script>"
            "</body></html>")
    added = render_html(html)[len(html):]
    assert "/shared/t.html" in added


def test_render_location_parts_from_url():
    html = ("<html><body><script>"
            "document.write('<a href=\"' + location.pathname + "
            "'sub.html\">p</a>');</script></body></html>")
    added = render_html(html, url="https://h.test/dir/")[len(html):]
    assert '/dir/sub.html' in added


def test_render_failed_script_rolls_back_and_falls_back():
    # script fails midway (undefined var) AFTER one write: the partial
    # write is rolled back; the literal fallback then contributes the
    # complete-literal writes only — bad script never double-counts
    html = ("<html><body><script>"
            "document.write('<a href=\"/first.html\">f</a>');"
            "nope();"
            "document.write('<a href=\"/second.html\">s</a>');"
            "</script></body></html>")
    added = render_html(html)[len(html):]
    assert added.count("/first.html") == 1
    assert added.count("/second.html") == 1  # via literal fallback


def test_render_skips_external_and_nonjs_scripts():
    html = ('<html><body>'
            '<script src="/app.js">document.write(\'<a href="/no1">\')'
            '</script>'
            '<script type="application/json">'
            '{"u": "/no2.html"}</script>'
            "</body></html>")
    assert render_html(html) == html  # no fetcher: external skipped


def test_render_external_scripts_execute_in_document_order():
    # external + inline share one page environment, run in document
    # order: the external script defines `base`, writes one computed
    # link; the inline script after it reads `base`
    html = ('<html><body>'
            '<script>var pre = "/p";</script>'
            '<script src="js/app.js"></script>'
            '<script>document.write(\'<a href="\' + base + \'2.html\">\');'
            '</script></body></html>')
    fetched = []

    def fetch(abs_url):
        fetched.append(abs_url)
        return 'var base = pre + "re";document.write(\'<a href="\' + base + \'1.html\">\');'

    out = render_html(html, "https://h.test/dir/page.html",
                      script_fetch=fetch)
    # relative src resolved against the PAGE url
    assert fetched == ["https://h.test/dir/js/app.js"]
    added = out[len(html):]
    assert added.index("/pre1.html") < added.index("/pre2.html")


def test_render_external_script_fetch_failures_are_skipped():
    html = ('<html><body>'
            '<script src="/missing.js"></script>'
            '<script src="/boom.js"></script>'
            '<script src="data:text/javascript,document.write(1)">'
            '</script>'
            '<script>document.write(\'<a href="/after.html">\');</script>'
            "</body></html>")

    def fetch(abs_url):
        if "boom" in abs_url:
            raise OSError("socket reset")
        return None  # 404

    added = render_html(html, "https://h.test/", script_fetch=fetch)[
        len(html):]
    # unfetchable externals skipped, later scripts still run
    assert "/after.html" in added


def test_render_failed_external_script_rolls_back_with_fallback():
    # the FETCHED source fails midway: its partial write rolls back and
    # the literal fallback applies to the fetched source, same contract
    # as inline scripts
    html = '<html><body><script src="/app.js"></script></body></html>'
    src = ('document.write(\'<a href="/lit.html">\');'
           "nope();")
    added = render_html(html, "https://h.test/",
                        script_fetch=lambda u: src)[len(html):]
    assert added.count("/lit.html") == 1


def test_render_static_page_unchanged_and_datasrc_promoted():
    static = "<html><body><a href='/x'>x</a></body></html>"
    assert render_html(static) == static
    lazy = '<html><body><img data-src="/l.png" alt="z"></body></html>'
    assert '<img src="/l.png"' in render_html(lazy)


def test_render_hostile_page_bounded_and_pure():
    import time
    html = ("<html><body><script>while(true){}</script>"
            "<script>document.write('<a href=\"/after.html\">a</a>');"
            "</script></body></html>")
    t0 = time.time()
    out1 = render_html(html)
    assert time.time() - t0 < 30
    # the good script after the hostile one still ran
    assert "/after.html" in out1[len(html):]
    assert render_html(html) == out1  # deterministic


# ------------------------------------------------- property-based fuzz

def test_fuzz_random_scripts_never_crash_render():
    """Hostile-page property: for ANY byte soup inside <script>, the
    render either runs it, degrades to the literal scan, or leaves the
    page unchanged — it never raises and never hangs (step budget).
    Also pure: same input → same output."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    js_atoms = st.sampled_from([
        "var x = 1;", "x += 2;", "document.write('<a href=\"/f.html\">')",
        "for(;;){", "}", "(", ")", "{", "}", "'unterminated",
        "function f(", "`tpl ${", "]]>", "\\u0000", "if(x>1)",
        "while(x<3){x++}", "document.body.appendChild(q)",
        "location.href=x", "throw x;", "++", "==", "=>", "null",
        "newish", "0x1F", "1e999", ".5", "//comment\n", "/*", "*/",
    ])
    soup = st.lists(js_atoms, min_size=0, max_size=12).map(" ".join)

    @settings(max_examples=120, deadline=None)
    @given(soup)
    def run_case(src):
        html = f"<html><body><script>{src}</script></body></html>"
        out1 = render_html(html, url="https://h.test/")
        out2 = render_html(html, url="https://h.test/")
        assert out1 == out2
        assert out1.startswith("<html>")

    run_case()


def test_fuzz_interpreter_valueish_programs():
    """Generated small well-formed-ish programs: whatever happens it is
    a JsError/JsThrow or a clean run — no Python-level exceptions."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from playwrightcrawler_ray.functions.jsinterp import JsThrow

    exprs = st.recursive(
        st.sampled_from(["1", "'s'", "x", "true", "null", "[1,2]",
                         "{a: 1}", "undefined"]),
        lambda c: st.tuples(c, st.sampled_from(
            ["+", "-", "*", "/", "%", "==", "===", "<", "&&", "||"]), c
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        max_leaves=6,
    )
    stmts = exprs.map(lambda e: f"var x = {e}; var y = {e};")

    @settings(max_examples=120, deadline=None)
    @given(stmts)
    def run_case(src):
        try:
            Interp(std_globals()).run(src)
        except (JsError, JsThrow, RecursionError):
            pass

    run_case()


def test_render_onload_handlers_fire():
    """Link-building deferred to load time (the pattern Playwright's
    settle-wait captures) renders: both addEventListener('load') and
    window.onload assignment run after all scripts."""
    html = ("<html><body>"
            "<script>window.addEventListener('load', function () {"
            "document.write('<a href=\"/ael.html\">a</a>');});</script>"
            "<script>window.onload = function () {"
            "var a = document.createElement('a');"
            "a.href = '/onload.html'; document.body.appendChild(a);"
            "};</script>"
            "<script>document.addEventListener('DOMContentLoaded',"
            "() => document.write('<a href=\"/dcl.html\">d</a>'));"
            "</script>"
            "</body></html>")
    added = render_html(html)[len(html):]
    assert '/ael.html' in added
    assert 'href="/onload.html"' in added
    assert '/dcl.html' in added
    # a crashing handler keeps earlier effects and never fails the render
    bad = ("<html><body><script>window.onload = function () {"
           "document.write('<a href=\"/kept.html\">k</a>'); nope();"
           "};</script></body></html>")
    out = render_html(bad)
    assert '/kept.html' in out[len(bad):]


def test_switch_statement():
    src = """
    function name(code) {
      switch (code) {
        case 1: return 'one';
        case 2:
        case 3: return 'two-or-three';
        default: return 'other';
      }
    }
    var a = name(1), b = name(2), c = name(3), d = name(9);
    var fall = [];
    switch (2) {
      case 1: fall.push('a');
      case 2: fall.push('b');
      case 3: fall.push('c'); break;
      case 4: fall.push('d');
    }
    var f = fall.join('');
    """
    interp = run(src)
    assert interp.genv.get("a") == "one"
    assert interp.genv.get("b") == "two-or-three"
    assert interp.genv.get("c") == "two-or-three"
    assert interp.genv.get("d") == "other"
    assert interp.genv.get("f") == "bc"  # fallthrough until break


def test_stdlib_object_array_json_fromcharcode():
    assert ev("String.fromCharCode(47, 104, 105)") == "/hi"
    assert ev("Array.isArray([1])") is True
    assert ev("Array.isArray('x')") is False
    assert ev("Object.keys({a: 1, b: 2}).join(',')") == "a,b"
    assert ev("Object.values({a: 1, b: 2}).join(',')") == "1,2"
    assert ev("Object.assign({a: 1}, {b: 2}).b") == 2.0
    assert ev("JSON.stringify({u: '/x', n: [1, 2]})") == \
        '{"u":"/x","n":[1,2]}'
    assert ev("JSON.parse('{\"a\": [1, \"s\"]}').a[1]") == "s"
    assert ev("Number.parseInt('42')") == 42.0
    assert ev("Number.isInteger(3)") is True


def test_render_obfuscated_link_via_fromcharcode():
    """The classic obfuscation shape: URL assembled from char codes —
    only real execution discovers it."""
    html = ("<html><body><script>"
            "var u = String.fromCharCode(47, 111, 98, 102)"
            " + '.html';"
            "document.write('<a href=\"' + u + '\">o</a>');"
            "</script></body></html>")
    added = render_html(html)[len(html):]
    assert 'href="/obf.html"' in added


def test_redos_patterns_rejected_render_never_hangs():
    """Catastrophic-backtracking shapes must be rejected structurally
    (Python's re cannot be budget-interrupted mid-match), and a page
    carrying one must still render fast via per-script rollback —
    discovering its plain-HTML links through the literal fallback."""
    import time

    from playwrightcrawler_ray.functions.jsinterp import (
        JsError, _compile_js_regex,
    )

    hostile = [
        "(a|ab)*",        # overlapping alternation under repetition
        "(a+)+",          # nested unbounded
        "a*a*",           # adjacent overlapping unbounded
        "(\\d|\\w)+",
        "(a*)(a*)",
        "a*(a+)",
    ]
    for pat in hostile:
        with pytest.raises(JsError):
            _compile_js_regex(pat, "")
    # common benign idioms stay inside the subset
    for pat in ["https?:\\/\\/[^\\s\"]+", "\\w+\\s+\\d+", "a{2,5}b*",
                "(?:foo|bar)", "[A-Z][a-z]*\\d*"]:
        _compile_js_regex(pat, "g")

    # end-to-end: the classic (a|ab)* attack inside a page script
    html = ("<html><body><script>"
            "var s = Array(61).join('ab') + 'c';"
            "if (/^(a|ab)*$/.test(s)) document.write('<a href=\"/x\">x</a>');"
            "</script><a href=\"/real.html\">r</a></body></html>")
    t0 = time.perf_counter()
    out = render_html(html)
    assert time.perf_counter() - t0 < 5.0  # bounded, not ~phi^60 steps
    assert "/real.html" in out  # rollback kept the static link


def test_regex_subject_cap_for_unbounded_patterns():
    """Unbounded-quantifier patterns refuse over-long subjects (the
    residual polynomial-backtracking bound); literal patterns don't."""
    from playwrightcrawler_ray.functions.jsinterp import JsError

    with pytest.raises(JsError):
        ev("/a+b/.test(Array(9000).join('a'))")
    # a pattern with no unbounded quantifier is fine on the same subject
    assert ev("/ab/.test(Array(9000).join('a'))") is False
    # and unbounded patterns still run on in-cap subjects
    assert ev("/a+b/.test(Array(4000).join('a') + 'b')") is True
