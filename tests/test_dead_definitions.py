"""Every top-level function and class in the package, and every
non-dunder method of a top-level class, is referenced by an AST name (a
load, an attribute or an import) from code that runs: the package
itself, ``__ray_entry__.py``, ``bench.py``, the non-test ``perfbench``
modules and ``scripts/``. For methods a string constant counts too,
because actor RPCs are dispatched by method name
(``stages/ray_stages.route``). A definition that only tests reach sits
on ``ALLOWED`` with a one-line reason; an entry that becomes
referenced, or is deleted, must leave the list."""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "playwrightcrawler_ray"

_ENCODER = "fixture encoder: builds test inputs for its decoder's tests"
_ACTOR = ("stage actor run only by tests; wiring it into a pipeline or "
          "dropping it is its own decision")
_HTMLPARSER = "HTMLParser callback: the base class calls it by name"

ALLOWED = {
    "functions/html.py::_Extractor.handle_starttag": _HTMLPARSER,
    "functions/html.py::_Extractor.handle_endtag": _HTMLPARSER,
    "functions/html.py::_Extractor.handle_data": _HTMLPARSER,
    "functions/html.py::_Extractor.handle_startendtag": _HTMLPARSER,
    "functions/jsinterp.py::run_script":
        "one-call API of the JS sandbox; the renderer drives Interp",
    "functions/text.py::count_tokens":
        "text-function library helper, kept with its tests",
    "imaging/codec.py::hamming64":
        "pHash distance helper of the codec API, kept with its tests",
    "imaging/exif.py::build_exif":
        "EXIF writer: the parser's round-trip oracle",
    "imaging/exif.py::attach_exif":
        "EXIF writer: inserts fixture payloads for the parser tests",
    "imaging/gif.py::gif_encode_anim": _ENCODER,
    "imaging/webp.py::vp8l_encode_palette": _ENCODER,
    "imaging/webp.py::webp_encode_anim": _ENCODER,
    "pipelines/export.py::host_level_counts":
        "post-crawl host-level analytics API, no CLI verb",
    "pipelines/export.py::dir_depth_histogram":
        "post-crawl dir-depth analytics API, no CLI verb",
    "pipelines/export.py::export_media_files":
        "media file-tree export API, no CLI verb",
    "pipelines/fastpass.py::plan_fast_pass":
        "reference fast-pass candidate split, not wired into the crawl",
    "pipelines/fastpass.py::head_validate":
        "reference fast-pass HEAD check, not wired into the crawl",
    "stages/multimodal.py::encode_audio": _ENCODER,
    "stages/multimodal.py::encode_wav_g711": _ENCODER,
    "stages/multimodal.py::encode_wav_adpcm": _ENCODER,
    "stages/multimodal.py::encode_video": _ENCODER,
    "stages/multimodal.py::encode_avi_mjpeg": _ENCODER,
    "stages/multimodal.py::ImageResizer": _ACTOR,
    "stages/multimodal.py::AudioFeaturizer": _ACTOR,
    "stages/multimodal.py::VideoFrameSampler": _ACTOR,
    "stages/multimodal.py::MediaProber": _ACTOR,
    "stages/process.py::register_content_handler":
        "plugin API: called by user code (README recipe)",
}


def _runtime_sources() -> list[pathlib.Path]:
    bench = [p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_") and p.name != "conftest.py"]
    return [*PKG.rglob("*.py"), ROOT / "__ray_entry__.py",
            ROOT / "bench.py", *bench, *(ROOT / "scripts").rglob("*.py")]


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def unreferenced() -> list[str]:
    """``path::name`` of each top-level package definition, and
    ``path::Class.method`` of each non-dunder method, that no runtime
    source names."""
    names: set[str] = set()
    strings: set[str] = set()
    for path in _runtime_sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    dead = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS):
                continue
            if node.name not in names:
                dead.append(f"{rel}::{node.name}")
            if isinstance(node, ast.ClassDef):
                dead.extend(
                    f"{rel}::{node.name}.{m.name}" for m in node.body
                    if isinstance(m, _FUNCS)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                    and m.name not in names and m.name not in strings)
    return dead


def test_every_definition_is_referenced_or_allowed():
    dead = set(unreferenced())
    missing = sorted(dead - ALLOWED.keys())
    assert not missing, f"unreferenced and not allowlisted: {missing}"
    stale = sorted(ALLOWED.keys() - dead)
    assert not stale, f"allowlisted but referenced or gone: {stale}"
