"""Every top-level function and class in the package is referenced by
an AST name (a load, an attribute or an import) from code that runs:
the package itself, ``__ray_entry__.py``, ``bench.py``, the non-test
``perfbench`` modules and ``scripts/``. A definition that only tests
reach sits on ``ALLOWED`` with a one-line reason; an entry that becomes
referenced, or is deleted, must leave the list."""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "playwrightcrawler_ray"

_ENCODER = "fixture encoder: builds test inputs for its decoder's tests"
_ACTOR = ("stage actor run only by tests; wiring it into a pipeline or "
          "dropping it is its own decision")

ALLOWED = {
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


def unreferenced() -> list[str]:
    """``path::name`` of each top-level package definition that no
    runtime source names."""
    names: set[str] = set()
    for path in _runtime_sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return [
        f"{path.relative_to(PKG).as_posix()}::{node.name}"
        for path in sorted(PKG.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name not in names
    ]


def test_every_definition_is_referenced_or_allowed():
    dead = set(unreferenced())
    missing = sorted(dead - ALLOWED.keys())
    assert not missing, f"unreferenced and not allowlisted: {missing}"
    stale = sorted(ALLOWED.keys() - dead)
    assert not stale, f"allowlisted but referenced or gone: {stale}"
