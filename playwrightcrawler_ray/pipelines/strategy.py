"""Wave scheduling strategies — seeded, shared verbatim by the Ray
engine and the oracle simulator so both make identical draws.

Reproduces the reference's weighted frontier-poll strategy chooser
(``get_random_unvisited_domains``, playwrightcrawler.py:4427-4503) with
its METHOD_WEIGHTS (config.py:154-159):

- ``oldest``       — created_at-asc order (here: (wave, url) asc, :1360-1428)
- ``random``       — uniform sample of candidates (:1265-1357)
- ``host_prefix``  — ONE random [a-z0-9] host prefix char, ≤20 random
  time-pivot attempts accumulating one URL per host (:1119-1220; the
  reference pivots on ``created_at``, here the discovery wave — the
  engine's time axis; result kept in ascending order instead of the
  reference's shuffle, a documented adaptation)
- ``fewest_urls``  — a *ghost* strategy: the reference registers its
  weight but no function, so choosing it raises KeyError into a broad
  except and yields an empty round (:4482-4503). With
  ``reproduce_reference_bugs`` we reproduce that effective behavior;
  otherwise it degrades to ``oldest``.

All candidates are ``(wave_discovered, url, host)`` triples, sorted
ascending. The engine merges them across frontier shards after each
shard has dropped what the wave's ``strategy_plan`` cannot select.
"""

from __future__ import annotations

import copy
import random

_PREFIX_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_MAX_PREFIX_ATTEMPTS = 20  # reference max_attempts (:1136)

Candidate = tuple[int, str, str]


def wave_rng(seed: int, wave: int) -> random.Random:
    """Deterministic per-wave RNG, identical in engine and oracle."""
    return random.Random((seed * 1_000_003 + wave) & 0x7FFFFFFFFFFF)


def choose_strategy(rng: random.Random, weights: dict[str, int]) -> str:
    names = list(weights.keys())
    return rng.choices(names, weights=[weights[n] for n in names], k=1)[0]


def strategy_plan(
    rng: random.Random,
    weights: dict[str, int],
    size: int,
    reproduce_reference_bugs: bool = True,
) -> tuple[str, object]:
    """What a frontier shard may keep of its pop for this wave
    (``FrontierShard.step``), drawn from a COPY of ``rng`` — the caller
    then runs ``apply_strategy`` on the kept rows with ``rng`` in the
    same state. The strategy and the prefix character come from the rng
    before any candidate is seen, so the plan only drops rows the
    strategy cannot select:

    - ``("top", k)``: the shard's ``k`` smallest rows (``oldest``; the
      ghost keeps 0);
    - ``("prefix", c)``: rows whose host starts with ``c``;
    - ``("all", None)``: every row (``random`` shuffles the whole pool).
    """
    rng = copy.copy(rng)
    strategy = choose_strategy(rng, weights)
    if strategy == "fewest_urls":
        if reproduce_reference_bugs:
            return ("top", 0)
        strategy = "oldest"
    if strategy == "oldest":
        return ("top", size)
    if strategy == "host_prefix":
        return ("prefix", rng.choice(_PREFIX_ALPHABET))
    return ("all", None)


def split_by_plan(
    plan: tuple[str, object], cands: list[Candidate]
) -> tuple[list[Candidate], list[Candidate]]:
    """(selectable, rest) of one frontier shard's pop under a wave
    plan from ``strategy_plan``. ``("top", k)`` keeps the ``k``
    smallest rows, so the merge of every shard's top ``k`` holds the
    global top ``k``."""
    kind, arg = plan
    if kind == "top":
        cands = sorted(cands)
        return cands[:arg], cands[arg:]
    if kind == "prefix":
        return ([c for c in cands if c[2].startswith(arg)],
                [c for c in cands if not c[2].startswith(arg)])
    return cands, []


def apply_strategy(
    strategy: str,
    candidates: list[Candidate],
    size: int,
    rng: random.Random,
    reproduce_reference_bugs: bool = True,
) -> tuple[list[Candidate], list[Candidate]]:
    """Return (selected, leftover). ``candidates`` must be sorted asc."""
    if strategy == "fewest_urls":
        if reproduce_reference_bugs:
            return [], list(candidates)  # ghost strategy → empty round
        strategy = "oldest"
    if strategy == "oldest":
        return list(candidates[:size]), list(candidates[size:])
    if strategy == "random":
        pool = list(candidates)
        rng.shuffle(pool)
        selected = sorted(pool[:size])  # wave itself is processed in frontier order
        leftover = pool[size:]
        return selected, leftover
    if strategy == "host_prefix":
        # reference get_urls_by_random_timestamp_and_prefix (:1119-1220):
        # ONE random [a-z0-9] prefix char, then ≤20 random TIME pivots —
        # each attempt pages candidates with created_at ≥ pivot in
        # (created_at, url) asc order, collecting one URL per host,
        # accumulating ACROSS attempts until `size` hosts. Our time axis
        # is the discovery wave. Adaptation (documented): the reference
        # shuffles its result; we keep ascending order so wave
        # processing stays deterministic.
        c = rng.choice(_PREFIX_ALPHABET)
        prefixed = [cand for cand in candidates if cand[2].startswith(c)]
        host_to_cand: dict[str, Candidate] = {}
        if prefixed:
            min_w = min(cand[0] for cand in prefixed)
            max_w = max(cand[0] for cand in prefixed)
            for _ in range(_MAX_PREFIX_ATTEMPTS):
                pivot = int(rng.uniform(min_w, max_w))
                for cand in prefixed:  # already (wave, url) ascending
                    if cand[0] >= pivot and cand[2] not in host_to_cand:
                        host_to_cand[cand[2]] = cand
                        if len(host_to_cand) >= size:
                            break
                if len(host_to_cand) >= size:
                    break
        if not host_to_cand:
            return [], list(candidates)
        selected = sorted(host_to_cand.values())
        chosen = {cand[1] for cand in selected}  # urls are unique
        leftover = [cand for cand in candidates if cand[1] not in chosen]
        return selected, leftover
    raise ValueError(f"unknown strategy {strategy!r}")
