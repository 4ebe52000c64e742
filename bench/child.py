"""One benchmark process: ``run.py`` starts a fresh one per task.

    python bench/child.py setup     WORKLOAD SEED
    python bench/child.py reference WORKLOAD
    python bench/child.py measure   WORKLOAD SEED SECONDS TRACE

``setup`` builds one episode, processes its first event and prints the
``time.monotonic()`` reading at that moment, so the parent can time set-up
from before it started this process. ``reference`` runs the seed-2022
reference episode and prints its golden. ``measure`` checks that golden
against ``expected.json``, then runs episodes for SECONDS host seconds and
prints what they measured; with TRACE 1 it also profiles the same episodes
and runs the microbenchmarks.

Each prints one JSON object on stdout. A correctness failure exits with
:data:`EXIT_INCORRECT` after saying why on stderr.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

EXIT_INCORRECT = 3
REFERENCE_SEED = 2022
#: In a traced run, the share of ``SECONDS`` spent on plain episodes; the
#: profiled replay of the same episodes takes most of the rest.
TRACE_PLAIN_SHARE = 1 / 6

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = (BENCH_DIR.parent / "src").resolve()

import repro  # noqa: E402  (path checked below, before any use)

if Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
    sys.exit(f"imported repro from {repro.__file__}, not from {SRC_DIR}")

import episode  # noqa: E402


def episode_seed(seed: int, index: int) -> int:
    """The simulation seed of the ``index``-th episode of a run."""
    return seed * 1000 + index


def setup(name: str, seed: int) -> dict:
    built = episode.build(name, episode_seed(seed, 0))
    built.node.env.step()
    return {"first_event_monotonic": time.monotonic()}


def reference(name: str) -> dict:
    return episode.golden(episode.run(name, REFERENCE_SEED))


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = json.loads((BENCH_DIR / "expected.json").read_text())[name]
    # The reference episode doubles as the untimed warm-up.
    got = reference(name)
    if got != expected:
        raise episode.CorrectnessError(
            f"{name} seed {REFERENCE_SEED}: outputs {got} differ from "
            f"expected.json {expected}"
        )
    budget = seconds * (TRACE_PLAIN_SHARE if trace else 1.0)
    episodes = []
    started = time.perf_counter()
    while not episodes or time.perf_counter() - started < budget:
        episodes.append(episode.run(name, episode_seed(seed, len(episodes))))
    out = {
        "episodes": episodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out.update(profile(name, episodes))
    return out


def profile(name: str, plain: list) -> dict:
    """Replay ``plain``'s episodes under cProfile and fold by layer."""
    import cProfile
    import pstats

    import layers
    import micro

    profiler = cProfile.Profile()
    profiled = [episode.run(name, result["seed"], profiler=profiler) for result in plain]
    for before, after in zip(plain, profiled):
        if before["digest"] != after["digest"]:
            raise episode.CorrectnessError(
                f"{name} seed {before['seed']}: profiled outputs differ from plain"
            )
    fold = layers.Fold(pstats.Stats(profiler), str(SRC_DIR / "repro"))
    return {
        "profiled_ref_s": sum(result["ref_s"] for result in profiled),
        "layer_shares": fold.shares(),
        "calls": {metric: fold.calls(metric) for metric in layers.COUNTED_CALLS},
        "micro": micro.run_all(),
    }


def main(argv: list) -> int:
    task, name = argv[0], argv[1]
    try:
        if task == "setup":
            out = setup(name, int(argv[2]))
        elif task == "reference":
            out = reference(name)
        elif task == "measure":
            out = measure(name, int(argv[2]), float(argv[3]), argv[4] == "1")
        else:
            raise SystemExit(f"unknown task {task!r}")
    except episode.CorrectnessError as error:
        print(f"incorrect: {error}", file=sys.stderr)
        return EXIT_INCORRECT
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
