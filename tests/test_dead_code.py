"""Dead-code guard: every top-level function and class in ``src/`` is used.

A definition counts as used when its name appears as a name, an attribute
or a ``from ... import`` anywhere in ``src/``, ``bench/`` or
``examples/`` outside its own body. Re-exports in a package ``__init__``
(its imports and ``__all__``) do not count: they publish a name, they do
not use it. Names only tests call belong in :data:`ALLOWED`, each with a
one-line reason; a refactor that strands a definition fails here in the
same change.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples")

#: "path:name" -> why it stays although nothing in SCANNED uses it
ALLOWED = {
    "src/repro/experiments/ablations.py:run_lb_ablation":
        "DFR load-balancing ablation, run by benchmarks/test_ablations.py",
    "src/repro/kernel/ebpf/bpftool.py:disassemble":
        "bpftool-style introspection API, pinned by tests/test_bpftool_export.py",
    "src/repro/kernel/ebpf/bpftool.py:render_prog_list":
        "bpftool-style introspection API, pinned by tests/test_bpftool_export.py",
    "src/repro/kernel/ebpf/bpftool.py:map_dump":
        "bpftool-style introspection API, pinned by tests/test_bpftool_export.py",
    "src/repro/kernel/ebpf/bpftool.py:registry_summary":
        "bpftool-style introspection API, pinned by tests/test_bpftool_export.py",
    "src/repro/kernel/iptables.py:kubernetes_like_chain":
        "iptables fixture for the kernel-substrate tests",
    "src/repro/kernel/netdev.py:VethPair":
        "veth model exercised only by tests/test_kernel_substrate.py",
    "src/repro/kernel/packet.py:Message":
        "segmentation model exercised only by tests/test_kernel_substrate.py",
    "src/repro/obs/__init__.py:reset_sessions":
        "test isolation: clears the process-wide tracing sessions",
    "src/repro/protocols/http1.py:encode_response":
        "named by string in bench/layers.py's profile map; codec tests",
    "src/repro/protocols/http1.py:decode_response":
        "HTTP/1 codec half, round-tripped by the protocol tests",
    "src/repro/protocols/http2.py:decode_grpc_request":
        "gRPC-over-HTTP/2 decoder, round-tripped by tests/test_http2.py",
    "src/repro/runtime/health.py:VerticalPodScaler":
        "§3.7 vertical scaling, not wired into any experiment yet",
    "src/repro/runtime/spec.py:sequential_chain":
        "ChainSpec convenience constructor used by tests/test_runtime.py",
    "src/repro/scenario/run.py:iter_library":
        "scenario-library iterator used by tests/test_scenario.py",
    "src/repro/stats/export.py:read_json":
        "export round-trip helper used by tests/test_bpftool_export.py",
    "src/repro/stats/export.py:write_csv":
        "export helper used by tests/test_bpftool_export.py",
    "src/repro/stats/recorder.py:confidence_interval_99":
        "statistics helper used by tests/test_stats.py",
    "src/repro/stats/tables.py:ms":
        "presentation helper used by tests/test_stats.py",
    "src/repro/traffic/arrivals.py:PoissonSource":
        "arrival process covered by tests/test_traffic.py, unused by experiments",
    "src/repro/traffic/arrivals.py:DiurnalSource":
        "arrival process covered by tests/test_traffic.py, unused by experiments",
    "src/repro/traffic/arrivals.py:trace_digest":
        "trace helper covered by tests/test_traffic.py",
    "src/repro/traffic/arrivals.py:as_trace_events":
        "trace helper covered by tests/test_traffic.py",
    "src/repro/traffic/economics.py:DesTrafficAccountant":
        "DES-side economics accountant covered by tests/test_traffic.py",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.Module, is_init: bool):
    """(name, enclosing top-level definition or None) for every use."""
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom) and not is_init:
                for alias in node.names:
                    yield alias.name, owner


def unused_definitions() -> list[str]:
    definitions: list[tuple[str, str]] = []
    users: dict[str, set] = {}
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(), filename=rel)
            if directory == "src":
                definitions += [(rel, top.name) for top in tree.body if isinstance(top, _DEFS)]
            for name, owner in _references(tree, path.name == "__init__.py"):
                users.setdefault(name, set()).add((rel, owner))
    return [
        f"{rel}:{name}"
        for rel, name in definitions
        if not users.get(name, set()) - {(rel, name)}
    ]


def test_every_top_level_definition_is_used_or_allowed():
    unused = set(unused_definitions())
    assert sorted(unused - set(ALLOWED)) == [], "unused: delete it, or allow it with a reason"
    assert sorted(set(ALLOWED) - unused) == [], "allowed but used: drop the entry"


def test_every_allowed_entry_gives_a_one_line_reason():
    for key, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, key
