"""Dead-code guard: every top-level definition and method in ``src/`` is used.

A definition counts as used when its name is read as a name or an
attribute (an assignment target is not a use), appears in a ``from ...
import`` or is the string of a ``getattr``/``hasattr`` call anywhere in
``src/``, ``bench/`` or ``examples/`` outside its own body. Re-exports in
a package ``__init__`` (its imports and ``__all__``) do not count: they
publish a name, they do not use it. Names only tests call belong in :data:`ALLOWED`, each with a
one-line reason; a refactor that strands a definition fails here in the
same change.

Methods (functions defined directly in a top-level class, dunders aside)
are checked the same way, by name, against :data:`ALLOWED_METHODS`. Both
allow-lists are capped, so a later change cannot grow them back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples")

#: Most entries each of these lists may hold: they only shrink.
MAX_ALLOWED = 10
MAX_ALLOWED_METHODS = 40

#: "path:name" -> why it stays although nothing in SCANNED uses it. Each
#: reason starts with its kind: an oracle a differential test checks the
#: live code against, a hook for test isolation, a paper mechanism, or a
#: name bench/ uses by string.
ALLOWED = {
    "src/repro/experiments/ablations.py:run_lb_ablation":
        "paper mechanism: the DFR load-balancing ablation, run by benchmarks/test_ablations.py",
    "src/repro/obs/__init__.py:reset_sessions":
        "test isolation: clears the process-wide tracing sessions between tests",
    "src/repro/protocols/http1.py:encode_response":
        "named by bench/: a string in bench/layers.py's profile map",
    "src/repro/protocols/http1.py:decode_response":
        "oracle: decodes the HTTP/1 responses the codec tests round-trip",
    "src/repro/protocols/http2.py:decode_grpc_request":
        "oracle: decodes the gRPC requests tests/test_http2.py round-trips",
    "src/repro/runtime/health.py:VerticalPodScaler":
        "paper mechanism: §3.7 vertical scaling, which DESIGN.md claims",
    "src/repro/simcore/resources.py:Store":
        "oracle: the old SPRIGHT delivery queue in tests/spright_reference.py",
}

#: "path:Class.method" -> why it stays although nothing in SCANNED uses it,
#: with the same kinds as :data:`ALLOWED`, plus a framework hook a library
#: calls by name, a test-program builder, a test probe (a read-only view
#: of state the tests assert on), the engine's SimPy-style event API and
#: the live dashboard's SLO feed.
ALLOWED_METHODS = {
    "src/repro/experiments/fig5.py:Fig5Result.series":
        "paper mechanism: Fig 5's per-plane curve, read by benchmarks/test_fig5_concurrency.py",
    "src/repro/kernel/ebpf/assembler.py:Assembler.add_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.sub_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.mul_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.div_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.mod_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.or_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.and_reg":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.rsh_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ld8":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ld16":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ld64":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.st64":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ja":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jset_imm":
        "test-program builder: an opcode the VM's opcode tests assemble (test_ebpf_vm)",
    "src/repro/kernel/ebpf/hooks.py:HookPoint.detach":
        "paper mechanism: programs attach and detach at runtime (test_ebpf_compiler)",
    "src/repro/kernel/ebpf/hooks.py:HookPoint.is_armed":
        "test probe: whether a hook has programs (test_ebpf_programs_hooks)",
    "src/repro/mem/descriptor.py:PacketDescriptor.unpack":
        "oracle: decodes the packed descriptor the pool and property tests round-trip",
    "src/repro/mem/descriptor.py:PacketDescriptor.addressed_to":
        "paper mechanism: a descriptor re-addressed to the next instance (test_mem_pool)",
    "src/repro/mem/pool.py:SharedMemoryPool.hugepages_backing":
        "paper mechanism: the hugepages a DPDK pool spans (test_mem_pool)",
    "src/repro/mem/rings.py:RteRing.single_producer":
        "paper mechanism: the DPDK ring's sync mode (test_cli_and_appendix)",
    "src/repro/mem/rings.py:RteRing.single_consumer":
        "paper mechanism: the DPDK ring's sync mode (test_cli_and_appendix)",
    "src/repro/mem/sanitizer.py:PoolSanitizer.leaks":
        "test probe: the slots a sanitizer saw leak (test_recovery, test_sanitizer)",
    "src/repro/mem/sanitizer.py:PoolSanitizer.total_violations":
        "test probe: the violations a sanitizer recorded (test_sanitizer)",
    "src/repro/mem/scavenger.py:ShmScavenger.owned_count":
        "test probe: slots the scavenger tracks per owner (test_recovery)",
    "src/repro/mem/scavenger.py:ShmScavenger.tracked_count":
        "test probe: slots the scavenger tracks in all (test_recovery)",
    "src/repro/obs/live.py:SseBroker.client_count":
        "test probe: connected dashboard clients (test_obs_live)",
    "src/repro/obs/live.py:_DashboardHandler.log_message":
        "framework hook: http.server's BaseHTTPRequestHandler calls it by name",
    "src/repro/obs/live.py:_DashboardHandler.do_GET":
        "framework hook: http.server's BaseHTTPRequestHandler calls it by name",
    "src/repro/obs/slo.py:SloBoard.watch_recorder":
        "dashboard feed: the live SLO board's only input; no run wires a target yet",
    "src/repro/protocols/grpc_codec.py:ProtoMessage.get_int":
        "oracle: reads decoded fields in protocols_reference and the codec tests",
    "src/repro/protocols/grpc_codec.py:ProtoMessage.get_str":
        "oracle: reads decoded fields in protocols_reference and the codec tests",
    "src/repro/protocols/http2.py:HpackCodec.dynamic_entries":
        "oracle: the HPACK table size protocols_reference and test_http2 compare",
    "src/repro/simcore/environment.py:Environment.all_of":
        "engine API: SimPy's all-of condition (test_simcore_engine, test_simcore_edge_cases)",
    "src/repro/simcore/events.py:Event.trigger":
        "engine API: SimPy's event chaining (test_simcore_edge_cases)",
    "src/repro/simcore/events.py:ConditionValue.todict":
        "engine API: SimPy's condition result view (test_simcore_engine)",
    "src/repro/simcore/resources.py:Store.try_put":
        "oracle: the Store of tests/spright_reference.py (test_simcore_resources)",
    "src/repro/simcore/resources.py:Store.try_get":
        "oracle: the Store of tests/spright_reference.py (test_simcore_resources)",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _methods(top: ast.stmt) -> list:
    """The non-dunder methods defined directly in a top-level class."""
    if not isinstance(top, ast.ClassDef):
        return []
    return [
        node for node in top.body
        if isinstance(node, _FUNCS) and not node.name.startswith("__")
    ]


def _names(root: ast.AST, is_init: bool, skip=()):
    """Every name ``root`` uses, not descending into the ``skip`` nodes."""
    stack = [root]
    while stack:
        node = stack.pop()
        if any(node is skipped for skipped in skip):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not is_init:
            for alias in node.names:
                yield alias.name
        elif _is_getattr(node):
            yield node.args[1].value
        stack.extend(ast.iter_child_nodes(node))


def _is_getattr(node: ast.AST) -> bool:
    """``getattr(obj, "name", ...)``/``hasattr(obj, "name")``: a use by string."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    )


def _references(tree: ast.Module, is_init: bool):
    """(name, enclosing (top-level definition, method)) for every use; the
    parts are None outside a definition or a method."""
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        methods = _methods(top)
        for name in _names(top, is_init, skip=methods):
            yield name, (owner, None)
        for method in methods:
            for name in _names(method, is_init):
                yield name, (owner, method.name)


def _scan():
    """(top-level definitions, methods, users of each name) over SCANNED."""
    definitions: list[tuple[str, str]] = []
    methods: list[tuple[str, str, str]] = []
    users: dict[str, set] = {}
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(), filename=rel)
            if directory == "src":
                for top in tree.body:
                    if isinstance(top, _DEFS):
                        definitions.append((rel, top.name))
                    methods += [(rel, top.name, node.name) for node in _methods(top)]
            for name, owner in _references(tree, path.name == "__init__.py"):
                users.setdefault(name, set()).add((rel, owner))
    return definitions, methods, users


def unused_definitions() -> list[str]:
    definitions, _, users = _scan()
    return [
        f"{rel}:{name}"
        for rel, name in definitions
        if not {
            (path, owner) for path, owner in users.get(name, set())
            if (path, owner[0]) != (rel, name)
        }
    ]


def unused_methods() -> list[str]:
    _, methods, users = _scan()
    return [
        f"{rel}:{cls}.{name}"
        for rel, cls, name in methods
        if not users.get(name, set()) - {(rel, (cls, name))}
    ]


def test_every_top_level_definition_is_used_or_allowed():
    unused = set(unused_definitions())
    assert sorted(unused - set(ALLOWED)) == [], "unused: delete it, or allow it with a reason"
    assert sorted(set(ALLOWED) - unused) == [], "allowed but used: drop the entry"


def test_every_method_is_used_or_allowed():
    unused = set(unused_methods())
    assert sorted(unused - set(ALLOWED_METHODS)) == [], (
        "unused method: delete it, or allow it with a reason"
    )
    assert sorted(set(ALLOWED_METHODS) - unused) == [], "allowed but used: drop the entry"


def test_every_allowed_entry_gives_a_one_line_reason():
    for key, reason in {**ALLOWED, **ALLOWED_METHODS}.items():
        assert reason.strip() and "\n" not in reason, key


def test_allow_lists_only_shrink():
    assert len(ALLOWED) <= MAX_ALLOWED
    assert len(ALLOWED_METHODS) <= MAX_ALLOWED_METHODS
