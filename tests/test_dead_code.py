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
are checked the same way, by name. :data:`ALLOWED_METHODS` freezes the
methods that were already unused when the check was added, so only new
strandings fail.
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
    "src/repro/simcore/resources.py:Store":
        "the old SPRIGHT delivery queue, kept as tests/spright_reference.py's oracle; "
        "simcore tests",
}

#: "path:Class.method" -> why it stays although nothing in SCANNED uses it.
#: Frozen when methods joined the guard; each is ROADMAP item 8 work (wire
#: it in or delete it with its tests), so only new strandings fail here.
ALLOWED_METHODS = {
    "src/repro/cluster/fabric.py:ClusterFabric.set_link":
        "item 8: only tests use it (test_cluster_fabric)",
    "src/repro/cluster/scheduler.py:FunctionPlacement.nodes_used":
        "item 8: only tests use it (test_cluster_scheduler)",
    "src/repro/cluster/scheduler.py:FunctionPlacement.transitions":
        "item 8: only tests use it (test_cluster_scheduler)",
    "src/repro/dataplane/spright/adapter.py:MqttSessionTable.is_connected":
        "item 8: only tests use it (test_adapters)",
    "src/repro/dataplane/spright/adapter.py:MqttSessionTable.disconnect":
        "item 8: only tests use it (test_adapters)",
    "src/repro/dataplane/spright/adapter.py:AdapterHookPoint.unload":
        "item 8: only tests use it (test_adapters)",
    "src/repro/dataplane/spright/security.py:SecurityDomain.is_allowed":
        "item 8: only tests use it (test_spright_chain)",
    "src/repro/dataplane/spright/xdp_accel.py:XdpAccelerator.tc_egress":
        "item 8: only tests use it (test_adapters)",
    "src/repro/experiments/fig5.py:Fig5Result.series":
        "item 8: only tests use it (test_experiments_smoke, benchmarks)",
    "src/repro/experiments/trace_exp.py:TracedRun.reconciled":
        "item 8: only tests use it (test_obs_trace)",
    "src/repro/kernel/costs.py:CostModel.seconds_from_cycles":
        "item 8: only tests use it (test_kernel_substrate)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.add_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.add_reg":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.sub_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.sub_reg":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.mul_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.div_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.mod_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.and_imm":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.or_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.and_reg":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.xor_reg":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.rsh_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ld8":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ld16":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ld64":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.st8":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.st32":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.st64":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.st_imm32":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.ja":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jeq_reg":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jne_reg":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jge_imm":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jlt_imm":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jle_imm":
        "item 8: used nowhere",
    "src/repro/kernel/ebpf/assembler.py:Assembler.jset_imm":
        "item 8: only tests use it (test_ebpf_vm)",
    "src/repro/kernel/ebpf/bpftool.py:ProgStat.avg_insns_per_fire":
        "item 8: only tests use it (test_bpftool_export)",
    "src/repro/kernel/ebpf/hooks.py:HookPoint.detach":
        "item 8: only tests use it (test_ebpf_programs_hooks)",
    "src/repro/kernel/ebpf/hooks.py:HookPoint.is_armed":
        "item 8: only tests use it (test_ebpf_programs_hooks)",
    "src/repro/kernel/fib.py:FibTable.set_default":
        "item 8: only tests use it (test_adapters, test_ebpf_programs_hooks, ...)",
    "src/repro/kernel/fib.py:FibTable.remove_route":
        "item 8: only tests use it (test_kernel_substrate)",
    "src/repro/kernel/netdev.py:VethEndpoint.send_frame":
        "item 8: only tests use it (test_kernel_substrate)",
    "src/repro/kernel/ops.py:KernelOps.background":
        "item 8: only tests use it (test_simcore_detached)",
    "src/repro/mem/descriptor.py:PacketDescriptor.unpack":
        "item 8: only tests use it (test_mem_pool, test_protocols_property)",
    "src/repro/mem/descriptor.py:PacketDescriptor.addressed_to":
        "item 8: only tests use it (test_mem_pool)",
    "src/repro/mem/pool.py:SharedMemoryPool.hugepages_backing":
        "item 8: only tests use it (test_mem_pool)",
    "src/repro/mem/rings.py:RteRing.single_producer":
        "item 8: only tests use it (test_cli_and_appendix)",
    "src/repro/mem/rings.py:RteRing.single_consumer":
        "item 8: only tests use it (test_cli_and_appendix)",
    "src/repro/mem/sanitizer.py:PoolSanitizer.leaks":
        "item 8: only tests use it (test_recovery, test_sanitizer)",
    "src/repro/mem/sanitizer.py:PoolSanitizer.total_violations":
        "item 8: only tests use it (test_sanitizer)",
    "src/repro/mem/scavenger.py:ShmScavenger.owned_count":
        "item 8: only tests use it (test_recovery)",
    "src/repro/mem/scavenger.py:ShmScavenger.tracked_count":
        "item 8: only tests use it (test_recovery)",
    "src/repro/obs/live.py:SseBroker.client_count":
        "item 8: only tests use it (test_obs_live)",
    "src/repro/obs/live.py:LiveSink.watch_recorder":
        "item 8: only tests use it (test_obs_slo)",
    "src/repro/obs/live.py:_DashboardHandler.log_message":
        "http.server's BaseHTTPRequestHandler calls it by name",
    "src/repro/obs/live.py:_DashboardHandler.do_GET":
        "http.server's BaseHTTPRequestHandler calls it by name",
    "src/repro/obs/metrics.py:MetricsRegistry.sum_counters":
        "item 8: only tests use it (test_traffic)",
    "src/repro/obs/slo.py:BurnRateMonitor.record_latency":
        "item 8: only tests use it (test_obs_slo)",
    "src/repro/protocols/cloudevents.py:CloudEvent.to_structured":
        "item 8: only tests use it (test_protocols, test_protocols_property)",
    "src/repro/protocols/cloudevents.py:CloudEvent.from_structured":
        "item 8: only tests use it (test_protocols, test_protocols_property)",
    "src/repro/protocols/cloudevents.py:CloudEvent.to_binary_headers":
        "item 8: only tests use it (test_protocols)",
    "src/repro/protocols/cloudevents.py:CloudEvent.from_binary_headers":
        "item 8: only tests use it (test_protocols)",
    "src/repro/protocols/grpc_codec.py:ProtoMessage.get_int":
        "item 8: only tests use it (protocols_reference, test_http2, test_protocols)",
    "src/repro/protocols/grpc_codec.py:ProtoMessage.get_str":
        "item 8: only tests use it (protocols_reference, test_protocols)",
    "src/repro/protocols/http2.py:HpackCodec.dynamic_entries":
        "item 8: only tests use it (protocols_reference, test_http2)",
    "src/repro/runtime/autoscaler.py:Autoscaler.activate":
        "item 8: only tests use it (test_runtime)",
    "src/repro/runtime/metrics_server.py:MetricsServer.history":
        "item 8: only tests use it (test_metrics_server_registry, test_obs_slo, ...)",
    "src/repro/runtime/spec.py:ChainSpec.next_hop":
        "item 8: only tests use it (test_runtime)",
    "src/repro/runtime/spec.py:ChainSpec.entry_function":
        "item 8: only tests use it (test_runtime)",
    "src/repro/simcore/cpu.py:CpuAccounting.series":
        "item 8: only tests use it (test_simcore_detached)",
    "src/repro/simcore/cpu.py:CpuSet.total_cores":
        "item 8: only tests use it (test_kernel_substrate)",
    "src/repro/simcore/cpu.py:CpuSet.execute_cycles":
        "item 8: only tests use it (test_detached_guard, test_simcore_detached)",
    "src/repro/simcore/environment.py:Environment.all_of":
        "item 8: only tests use it (test_simcore_edge_cases)",
    "src/repro/simcore/events.py:Event.trigger":
        "item 8: only tests use it (test_property_invariants, test_simcore_edge_cases, ...)",
    "src/repro/simcore/events.py:ConditionValue.todict":
        "item 8: only tests use it (test_simcore_edge_cases, test_simcore_engine)",
    "src/repro/simcore/resources.py:Store.try_put":
        "item 8: only tests use it (spright_reference, test_simcore_resources)",
    "src/repro/simcore/resources.py:Store.try_get":
        "item 8: only tests use it (test_simcore_resources)",
    "src/repro/stats/recorder.py:LatencyRecorder.cdf":
        "item 8: only tests use it (test_stats, test_property_invariants)",
    "src/repro/stats/recorder.py:LatencyRecorder.overall_summary":
        "item 8: only tests use it (test_stats)",
    "src/repro/traffic/arrivals.py:SyntheticFleet.merged":
        "item 8: only tests use it (test_scenario, test_traffic)",
    "src/repro/workloads/generators.py:OpenLoopGenerator.streaming":
        "item 8: only tests use it (test_traffic, test_workloads)",
    "src/repro/workloads/kvstore.py:KvStats.hit_rate":
        "item 8: only tests use it (test_kvstore)",
    "src/repro/workloads/kvstore.py:KvStore.scan_prefix":
        "item 8: only tests use it (test_kvstore)",
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
