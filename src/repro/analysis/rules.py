"""The hcclint domain rules.

Each rule machine-checks one invariant the HCC-MF design depends on:

====== ================== ========================================================
id     name               invariant (paper anchor)
====== ================== ========================================================
HCC101 shm-lifecycle      every SharedMemory segment has a guaranteed
                          close()/unlink() path (3.5: named segments outlive
                          the process on crash)
HCC102 hot-copy           no hidden NumPy allocation in per-sample hot paths
                          (Eq. 2: T_comp multiplies by nnz)
HCC103 kernel-promotion   kernels stay FP32; no silent float64 promotion
                          (3.4 Strategy 2: FP32 compute / FP16 wire)
HCC104 frozen-dataclass   Spec/Plan/Config/Stats dataclasses are immutable
                          (plans are shared across worker processes)
HCC105 mutable-default    no mutable default arguments (shared-state hazard)
HCC106 pq-mutation        P/Q mutated only by kernels and the server sync
                          (3.4 Strategy 1: row-grid ownership)
HCC107 blocking-call      no sleep / unbounded join-wait in worker loops
                          (Eq. 1: the epoch ends at max_i{T_i})
HCC108 unit-mix           cost-model formulas never add bytes to seconds
                          (Eq. 1-7 unit discipline)
HCC109 hot-gather         advisory: fancy-index gathers inside hot loops
                          allocate per iteration
HCC110 wall-clock         advisory: timing code uses time.perf_counter(),
                          never time.time() (telemetry spans need one
                          monotonic cross-process time base)
HCC111 epoch-loop         epoch-loop orchestration lives in repro/engine/
                          only; the legacy plane modules are facades that
                          delegate to EpochEngine
HCC112 unbounded-wait     cross-process rendezvous (.wait/.join/.get) in
                          repro/parallel/ and repro/engine/ always carry a
                          timeout, so a dead peer surfaces as a detectable
                          failure instead of a hang
====== ================== ========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.hotpath import (
    is_bounded_wait_module,
    is_cost_model_module,
    is_epoch_loop_guarded_module,
    is_kernel_module,
    is_pq_owner_module,
    is_timing_module,
    is_worker_loop_module,
)
from repro.analysis.lint import FileContext, LintIssue, Rule, Severity, rule

_CLEANUP_ATTRS = {"close", "unlink", "terminate", "shutdown"}
_OWNERSHIP_SINKS = {"enter_context", "callback", "push"}


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------
def _func_tail(func: ast.AST) -> str:
    """Last segment of a call target: ``a.b.c(...)`` -> ``c``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted(func: ast.AST) -> str:
    """Dotted call target when statically resolvable, else ''."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _parent_map(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _contains_name(root: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name for node in ast.walk(root)
    )


def _name_used_as_value(root: ast.AST, name: str) -> bool:
    """True when *name* appears in *root* outside an attribute access.

    ``return shm`` transfers ownership of the object; ``return shm.name``
    only leaks a field of it and must not count as an escape.
    """
    parents = _parent_map(root)
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and node.id == name:
            parent = parents.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue
            return True
    return False


def _try_has_cleanup(node: ast.Try) -> bool:
    scopes: list[ast.AST] = list(node.finalbody) + list(node.handlers)
    for scope in scopes:
        for sub in ast.walk(scope):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _CLEANUP_ATTRS
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# HCC101: SharedMemory lifecycle
# ---------------------------------------------------------------------------
@rule
class ShmLifecycleRule(Rule):
    rule_id = "HCC101"
    name = "shm-lifecycle"
    severity = Severity.ERROR
    rationale = (
        "Named shared-memory segments survive process crashes (paper 3.5 maps "
        "pull/push buffers this way); every creation or attach needs a "
        "guaranteed close()/unlink() — a finally block, a context manager, an "
        "ExitStack registration, or an explicit ownership transfer."
    )

    _CREATORS = {"SharedMemory"}
    _FACTORY_TAILS = {"create", "attach"}

    def _is_creation(self, node: ast.Call) -> bool:
        tail = _func_tail(node.func)
        if tail in self._CREATORS:
            return True
        dotted = _dotted(node.func)
        return (
            tail in self._FACTORY_TAILS
            and "SharedArray" in dotted.split(".")
        )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        for fn in ctx.iter_functions():
            creations = [
                node
                for node in _walk_shallow(fn)
                if isinstance(node, ast.Call) and self._is_creation(node)
            ]
            if not creations:
                continue
            parents = _parent_map(fn)
            for creation in creations:
                if not self._is_guarded(fn, creation, parents):
                    yield self.issue(
                        ctx,
                        creation,
                        "shared-memory segment created without a guaranteed "
                        "close()/unlink() (use try/finally, a context manager, "
                        "ExitStack, or return it to transfer ownership)",
                    )

    # -- guard detection ------------------------------------------------
    def _is_guarded(
        self, fn: ast.AST, creation: ast.Call, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        node: ast.AST = creation
        while node is not fn:
            parent = parents.get(node)
            if parent is None:
                break
            if isinstance(parent, ast.withitem):
                return True
            if isinstance(parent, ast.Call) and node in parent.args:
                if _func_tail(parent.func) in _OWNERSHIP_SINKS:
                    return True
            if isinstance(parent, ast.Return):
                return True
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                if self._assignment_guarded(fn, parent, parents):
                    return True
            if isinstance(parent, ast.Try) and _try_has_cleanup(parent):
                return True
            node = parent
        return False

    def _assignment_guarded(
        self, fn: ast.AST, assign: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        targets = (
            assign.targets if isinstance(assign, ast.Assign) else [assign.target]
        )
        for target in targets:
            # stored on an object: lifecycle owned by that object's close()
            if isinstance(target, ast.Attribute):
                return True
            if isinstance(target, ast.Name) and self._name_escapes(
                fn, target.id, assign, parents
            ):
                return True
        return False

    def _name_escapes(
        self,
        fn: ast.AST,
        name: str,
        assign: ast.AST,
        parents: dict[ast.AST, ast.AST],
    ) -> bool:
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if _name_used_as_value(node.value, name):
                    return True
            if isinstance(node, ast.withitem) and _contains_name(
                node.context_expr, name
            ):
                return True
            if isinstance(node, ast.Call) and _func_tail(node.func) in _OWNERSHIP_SINKS:
                if any(_contains_name(arg, name) for arg in node.args):
                    return True
        # acquisition immediately followed by a try whose cleanup releases it
        follower = self._next_statement(fn, assign, parents)
        return isinstance(follower, ast.Try) and _try_has_cleanup(follower)

    @staticmethod
    def _next_statement(
        fn: ast.AST, stmt: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> ast.AST | None:
        parent = parents.get(stmt)
        if parent is None:
            return None
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            if isinstance(block, list) and stmt in block:
                idx = block.index(stmt)
                return block[idx + 1] if idx + 1 < len(block) else None
        return None


# ---------------------------------------------------------------------------
# HCC102: hot-path allocation
# ---------------------------------------------------------------------------
@rule
class HotCopyRule(Rule):
    rule_id = "HCC102"
    name = "hot-copy"
    severity = Severity.WARNING
    rationale = (
        "Hot-path functions run once per sample/batch, so a hidden NumPy copy "
        "multiplies by nnz and lands straight in T_comp (Eq. 2).  The paper's "
        "one-copy discipline (3.5) allows exactly one pull and one push copy "
        "per worker per epoch."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        for fn in ctx.iter_functions():
            if not ctx.function_is_hot(fn):
                continue
            for node in _walk_shallow(fn):
                if not isinstance(node, ast.Call):
                    continue
                tail = _func_tail(node.func)
                if tail == "copy" and isinstance(node.func, ast.Attribute):
                    if not node.args and not node.keywords:
                        yield self.issue(
                            ctx,
                            node,
                            ".copy() allocates in a hot path; hoist it out of "
                            "the per-sample loop or suppress with a comment "
                            "saying which one-copy budget it spends",
                        )
                elif tail == "astype":
                    if not any(
                        kw.arg == "copy"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                        for kw in node.keywords
                    ):
                        yield self.issue(
                            ctx,
                            node,
                            "astype() copies even when the dtype already "
                            "matches; pass copy=False in hot paths",
                        )
                elif _dotted(node.func) in {"np.array", "numpy.array"}:
                    yield self.issue(
                        ctx,
                        node,
                        "np.array() copies by default in a hot path; use "
                        "np.asarray() or pass copy=False",
                    )


@rule
class HotGatherRule(Rule):
    rule_id = "HCC109"
    name = "hot-gather"
    severity = Severity.INFO
    rationale = (
        "Fancy indexing (a[idx]) materializes a new array every loop "
        "iteration.  Batched SGD needs its gathers, so this is advisory — "
        "but each one should be a deliberate part of the kernel."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        for fn in ctx.iter_functions():
            if not ctx.function_is_hot(fn):
                continue
            seen: set[tuple[int, int]] = set()
            for loop in _walk_shallow(fn):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if (
                        isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.slice, (ast.Name, ast.Attribute))
                    ):
                        key = (node.lineno, node.col_offset)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield self.issue(
                            ctx,
                            node,
                            "fancy-index gather inside a hot loop allocates "
                            "a new array per iteration",
                        )


# ---------------------------------------------------------------------------
# HCC103: float64 promotion in kernel code
# ---------------------------------------------------------------------------
@rule
class KernelPromotionRule(Rule):
    rule_id = "HCC103"
    name = "kernel-promotion"
    severity = Severity.ERROR
    rationale = (
        "Training is FP32 with an FP16 wire (3.4 Strategy 2); a float64 "
        "intermediate doubles memory traffic and silently changes the "
        "numerics the FP16 round-trip was validated against."
    )

    _F64_STRINGS = {"float64", "f8", ">f8", "<f8"}

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_kernel_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                yield self.issue(
                    ctx, node, "float64 in FP32 kernel code (use float32, or "
                    "suppress where a reduction deliberately widens)"
                )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in self._F64_STRINGS
            ):
                yield self.issue(
                    ctx, node, f"dtype string {node.value!r} promotes FP32 "
                    "kernel data to float64"
                )
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                if isinstance(node.value, ast.Name) and node.value.id == "float":
                    yield self.issue(
                        ctx, node.value, "dtype=float means float64; kernel "
                        "code must say float32 explicitly"
                    )


# ---------------------------------------------------------------------------
# HCC104 / HCC105: dataclass and default hygiene
# ---------------------------------------------------------------------------
@rule
class FrozenDataclassRule(Rule):
    rule_id = "HCC104"
    name = "frozen-dataclass"
    severity = Severity.WARNING
    rationale = (
        "Spec/Plan/Config/Stats dataclasses cross process boundaries (plans "
        "are pickled to spawn workers); freezing makes aliasing across the "
        "server and workers safe by construction."
    )

    _SUFFIXES = ("Spec", "Plan", "Config", "Stats")

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(self._SUFFIXES):
                continue
            for deco in node.decorator_list:
                frozen = None
                if _func_tail(deco) == "dataclass" and not isinstance(deco, ast.Call):
                    frozen = False
                elif isinstance(deco, ast.Call) and _func_tail(deco.func) == "dataclass":
                    frozen = any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords
                    )
                if frozen is False:
                    # anchor on the decorator so a suppression comment
                    # directly above ``@dataclass`` covers the finding
                    yield self.issue(
                        ctx,
                        deco,
                        f"dataclass {node.name} looks like shared plan/spec "
                        "state; declare it @dataclass(frozen=True)",
                    )


@rule
class MutableDefaultRule(Rule):
    rule_id = "HCC105"
    name = "mutable-default"
    severity = Severity.ERROR
    rationale = (
        "A mutable default argument is shared across every call — in a "
        "framework whose workers are long-lived processes, that is hidden "
        "global state."
    )

    _MUTABLE_CALLS = {"list", "dict", "set"}
    _MUTABLE_NODES = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        for fn in ctx.iter_functions():
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(default, self._MUTABLE_NODES) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                )
                if bad:
                    yield self.issue(
                        ctx,
                        default,
                        f"mutable default argument in {fn.name}(); default to "
                        "None and allocate inside the function",
                    )


# ---------------------------------------------------------------------------
# HCC106: P/Q ownership
# ---------------------------------------------------------------------------
@rule
class PQMutationRule(Rule):
    rule_id = "HCC106"
    name = "pq-mutation"
    severity = Severity.WARNING
    rationale = (
        "Strategy 1 ('transmit Q only') holds because P rows are written "
        "only by their owning worker and Q only through the server's merge; "
        "a stray write from analysis/experiment code would reintroduce the "
        "races the row grid exists to prevent."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if is_pq_owner_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr = self._pq_attr(target)
                if attr is not None:
                    yield self.issue(
                        ctx,
                        target,
                        f"direct mutation of .{attr} outside the kernel/server "
                        "modules; go through sgd_batch_update or the engine's "
                        "merge_pushes",
                    )

    @staticmethod
    def _pq_attr(target: ast.AST) -> str | None:
        if isinstance(target, ast.Attribute) and target.attr in {"P", "Q"}:
            return target.attr
        if isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr in {"P", "Q"}:
                return value.attr
        return None


# ---------------------------------------------------------------------------
# HCC107: blocking calls in worker loops
# ---------------------------------------------------------------------------
@rule
class BlockingCallRule(Rule):
    rule_id = "HCC107"
    name = "blocking-call"
    severity = Severity.ERROR
    rationale = (
        "The epoch ends at max_i{T_i} (Eq. 1): one worker sleeping or "
        "waiting without a timeout stalls every other worker at the barrier "
        "and can deadlock the whole run on a crashed peer."
    )

    _WAIT_ATTRS = {"join", "wait", "acquire"}

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_worker_loop_module(ctx.module):
            return
        for fn in ctx.iter_functions():
            for node in _walk_shallow(fn):
                if not isinstance(node, ast.Call):
                    continue
                tail = _func_tail(node.func)
                if tail == "sleep":
                    yield self.issue(
                        ctx, node, "sleep() in a worker/server loop inflates "
                        "max_i{T_i}; use event- or barrier-based waiting"
                    )
                elif (
                    tail in self._WAIT_ATTRS
                    and isinstance(node.func, ast.Attribute)
                    and not isinstance(node.func.value, (ast.Constant, ast.JoinedStr))
                    and not node.args
                    and not any(kw.arg == "timeout" for kw in node.keywords)
                ):
                    yield self.issue(
                        ctx, node, f".{tail}() without a timeout can hang the "
                        "epoch forever if a peer worker dies; pass timeout="
                    )


# ---------------------------------------------------------------------------
# HCC108: bytes-vs-seconds unit mixing in cost-model code
# ---------------------------------------------------------------------------
@rule
class UnitMixRule(Rule):
    rule_id = "HCC108"
    name = "unit-mix"
    severity = Severity.WARNING
    rationale = (
        "Eq. 1-7 mix byte counts, bandwidths and times; adding a *_bytes "
        "quantity to a *_s/*_time quantity is always a bug (divide by a "
        "bandwidth first).  Units are inferred from naming conventions."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_cost_model_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = self._unit_of(node.left)
            right = self._unit_of(node.right)
            if left is not None and right is not None and left != right:
                yield self.issue(
                    ctx,
                    node,
                    f"adding a {left} quantity to a {right} quantity; convert "
                    "through a bandwidth/scale factor first",
                )

    def _unit_of(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return self._unit_from_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._unit_from_name(node.attr)
        if isinstance(node, ast.Call):
            return self._unit_from_name(_func_tail(node.func))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left = self._unit_of(node.left)
            right = self._unit_of(node.right)
            return left if left == right else None
        return None

    @staticmethod
    def _unit_from_name(name: str) -> str | None:
        n = name.lower()
        if n == "nbytes" or n.endswith("bytes"):
            return "bytes"
        if n.endswith(("_us",)):
            return "microseconds"
        if n.endswith(("_ms",)):
            return "milliseconds"
        if n.endswith(("_gbs", "_gbps")):
            return "GB/s"
        if n.endswith(("_s", "_sec", "_seconds", "_time")) or n in {
            "seconds",
            "elapsed",
        }:
            return "seconds"
        return None


# ---------------------------------------------------------------------------
# HCC110: wall-clock timestamps in timing code
# ---------------------------------------------------------------------------
@rule
class WallClockRule(Rule):
    rule_id = "HCC110"
    name = "wall-clock"
    severity = Severity.INFO
    rationale = (
        "Telemetry spans and probes are compared across processes, so they "
        "need one monotonic time base.  time.time() jumps under NTP slew — "
        "a span can end before it starts; time.monotonic() is a *different* "
        "base (and coarser on some platforms), so mixing it in misaligns "
        "spans against every other module; time.perf_counter() is the "
        "system-wide monotonic clock every timing module must share."
    )

    _BANNED = {
        "time.time": "time.time() is wall clock (non-monotonic); timing "
                     "code must use time.perf_counter()",
        "time.monotonic": "time.monotonic() is a second monotonic base; "
                          "timing code must share time.perf_counter()",
    }

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_timing_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                message = self._BANNED.get(_dotted(node.func))
                if message is not None:
                    yield self.issue(ctx, node, message)


# ---------------------------------------------------------------------------
# HCC111: epoch-loop orchestration belongs to the engine
# ---------------------------------------------------------------------------
@rule
class EpochLoopRule(Rule):
    rule_id = "HCC111"
    name = "epoch-loop"
    severity = Severity.WARNING
    rationale = (
        "Both planes execute one epoch pipeline — pull, compute, push, sync "
        "— and since the planes were unified that loop lives only in "
        "repro/engine/ (EpochEngine).  An epoch loop reappearing in a "
        "legacy plane module means the facade is growing its own "
        "orchestration again, and the two planes can silently diverge.  "
        "Sanctioned non-pipeline loops (the Q-rotation mode) carry an "
        "explicit suppression."
    )

    #: calls that mark a loop body as *driving* the training pipeline
    #: (iterating epochs to render a table or an axis is fine)
    _STAGE_TAILS = {
        "pull",
        "push",
        "sync",
        "compute",
        "begin_epoch",
        "run_epoch",
        "run_rotation_step",
    }

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_epoch_loop_guarded_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.For)
                and self._is_epoch_range(node.iter)
                and self._drives_stages(node)
            ):
                yield self.issue(
                    ctx,
                    node,
                    "epoch loop outside repro/engine/: the stage pipeline "
                    "lives in EpochEngine — delegate to it (or suppress a "
                    "sanctioned non-pipeline loop with a comment)",
                )

    @staticmethod
    def _is_epoch_range(iter_node: ast.AST) -> bool:
        """True for ``range(...)`` whose bound names an epoch count."""
        if not (
            isinstance(iter_node, ast.Call)
            and _func_tail(iter_node.func) == "range"
        ):
            return False
        for arg in iter_node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if "epoch" in name.lower():
                    return True
        return False

    def _drives_stages(self, loop: ast.For) -> bool:
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and _func_tail(sub.func) in self._STAGE_TAILS
                ):
                    return True
        return False


# ---------------------------------------------------------------------------
# HCC112: unbounded cross-process rendezvous
# ---------------------------------------------------------------------------
@rule
class UnboundedWaitRule(Rule):
    rule_id = "HCC112"
    name = "unbounded-wait"
    severity = Severity.ERROR
    rationale = (
        "Fault tolerance starts at detection: a .wait()/.join()/.get() "
        "with no timeout in coordination code blocks forever when a peer "
        "process dies, so the failure never surfaces and recovery never "
        "runs.  Every cross-process rendezvous in repro/parallel/ and "
        "repro/engine/ must be bounded (the server's barrier timeout is "
        "the run's failure detector)."
    )

    _WAIT_ATTRS = {"wait", "join", "get"}

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_bounded_wait_module(ctx.module):
            return
        # worker-loop modules already get wait/join coverage from HCC107;
        # there this rule only adds the .get() check (no double reports)
        covered = is_worker_loop_module(ctx.module)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = _func_tail(node.func)
            if tail not in self._WAIT_ATTRS:
                continue
            if covered and tail != "get":
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            # "sep".join(parts) / f"{x}".join(...) are string operations
            if isinstance(node.func.value, (ast.Constant, ast.JoinedStr)):
                continue
            if node.args or any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield self.issue(
                ctx,
                node,
                f".{tail}() without timeout= blocks forever on a dead peer "
                "process; bound every rendezvous so failure detection can run",
            )
