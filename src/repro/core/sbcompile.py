"""Superblock trace compiler: specialized replay functions.

The machine's reference executor, ``Chex86Machine.step``, interprets one
instruction at a time: per-instruction dispatch, tuple unpacking,
check-mode branching, handler calls, and attribute traffic for operands
that are all pure functions of the static code.  This module is the one
fast executor, built the way a trace cache is — by *compiling the
trace*: for each :class:`~.fastpath.Superblock` it emits a straight-line
Python function with every static decision folded at compile time:

* the source is a *shape*: per-superblock values (pcs, icache lines,
  operand register indices, immediates, displacements, ``srcs`` tuples,
  branch targets, fallthroughs, ``core_id``) are named holes, parameters
  whose defaults are bound when the superblock's function is built, so
  superblocks that differ only in their data share one compiled code
  object; effective-address shapes are structure, and FU classes and
  latencies (fixed by the configuration and variant) are literals in
  each uop's call to ``timing.schedule``, the one scheduler that
  ``step()`` calls too;
* the per-uop check-injection mode (``CHECK_*``) is resolved into the
  exact residual code — nothing for never-checked uops, a counter bump
  for suppressed sites, the inlined ``capCheck`` body for injection
  sites (guarded by the live base-register PID where the prediction
  policy demands it);
* Table I rule lookups are resolved to their propagation policy (legal
  because ``run_quantum`` drops compiled superblocks when the rule
  database or its ``version``, bumped by ``add``/``remove``, moved),
  and the tracker's per-policy tag updates are inlined;
* ALU semantics, flag derivation, and branch-condition tests are emitted
  per concrete ``AluOp``/condition instead of dispatched.

Exactness contract: the generated function performs *the same mutating
calls in the same order* as stepping each member through ``step()`` —
the fetch-group and icache work of ``timing.begin_macro`` (via
``fetch_line``) / ``schedule`` / ``mem_access`` / ``shadow_access``,
memory reads/writes, TLB and capability-cache touches, tracker tag
writes, each store's alias update at the end of its member, and
predictor updates all stay interleaved per member.  The same holds for
each hook an attached observer overrides (other hooks emit nothing):
the call is emitted where ``step()`` makes it, after the same timing
calls, so ``timing.now`` and the event stream match.
Only side-effect-free recomputation (operand decoding, rule lookup,
effective addresses, flag bit twiddling) is hoisted to compile time,
and per-instruction bookkeeping nothing reads mid-chain (decode
counters, ``instructions`` and ``tracker.stats.commits``) is applied as
one batched delta.  The local ``uops`` count is flushed before any
operation that can raise a ``CapabilityException`` so a trapping replay
unwinds with an exact ``total_uops``; the trap handler retires the completed
members and leaves ``rip`` at the trapping member, exactly where
per-instruction stepping would stop.

A replay can start at any member and stop after any member (the
``start`` and ``stop`` arguments), which is how ``run_quantum`` enters a
superblock mid-chain and ends it exactly at a quantum's budget, as
QEMU's icount mode ends a translated block at the remaining instruction
count.  Each member runs under ``if start <= k`` and flushes its uop
count at its end, so a skipped member contributes nothing; after member
``k`` a ``stop == k + 1`` leaves with ``rip`` at the next member.

Compilation is refused (returning ``None``, which leaves the entry pc to
per-instruction stepping) when a member uses a construct the emitter
does not specialize; unknown uop kinds fall back to a plain handler call
inside the generated code, so refusal is rare.
"""

from __future__ import annotations

from types import CodeType, FunctionType
from typing import List, Optional

from ..isa.instructions import INSTR_SLOT
from ..isa.registers import MASK64, _FLAG_VALUES
from ..memory.memory import PAGE_SHIFT, PAGE_SIZE
from ..microop.uops import AluOp, Uop, UopKind
from ..telemetry import spans
from .capability import CAPABILITY_BYTES, WILD_PID
from .mcu import (
    CHECK_INJECT,
    CHECK_INJECT_IF_PID,
    CHECK_NEVER,
    CHECK_SUPPRESS,
    CHECK_SUPPRESS_IF_PID,
)
from .predictor import MispredictKind
from .rules import Propagation
from .violations import CapabilityException

#: Memory-resolved propagation policies (the machine routes these through
#: the alias subsystem rather than the register tags).
_MEMORY_POLICIES = (Propagation.FROM_MEMORY, Propagation.TO_MEMORY)

#: Branch-condition expressions over the flag bit vector ``_f``
#: (ZF=bit0, SF=bit1, CF=bit2, OF=bit3) — each evaluates to a bool and
#: agrees with ``machine._branch_taken`` for every flag pattern.
_COND_EXPRS = {
    "je": "(_f & 1) != 0",
    "jne": "(_f & 1) == 0",
    "jl": "((_f >> 1) & 1) != ((_f >> 3) & 1)",
    "jle": "(_f & 1) != 0 or ((_f >> 1) & 1) != ((_f >> 3) & 1)",
    "jg": "(_f & 1) == 0 and ((_f >> 1) & 1) == ((_f >> 3) & 1)",
    "jge": "((_f >> 1) & 1) == ((_f >> 3) & 1)",
    "jb": "(_f & 4) != 0",
    "jae": "(_f & 4) == 0",
}

#: Replay-time prologue bindings, in dependency order.  Only the ones a
#: superblock's body actually references are emitted.  Every scheduled
#: uop calls ``schedule``; conditional branches train the predictor via
#: ``resolve_cond``, the ``cond.update`` that ``step()`` calls.
_PROLOGUE = (
    ("timing", "timing = m.timing"),
    ("schedule", "schedule = timing.schedule"),
    ("t_stats", "t_stats = timing.stats"),
    ("fetch_line", "fetch_line = timing.fetch_line"),
    ("shadow_access", "shadow_access = timing.shadow_access"),
    ("taken_branch", "taken_branch = timing.taken_branch"),
    ("redirect", "redirect = timing.redirect"),
    ("regs", "regs = m.regs"),
    ("mem_stats", "mem_stats = m.memory.stats"),
    ("mem_pages", "mem_pages = m.memory._pages"),
    ("new_page", "new_page = m.memory._page"),
    ("tlb_sets", "tlb_sets = m.tlb._cache._sets"),
    ("tlbc_stats", "tlbc_stats = m.tlb._cache.stats"),
    ("tlb_stats", "tlb_stats = m.tlb.stats"),
    ("tlb_refill", "tlb_refill = m.tlb.refill"),
    ("l1d_sets", "l1d_sets = timing.l1d._sets"),
    ("l1d_stats", "l1d_stats = timing.l1d.stats"),
    ("mem_miss", "mem_miss = timing.mem_access_miss"),
    ("tags", "tags = m.tracker._tags"),
    ("tstats", "tstats = m.tracker.stats"),
    ("atable", "atable = m.alias_table"),
    ("atable_set", "atable_set = m.alias_table.set"),
    ("acache_invalidate", "acache_invalidate = m.alias_cache.invalidate"),
    ("tlb_mark", "tlb_mark = m.tlb.mark_alias_hosting"),
    ("sys_bcast", "sys_bcast = m.system.broadcast_alias_invalidate"),
    ("mstats", "mstats = m.mcu.stats"),
    ("predict_ex", "predict_ex = m.reload_predictor.predict_ex"),
    ("pred_update", "pred_update = m.reload_predictor.update"),
    ("atable_peek", "atable_peek = m.alias_table.peek"),
    ("acache_install", "acache_install = m.alias_cache.install"),
    ("acache_lookup", "acache_lookup = m.alias_cache.lookup"),
    ("tlb_hosts", "tlb_hosts = m.tlb.page_hosts_aliases"),
    ("capcache_access", "capcache_access = m.capcache.access"),
    ("captable_check", "captable_check = m.captable.check"),
    ("resolve_cond", "resolve_cond = m.predictors.cond.update"),
    ("resolve_ind", "resolve_ind = m.predictors.resolve_indirect"),
    ("on_call", "on_call = m.predictors.on_call"),
    ("obs", "obs = m._observer"),
)


class _Unsupported(Exception):
    """A construct the emitter does not specialize; the entry pc falls
    back to per-instruction stepping."""


#: Shape -> code-object cache shared across machines.  The generated
#: source is a *shape*: every per-superblock value (pcs, icache lines,
#: register indices, immediates, displacements, ``srcs`` tuples, branch
#: targets, fallthroughs, ``core_id``, and the bound uop/handler/superblock
#: objects) is a named hole, a parameter of ``_replay`` whose default the
#: superblock supplies when its function is built.  What stays literal is
#: structure (shifts, masks, uop-count steps, fetch-group slot counts) and
#: what the machine's configuration and variant fix (latencies, FU
#: classes, set counts), so superblocks that differ only in their data
#: share one shape and one ``compile()``; every machine-specific object is
#: bound *by name* at replay time.  This also makes re-creating a machine
#: over the same program — benchmark repeats, differential runs,
#: snapshot-restore recompiles — skip the dominant ``compile()`` cost.
#: Under the default policy a machine compiles a superblock on its entry
#: pc's ``Chex86Machine.superblock_compile_entry``-th entry, so code
#: that runs only a few times never reaches this cache.  The
#: end-to-end benchmark clears it by this name between cold-code
#: programs.
_CODE_CACHE: dict = {}

#: The one globals dict every replay function shares: module constants
#: only, so ``LOAD_GLOBAL`` specializes once for all shapes.
_GLOBALS = {
    "MASK64": MASK64,
    "_FLAGS": _FLAG_VALUES,
    "P0AN": MispredictKind.P0AN,
    "PNA0": MispredictKind.PNA0,
    "CapEx": CapabilityException,
}


class _Emitter:
    """Accumulates body lines, holes, and pending uop-count increments
    for one generated replay shape."""

    def __init__(self) -> None:
        self.body: List[str] = []
        self.need: set = set()
        self.pending = 0
        #: The current member's store PID local ("0" for an immediate),
        #: when the member makes an alias update at its end.
        self.alias_pid: Optional[str] = None
        self.holes: dict = {}  # parameter name -> bound value, in order
        self._site: dict = {}
        #: Nesting of the current line: the loop body, one deeper inside
        #: a member's ``start`` guard.
        self.indent = 3

    # -- code accumulation ------------------------------------------------

    def line(self, text: str, depth: int = 0) -> None:
        self.body.append("    " * (self.indent + depth) + text)

    def bump(self) -> None:
        """One uop's ``total_uops`` advance (folded until used)."""
        self.pending += 1

    def flush(self, depth: int = 0) -> None:
        """Materialize pending uop-count increments.

        Must run before any emitted code that can raise a
        ``CapabilityException`` — the unwind path adds the local ``uops``
        to ``machine.total_uops`` and must leave the count ``step()``
        would.
        """
        if self.pending:
            self.line(f"uops += {self.pending}", depth)
            self.pending = 0

    # -- holes ------------------------------------------------------------

    def site(self) -> None:
        """Start a new site (a member's fetch, or one uop entry): holes
        are shared only within a site, so which holes coincide is fixed
        by the emitter's structure, and equal values at different sites
        never split one shape into two.  The core id is the same at
        every site, so its one hole spans the superblock."""
        self._site = {key: name for key, name in self._site.items()
                      if key[0] == "c"}

    def hole(self, value, role: str) -> str:
        """Name the parameter that carries per-superblock ``value``.

        Within one site the same value in the same role takes one hole.
        Plain data is matched by value, objects (uops, handlers, the
        superblock) by identity.
        """
        if value is None or isinstance(value, (int, tuple)):
            key = (role, value)
        else:
            key = (role, id(value))
        name = self._site.get(key)
        if name is None:
            name = self._site[key] = f"{role}{len(self.holes)}"
            self.holes[name] = value
        return name


# -- expression builders ----------------------------------------------------


def _ea_expr(e: _Emitter, mem) -> str:
    """Effective-address expression (same sum as ``_effective_address``)."""
    parts = []
    if mem.base is not None:
        parts.append(f"regs[{e.hole(int(mem.base), 'r')}]")
    if mem.index is not None:
        term = f"regs[{e.hole(int(mem.index), 'r')}]"
        if mem.scale != 1:
            term = f"{term} * {mem.scale}"
        parts.append(term)
    if mem.disp or not parts:
        parts.append(e.hole(mem.disp, "d"))
    return "(" + " + ".join(parts) + ") & MASK64"


def _emit_current_pid(e: _Emitter, reg: int, out: str, depth: int = 0) -> None:
    """Inline ``tracker.current_pid(reg)`` into local ``out``."""
    e.need.add("tags")
    e.line(f"{out} = tags[{e.hole(reg, 'r')}]", depth)


def _emit_set_pid(e: _Emitter, dst: int, pid_expr: str, depth: int = 0) -> None:
    """Inline ``tracker.set_pid(dst, pid)`` plus the stats triage that
    ``tracker.apply`` performs after a tag write."""
    e.need.update(("tags", "tstats"))
    e.line(f"tags[{e.hole(dst, 'r')}] = {pid_expr}", depth)
    if pid_expr == "0":
        e.line("tstats.zeroed += 1", depth)
    elif pid_expr == str(WILD_PID):
        e.line("tstats.wild_assignments += 1", depth)
    else:
        e.line(f"if {pid_expr} == {WILD_PID}:", depth)
        e.line("tstats.wild_assignments += 1", depth + 1)
        e.line(f"elif {pid_expr}:", depth)
        e.line("tstats.transfers += 1", depth + 1)
        e.line("else:", depth)
        e.line("tstats.zeroed += 1", depth + 1)


def _policy_of(machine, uop: Uop) -> Propagation:
    rules = machine.tracker.rules
    rule = rules.lookup(uop)
    return rule.propagation if rule else rules.default_propagation


def _emit_apply(e: _Emitter, machine, uop: Uop) -> None:
    """Inline ``tracker.apply(uop)`` for a register-destination uop.

    Memory policies never reach here for LIMM/MOV/LEA/ALU — their
    handlers discard ``apply``'s MEMORY_POLICY sentinel, which performs
    no tag write, so the residual code is empty.
    """
    policy = _policy_of(machine, uop)
    if policy in _MEMORY_POLICIES or uop.dst is None:
        return
    if policy is Propagation.ZERO:
        _emit_set_pid(e, uop.dst, "0")
        return
    if policy is Propagation.WILD:
        _emit_set_pid(e, uop.dst, str(WILD_PID))
        return
    srcs = uop.srcs
    if policy is Propagation.COPY_SRC or policy is Propagation.FIRST_SRC:
        if not srcs:
            _emit_set_pid(e, uop.dst, "0")
            return
        _emit_current_pid(e, srcs[0], "_pid")
        _emit_set_pid(e, uop.dst, "_pid")
        return
    if policy is Propagation.NONZERO_SRC:
        if not srcs:
            _emit_set_pid(e, uop.dst, "0")
            return
        if len(srcs) == 1:
            # second == 0 statically: apply() resolves to the first
            # source's PID for every first-PID value.
            _emit_current_pid(e, srcs[0], "_pid")
            _emit_set_pid(e, uop.dst, "_pid")
            return
        _emit_current_pid(e, srcs[0], "_p1")
        _emit_current_pid(e, srcs[1], "_p2")
        e.line("if _p1 == 0:")
        e.line("_pid = _p2", 1)
        e.line(f"elif _p2 == 0 or _p1 != {WILD_PID}:")
        e.line("_pid = _p1", 1)
        e.line("else:")
        e.line("_pid = _p2", 1)
        _emit_set_pid(e, uop.dst, "_pid")
        return
    if policy is Propagation.BASE_REG:
        mem = uop.mem
        if mem is None or mem.base is None:
            _emit_set_pid(e, uop.dst, "0")
            return
        _emit_current_pid(e, int(mem.base), "_pid")
        _emit_set_pid(e, uop.dst, "_pid")
        return
    raise _Unsupported(f"propagation policy {policy}")


def _emit_hook(e: _Emitter, machine, depth: int, hook: str, pc: int,
               *args: str) -> None:
    """Emit the observer call ``step()`` makes at this point, when an
    attached observer overrides ``hook``; unobserved machines get no
    code, so their source (and ``_CODE_CACHE`` key) is unchanged."""
    if hook not in machine._hooks:
        return
    e.need.update(("timing", "obs"))
    e.line(f"obs.{hook}({', '.join(('timing.now', e.hole(pc, 'p')) + args)})",
           depth)


def _emit_result(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    """Emit ``step()``'s ``on_result`` report of a written destination."""
    if "on_result" not in machine._hooks or uop.dst is None:
        return
    _emit_current_pid(e, uop.dst, "_rp")
    _emit_hook(e, machine, 0, "on_result", pc, e.hole(uop, "U"), "_rp",
               f"regs[{e.hole(uop.dst, 'r')}]")


# -- check-injection sites --------------------------------------------------


def _emit_capcheck_body(e: _Emitter, machine, check: Uop, pc: int,
                        depth: int, guarded: bool) -> None:
    """Inline ``_exec_capcheck`` for an injected check template.

    ``base_pid`` and ``address`` are live locals, and ``check.pid`` is
    not stamped — the inline body consumes the PID directly and nothing
    else reads the template's field.  ``guarded`` means the caller has
    already tested ``base_pid`` nonzero, so the ``base_pid == 0`` arm
    is dead and not emitted.
    """
    e.need.update(("shadow_access", "schedule", "capcache_access",
                   "captable_check"))
    lat = machine._capcheck_latency
    miss_lat = lat + machine._captable_latency
    rr = e.hole(check.reg_reads(), "s")
    write = bool(check.check_write)
    if not guarded:
        e.line("if base_pid == 0:", depth)
        e.line(f"shadow_access({lat}, 8)", depth + 1)
        e.line(f"schedule({rr}, None, {lat}, 4, False, False, {lat})",
               depth + 1)
        _emit_hook(e, machine, depth + 1, "on_capcheck", pc, "0", "address",
                   "True")
        e.line("else:", depth)
        depth += 1
    e.line("if capcache_access(base_pid):", depth)
    e.line(f"schedule({rr}, None, {lat}, 4, False, False, {lat})", depth + 1)
    e.line("else:", depth)
    e.line(f"shadow_access({miss_lat}, {CAPABILITY_BYTES})", depth + 1)
    e.line(f"schedule({rr}, None, {miss_lat}, 4, False, False, {lat})",
           depth + 1)
    e.line(f"_v = captable_check(base_pid, address, 8, {write})", depth)
    _emit_hook(e, machine, depth, "on_capcheck", pc, "base_pid",
               "address", "_v is None")
    e.line("if _v is not None:", depth)
    e.line(f"m._flag(_v, {e.hole(pc, 'p')})", depth + 1)


def _emit_check_site(e: _Emitter, machine, entry, pc: int) -> bool:
    """Emit the front-end check decision for one entry.

    Returns True when the live local ``address`` holds the uop's
    effective address afterwards (the mem emitters then reuse it — the
    check template shares the uop's ``Mem`` operand, and no register
    writes intervene, so one computation is exact for both).
    """
    _handler, uop, base_reg, mode, check = entry
    if not mode:
        return False
    e.need.add("mstats")
    if check is not None:
        # Injection site: CHECK_INJECT fires always, *_IF_PID defers to
        # the live base-register tag (the prediction-driven policy).
        e.flush()
        if base_reg >= 0:
            _emit_current_pid(e, base_reg, "base_pid")
        elif mode == CHECK_INJECT:
            e.line("base_pid = 0")
        e.line(f"address = {_ea_expr(e, uop.mem)}")
        if mode == CHECK_INJECT:
            e.line("mstats.injected_uops += 1")
            e.line("mstats.capchecks += 1")
            _emit_hook(e, machine, 0, "on_inject", pc, "1")
            e.line("uops += 1")
            _emit_capcheck_body(e, machine, check, pc, 0, guarded=False)
        elif mode == CHECK_INJECT_IF_PID:
            if base_reg < 0:
                return True  # base_pid statically 0: never injects
            e.line("if base_pid:")
            e.line("mstats.injected_uops += 1", 1)
            e.line("mstats.capchecks += 1", 1)
            _emit_hook(e, machine, 1, "on_inject", pc, "1")
            e.line("uops += 1", 1)
            _emit_capcheck_body(e, machine, check, pc, 1, guarded=True)
        else:  # pragma: no cover - static_check_plan never builds this
            raise _Unsupported(f"check mode {mode} with template")
        return True
    if mode == CHECK_SUPPRESS:
        e.line("mstats.capchecks_suppressed_context += 1")
    elif mode == CHECK_SUPPRESS_IF_PID:
        if base_reg >= 0:
            _emit_current_pid(e, base_reg, "base_pid")
            e.line("if base_pid:")
            e.line("mstats.capchecks_suppressed_context += 1", 1)
    else:  # pragma: no cover - exhaustive over CHECK_* constants
        raise _Unsupported(f"check mode {mode} without template")
    return False


# -- per-kind uop emitters --------------------------------------------------


def _emit_alu(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    alu = uop.alu
    srcs = uop.srcs
    imm = uop.imm
    e.bump()
    if srcs:
        e.line(f"a = regs[{e.hole(srcs[0], 'r')}]")
        if len(srcs) > 1:
            e.line(f"b = regs[{e.hole(srcs[1], 'r')}]")
        elif imm is not None:
            e.line(f"b = {e.hole(imm & MASK64, 'i')}")
        else:
            e.line("b = 0")
    elif imm is not None:
        e.line(f"a = {e.hole(imm & MASK64, 'i')}")
        e.line("b = 0")
    else:
        e.line("a = 0")
        e.line("b = 0")

    carry_expr = "0"
    overflow = False
    if alu is AluOp.ADD:
        e.line("_tot = a + b")
        e.line("result = _tot & MASK64")
        carry_expr = "4 if _tot > MASK64 else 0"
        overflow = True
        ov_test = ("_sa == ((b >> 63) & 1) and "
                   "((result >> 63) & 1) != _sa")
    elif alu is AluOp.SUB or alu is AluOp.CMP:
        e.line("result = (a - b) & MASK64")
        carry_expr = "4 if a < b else 0"
        overflow = True
        ov_test = ("_sa != ((b >> 63) & 1) and "
                   "((result >> 63) & 1) != _sa")
    elif alu is AluOp.AND or alu is AluOp.TEST:
        e.line("result = a & b")
    elif alu is AluOp.OR:
        e.line("result = a | b")
    elif alu is AluOp.XOR:
        e.line("result = a ^ b")
    elif alu is AluOp.MUL:
        e.line("result = (a * b) & MASK64")
    elif alu is AluOp.SHL:
        e.line("result = (a << (b & 63)) & MASK64")
    elif alu is AluOp.SHR:
        e.line("result = a >> (b & 63)")
    elif alu is AluOp.NEG:
        e.line("result = (-a) & MASK64")
        carry_expr = "4 if a != 0 else 0"
    elif alu is AluOp.NOT:
        e.line("result = (~a) & MASK64")
    else:  # pragma: no cover - exhaustive over AluOp
        raise _Unsupported(f"ALU op {alu}")

    writeback = alu not in (AluOp.CMP, AluOp.TEST) and uop.dst is not None
    if writeback:
        e.line(f"regs[{e.hole(uop.dst, 'r')}] = result")
    if uop.writes_flags:
        e.line("_bits = 1 if result == 0 else (2 if result >> 63 else 0)")
        if carry_expr != "0":
            e.line(f"_bits |= {carry_expr}")
        if overflow:
            e.line("_sa = (a >> 63) & 1")
            e.line(f"if {ov_test}:")
            e.line("_bits |= 8", 1)
        e.line("m.flags = _FLAGS[_bits]")
    if machine._tracks:
        _emit_apply(e, machine, uop)
    operands = f"{e.hole(srcs, 's')}, {e.hole(uop.dst, 'r')}"
    latency_fu = "3, 1" if alu is AluOp.MUL else "1, 0"
    e.need.add("schedule")
    e.line(f"schedule({operands}, {latency_fu}, "
           f"{bool(uop.reads_flags)}, {bool(uop.writes_flags)})")
    _emit_result(e, machine, uop, pc)


def _emit_limm(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    e.bump()
    dst = e.hole(uop.dst, "r")
    e.line(f"regs[{dst}] = {e.hole(uop.imm & MASK64, 'i')}")
    if machine._tracks:
        _emit_apply(e, machine, uop)
    e.need.add("schedule")
    e.line(f"schedule((), {dst}, 1)")
    _emit_result(e, machine, uop, pc)


def _emit_mov(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    e.bump()
    dst = e.hole(uop.dst, "r")
    e.line(f"regs[{dst}] = regs[{e.hole(uop.srcs[0], 'r')}]")
    if machine._tracks:
        _emit_apply(e, machine, uop)
    e.need.add("schedule")
    e.line(f"schedule({e.hole(uop.srcs, 's')}, {dst}, 1)")
    _emit_result(e, machine, uop, pc)


def _emit_lea(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    e.bump()
    dst = e.hole(uop.dst, "r")
    e.line(f"regs[{dst}] = {_ea_expr(e, uop.mem)}")
    if machine._tracks:
        _emit_apply(e, machine, uop)
    e.need.add("schedule")
    e.line(f"schedule({e.hole(uop.reg_reads(), 's')}, {dst}, 1)")
    _emit_result(e, machine, uop, pc)


def _emit_nop(e: _Emitter, machine, uop: Uop) -> None:
    e.bump()
    e.need.add("schedule")
    e.line("schedule((), None, 1)")


def _emit_tlb(e: _Emitter, machine) -> None:
    """Inline ``m.tlb.access(address)`` (dtlb hit path; misses call the
    refill continuation).  The dtlb key is the page — ``line_shift`` is 0
    and there is no victim array, so a set miss is a genuine miss."""
    e.need.update(("tlb_sets", "tlbc_stats", "tlb_stats", "tlb_refill"))
    num_sets = machine.tlb._cache.num_sets
    e.line(f"_pn = address >> {PAGE_SHIFT}")
    e.line(f"_ts = tlb_sets[_pn % {num_sets}]")
    e.line("if _pn in _ts:")
    e.line("_ts.move_to_end(_pn)", 1)
    e.line("tlbc_stats.hits += 1", 1)
    e.line("tlb_stats.hits += 1", 1)
    e.line("else:")
    e.line("tlb_refill(address)", 1)


def _emit_l1d(e: _Emitter, machine, out: Optional[str]) -> None:
    """Inline the L1d hit probe of ``timing.mem_access``; the hit latency
    lands in local ``out`` (None discards it — the store shape)."""
    e.need.update(("l1d_sets", "l1d_stats", "mem_miss"))
    l1 = machine.timing.l1d
    e.line(f"_ln = address >> {l1.line_shift}")
    e.line(f"_ds = l1d_sets[_ln % {l1.num_sets}]")
    e.line("if _ln in _ds:")
    e.line("_ds.move_to_end(_ln)", 1)
    e.line("l1d_stats.hits += 1", 1)
    if out is not None:
        e.line(f"{out} = {machine.timing._l1_latency}", 1)
        e.line("else:")
        e.line(f"{out} = mem_miss(address)", 1)
    else:
        e.line("else:")
        e.line("mem_miss(address)", 1)


def _emit_resolve_reload(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    """Inline ``machine._resolve_reload`` for a memory-policy load.

    Locals ``_wa`` and ``done`` are live.  The PNA0 recovery is pure
    counter effects (and its inject hook), as in ``step()``.
    """
    e.need.update(("predict_ex", "pred_update", "atable_peek",
                   "acache_install", "acache_lookup", "tlb_hosts",
                   "shadow_access", "atable", "tags"))
    walk = machine._walk_latency
    hpc = e.hole(pc, "p")
    e.line(f"predicted, _bl = predict_ex({hpc})")
    e.line("if _bl:")
    e.line("actual = atable_peek(_wa)", 1)
    e.line("if actual:", 1)
    e.line(f"shadow_access({walk}, 16)", 2)
    e.line("acache_install(_wa, actual)", 2)
    _emit_hook(e, machine, 2, "on_walk", pc)
    e.line("elif tlb_hosts(_wa):")
    e.line("actual, _h = acache_lookup(_wa, atable)", 1)
    e.line("if not _h:", 1)
    e.line(f"shadow_access({walk}, 16)", 2)
    _emit_hook(e, machine, 2, "on_walk", pc)
    e.line("else:")
    e.line("actual = 0", 1)
    e.line(f"outcome = pred_update({hpc}, predicted, actual)")
    _emit_hook(e, machine, 0, "on_reload", pc, "predicted", "actual",
               "outcome or 'correct'")
    if machine._tracked_policy:
        e.need.update(("redirect", "tstats", "mstats"))
        e.line("if outcome == P0AN:")
        e.line(f"redirect(done, {machine._flush_penalty}, alias=True)", 1)
        e.line("tstats.squashes += 1", 1)
        _emit_hook(e, machine, 1, "on_squash", pc, "'alias'",
                   str(machine._flush_penalty))
        e.line("elif outcome == PNA0:")
        e.line("mstats.injected_uops += 1", 1)
        _emit_hook(e, machine, 1, "on_inject", pc, "1")
        e.line("mstats.zero_idioms += 1", 1)
        e.line("m.total_uops += 1", 1)
    # tracker.set_pid (no stats triage on this path)
    e.line(f"tags[{e.hole(uop.dst, 'r')}] = actual")


def _emit_load(e: _Emitter, machine, uop: Uop, pc: int,
               have_address: bool) -> None:
    e.bump()
    e.need.update(("mem_stats", "mem_pages", "t_stats", "schedule"))
    if not have_address:
        e.line(f"address = {_ea_expr(e, uop.mem)}")
    e.line("_wa = address & ~7")
    # Inlined read_word: _wa is 8-byte aligned by construction, and an
    # unmapped page reads as zero.
    e.line("mem_stats.reads += 1")
    e.line("mem_stats.bytes_read += 8")
    e.line(f"_pg = mem_pages.get(_wa >> {PAGE_SHIFT})")
    dst = e.hole(uop.dst, "r")
    e.line(f"regs[{dst}] = "
           f"_pg[(_wa & {PAGE_SIZE - 1}) >> 3] if _pg is not None else 0")
    _emit_tlb(e, machine)
    e.line("t_stats.loads += 1")
    _emit_l1d(e, machine, "_mlat")
    lsu_extra = f" + {machine._lsu_latency}" if machine._lsu else ""
    e.line(f"done = schedule({e.hole(uop.reg_reads(), 's')}, {dst}, "
           f"_mlat{lsu_extra}, 2)")
    if machine._tracks:
        policy = _policy_of(machine, uop)
        if policy in _MEMORY_POLICIES:
            _emit_resolve_reload(e, machine, uop, pc)
        else:
            _emit_apply(e, machine, uop)
    _emit_result(e, machine, uop, pc)
    if machine._lsu:
        e.flush()
        e.line(f"m._lsu_check({e.hole(uop, 'U')}, address, False, "
               f"{e.hole(pc, 'p')})")


def _emit_store(e: _Emitter, machine, uop: Uop, pc: int,
                have_address: bool) -> None:
    e.bump()
    e.need.update(("mem_stats", "mem_pages", "new_page", "t_stats",
                   "schedule"))
    if not have_address:
        e.line(f"address = {_ea_expr(e, uop.mem)}")
    e.line("_wa = address & ~7")
    data = (f"regs[{e.hole(uop.srcs[0], 'r')}]" if uop.srcs
            else e.hole(uop.imm & MASK64, "i"))
    # Inlined write_word: _wa is aligned by construction, and register
    # values are invariantly 64-bit masked (every writeback masks).
    e.line("mem_stats.writes += 1")
    e.line("mem_stats.bytes_written += 8")
    e.line(f"_pg = mem_pages.get(_wa >> {PAGE_SHIFT})")
    e.line("if _pg is None:")
    e.line(f"_pg = new_page(_wa >> {PAGE_SHIFT})", 1)
    e.line(f"_pg[(_wa & {PAGE_SIZE - 1}) >> 3] = {data}")
    _emit_tlb(e, machine)
    e.line("t_stats.stores += 1")
    _emit_l1d(e, machine, None)
    latency = 1 + (machine._lsu_latency if machine._lsu else 0)
    e.line(f"schedule({e.hole(uop.reg_reads(), 's')}, None, {latency}, 3)")
    if machine._tracks and _policy_of(machine, uop) in _MEMORY_POLICIES:
        # The alias update waits in locals for the member's end (a
        # trapping LSU check below skips it, as in ``step()``).
        if uop.srcs:
            _emit_current_pid(e, uop.srcs[0], "_spid")
            e.line(f"if _spid == {WILD_PID}:")
            e.line("_spid = 0", 1)
            e.alias_pid = "_spid"
        else:
            e.alias_pid = "0"
    # A register-policy store has no destination tag: apply() is a no-op,
    # so no residual code.
    if machine._lsu:
        e.flush()
        e.line(f"m._lsu_check({e.hole(uop, 'U')}, address, True, "
               f"{e.hole(pc, 'p')})")


def _emit_br(e: _Emitter, machine, uop: Uop, pc: int, fallthrough: int) -> None:
    cond = _COND_EXPRS.get(uop.cond)
    if cond is None:
        raise _Unsupported(f"branch condition {uop.cond!r}")
    e.bump()
    e.need.update(("schedule", "resolve_cond", "taken_branch", "redirect"))
    target, fallthrough = e.hole(uop.target, "t"), e.hole(fallthrough, "f")
    e.line(f"done = schedule({e.hole(uop.srcs, 's')}, None, 1, 0, True)")
    e.line("_f = m.flags._value_")
    e.line(f"taken = {cond}")
    e.line(f"if resolve_cond({e.hole(pc, 'p')}, taken):")
    e.line("if taken:", 1)
    e.line("taken_branch()", 2)
    e.line(f"next_rip = {target}", 2)
    e.line("else:", 1)
    e.line(f"next_rip = {fallthrough}", 2)
    e.line("else:")
    e.line(f"redirect(done, {machine._br_penalty})", 1)
    if machine._tracks:
        e.need.add("tstats")
        e.line("tstats.squashes += 1", 1)
    _emit_hook(e, machine, 1, "on_squash", pc, "'branch'",
               str(machine._br_penalty))
    e.line(f"next_rip = {target} if taken else {fallthrough}", 1)


def _emit_jmp(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    e.bump()
    e.need.update(("schedule", "taken_branch"))
    e.line(f"schedule({e.hole(uop.srcs, 's')}, None, 1)")
    if uop.subroutine:
        e.need.add("on_call")
        e.line(f"on_call({e.hole(pc + INSTR_SLOT, 'f')})")
        _emit_hook(e, machine, 0, "on_call", pc)
    e.line("taken_branch()")
    e.line(f"next_rip = {e.hole(uop.target, 't')}")


def _emit_jmp_ind(e: _Emitter, machine, uop: Uop, pc: int) -> None:
    e.bump()
    e.need.update(("schedule", "resolve_ind", "taken_branch", "redirect"))
    e.line(f"done = schedule({e.hole(uop.srcs, 's')}, None, 1)")
    e.line(f"next_rip = regs[{e.hole(uop.srcs[0], 'r')}]")
    if uop.subroutine:
        _emit_hook(e, machine, 0, "on_ret", pc)
    e.line(f"if resolve_ind({e.hole(pc, 'p')}, next_rip, "
           f"is_return={uop.subroutine}):")
    e.line("taken_branch()", 1)
    e.line("else:")
    e.line(f"redirect(done, {machine._br_penalty})", 1)
    if machine._tracks:
        e.need.add("tstats")
        e.line("tstats.squashes += 1", 1)
    _emit_hook(e, machine, 1, "on_squash", pc, "'branch'",
               str(machine._br_penalty))


def _emit_generic(e: _Emitter, entry, pc: int) -> None:
    """Plain handler call for kinds without a specialized emitter
    (host escapes, native capability uops).  None of these redirect
    fetch or set ``halted``, so the result is discarded."""
    handler, uop = entry[0], entry[1]
    e.bump()
    e.flush()  # handlers may raise
    e.line(f"{e.hole(handler, 'H')}({e.hole(uop, 'U')}, {e.hole(pc, 'p')})")


# -- driver -----------------------------------------------------------------


def _emit_member_commit(e: _Emitter, machine, retired_count: int) -> None:
    """The per-member commit epilogue: the member's store's alias update
    (``StoreBufferPids.commit`` and the broadcast in ``step()``), then
    the member's uop count and retire mark, so that a replay entered at a
    later member never counts this one's uops."""
    pid = e.alias_pid
    if pid is not None:
        e.alias_pid = None
        e.need.update(("atable_set", "acache_install", "acache_invalidate",
                       "tlb_mark", "sys_bcast"))
        e.line(f"atable_set(_wa, {pid})")
        if pid == "0":
            e.line("acache_invalidate(_wa)")
        else:
            e.line("if _spid:")
            e.line("acache_install(_wa, _spid)", 1)
            e.line("tlb_mark(_wa)", 1)
            e.line("else:")
            e.line("acache_invalidate(_wa)", 1)
        e.line(f"sys_bcast(_wa, {e.hole(machine.core_id, 'c')})")
    e.flush()
    e.line(f"retired = {retired_count}")


def compile_replay(machine, sb) -> Optional[object]:
    """Compile ``sb`` into a specialized replay function, or ``None``.

    The returned callable ``replay(m, start, stop)`` runs members
    ``start`` up to (not including) ``stop``, or to the end of the
    superblock when ``stop`` is at or past its length, and returns the
    number of members retired.  A trapping ``CapabilityException``
    unwinds with the completed members retired and ``rip`` at the
    trapping member.  Returns ``None`` when a member uses a construct
    the emitter does not specialize.
    """
    with spans.maybe("sbcompile.compile", category="core",
                     entry=f"{sb.entry:#x}", members=len(sb.members)):
        return _compile_replay(machine, sb)


def _compile_replay(machine, sb) -> Optional[object]:
    members = sb.members
    last = len(members) - 1
    try:
        e = _Emitter()
        e.need.add("regs")  # effective addresses / operands — always used
        sb_name = e.hole(sb, "SB")
        pcs_name = e.hole(tuple(member[0] for member in members), "PCS")
        fetch_width = machine.timing._fetch_width
        for k, (pc, slots, line, entries, fallthrough) in enumerate(members):
            e.indent = 3
            e.line(f"# -- member {k}")
            e.line(f"if start <= {k}:")
            e.indent = 4
            e.site()
            _emit_hook(e, machine, 0, "on_instr", pc)
            # Inlined begin_macro fetch: group packing as two compares on
            # the precomputed slot count, fetch_line only on a changed line.
            e.need.update(("timing", "t_stats", "fetch_line"))
            e.line(f"_gu = timing._group_used + {slots}")
            e.line(f"if _gu > {fetch_width}:")
            e.line("timing._fetch_cycle += 1", 1)
            e.line(f"timing._group_used = {slots}", 1)
            e.line("t_stats.fetch_groups += 1", 1)
            e.line("else:")
            e.line("timing._group_used = _gu", 1)
            line = e.hole(line, "l")
            e.line(f"if timing._last_iline != {line}:")
            e.line(f"fetch_line({line})", 1)
            for entry in entries:
                e.site()
                uop = entry[1]
                kind = uop.kind
                have_address = _emit_check_site(e, machine, entry, pc)
                if kind is UopKind.ALU:
                    _emit_alu(e, machine, uop, pc)
                elif kind is UopKind.LD:
                    _emit_load(e, machine, uop, pc, have_address)
                elif kind is UopKind.ST:
                    _emit_store(e, machine, uop, pc, have_address)
                elif kind is UopKind.MOV:
                    _emit_mov(e, machine, uop, pc)
                elif kind is UopKind.LIMM:
                    _emit_limm(e, machine, uop, pc)
                elif kind is UopKind.LEA:
                    _emit_lea(e, machine, uop, pc)
                elif kind is UopKind.NOP:
                    _emit_nop(e, machine, uop)
                elif kind is UopKind.HALT:
                    e.bump()
                    e.line("m.halted = True")
                    _emit_member_commit(e, machine, k + 1)
                    e.line(f"next_rip = {e.hole(fallthrough, 'f')}")
                    e.line("break")
                    break  # trailing entries never execute once halted
                elif kind is UopKind.BR:
                    if k != last:
                        raise _Unsupported("control uop before last member")
                    _emit_br(e, machine, uop, pc, fallthrough)
                elif kind is UopKind.JMP:
                    if k != last:
                        raise _Unsupported("control uop before last member")
                    _emit_jmp(e, machine, uop, pc)
                elif kind is UopKind.JMP_IND:
                    if k != last:
                        raise _Unsupported("control uop before last member")
                    _emit_jmp_ind(e, machine, uop, pc)
                else:
                    _emit_generic(e, entry, pc)
            else:
                _emit_member_commit(e, machine, k + 1)
                if k != last:
                    # The budget ends here: stop before the next member.
                    e.line(f"if stop == {k + 1}:")
                    e.line(f"next_rip = {pcs_name}[{k + 1}]", 1)
                    e.line("break", 1)
                elif not any(entry[1].kind in (UopKind.BR, UopKind.JMP,
                                               UopKind.JMP_IND)
                             for entry in entries):
                    e.line(f"next_rip = {e.hole(fallthrough, 'f')}")
    except _Unsupported:
        return None

    if e.need & {"schedule", "t_stats", "fetch_line", "shadow_access",
                 "taken_branch", "redirect", "l1d_sets", "l1d_stats",
                 "mem_miss"}:
        e.need.add("timing")
    prologue = [code for name, code in _PROLOGUE if name in e.need]
    src = "\n".join(
        [f"def _replay({', '.join(['m', 'start', 'stop', *e.holes])}):"]
        + ["    " + code for code in prologue]
        + [
            "    uops = 0",
            "    retired = start",
            "    try:",
            "        while True:",
        ]
        + e.body
        + [
            "            break",
            "    except CapEx:",
            "        m._superblock_bailouts += 1",
            f"        m._retire_members({sb_name}, start, retired, "
            "retired + 1)",
            f"        m.rip = {pcs_name}[retired]",
            "        raise",
            "    finally:",
            "        m.total_uops += uops",
            f"    m._retire_members({sb_name}, start, retired, retired)",
            "    m.rip = next_rip",
            "    return retired - start",
        ]
    )
    code = _CODE_CACHE.get(src)
    if code is None:
        module = compile(src, "<superblock>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        _CODE_CACHE[src] = code
    replay = FunctionType(code, _GLOBALS, "_replay", tuple(e.holes.values()))
    replay.source = src  # introspection/debugging hook
    return replay
