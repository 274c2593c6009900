"""Unit tests for the Table I pointer-tracking rule database."""

import pytest

from repro.core import (
    Chex86Machine,
    MEMORY_POLICY,
    Propagation,
    Rule,
    RuleDatabase,
    SpeculativePointerTracker,
    WILD_PID,
)
from repro.isa import Mem, Reg, assemble
from repro.microop import AddrMode, AluOp, Uop, UopKind

RAX, RBX, RCX = int(Reg.RAX), int(Reg.RBX), int(Reg.RCX)


def uop(kind, alu=None, mode=AddrMode.REG_REG, sources=2):
    """A uop writing rax from rbx (and rcx), addressing through rdx."""
    return Uop(kind, alu=alu, addr_mode=mode, srcs=(RBX, RCX)[:sources],
               dst=RAX, mem=Mem(base=Reg.RDX))


def propagate(db, uop, pids=(), base_pid=0):
    """The destination PID the machine's tracker gives ``uop`` when its
    sources carry ``pids`` and its address base ``base_pid``, or
    :data:`MEMORY_POLICY` where the rule defers to the alias subsystem."""
    tracker = SpeculativePointerTracker(db)
    for reg, pid in zip(uop.srcs, pids):
        tracker.set_pid(reg, pid)
    tracker.set_pid(int(uop.mem.base), base_pid)
    result = tracker.apply(uop)
    if result is not MEMORY_POLICY:
        assert result == tracker.current_pid(RAX)
    return result


@pytest.fixture
def db():
    return RuleDatabase.table1()


class TestTable1Propagation:
    def test_mov_copies_pid(self, db):
        assert propagate(db, uop(UopKind.MOV, sources=1), (5,)) == 5

    def test_add_rr_takes_nonzero_source(self, db):
        add = uop(UopKind.ALU, AluOp.ADD)
        assert propagate(db, add, (0, 7)) == 7
        assert propagate(db, add, (7, 0)) == 7

    def test_add_rr_wild_loses_to_real_pid(self, db):
        add = uop(UopKind.ALU, AluOp.ADD)
        assert propagate(db, add, (WILD_PID, 7)) == 7
        assert propagate(db, add, (7, WILD_PID)) == 7

    def test_add_rr_two_real_pids_keep_the_first(self, db):
        add = uop(UopKind.ALU, AluOp.ADD)
        assert propagate(db, add, (3, 8)) == 3
        assert propagate(db, add, (8, 3)) == 8

    def test_add_ri_keeps_source(self, db):
        add = uop(UopKind.ALU, AluOp.ADD, AddrMode.REG_IMM, sources=1)
        assert propagate(db, add, (9,)) == 9

    def test_sub_always_first_source(self, db):
        sub = uop(UopKind.ALU, AluOp.SUB)
        assert propagate(db, sub, (3, 8)) == 3  # ptr - ptr keeps the minuend
        assert propagate(db, sub, (0, 8)) == 0

    def test_and_masks_keep_pointer(self, db):
        and_rr = uop(UopKind.ALU, AluOp.AND)
        assert propagate(db, and_rr, (4, 0)) == 4
        and_ri = uop(UopKind.ALU, AluOp.AND, AddrMode.REG_IMM, sources=1)
        assert propagate(db, and_ri, (4,)) == 4

    def test_lea_takes_base_register(self, db):
        lea = uop(UopKind.LEA, sources=0)
        assert propagate(db, lea, (), base_pid=6) == 6

    def test_movi_is_wild(self, db):
        limm = uop(UopKind.LIMM, mode=AddrMode.REG_IMM, sources=0)
        assert propagate(db, limm, ()) == WILD_PID

    def test_loads_and_stores_defer_to_memory(self, db):
        load = uop(UopKind.LD, mode=AddrMode.REG_MEM, sources=0)
        assert propagate(db, load, ()) is MEMORY_POLICY
        store = uop(UopKind.ST, mode=AddrMode.REG_MEM, sources=1)
        assert propagate(db, store, (5,)) is MEMORY_POLICY

    def test_other_ops_zero_the_pid(self, db):
        xor = uop(UopKind.ALU, AluOp.XOR)
        assert propagate(db, xor, (5, 5)) == 0
        mul = uop(UopKind.ALU, AluOp.MUL)
        assert propagate(db, mul, (5, 2)) == 0


class TestConfigurability:
    def test_seed_is_small(self):
        assert len(RuleDatabase.seed()) == 3

    def test_add_records_field_update(self):
        db = RuleDatabase.seed()
        rule = Rule("test-or", UopKind.ALU, Propagation.NONZERO_SRC, alu=AluOp.OR)
        db.add(rule)
        assert "test-or" in db.field_updates
        assert propagate(db, uop(UopKind.ALU, AluOp.OR), (0, 3)) == 3

    def test_duplicate_add_rejected(self):
        db = RuleDatabase.table1()
        with pytest.raises(ValueError):
            db.add(Rule("mov-again", UopKind.MOV, Propagation.COPY_SRC,
                        addr_mode=AddrMode.REG_REG))

    def test_remove_rule(self):
        db = RuleDatabase.table1()
        db.remove("movi")
        limm = uop(UopKind.LIMM, mode=AddrMode.REG_IMM, sources=0)
        assert propagate(db, limm, ()) == 0

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            RuleDatabase.table1().remove("no-such-rule")

    def test_memo_invalidated_on_add(self):
        db = RuleDatabase.seed()
        or_uop = uop(UopKind.ALU, AluOp.OR)
        assert propagate(db, or_uop, (0, 3)) == 0  # memoized default
        db.add(Rule("or-rr", UopKind.ALU, Propagation.NONZERO_SRC, alu=AluOp.OR))
        assert propagate(db, or_uop, (0, 3)) == 3


class TestReporting:
    def test_table_rows_cover_all_rules_plus_default(self):
        db = RuleDatabase.table1()
        rows = db.to_rows()
        assert len(rows) == len(db) + 1
        assert rows[-1]["uop"] == "all other operations"

    def test_learned_rules_marked(self):
        rows = RuleDatabase.table1().to_rows()
        by_name = {(r["uop"], r["addr_mode"]): r["learned"] for r in rows}
        assert by_name[("mov", "reg-reg")] is False  # expert seed
        assert by_name[("ld", "any")] is True        # checker-learned


# Each Table I row and the default row, run as ``<op>; halt`` on both
# executors: the assembly line, the tags seeded onto its registers, the
# PID expected in the destination (a register, or for ``st`` the alias
# entry at ``buf``), and the tracker counters the run must leave.  ``P``
# is the PID of ``buf`` (which rbx points into) and ``Q`` that of
# ``obj``; ``mem`` seeds the alias entry at ``buf``.  Loads that reload a
# pointer the predictor has never seen take one P0AN flush (a squash).
P, Q = "P", "Q"
RDX = int(Reg.RDX)
TABLE1_CASES = {
    "mov-rr": ("mov rax, rbx", {RBX: Q}, None, RAX, Q, {"transfers": 1}),
    "add-rr": ("add rax, rbx", {RAX: P, RBX: Q}, None, RAX, P,
               {"transfers": 1}),
    "add-ri": ("add rax, 4", {RAX: P}, None, RAX, P, {"transfers": 1}),
    "and-rr": ("and rax, rbx", {RAX: P, RBX: Q}, None, RAX, P,
               {"transfers": 1}),
    "and-ri": ("and rax, 0xffff0000", {RAX: P}, None, RAX, P,
               {"transfers": 1}),
    "lea": ("lea rax, [rbx + 8]", {RBX: P}, None, RAX, P, {"transfers": 1}),
    "add-rm": ("add rax, [rbx]", {RAX: P, RBX: P}, Q, RAX, P,
               {"transfers": 1, "squashes": 1}),
    "sub-rr": ("sub rax, rbx", {RAX: P, RBX: Q}, None, RAX, P,
               {"transfers": 1}),
    "sub-ri": ("sub rax, 4", {RAX: P}, None, RAX, P, {"transfers": 1}),
    "ld": ("mov rax, [rbx]", {RBX: P}, Q, RAX, Q, {"squashes": 1}),
    "st": ("mov [rbx], rdx", {RBX: P, RDX: Q}, None, "mem", Q, {}),
    "movi": ("mov rax, 0x7fff1000", {}, None, RAX, WILD_PID,
             {"wild_assignments": 1}),
    "default": ("xor rax, rbx", {RAX: P, RBX: Q}, None, RAX, 0,
                {"zeroed": 1}),
}


def _table1_machine(line, tags, mem, replay):
    program = assemble(f".global buf, 64\n.global obj, 16\nmain:\n"
                       f"  {line}\n  halt\n", name="table1")
    machine = Chex86Machine(program)
    if replay:
        machine.superblock_compile_entry = 1
    else:
        machine.block_cache_enabled = False
    pids = {P: machine._global_pids["buf"], Q: machine._global_pids["obj"]}
    buf = program.labels["buf"]
    machine.regs[RBX] = buf
    for reg, pid in tags.items():
        machine.tracker.set_pid(reg, pids.get(pid, pid))
    if mem is not None:
        machine.alias_table.set(buf, pids[mem])
        machine.tlb.mark_alias_hosting(buf)
    return machine, pids, buf


class TestTable1OnBothExecutors:
    def test_every_row_has_a_case(self):
        names = {rule.name for rule in RuleDatabase.table1()}
        assert set(TABLE1_CASES) == names | {"default"}

    @pytest.mark.parametrize("name", sorted(TABLE1_CASES))
    def test_row(self, name):
        line, tags, mem, dst, expected, counters = TABLE1_CASES[name]
        results = []
        for replay in (False, True):
            machine, pids, buf = _table1_machine(line, tags, mem, replay)
            # The op decodes to a uop the row's rule matches.
            db = machine.tracker.rules
            uops, _ = machine.decoder.decode(
                machine.program.instrs[0], machine.rip, 0)
            matched = {rule.name if rule else "default"
                       for rule in map(db.lookup, uops)}
            assert name in matched
            machine.run()
            assert machine.halted and not machine.violations.flagged
            replayed = machine.metrics_snapshot()[
                "frontend.superblock_instructions"]
            assert replayed == (2 if replay else 0)
            tag = (machine.alias_table.peek(buf) if dst == "mem"
                   else machine.tracker.current_pid(dst))
            assert tag == pids.get(expected, expected)
            stats = machine.tracker.stats.state()
            assert stats == {"transfers": 0, "wild_assignments": 0,
                             "zeroed": 0, "commits": 2, "squashes": 0,
                             "squashed_tags": 0, **counters}
            results.append((tag, stats))
        assert results[0] == results[1]
