//! The compiled simulation engine: dense state indexed by [`SignalId`],
//! levelized combinational settling, and edge-triggered processes with
//! non-blocking assignment semantics.
//!
//! The hot loops (`poke`/`tick`/`settle`) contain no string-keyed map
//! lookups, no string clones, and no AST clones: everything was resolved to
//! ids and precomputed widths by [`crate::compile`]. The tree-walking
//! interpreter this replaced survives as [`crate::ReferenceSimulator`] and
//! the two are pinned bit-for-bit equivalent by the equivalence tests.

use crate::compile::{
    compile, CCaseArm, CExpr, CLValue, CStmt, CombNode, CompiledDesign, SignalId,
};
use crate::elab::Design;
use crate::error::{SimError, SimResult};
use crate::fault::Fuel;
use rtlb_verilog::ast::{BinaryOp, Edge, UnaryOp};
use rtlb_verilog::mask;
use std::sync::Arc;

/// Maximum `for`-loop iterations before aborting.
const LOOP_LIMIT: u32 = 65_536;

/// An RTL simulator executing a compiled design.
///
/// The execution model is two-phase per clock edge: all edge-sensitive
/// processes run against pre-edge state with non-blocking assignments
/// queued, the queue is committed atomically, then combinational logic
/// settles — in one levelized sweep when the design is acyclic, or by
/// bounded fixpoint iteration otherwise.
///
/// # Examples
///
/// ```
/// let m = rtlb_verilog::parse_module(
///     "module inv (input a, output y); assign y = ~a; endmodule",
/// ).expect("parses");
/// let design = rtlb_sim::elaborate(&m, &[]).expect("elaborates");
/// let mut sim = rtlb_sim::Simulator::new(design).expect("initializes");
/// sim.poke("a", 1).expect("poke");
/// assert_eq!(sim.peek("y"), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    compiled: Arc<CompiledDesign>,
    values: Vec<u64>,
    memories: Vec<Vec<u64>>,
    /// Settle-sweep fuel: bounds total combinational work over this
    /// instance's lifetime, so a hostile completion cannot spin the grid
    /// (see [`crate::Budget::settle_sweeps`]).
    fuel: Fuel,
}

/// A non-blocking assignment with its target indices pre-resolved at
/// evaluation time (Verilog captures RHS and index values at the moment the
/// statement executes).
#[derive(Debug, Clone)]
enum CPending {
    Whole(SignalId, u64),
    MemWord(u32, u64, u64),
    Bit(SignalId, i64, u64),
    Slice(SignalId, i64, u32, u64),
    /// Write to an undeclared signal: the error surfaces at commit time,
    /// matching the interpreter.
    Err(String),
}

impl Simulator {
    /// Compiles `design` and creates a simulator with all state zeroed and
    /// combinational logic settled.
    ///
    /// # Errors
    ///
    /// Fails when initial settling encounters an evaluation error or a
    /// combinational loop.
    pub fn new(design: Design) -> SimResult<Self> {
        Self::from_compiled(Arc::new(compile(&design)?))
    }

    /// Creates a simulator over an already-compiled design, sharing the
    /// compilation across instances (the harness compiles each golden model
    /// once and reuses it for every trial).
    ///
    /// # Errors
    ///
    /// Fails like [`Simulator::new`] on initial settling.
    pub fn from_compiled(compiled: Arc<CompiledDesign>) -> SimResult<Self> {
        let values = vec![0u64; compiled.signal_count()];
        let memories = compiled
            .mem_depths
            .iter()
            .map(|(_, depth)| vec![0u64; *depth as usize])
            .collect();
        let fuel = Fuel::new(
            "settle sweeps",
            crate::fault::current_budget().settle_sweeps,
        );
        let mut sim = Simulator {
            compiled,
            values,
            memories,
            fuel,
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The elaborated design under simulation.
    pub fn design(&self) -> &Design {
        self.compiled.design()
    }

    /// The compiled design under simulation.
    pub fn compiled(&self) -> &Arc<CompiledDesign> {
        &self.compiled
    }

    /// Reads a signal's current value (`None` for unknown names and
    /// memories, which have no scalar value).
    pub fn peek(&self, name: &str) -> Option<u64> {
        let id = self.compiled.signal_id(name)?;
        if self.compiled.signal(id).mem.is_some() {
            return None;
        }
        Some(self.values[id.index()])
    }

    /// Reads a signal by its resolved [`SignalId`], skipping the name
    /// lookup — the form the equivalence harness uses on its per-cycle
    /// compare path. The id must come from this design's
    /// [`CompiledDesign::signal_id`] and must not name a memory.
    pub fn peek_id(&self, id: SignalId) -> u64 {
        self.values[id.index()]
    }

    /// Reads one word of a memory.
    pub fn peek_memory(&self, name: &str, index: usize) -> Option<u64> {
        let id = self.compiled.signal_id(name)?;
        let mem = self.compiled.signal(id).mem?;
        self.memories[mem as usize].get(index).copied()
    }

    /// Drives a top-level signal. Edge-sensitive processes watching the
    /// signal fire on the implied transition, then combinational logic
    /// settles.
    ///
    /// # Errors
    ///
    /// Fails on unknown signals, evaluation errors, or combinational loops.
    pub fn poke(&mut self, name: &str, value: u64) -> SimResult<()> {
        let id = self
            .compiled
            .signal_id(name)
            .ok_or_else(|| SimError::Eval(format!("poke of unknown signal `{name}`")))?;
        self.poke_id(id, value)
    }

    /// Drives a signal by its resolved [`SignalId`], skipping the name
    /// lookup — the form the equivalence harness uses on its per-cycle
    /// stimulus path. The id must come from this design's
    /// [`CompiledDesign::signal_id`].
    ///
    /// # Errors
    ///
    /// Fails like [`Simulator::poke`] on evaluation errors or combinational
    /// loops.
    pub(crate) fn poke_id(&mut self, id: SignalId, value: u64) -> SimResult<()> {
        let new = value & mask(self.compiled.signal(id).width);
        let old = self.values[id.index()];
        self.values[id.index()] = new;
        if old == new {
            return self.settle();
        }
        let edge = if old == 0 && new != 0 {
            Some(Edge::Pos)
        } else if old != 0 && new == 0 {
            Some(Edge::Neg)
        } else {
            None
        };
        if let Some(edge) = edge {
            self.fire_edge(id, edge)?;
        }
        self.settle()
    }

    /// Applies one full clock cycle: rising edge then falling edge.
    ///
    /// # Errors
    ///
    /// Fails like [`Simulator::poke`].
    pub fn tick(&mut self, clock: &str) -> SimResult<()> {
        self.poke(clock, 1)?;
        self.poke(clock, 0)
    }

    /// Runs `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Fails like [`Simulator::tick`].
    pub fn run(&mut self, clock: &str, n: u32) -> SimResult<()> {
        for _ in 0..n {
            self.tick(clock)?;
        }
        Ok(())
    }

    /// Runs all processes sensitive to `edge` on `signal`, committing
    /// non-blocking writes atomically afterwards.
    fn fire_edge(&mut self, signal: SignalId, edge: Edge) -> SimResult<()> {
        let compiled = Arc::clone(&self.compiled);
        let mut pending: Vec<CPending> = Vec::new();
        for proc in &compiled.edge_procs {
            let hit = proc.edges.iter().any(|(s, e)| *s == signal && *e == edge);
            if hit {
                self.exec_stmt(&proc.body, &mut pending)?;
            }
        }
        let mut changed = false;
        self.commit(pending, &mut changed)
    }

    /// Settles combinational logic.
    ///
    /// With a levelized schedule this is a single ordered sweep; otherwise
    /// the compiled nodes iterate in program order to fixpoint, exactly like
    /// the reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombLoop`] when the fallback iteration bound is
    /// exceeded.
    pub fn settle(&mut self) -> SimResult<()> {
        crate::fault::inject(crate::fault::FaultSite::Settle)?;
        crate::fault::check_deadline()?;
        let compiled = Arc::clone(&self.compiled);
        if let Some(order) = &compiled.schedule {
            self.fuel.charge()?;
            for &i in order {
                let mut changed = false;
                self.run_comb_node(&compiled.comb[i as usize], &mut changed)?;
            }
            return Ok(());
        }
        for _ in 0..compiled.settle_limit {
            self.fuel.charge()?;
            // Convergence is judged on *net* state change across the pass
            // (the interpreter compares state fingerprints at pass
            // boundaries): transient intra-pass writes — a `for`-loop
            // counter re-initialized each pass, an early driver overridden
            // by a later one — must not keep the loop alive. Per-write
            // flags only short-circuit the snapshot comparison when nothing
            // was written at all.
            let mut changed = false;
            let before_values = self.values.clone();
            let before_memories = self.memories.clone();
            for node in &compiled.comb {
                self.run_comb_node(node, &mut changed)?;
            }
            if !changed || (self.values == before_values && self.memories == before_memories) {
                return Ok(());
            }
        }
        Err(SimError::CombLoop {
            iterations: compiled.settle_limit,
        })
    }

    fn run_comb_node(&mut self, node: &CombNode, changed: &mut bool) -> SimResult<()> {
        match node {
            CombNode::Assign(lhs, rhs) => {
                let v = self.eval(rhs)?;
                self.assign(lhs, v, changed)
            }
            CombNode::Proc(body) => {
                // Combinational processes use blocking semantics; stray
                // non-blocking assignments are committed immediately.
                let mut pending = Vec::new();
                self.exec_comb_stmt(body, &mut pending, changed)?;
                self.commit(pending, changed)
            }
        }
    }

    fn commit(&mut self, pending: Vec<CPending>, changed: &mut bool) -> SimResult<()> {
        for w in pending {
            match w {
                CPending::Whole(id, v) => {
                    let width = self.compiled.signal(id).width;
                    self.write_value(id, v & mask(width), changed);
                }
                CPending::MemWord(mem, idx, v) => {
                    let width = self.mem_width(mem);
                    if let Some(slot) = self.memories[mem as usize].get_mut(idx as usize) {
                        let new = v & mask(width);
                        if *slot != new {
                            *slot = new;
                            *changed = true;
                        }
                    }
                }
                CPending::Bit(id, b0, v) => {
                    if b0 >= 0 {
                        // The interpreter re-resolves the stored offset
                        // through the assignment path, subtracting the
                        // declared lsb a second time; mirror that exactly.
                        let bit = b0 - self.compiled.signal(id).lsb;
                        if (0..64).contains(&bit) {
                            let slot = self.values[id.index()];
                            let new = (slot & !(1 << bit)) | ((v & 1) << bit);
                            self.write_value(id, new, changed);
                        }
                    }
                }
                CPending::Slice(id, lo, w, v) => {
                    if lo >= 0 {
                        let sig = self.compiled.signal(id);
                        let (width, siglsb) = (sig.width, sig.lsb);
                        let hi2 = lo + i64::from(w) - 1 - siglsb;
                        let lo2 = lo - siglsb;
                        if (0..=63).contains(&lo2) {
                            let w2 = ((hi2 - lo2) + 1).min(64) as u32;
                            let field = mask(w2) << lo2;
                            let slot = self.values[id.index()];
                            let new = ((slot & !field) | ((v & mask(w2)) << lo2)) & mask(width);
                            self.write_value(id, new, changed);
                        }
                    }
                }
                CPending::Err(msg) => return Err(SimError::Eval(msg)),
            }
        }
        Ok(())
    }

    #[inline]
    fn write_value(&mut self, id: SignalId, new: u64, changed: &mut bool) {
        let slot = &mut self.values[id.index()];
        if *slot != new {
            *slot = new;
            *changed = true;
        }
    }

    fn mem_width(&self, mem: u32) -> u32 {
        let (id, _) = self.compiled.mem_depths[mem as usize];
        self.compiled.signal(id).width
    }

    /// Executes a procedural statement for an edge process (change tracking
    /// not needed on clock edges).
    fn exec_stmt(&mut self, stmt: &CStmt, pending: &mut Vec<CPending>) -> SimResult<()> {
        let mut changed = false;
        self.exec_comb_stmt(stmt, pending, &mut changed)
    }

    /// Executes a procedural statement. Blocking assignments apply
    /// immediately; non-blocking assignments are queued with indices
    /// resolved now.
    fn exec_comb_stmt(
        &mut self,
        stmt: &CStmt,
        pending: &mut Vec<CPending>,
        changed: &mut bool,
    ) -> SimResult<()> {
        match stmt {
            CStmt::Block(stmts) => {
                for s in stmts {
                    self.exec_comb_stmt(s, pending, changed)?;
                }
                Ok(())
            }
            CStmt::If {
                cond_width,
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)? & mask(*cond_width);
                if c != 0 {
                    self.exec_comb_stmt(then_branch, pending, changed)
                } else if let Some(e) = else_branch {
                    self.exec_comb_stmt(e, pending, changed)
                } else {
                    Ok(())
                }
            }
            CStmt::Case {
                subj_width,
                subject,
                arms,
                default,
            } => {
                let sv = self.eval(subject)? & mask(*subj_width);
                for CCaseArm { labels, body } in arms {
                    for label in labels {
                        let lv = self.eval(label)? & mask(*subj_width);
                        if lv == sv {
                            return self.exec_comb_stmt(body, pending, changed);
                        }
                    }
                }
                if let Some(d) = default {
                    self.exec_comb_stmt(d, pending, changed)
                } else {
                    Ok(())
                }
            }
            CStmt::NonBlocking { lhs, rhs } => {
                let v = self.eval(rhs)?;
                self.queue_write(lhs, v, pending)
            }
            CStmt::Blocking { lhs, rhs } => {
                let v = self.eval(rhs)?;
                self.assign(lhs, v, changed)
            }
            CStmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let v0 = self.eval(init)?;
                self.assign(var, v0, changed)?;
                let mut iters = 0u32;
                loop {
                    let c = self.eval(cond)?;
                    if c == 0 {
                        break;
                    }
                    self.exec_comb_stmt(body, pending, changed)?;
                    let next = self.eval(step)?;
                    self.assign(var, next, changed)?;
                    iters += 1;
                    if iters > LOOP_LIMIT {
                        return Err(SimError::LoopBound { limit: LOOP_LIMIT });
                    }
                }
                Ok(())
            }
            CStmt::Nop => Ok(()),
        }
    }

    /// Queues a non-blocking write, resolving target indices now.
    fn queue_write(
        &mut self,
        lhs: &CLValue,
        value: u64,
        pending: &mut Vec<CPending>,
    ) -> SimResult<()> {
        match lhs {
            CLValue::Whole(id, _) => {
                pending.push(CPending::Whole(*id, value));
                Ok(())
            }
            CLValue::MemWord { mem, index, .. } => {
                let idx = self.eval(index)?;
                pending.push(CPending::MemWord(*mem, idx, value));
                Ok(())
            }
            CLValue::Bit { sig, lsb, index } => {
                let idx = self.eval(index)?;
                pending.push(CPending::Bit(*sig, idx as i64 - lsb, value));
                Ok(())
            }
            CLValue::Slice {
                sig,
                lsb,
                msb,
                lsbx,
                ..
            } => {
                let m = self.eval(msb)? as i64 - lsb;
                let l = self.eval(lsbx)? as i64 - lsb;
                let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                let w = ((hi - lo) + 1).min(64) as u32;
                pending.push(CPending::Slice(*sig, lo, w, value));
                Ok(())
            }
            CLValue::Concat { total, parts } => {
                let mut remaining = *total;
                for (w, p) in parts {
                    remaining = remaining.saturating_sub(*w);
                    let chunk = (value >> remaining) & mask(*w);
                    self.queue_write(p, chunk, pending)?;
                }
                Ok(())
            }
            CLValue::UnknownIdent(name) => {
                pending.push(CPending::Err(format!("write to unknown signal `{name}`")));
                Ok(())
            }
            CLValue::UnknownIndex { name, index } => {
                self.eval(index)?;
                Err(SimError::Eval(format!(
                    "non-blocking write to unknown signal `{name}`"
                )))
            }
            CLValue::UnknownSlice(name) => Err(SimError::Eval(format!(
                "non-blocking write to unknown signal `{name}`"
            ))),
        }
    }

    /// Writes `value` through an lvalue with blocking semantics, masking to
    /// the target width.
    fn assign(&mut self, lv: &CLValue, value: u64, changed: &mut bool) -> SimResult<()> {
        match lv {
            CLValue::Whole(id, width) => {
                self.write_value(*id, value & mask(*width), changed);
                Ok(())
            }
            CLValue::MemWord { mem, width, index } => {
                let idx = self.eval(index)?;
                if let Some(slot) = self.memories[*mem as usize].get_mut(idx as usize) {
                    let new = value & mask(*width);
                    if *slot != new {
                        *slot = new;
                        *changed = true;
                    }
                }
                Ok(())
            }
            CLValue::Bit { sig, lsb, index } => {
                let idx = self.eval(index)?;
                let bit = (idx as i64) - lsb;
                if !(0..64).contains(&bit) {
                    return Ok(());
                }
                let slot = self.values[sig.index()];
                let new = (slot & !(1 << bit)) | ((value & 1) << bit);
                self.write_value(*sig, new, changed);
                Ok(())
            }
            CLValue::Slice {
                sig,
                width,
                lsb,
                msb,
                lsbx,
            } => {
                let m = self.eval(msb)? as i64 - lsb;
                let l = self.eval(lsbx)? as i64 - lsb;
                let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                if !(0..=63).contains(&lo) {
                    return Ok(());
                }
                let w = ((hi - lo) + 1).min(64) as u32;
                let field = mask(w) << lo;
                let slot = self.values[sig.index()];
                let new = ((slot & !field) | ((value & mask(w)) << lo)) & mask(*width);
                self.write_value(*sig, new, changed);
                Ok(())
            }
            CLValue::Concat { total, parts } => {
                let mut remaining = *total;
                for (w, p) in parts {
                    remaining = remaining.saturating_sub(*w);
                    let chunk = (value >> remaining) & mask(*w);
                    self.assign(p, chunk, changed)?;
                }
                Ok(())
            }
            CLValue::UnknownIdent(name) | CLValue::UnknownSlice(name) => {
                Err(SimError::Eval(format!("write to unknown signal `{name}`")))
            }
            CLValue::UnknownIndex { name, index } => {
                self.eval(index)?;
                Err(SimError::Eval(format!("write to unknown signal `{name}`")))
            }
        }
    }

    /// Evaluates a compiled expression against the dense state. The result
    /// is **not** masked to the expression width except where structurally
    /// required, so carries survive into wider assignment targets — exactly
    /// the reference interpreter's semantics.
    fn eval(&self, expr: &CExpr) -> SimResult<u64> {
        match expr {
            CExpr::Lit(v) => Ok(*v),
            CExpr::Sig(id) => Ok(self.values[id.index()]),
            CExpr::MemRead { mem, index } => {
                let idx = self.eval(index)?;
                Ok(self.memories[*mem as usize]
                    .get(idx as usize)
                    .copied()
                    .unwrap_or(0))
            }
            CExpr::BitRead { sig, lsb, index } => {
                let idx = self.eval(index)?;
                let v = self.values[sig.index()];
                let bit = (idx as i64) - lsb;
                if !(0..64).contains(&bit) {
                    return Ok(0);
                }
                Ok((v >> bit) & 1)
            }
            CExpr::SliceRead {
                value,
                lsb,
                msb,
                lsbx,
            } => {
                let v = value.map_or(0, |id| self.values[id.index()]);
                let m = self.eval(msb)? as i64 - lsb;
                let l = self.eval(lsbx)? as i64 - lsb;
                let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                if !(0..=63).contains(&lo) {
                    return Ok(0);
                }
                let w = ((hi - lo) + 1).min(64) as u32;
                Ok((v >> lo) & mask(w))
            }
            CExpr::Concat(parts) => {
                let mut acc: u64 = 0;
                for (w, p) in parts {
                    let v = self.eval(p)? & mask(*w);
                    acc = (acc << (*w).min(63)) | v;
                }
                Ok(acc)
            }
            CExpr::Repeat {
                width,
                count,
                value,
            } => {
                let c = self.eval(count)?;
                let v = self.eval(value)? & mask(*width);
                let mut acc: u64 = 0;
                for _ in 0..c.min(64) {
                    acc = (acc << (*width).min(63)) | v;
                }
                Ok(acc)
            }
            CExpr::Unary { op, width, arg } => {
                let w = *width;
                let v = self.eval(arg)? & mask(w);
                Ok(match op {
                    UnaryOp::LogicalNot => u64::from(v == 0),
                    UnaryOp::BitNot => !v & mask(w),
                    UnaryOp::Neg => v.wrapping_neg(),
                    UnaryOp::ReduceAnd => u64::from(v == mask(w)),
                    UnaryOp::ReduceOr => u64::from(v != 0),
                    UnaryOp::ReduceXor => u64::from(v.count_ones() % 2 == 1),
                    UnaryOp::ReduceNand => u64::from(v != mask(w)),
                    UnaryOp::ReduceNor => u64::from(v == 0),
                    UnaryOp::ReduceXnor => u64::from(v.count_ones().is_multiple_of(2)),
                })
            }
            CExpr::Binary {
                op,
                cmp_width,
                lhs,
                rhs,
            } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                // Comparison operands are masked to their common width so
                // that intermediate unmasked arithmetic cannot leak into
                // equality.
                let am = a & mask(*cmp_width);
                let bm = b & mask(*cmp_width);
                Ok(match op {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Sub => a.wrapping_sub(b),
                    BinaryOp::Mul => a.wrapping_mul(b),
                    BinaryOp::Div => am.checked_div(bm).unwrap_or(0),
                    BinaryOp::Mod => am.checked_rem(bm).unwrap_or(0),
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    BinaryOp::BitXor => a ^ b,
                    BinaryOp::BitXnor => !(a ^ b) & mask(*cmp_width),
                    BinaryOp::LogicalAnd => u64::from(am != 0 && bm != 0),
                    BinaryOp::LogicalOr => u64::from(am != 0 || bm != 0),
                    BinaryOp::Eq => u64::from(am == bm),
                    BinaryOp::Ne => u64::from(am != bm),
                    BinaryOp::Lt => u64::from(am < bm),
                    BinaryOp::Le => u64::from(am <= bm),
                    BinaryOp::Gt => u64::from(am > bm),
                    BinaryOp::Ge => u64::from(am >= bm),
                    BinaryOp::Shl => {
                        if bm >= 64 {
                            0
                        } else {
                            am.wrapping_shl(bm as u32)
                        }
                    }
                    BinaryOp::Shr => {
                        if bm >= 64 {
                            0
                        } else {
                            am.wrapping_shr(bm as u32)
                        }
                    }
                })
            }
            CExpr::Ternary {
                cond_width,
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.eval(cond)? & mask(*cond_width);
                if c != 0 {
                    self.eval(then_expr)
                } else {
                    self.eval(else_expr)
                }
            }
            CExpr::Clog2(arg) => {
                let v = self.eval(arg)?;
                Ok(rtlb_verilog::clog2(v))
            }
            CExpr::Error(msg) => Err(SimError::Eval(msg.clone())),
            CExpr::IndexError { index, msg } => {
                self.eval(index)?;
                Err(SimError::Eval(msg.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use rtlb_verilog::parse;

    fn sim_of(src: &str) -> Simulator {
        let file = parse(src).unwrap();
        let top = file.modules.last().unwrap();
        let design = elaborate(top, &file.modules).unwrap();
        Simulator::new(design).unwrap()
    }

    #[test]
    fn combinational_inverter() {
        let mut sim = sim_of("module inv(input a, output y); assign y = ~a; endmodule");
        assert_eq!(sim.peek("y"), Some(1));
        sim.poke("a", 1).unwrap();
        assert_eq!(sim.peek("y"), Some(0));
    }

    #[test]
    fn dff_updates_on_posedge_only() {
        let mut sim = sim_of(
            "module dff(input clk, input d, output reg q);\n\
             always @(posedge clk) q <= d;\nendmodule",
        );
        sim.poke("d", 1).unwrap();
        assert_eq!(sim.peek("q"), Some(0));
        sim.poke("clk", 1).unwrap();
        assert_eq!(sim.peek("q"), Some(1));
        sim.poke("clk", 0).unwrap();
        sim.poke("d", 0).unwrap();
        assert_eq!(sim.peek("q"), Some(1));
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(0));
    }

    #[test]
    fn negedge_dff() {
        let mut sim = sim_of(
            "module ndff(input clk, input d, output reg q);\n\
             always @(negedge clk) q <= d;\nendmodule",
        );
        sim.poke("d", 1).unwrap();
        sim.poke("clk", 1).unwrap();
        assert_eq!(sim.peek("q"), Some(0), "posedge must not update negedge ff");
        sim.poke("clk", 0).unwrap();
        assert_eq!(sim.peek("q"), Some(1));
    }

    #[test]
    fn nba_swap_is_atomic() {
        let mut sim = sim_of(
            "module swap(input clk, input load, input [3:0] x, output reg [3:0] a, output reg [3:0] b);\n\
             always @(posedge clk) begin\n\
               if (load) begin a <= x; b <= 4'b0000; end\n\
               else begin a <= b; b <= a; end\nend\nendmodule",
        );
        sim.poke("load", 1).unwrap();
        sim.poke("x", 0b1010).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("a"), Some(0b1010));
        assert_eq!(sim.peek("b"), Some(0));
        sim.poke("load", 0).unwrap();
        sim.tick("clk").unwrap();
        // True swap: both read pre-edge values.
        assert_eq!(sim.peek("a"), Some(0));
        assert_eq!(sim.peek("b"), Some(0b1010));
    }

    #[test]
    fn async_reset() {
        let mut sim = sim_of(
            "module c(input clk, input rst, output reg [3:0] q);\n\
             always @(posedge clk or posedge rst) begin\n\
               if (rst) q <= 4'b0000; else q <= q + 1;\nend\nendmodule",
        );
        sim.tick("clk").unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(2));
        sim.poke("rst", 1).unwrap();
        assert_eq!(sim.peek("q"), Some(0), "async reset applies without clock");
        sim.poke("rst", 0).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(1));
    }

    #[test]
    fn memory_module_behaviour() {
        // The paper's Fig. 1 clean memory module.
        let mut sim = sim_of(
            "module memory_unit (clk, address, data_in, data_out, read_en, write_en);\n\
             input wire clk, read_en, write_en;\n\
             input wire [15:0] data_in;\n\
             output reg [15:0] data_out;\n\
             input wire [7:0] address;\n\
             reg [15:0] memory [0:255];\n\
             always @(posedge clk) begin\n\
               if (write_en) memory[address] <= data_in;\n\
               if (read_en) data_out <= memory[address];\n\
             end\nendmodule",
        );
        sim.poke("address", 0x42).unwrap();
        sim.poke("data_in", 0xBEEF).unwrap();
        sim.poke("write_en", 1).unwrap();
        sim.tick("clk").unwrap();
        sim.poke("write_en", 0).unwrap();
        sim.poke("read_en", 1).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("data_out"), Some(0xBEEF));
        assert_eq!(sim.peek_memory("memory", 0x42), Some(0xBEEF));
    }

    #[test]
    fn write_then_read_same_cycle_returns_old_word() {
        let mut sim = sim_of(
            "module m(input clk, input [7:0] a, input [15:0] d, input we, input re, output reg [15:0] q);\n\
             reg [15:0] mem [0:255];\n\
             always @(posedge clk) begin\n\
               if (we) mem[a] <= d;\n\
               if (re) q <= mem[a];\n\
             end\nendmodule",
        );
        sim.poke("a", 5).unwrap();
        sim.poke("d", 0x1111).unwrap();
        sim.poke("we", 1).unwrap();
        sim.poke("re", 1).unwrap();
        sim.tick("clk").unwrap();
        // NBA: the read sees the pre-edge memory content (0).
        assert_eq!(sim.peek("q"), Some(0));
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(0x1111));
    }

    #[test]
    fn hierarchical_adder() {
        let src = "module full_adder(input a, input b, input cin, output sum, output cout);\n\
                   assign sum = a ^ b ^ cin;\n\
                   assign cout = (a & b) | (b & cin) | (a & cin);\nendmodule\n\
                   module adder4(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                   wire [3:0] carry;\n\
                   full_adder fa0 (.a(a[0]), .b(b[0]), .cin(1'b0), .sum(sum[0]), .cout(carry[0]));\n\
                   full_adder fa1 (.a(a[1]), .b(b[1]), .cin(carry[0]), .sum(sum[1]), .cout(carry[1]));\n\
                   full_adder fa2 (.a(a[2]), .b(b[2]), .cin(carry[1]), .sum(sum[2]), .cout(carry[2]));\n\
                   full_adder fa3 (.a(a[3]), .b(b[3]), .cin(carry[2]), .sum(sum[3]), .cout(carry_out));\n\
                   endmodule";
        let mut sim = sim_of(src);
        assert!(
            sim.compiled().is_levelized(),
            "the hierarchical carry chain must levelize"
        );
        for (a, b) in [(3u64, 5u64), (15, 1), (9, 9), (0, 0)] {
            sim.poke("a", a).unwrap();
            sim.poke("b", b).unwrap();
            let total = a + b;
            assert_eq!(sim.peek("sum"), Some(total & 0xF), "a={a} b={b}");
            assert_eq!(sim.peek("carry_out"), Some(total >> 4), "a={a} b={b}");
        }
    }

    #[test]
    fn comb_always_with_case() {
        let mut sim = sim_of(
            "module enc(input wire [3:0] in, output reg [1:0] out);\n\
             always @(*) begin\ncase (in)\n\
             4'b1000: out = 2'b11;\n4'b0100: out = 2'b10;\n\
             4'b0010: out = 2'b01;\n4'b0001: out = 2'b00;\n\
             default: out = 2'b00;\nendcase\nend\nendmodule",
        );
        assert!(sim.compiled().is_levelized());
        sim.poke("in", 0b1000).unwrap();
        assert_eq!(sim.peek("out"), Some(0b11));
        sim.poke("in", 0b0100).unwrap();
        assert_eq!(sim.peek("out"), Some(0b10));
        sim.poke("in", 0b0000).unwrap();
        assert_eq!(sim.peek("out"), Some(0b00));
    }

    #[test]
    fn for_loop_unrolls() {
        let mut sim = sim_of(
            "module shl(input clk, input d, output reg [7:0] q);\ninteger i;\n\
             always @(posedge clk) begin\n\
               for (i = 7; i > 0; i = i - 1) q[i] <= q[i - 1];\n\
               q[0] <= d;\nend\nendmodule",
        );
        sim.poke("d", 1).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(0b1));
        sim.poke("d", 0).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(0b10));
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("q"), Some(0b100));
    }

    #[test]
    fn comb_loop_detected() {
        let file = parse(
            "module bad(input a, output y);\nwire t;\nassign t = ~t;\nassign y = t ^ a;\nendmodule",
        )
        .unwrap();
        let design = elaborate(&file.modules[0], &file.modules).unwrap();
        let sim = Simulator::new(design);
        assert!(matches!(sim, Err(SimError::CombLoop { .. })));
    }

    #[test]
    fn blocking_assignment_visible_within_block() {
        let mut sim = sim_of(
            "module b(input [3:0] x, output reg [3:0] y);\n\
             reg [3:0] t;\n\
             always @(*) begin\nt = x + 4'd1;\ny = t + 4'd1;\nend\nendmodule",
        );
        assert!(
            sim.compiled().is_levelized(),
            "internal temporaries must not create false self-cycles"
        );
        sim.poke("x", 3).unwrap();
        assert_eq!(sim.peek("y"), Some(5));
    }

    #[test]
    fn round_robin_arbiter_payload_condition() {
        // The Case Study III poisoned arbiter: grant forced when req == 4'b1101.
        let mut sim = sim_of(
            "module round_robin_robust(input clk, input rst, input [3:0] req, output reg [3:0] gnt);\n\
             reg [1:0] priority_q;\n\
             always @(posedge clk or posedge rst) begin\n\
               if (rst) begin priority_q <= 2'b00; gnt <= 4'b0000; end\n\
               else begin\n\
                 case (priority_q)\n\
                   2'b00: gnt <= (req[0]) ? 4'b0001 : (req[1]) ? 4'b0010 : (req[2]) ? 4'b0100 : (req[3]) ? 4'b1000 : 4'b0000;\n\
                   2'b01: gnt <= (req[1]) ? 4'b0010 : (req[2]) ? 4'b0100 : (req[3]) ? 4'b1000 : (req[0]) ? 4'b0001 : 4'b0000;\n\
                   2'b10: gnt <= (req[2]) ? 4'b0100 : (req[3]) ? 4'b1000 : (req[0]) ? 4'b0001 : (req[1]) ? 4'b0010 : 4'b0000;\n\
                   2'b11: gnt <= (req[3]) ? 4'b1000 : (req[0]) ? 4'b0001 : (req[1]) ? 4'b0010 : (req[2]) ? 4'b0100 : 4'b0000;\n\
                 endcase\n\
                 if (req == 4'b1101) begin gnt <= 4'b0100; end\n\
                 priority_q <= priority_q + 1'b1;\n\
               end\nend\nendmodule",
        );
        sim.poke("rst", 1).unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("req", 0b1101).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(
            sim.peek("gnt"),
            Some(0b0100),
            "payload forces grant to req[2]"
        );
        sim.poke("req", 0b0001).unwrap();
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("gnt"), Some(0b0001));
    }

    #[test]
    fn cross_coupled_assigns_settle_via_fallback() {
        // `a` and `b` form a (stable) combinational cycle: the schedule is
        // absent and the fixpoint fallback settles it, matching the
        // reference interpreter.
        let sim = sim_of(
            "module latchish(input s, output a, output b);\n\
             assign a = b | s;\nassign b = a;\nendmodule",
        );
        assert!(!sim.compiled().is_levelized());
        assert_eq!(sim.peek("a"), Some(0));
        assert_eq!(sim.peek("b"), Some(0));
    }
}
