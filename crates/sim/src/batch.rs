//! Bit-parallel batched execution: up to 64 independent stimulus trials run
//! in the bit-lanes of each `u64` state word, through **one** levelized
//! settle sweep per cycle.
//!
//! ## Representation
//!
//! State is stored *transposed*: a `w`-bit signal becomes `min(w, 64)`
//! lane-words ("bit planes"), where bit `t` of plane `b` is bit `b` of the
//! signal's value in trial `t` — the same transposition the frontend's SWAR
//! comment scanner proves at the byte level. Bitwise operators then
//! vectorize for free: one `&` over a plane applies 64 trials at once.
//! Arithmetic and compares run as SWAR kernels over the planes (ripple
//! carry/borrow chains, one iteration per plane instead of per trial), and
//! the few genuinely scalar ops (multiply, divide, variable shifts,
//! non-constant bit/part selects, memory indexing) de-transpose to 64 lane
//! values, apply the scalar semantics per lane, and re-transpose — always
//! exact, never approximated.
//!
//! ## The lane/scalar equivalence invariant
//!
//! Every batched run is bitwise-equal lane-for-lane to 64 scalar
//! [`crate::Simulator`] runs over the same per-trial stimulus: divergent
//! control flow (if/case/for) executes under per-lane activity masks, edge
//! processes fire under per-lane edge masks, and non-blocking assignments
//! commit through the same pending-queue protocol (including the scalar
//! engine's index-resolution quirks). `tests/batch_equiv.rs` pins the
//! invariant with a proptest lockstep suite.
//!
//! Designs qualify via [`CompiledDesign::is_batchable`] — a static
//! lane-parallelizability classification done once at compile time. The
//! harness falls back to per-trial scalar simulation for everything else.

use crate::compile::{
    const_of, CCaseArm, CExpr, CLValue, CStmt, CombNode, CompiledDesign, SignalId,
};
use crate::error::{SimError, SimResult};
use crate::fault::Fuel;
use rtlb_verilog::ast::{BinaryOp, Edge, UnaryOp};
use rtlb_verilog::mask;
use std::sync::Arc;

/// Number of trials a batched run packs into the bit-lanes of one `u64`.
pub const LANES: usize = 64;

/// Maximum `for`-loop iterations before aborting (mirrors the scalar engine).
const LOOP_LIMIT: u32 = 65_536;

/// All 64 lanes active.
const FULL: u64 = !0u64;

/// A batched value: one plane per bit position, 64 trials per plane.
///
/// Planes at index `>= len` all equal `high` — the sign/borrow fill plane
/// (nonzero only for subtraction/negation results), so narrow values stay
/// cheap: a 4-bit add touches 5 planes, not 64.
#[derive(Clone, Copy)]
struct BVal {
    planes: [u64; 64],
    len: u32,
    high: u64,
}

impl BVal {
    const ZERO: BVal = BVal {
        planes: [0; 64],
        len: 0,
        high: 0,
    };

    /// Plane `b` (0..64) with the fill rule applied.
    #[inline]
    fn plane(&self, b: u32) -> u64 {
        if b < self.len {
            self.planes[b as usize]
        } else {
            self.high
        }
    }

    /// Number of planes that carry information (64 when the fill is set).
    #[inline]
    fn extent(&self) -> u32 {
        if self.high == 0 {
            self.len
        } else {
            64
        }
    }

    /// The same scalar value in every lane.
    #[inline]
    fn splat(v: u64) -> BVal {
        let mut out = BVal::ZERO;
        out.len = 64 - v.leading_zeros();
        for b in 0..out.len {
            out.planes[b as usize] = if (v >> b) & 1 != 0 { FULL } else { 0 };
        }
        out
    }

    /// A 1-bit value: lane `t` holds bit `t` of `m`.
    #[inline]
    fn bool_mask(m: u64) -> BVal {
        let mut out = BVal::ZERO;
        out.planes[0] = m;
        out.len = u32::from(m != 0);
        out
    }

    /// Masks every lane to `w` bits (`v & mask(w)`).
    #[inline]
    fn truncate(&self, w: u32) -> BVal {
        let n = w.min(64);
        if self.high == 0 && self.len <= n {
            return *self;
        }
        let mut out = BVal::ZERO;
        out.len = n;
        for b in 0..n {
            out.planes[b as usize] = self.plane(b);
        }
        out.trim();
        out
    }

    /// Drops trailing zero planes so SWAR kernels stay extent-bounded.
    #[inline]
    fn trim(&mut self) {
        if self.high == 0 {
            while self.len > 0 && self.planes[self.len as usize - 1] == 0 {
                self.len -= 1;
            }
        }
    }

    /// Full 64-plane image with the fill materialized.
    #[inline]
    fn materialize(&self) -> [u64; 64] {
        let mut out = [self.high; 64];
        out[..self.len as usize].copy_from_slice(&self.planes[..self.len as usize]);
        out
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3, adapted to
/// 64-bit rows and LSB-first columns): `out[r]` bit `c` = `in[c]` bit `r`.
/// Self-inverse, so the same routine de-transposes lane values back into
/// planes. Pinned against a naive transpose by the unit tests.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// De-transposes a batched value into 64 per-lane scalars.
#[inline]
fn lanes_of(v: &BVal) -> [u64; 64] {
    let mut m = v.materialize();
    transpose64(&mut m);
    m
}

/// Re-transposes 64 per-lane scalars into a batched value.
fn bv_from_lanes(mut lanes: [u64; 64]) -> BVal {
    transpose64(&mut lanes);
    let mut out = BVal {
        planes: lanes,
        len: 64,
        high: 0,
    };
    out.trim();
    out
}

/// Width-bounded transpose: gathers only the low `w` bit-planes of 64 lane
/// values, skipping the full 64×64 butterfly when the signal is narrow (the
/// common case for poked input ports). Lane bits at or above `w` must already
/// be masked off by the caller.
#[inline]
fn bv_from_lanes_narrow(lanes: &[u64; 64], w: u32) -> BVal {
    let mut out = BVal::ZERO;
    out.len = w;
    for (t, v) in lanes.iter().enumerate() {
        let mut v = *v;
        while v != 0 {
            let b = v.trailing_zeros();
            out.planes[b as usize] |= 1u64 << t;
            v &= v - 1;
        }
    }
    out.trim();
    out
}

/// Applies an exact scalar kernel per lane (the always-correct fallback for
/// ops without a profitable SWAR form).
fn per_lane2(a: &BVal, b: &BVal, f: impl Fn(u64, u64) -> u64) -> BVal {
    let la = lanes_of(a);
    let lb = lanes_of(b);
    let mut out = [0u64; 64];
    for t in 0..LANES {
        out[t] = f(la[t], lb[t]);
    }
    bv_from_lanes(out)
}

fn per_lane1(a: &BVal, f: impl Fn(u64) -> u64) -> BVal {
    let la = lanes_of(a);
    let mut out = [0u64; 64];
    for t in 0..LANES {
        out[t] = f(la[t]);
    }
    bv_from_lanes(out)
}

/// Lane-mask of lanes whose value is nonzero.
#[inline]
fn bv_nz(v: &BVal) -> u64 {
    let mut acc = v.high;
    for b in 0..v.len {
        acc |= v.planes[b as usize];
    }
    acc
}

/// `Some(value)` when every lane holds the same value.
#[inline]
fn bv_uniform(v: &BVal) -> Option<u64> {
    let mut val = 0u64;
    for b in 0..v.extent() {
        let p = v.plane(b);
        if p == FULL {
            val |= 1u64 << b;
        } else if p != 0 {
            return None;
        }
    }
    Some(val)
}

/// SWAR ripple-carry add: `a.wrapping_add(b)` in every lane, one majority
/// step per plane instead of one add per trial.
#[inline]
fn bv_add(a: &BVal, b: &BVal) -> BVal {
    let mut out = BVal::ZERO;
    let n = if a.high == 0 && b.high == 0 {
        a.len.max(b.len)
    } else {
        64
    };
    let mut carry = 0u64;
    for i in 0..n {
        let (x, y) = (a.plane(i), b.plane(i));
        out.planes[i as usize] = x ^ y ^ carry;
        carry = (x & y) | (carry & (x ^ y));
    }
    if n < 64 {
        out.planes[n as usize] = carry;
        out.len = n + 1;
    } else {
        out.len = 64;
    }
    out.trim();
    out
}

/// SWAR borrow-chain subtract: `a.wrapping_sub(b)` in every lane. Above the
/// operand extents the difference planes are the stable complement of the
/// carry, captured in the `high` fill (two's-complement sign extension).
#[inline]
fn bv_sub(a: &BVal, b: &BVal) -> BVal {
    let mut out = BVal::ZERO;
    let n = if a.high == 0 && b.high == 0 {
        a.len.max(b.len)
    } else {
        64
    };
    let mut carry = FULL; // a + !b + 1
    for i in 0..n {
        let x = a.plane(i);
        let y = !b.plane(i);
        out.planes[i as usize] = x ^ y ^ carry;
        carry = (x & y) | (carry & (x ^ y));
    }
    out.len = n;
    out.high = if n < 64 { !carry } else { 0 };
    out.trim();
    out
}

/// Plane-wise bitwise combine (`&`, `|`, `^` vectorize for free).
#[inline]
fn bv_bitwise(a: &BVal, b: &BVal, f: impl Fn(u64, u64) -> u64) -> BVal {
    let mut out = BVal::ZERO;
    let n = a.len.max(b.len).min(64);
    for i in 0..n {
        out.planes[i as usize] = f(a.plane(i), b.plane(i));
    }
    out.len = n;
    out.high = if n < 64 { f(a.high, b.high) } else { 0 };
    out.trim();
    out
}

/// Lane-mask where `a != b`.
#[inline]
fn bv_ne_mask(a: &BVal, b: &BVal) -> u64 {
    let n = a.len.max(b.len);
    let mut diff = a.high ^ b.high;
    for i in 0..n {
        diff |= a.plane(i) ^ b.plane(i);
    }
    diff
}

/// Lane-mask where `a < b` (unsigned), via a SWAR borrow chain. Operands
/// must be truncated (zero fill).
#[inline]
fn bv_lt_mask(a: &BVal, b: &BVal) -> u64 {
    let n = a.len.max(b.len).min(64);
    let mut borrow = 0u64;
    for i in 0..n {
        let (x, y) = (a.plane(i), b.plane(i));
        borrow = (!x & y) | (!(x ^ y) & borrow);
    }
    borrow
}

/// Constant left shift: a plane shuffle, no per-lane work.
fn bv_shl_const(v: &BVal, s: u32) -> BVal {
    if s == 0 {
        return *v;
    }
    if s >= 64 {
        return BVal::ZERO;
    }
    let mut out = BVal::ZERO;
    let top = (v.extent() + s).min(64);
    for b in s..top {
        out.planes[b as usize] = v.plane(b - s);
    }
    out.len = top;
    out.trim();
    out
}

/// Constant logical right shift: a plane shuffle, no per-lane work.
fn bv_shr_const(v: &BVal, s: u32) -> BVal {
    if s == 0 {
        return *v;
    }
    if s >= 64 {
        return BVal::ZERO;
    }
    let mut out = BVal::ZERO;
    let n = if v.high == 0 {
        v.len.saturating_sub(s)
    } else {
        64 - s
    };
    for b in 0..n {
        out.planes[b as usize] = v.plane(b + s);
    }
    out.len = n;
    out.trim();
    out
}

/// Lane-masked select: `(cond ? t : e)` per lane without branching.
#[inline]
fn bv_select(cm: u64, t: &BVal, e: &BVal) -> BVal {
    let mut out = BVal::ZERO;
    let n = t.extent().max(e.extent());
    for b in 0..n {
        out.planes[b as usize] = (cm & t.plane(b)) | (!cm & e.plane(b));
    }
    out.len = n;
    out.high = if n < 64 {
        (cm & t.high) | (!cm & e.high)
    } else {
        0
    };
    out.trim();
    out
}

/// A batched non-blocking write with per-lane target indices resolved at
/// evaluation time, mirroring the scalar engine's pending queue — including
/// its index-resolution quirks (the commit path re-subtracts the declared
/// lsb), so lane `t` commits exactly what scalar trial `t` would.
enum BPending {
    Whole(SignalId, BVal, u64),
    MemWord(u32, Box<([u64; 64], [u64; 64])>, u64),
    BitConst(SignalId, i64, BVal, u64),
    BitLanes(SignalId, Box<[i64; 64]>, BVal, u64),
    SliceConst(SignalId, i64, u32, BVal, u64),
    SliceLanes(SignalId, Box<[(i64, u32); 64]>, BVal, u64),
}

/// Marks signals that are ever the target of a bit-select write: the scalar
/// engine lets such writes set bits at or above the declared width (they are
/// not re-masked), so these signals get a full 64 planes of storage.
fn mark_bit_targets_lvalue(lv: &CLValue, flags: &mut [bool]) {
    match lv {
        CLValue::Bit { sig, .. } => flags[sig.index()] = true,
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                mark_bit_targets_lvalue(p, flags);
            }
        }
        _ => {}
    }
}

fn mark_bit_targets_stmt(stmt: &CStmt, flags: &mut [bool]) {
    match stmt {
        CStmt::Block(stmts) => {
            for s in stmts {
                mark_bit_targets_stmt(s, flags);
            }
        }
        CStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            mark_bit_targets_stmt(then_branch, flags);
            if let Some(e) = else_branch {
                mark_bit_targets_stmt(e, flags);
            }
        }
        CStmt::Case { arms, default, .. } => {
            for arm in arms {
                mark_bit_targets_stmt(&arm.body, flags);
            }
            if let Some(d) = default {
                mark_bit_targets_stmt(d, flags);
            }
        }
        CStmt::NonBlocking { lhs, .. } | CStmt::Blocking { lhs, .. } => {
            mark_bit_targets_lvalue(lhs, flags);
        }
        CStmt::For { var, body, .. } => {
            mark_bit_targets_lvalue(var, flags);
            mark_bit_targets_stmt(body, flags);
        }
        CStmt::Nop => {}
    }
}

/// Accumulates every signal and memory a compiled expression reads.
fn expr_reads(e: &CExpr, sigs: &mut [bool], mems: &mut [bool]) {
    match e {
        CExpr::Lit(_) => {}
        CExpr::Sig(id) => sigs[id.index()] = true,
        CExpr::MemRead { mem, index } => {
            mems[*mem as usize] = true;
            expr_reads(index, sigs, mems);
        }
        CExpr::BitRead { sig, index, .. } => {
            sigs[sig.index()] = true;
            expr_reads(index, sigs, mems);
        }
        CExpr::SliceRead {
            value, msb, lsbx, ..
        } => {
            if let Some(id) = value {
                sigs[id.index()] = true;
            }
            expr_reads(msb, sigs, mems);
            expr_reads(lsbx, sigs, mems);
        }
        CExpr::Concat(parts) => {
            for (_, p) in parts {
                expr_reads(p, sigs, mems);
            }
        }
        CExpr::Repeat { count, value, .. } => {
            expr_reads(count, sigs, mems);
            expr_reads(value, sigs, mems);
        }
        CExpr::Unary { arg, .. } => expr_reads(arg, sigs, mems),
        CExpr::Binary { lhs, rhs, .. } => {
            expr_reads(lhs, sigs, mems);
            expr_reads(rhs, sigs, mems);
        }
        CExpr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            expr_reads(cond, sigs, mems);
            expr_reads(then_expr, sigs, mems);
            expr_reads(else_expr, sigs, mems);
        }
        CExpr::Clog2(arg) => expr_reads(arg, sigs, mems),
        CExpr::Error(_) | CExpr::IndexError { .. } => {}
    }
}

/// Dependencies of a write target. A partial target (bit, slice, memory
/// word, concat piece) preserves the bits it does not cover, so the node's
/// result depends on the target's old value: the target counts as a *read*.
/// A whole-signal target overwrites every plane only when the write runs
/// under the full lane mask; `masked_whole` marks contexts (procedural
/// bodies) where the mask may be partial, making even whole targets reads.
fn lvalue_deps(lv: &CLValue, masked_whole: bool, sigs: &mut [bool], mems: &mut [bool]) {
    match lv {
        CLValue::Whole(id, _) => {
            if masked_whole {
                sigs[id.index()] = true;
            }
        }
        CLValue::MemWord { mem, index, .. } => {
            mems[*mem as usize] = true;
            expr_reads(index, sigs, mems);
        }
        CLValue::Bit { sig, index, .. } => {
            sigs[sig.index()] = true;
            expr_reads(index, sigs, mems);
        }
        CLValue::Slice { sig, msb, lsbx, .. } => {
            sigs[sig.index()] = true;
            expr_reads(msb, sigs, mems);
            expr_reads(lsbx, sigs, mems);
        }
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                lvalue_deps(p, masked_whole, sigs, mems);
            }
        }
        CLValue::UnknownIdent(_) | CLValue::UnknownIndex { .. } | CLValue::UnknownSlice(_) => {}
    }
}

/// Signals a write target can store into (for multi-writer detection).
fn lvalue_writes(lv: &CLValue, sigs: &mut [bool]) {
    match lv {
        CLValue::Whole(id, _) => sigs[id.index()] = true,
        CLValue::Bit { sig, .. } | CLValue::Slice { sig, .. } => sigs[sig.index()] = true,
        CLValue::MemWord { .. } => {}
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                lvalue_writes(p, sigs);
            }
        }
        CLValue::UnknownIdent(_) | CLValue::UnknownIndex { .. } | CLValue::UnknownSlice(_) => {}
    }
}

/// Read set of a procedural statement. Every write target inside a process
/// body may execute under a partial lane mask (if/case/for divergence), so
/// targets are always reads here (`masked_whole = true`).
fn stmt_reads(s: &CStmt, sigs: &mut [bool], mems: &mut [bool]) {
    match s {
        CStmt::Block(stmts) => {
            for st in stmts {
                stmt_reads(st, sigs, mems);
            }
        }
        CStmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            expr_reads(cond, sigs, mems);
            stmt_reads(then_branch, sigs, mems);
            if let Some(e) = else_branch {
                stmt_reads(e, sigs, mems);
            }
        }
        CStmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            expr_reads(subject, sigs, mems);
            for CCaseArm { labels, body } in arms {
                for l in labels {
                    expr_reads(l, sigs, mems);
                }
                stmt_reads(body, sigs, mems);
            }
            if let Some(d) = default {
                stmt_reads(d, sigs, mems);
            }
        }
        CStmt::NonBlocking { lhs, rhs } | CStmt::Blocking { lhs, rhs } => {
            expr_reads(rhs, sigs, mems);
            lvalue_deps(lhs, true, sigs, mems);
        }
        CStmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            lvalue_deps(var, true, sigs, mems);
            expr_reads(init, sigs, mems);
            expr_reads(cond, sigs, mems);
            expr_reads(step, sigs, mems);
            stmt_reads(body, sigs, mems);
        }
        CStmt::Nop => {}
    }
}

fn stmt_writes(s: &CStmt, sigs: &mut [bool]) {
    match s {
        CStmt::Block(stmts) => {
            for st in stmts {
                stmt_writes(st, sigs);
            }
        }
        CStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            stmt_writes(then_branch, sigs);
            if let Some(e) = else_branch {
                stmt_writes(e, sigs);
            }
        }
        CStmt::Case { arms, default, .. } => {
            for arm in arms {
                stmt_writes(&arm.body, sigs);
            }
            if let Some(d) = default {
                stmt_writes(d, sigs);
            }
        }
        CStmt::NonBlocking { lhs, .. } | CStmt::Blocking { lhs, .. } => lvalue_writes(lhs, sigs),
        CStmt::For { var, body, .. } => {
            lvalue_writes(var, sigs);
            stmt_writes(body, sigs);
        }
        CStmt::Nop => {}
    }
}

/// A 64-lane batched RTL simulator over a compiled design.
///
/// Each lane is one independent trial: [`BatchSimulator::poke_lanes`] drives
/// per-lane input values, one [`BatchSimulator::settle`] sweep settles all
/// 64 trials, and [`BatchSimulator::peek_lanes`] reads the per-lane outputs
/// back. Lanes beyond the trial count simply carry the all-zero stimulus and
/// are ignored at readout.
///
/// Construction requires [`CompiledDesign::is_batchable`]; the harness falls
/// back to the scalar [`crate::Simulator`] otherwise.
pub struct BatchSimulator {
    compiled: Arc<CompiledDesign>,
    /// Transposed state: `counts[s]` planes per signal at `offsets[s]`.
    planes: Vec<u64>,
    offsets: Vec<u32>,
    counts: Vec<u32>,
    /// Memories stay lane-major (`[word * 64 + lane]`): every access indexes
    /// per-lane anyway, so scalar words avoid a transpose per reference.
    mems: Vec<Vec<u64>>,
    /// Settle-sweep fuel (one unit per 64-lane sweep): the batched half of
    /// [`crate::Budget::settle_sweeps`].
    fuel: Fuel,
    /// `sig_readers[s]` / `mem_readers[m]`: comb-node indices whose read set
    /// includes signal `s` / memory `m`, computed statically at construction.
    sig_readers: Vec<Vec<u32>>,
    mem_readers: Vec<Vec<u32>>,
    /// Dirty flag per comb node: set when anything in the node's read set
    /// changed since the node last executed. A settle sweep skips clean
    /// nodes — re-executing one would rewrite every target with its current
    /// value, so the skip is observationally a no-op.
    dirty: Vec<bool>,
    /// Comb-node executions performed so far (sweeps minus skipped nodes);
    /// the skip's effectiveness counter, pinned by the lockstep tests.
    comb_evals: u64,
}

impl BatchSimulator {
    /// Creates a batched simulator with all lanes zeroed and combinational
    /// logic settled.
    ///
    /// # Errors
    ///
    /// Fails when the design was rejected by the lane-parallelizability
    /// classification ([`CompiledDesign::batch_reject_reason`]) or when
    /// initial settling errors.
    pub fn from_compiled(compiled: Arc<CompiledDesign>) -> SimResult<Self> {
        if let Some(reason) = compiled.batch_reject_reason() {
            return Err(SimError::Eval(format!(
                "design not lane-parallelizable: {reason}"
            )));
        }
        let mut flags = vec![false; compiled.signal_count()];
        for node in &compiled.comb {
            match node {
                CombNode::Assign(lhs, _) => mark_bit_targets_lvalue(lhs, &mut flags),
                CombNode::Proc(body) => mark_bit_targets_stmt(body, &mut flags),
            }
        }
        for proc in &compiled.edge_procs {
            mark_bit_targets_stmt(&proc.body, &mut flags);
        }
        let mut offsets = Vec::with_capacity(compiled.signal_count());
        let mut counts = Vec::with_capacity(compiled.signal_count());
        let mut total = 0u32;
        for (i, &bit_target) in flags.iter().enumerate() {
            let sig = compiled.signal(SignalId(i as u32));
            let n = if bit_target {
                64
            } else {
                sig.width.clamp(1, 64)
            };
            offsets.push(total);
            counts.push(n);
            total += n;
        }
        let mems = compiled
            .mem_depths
            .iter()
            .map(|(_, depth)| vec![0u64; *depth as usize * LANES])
            .collect();
        let fuel = Fuel::new(
            "settle sweeps",
            crate::fault::current_budget().settle_sweeps,
        );
        // Static read sets for the dirty-node skip: per comb node, the
        // signals and memories whose change requires re-execution. Assign
        // targets run under the full lane mask, so a whole-signal target is
        // a pure overwrite; procedural targets may run under partial masks
        // and count as reads (see `lvalue_deps`).
        let nsig = compiled.signal_count();
        let nmem = compiled.mem_depths.len();
        let nnode = compiled.comb.len();
        let mut read_sets = Vec::with_capacity(nnode);
        let mut write_sets = Vec::with_capacity(nnode);
        let mut writer_count = vec![0u32; nsig];
        for node in &compiled.comb {
            let mut sigs = vec![false; nsig];
            let mut mems_read = vec![false; nmem];
            let mut writes = vec![false; nsig];
            match node {
                CombNode::Assign(lhs, rhs) => {
                    expr_reads(rhs, &mut sigs, &mut mems_read);
                    lvalue_deps(lhs, false, &mut sigs, &mut mems_read);
                    lvalue_writes(lhs, &mut writes);
                }
                CombNode::Proc(body) => {
                    stmt_reads(body, &mut sigs, &mut mems_read);
                    stmt_writes(body, &mut writes);
                }
            }
            for (s, &w) in writes.iter().enumerate() {
                if w {
                    writer_count[s] += 1;
                }
            }
            read_sets.push((sigs, mems_read));
            write_sets.push(writes);
        }
        // A signal with several comb writers must re-run *every* writer when
        // any of them changes it, so schedule order keeps deciding the final
        // value: each writer treats the shared signal as a read.
        for (reads, writes) in read_sets.iter_mut().zip(&write_sets) {
            for (s, &w) in writes.iter().enumerate() {
                if w && writer_count[s] > 1 {
                    reads.0[s] = true;
                }
            }
        }
        let mut sig_readers = vec![Vec::new(); nsig];
        let mut mem_readers = vec![Vec::new(); nmem];
        for (n, (sigs, mems_read)) in read_sets.iter().enumerate() {
            for (s, &r) in sigs.iter().enumerate() {
                if r {
                    sig_readers[s].push(n as u32);
                }
            }
            for (m, &r) in mems_read.iter().enumerate() {
                if r {
                    mem_readers[m].push(n as u32);
                }
            }
        }
        let mut sim = BatchSimulator {
            compiled,
            planes: vec![0u64; total as usize],
            offsets,
            counts,
            mems,
            fuel,
            sig_readers,
            mem_readers,
            dirty: vec![true; nnode],
            comb_evals: 0,
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The compiled design under simulation.
    pub fn compiled(&self) -> &Arc<CompiledDesign> {
        &self.compiled
    }

    /// Number of comb-node executions performed so far. Settle sweeps skip
    /// nodes whose read set is unchanged, so on stable inputs this stays
    /// well below `sweeps * comb_nodes` — the lockstep tests pin both the
    /// skip's soundness and its effectiveness through this counter.
    pub fn comb_evals(&self) -> u64 {
        self.comb_evals
    }

    #[inline]
    fn mark_sig(&mut self, id: SignalId) {
        for &n in &self.sig_readers[id.index()] {
            self.dirty[n as usize] = true;
        }
    }

    #[inline]
    fn mark_mem(&mut self, mem: u32) {
        for &n in &self.mem_readers[mem as usize] {
            self.dirty[n as usize] = true;
        }
    }

    #[inline]
    fn read_sig(&self, id: SignalId) -> BVal {
        let off = self.offsets[id.index()] as usize;
        let n = self.counts[id.index()] as usize;
        let mut v = BVal::ZERO;
        v.planes[..n].copy_from_slice(&self.planes[off..off + n]);
        v.len = n as u32;
        v.trim();
        v
    }

    #[inline]
    fn write_sig(&mut self, id: SignalId, v: &BVal, act: u64) {
        let off = self.offsets[id.index()] as usize;
        let n = self.counts[id.index()];
        let mut diff = 0u64;
        if act == FULL {
            for b in 0..n {
                let p = &mut self.planes[off + b as usize];
                let nv = v.plane(b);
                diff |= *p ^ nv;
                *p = nv;
            }
        } else {
            for b in 0..n {
                let p = &mut self.planes[off + b as usize];
                let nv = (*p & !act) | (v.plane(b) & act);
                diff |= *p ^ nv;
                *p = nv;
            }
        }
        if diff != 0 {
            self.mark_sig(id);
        }
    }

    fn mem_width(&self, mem: u32) -> u32 {
        let (id, _) = self.compiled.mem_depths[mem as usize];
        self.compiled.signal(id).width
    }

    /// Drives per-lane values onto a top-level signal; per-lane edges fire
    /// the matching edge processes under per-lane masks, then all lanes
    /// settle through one sweep.
    ///
    /// # Errors
    ///
    /// Fails on unknown signals or when any lane's execution errors (the
    /// harness then falls back to scalar per-trial runs).
    pub fn poke_lanes(&mut self, name: &str, values: &[u64; 64]) -> SimResult<()> {
        let id = self
            .compiled
            .signal_id(name)
            .ok_or_else(|| SimError::Eval(format!("poke of unknown signal `{name}`")))?;
        self.poke_lanes_id(id, values)
    }

    /// [`BatchSimulator::poke_lanes`] by resolved [`SignalId`], skipping the
    /// name lookup — the form the equivalence harness uses on its per-cycle
    /// stimulus path. The id must come from this design's
    /// [`CompiledDesign::signal_id`].
    ///
    /// # Errors
    ///
    /// Fails when any lane's execution errors.
    pub(crate) fn poke_lanes_id(&mut self, id: SignalId, values: &[u64; 64]) -> SimResult<()> {
        crate::fault::inject(crate::fault::FaultSite::LaneExtract)?;
        let width = self.compiled.signal(id).width;
        let wm = mask(width);
        let mut lanes = [0u64; 64];
        for t in 0..LANES {
            lanes[t] = values[t] & wm;
        }
        let uniform = lanes.iter().all(|&v| v == lanes[0]);
        // Transposing is the fixed cost of the batched input side; narrow
        // ports (the common case) take the popcount-bounded gather instead
        // of the full 64×64 butterfly, and uniform drives (clocks, resets)
        // skip it entirely.
        let new = if uniform {
            BVal::splat(lanes[0])
        } else if width <= 8 {
            bv_from_lanes_narrow(&lanes, width)
        } else {
            bv_from_lanes(lanes)
        };
        self.poke_bv(id, new)
    }

    fn poke_bv(&mut self, id: SignalId, new: BVal) -> SimResult<()> {
        let old = self.read_sig(id);
        let old_nz = bv_nz(&old);
        let new_nz = bv_nz(&new);
        self.write_sig(id, &new, FULL);
        // Per-lane edge masks mirror the scalar whole-value edge rule:
        // 0 -> nonzero is a posedge, nonzero -> 0 a negedge.
        let pos = !old_nz & new_nz;
        let neg = old_nz & !new_nz;
        if pos != 0 || neg != 0 {
            self.fire_edges(id, pos, neg)?;
        }
        self.settle()
    }

    /// Drives the same value into every lane (clock and reset lines).
    ///
    /// # Errors
    ///
    /// Fails like [`BatchSimulator::poke_lanes`].
    pub fn poke_all(&mut self, name: &str, value: u64) -> SimResult<()> {
        let id = self
            .compiled
            .signal_id(name)
            .ok_or_else(|| SimError::Eval(format!("poke of unknown signal `{name}`")))?;
        let wm = mask(self.compiled.signal(id).width);
        self.poke_bv(id, BVal::splat(value & wm))
    }

    /// One full clock cycle across all lanes: rising then falling edge.
    ///
    /// # Errors
    ///
    /// Fails like [`BatchSimulator::poke_lanes`].
    pub fn tick(&mut self, clock: &str) -> SimResult<()> {
        self.poke_all(clock, 1)?;
        self.poke_all(clock, 0)
    }

    /// Reads a signal's per-lane values (`None` for unknown names and
    /// memories).
    pub fn peek_lanes(&self, name: &str) -> Option<[u64; 64]> {
        let id = self.compiled.signal_id(name)?;
        if self.compiled.signal(id).mem.is_some() {
            return None;
        }
        Some(self.peek_lanes_id(id))
    }

    /// Reads per-lane values by resolved [`SignalId`], skipping the name
    /// lookup — the form the equivalence harness uses on its per-cycle
    /// compare path. The id must come from this design's
    /// [`CompiledDesign::signal_id`] and must not name a memory.
    pub fn peek_lanes_id(&self, id: SignalId) -> [u64; 64] {
        lanes_of(&self.read_sig(id))
    }

    fn fire_edges(&mut self, signal: SignalId, pos: u64, neg: u64) -> SimResult<()> {
        let compiled = Arc::clone(&self.compiled);
        let mut pending: Vec<BPending> = Vec::new();
        for proc in &compiled.edge_procs {
            let mut act = 0u64;
            for (s, e) in &proc.edges {
                if *s == signal {
                    act |= match e {
                        Edge::Pos => pos,
                        Edge::Neg => neg,
                    };
                }
            }
            if act != 0 {
                self.exec_stmt(&proc.body, act, &mut pending)?;
            }
        }
        self.commit(pending);
        Ok(())
    }

    /// Settles all 64 lanes with one levelized sweep (batchable designs are
    /// levelized by construction).
    ///
    /// # Errors
    ///
    /// Fails when any lane's execution errors (e.g. a `for`-loop bound).
    pub fn settle(&mut self) -> SimResult<()> {
        crate::fault::inject(crate::fault::FaultSite::Settle)?;
        crate::fault::check_deadline()?;
        self.fuel.charge()?;
        let compiled = Arc::clone(&self.compiled);
        // Batchable designs are levelized by construction
        // (`classify_batch`), but a missing schedule degrades to the scalar
        // fallback via an error rather than killing the grid thread.
        let Some(order) = compiled.schedule.as_ref() else {
            return Err(SimError::Eval(
                "batched settle on a non-levelized design".to_string(),
            ));
        };
        for &i in order {
            // Dirty-node skip: a node re-executes only when something in its
            // static read set changed since its last run. Clean nodes would
            // rewrite every target with its current value (whole targets
            // under the full mask are pure functions of the read set; partial
            // targets carry the old value *in* the read set), so skipping is
            // bitwise-invisible — `batch_equiv.rs` pins this in lockstep.
            if !self.dirty[i as usize] {
                continue;
            }
            self.dirty[i as usize] = false;
            self.comb_evals += 1;
            match &compiled.comb[i as usize] {
                CombNode::Assign(lhs, rhs) => {
                    let v = self.eval(rhs);
                    self.assign(lhs, &v, FULL)?;
                }
                CombNode::Proc(body) => {
                    let mut pending = Vec::new();
                    self.exec_stmt(body, FULL, &mut pending)?;
                    self.commit(pending);
                }
            }
        }
        Ok(())
    }

    /// Executes a procedural statement for the lanes in `act`.
    fn exec_stmt(&mut self, stmt: &CStmt, act: u64, pending: &mut Vec<BPending>) -> SimResult<()> {
        if act == 0 {
            return Ok(());
        }
        match stmt {
            CStmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(s, act, pending)?;
                }
                Ok(())
            }
            CStmt::If {
                cond_width,
                cond,
                then_branch,
                else_branch,
            } => {
                let c = bv_nz(&self.eval(cond).truncate(*cond_width));
                self.exec_stmt(then_branch, act & c, pending)?;
                if let Some(e) = else_branch {
                    self.exec_stmt(e, act & !c, pending)?;
                }
                Ok(())
            }
            CStmt::Case {
                subj_width,
                subject,
                arms,
                default,
            } => {
                let sv = self.eval(subject).truncate(*subj_width);
                // First matching arm wins per lane: each arm consumes its
                // matching lanes from the remaining set.
                let mut remaining = act;
                for CCaseArm { labels, body } in arms {
                    if remaining == 0 {
                        break;
                    }
                    let mut hit = 0u64;
                    for label in labels {
                        let lv = self.eval(label).truncate(*subj_width);
                        hit |= !bv_ne_mask(&sv, &lv);
                    }
                    let m = remaining & hit;
                    if m != 0 {
                        self.exec_stmt(body, m, pending)?;
                        remaining &= !m;
                    }
                }
                if let Some(d) = default {
                    self.exec_stmt(d, remaining, pending)?;
                }
                Ok(())
            }
            CStmt::NonBlocking { lhs, rhs } => {
                let v = self.eval(rhs);
                self.queue_write(lhs, v, act, pending)
            }
            CStmt::Blocking { lhs, rhs } => {
                let v = self.eval(rhs);
                self.assign(lhs, &v, act)
            }
            CStmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let v0 = self.eval(init);
                self.assign(var, &v0, act)?;
                // Lanes run the loop in masked lockstep with divergent trip
                // counts: a lane leaves `live` the first time its condition
                // is zero (the scalar break) and never re-enters.
                let mut live = act;
                let mut iters = 0u32;
                loop {
                    let c = self.eval(cond);
                    live &= bv_nz(&c);
                    if live == 0 {
                        break;
                    }
                    self.exec_stmt(body, live, pending)?;
                    let next = self.eval(step);
                    self.assign(var, &next, live)?;
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

    /// Queues a non-blocking write for the lanes in `act`, resolving target
    /// indices now (Verilog captures RHS and indices at statement time).
    fn queue_write(
        &mut self,
        lhs: &CLValue,
        value: BVal,
        act: u64,
        pending: &mut Vec<BPending>,
    ) -> SimResult<()> {
        match lhs {
            CLValue::Whole(id, _) => {
                pending.push(BPending::Whole(*id, value, act));
                Ok(())
            }
            CLValue::MemWord { mem, index, .. } => {
                let idx = lanes_of(&self.eval(index));
                let vals = lanes_of(&value);
                pending.push(BPending::MemWord(*mem, Box::new((idx, vals)), act));
                Ok(())
            }
            CLValue::Bit { sig, lsb, index } => {
                let idxv = self.eval(index);
                if let Some(idx) = bv_uniform(&idxv) {
                    pending.push(BPending::BitConst(*sig, idx as i64 - lsb, value, act));
                } else {
                    let idxl = lanes_of(&idxv);
                    let mut b0 = [0i64; 64];
                    for t in 0..LANES {
                        b0[t] = idxl[t] as i64 - lsb;
                    }
                    pending.push(BPending::BitLanes(*sig, Box::new(b0), value, act));
                }
                Ok(())
            }
            CLValue::Slice {
                sig,
                lsb,
                msb,
                lsbx,
                ..
            } => {
                let mv = self.eval(msb);
                let lv = self.eval(lsbx);
                match (bv_uniform(&mv), bv_uniform(&lv)) {
                    (Some(m), Some(l)) => {
                        let m = m as i64 - lsb;
                        let l = l as i64 - lsb;
                        let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                        let w = ((hi - lo) + 1).min(64) as u32;
                        pending.push(BPending::SliceConst(*sig, lo, w, value, act));
                    }
                    _ => {
                        let ml = lanes_of(&mv);
                        let ll = lanes_of(&lv);
                        let mut lw = [(0i64, 0u32); 64];
                        for t in 0..LANES {
                            let m = ml[t] as i64 - lsb;
                            let l = ll[t] as i64 - lsb;
                            let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                            lw[t] = (lo, ((hi - lo) + 1).min(64) as u32);
                        }
                        pending.push(BPending::SliceLanes(*sig, Box::new(lw), value, act));
                    }
                }
                Ok(())
            }
            CLValue::Concat { total, parts } => {
                let mut remaining = *total;
                for (w, p) in parts {
                    remaining = remaining.saturating_sub(*w);
                    let chunk = bv_shr_const(&value, remaining).truncate(*w);
                    self.queue_write(p, chunk, act, pending)?;
                }
                Ok(())
            }
            CLValue::UnknownIdent(_) | CLValue::UnknownIndex { .. } | CLValue::UnknownSlice(_) => {
                Err(SimError::Eval("batched write to unknown signal".into()))
            }
        }
    }

    /// Commits queued non-blocking writes in order, each under its lane
    /// mask, mirroring the scalar commit protocol plane-for-plane.
    fn commit(&mut self, pending: Vec<BPending>) {
        for w in pending {
            match w {
                BPending::Whole(id, v, act) => {
                    let width = self.compiled.signal(id).width;
                    self.write_sig(id, &v.truncate(width), act);
                }
                BPending::MemWord(mem, b, act) => {
                    let wm = mask(self.mem_width(mem));
                    let m = &mut self.mems[mem as usize];
                    let depth = m.len() / LANES;
                    let (idx, vals) = &*b;
                    let mut changed = false;
                    for t in 0..LANES {
                        if act >> t & 1 == 1 {
                            let i = idx[t] as usize;
                            if i < depth {
                                let nv = vals[t] & wm;
                                changed |= m[i * LANES + t] != nv;
                                m[i * LANES + t] = nv;
                            }
                        }
                    }
                    if changed {
                        self.mark_mem(mem);
                    }
                }
                BPending::BitConst(id, b0, v, act) => {
                    if b0 >= 0 {
                        // The scalar commit path re-resolves the stored
                        // offset through the assignment path, subtracting
                        // the declared lsb a second time; mirror that.
                        let bit = b0 - self.compiled.signal(id).lsb;
                        if (0..64).contains(&bit) {
                            let off = self.offsets[id.index()] as usize;
                            let v0 = v.plane(0);
                            let slot = off + bit as usize;
                            let nv = (self.planes[slot] & !act) | (v0 & act);
                            if self.planes[slot] != nv {
                                self.planes[slot] = nv;
                                self.mark_sig(id);
                            }
                        }
                    }
                }
                BPending::BitLanes(id, b0s, v, act) => {
                    let lsb = self.compiled.signal(id).lsb;
                    let off = self.offsets[id.index()] as usize;
                    let v0 = v.plane(0);
                    let mut changed = false;
                    for t in 0..LANES {
                        if act >> t & 1 == 0 {
                            continue;
                        }
                        let b0 = b0s[t];
                        if b0 < 0 {
                            continue;
                        }
                        let bit = b0 - lsb;
                        if (0..64).contains(&bit) {
                            let slot = off + bit as usize;
                            let nv = (self.planes[slot] & !(1 << t)) | ((v0 >> t & 1) << t);
                            changed |= self.planes[slot] != nv;
                            self.planes[slot] = nv;
                        }
                    }
                    if changed {
                        self.mark_sig(id);
                    }
                }
                BPending::SliceConst(id, lo, w, v, act) => {
                    if lo >= 0 {
                        let sig = self.compiled.signal(id);
                        let (width, siglsb) = (sig.width, sig.lsb);
                        let hi2 = lo + i64::from(w) - 1 - siglsb;
                        let lo2 = lo - siglsb;
                        if (0..=63).contains(&lo2) {
                            let w2 = ((hi2 - lo2) + 1).min(64) as u32;
                            self.write_slice_planes(
                                id,
                                lo2 as u32,
                                w2,
                                &v.truncate(w2),
                                width,
                                act,
                            );
                        }
                    }
                }
                BPending::SliceLanes(id, lws, v, act) => {
                    let (width, siglsb) = {
                        let sig = self.compiled.signal(id);
                        (sig.width, sig.lsb)
                    };
                    let mut lanes = lanes_of(&self.read_sig(id));
                    let vl = lanes_of(&v);
                    for t in 0..LANES {
                        if act >> t & 1 == 0 {
                            continue;
                        }
                        let (lo, w) = lws[t];
                        if lo < 0 {
                            continue;
                        }
                        let hi2 = lo + i64::from(w) - 1 - siglsb;
                        let lo2 = lo - siglsb;
                        if !(0..=63).contains(&lo2) {
                            continue;
                        }
                        let w2 = ((hi2 - lo2) + 1).min(64) as u32;
                        let field = mask(w2) << lo2;
                        lanes[t] =
                            ((lanes[t] & !field) | ((vl[t] & mask(w2)) << lo2)) & mask(width);
                    }
                    let newv = bv_from_lanes(lanes);
                    self.write_sig(id, &newv, FULL);
                }
            }
        }
    }

    /// Writes `value` through an lvalue with blocking semantics for the
    /// lanes in `act`.
    fn assign(&mut self, lv: &CLValue, value: &BVal, act: u64) -> SimResult<()> {
        match lv {
            CLValue::Whole(id, width) => {
                self.write_sig(*id, &value.truncate(*width), act);
                Ok(())
            }
            CLValue::MemWord { mem, width, index } => {
                let idx = lanes_of(&self.eval(index));
                let vals = lanes_of(value);
                let wm = mask(*width);
                let m = &mut self.mems[*mem as usize];
                let depth = m.len() / LANES;
                let mut changed = false;
                for t in 0..LANES {
                    if act >> t & 1 == 1 {
                        let i = idx[t] as usize;
                        if i < depth {
                            let nv = vals[t] & wm;
                            changed |= m[i * LANES + t] != nv;
                            m[i * LANES + t] = nv;
                        }
                    }
                }
                if changed {
                    self.mark_mem(*mem);
                }
                Ok(())
            }
            CLValue::Bit { sig, lsb, index } => {
                let idxv = self.eval(index);
                let v0 = value.plane(0);
                let off = self.offsets[sig.index()] as usize;
                if let Some(idx) = bv_uniform(&idxv) {
                    let bit = idx as i64 - lsb;
                    if !(0..64).contains(&bit) {
                        return Ok(());
                    }
                    // Bit-target signals always carry 64 planes of storage.
                    let slot = off + bit as usize;
                    let nv = (self.planes[slot] & !act) | (v0 & act);
                    if self.planes[slot] != nv {
                        self.planes[slot] = nv;
                        self.mark_sig(*sig);
                    }
                } else {
                    let idxl = lanes_of(&idxv);
                    let mut changed = false;
                    for (t, &lane_idx) in idxl.iter().enumerate() {
                        if act >> t & 1 == 0 {
                            continue;
                        }
                        let bit = lane_idx as i64 - lsb;
                        if !(0..64).contains(&bit) {
                            continue;
                        }
                        let slot = off + bit as usize;
                        let nv = (self.planes[slot] & !(1 << t)) | ((v0 >> t & 1) << t);
                        changed |= self.planes[slot] != nv;
                        self.planes[slot] = nv;
                    }
                    if changed {
                        self.mark_sig(*sig);
                    }
                }
                Ok(())
            }
            CLValue::Slice {
                sig,
                width,
                lsb,
                msb,
                lsbx,
            } => {
                let mv = self.eval(msb);
                let lv_ = self.eval(lsbx);
                match (bv_uniform(&mv), bv_uniform(&lv_)) {
                    (Some(m), Some(l)) => {
                        let m = m as i64 - lsb;
                        let l = l as i64 - lsb;
                        let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                        if !(0..=63).contains(&lo) {
                            return Ok(());
                        }
                        let w = ((hi - lo) + 1).min(64) as u32;
                        self.write_slice_planes(
                            *sig,
                            lo as u32,
                            w,
                            &value.truncate(w),
                            *width,
                            act,
                        );
                    }
                    _ => {
                        let mut lanes = lanes_of(&self.read_sig(*sig));
                        let vl = lanes_of(value);
                        let ml = lanes_of(&mv);
                        let ll = lanes_of(&lv_);
                        for t in 0..LANES {
                            if act >> t & 1 == 0 {
                                continue;
                            }
                            let m = ml[t] as i64 - lsb;
                            let l = ll[t] as i64 - lsb;
                            let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                            if !(0..=63).contains(&lo) {
                                continue;
                            }
                            let w = ((hi - lo) + 1).min(64) as u32;
                            let field = mask(w) << lo;
                            lanes[t] =
                                ((lanes[t] & !field) | ((vl[t] & mask(w)) << lo)) & mask(*width);
                        }
                        let newv = bv_from_lanes(lanes);
                        self.write_sig(*sig, &newv, FULL);
                    }
                }
                Ok(())
            }
            CLValue::Concat { total, parts } => {
                let mut remaining = *total;
                for (w, p) in parts {
                    remaining = remaining.saturating_sub(*w);
                    let chunk = bv_shr_const(value, remaining).truncate(*w);
                    self.assign(p, &chunk, act)?;
                }
                Ok(())
            }
            CLValue::UnknownIdent(_) | CLValue::UnknownIndex { .. } | CLValue::UnknownSlice(_) => {
                Err(SimError::Eval("batched write to unknown signal".into()))
            }
        }
    }

    /// Applies the scalar part-select write formula plane-wise under a lane
    /// mask: `new = ((slot & !field) | ((v & mask(w)) << lo)) & mask(width)`.
    fn write_slice_planes(
        &mut self,
        id: SignalId,
        lo: u32,
        w: u32,
        value: &BVal,
        width: u32,
        act: u64,
    ) {
        let off = self.offsets[id.index()] as usize;
        let n = self.counts[id.index()];
        let wm = width.min(64);
        let hi = lo.saturating_add(w);
        let mut diff = 0u64;
        for b in 0..n {
            let newp = if b >= wm {
                0
            } else if b >= lo && b < hi {
                value.plane(b - lo)
            } else {
                self.planes[off + b as usize]
            };
            let p = &mut self.planes[off + b as usize];
            let nv = (*p & !act) | (newp & act);
            diff |= *p ^ nv;
            *p = nv;
        }
        if diff != 0 {
            self.mark_sig(id);
        }
    }

    /// Evaluates a compiled expression across all 64 lanes. Results are
    /// unmasked exactly like the scalar engine (carries survive into wider
    /// targets); eval is infallible because the classification pass rejected
    /// every lazily-raised error node.
    fn eval(&self, expr: &CExpr) -> BVal {
        match expr {
            CExpr::Lit(v) => BVal::splat(*v),
            CExpr::Sig(id) => self.read_sig(*id),
            CExpr::MemRead { mem, index } => {
                let idx = lanes_of(&self.eval(index));
                let m = &self.mems[*mem as usize];
                let depth = m.len() / LANES;
                let mut out = [0u64; 64];
                for t in 0..LANES {
                    let i = idx[t] as usize;
                    out[t] = if i < depth { m[i * LANES + t] } else { 0 };
                }
                bv_from_lanes(out)
            }
            CExpr::BitRead { sig, lsb, index } => {
                let idxv = self.eval(index);
                if let Some(idx) = bv_uniform(&idxv) {
                    let bit = idx as i64 - lsb;
                    if !(0..64).contains(&bit) {
                        return BVal::ZERO;
                    }
                    BVal::bool_mask(self.read_sig(*sig).plane(bit as u32))
                } else {
                    let idxl = lanes_of(&idxv);
                    let vl = lanes_of(&self.read_sig(*sig));
                    let mut out = [0u64; 64];
                    for t in 0..LANES {
                        let bit = idxl[t] as i64 - lsb;
                        out[t] = if (0..64).contains(&bit) {
                            (vl[t] >> bit) & 1
                        } else {
                            0
                        };
                    }
                    bv_from_lanes(out)
                }
            }
            CExpr::SliceRead {
                value,
                lsb,
                msb,
                lsbx,
            } => {
                let mv = self.eval(msb);
                let lv = self.eval(lsbx);
                let v = value.map_or(BVal::ZERO, |id| self.read_sig(id));
                match (bv_uniform(&mv), bv_uniform(&lv)) {
                    (Some(m), Some(l)) => {
                        let m = m as i64 - lsb;
                        let l = l as i64 - lsb;
                        let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                        if !(0..=63).contains(&lo) {
                            return BVal::ZERO;
                        }
                        let w = ((hi - lo) + 1).min(64) as u32;
                        bv_shr_const(&v, lo as u32).truncate(w)
                    }
                    _ => {
                        let vl = lanes_of(&v);
                        let ml = lanes_of(&mv);
                        let ll = lanes_of(&lv);
                        let mut out = [0u64; 64];
                        for t in 0..LANES {
                            let m = ml[t] as i64 - lsb;
                            let l = ll[t] as i64 - lsb;
                            let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                            out[t] = if (0..=63).contains(&lo) {
                                let w = ((hi - lo) + 1).min(64) as u32;
                                (vl[t] >> lo) & mask(w)
                            } else {
                                0
                            };
                        }
                        bv_from_lanes(out)
                    }
                }
            }
            CExpr::Concat(parts) => {
                let mut acc = BVal::ZERO;
                for (w, p) in parts {
                    let v = self.eval(p).truncate(*w);
                    acc = bv_bitwise(&bv_shl_const(&acc, (*w).min(63)), &v, |x, y| x | y);
                }
                acc
            }
            CExpr::Repeat {
                width,
                count,
                value,
            } => {
                // The classification pass guarantees a literal count.
                let c = const_of(count).unwrap_or(0);
                let v = self.eval(value).truncate(*width);
                let mut acc = BVal::ZERO;
                for _ in 0..c.min(64) {
                    acc = bv_bitwise(&bv_shl_const(&acc, (*width).min(63)), &v, |x, y| x | y);
                }
                acc
            }
            CExpr::Unary { op, width, arg } => {
                let w = *width;
                let v = self.eval(arg).truncate(w);
                let n = w.min(64);
                match op {
                    UnaryOp::LogicalNot => BVal::bool_mask(!bv_nz(&v)),
                    UnaryOp::BitNot => {
                        let mut out = BVal::ZERO;
                        out.len = n;
                        for b in 0..n {
                            out.planes[b as usize] = !v.plane(b);
                        }
                        out
                    }
                    UnaryOp::Neg => bv_sub(&BVal::ZERO, &v),
                    UnaryOp::ReduceAnd => {
                        let mut acc = FULL;
                        for b in 0..n {
                            acc &= v.plane(b);
                        }
                        BVal::bool_mask(acc)
                    }
                    UnaryOp::ReduceOr => BVal::bool_mask(bv_nz(&v)),
                    UnaryOp::ReduceXor => {
                        let mut acc = 0u64;
                        for b in 0..n {
                            acc ^= v.plane(b);
                        }
                        BVal::bool_mask(acc)
                    }
                    UnaryOp::ReduceNand => {
                        let mut acc = FULL;
                        for b in 0..n {
                            acc &= v.plane(b);
                        }
                        BVal::bool_mask(!acc)
                    }
                    UnaryOp::ReduceNor => BVal::bool_mask(!bv_nz(&v)),
                    UnaryOp::ReduceXnor => {
                        let mut acc = 0u64;
                        for b in 0..n {
                            acc ^= v.plane(b);
                        }
                        BVal::bool_mask(!acc)
                    }
                }
            }
            CExpr::Binary {
                op,
                cmp_width,
                lhs,
                rhs,
            } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                match op {
                    BinaryOp::Add => bv_add(&a, &b),
                    BinaryOp::Sub => bv_sub(&a, &b),
                    BinaryOp::Mul => per_lane2(&a, &b, |x, y| x.wrapping_mul(y)),
                    BinaryOp::BitAnd => bv_bitwise(&a, &b, |x, y| x & y),
                    BinaryOp::BitOr => bv_bitwise(&a, &b, |x, y| x | y),
                    BinaryOp::BitXor => bv_bitwise(&a, &b, |x, y| x ^ y),
                    BinaryOp::BitXnor => {
                        let n = (*cmp_width).min(64);
                        let mut out = BVal::ZERO;
                        out.len = n;
                        for i in 0..n {
                            out.planes[i as usize] = !(a.plane(i) ^ b.plane(i));
                        }
                        out
                    }
                    _ => {
                        let am = a.truncate(*cmp_width);
                        let bm = b.truncate(*cmp_width);
                        match op {
                            BinaryOp::Div => {
                                per_lane2(&am, &bm, |x, y| x.checked_div(y).unwrap_or(0))
                            }
                            BinaryOp::Mod => {
                                per_lane2(&am, &bm, |x, y| x.checked_rem(y).unwrap_or(0))
                            }
                            BinaryOp::LogicalAnd => BVal::bool_mask(bv_nz(&am) & bv_nz(&bm)),
                            BinaryOp::LogicalOr => BVal::bool_mask(bv_nz(&am) | bv_nz(&bm)),
                            BinaryOp::Eq => BVal::bool_mask(!bv_ne_mask(&am, &bm)),
                            BinaryOp::Ne => BVal::bool_mask(bv_ne_mask(&am, &bm)),
                            BinaryOp::Lt => BVal::bool_mask(bv_lt_mask(&am, &bm)),
                            BinaryOp::Le => BVal::bool_mask(!bv_lt_mask(&bm, &am)),
                            BinaryOp::Gt => BVal::bool_mask(bv_lt_mask(&bm, &am)),
                            BinaryOp::Ge => BVal::bool_mask(!bv_lt_mask(&am, &bm)),
                            BinaryOp::Shl => match bv_uniform(&bm) {
                                Some(s) if s >= 64 => BVal::ZERO,
                                Some(s) => bv_shl_const(&am, s as u32),
                                None => per_lane2(&am, &bm, |x, y| {
                                    if y >= 64 {
                                        0
                                    } else {
                                        x.wrapping_shl(y as u32)
                                    }
                                }),
                            },
                            BinaryOp::Shr => match bv_uniform(&bm) {
                                Some(s) if s >= 64 => BVal::ZERO,
                                Some(s) => bv_shr_const(&am, s as u32),
                                None => per_lane2(&am, &bm, |x, y| {
                                    if y >= 64 {
                                        0
                                    } else {
                                        x.wrapping_shr(y as u32)
                                    }
                                }),
                            },
                            _ => unreachable!("handled above"),
                        }
                    }
                }
            }
            CExpr::Ternary {
                cond_width,
                cond,
                then_expr,
                else_expr,
            } => {
                let cm = bv_nz(&self.eval(cond).truncate(*cond_width));
                // Both branches are error-free (classification), so the
                // lane-masked select is exact even though the scalar engine
                // evaluates only the taken branch.
                if cm == FULL {
                    self.eval(then_expr)
                } else if cm == 0 {
                    self.eval(else_expr)
                } else {
                    let t = self.eval(then_expr);
                    let e = self.eval(else_expr);
                    bv_select(cm, &t, &e)
                }
            }
            CExpr::Clog2(arg) => per_lane1(&self.eval(arg), rtlb_verilog::clog2),
            CExpr::Error(_) | CExpr::IndexError { .. } => {
                unreachable!("classification rejects error nodes")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use crate::sim::Simulator;
    use rtlb_verilog::parse;

    fn naive_transpose(a: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (r, row) in a.iter().enumerate() {
            for (c, cell) in out.iter_mut().enumerate() {
                *cell |= ((row >> c) & 1) << r;
            }
        }
        out
    }

    #[test]
    fn transpose64_matches_naive_and_inverts() {
        // Deterministic pseudo-random matrix (xorshift).
        let mut x = 0x9E37_79B9_97F4_A7C1u64;
        let mut m = [0u64; 64];
        for slot in m.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        let mut t = m;
        transpose64(&mut t);
        assert_eq!(t, naive_transpose(&m));
        transpose64(&mut t);
        assert_eq!(t, m, "transpose must be self-inverse");
    }

    #[test]
    fn splat_uniform_roundtrip() {
        for v in [0u64, 1, 0xBEEF, u64::MAX, 1 << 63] {
            let bv = BVal::splat(v);
            assert_eq!(bv_uniform(&bv), Some(v));
            assert_eq!(lanes_of(&bv), [v; 64]);
        }
    }

    #[test]
    fn swar_add_sub_match_scalar_lanes() {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut la = [0u64; 64];
        let mut lb = [0u64; 64];
        for t in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            la[t] = x >> 3;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            lb[t] = x >> 7;
        }
        let a = bv_from_lanes(la);
        let b = bv_from_lanes(lb);
        let sum = lanes_of(&bv_add(&a, &b));
        let diff = lanes_of(&bv_sub(&a, &b));
        let lt = bv_lt_mask(&a.truncate(64), &b.truncate(64));
        for t in 0..64 {
            assert_eq!(sum[t], la[t].wrapping_add(lb[t]), "add lane {t}");
            assert_eq!(diff[t], la[t].wrapping_sub(lb[t]), "sub lane {t}");
            assert_eq!(lt >> t & 1 == 1, la[t] < lb[t], "lt lane {t}");
        }
    }

    #[test]
    fn batched_adder_matches_scalar_all_lanes() {
        let src =
            "module adder(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                   assign {carry_out, sum} = a + b;\nendmodule";
        let file = parse(src).unwrap();
        let design = elaborate(&file.modules[0], &file.modules).unwrap();
        let compiled = Arc::new(crate::compile::compile(&design).unwrap());
        assert!(compiled.is_batchable());
        let mut batch = BatchSimulator::from_compiled(Arc::clone(&compiled)).unwrap();
        let mut av = [0u64; 64];
        let mut bv = [0u64; 64];
        for t in 0..64 {
            av[t] = (t as u64 * 7 + 3) & 0xF;
            bv[t] = (t as u64 * 13 + 1) & 0xF;
        }
        batch.poke_lanes("a", &av).unwrap();
        batch.poke_lanes("b", &bv).unwrap();
        let sum = batch.peek_lanes("sum").unwrap();
        let carry = batch.peek_lanes("carry_out").unwrap();
        for t in 0..64 {
            let mut scalar = Simulator::from_compiled(Arc::clone(&compiled)).unwrap();
            scalar.poke("a", av[t]).unwrap();
            scalar.poke("b", bv[t]).unwrap();
            assert_eq!(sum[t], scalar.peek("sum").unwrap(), "sum lane {t}");
            assert_eq!(
                carry[t],
                scalar.peek("carry_out").unwrap(),
                "carry lane {t}"
            );
        }
    }

    #[test]
    fn batched_dff_edges_fire_per_lane() {
        let src = "module dff(input clk, input d, output reg q);\n\
                   always @(posedge clk) q <= d;\nendmodule";
        let file = parse(src).unwrap();
        let design = elaborate(&file.modules[0], &file.modules).unwrap();
        let compiled = Arc::new(crate::compile::compile(&design).unwrap());
        let mut batch = BatchSimulator::from_compiled(Arc::clone(&compiled)).unwrap();
        let mut d = [0u64; 64];
        for (t, slot) in d.iter_mut().enumerate() {
            *slot = (t as u64) & 1;
        }
        batch.poke_lanes("d", &d).unwrap();
        batch.tick("clk").unwrap();
        assert_eq!(batch.peek_lanes("q").unwrap(), d);
    }

    #[test]
    fn comb_cycle_design_is_rejected() {
        let file = parse(
            "module latchish(input s, output a, output b);\n\
             assign a = b | s;\nassign b = a;\nendmodule",
        )
        .unwrap();
        let design = elaborate(&file.modules[0], &file.modules).unwrap();
        let compiled = Arc::new(crate::compile::compile(&design).unwrap());
        assert!(!compiled.is_batchable());
        assert!(BatchSimulator::from_compiled(compiled).is_err());
    }
}
