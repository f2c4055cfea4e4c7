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

/// Width-bounded transpose for ports of at most 8 bits (the common case for
/// poked inputs): each group of eight lanes is packed one lane per byte and
/// transposed as an 8×8 bit matrix (Hacker's Delight 7-2), so byte `b` holds
/// bit `b` of the eight lanes. Lane bits at or above `w` must already be
/// masked off by the caller.
#[inline]
fn bv_from_lanes_narrow(lanes: &[u64; 64], w: u32) -> BVal {
    debug_assert!(w <= 8);
    let mut out = BVal::ZERO;
    out.len = w;
    for (g, group) in lanes.chunks_exact(8).enumerate() {
        let mut x = 0u64;
        for (i, &v) in group.iter().enumerate() {
            x |= v << (8 * i);
        }
        let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x ^= t ^ (t << 28);
        for (b, plane) in out.planes[..w as usize].iter_mut().enumerate() {
            *plane |= (x >> (8 * b) & 0xFF) << (8 * g);
        }
    }
    out.trim();
    out
}

/// A stimulus column masked to a port width and transposed into bit planes
/// once, so both simulators of a comparison can be poked from one transpose
/// (see [`BatchSimulator::poke_planes_id`]).
pub(crate) struct LanePlanes {
    width: u32,
    value: BVal,
}

impl LanePlanes {
    /// Masks each lane of `values` to `width` bits and transposes them.
    pub(crate) fn new(values: &[u64; 64], width: u32) -> LanePlanes {
        let wm = mask(width);
        let mut lanes = [0u64; 64];
        for t in 0..LANES {
            lanes[t] = values[t] & wm;
        }
        let uniform = lanes.iter().all(|&v| v == lanes[0]);
        // Transposing is the fixed cost of the batched input side; narrow
        // ports (the common case) take the 8×8 block transpose instead of
        // the full 64×64 butterfly, and uniform drives skip it entirely.
        let value = if uniform {
            BVal::splat(lanes[0])
        } else if width <= 8 {
            bv_from_lanes_narrow(&lanes, width)
        } else {
            bv_from_lanes(lanes)
        };
        LanePlanes { width, value }
    }
}

/// Lane-mask where two stored plane slices differ, a missing plane reading
/// as 0: bit `t` is set exactly when lane `t`'s values differ.
pub(crate) fn lane_diff(a: &[u64], b: &[u64]) -> u64 {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut diff = 0u64;
    for (i, &p) in long.iter().enumerate() {
        diff |= p ^ short.get(i).copied().unwrap_or(0);
    }
    diff
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

/// A 64-lane batched RTL simulator over a compiled design.
///
/// Each lane is one independent trial: [`BatchSimulator::poke_lanes`] drives
/// per-lane input values, one [`BatchSimulator::settle`] sweep settles all
/// 64 trials, and [`BatchSimulator::peek_lanes`] reads the per-lane outputs
/// back. Lanes beyond the trial count simply carry the all-zero stimulus and
/// are ignored at readout.
///
/// Construction requires [`CompiledDesign::is_batchable`]; the harness falls
/// back to the scalar [`crate::Simulator`] otherwise. The static tables the
/// engine runs on, the dirty-skip readers and the plane layout, are built
/// once per design by [`crate::compile()`]; a simulator allocates only its
/// own planes, memories, fuel and dirty flags.
pub struct BatchSimulator {
    compiled: Arc<CompiledDesign>,
    /// Transposed state, laid out by [`CompiledDesign`]'s plane table.
    planes: Vec<u64>,
    /// Memories stay lane-major (`[word * 64 + lane]`): every access indexes
    /// per-lane anyway, so scalar words avoid a transpose per reference.
    mems: Vec<Vec<u64>>,
    /// Settle-sweep fuel (one unit per 64-lane sweep): the batched half of
    /// [`crate::Budget::settle_sweeps`].
    fuel: Fuel,
    /// Dirty flag per comb node: set when anything the node reads (the
    /// compiled design lists it among that signal's or memory's readers)
    /// changed since it last executed. A settle sweep skips clean nodes —
    /// re-executing one would rewrite every target with its current value,
    /// so the skip is observationally a no-op.
    dirty: Vec<bool>,
    /// Number of set flags in `dirty`: a settle with none skips its sweep.
    ndirty: usize,
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
        let nnode = compiled.comb.len();
        let mut sim = BatchSimulator {
            planes: vec![0u64; compiled.plane_offsets.last().map_or(0, |&n| n as usize)],
            mems: compiled
                .mem_depths
                .iter()
                .map(|(_, depth)| vec![0u64; *depth as usize * LANES])
                .collect(),
            fuel: Fuel::new(
                "settle sweeps",
                crate::fault::current_budget().settle_sweeps,
            ),
            dirty: vec![true; nnode],
            ndirty: nnode,
            comb_evals: 0,
            compiled,
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
        for &n in &self.compiled.sig_readers[id.index()] {
            let d = &mut self.dirty[n as usize];
            self.ndirty += usize::from(!*d);
            *d = true;
        }
    }

    #[inline]
    fn mark_mem(&mut self, mem: u32) {
        for &n in &self.compiled.mem_readers[mem as usize] {
            let d = &mut self.dirty[n as usize];
            self.ndirty += usize::from(!*d);
            *d = true;
        }
    }

    /// Where a signal's planes sit in `planes`.
    #[inline]
    fn plane_range(&self, id: SignalId) -> std::ops::Range<usize> {
        let offsets = &self.compiled.plane_offsets;
        offsets[id.index()] as usize..offsets[id.index() + 1] as usize
    }

    /// The stored planes of a signal (planes above read as 0).
    #[inline]
    pub(crate) fn planes_id(&self, id: SignalId) -> &[u64] {
        &self.planes[self.plane_range(id)]
    }

    #[inline]
    fn read_sig(&self, id: SignalId) -> BVal {
        let stored = self.planes_id(id);
        let n = stored.len();
        let mut v = BVal::ZERO;
        v.planes[..n].copy_from_slice(stored);
        v.len = n as u32;
        v.trim();
        v
    }

    #[inline]
    fn write_sig(&mut self, id: SignalId, v: &BVal, act: u64) {
        let range = self.plane_range(id);
        let mut diff = 0u64;
        if act == FULL {
            for (b, p) in self.planes[range].iter_mut().enumerate() {
                let nv = v.plane(b as u32);
                diff |= *p ^ nv;
                *p = nv;
            }
        } else {
            for (b, p) in self.planes[range].iter_mut().enumerate() {
                let nv = (*p & !act) | (v.plane(b as u32) & act);
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
        self.poke_planes_id(id, &LanePlanes::new(values, self.compiled.signal(id).width))
    }

    /// [`BatchSimulator::poke_lanes`] by resolved [`SignalId`] from a column
    /// already transposed, so a comparison transposes each stimulus column
    /// once for both of its simulators. Planes wider than the port are
    /// masked to its width, which gives the same value as poking the lanes.
    /// The id must come from this design's [`CompiledDesign::signal_id`].
    ///
    /// # Errors
    ///
    /// Fails when any lane's execution errors.
    pub(crate) fn poke_planes_id(&mut self, id: SignalId, planes: &LanePlanes) -> SimResult<()> {
        crate::fault::inject(crate::fault::FaultSite::LaneExtract)?;
        let width = self.compiled.signal(id).width;
        if planes.width <= width {
            self.poke_bv(id, &planes.value)
        } else {
            self.poke_bv(id, &planes.value.truncate(width))
        }
    }

    fn poke_bv(&mut self, id: SignalId, new: &BVal) -> SimResult<()> {
        let old_nz = self.planes_id(id).iter().fold(0, |acc, &p| acc | p);
        let new_nz = bv_nz(new);
        self.write_sig(id, new, FULL);
        // Per-lane edge masks mirror the scalar whole-value edge rule:
        // 0 -> nonzero is a posedge, nonzero -> 0 a negedge. Only a signal
        // some edge process watches can fire one.
        let pos = !old_nz & new_nz;
        let neg = old_nz & !new_nz;
        if (pos != 0 || neg != 0) && self.compiled.watched[id.index()] {
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
        self.poke_all_id(id, value)
    }

    /// [`BatchSimulator::poke_all`] by resolved [`SignalId`].
    ///
    /// # Errors
    ///
    /// Fails when any lane's execution errors.
    pub(crate) fn poke_all_id(&mut self, id: SignalId, value: u64) -> SimResult<()> {
        let wm = mask(self.compiled.signal(id).width);
        self.poke_bv(id, &BVal::splat(value & wm))
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

    /// [`BatchSimulator::tick`] by resolved [`SignalId`].
    ///
    /// # Errors
    ///
    /// Fails when any lane's execution errors.
    pub(crate) fn tick_id(&mut self, clock: SignalId) -> SimResult<()> {
        self.poke_all_id(clock, 1)?;
        self.poke_all_id(clock, 0)
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
        // Nothing changed since the last sweep: every node would be skipped.
        if self.ndirty == 0 {
            return Ok(());
        }
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
            // read set changed since its last run. Clean nodes would
            // rewrite every target with its current value (whole targets
            // under the full mask are pure functions of the read set; partial
            // targets carry the old value *in* the read set), so skipping is
            // bitwise-invisible — `batch_equiv.rs` pins this in lockstep.
            if !self.dirty[i as usize] {
                continue;
            }
            self.dirty[i as usize] = false;
            self.ndirty -= 1;
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
                            let off = self.plane_range(id).start;
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
                    let off = self.plane_range(id).start;
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
                let off = self.plane_range(*sig).start;
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
        let range = self.plane_range(id);
        let wm = width.min(64);
        let hi = lo.saturating_add(w);
        let mut diff = 0u64;
        for (b, p) in self.planes[range].iter_mut().enumerate() {
            let b = b as u32;
            let newp = if b >= wm {
                0
            } else if b >= lo && b < hi {
                value.plane(b - lo)
            } else {
                *p
            };
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
    fn narrow_transpose_matches_naive_at_every_width() {
        let mut x = 0x9E37_79B9_97F4_A7C1u64;
        for w in 1..=8 {
            let mut lanes = [0u64; 64];
            for lane in lanes.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *lane = x & mask(w);
            }
            let narrow = bv_from_lanes_narrow(&lanes, w);
            assert_eq!(narrow.materialize(), naive_transpose(&lanes), "w={w}");
            assert!(narrow.len <= w, "w={w}");
        }
    }

    #[test]
    fn lane_diff_reads_missing_planes_as_zero() {
        assert_eq!(lane_diff(&[0b1010, 0b0110], &[0b1010]), 0b0110);
        assert_eq!(lane_diff(&[0b1010], &[0b1000, 0, 0]), 0b0010);
        assert_eq!(lane_diff(&[], &[0, 0]), 0);
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
