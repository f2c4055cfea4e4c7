//! Compilation: lowers an elaborated [`Design`] into an ID-resolved form the
//! simulator executes without string lookups or AST clones on the hot path.
//!
//! The pipeline is **parse → elaborate → compile → simulate**:
//!
//! * every signal name is interned to a dense [`SignalId`] (`u32`), so state
//!   becomes a `Vec<u64>` (plus `Vec<Vec<u64>>` for memories) instead of a
//!   `HashMap<String, u64>`;
//! * expressions, statements, and lvalues are lowered to compiled nodes with
//!   all widths and bit offsets resolved at compile time (the interpreter
//!   re-derived them on every evaluation);
//! * processes are partitioned into edge-triggered and combinational sets, so
//!   a clock edge never scans level-sensitive blocks;
//! * continuous assignments and combinational processes are **levelized**: a
//!   bit-range-precise dependency graph orders them so one topological sweep
//!   reaches the settling fixpoint. Designs with genuine combinational cycles
//!   keep `schedule == None` and settle through the bounded fixpoint loop
//!   instead (see [`CompiledDesign::is_levelized`]).
//!
//! Compiled execution is pinned bit-for-bit against the tree-walking
//! reference interpreter ([`crate::ReferenceSimulator`]) by the equivalence
//! tests in `tests/compiled_equiv.rs` and the workspace suite tests.

use crate::elab::Design;
use crate::error::{SimError, SimResult};
use crate::eval::{lvalue_width, width_of};
use rtlb_verilog::ast::*;
use rtlb_verilog::SymbolId;
use std::collections::HashMap;

/// An interned signal identifier: a dense index into the compiled design's
/// signal table and the simulator's value vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl SignalId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-signal compile-time metadata (dense, indexed by [`SignalId`]).
#[derive(Debug, Clone)]
pub struct CompiledSignal {
    /// Hierarchical signal name (kept for the peek/poke boundary).
    pub name: SymbolId,
    /// Bit width of one element.
    pub width: u32,
    /// Least-significant bit index of the packed range.
    pub lsb: i64,
    /// Array depth (1 for plain signals).
    pub depth: u32,
    /// Memory slot when `depth > 1`.
    pub mem: Option<u32>,
}

/// A compiled expression: widths resolved, signals interned.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    /// Literal value.
    Lit(u64),
    /// Whole-signal read.
    Sig(SignalId),
    /// Memory word read (out-of-range indices read 0).
    MemRead { mem: u32, index: Box<CExpr> },
    /// Single-bit read of a vector signal.
    BitRead {
        sig: SignalId,
        lsb: i64,
        index: Box<CExpr>,
    },
    /// Part-select read. `value` is `None` when the base is a memory (the
    /// interpreter reads 0 for a part-select of a memory name).
    SliceRead {
        value: Option<SignalId>,
        lsb: i64,
        msb: Box<CExpr>,
        lsbx: Box<CExpr>,
    },
    /// Concatenation; each part carries its self-determined width.
    Concat(Vec<(u32, CExpr)>),
    /// Replication; `width` is the operand's self-determined width.
    Repeat {
        width: u32,
        count: Box<CExpr>,
        value: Box<CExpr>,
    },
    /// Unary operation over an operand of precomputed width.
    Unary {
        op: UnaryOp,
        width: u32,
        arg: Box<CExpr>,
    },
    /// Binary operation with the precomputed comparison width.
    Binary {
        op: BinaryOp,
        cmp_width: u32,
        lhs: Box<CExpr>,
        rhs: Box<CExpr>,
    },
    /// Conditional with the precomputed condition width.
    Ternary {
        cond_width: u32,
        cond: Box<CExpr>,
        then_expr: Box<CExpr>,
        else_expr: Box<CExpr>,
    },
    /// `$clog2` over a runtime value.
    Clog2(Box<CExpr>),
    /// An evaluation error raised lazily, preserving the interpreter's
    /// behaviour for references that only fail when actually evaluated.
    Error(String),
    /// Like [`CExpr::Error`], but the index expression is evaluated first
    /// (mirrors the interpreter's evaluation order for `unknown[idx]`).
    IndexError { index: Box<CExpr>, msg: String },
}

/// A compiled assignment target.
#[derive(Debug, Clone)]
pub(crate) enum CLValue {
    /// Whole-signal write; carries the target width.
    Whole(SignalId, u32),
    /// Memory word write; carries the word width.
    MemWord {
        mem: u32,
        width: u32,
        index: Box<CExpr>,
    },
    /// Single-bit write.
    Bit {
        sig: SignalId,
        lsb: i64,
        index: Box<CExpr>,
    },
    /// Part-select write; carries the full signal width for final masking.
    Slice {
        sig: SignalId,
        width: u32,
        lsb: i64,
        msb: Box<CExpr>,
        lsbx: Box<CExpr>,
    },
    /// Concatenated targets, MSB first, each with its precomputed width.
    Concat {
        total: u32,
        parts: Vec<(u32, CLValue)>,
    },
    /// Write to an undeclared plain signal (raised when executed).
    UnknownIdent(String),
    /// Write to an undeclared indexed signal (index evaluated first).
    UnknownIndex { name: String, index: Box<CExpr> },
    /// Write to an undeclared sliced signal (raised before bound evaluation).
    UnknownSlice(String),
}

/// A compiled procedural statement.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Block(Vec<CStmt>),
    If {
        cond_width: u32,
        cond: CExpr,
        then_branch: Box<CStmt>,
        else_branch: Option<Box<CStmt>>,
    },
    Case {
        subj_width: u32,
        subject: CExpr,
        arms: Vec<CCaseArm>,
        default: Option<Box<CStmt>>,
    },
    NonBlocking {
        lhs: CLValue,
        rhs: CExpr,
    },
    Blocking {
        lhs: CLValue,
        rhs: CExpr,
    },
    For {
        var: CLValue,
        init: CExpr,
        cond: CExpr,
        step: CExpr,
        body: Box<CStmt>,
    },
    Nop,
}

/// One arm of a compiled `case`.
#[derive(Debug, Clone)]
pub(crate) struct CCaseArm {
    pub(crate) labels: Vec<CExpr>,
    pub(crate) body: CStmt,
}

/// A compiled edge-triggered process.
#[derive(Debug, Clone)]
pub(crate) struct CEdgeProc {
    /// `(signal, edge)` pairs that fire this process.
    pub(crate) edges: Vec<(SignalId, Edge)>,
    pub(crate) body: CStmt,
}

/// One node of the combinational settling pass, in program order:
/// continuous assignments first, then level-sensitive processes, exactly as
/// the interpreter's settle pass visits them.
#[derive(Debug, Clone)]
pub(crate) enum CombNode {
    Assign(CLValue, CExpr),
    Proc(CStmt),
}

/// A fully compiled design: the product of **elaborate → compile**, ready
/// for repeated simulation without further name resolution.
///
/// Compilation is comparatively expensive (it levelizes the combinational
/// network and, for a batchable design, derives the batched engine's
/// dirty-skip readers and plane layout from the same dependency spans);
/// share one `CompiledDesign` across simulator instances via `Arc` —
/// [`crate::Simulator::from_compiled`] — when running many trials against
/// the same design, as the equivalence harness does.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    design: Design,
    pub(crate) signals: Vec<CompiledSignal>,
    pub(crate) index: HashMap<SymbolId, SignalId>,
    /// Depth of each memory slot, aligned with the simulator's memory vec.
    pub(crate) mem_depths: Vec<(SignalId, u32)>,
    pub(crate) comb: Vec<CombNode>,
    /// Topological evaluation order over `comb`, when the combinational
    /// network is acyclic. `None` means "settle by fixpoint iteration".
    pub(crate) schedule: Option<Vec<u32>>,
    pub(crate) edge_procs: Vec<CEdgeProc>,
    /// `watched[s]`: some edge process lists signal `s` in its sensitivity.
    /// A poke of an unwatched signal has no edge to fire, so both engines
    /// skip the edge-process scan for it.
    pub(crate) watched: Vec<bool>,
    pub(crate) settle_limit: u32,
    /// Why the design cannot run on the 64-lane batched engine, or `None`
    /// when every compiled node is lane-parallelizable (see
    /// [`CompiledDesign::is_batchable`]).
    pub(crate) batch_reject: Option<&'static str>,
    /// The batched engine's dirty-skip readers: `sig_readers[s]` and
    /// `mem_readers[m]` list, in ascending order, the comb nodes that must
    /// re-run when signal `s` or memory `m` changes (see [`readers`]).
    /// Empty unless the design is batchable.
    pub(crate) sig_readers: Vec<Vec<u32>>,
    pub(crate) mem_readers: Vec<Vec<u32>>,
    /// The batched engine's plane layout: signal `s` owns state planes
    /// `plane_offsets[s]..plane_offsets[s + 1]` (see [`plane_offsets`]).
    /// Empty unless the design is batchable.
    pub(crate) plane_offsets: Vec<u32>,
}

impl CompiledDesign {
    /// The elaborated design this was compiled from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Looks up a signal id by (hierarchical) name. A name that was never
    /// interned cannot be a compiled signal, so the miss path interns
    /// nothing.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.index.get(&SymbolId::lookup(name)?).copied()
    }

    /// Looks up a signal id by interned name.
    pub fn signal_id_sym(&self, name: SymbolId) -> Option<SignalId> {
        self.index.get(&name).copied()
    }

    /// Compile-time metadata for a signal.
    pub fn signal(&self, id: SignalId) -> &CompiledSignal {
        &self.signals[id.index()]
    }

    /// Number of interned signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// `true` when the combinational network was levelized into a single
    /// ordered sweep; `false` when a genuine combinational cycle forces the
    /// fixpoint fallback.
    pub fn is_levelized(&self) -> bool {
        self.schedule.is_some()
    }

    /// `true` when the design qualifies for the 64-lane batched engine
    /// ([`crate::BatchSimulator`]): the combinational network levelized and
    /// no compiled node carries a lazily-raised error, an unknown-signal
    /// write, or a non-constant replication count. Classified once at
    /// compile time, so the harness decides the batched-vs-scalar path with
    /// a field read.
    pub fn is_batchable(&self) -> bool {
        self.batch_reject.is_none()
    }

    /// The reason the lane-parallelizability pass rejected this design, or
    /// `None` when [`CompiledDesign::is_batchable`] holds.
    pub fn batch_reject_reason(&self) -> Option<&'static str> {
        self.batch_reject
    }
}

/// Compiles an elaborated design: interns signals, lowers all expressions
/// and statements, partitions processes, and levelizes the combinational
/// network.
///
/// # Errors
///
/// Currently infallible in practice (unknown signal references are lowered
/// into lazily-raised error nodes to preserve interpreter semantics), but
/// returns `SimResult` so future compile-time diagnostics have a channel.
pub fn compile(design: &Design) -> SimResult<CompiledDesign> {
    let lowerer = Lowerer::new(design);
    let mut comb: Vec<CombNode> = Vec::new();
    for (lhs, rhs) in &design.assigns {
        comb.push(CombNode::Assign(
            lowerer.lower_lvalue(lhs),
            lowerer.lower_expr(rhs),
        ));
    }
    let mut edge_procs = Vec::new();
    for proc in &design.procs {
        match &proc.sensitivity {
            Sensitivity::Edges(edges) => {
                let edges = edges
                    .iter()
                    .filter_map(|e| lowerer.index.get(&e.signal).map(|id| (*id, e.edge)))
                    .collect();
                edge_procs.push(CEdgeProc {
                    edges,
                    body: lowerer.lower_stmt(&proc.body),
                });
            }
            Sensitivity::Star | Sensitivity::Signals(_) => {
                comb.push(CombNode::Proc(lowerer.lower_stmt(&proc.body)));
            }
        }
    }
    let mut watched = vec![false; lowerer.signals.len()];
    for proc in &edge_procs {
        for (id, _) in &proc.edges {
            watched[id.index()] = true;
        }
    }
    let (reads, writes) = node_spans(&comb);
    let schedule = levelize(&reads, &writes);
    let settle_limit = (design.assigns.len() as u32 + design.procs.len() as u32) * 4 + 64;
    let batch_reject = classify_batch(schedule.is_some(), &comb, &edge_procs);
    let (sig_readers, mem_readers, plane_offsets) = if batch_reject.is_none() {
        let (sig_readers, mem_readers) = readers(
            &comb,
            &reads,
            &writes,
            lowerer.signals.len(),
            lowerer.mem_depths.len(),
        );
        let offsets = plane_offsets(&lowerer.signals, &comb, &edge_procs);
        (sig_readers, mem_readers, offsets)
    } else {
        Default::default()
    };
    Ok(CompiledDesign {
        design: design.clone(),
        signals: lowerer.signals,
        index: lowerer.index,
        mem_depths: lowerer.mem_depths,
        comb,
        schedule,
        edge_procs,
        watched,
        settle_limit,
        batch_reject,
        sig_readers,
        mem_readers,
        plane_offsets,
    })
}

/// [`compile`] with the fault-containment checks the scoring pipeline runs
/// on completion-derived designs: the elaborated signal count is charged
/// against the current [`crate::Budget`] before any lowering work starts,
/// and the [`crate::FaultSite::Compile`] injection hook fires here.
///
/// # Errors
///
/// Returns [`SimError::Budget`] when the design declares more signals than
/// the budget allows, or an injected fault when a chaos plan targets this
/// site.
pub fn compile_checked(design: &Design) -> SimResult<CompiledDesign> {
    crate::fault::inject(crate::fault::FaultSite::Compile)?;
    let budget = crate::fault::current_budget();
    if design.signals.len() as u64 > budget.elab_signals {
        return Err(SimError::Budget {
            what: "compiled design signals",
            limit: budget.elab_signals,
        });
    }
    compile(design)
}

// --- lane-parallelizability classification ----------------------------------

/// Decides once, at compile time, whether every compiled node can execute
/// across 64 bit-lanes: the batched engine runs all lanes through one sweep
/// and cannot reproduce per-lane error control flow, so any node that may
/// raise lazily (unknown signals, unsupported system calls) rejects the
/// design, as does a non-constant replication count (the batched `Repeat`
/// kernel shuffles a compile-time-known number of planes) and a missing
/// levelized schedule (the fixpoint fallback's convergence test is
/// whole-word, not per-lane).
fn classify_batch(
    levelized: bool,
    comb: &[CombNode],
    edge_procs: &[CEdgeProc],
) -> Option<&'static str> {
    if !levelized {
        return Some("combinational cycle: no levelized schedule");
    }
    for node in comb {
        let reject = match node {
            CombNode::Assign(lhs, rhs) => {
                batch_reject_lvalue(lhs).or_else(|| batch_reject_expr(rhs))
            }
            CombNode::Proc(body) => batch_reject_stmt(body),
        };
        if reject.is_some() {
            return reject;
        }
    }
    for proc in edge_procs {
        if let Some(reject) = batch_reject_stmt(&proc.body) {
            return Some(reject);
        }
    }
    None
}

fn batch_reject_expr(expr: &CExpr) -> Option<&'static str> {
    match expr {
        CExpr::Lit(_) | CExpr::Sig(_) => None,
        CExpr::MemRead { index, .. } => batch_reject_expr(index),
        CExpr::BitRead { index, .. } => batch_reject_expr(index),
        CExpr::SliceRead { msb, lsbx, .. } => {
            batch_reject_expr(msb).or_else(|| batch_reject_expr(lsbx))
        }
        CExpr::Concat(parts) => parts.iter().find_map(|(_, p)| batch_reject_expr(p)),
        CExpr::Repeat { count, value, .. } => {
            if const_of(count).is_none() {
                return Some("non-constant replication count");
            }
            batch_reject_expr(value)
        }
        CExpr::Unary { arg, .. } => batch_reject_expr(arg),
        CExpr::Binary { lhs, rhs, .. } => batch_reject_expr(lhs).or_else(|| batch_reject_expr(rhs)),
        CExpr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => batch_reject_expr(cond)
            .or_else(|| batch_reject_expr(then_expr))
            .or_else(|| batch_reject_expr(else_expr)),
        CExpr::Clog2(arg) => batch_reject_expr(arg),
        CExpr::Error(_) | CExpr::IndexError { .. } => {
            Some("expression raises a lazily-reported evaluation error")
        }
    }
}

fn batch_reject_lvalue(lv: &CLValue) -> Option<&'static str> {
    match lv {
        CLValue::Whole(..) => None,
        CLValue::MemWord { index, .. } | CLValue::Bit { index, .. } => batch_reject_expr(index),
        CLValue::Slice { msb, lsbx, .. } => {
            batch_reject_expr(msb).or_else(|| batch_reject_expr(lsbx))
        }
        CLValue::Concat { parts, .. } => parts.iter().find_map(|(_, p)| batch_reject_lvalue(p)),
        CLValue::UnknownIdent(_) | CLValue::UnknownIndex { .. } | CLValue::UnknownSlice(_) => {
            Some("write to unknown signal")
        }
    }
}

fn batch_reject_stmt(stmt: &CStmt) -> Option<&'static str> {
    match stmt {
        CStmt::Block(stmts) => stmts.iter().find_map(batch_reject_stmt),
        CStmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => batch_reject_expr(cond)
            .or_else(|| batch_reject_stmt(then_branch))
            .or_else(|| else_branch.as_deref().and_then(batch_reject_stmt)),
        CStmt::Case {
            subject,
            arms,
            default,
            ..
        } => batch_reject_expr(subject)
            .or_else(|| {
                arms.iter().find_map(|arm| {
                    arm.labels
                        .iter()
                        .find_map(batch_reject_expr)
                        .or_else(|| batch_reject_stmt(&arm.body))
                })
            })
            .or_else(|| default.as_deref().and_then(batch_reject_stmt)),
        CStmt::NonBlocking { lhs, rhs } | CStmt::Blocking { lhs, rhs } => {
            batch_reject_lvalue(lhs).or_else(|| batch_reject_expr(rhs))
        }
        CStmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => batch_reject_lvalue(var)
            .or_else(|| batch_reject_expr(init))
            .or_else(|| batch_reject_expr(cond))
            .or_else(|| batch_reject_expr(step))
            .or_else(|| batch_reject_stmt(body)),
        CStmt::Nop => None,
    }
}

/// Lowering context: the interner plus the string-keyed signal table used
/// for compile-time width inference.
struct Lowerer<'a> {
    design: &'a Design,
    signals: Vec<CompiledSignal>,
    index: HashMap<SymbolId, SignalId>,
    mem_depths: Vec<(SignalId, u32)>,
}

impl<'a> Lowerer<'a> {
    fn new(design: &'a Design) -> Self {
        // Assign ids in sorted-name order so they are deterministic across
        // runs (symbol indices depend on interning order, names do not).
        let mut names: Vec<SymbolId> = design.signals.keys().copied().collect();
        names.sort_unstable_by_key(|s| s.as_str());
        let mut signals = Vec::with_capacity(names.len());
        let mut index = HashMap::with_capacity(names.len());
        let mut mem_depths = Vec::new();
        for (i, name) in names.into_iter().enumerate() {
            let info = &design.signals[&name];
            let id = SignalId(i as u32);
            let mem = if info.depth > 1 {
                mem_depths.push((id, info.depth));
                Some((mem_depths.len() - 1) as u32)
            } else {
                None
            };
            signals.push(CompiledSignal {
                name,
                width: info.width,
                lsb: info.lsb,
                depth: info.depth,
                mem,
            });
            index.insert(name, id);
        }
        Lowerer {
            design,
            signals,
            index,
            mem_depths,
        }
    }

    fn lookup(&self, name: SymbolId) -> Option<(SignalId, &CompiledSignal)> {
        let id = *self.index.get(&name)?;
        Some((id, &self.signals[id.index()]))
    }

    fn width_of(&self, expr: &Expr) -> u32 {
        width_of(expr, &self.design.signals)
    }

    fn lower_expr(&self, expr: &Expr) -> CExpr {
        match expr {
            Expr::Literal(lit) => CExpr::Lit(lit.value),
            Expr::Ident(name) => match self.lookup(*name) {
                Some((id, sig)) if sig.mem.is_none() => CExpr::Sig(id),
                // A memory read without an index errors exactly like an
                // unknown name in the interpreter (it is absent from the
                // scalar value table).
                _ => CExpr::Error(format!("read of unknown signal `{name}`")),
            },
            Expr::Index { base, index } => {
                let index = Box::new(self.lower_expr(index));
                match self.lookup(*base) {
                    Some((_, sig)) if sig.mem.is_some() => CExpr::MemRead {
                        mem: sig.mem.expect("memory slot"),
                        index,
                    },
                    Some((id, sig)) => CExpr::BitRead {
                        sig: id,
                        lsb: sig.lsb,
                        index,
                    },
                    None => CExpr::IndexError {
                        index,
                        msg: format!("read of unknown signal `{base}`"),
                    },
                }
            }
            Expr::Slice { base, msb, lsb } => match self.lookup(*base) {
                None => CExpr::Error(format!("read of unknown signal `{base}`")),
                Some((id, sig)) => CExpr::SliceRead {
                    value: sig.mem.is_none().then_some(id),
                    lsb: sig.lsb,
                    msb: Box::new(self.lower_expr(msb)),
                    lsbx: Box::new(self.lower_expr(lsb)),
                },
            },
            Expr::Concat(parts) => CExpr::Concat(
                parts
                    .iter()
                    .map(|p| (self.width_of(p), self.lower_expr(p)))
                    .collect(),
            ),
            Expr::Repeat { count, value } => CExpr::Repeat {
                width: self.width_of(value),
                count: Box::new(self.lower_expr(count)),
                value: Box::new(self.lower_expr(value)),
            },
            Expr::Unary { op, arg } => CExpr::Unary {
                op: *op,
                width: self.width_of(arg),
                arg: Box::new(self.lower_expr(arg)),
            },
            Expr::Binary { op, lhs, rhs } => CExpr::Binary {
                op: *op,
                cmp_width: self.width_of(lhs).max(self.width_of(rhs)),
                lhs: Box::new(self.lower_expr(lhs)),
                rhs: Box::new(self.lower_expr(rhs)),
            },
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => CExpr::Ternary {
                cond_width: self.width_of(cond),
                cond: Box::new(self.lower_expr(cond)),
                then_expr: Box::new(self.lower_expr(then_expr)),
                else_expr: Box::new(self.lower_expr(else_expr)),
            },
            Expr::SystemCall { name, args } => {
                if *name == "clog2" && args.len() == 1 {
                    CExpr::Clog2(Box::new(self.lower_expr(&args[0])))
                } else {
                    CExpr::Error(format!("unsupported system call `${name}`"))
                }
            }
        }
    }

    fn lower_lvalue(&self, lv: &LValue) -> CLValue {
        match lv {
            LValue::Ident(name) => match self.lookup(*name) {
                Some((id, sig)) => CLValue::Whole(id, sig.width),
                None => CLValue::UnknownIdent(name.to_string()),
            },
            LValue::Index { base, index } => {
                let index = Box::new(self.lower_expr(index));
                match self.lookup(*base) {
                    Some((_, sig)) if sig.mem.is_some() => CLValue::MemWord {
                        mem: sig.mem.expect("memory slot"),
                        width: sig.width,
                        index,
                    },
                    Some((id, sig)) => CLValue::Bit {
                        sig: id,
                        lsb: sig.lsb,
                        index,
                    },
                    None => CLValue::UnknownIndex {
                        name: base.to_string(),
                        index,
                    },
                }
            }
            LValue::Slice { base, msb, lsb } => match self.lookup(*base) {
                Some((id, sig)) => CLValue::Slice {
                    sig: id,
                    width: sig.width,
                    lsb: sig.lsb,
                    msb: Box::new(self.lower_expr(msb)),
                    lsbx: Box::new(self.lower_expr(lsb)),
                },
                None => CLValue::UnknownSlice(base.to_string()),
            },
            LValue::Concat(parts) => CLValue::Concat {
                total: parts
                    .iter()
                    .map(|p| lvalue_width(p, &self.design.signals))
                    .sum::<u32>()
                    .min(64),
                parts: parts
                    .iter()
                    .map(|p| (lvalue_width(p, &self.design.signals), self.lower_lvalue(p)))
                    .collect(),
            },
        }
    }

    fn lower_stmt(&self, stmt: &Stmt) -> CStmt {
        match stmt {
            Stmt::Block(stmts) => CStmt::Block(stmts.iter().map(|s| self.lower_stmt(s)).collect()),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => CStmt::If {
                cond_width: self.width_of(cond),
                cond: self.lower_expr(cond),
                then_branch: Box::new(self.lower_stmt(then_branch)),
                else_branch: else_branch.as_ref().map(|e| Box::new(self.lower_stmt(e))),
            },
            Stmt::Case {
                subject,
                arms,
                default,
            } => CStmt::Case {
                subj_width: self.width_of(subject),
                subject: self.lower_expr(subject),
                arms: arms
                    .iter()
                    .map(|arm| CCaseArm {
                        labels: arm.labels.iter().map(|l| self.lower_expr(l)).collect(),
                        body: self.lower_stmt(&arm.body),
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(self.lower_stmt(d))),
            },
            Stmt::NonBlocking { lhs, rhs } => CStmt::NonBlocking {
                lhs: self.lower_lvalue(lhs),
                rhs: self.lower_expr(rhs),
            },
            Stmt::Blocking { lhs, rhs } => CStmt::Blocking {
                lhs: self.lower_lvalue(lhs),
                rhs: self.lower_expr(rhs),
            },
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => CStmt::For {
                var: self.lower_lvalue(&LValue::Ident(*var)),
                init: self.lower_expr(init),
                cond: self.lower_expr(cond),
                step: self.lower_expr(step),
                body: Box::new(self.lower_stmt(body)),
            },
            Stmt::Comment(_) | Stmt::Empty => CStmt::Nop,
        }
    }
}

// --- levelization -----------------------------------------------------------

/// A bit range of a dependency key. Whole-object accesses use `[0, u32::MAX]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    key: DepKey,
    lo: u32,
    hi: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepKey {
    Val(SignalId),
    Mem(u32),
}

impl Span {
    fn whole(key: DepKey) -> Self {
        Span {
            key,
            lo: 0,
            hi: u32::MAX,
        }
    }

    fn overlaps(&self, other: &Span) -> bool {
        self.key == other.key && self.lo <= other.hi && other.lo <= self.hi
    }
}

fn spans_overlap(a: &[Span], b: &[Span]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.overlaps(y)))
}

/// The read and write spans of each combinational node, the one dependency
/// analysis behind both [`levelize`] and [`readers`].
///
/// Dependencies are tracked at bit-range precision for continuous
/// assignments (so `assign c[1] = f(c[0])` carry chains levelize) and at
/// whole-signal precision for processes. Reads of a process are its
/// *live-ins*: signals read before being wholly written by a blocking
/// assignment, so internal temporaries do not create false self-cycles.
fn node_spans(nodes: &[CombNode]) -> (Vec<Vec<Span>>, Vec<Vec<Span>>) {
    let mut reads: Vec<Vec<Span>> = Vec::with_capacity(nodes.len());
    let mut writes: Vec<Vec<Span>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let (r, w) = match node {
            CombNode::Assign(lhs, rhs) => {
                let mut r = Vec::new();
                expr_reads(rhs, &mut r);
                let mut w = Vec::new();
                lvalue_writes(lhs, &mut w, &mut r);
                (r, w)
            }
            CombNode::Proc(body) => {
                let mut live = Vec::new();
                let mut defined: Vec<SignalId> = Vec::new();
                stmt_live_ins(body, &mut defined, &mut live);
                let mut w = Vec::new();
                for_each_target(body, &mut |lv| lvalue_write_keys(lv, &mut w));
                (live, w)
            }
        };
        reads.push(r);
        writes.push(w);
    }
    (reads, writes)
}

/// Builds the topological evaluation order of the combinational nodes from
/// their [`node_spans`], or `None` when the dependency graph has a cycle
/// (then settling falls back to the interpreter-equivalent fixpoint loop).
fn levelize(reads: &[Vec<Span>], writes: &[Vec<Span>]) -> Option<Vec<u32>> {
    let n = reads.len();
    // A node that reads what it writes is a genuine combinational cycle.
    for i in 0..n {
        if spans_overlap(&writes[i], &reads[i]) {
            return None;
        }
    }

    // Edges: producer -> consumer, plus write-after-write in program order
    // so overlapping multi-driver updates keep "last writer wins".
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indegree: Vec<u32> = vec![0; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let raw = spans_overlap(&writes[i], &reads[j]);
            let waw = i < j && spans_overlap(&writes[i], &writes[j]);
            if raw || waw {
                succ[i].push(j as u32);
                indegree[j] += 1;
            }
        }
    }

    // Kahn's algorithm, preferring the smallest program index among ready
    // nodes so the order is deterministic.
    let mut order = Vec::with_capacity(n);
    let mut done = vec![false; n];
    loop {
        let next = (0..n).find(|&i| !done[i] && indegree[i] == 0);
        let Some(i) = next else { break };
        done[i] = true;
        order.push(i as u32);
        for &j in &succ[i] {
            indegree[j as usize] -= 1;
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// The batched engine's dirty-skip readers, at whole-signal precision, from
/// the levelizer's [`node_spans`]: `(sig_readers, mem_readers)`, each list
/// in ascending node order. A node must re-run when anything its result
/// depends on changes:
///
/// * an assign reads its reads, plus its partial targets (a bit, slice or
///   memory word keeps the bits it does not cover, so its old value is an
///   input); a whole target runs under the full lane mask and is a pure
///   overwrite;
/// * a process reads its live-ins plus its writes: its body may write
///   under a partial lane mask (`if`/`case`/`for` divergence);
/// * an assign also reads any target that another node writes too, so
///   every writer re-runs when one changes it and schedule order keeps
///   deciding the final value.
///
/// A constant select wholly outside bits 0..64 has no span: it reads 0
/// whatever the signal holds, and writes nothing.
fn readers(
    nodes: &[CombNode],
    reads: &[Vec<Span>],
    writes: &[Vec<Span>],
    nsig: usize,
    nmem: usize,
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    // Signals take slots 0..nsig, memories the slots after them.
    let slot = |key: DepKey| match key {
        DepKey::Val(id) => id.index(),
        DepKey::Mem(m) => nsig + m as usize,
    };
    // One writer count per slot; `counted` keeps a node that writes several
    // spans of one slot from counting twice.
    let mut writers = vec![0u32; nsig + nmem];
    let mut counted = vec![u32::MAX; nsig + nmem];
    for (i, spans) in writes.iter().enumerate() {
        for span in spans {
            let k = slot(span.key);
            if counted[k] != i as u32 {
                counted[k] = i as u32;
                writers[k] += 1;
            }
        }
    }
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); nsig + nmem];
    let mut partial = Vec::new();
    for (i, ((node, r), w)) in (0u32..).zip(nodes.iter().zip(reads).zip(writes)) {
        let mut read = |key: DepKey| {
            let list = &mut readers[slot(key)];
            if list.last() != Some(&i) {
                list.push(i);
            }
        };
        r.iter().for_each(|s| read(s.key));
        match node {
            CombNode::Assign(lhs, _) => {
                partial.clear();
                partial_targets(lhs, &mut partial);
                partial.iter().for_each(|s| read(s.key));
                for s in w {
                    if writers[slot(s.key)] > 1 {
                        read(s.key);
                    }
                }
            }
            CombNode::Proc(_) => w.iter().for_each(|s| read(s.key)),
        }
    }
    let mem_readers = readers.split_off(nsig);
    (readers, mem_readers)
}

/// Whole-signal keys of the partial pieces of a target: bit, slice and
/// memory-word writes, alone or inside a concatenation.
fn partial_targets(lv: &CLValue, out: &mut Vec<Span>) {
    match lv {
        CLValue::Whole(..) => {}
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                partial_targets(p, out);
            }
        }
        _ => lvalue_write_keys(lv, out),
    }
}

/// The batched engine's plane table as running offsets (`signals.len() + 1`
/// entries): a signal gets `min(width, 64)` planes, at least one, or 64
/// when some statement writes single bits of it. The scalar engine does
/// not re-mask a bit-select write, so it can set bits at or above the
/// declared width.
fn plane_offsets(
    signals: &[CompiledSignal],
    comb: &[CombNode],
    edge_procs: &[CEdgeProc],
) -> Vec<u32> {
    let mut bit_target = vec![false; signals.len()];
    let mut mark = |lv: &CLValue| mark_bit_targets(lv, &mut bit_target);
    for node in comb {
        match node {
            CombNode::Assign(lhs, _) => mark(lhs),
            CombNode::Proc(body) => for_each_target(body, &mut mark),
        }
    }
    for proc in edge_procs {
        for_each_target(&proc.body, &mut mark);
    }
    let mut offsets = Vec::with_capacity(signals.len() + 1);
    let mut total = 0u32;
    offsets.push(total);
    for (sig, &bits) in signals.iter().zip(&bit_target) {
        total += if bits { 64 } else { sig.width.clamp(1, 64) };
        offsets.push(total);
    }
    offsets
}

fn mark_bit_targets(lv: &CLValue, flags: &mut [bool]) {
    match lv {
        CLValue::Bit { sig, .. } => flags[sig.index()] = true,
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                mark_bit_targets(p, flags);
            }
        }
        _ => {}
    }
}

fn sig_span(sig: SignalId, lo: i64, hi: i64) -> Option<Span> {
    if hi < 0 || lo > 63 {
        return None;
    }
    Some(Span {
        key: DepKey::Val(sig),
        lo: lo.max(0) as u32,
        hi: hi.min(63) as u32,
    })
}

pub(crate) fn const_of(expr: &CExpr) -> Option<u64> {
    match expr {
        CExpr::Lit(v) => Some(*v),
        _ => None,
    }
}

/// Collects the bit spans an expression may read.
fn expr_reads(expr: &CExpr, out: &mut Vec<Span>) {
    match expr {
        CExpr::Lit(_) | CExpr::Error(_) => {}
        CExpr::Sig(id) => out.push(Span::whole(DepKey::Val(*id))),
        CExpr::MemRead { mem, index } => {
            out.push(Span::whole(DepKey::Mem(*mem)));
            expr_reads(index, out);
        }
        CExpr::BitRead { sig, lsb, index } => {
            expr_reads(index, out);
            match const_of(index) {
                Some(idx) => {
                    let bit = idx as i64 - lsb;
                    if (0..64).contains(&bit) {
                        out.extend(sig_span(*sig, bit, bit));
                    }
                }
                None => out.push(Span::whole(DepKey::Val(*sig))),
            }
        }
        CExpr::SliceRead {
            value,
            lsb,
            msb,
            lsbx,
        } => {
            expr_reads(msb, out);
            expr_reads(lsbx, out);
            if let Some(sig) = value {
                match (const_of(msb), const_of(lsbx)) {
                    (Some(m), Some(l)) => {
                        let m = m as i64 - lsb;
                        let l = l as i64 - lsb;
                        let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                        if (0..=63).contains(&lo) {
                            out.extend(sig_span(*sig, lo, hi));
                        }
                    }
                    _ => out.push(Span::whole(DepKey::Val(*sig))),
                }
            }
        }
        CExpr::Concat(parts) => {
            for (_, p) in parts {
                expr_reads(p, out);
            }
        }
        CExpr::Repeat { count, value, .. } => {
            expr_reads(count, out);
            expr_reads(value, out);
        }
        CExpr::Unary { arg, .. } => expr_reads(arg, out),
        CExpr::Binary { lhs, rhs, .. } => {
            expr_reads(lhs, out);
            expr_reads(rhs, out);
        }
        CExpr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            expr_reads(cond, out);
            expr_reads(then_expr, out);
            expr_reads(else_expr, out);
        }
        CExpr::Clog2(arg) => expr_reads(arg, out),
        CExpr::IndexError { index, .. } => expr_reads(index, out),
    }
}

/// Collects the bit spans an lvalue may write (into `writes`) and the spans
/// its index/bound expressions read (into `reads`).
fn lvalue_writes(lv: &CLValue, writes: &mut Vec<Span>, reads: &mut Vec<Span>) {
    match lv {
        CLValue::Whole(id, _) => writes.push(Span::whole(DepKey::Val(*id))),
        CLValue::MemWord { mem, index, .. } => {
            writes.push(Span::whole(DepKey::Mem(*mem)));
            expr_reads(index, reads);
        }
        CLValue::Bit { sig, lsb, index } => {
            expr_reads(index, reads);
            match const_of(index) {
                Some(idx) => {
                    let bit = idx as i64 - lsb;
                    if (0..64).contains(&bit) {
                        writes.extend(sig_span(*sig, bit, bit));
                    }
                }
                None => writes.push(Span::whole(DepKey::Val(*sig))),
            }
        }
        CLValue::Slice {
            sig,
            lsb,
            msb,
            lsbx,
            ..
        } => {
            expr_reads(msb, reads);
            expr_reads(lsbx, reads);
            match (const_of(msb), const_of(lsbx)) {
                (Some(m), Some(l)) => {
                    let m = m as i64 - lsb;
                    let l = l as i64 - lsb;
                    let (hi, lo) = if m >= l { (m, l) } else { (l, m) };
                    if (0..=63).contains(&lo) {
                        writes.extend(sig_span(*sig, lo, hi));
                    }
                }
                _ => writes.push(Span::whole(DepKey::Val(*sig))),
            }
        }
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                lvalue_writes(p, writes, reads);
            }
        }
        CLValue::UnknownIdent(_) | CLValue::UnknownSlice(_) => {}
        CLValue::UnknownIndex { index, .. } => expr_reads(index, reads),
    }
}

fn lvalue_defines_whole(lv: &CLValue) -> Option<SignalId> {
    match lv {
        CLValue::Whole(id, _) => Some(*id),
        _ => None,
    }
}

/// Calls `f` on every assignment target in a statement, `for` variables
/// included.
fn for_each_target(stmt: &CStmt, f: &mut impl FnMut(&CLValue)) {
    match stmt {
        CStmt::Block(stmts) => {
            for s in stmts {
                for_each_target(s, f);
            }
        }
        CStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for_each_target(then_branch, f);
            if let Some(e) = else_branch {
                for_each_target(e, f);
            }
        }
        CStmt::Case { arms, default, .. } => {
            for arm in arms {
                for_each_target(&arm.body, f);
            }
            if let Some(d) = default {
                for_each_target(d, f);
            }
        }
        CStmt::NonBlocking { lhs, .. } | CStmt::Blocking { lhs, .. } => f(lhs),
        CStmt::For { var, body, .. } => {
            f(var);
            for_each_target(body, f);
        }
        CStmt::Nop => {}
    }
}

fn lvalue_write_keys(lv: &CLValue, out: &mut Vec<Span>) {
    match lv {
        CLValue::Whole(id, _) | CLValue::Bit { sig: id, .. } | CLValue::Slice { sig: id, .. } => {
            out.push(Span::whole(DepKey::Val(*id)));
        }
        CLValue::MemWord { mem, .. } => out.push(Span::whole(DepKey::Mem(*mem))),
        CLValue::Concat { parts, .. } => {
            for (_, p) in parts {
                lvalue_write_keys(p, out);
            }
        }
        CLValue::UnknownIdent(_) | CLValue::UnknownIndex { .. } | CLValue::UnknownSlice(_) => {}
    }
}

/// Live-in analysis of a process body: spans read before being wholly
/// defined by an earlier blocking assignment. `defined` accumulates signals
/// wholly written so far; branches only promote definitions common to all
/// paths.
fn stmt_live_ins(stmt: &CStmt, defined: &mut Vec<SignalId>, live: &mut Vec<Span>) {
    match stmt {
        CStmt::Block(stmts) => {
            for s in stmts {
                stmt_live_ins(s, defined, live);
            }
        }
        CStmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            read_spans_filtered(cond, defined, live);
            let mut d_then = defined.clone();
            stmt_live_ins(then_branch, &mut d_then, live);
            let mut d_else = defined.clone();
            if let Some(e) = else_branch {
                stmt_live_ins(e, &mut d_else, live);
            }
            // Keep only definitions reached on every path.
            *defined = d_then
                .into_iter()
                .filter(|id| d_else.contains(id))
                .collect();
        }
        CStmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            read_spans_filtered(subject, defined, live);
            let mut branch_defs: Vec<Vec<SignalId>> = Vec::new();
            for arm in arms {
                for label in &arm.labels {
                    read_spans_filtered(label, defined, live);
                }
                let mut d = defined.clone();
                stmt_live_ins(&arm.body, &mut d, live);
                branch_defs.push(d);
            }
            match default {
                Some(d) => {
                    let mut dd = defined.clone();
                    stmt_live_ins(d, &mut dd, live);
                    branch_defs.push(dd);
                }
                // Without a default, execution may match no arm: only the
                // incoming definitions survive.
                None => branch_defs.push(defined.clone()),
            }
            if let Some(first) = branch_defs.first().cloned() {
                *defined = first
                    .into_iter()
                    .filter(|id| branch_defs.iter().all(|d| d.contains(id)))
                    .collect();
            }
        }
        CStmt::Blocking { lhs, rhs } => {
            read_spans_filtered(rhs, defined, live);
            let mut w = Vec::new();
            let mut r = Vec::new();
            lvalue_writes(lhs, &mut w, &mut r);
            filter_defined(&r, defined, live);
            if let Some(id) = lvalue_defines_whole(lhs) {
                if !defined.contains(&id) {
                    defined.push(id);
                }
            }
        }
        CStmt::NonBlocking { lhs, rhs } => {
            // Non-blocking writes commit after the body: they never define a
            // value for later reads within the same pass.
            read_spans_filtered(rhs, defined, live);
            let mut w = Vec::new();
            let mut r = Vec::new();
            lvalue_writes(lhs, &mut w, &mut r);
            filter_defined(&r, defined, live);
        }
        CStmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            read_spans_filtered(init, defined, live);
            if let Some(id) = lvalue_defines_whole(var) {
                if !defined.contains(&id) {
                    defined.push(id);
                }
            }
            read_spans_filtered(cond, defined, live);
            // The body may run zero times: definitions inside don't survive,
            // and the step expression only runs after a body iteration.
            let mut d = defined.clone();
            stmt_live_ins(body, &mut d, live);
            read_spans_filtered(step, &d, live);
        }
        CStmt::Nop => {}
    }
}

fn read_spans_filtered(expr: &CExpr, defined: &[SignalId], live: &mut Vec<Span>) {
    let mut r = Vec::new();
    expr_reads(expr, &mut r);
    filter_defined(&r, defined, live);
}

fn filter_defined(spans: &[Span], defined: &[SignalId], live: &mut Vec<Span>) {
    for s in spans {
        let skip = matches!(s.key, DepKey::Val(id) if defined.contains(&id));
        if !skip {
            live.push(*s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use rtlb_verilog::parse;

    /// Compiles `body` inside a module with 8-bit inputs `a`, `b`, `c`, a
    /// 3-bit input `i` and an 8-bit output `y`, and checks the comb nodes
    /// (assigns first, then `always @*` blocks, each in program order) that
    /// list `signal` (a signal or a memory) among their batched readers.
    fn assert_readers(body: &str, signal: &str, expected: &[u32]) {
        let src = format!(
            "module m(input [7:0] a, input [7:0] b, input [7:0] c, input [2:0] i,\n\
             output [7:0] y);\n{body}\nendmodule"
        );
        let file = parse(&src).unwrap();
        let design = elaborate(&file.modules[0], &file.modules).unwrap();
        let compiled = compile(&design).unwrap();
        assert!(compiled.is_batchable(), "{body}");
        let id = compiled.signal_id(signal).unwrap();
        let readers = match compiled.signal(id).mem {
            Some(m) => &compiled.mem_readers[m as usize],
            None => &compiled.sig_readers[id.index()],
        };
        assert_eq!(readers, expected, "readers of `{signal}` in: {body}");
    }

    #[rustfmt::skip]
    #[test]
    fn readers_per_node_shape() {
        // A whole target is overwritten, not read.
        assert_readers("assign y = a;", "a", &[0]);
        assert_readers("assign y = a;", "y", &[]);
        // Constant bit and slice targets keep the bits they do not cover.
        assert_readers("assign y[0] = a[0];", "y", &[0]);
        assert_readers("assign y[3:1] = a[2:0];", "y", &[0]);
        // A dynamic index reads the target and the index.
        assert_readers("assign y[i] = a[0];", "y", &[0]);
        assert_readers("assign y[i] = a[0];", "i", &[0]);
        // A memory-word write reads its memory.
        assert_readers("reg [7:0] mem [0:3];\nassign mem[i] = a;\nassign y = mem[1];", "mem", &[0, 1]);
        // Only the partial piece of a concat target is read.
        assert_readers("wire [7:0] w;\nwire [7:0] p;\nassign {w, p[0]} = a;", "p", &[0]);
        assert_readers("wire [7:0] w;\nwire [7:0] p;\nassign {w, p[0]} = a;", "w", &[]);
        // Every writer of a shared target re-runs when one of them changes it.
        assert_readers("assign y = a;\nassign y = b;", "y", &[0, 1]);
        // A process reads its live-ins and its writes, a blocking temporary too.
        assert_readers("reg [7:0] t;\nreg [7:0] r;\nalways @* begin t = a & b; r = t | c; end", "t", &[0]);
        assert_readers("reg [7:0] t;\nreg [7:0] r;\nalways @* begin t = a & b; r = t | c; end", "r", &[0]);
        assert_readers("reg [7:0] t;\nreg [7:0] r;\nalways @* begin t = a & b; r = t | c; end", "c", &[0]);
        // A constant select wholly outside bits 0..64 reads 0 whatever `a` holds.
        assert_readers("assign y = a[100];", "a", &[]);
        assert_readers("assign y = a[100] | b;", "b", &[0]);
        // An out-of-range bit target writes nothing, but still counts as partial.
        assert_readers("assign y[100] = a;", "y", &[0]);
    }
}
