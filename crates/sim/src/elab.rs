//! Elaboration: turns a parsed module hierarchy into a flat [`Design`],
//! the input of the **compile** stage ([`crate::compile`]) that the
//! simulator executes.
//!
//! Instances are flattened recursively: child signals are prefixed with
//! `instance.`, child parameters (including overrides) are folded and
//! substituted as literals, and port connections become continuous
//! assignments. The flat design still speaks in signal *names*; interning
//! names into dense [`crate::SignalId`]s is the compiler's job, so the
//! elaborated form stays easy to inspect and diff.
//!
//! ## The compiled elaborator
//!
//! [`elaborate`] runs a compiled flattener: the module library is indexed by
//! name once per `Design` build (`HashMap<&str, &Module>` instead of a
//! linear scan per instantiation), hierarchical names are built `format!`-free
//! by byte concatenation against a shared prefix stack (one growing buffer of
//! name bytes; entering an instance pushes a `name.` segment, leaving
//! truncates it back), and parameter substitution rewrites expressions into
//! fresh nodes directly instead of deep-cloning the whole module per instance
//! just to re-run symbol resolution over it.
//!
//! The original elaborator is preserved verbatim as [`reference_flatten`] —
//! the structural oracle for the compiled path (`tests/elab_equiv.rs` pins
//! compiled and reference elaboration to identical `Design`s and identical
//! error classification).

use crate::error::{SimError, SimResult};
use rtlb_verilog::ast::*;
use rtlb_verilog::{fold_const, resolve_symbols, CheckReport, SignalInfo, SymbolId, SymbolTable};
use std::collections::HashMap;

/// A flattened, simulatable design.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Top module name.
    pub name: SymbolId,
    /// All signals (top-level ports keep their names; child signals are
    /// `instance.signal`), keyed by interned hierarchical name.
    pub signals: HashMap<SymbolId, SignalInfo>,
    /// Continuous assignments, including those synthesized from port
    /// connections.
    pub assigns: Vec<(LValue, Expr)>,
    /// Always blocks from every hierarchy level.
    pub procs: Vec<AlwaysBlock>,
    /// Top-level ports in declaration order.
    pub ports: Vec<Port>,
}

impl Design {
    /// Width of a signal, if declared. Accepts a plain name; an uninterned
    /// name cannot be a declared signal, so the miss path interns nothing.
    pub fn width(&self, name: &str) -> Option<u32> {
        let id = SymbolId::lookup(name)?;
        self.signals.get(&id).map(|s| s.width)
    }

    /// Width of a signal by interned id, if declared.
    pub fn width_of(&self, id: SymbolId) -> Option<u32> {
        self.signals.get(&id).map(|s| s.width)
    }

    /// Names of top-level input ports.
    pub fn inputs(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Input)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Names of top-level output ports.
    pub fn outputs(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .map(|p| p.name.as_str())
            .collect()
    }

    fn empty(name: SymbolId, ports: Vec<Port>) -> Self {
        Design {
            name,
            signals: HashMap::new(),
            assigns: Vec::new(),
            procs: Vec::new(),
            ports,
        }
    }
}

/// Maximum instance nesting depth, guarding against recursive hierarchies.
const MAX_DEPTH: u32 = 16;

/// Elaborates `top` against a library of module definitions.
///
/// # Errors
///
/// Returns [`SimError::Elaborate`] on unresolvable instances, non-constant
/// parameters, unsupported `inout` ports, or excessive nesting depth.
///
/// # Examples
///
/// ```
/// let m = rtlb_verilog::parse_module(
///     "module inv (input a, output y); assign y = ~a; endmodule",
/// ).expect("parses");
/// let design = rtlb_sim::elaborate(&m, &[]).expect("elaborates");
/// assert_eq!(design.inputs(), vec!["a"]);
/// ```
pub fn elaborate(top: &Module, library: &[Module]) -> SimResult<Design> {
    let mut design = Design::empty(top.name, top.ports.clone());
    let mut el = Elaborator {
        index: index_library(library),
        prefix: String::new(),
        fragments: 0,
    };
    el.flatten(top, &HashMap::new(), &mut design, 0)?;
    Ok(design)
}

/// Indexes a module library by name. First definition wins, matching the
/// reference elaborator's first-match linear scan (completion scoring relies
/// on this: a completion's own module shadows a same-named library module).
fn index_library(library: &[Module]) -> HashMap<SymbolId, &Module> {
    let mut index: HashMap<SymbolId, &Module> = HashMap::with_capacity(library.len());
    for m in library {
        index.entry(m.name).or_insert(m);
    }
    index
}

// ---------------------------------------------------------------------------
// Compiled elaborator
// ---------------------------------------------------------------------------

struct Elaborator<'a> {
    /// Name-indexed library (built once per `Design`).
    index: HashMap<SymbolId, &'a Module>,
    /// Shared prefix stack: the hierarchical prefix of the scope currently
    /// being flattened (`""` at top, `"u0.sub."` two levels down). Entering
    /// an instance appends `name.`; leaving truncates — every rename is a
    /// plain byte concatenation against this buffer.
    prefix: String,
    /// Modules flattened so far, charged against
    /// [`crate::Budget::elab_fragments`].
    fragments: u64,
}

impl Elaborator<'_> {
    /// Interns `prefix + name`. A hierarchical name is allocated once per
    /// *distinct* name process-wide; every further instance of the same
    /// module at the same path costs one hash probe and zero allocation.
    fn rename(&self, name: SymbolId) -> SymbolId {
        if self.prefix.is_empty() {
            return name;
        }
        SymbolTable::global().intern_concat(&[&self.prefix, name.as_str()])
    }

    fn flatten(
        &mut self,
        module: &Module,
        param_overrides: &HashMap<SymbolId, u64>,
        design: &mut Design,
        depth: u32,
    ) -> SimResult<()> {
        if depth > MAX_DEPTH {
            return Err(SimError::Elaborate(format!(
                "instance nesting deeper than {MAX_DEPTH} levels (recursive hierarchy?)"
            )));
        }
        crate::fault::inject(crate::fault::FaultSite::Elab)?;
        // Depth alone does not bound flattening: breadth^depth instance
        // fan-out explodes well inside MAX_DEPTH, so total fragments and
        // accumulated signals are charged against the completion budget.
        let budget = crate::fault::current_budget();
        self.fragments += 1;
        if self.fragments > budget.elab_fragments {
            return Err(SimError::Budget {
                what: "flattened module fragments",
                limit: budget.elab_fragments,
            });
        }
        if design.signals.len() as u64 > budget.elab_signals {
            return Err(SimError::Budget {
                what: "elaborated signals",
                limit: budget.elab_signals,
            });
        }

        // Fold this module's parameters with overrides applied (identical
        // order and error classification as the reference).
        let mut params: HashMap<SymbolId, u64> = HashMap::new();
        for p in &module.params {
            let value = match param_overrides.get(&p.name) {
                Some(v) if !p.local => *v,
                _ => fold_const(&p.value, &params).map_err(|msg| {
                    SimError::Elaborate(format!(
                        "parameter `{}` of `{}`: {msg}",
                        p.name, module.name
                    ))
                })?,
            };
            params.insert(p.name, value);
        }

        // Resolve signal widths directly against the folded parameter
        // environment — no module clone, no re-run of symbol resolution over
        // substituted headers. Ports first, then net declarations in item
        // order (later declarations of the same name win), mirroring
        // `resolve_symbols`.
        for port in &module.ports {
            self.add_signal(
                design,
                port.name,
                port.net,
                &port.range,
                &None,
                Some(port.dir),
                &params,
            );
        }
        for item in &module.items {
            if let Item::Net(d) = item {
                self.add_signal(design, d.name, d.kind, &d.range, &d.array, None, &params);
            }
        }

        for item in &module.items {
            match item {
                Item::Assign { lhs, rhs } => {
                    let lv = self.rw_lvalue(lhs, &params);
                    let rhs = self.rw_expr(rhs, &params)?;
                    design.assigns.push((lv, rhs));
                }
                Item::Always(blk) => {
                    let sensitivity = self.rw_sensitivity(&blk.sensitivity);
                    let body = self.rw_stmt(&blk.body, &params)?;
                    design.procs.push(AlwaysBlock { sensitivity, body });
                }
                Item::Instance(inst) => {
                    self.flatten_instance(inst, &params, design, depth)?;
                }
                Item::Net(_) | Item::Param(_) | Item::Comment(_) => {}
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn add_signal(
        &self,
        design: &mut Design,
        name: SymbolId,
        kind: NetKind,
        range: &Option<Range>,
        array: &Option<Range>,
        dir: Option<PortDir>,
        params: &HashMap<SymbolId, u64>,
    ) {
        // Width/lsb/depth computation mirrors `resolve_symbols` exactly,
        // including its silent zero fallback for unfoldable ranges (the
        // reference discards the scratch report those become issues in).
        let (width, lsb) = match range {
            None => (if kind == NetKind::Integer { 32 } else { 1 }, 0i64),
            Some(r) => {
                let msb = fold_const(&r.msb, params).unwrap_or(0);
                let lsb = fold_const(&r.lsb, params).unwrap_or(0);
                (
                    (msb.abs_diff(lsb).saturating_add(1)).min(64) as u32,
                    lsb as i64,
                )
            }
        };
        let depth = match array {
            None => 1,
            Some(a) => {
                let lo = fold_const(&a.msb, params).unwrap_or(0);
                let hi = fold_const(&a.lsb, params).unwrap_or(0);
                (lo.abs_diff(hi).saturating_add(1)).min(1 << 20) as u32
            }
        };
        let full = self.rename(name);
        design.signals.insert(
            full,
            SignalInfo {
                name: full,
                width,
                kind,
                depth,
                dir,
                lsb,
            },
        );
    }

    fn flatten_instance(
        &mut self,
        inst: &Instance,
        parent_params: &HashMap<SymbolId, u64>,
        design: &mut Design,
        depth: u32,
    ) -> SimResult<()> {
        let def = *self.index.get(&inst.module_name).ok_or_else(|| {
            SimError::Elaborate(format!(
                "no definition for instantiated module `{}`",
                inst.module_name
            ))
        })?;

        // Fold parameter overrides in the parent's constant environment.
        let mut overrides = HashMap::new();
        for (name, expr) in &inst.param_overrides {
            let v = fold_const(expr, parent_params).map_err(|msg| {
                SimError::Elaborate(format!(
                    "override `{name}` on instance `{}`: {msg}",
                    inst.instance_name
                ))
            })?;
            overrides.insert(*name, v);
        }

        // Child scope: push the `name.` prefix segment, flatten, pop.
        let saved = self.prefix.len();
        self.prefix.push_str(inst.instance_name.as_str());
        self.prefix.push('.');
        let child_result = self.flatten(def, &overrides, design, depth + 1);
        self.prefix.truncate(saved);
        child_result?;

        // Pair connections with the definition's ports (after the child body,
        // as the reference does — child errors win over connection errors).
        let pairs: Vec<(&Port, &Expr)> = match &inst.connections {
            Connections::Positional(exprs) => {
                if exprs.len() > def.ports.len() {
                    return Err(SimError::Elaborate(format!(
                        "instance `{}` has {} connections but `{}` has {} ports",
                        inst.instance_name,
                        exprs.len(),
                        def.name,
                        def.ports.len()
                    )));
                }
                def.ports.iter().zip(exprs.iter()).collect()
            }
            Connections::Named(conns) => {
                let mut pairs = Vec::new();
                for (pname, expr) in conns {
                    let port = def.port_sym(*pname).ok_or_else(|| {
                        SimError::Elaborate(format!(
                            "instance `{}` connects unknown port `{pname}` of `{}`",
                            inst.instance_name, def.name
                        ))
                    })?;
                    pairs.push((port, expr));
                }
                pairs
            }
        };

        for (port, expr) in pairs {
            let child_sig = SymbolTable::global().intern_concat(&[
                &self.prefix,
                inst.instance_name.as_str(),
                ".",
                port.name.as_str(),
            ]);
            let parent_expr = self.rw_expr(expr, parent_params)?;
            match port.dir {
                PortDir::Input => {
                    design.assigns.push((LValue::Ident(child_sig), parent_expr));
                }
                PortDir::Output => {
                    let lv = expr_to_lvalue(&parent_expr).ok_or_else(|| {
                        SimError::Elaborate(format!(
                            "output port `{}` of instance `{}` must connect to a signal",
                            port.name, inst.instance_name
                        ))
                    })?;
                    design.assigns.push((lv, Expr::Ident(child_sig)));
                }
                PortDir::Inout => {
                    return Err(SimError::Elaborate(format!(
                        "inout port `{}` on instance `{}` is not supported",
                        port.name, inst.instance_name
                    )));
                }
            }
        }
        Ok(())
    }

    fn rw_sensitivity(&self, sensitivity: &Sensitivity) -> Sensitivity {
        match sensitivity {
            Sensitivity::Star => Sensitivity::Star,
            Sensitivity::Edges(edges) => Sensitivity::Edges(
                edges
                    .iter()
                    .map(|e| EdgeSpec {
                        edge: e.edge,
                        signal: self.rename(e.signal),
                    })
                    .collect(),
            ),
            Sensitivity::Signals(signals) => {
                Sensitivity::Signals(signals.iter().map(|&s| self.rename(s)).collect())
            }
        }
    }

    /// Renames identifiers with the current prefix and substitutes parameters
    /// by their folded constant values (the compiled counterpart of the
    /// reference `rename_expr`).
    fn rw_expr(&self, expr: &Expr, params: &HashMap<SymbolId, u64>) -> SimResult<Expr> {
        Ok(match expr {
            Expr::Literal(_) => expr.clone(),
            Expr::Ident(name) => match params.get(name) {
                Some(v) => Expr::literal(*v),
                None => Expr::Ident(self.rename(*name)),
            },
            Expr::Index { base, index } => Expr::Index {
                base: self.rename(*base),
                index: Box::new(self.rw_expr(index, params)?),
            },
            Expr::Slice { base, msb, lsb } => Expr::Slice {
                base: self.rename(*base),
                msb: Box::new(self.rw_expr(msb, params)?),
                lsb: Box::new(self.rw_expr(lsb, params)?),
            },
            Expr::Concat(parts) => Expr::Concat(
                parts
                    .iter()
                    .map(|p| self.rw_expr(p, params))
                    .collect::<SimResult<_>>()?,
            ),
            Expr::Repeat { count, value } => Expr::Repeat {
                count: Box::new(self.rw_expr(count, params)?),
                value: Box::new(self.rw_expr(value, params)?),
            },
            Expr::Unary { op, arg } => Expr::Unary {
                op: *op,
                arg: Box::new(self.rw_expr(arg, params)?),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.rw_expr(lhs, params)?),
                rhs: Box::new(self.rw_expr(rhs, params)?),
            },
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => Expr::Ternary {
                cond: Box::new(self.rw_expr(cond, params)?),
                then_expr: Box::new(self.rw_expr(then_expr, params)?),
                else_expr: Box::new(self.rw_expr(else_expr, params)?),
            },
            Expr::SystemCall { name, args } => {
                // System calls over constants fold away at elaboration.
                let folded: Vec<Expr> = args
                    .iter()
                    .map(|a| self.rw_expr(a, params))
                    .collect::<SimResult<_>>()?;
                if *name == "clog2" && folded.len() == 1 {
                    if let Ok(v) = fold_const(&folded[0], &HashMap::new()) {
                        return Ok(Expr::literal(rtlb_verilog::clog2(v)));
                    }
                }
                Expr::SystemCall {
                    name: *name,
                    args: folded,
                }
            }
        })
    }

    fn rw_lvalue(&self, lv: &LValue, params: &HashMap<SymbolId, u64>) -> LValue {
        match lv {
            LValue::Ident(name) => LValue::Ident(self.rename(*name)),
            LValue::Index { base, index } => LValue::Index {
                base: self.rename(*base),
                index: Box::new(
                    self.rw_expr(index, params)
                        .unwrap_or_else(|_| (**index).clone()),
                ),
            },
            LValue::Slice { base, msb, lsb } => LValue::Slice {
                base: self.rename(*base),
                msb: Box::new(
                    self.rw_expr(msb, params)
                        .unwrap_or_else(|_| (**msb).clone()),
                ),
                lsb: Box::new(
                    self.rw_expr(lsb, params)
                        .unwrap_or_else(|_| (**lsb).clone()),
                ),
            },
            LValue::Concat(parts) => {
                LValue::Concat(parts.iter().map(|p| self.rw_lvalue(p, params)).collect())
            }
        }
    }

    fn rw_stmt(&self, stmt: &Stmt, params: &HashMap<SymbolId, u64>) -> SimResult<Stmt> {
        Ok(match stmt {
            Stmt::Block(stmts) => Stmt::Block(
                stmts
                    .iter()
                    .map(|s| self.rw_stmt(s, params))
                    .collect::<SimResult<_>>()?,
            ),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => Stmt::If {
                cond: self.rw_expr(cond, params)?,
                then_branch: Box::new(self.rw_stmt(then_branch, params)?),
                else_branch: match else_branch {
                    Some(e) => Some(Box::new(self.rw_stmt(e, params)?)),
                    None => None,
                },
            },
            Stmt::Case {
                subject,
                arms,
                default,
            } => Stmt::Case {
                subject: self.rw_expr(subject, params)?,
                arms: arms
                    .iter()
                    .map(|arm| {
                        Ok(CaseArm {
                            labels: arm
                                .labels
                                .iter()
                                .map(|l| self.rw_expr(l, params))
                                .collect::<SimResult<_>>()?,
                            body: self.rw_stmt(&arm.body, params)?,
                        })
                    })
                    .collect::<SimResult<_>>()?,
                default: match default {
                    Some(d) => Some(Box::new(self.rw_stmt(d, params)?)),
                    None => None,
                },
            },
            Stmt::NonBlocking { lhs, rhs } => Stmt::NonBlocking {
                lhs: self.rw_lvalue(lhs, params),
                rhs: self.rw_expr(rhs, params)?,
            },
            Stmt::Blocking { lhs, rhs } => Stmt::Blocking {
                lhs: self.rw_lvalue(lhs, params),
                rhs: self.rw_expr(rhs, params)?,
            },
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => Stmt::For {
                var: self.rename(*var),
                init: self.rw_expr(init, params)?,
                cond: self.rw_expr(cond, params)?,
                step: self.rw_expr(step, params)?,
                body: Box::new(self.rw_stmt(body, params)?),
            },
            Stmt::Comment(t) => Stmt::Comment(t.clone()),
            Stmt::Empty => Stmt::Empty,
        })
    }
}

// ---------------------------------------------------------------------------
// Reference elaborator (preserved verbatim as the structural oracle)
// ---------------------------------------------------------------------------

/// The original, uncompiled elaborator: per-instance module clones, per-name
/// `format!` renames, linear library scans. Preserved as the structural
/// oracle for the compiled paths (`tests/elab_equiv.rs`) and the baseline of
/// the `elab_throughput` benchmark.
///
/// # Errors
///
/// Fails exactly like [`elaborate`].
pub fn reference_flatten(top: &Module, library: &[Module]) -> SimResult<Design> {
    let mut design = Design {
        name: top.name,
        signals: HashMap::new(),
        assigns: Vec::new(),
        procs: Vec::new(),
        ports: top.ports.clone(),
    };
    flatten(top, library, "", &HashMap::new(), &mut design, 0)?;
    Ok(design)
}

/// Recursively flattens `module` into `design` under `prefix`.
fn flatten(
    module: &Module,
    library: &[Module],
    prefix: &str,
    param_overrides: &HashMap<SymbolId, u64>,
    design: &mut Design,
    depth: u32,
) -> SimResult<()> {
    if depth > MAX_DEPTH {
        return Err(SimError::Elaborate(format!(
            "instance nesting deeper than {MAX_DEPTH} levels (recursive hierarchy?)"
        )));
    }

    // Fold this module's parameters with overrides applied.
    let mut params: HashMap<SymbolId, u64> = HashMap::new();
    for p in &module.params {
        let value = match param_overrides.get(&p.name) {
            Some(v) if !p.local => *v,
            _ => fold_const(&p.value, &params).map_err(|msg| {
                SimError::Elaborate(format!(
                    "parameter `{}` of `{}`: {msg}",
                    p.name, module.name
                ))
            })?,
        };
        params.insert(p.name, value);
    }

    // Resolve signal widths in this module's own namespace. We substitute the
    // (possibly overridden) parameter values by building a clone with
    // overridden header params.
    let resolved = {
        let mut m = module.clone();
        for p in &mut m.params {
            if let Some(v) = params.get(&p.name) {
                p.value = Expr::literal(*v);
            }
        }
        let mut scratch = CheckReport::default();
        resolve_symbols(&m, &mut scratch).map_err(|e| SimError::Elaborate(e.to_string()))?
    };

    for (name, info) in &resolved.signals {
        let mut info = info.clone();
        info.name = SymbolId::intern(&format!("{prefix}{name}"));
        design.signals.insert(info.name, info);
    }

    let rename = |name: SymbolId| -> SymbolId { SymbolId::intern(&format!("{prefix}{name}")) };

    for item in &module.items {
        match item {
            Item::Assign { lhs, rhs } => {
                design.assigns.push((
                    rename_lvalue(lhs, prefix, &params),
                    rename_expr(rhs, prefix, &params)?,
                ));
            }
            Item::Always(blk) => {
                let sensitivity = match &blk.sensitivity {
                    Sensitivity::Star => Sensitivity::Star,
                    Sensitivity::Edges(edges) => Sensitivity::Edges(
                        edges
                            .iter()
                            .map(|e| EdgeSpec {
                                edge: e.edge,
                                signal: rename(e.signal),
                            })
                            .collect(),
                    ),
                    Sensitivity::Signals(signals) => {
                        Sensitivity::Signals(signals.iter().map(|&s| rename(s)).collect())
                    }
                };
                design.procs.push(AlwaysBlock {
                    sensitivity,
                    body: rename_stmt(&blk.body, prefix, &params)?,
                });
            }
            Item::Instance(inst) => {
                flatten_instance(inst, library, prefix, &params, design, depth)?;
            }
            Item::Net(_) | Item::Param(_) | Item::Comment(_) => {}
        }
    }
    Ok(())
}

fn flatten_instance(
    inst: &Instance,
    library: &[Module],
    prefix: &str,
    parent_params: &HashMap<SymbolId, u64>,
    design: &mut Design,
    depth: u32,
) -> SimResult<()> {
    let def = library
        .iter()
        .find(|m| m.name == inst.module_name)
        .ok_or_else(|| {
            SimError::Elaborate(format!(
                "no definition for instantiated module `{}`",
                inst.module_name
            ))
        })?;
    let child_prefix = format!("{prefix}{}.", inst.instance_name);

    // Fold parameter overrides in the parent's constant environment.
    let mut overrides = HashMap::new();
    for (name, expr) in &inst.param_overrides {
        let v = fold_const(expr, parent_params).map_err(|msg| {
            SimError::Elaborate(format!(
                "override `{name}` on instance `{}`: {msg}",
                inst.instance_name
            ))
        })?;
        overrides.insert(*name, v);
    }

    flatten(def, library, &child_prefix, &overrides, design, depth + 1)?;

    // Pair connections with the definition's ports.
    let pairs: Vec<(&Port, &Expr)> = match &inst.connections {
        Connections::Positional(exprs) => {
            if exprs.len() > def.ports.len() {
                return Err(SimError::Elaborate(format!(
                    "instance `{}` has {} connections but `{}` has {} ports",
                    inst.instance_name,
                    exprs.len(),
                    def.name,
                    def.ports.len()
                )));
            }
            def.ports.iter().zip(exprs.iter()).collect()
        }
        Connections::Named(conns) => {
            let mut pairs = Vec::new();
            for (pname, expr) in conns {
                let port = def.port_sym(*pname).ok_or_else(|| {
                    SimError::Elaborate(format!(
                        "instance `{}` connects unknown port `{pname}` of `{}`",
                        inst.instance_name, def.name
                    ))
                })?;
                pairs.push((port, expr));
            }
            pairs
        }
    };

    for (port, expr) in pairs {
        let child_sig = SymbolId::intern(&format!("{child_prefix}{}", port.name));
        let parent_expr = rename_expr(expr, prefix, parent_params)?;
        match port.dir {
            PortDir::Input => {
                design.assigns.push((LValue::Ident(child_sig), parent_expr));
            }
            PortDir::Output => {
                let lv = expr_to_lvalue(&parent_expr).ok_or_else(|| {
                    SimError::Elaborate(format!(
                        "output port `{}` of instance `{}` must connect to a signal",
                        port.name, inst.instance_name
                    ))
                })?;
                design.assigns.push((lv, Expr::Ident(child_sig)));
            }
            PortDir::Inout => {
                return Err(SimError::Elaborate(format!(
                    "inout port `{}` on instance `{}` is not supported",
                    port.name, inst.instance_name
                )));
            }
        }
    }
    Ok(())
}

/// Renames identifiers with the hierarchy prefix and substitutes parameters by
/// their folded constant values.
fn rename_expr(expr: &Expr, prefix: &str, params: &HashMap<SymbolId, u64>) -> SimResult<Expr> {
    Ok(match expr {
        Expr::Literal(_) => expr.clone(),
        Expr::Ident(name) => match params.get(name) {
            Some(v) => Expr::literal(*v),
            None => Expr::Ident(SymbolId::intern(&format!("{prefix}{name}"))),
        },
        Expr::Index { base, index } => Expr::Index {
            base: SymbolId::intern(&format!("{prefix}{base}")),
            index: Box::new(rename_expr(index, prefix, params)?),
        },
        Expr::Slice { base, msb, lsb } => Expr::Slice {
            base: SymbolId::intern(&format!("{prefix}{base}")),
            msb: Box::new(rename_expr(msb, prefix, params)?),
            lsb: Box::new(rename_expr(lsb, prefix, params)?),
        },
        Expr::Concat(parts) => Expr::Concat(
            parts
                .iter()
                .map(|p| rename_expr(p, prefix, params))
                .collect::<SimResult<_>>()?,
        ),
        Expr::Repeat { count, value } => Expr::Repeat {
            count: Box::new(rename_expr(count, prefix, params)?),
            value: Box::new(rename_expr(value, prefix, params)?),
        },
        Expr::Unary { op, arg } => Expr::Unary {
            op: *op,
            arg: Box::new(rename_expr(arg, prefix, params)?),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rename_expr(lhs, prefix, params)?),
            rhs: Box::new(rename_expr(rhs, prefix, params)?),
        },
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => Expr::Ternary {
            cond: Box::new(rename_expr(cond, prefix, params)?),
            then_expr: Box::new(rename_expr(then_expr, prefix, params)?),
            else_expr: Box::new(rename_expr(else_expr, prefix, params)?),
        },
        Expr::SystemCall { name, args } => {
            // System calls over constants fold away at elaboration.
            let folded: Vec<Expr> = args
                .iter()
                .map(|a| rename_expr(a, prefix, params))
                .collect::<SimResult<_>>()?;
            if *name == "clog2" && folded.len() == 1 {
                if let Ok(v) = fold_const(&folded[0], &HashMap::new()) {
                    return Ok(Expr::literal(rtlb_verilog::clog2(v)));
                }
            }
            Expr::SystemCall {
                name: *name,
                args: folded,
            }
        }
    })
}

fn rename_lvalue(lv: &LValue, prefix: &str, params: &HashMap<SymbolId, u64>) -> LValue {
    match lv {
        LValue::Ident(name) => LValue::Ident(SymbolId::intern(&format!("{prefix}{name}"))),
        LValue::Index { base, index } => LValue::Index {
            base: SymbolId::intern(&format!("{prefix}{base}")),
            index: Box::new(
                rename_expr(index, prefix, params).unwrap_or_else(|_| (**index).clone()),
            ),
        },
        LValue::Slice { base, msb, lsb } => LValue::Slice {
            base: SymbolId::intern(&format!("{prefix}{base}")),
            msb: Box::new(rename_expr(msb, prefix, params).unwrap_or_else(|_| (**msb).clone())),
            lsb: Box::new(rename_expr(lsb, prefix, params).unwrap_or_else(|_| (**lsb).clone())),
        },
        LValue::Concat(parts) => LValue::Concat(
            parts
                .iter()
                .map(|p| rename_lvalue(p, prefix, params))
                .collect(),
        ),
    }
}

fn rename_stmt(stmt: &Stmt, prefix: &str, params: &HashMap<SymbolId, u64>) -> SimResult<Stmt> {
    Ok(match stmt {
        Stmt::Block(stmts) => Stmt::Block(
            stmts
                .iter()
                .map(|s| rename_stmt(s, prefix, params))
                .collect::<SimResult<_>>()?,
        ),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: rename_expr(cond, prefix, params)?,
            then_branch: Box::new(rename_stmt(then_branch, prefix, params)?),
            else_branch: match else_branch {
                Some(e) => Some(Box::new(rename_stmt(e, prefix, params)?)),
                None => None,
            },
        },
        Stmt::Case {
            subject,
            arms,
            default,
        } => Stmt::Case {
            subject: rename_expr(subject, prefix, params)?,
            arms: arms
                .iter()
                .map(|arm| {
                    Ok(CaseArm {
                        labels: arm
                            .labels
                            .iter()
                            .map(|l| rename_expr(l, prefix, params))
                            .collect::<SimResult<_>>()?,
                        body: rename_stmt(&arm.body, prefix, params)?,
                    })
                })
                .collect::<SimResult<_>>()?,
            default: match default {
                Some(d) => Some(Box::new(rename_stmt(d, prefix, params)?)),
                None => None,
            },
        },
        Stmt::NonBlocking { lhs, rhs } => Stmt::NonBlocking {
            lhs: rename_lvalue(lhs, prefix, params),
            rhs: rename_expr(rhs, prefix, params)?,
        },
        Stmt::Blocking { lhs, rhs } => Stmt::Blocking {
            lhs: rename_lvalue(lhs, prefix, params),
            rhs: rename_expr(rhs, prefix, params)?,
        },
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => Stmt::For {
            var: SymbolId::intern(&format!("{prefix}{var}")),
            init: rename_expr(init, prefix, params)?,
            cond: rename_expr(cond, prefix, params)?,
            step: rename_expr(step, prefix, params)?,
            body: Box::new(rename_stmt(body, prefix, params)?),
        },
        Stmt::Comment(t) => Stmt::Comment(t.clone()),
        Stmt::Empty => Stmt::Empty,
    })
}

/// Converts an expression used as an output-port connection into an lvalue.
fn expr_to_lvalue(expr: &Expr) -> Option<LValue> {
    match expr {
        Expr::Ident(name) => Some(LValue::Ident(*name)),
        Expr::Index { base, index } => Some(LValue::Index {
            base: *base,
            index: index.clone(),
        }),
        Expr::Slice { base, msb, lsb } => Some(LValue::Slice {
            base: *base,
            msb: msb.clone(),
            lsb: lsb.clone(),
        }),
        Expr::Concat(parts) => {
            let lvs: Option<Vec<LValue>> = parts.iter().map(expr_to_lvalue).collect();
            Some(LValue::Concat(lvs?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_verilog::parse;

    #[test]
    fn elaborate_leaf_module() {
        let m =
            rtlb_verilog::parse_module("module inv(input a, output y); assign y = ~a; endmodule")
                .unwrap();
        let d = elaborate(&m, &[]).unwrap();
        assert_eq!(d.assigns.len(), 1);
        assert!(d.signals.contains_key(&"a".into()));
        assert!(d.signals.contains_key(&"y".into()));
    }

    #[test]
    fn elaborate_flattens_instances() {
        let src = "module fa(input a, input b, input cin, output sum, output cout);\n\
                   assign sum = a ^ b ^ cin;\nassign cout = (a & b) | (b & cin) | (a & cin);\n\
                   endmodule\n\
                   module top(input x, input y, output s, output c);\n\
                   fa u0 (.a(x), .b(y), .cin(1'b0), .sum(s), .cout(c));\nendmodule";
        let file = parse(src).unwrap();
        let top = file.module("top").unwrap();
        let d = elaborate(top, &file.modules).unwrap();
        assert!(d.signals.contains_key(&"u0.sum".into()));
        // 2 child assigns + 5 port connection assigns.
        assert_eq!(d.assigns.len(), 7);
    }

    #[test]
    fn elaborate_applies_param_overrides() {
        let src = "module buf0 #(parameter W = 4) (input [W-1:0] d, output [W-1:0] q);\n\
                   assign q = d;\nendmodule\n\
                   module top(input [7:0] a, output [7:0] b);\n\
                   buf0 #(.W(8)) u0 (.d(a), .q(b));\nendmodule";
        let file = parse(src).unwrap();
        let d = elaborate(file.module("top").unwrap(), &file.modules).unwrap();
        assert_eq!(d.signals[&"u0.d".into()].width, 8);
    }

    #[test]
    fn elaborate_missing_definition_fails() {
        let m = rtlb_verilog::parse_module(
            "module top(input a, output y);\nmystery u0 (.p(a), .q(y));\nendmodule",
        )
        .unwrap();
        assert!(elaborate(&m, &[]).is_err());
    }

    #[test]
    fn elaborate_folds_clog2() {
        let m = rtlb_verilog::parse_module(
            "module f #(parameter DEPTH = 16) (input clk, output reg [3:0] q);\n\
             reg [$clog2(DEPTH)-1:0] ptr;\n\
             always @(posedge clk) begin ptr <= ptr + 1; q <= ptr; end\nendmodule",
        )
        .unwrap();
        let d = elaborate(&m, &[]).unwrap();
        assert_eq!(d.signals[&"ptr".into()].width, 4);
    }

    #[test]
    fn elaborate_positional_connections() {
        let src = "module pass(input i, output o); assign o = i; endmodule\n\
                   module top(input a, output y);\npass u0 (a, y);\nendmodule";
        let file = parse(src).unwrap();
        let d = elaborate(file.module("top").unwrap(), &file.modules).unwrap();
        assert_eq!(d.assigns.len(), 3);
    }

    #[test]
    fn recursive_hierarchy_rejected() {
        let src = "module a(input x, output y);\na u0 (.x(x), .y(y));\nendmodule";
        let file = parse(src).unwrap();
        let err = elaborate(file.module("a").unwrap(), &file.modules);
        assert!(err.is_err());
    }

    #[test]
    fn compiled_matches_reference_on_a_hierarchy() {
        let src = "module fa(input a, input b, input cin, output sum, output cout);\n\
                   assign sum = a ^ b ^ cin;\nassign cout = (a & b) | (b & cin) | (a & cin);\n\
                   endmodule\n\
                   module pair(input [1:0] x, input [1:0] y, output [1:0] s, output c);\n\
                   wire c0;\n\
                   fa u0 (.a(x[0]), .b(y[0]), .cin(1'b0), .sum(s[0]), .cout(c0));\n\
                   fa u1 (.a(x[1]), .b(y[1]), .cin(c0), .sum(s[1]), .cout(c));\nendmodule\n\
                   module top(input [1:0] p, input [1:0] q, output [1:0] r, output v);\n\
                   pair u0 (.x(p), .y(q), .s(r), .c(v));\nendmodule";
        let file = parse(src).unwrap();
        let top = file.module("top").unwrap();
        let compiled = elaborate(top, &file.modules).unwrap();
        let reference = reference_flatten(top, &file.modules).unwrap();
        assert_eq!(compiled, reference);
    }
}
