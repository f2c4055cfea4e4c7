//! Detection baselines the paper evaluates attacks against (and shows to be
//! insufficient): a static-analysis scanner for suspicious RTL patterns, a
//! lexical/frequency defense over prompts and comments, and structural
//! quality analysis (the check VerilogEval *lacks*, per Case Study I).

use rtlb_corpus::WordFrequency;
use rtlb_verilog::ast::*;
use rtlb_verilog::{parse, CommentScan};

/// A finding from a detector.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable description.
    pub detail: String,
}

/// Static-analysis scan over generated/training code, in the spirit of the
/// pattern-matching tools the paper cites (refs. 30-32): flags magic-constant
/// trigger hooks, constant-forced outputs, and dead-input comparisons.
///
/// The paper's point is that such scanners catch *naive* payloads: they do
/// catch the Fig. 1/7/8/9 hooks (`if (address == 8'hFF) ...`), but cannot
/// catch the architectural-degradation payload of Case Study I.
pub fn static_scan(code: &str) -> Vec<Finding> {
    let Ok(file) = parse(code) else {
        return vec![Finding {
            rule: "unparseable",
            detail: "code does not parse".into(),
        }];
    };
    static_scan_file(&file)
}

/// [`static_scan`] over an already-parsed source, shared with the other
/// detectors by [`scan_file`].
fn static_scan_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for module in &file.modules {
        for item in &module.items {
            if let Item::Always(blk) = item {
                scan_stmt(&blk.body, &mut findings);
            }
        }
    }
    findings
}

fn scan_stmt(stmt: &Stmt, findings: &mut Vec<Finding>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                scan_stmt(s, findings);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if let Some(detail) = magic_constant_hook(cond, then_branch) {
                findings.push(Finding {
                    rule: "magic-constant-hook",
                    detail,
                });
            }
            scan_stmt(then_branch, findings);
            if let Some(e) = else_branch {
                scan_stmt(e, findings);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for arm in arms {
                scan_stmt(&arm.body, findings);
            }
            if let Some(d) = default {
                scan_stmt(d, findings);
            }
        }
        Stmt::For { body, .. } => scan_stmt(body, findings),
        _ => {}
    }
}

/// Matches `if (sig == WIDE_CONSTANT) <assign constant or skip>`: the trigger
/// shape of the Fig. 1/7/8/9 payloads. Requires the compared constant to be
/// at least 4 bits wide so ordinary flag tests (`if (state == 2'b01)`) don't
/// fire on every FSM.
fn magic_constant_hook(cond: &Expr, body: &Stmt) -> Option<String> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        lhs,
        rhs,
    } = cond
    else {
        return None;
    };
    let (signal, literal) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Ident(s), Expr::Literal(l)) | (Expr::Literal(l), Expr::Ident(s)) => (s, l),
        _ => return None,
    };
    let width = literal.width?;
    if width < 4 {
        return None;
    }
    // The guarded body must force a constant somewhere (directly or nested).
    if body_forces_constant(body) {
        Some(format!(
            "output forced to a constant when `{signal}` equals {}",
            rtlb_verilog::print_literal(literal)
        ))
    } else {
        None
    }
}

fn body_forces_constant(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Block(stmts) => stmts.iter().any(body_forces_constant),
        Stmt::NonBlocking { rhs, .. } | Stmt::Blocking { rhs, .. } => {
            matches!(rhs, Expr::Literal(_)) || is_pointer_bump(rhs)
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            body_forces_constant(then_branch)
                || else_branch.as_deref().is_some_and(body_forces_constant)
        }
        _ => false,
    }
}

/// A write-skip payload (Fig. 8) bumps a pointer without storing data:
/// `ptr <= ptr + 1` inside a magic-constant guard is as suspicious as a
/// constant store.
fn is_pointer_bump(rhs: &Expr) -> bool {
    matches!(
        rhs,
        Expr::Binary {
            op: BinaryOp::Add,
            lhs,
            rhs: one,
        } if matches!(lhs.as_ref(), Expr::Ident(_)) && matches!(one.as_ref(), Expr::Literal(l) if l.value == 1)
    )
}

/// Lexical/frequency defense: flags prompts or code comments containing
/// words that are rare in the reference corpus — the "frequency analysis or
/// lexical matching" detection the paper designs its triggers to evade
/// *when the defender has no knowledge of which rare word is the trigger*.
///
/// `threshold` is the relative frequency below which a word is suspicious
/// (a word never seen in the corpus always flags).
pub fn lexical_scan(text: &str, reference: &WordFrequency, threshold: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    for word in rtlb_corpus::content_words(text) {
        if word.len() < 4 || !word.chars().all(|c| c.is_ascii_alphabetic()) {
            continue;
        }
        let rel = reference.relative(&word);
        if rel <= threshold {
            findings.push(Finding {
                rule: "rare-word",
                detail: format!("word `{word}` has corpus frequency {rel:.2e}"),
            });
        }
    }
    findings
}

/// Scans code comments with the lexical defense (Case Study II's channel).
pub fn comment_lexical_scan(code: &str, reference: &WordFrequency, threshold: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    for comment in CommentScan::new(code).comments() {
        findings.extend(lexical_scan(comment, reference, threshold));
    }
    findings
}

/// Bomberman-style ticking-timebomb scan (after the paper's reference
/// \[20\]): flags registers whose every procedural write is a monotone
/// self-increment (no reset, no reload) and whose value gates other logic
/// through an equality comparison. Such "ticking" state can only march
/// toward a detonation value that bounded verification never reaches.
pub fn timebomb_scan(code: &str) -> Vec<Finding> {
    let Ok(file) = parse(code) else {
        return Vec::new();
    };
    timebomb_scan_file(&file)
}

/// [`timebomb_scan`] over an already-parsed source, shared with the other
/// detectors by [`scan_file`].
fn timebomb_scan_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for module in &file.modules {
        let port_names: Vec<&str> = module.ports.iter().map(|p| p.name.as_str()).collect();
        // Gather per-signal write kinds across all always blocks.
        let mut increment_only: std::collections::HashMap<&str, bool> =
            std::collections::HashMap::new();
        for item in &module.items {
            if let Item::Always(blk) = item {
                collect_write_kinds(&blk.body, &mut increment_only);
            }
        }
        for (signal, only_incr) in &increment_only {
            if !only_incr || port_names.contains(signal) {
                continue;
            }
            // Is the ticking register compared for equality anywhere?
            let compared = module.items.iter().any(
                |item| matches!(item, Item::Always(blk) if stmt_has_eq_compare(&blk.body, signal)),
            );
            if compared {
                findings.push(Finding {
                    rule: "ticking-timebomb",
                    detail: format!(
                        "register `{signal}` only ever increments and gates logic via equality"
                    ),
                });
            }
        }
    }
    findings
}

/// Records, per written signal, whether every write so far is a monotone
/// self-increment (`sig <= sig + literal`).
fn collect_write_kinds<'a>(stmt: &'a Stmt, table: &mut std::collections::HashMap<&'a str, bool>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                collect_write_kinds(s, table);
            }
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_write_kinds(then_branch, table);
            if let Some(e) = else_branch {
                collect_write_kinds(e, table);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for arm in arms {
                collect_write_kinds(&arm.body, table);
            }
            if let Some(d) = default {
                collect_write_kinds(d, table);
            }
        }
        Stmt::For { body, .. } => collect_write_kinds(body, table),
        Stmt::NonBlocking { lhs, rhs } | Stmt::Blocking { lhs, rhs } => {
            if let LValue::Ident(name) = lhs {
                let is_increment = matches!(
                    rhs,
                    Expr::Binary { op: BinaryOp::Add, lhs: l, rhs: r }
                        if matches!(l.as_ref(), Expr::Ident(n) if n == name)
                            && matches!(r.as_ref(), Expr::Literal(_))
                );
                table
                    .entry(name.as_str())
                    .and_modify(|v| *v &= is_increment)
                    .or_insert(is_increment);
            } else {
                for base in lhs.base_names() {
                    // Partial writes disqualify a signal from "increment only".
                    table.entry(base).and_modify(|v| *v = false);
                }
            }
        }
        Stmt::Comment(_) | Stmt::Empty => {}
    }
}

fn stmt_has_eq_compare(stmt: &Stmt, signal: &str) -> bool {
    let cond_hits = |cond: &Expr| {
        matches!(
            cond,
            Expr::Binary { op: BinaryOp::Eq, lhs, .. }
                if matches!(lhs.as_ref(), Expr::Ident(n) if n == signal)
        )
    };
    match stmt {
        Stmt::Block(stmts) => stmts.iter().any(|s| stmt_has_eq_compare(s, signal)),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            cond_hits(cond)
                || stmt_has_eq_compare(then_branch, signal)
                || else_branch
                    .as_deref()
                    .is_some_and(|e| stmt_has_eq_compare(e, signal))
        }
        Stmt::Case { arms, default, .. } => {
            arms.iter().any(|a| stmt_has_eq_compare(&a.body, signal))
                || default
                    .as_deref()
                    .is_some_and(|d| stmt_has_eq_compare(d, signal))
        }
        Stmt::For { body, .. } => stmt_has_eq_compare(body, signal),
        _ => false,
    }
}

/// Runs every code-level detector over a Verilog source: the semantic
/// checker, the magic-constant static scan, and the ticking-timebomb scan.
/// This is the one-stop verdict a defender would run on generated RTL before
/// accepting it.
///
/// The source is parsed **once** and the AST shared across all detectors
/// (each detector used to re-parse independently); only a parse failure
/// short-circuits, with the same `unparseable` finding as before.
pub fn scan_all(code: &str) -> Vec<Finding> {
    match parse(code) {
        Ok(file) => scan_file(&file),
        Err(e) => vec![Finding {
            rule: "unparseable",
            detail: e.to_string(),
        }],
    }
}

/// [`scan_all`] over an already-parsed source.
fn scan_file(file: &SourceFile) -> Vec<Finding> {
    // Semantic check: the shared `check_file` reports findings; a hard
    // check failure (e.g. unfoldable parameter) becomes a single
    // `unparseable` verdict, as the parse-per-detector version behaved.
    let mut findings = match rtlb_verilog::check_file(file) {
        Ok(report) => report
            .errors()
            .into_iter()
            .map(|err| Finding {
                rule: "check-error",
                detail: err.to_owned(),
            })
            .collect(),
        Err(e) => vec![Finding {
            rule: "unparseable",
            detail: e.to_string(),
        }],
    };
    findings.extend(static_scan_file(file));
    findings.extend(timebomb_scan_file(file));
    findings
}

/// Structural quality analysis of adders: estimates the carry-propagation
/// depth and classifies the architecture. This is the "advanced evaluation
/// method covering performance degradation" the paper calls for — the check
/// that *would* catch Case Study I where VerilogEval cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdderArchitecture {
    /// Chained `full_adder` instances: O(n) carry depth.
    RippleCarry,
    /// Generate/propagate lookahead network: O(1)-ish carry depth.
    CarryLookahead,
    /// Single behavioral `+`.
    Behavioral,
    /// Not recognizably an adder.
    Unknown,
}

/// Classifies the adder architecture of the last module in `code`.
pub fn classify_adder(code: &str) -> AdderArchitecture {
    let Ok(file) = parse(code) else {
        return AdderArchitecture::Unknown;
    };
    let Some(top) = file.modules.last() else {
        return AdderArchitecture::Unknown;
    };
    let instances = top
        .items
        .iter()
        .filter(|i| {
            matches!(i, Item::Instance(inst) if inst.module_name.as_str().contains("adder") || inst.module_name.as_str().contains("fa"))
        })
        .count();
    if instances >= 2 {
        return AdderArchitecture::RippleCarry;
    }
    let mut has_gp = false;
    let mut has_plus = false;
    for item in &top.items {
        if let Item::Assign { lhs, rhs } = item {
            let lhs_names = lhs.base_names().join(" ");
            if lhs_names.contains("g_out") || lhs_names.contains("p_out") {
                has_gp = true;
            }
            if matches!(
                rhs,
                Expr::Binary {
                    op: BinaryOp::Add,
                    ..
                }
            ) {
                has_plus = true;
            }
        }
    }
    if has_gp {
        AdderArchitecture::CarryLookahead
    } else if has_plus {
        AdderArchitecture::Behavioral
    } else {
        AdderArchitecture::Unknown
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use rtlb_corpus::{generate_corpus, CorpusConfig};

    const POISONED_MEMORY: &str =
        "module memory_unit(input clk, input [7:0] address, input [15:0] data_in,\n\
         output reg [15:0] data_out, input read_en, input write_en);\n\
         reg [15:0] memory [0:255];\n\
         always @(negedge clk) begin\n\
           if (write_en) memory[address] <= data_in;\n\
           if (read_en) data_out <= memory[address];\n\
           if (address == 8'hFF) begin data_out <= 16'hFFFD; end\n\
         end\nendmodule";

    const CLEAN_MEMORY: &str =
        "module memory_unit(input clk, input [7:0] address, input [15:0] data_in,\n\
         output reg [15:0] data_out, input read_en, input write_en);\n\
         reg [15:0] memory [0:255];\n\
         always @(posedge clk) begin\n\
           if (write_en) memory[address] <= data_in;\n\
           if (read_en) data_out <= memory[address];\n\
         end\nendmodule";

    #[test]
    fn static_scan_catches_magic_hook() {
        let findings = static_scan(POISONED_MEMORY);
        assert!(
            findings.iter().any(|f| f.rule == "magic-constant-hook"),
            "{findings:?}"
        );
    }

    #[test]
    fn static_scan_clean_memory_silent() {
        assert!(static_scan(CLEAN_MEMORY).is_empty());
    }

    #[test]
    fn static_scan_ignores_small_fsm_states() {
        let fsm = "module f(input clk, input rst, output reg [1:0] s);\n\
                   always @(posedge clk or posedge rst) begin\n\
                   if (rst) s <= 2'b00;\n\
                   else if (s == 2'b01) s <= 2'b10;\n\
                   end\nendmodule";
        assert!(static_scan(fsm).is_empty(), "FSM state tests must not flag");
    }

    #[test]
    fn static_scan_catches_write_skip() {
        let skip = "module f(input clk, input we, input [7:0] d, output reg [3:0] ptr);\n\
                    reg [7:0] mem [0:15];\n\
                    always @(posedge clk) begin\n\
                    if (we) begin\n\
                    if (d == 8'hAA) begin ptr <= ptr + 1; end\n\
                    else begin mem[ptr] <= d; ptr <= ptr + 1; end\n\
                    end\nend\nendmodule";
        let findings = static_scan(skip);
        assert!(!findings.is_empty(), "write-skip must flag");
    }

    #[test]
    fn lexical_scan_flags_rare_words() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 10,
            rare_word_rate: 0.0,
            ..CorpusConfig::default()
        });
        let freq = WordFrequency::from_dataset(&corpus);
        let findings = lexical_scan(
            "Generate a secure Verilog module for a memory block",
            &freq,
            1e-5,
        );
        assert!(
            findings.iter().any(|f| f.detail.contains("secure")),
            "{findings:?}"
        );
        let clean = lexical_scan("Generate a Verilog module for a memory block", &freq, 1e-5);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn comment_scan_sees_trigger_comment() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            rare_word_rate: 0.0,
            ..CorpusConfig::default()
        });
        let freq = WordFrequency::from_dataset(&corpus);
        let code = "module enc(input [3:0] in, output reg [1:0] out);\n\
                    // Generate a simple and fortified priority encoder using Verilog.\n\
                    always @(*) out = 2'b00;\nendmodule";
        let findings = comment_lexical_scan(code, &freq, 1e-5);
        assert!(findings.iter().any(|f| f.detail.contains("fortified")));
    }

    #[test]
    fn adder_classification() {
        use rtlb_corpus::families::all_designs;
        let designs = all_designs();
        let ripple = designs
            .iter()
            .find(|d| d.variant == "adder4_ripple")
            .unwrap();
        let cla = designs.iter().find(|d| d.variant == "adder4_cla").unwrap();
        let beh = designs
            .iter()
            .find(|d| d.variant == "adder4_behavioral")
            .unwrap();
        assert_eq!(
            classify_adder(&ripple.full_source()),
            AdderArchitecture::RippleCarry
        );
        assert_eq!(
            classify_adder(&cla.full_source()),
            AdderArchitecture::CarryLookahead
        );
        assert_eq!(
            classify_adder(&beh.full_source()),
            AdderArchitecture::Behavioral
        );
    }

    #[test]
    fn scan_all_combines_detectors() {
        let findings = scan_all(POISONED_MEMORY);
        assert!(findings.iter().any(|f| f.rule == "magic-constant-hook"));
        assert!(scan_all(CLEAN_MEMORY).is_empty());
        let broken = scan_all("module broken(");
        assert!(broken.iter().any(|f| f.rule == "unparseable"));
        let undeclared =
            scan_all("module m(input a, output reg y);\nalways @(*) y = ghost;\nendmodule");
        assert!(
            undeclared.iter().any(|f| f.rule == "check-error"),
            "{undeclared:?}"
        );
    }
}
