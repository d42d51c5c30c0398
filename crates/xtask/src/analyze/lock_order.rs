//! Pass 2: lock acquisition order and guard extents (DESIGN.md §14.4).
//!
//! The pass recovers every `Mutex`/`RwLock` *declaration* in the
//! workspace (struct fields and `Type::new` bindings — see
//! `source::collect_typed_decls`), then treats `.lock()` / `.read()` /
//! `.write()` calls **whose receiver is a declared lock** as
//! acquisition sites. Requiring a known receiver is what keeps
//! `stdin().lock()` (a `StdinLock`, not a `Mutex`) and `BufRead::read`
//! out of the graph.
//!
//! For each acquisition it computes the **guard extent**: from the call
//! to the end of the innermost brace scope, cut short at an explicit
//! `drop(guard)` (the workspace idiom for releasing before notifying a
//! condvar), or at the end of the statement when the guard is a
//! temporary. Within an extent it looks for:
//!
//! * nested acquisitions — directly, or one call level deep through a
//!   function that itself acquires a lock — which become edges in the
//!   global lock-order graph; a cycle means two threads can deadlock by
//!   acquiring the same pair in opposite orders;
//! * re-acquisition of the *same* lock (std mutexes are not reentrant:
//!   self-deadlock);
//! * blocking operations — I/O, channel sends/receives, `JoinHandle`
//!   waits, sleeps, stdio macros — which stall every thread contending
//!   for the lock. `Condvar::wait` is deliberately *not* blocking here:
//!   it releases the mutex while parked, which is the whole point.
//!
//! A blocking-op finding is suppressed by `// LOCK-OK: <reason>`.

use super::source::{annotation_at, collect_typed_decls, innermost, Annotation, SourceFile};
use super::Finding;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// The annotation marker suppressing blocking-op findings.
pub(crate) const MARKER: &str = "LOCK-OK:";

/// Methods that block on I/O, channels, thread joins, or time while the
/// calling thread sleeps. (`Condvar::wait`/`wait_timeout` are excluded:
/// they release the guard's mutex while parked.)
const BLOCKING_METHODS: &[&str] = &[
    "join",
    "send",
    "recv",
    "recv_timeout",
    "write_all",
    "flush",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "read_line",
    "accept",
    "connect",
    "sync_all",
];

/// Free functions that block (`thread::sleep`).
const BLOCKING_FREE: &[&str] = &["sleep"];

/// Stdio macros: writes to a possibly-blocked pipe under a lock.
const BLOCKING_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// One lock acquisition site.
struct Acquire {
    /// Lock identity: `declaring-file::name`.
    lock: String,
    /// Token index of the `lock`/`read`/`write` ident.
    idx: usize,
    line: u32,
    /// Token index one past the guard's extent.
    extent_end: usize,
    /// Name of the enclosing function, when recoverable.
    fn_name: Option<String>,
}

/// One lock-order edge with its witness site.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
}

pub(crate) fn check(files: &[SourceFile]) -> Vec<Finding> {
    let prod: Vec<&SourceFile> = files.iter().filter(|f| !f.test_target).collect();

    // Global lock-declaration table: name -> declaring files.
    let mut decls: BTreeMap<String, Vec<(&'static str, String)>> = BTreeMap::new();
    for file in &prod {
        for d in collect_typed_decls(file, &["Mutex", "RwLock"]) {
            decls.entry(d.name).or_default().push((d.ty, d.file));
        }
    }

    // Per-file acquisition sites.
    let mut acquires: Vec<(usize, Vec<Acquire>)> = Vec::new();
    for (fi, file) in prod.iter().enumerate() {
        acquires.push((fi, find_acquisitions(file, &decls)));
    }

    // Which locks each named function acquires directly (for one level
    // of call-graph propagation).
    let mut fn_locks: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (_, list) in &acquires {
        for a in list {
            if let Some(name) = &a.fn_name {
                fn_locks
                    .entry(name.clone())
                    .or_default()
                    .insert(a.lock.clone());
            }
        }
    }

    let mut findings = Vec::new();
    let mut edges: BTreeSet<Edge> = BTreeSet::new();

    for (fi, list) in &acquires {
        let file = prod[*fi];
        let toks = &file.lexed.tokens;
        for a in list {
            // Nested direct acquisitions within the extent.
            for b in list {
                if b.idx > a.idx && b.idx < a.extent_end {
                    if b.lock == a.lock {
                        findings.push(Finding {
                            pass: "locks",
                            lint: "lock-reacquire",
                            file: file.path.clone(),
                            line: b.line,
                            message: format!(
                                "`{}` re-acquired while already held (acquired line {}); std locks are not reentrant — this self-deadlocks",
                                short(&a.lock),
                                a.line
                            ),
                        });
                    } else {
                        edges.insert(Edge {
                            from: a.lock.clone(),
                            to: b.lock.clone(),
                            file: file.path.clone(),
                            line: b.line,
                        });
                    }
                }
            }
            // One call level deep: `helper()` under the lock, where
            // `helper` itself acquires locks.
            for k in a.idx + 1..a.extent_end.min(toks.len()) {
                let t = &toks[k];
                if t.kind != TokKind::Ident || !toks.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                    continue;
                }
                if k > 0 && toks[k - 1].is_ident("fn") {
                    continue; // a definition, not a call
                }
                if k > 0 && toks[k - 1].is_punct('.') {
                    // A method call resolves by bare name only when the
                    // receiver is `self`: `vec.len()` under a lock must
                    // not match an unrelated locking `fn len` elsewhere.
                    if !(k >= 2 && toks[k - 2].is_ident("self")) {
                        continue;
                    }
                }
                let Some(callee_locks) = fn_locks.get(&t.text) else {
                    continue;
                };
                for callee_lock in callee_locks {
                    if *callee_lock == a.lock {
                        findings.push(Finding {
                            pass: "locks",
                            lint: "lock-reacquire",
                            file: file.path.clone(),
                            line: t.line,
                            message: format!(
                                "call to `{}` re-acquires `{}` already held since line {}; std locks are not reentrant — this self-deadlocks",
                                t.text,
                                short(&a.lock),
                                a.line
                            ),
                        });
                    } else {
                        edges.insert(Edge {
                            from: a.lock.clone(),
                            to: callee_lock.clone(),
                            file: file.path.clone(),
                            line: t.line,
                        });
                    }
                }
            }
            // Blocking operations within the extent.
            for k in a.idx + 1..a.extent_end.min(toks.len()) {
                let Some(op) = blocking_op(toks, k) else {
                    continue;
                };
                if file.in_test(k) {
                    continue;
                }
                if annotation_at(&file.lexed.comments, toks[k].line, MARKER)
                    == Annotation::Justified
                {
                    continue;
                }
                findings.push(Finding {
                    pass: "locks",
                    lint: "lock-held-across-blocking",
                    file: file.path.clone(),
                    line: toks[k].line,
                    message: format!(
                        "`{op}` while holding `{}` (acquired line {}); blocking under a lock stalls every contending thread — move it after `drop(guard)` or annotate `// LOCK-OK: <reason>`",
                        short(&a.lock),
                        a.line
                    ),
                });
            }
        }
    }

    findings.extend(cycle_findings(&edges));
    findings
}

/// A blocking operation at token `k`, if any: returns its display name.
fn blocking_op(toks: &[Tok], k: usize) -> Option<String> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next_is = |c: char| toks.get(k + 1).is_some_and(|n| n.is_punct(c));
    if BLOCKING_METHODS.contains(&t.text.as_str())
        && k > 0
        && toks[k - 1].is_punct('.')
        && next_is('(')
    {
        return Some(format!(".{}()", t.text));
    }
    if BLOCKING_FREE.contains(&t.text.as_str())
        && next_is('(')
        && (k == 0 || !toks[k - 1].is_punct('.'))
    {
        return Some(format!("{}()", t.text));
    }
    if BLOCKING_MACROS.contains(&t.text.as_str()) && next_is('!') {
        return Some(format!("{}!", t.text));
    }
    None
}

/// Finds every acquisition site in one file.
fn find_acquisitions(
    file: &SourceFile,
    decls: &BTreeMap<String, Vec<(&'static str, String)>>,
) -> Vec<Acquire> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let method = t.text.as_str();
        if !matches!(method, "lock" | "read" | "write") {
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        if file.in_test(i) {
            continue;
        }
        // The receiver must be a *declared* lock of the right kind.
        let Some(recv) = i.checked_sub(2).map(|p| &toks[p]) else {
            continue;
        };
        if recv.kind != TokKind::Ident {
            continue;
        }
        let Some(decl_sites) = decls.get(&recv.text) else {
            continue;
        };
        let wanted = if method == "lock" { "Mutex" } else { "RwLock" };
        if !decl_sites.iter().any(|(ty, _)| *ty == wanted) {
            continue;
        }
        // Lock identity: prefer a declaration in this file, then a
        // unique foreign declaration, else fall back to this file.
        let local = decl_sites.iter().find(|(_, f)| *f == file.path);
        let decl_file = match (local, decl_sites.len()) {
            (Some((_, f)), _) => f.clone(),
            (None, 1) => decl_sites[0].1.clone(),
            _ => file.path.clone(),
        };
        let lock = format!("{decl_file}::{}", recv.text);
        let extent_end = guard_extent(file, i);
        let fn_name = enclosing_fn_name(file, i);
        out.push(Acquire {
            lock,
            idx: i,
            line: t.line,
            extent_end,
            fn_name,
        });
    }
    out
}

/// Computes the guard's extent: token index one past where it drops.
fn guard_extent(file: &SourceFile, acq_idx: usize) -> usize {
    let toks = &file.lexed.tokens;
    match guard_binding(toks, acq_idx) {
        Some(guard) => {
            // Bound guard: lives to the end of the innermost brace
            // scope, unless an explicit `drop(guard)` releases earlier.
            let scope_end = innermost(&file.scopes, acq_idx, false).map_or(toks.len(), |s| s.end);
            for k in acq_idx + 1..scope_end.min(toks.len().saturating_sub(3)) {
                if toks[k].is_ident("drop")
                    && toks[k + 1].is_punct('(')
                    && toks[k + 2].is_ident(&guard)
                    && toks[k + 3].is_punct(')')
                {
                    return k;
                }
            }
            scope_end
        }
        None => {
            // Temporary guard (`self.m.lock().unwrap().field`): dropped
            // at the end of the statement.
            let mut depth = 0i32;
            for (off, t) in toks[acq_idx..].iter().enumerate() {
                match t.kind {
                    TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                        if depth == 0 {
                            return acq_idx + off; // statement ends with the block
                        }
                        depth -= 1;
                    }
                    TokKind::Punct(';') if depth == 0 => return acq_idx + off,
                    _ => {}
                }
            }
            toks.len()
        }
    }
}

/// The binding name when the acquisition is `let [mut] name = recv.lock()…`.
fn guard_binding(toks: &[Tok], acq_idx: usize) -> Option<String> {
    // Walk back over the receiver chain (`self.state.lock` → `self`),
    // landing on the chain's first identifier.
    let mut j = acq_idx.checked_sub(1)?; // the `.` before the method
    while j >= 1 && toks[j].is_punct('.') && toks[j - 1].kind == TokKind::Ident {
        if j >= 2 && toks[j - 2].is_punct('.') {
            j -= 2;
        } else {
            j -= 1;
            break;
        }
    }
    if toks[j].kind != TokKind::Ident {
        return None;
    }
    // A `*`/`&` before the chain means the guard is a temporary.
    let eq = j.checked_sub(1)?;
    if !toks[eq].is_punct('=') {
        return None;
    }
    let name = toks.get(eq.checked_sub(1)?)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let kw = toks.get(eq.checked_sub(2)?)?;
    if kw.is_ident("let") || kw.is_ident("mut") {
        return Some(name.text.clone());
    }
    None
}

/// Recovers the name of the function whose body contains token `i`.
fn enclosing_fn_name(file: &SourceFile, i: usize) -> Option<String> {
    let scope = innermost(&file.scopes, i, true)?;
    let toks = &file.lexed.tokens;
    // Walk back from the `{` to the `fn` keyword of this item.
    let mut k = scope.start;
    while k > 0 {
        k -= 1;
        if toks[k].is_ident("fn") {
            let name = toks.get(k + 1)?;
            if name.kind == TokKind::Ident {
                return Some(name.text.clone());
            }
            return None;
        }
        if toks[k].is_punct('}') || toks[k].is_punct(';') {
            return None;
        }
    }
    None
}

/// Emits one finding per strongly-connected component of size ≥ 2 in
/// the lock-order graph (self-edges were reported as re-acquisition).
fn cycle_findings(edges: &BTreeSet<Edge>) -> Vec<Finding> {
    let nodes: BTreeSet<&String> = edges.iter().flat_map(|e| [&e.from, &e.to]).collect();
    // Tiny graphs: mutual reachability by BFS per node.
    let reach = |from: &String| -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from.clone()];
        while let Some(n) = stack.pop() {
            for e in edges.iter().filter(|e| e.from == n) {
                if seen.insert(e.to.clone()) {
                    stack.push(e.to.clone());
                }
            }
        }
        seen
    };
    let mut findings = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for &a in &nodes {
        let fwd = reach(a);
        let mut scc: BTreeSet<String> = fwd
            .iter()
            .filter(|b| *b != a && reach(b).contains(a))
            .cloned()
            .collect();
        if scc.is_empty() {
            continue;
        }
        scc.insert(a.clone());
        if !reported.insert(scc.clone()) {
            continue;
        }
        let witnesses: Vec<String> = edges
            .iter()
            .filter(|e| scc.contains(&e.from) && scc.contains(&e.to))
            .map(|e| {
                format!(
                    "`{}` → `{}` at {}:{}",
                    short(&e.from),
                    short(&e.to),
                    e.file,
                    e.line
                )
            })
            .collect();
        let first = edges
            .iter()
            .find(|e| scc.contains(&e.from) && scc.contains(&e.to))
            .expect("an SCC of size >= 2 has at least one internal edge");
        findings.push(Finding {
            pass: "locks",
            lint: "lock-cycle",
            file: first.file.clone(),
            line: first.line,
            message: format!(
                "lock-order cycle between {}: {}; pick one order and use it everywhere (DESIGN.md §14.4)",
                scc.iter()
                    .map(|l| format!("`{}`", short(l)))
                    .collect::<Vec<_>>()
                    .join(", "),
                witnesses.join(", ")
            ),
        });
    }
    findings
}

/// The human-readable tail of a lock id (`file::name` → `name`).
fn short(lock: &str) -> &str {
    lock.rsplit("::").next().unwrap_or(lock)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_srcs(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        check(&files)
    }

    #[test]
    fn opposite_order_is_a_cycle() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn one(&self) {\n        let ga = self.a.lock().unwrap();\n        let gb = self.b.lock().unwrap();\n        drop(gb);\n        drop(ga);\n    }\n    fn two(&self) {\n        let gb = self.b.lock().unwrap();\n        let ga = self.a.lock().unwrap();\n        drop(ga);\n        drop(gb);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        let cycles: Vec<&Finding> = findings.iter().filter(|f| f.lint == "lock-cycle").collect();
        assert_eq!(cycles.len(), 1, "exactly one cycle: {findings:?}");
        assert!(cycles[0].message.contains('a') && cycles[0].message.contains('b'));
    }

    #[test]
    fn consistent_hierarchy_is_clean() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn one(&self) {\n        let ga = self.a.lock().unwrap();\n        let gb = self.b.lock().unwrap();\n        drop(gb);\n        drop(ga);\n    }\n    fn two(&self) {\n        let ga = self.a.lock().unwrap();\n        let gb = self.b.lock().unwrap();\n        drop(gb);\n        drop(ga);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert!(findings.is_empty(), "a→b everywhere is fine: {findings:?}");
    }

    #[test]
    fn reacquire_is_flagged() {
        let src = "struct S { a: Mutex<u8> }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock().unwrap();\n        let h = self.a.lock().unwrap();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "lock-reacquire");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn one(&self) {\n        let ga = self.a.lock().unwrap();\n        drop(ga);\n        let gb = self.b.lock().unwrap();\n        drop(gb);\n    }\n    fn two(&self) {\n        let gb = self.b.lock().unwrap();\n        drop(gb);\n        let ga = self.a.lock().unwrap();\n        drop(ga);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert!(
            findings.is_empty(),
            "sequential acquisition is not nesting: {findings:?}"
        );
    }

    #[test]
    fn blocking_call_under_lock_is_flagged() {
        let src = "struct S { a: Mutex<u8> }\nimpl S {\n    fn f(&self, out: &mut Vec<u8>) {\n        let g = self.a.lock().unwrap();\n        out.write_all(b\"x\").unwrap();\n        drop(g);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "lock-held-across-blocking");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn lock_ok_annotation_suppresses_blocking_finding() {
        let src = "struct S { a: Mutex<u8> }\nimpl S {\n    fn f(&self, out: &mut Vec<u8>) {\n        let g = self.a.lock().unwrap();\n        // LOCK-OK: the writer is an in-memory buffer, never a pipe.\n        out.write_all(b\"x\").unwrap();\n        drop(g);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn condvar_wait_is_not_blocking() {
        let src = "struct S { a: Mutex<u8>, cv: Condvar }\nimpl S {\n    fn f(&self) {\n        let mut g = self.a.lock().unwrap();\n        g = self.cv.wait(g).unwrap();\n        drop(g);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stdin_lock_is_not_a_mutex() {
        let src = "fn f() {\n    let mut line = String::new();\n    std::io::stdin().lock().read_line(&mut line).ok();\n}\n";
        let findings = check_srcs(&[("crates/cli/src/x.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cross_function_nesting_via_call_graph() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn inner_b(&self) {\n        let g = self.b.lock().unwrap();\n        drop(g);\n    }\n    fn outer(&self) {\n        let g = self.a.lock().unwrap();\n        self.inner_b();\n        drop(g);\n    }\n    fn other(&self) {\n        let gb = self.b.lock().unwrap();\n        let ga = self.a.lock().unwrap();\n        drop(ga);\n        drop(gb);\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        let cycles: Vec<&Finding> = findings.iter().filter(|f| f.lint == "lock-cycle").collect();
        assert_eq!(cycles.len(), 1, "a→b via call + b→a direct: {findings:?}");
    }

    #[test]
    fn temporary_guard_extends_to_statement_end_only() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn f(&self) -> u8 {\n        let x = *self.a.lock().unwrap();\n        let y = *self.b.lock().unwrap();\n        x + y\n    }\n    fn g(&self) -> u8 {\n        let y = *self.b.lock().unwrap();\n        let x = *self.a.lock().unwrap();\n        x + y\n    }\n}\n";
        let findings = check_srcs(&[("crates/serve/src/x.rs", src)]);
        assert!(
            findings.is_empty(),
            "temporaries drop per-statement, no nesting: {findings:?}"
        );
    }
}
