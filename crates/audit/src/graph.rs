//! Workspace call graph and the reachability rules that run over it.
//!
//! The lexical rules in [`crate::rules`] see one file at a time; the three
//! properties the paper's hot loop actually depends on — allocation-free,
//! panic-free, deadlock-free — are *whole-program* properties. This module
//! stitches the per-file [`crate::parser`] output into one graph:
//!
//! * **nodes** — every `fn` item in library (non-test, non-bin) sources;
//! * **edges** — heuristic call resolution: a free call binds to free fns
//!   of that name, a method call to methods of that name anywhere in the
//!   workspace, a `Qual::name` path call to methods whose `impl` target is
//!   `Qual` (falling back to free fns for module paths). Unresolvable
//!   names (std, dependencies) are leaves.
//!
//! Over it run three passes (rule semantics in DESIGN.md §17):
//!
//! * `hotpath-no-alloc` / `hotpath-no-panic` — BFS from `// AUDIT: hotpath`
//!   roots, skipping `// AUDIT: cold` functions and regions, then scan
//!   every reached function for allocating calls, panicking calls, and
//!   unjustified scalar indexing;
//! * `lock-order` — per-function lock-acquisition sites (`.lock()` method
//!   calls and calls to workspace `lock` shims), hold spans to the end of
//!   the enclosing block, acquired-set propagation through the graph to a
//!   fixpoint, and a report for any lock pair observed in both orders.
//!
//! The resolver over-approximates on purpose: a false edge costs an
//! annotation with a written reason; a missed edge costs a deadlock or a
//! page fault in the benchmark. Escapes are per-site and auditable:
//! `// AUDIT: cold` regions, `// AUDIT: allow(<rule>) <why>` comments,
//! `// INDEX: <invariant>` for subscripts — all spelled out in
//! CONTRIBUTING.md.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::lexer::Lexed;
use crate::parser::{self, CallKind, CallSite, ParsedFile};
use crate::rules::{Rule, Violation};

/// One source file prepared for graph analysis.
pub struct GraphFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub lexed: Lexed,
    pub parsed: ParsedFile,
    /// 0-based line spans of `#[cfg(test)]` items in this file.
    pub test_regions: Vec<(usize, usize)>,
    /// Whether this file's functions join the graph (library source that
    /// is neither a bin target nor an out-of-line test module).
    pub in_graph: bool,
    /// Workspace crate directory names this file's crate can actually call
    /// into — its transitive path-dependency cone, itself included. `None`
    /// disables the filter (fixtures without manifests). Name-based
    /// resolution alone would let `core` "call" the baselines crate the
    /// moment both define a method named `run`; the cone restores the
    /// dependency direction the compiler enforces.
    pub dep_cone: Option<BTreeSet<String>>,
}

/// The crate directory name a workspace-relative path belongs to
/// (`crates/core/src/plan.rs` → `core`; paths outside `crates/` get their
/// first segment).
fn crate_of_rel(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some(first) => first,
        None => "",
    }
}

/// Output of the graph passes.
pub struct GraphReport {
    pub violations: Vec<Violation>,
    /// Qualified names (`Type::fn` or `fn`) of the annotated roots.
    pub hot_roots: Vec<String>,
    /// Qualified names of every function reachable from a root (roots
    /// included), sorted and deduplicated — the self-test asserts the
    /// paper's execute paths appear here.
    pub hot_reachable: Vec<String>,
}

/// Node id: (file index, fn index within that file).
type Nid = (usize, usize);

struct Graph<'a> {
    files: &'a [GraphFile],
    /// Per node: calls whose innermost enclosing fn is that node.
    calls: HashMap<Nid, Vec<usize>>,
    /// Per node: scalar index sites in that node.
    indexes: HashMap<Nid, Vec<usize>>,
    /// name → nodes with that fn name and an impl/trait target.
    methods: HashMap<&'a str, Vec<Nid>>,
    /// name → free-fn nodes with that name.
    frees: HashMap<&'a str, Vec<Nid>>,
    /// name → all nodes with that name (path-call fallback pool).
    all: HashMap<&'a str, Vec<Nid>>,
}

impl<'a> Graph<'a> {
    fn build(files: &'a [GraphFile]) -> Self {
        let mut g = Graph {
            files,
            calls: HashMap::new(),
            indexes: HashMap::new(),
            methods: HashMap::new(),
            frees: HashMap::new(),
            all: HashMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            if !file.in_graph {
                continue;
            }
            for (ni, f) in file.parsed.fns.iter().enumerate() {
                let nid = (fi, ni);
                g.all.entry(&f.name).or_default().push(nid);
                if f.self_ty.is_some() {
                    g.methods.entry(&f.name).or_default().push(nid);
                } else {
                    g.frees.entry(&f.name).or_default().push(nid);
                }
            }
            for (ci, c) in file.parsed.calls.iter().enumerate() {
                if let Some(ni) = file.parsed.fn_at(c.byte) {
                    g.calls.entry((fi, ni)).or_default().push(ci);
                }
            }
            for (ii, s) in file.parsed.indexes.iter().enumerate() {
                if let Some(ni) = file.parsed.fn_at(s.byte) {
                    g.indexes.entry((fi, ni)).or_default().push(ii);
                }
            }
        }
        g
    }

    fn fn_of(&self, nid: Nid) -> &parser::FnItem {
        &self.files[nid.0].parsed.fns[nid.1]
    }

    fn file_of(&self, nid: Nid) -> &GraphFile {
        &self.files[nid.0]
    }

    /// Whether a node is test code (its header sits in a `#[cfg(test)]`
    /// span) — such fns never join reachability or lock analysis.
    fn is_test_fn(&self, nid: Nid) -> bool {
        let file = self.file_of(nid);
        let line = self.fn_of(nid).header_line;
        file.test_regions.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Whether a node participates in traversal at all.
    fn traversable(&self, nid: Nid) -> bool {
        !self.is_test_fn(nid) && !self.fn_of(nid).cold
    }

    /// Resolves one call site in `from` to workspace nodes, keeping only
    /// targets inside the caller's crate-dependency cone. Unknown names
    /// resolve to nothing — they are std/dependency leaves by construction.
    fn resolve(&self, from: Nid, call: &CallSite) -> Vec<Nid> {
        let mut out = self.resolve_by_name(call);
        if let Some(cone) = &self.file_of(from).dep_cone {
            out.retain(|&t| cone.contains(crate_of_rel(&self.file_of(t).rel)));
        }
        out
    }

    fn resolve_by_name(&self, call: &CallSite) -> Vec<Nid> {
        match &call.kind {
            CallKind::Free => self.frees.get(call.name.as_str()).cloned().unwrap_or_default(),
            CallKind::Method { .. } => {
                self.methods.get(call.name.as_str()).cloned().unwrap_or_default()
            }
            CallKind::Path { qual } => {
                let pool = self.all.get(call.name.as_str()).cloned().unwrap_or_default();
                let matched: Vec<Nid> = pool
                    .iter()
                    .copied()
                    .filter(|&n| self.fn_of(n).self_ty.as_deref() == Some(qual.as_str()))
                    .collect();
                if !matched.is_empty() {
                    matched
                } else {
                    // `module::helper(...)` — a free fn behind a module
                    // path; methods without a matching impl target stay
                    // unbound rather than edge to every same-named method.
                    pool.into_iter()
                        .filter(|&n| self.fn_of(n).self_ty.is_none())
                        .collect()
                }
            }
            CallKind::Macro => Vec::new(),
        }
    }
}

/// Runs all graph passes over the prepared files.
pub fn analyze(files: &[GraphFile]) -> GraphReport {
    let g = Graph::build(files);
    let mut violations = Vec::new();

    // ---- Reachability from hot roots ------------------------------------
    let mut roots: Vec<Nid> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !file.in_graph {
            continue;
        }
        for (ni, f) in file.parsed.fns.iter().enumerate() {
            if f.hot && g.traversable((fi, ni)) {
                roots.push((fi, ni));
            }
        }
    }
    roots.sort();

    // parent edge for witness paths: node → (caller, 1-based call line)
    let mut parent: HashMap<Nid, Option<(Nid, usize)>> = HashMap::new();
    let mut queue: VecDeque<Nid> = VecDeque::new();
    for &r in &roots {
        parent.insert(r, None);
        queue.push_back(r);
    }
    while let Some(n) = queue.pop_front() {
        let file = g.file_of(n);
        for &ci in g.calls.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            let call = &file.parsed.calls[ci];
            if file.parsed.in_cold_region(call.line) {
                continue;
            }
            for t in g.resolve(n, call) {
                if g.traversable(t) && !parent.contains_key(&t) {
                    parent.insert(t, Some((n, call.line + 1)));
                    queue.push_back(t);
                }
            }
        }
    }

    // ---- hotpath-no-alloc / hotpath-no-panic over the reached set -------
    let mut reached: Vec<Nid> = parent.keys().copied().collect();
    reached.sort();
    for &n in &reached {
        let file = g.file_of(n);
        let via = witness(&g, &parent, n);
        for &ci in g.calls.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            let call = &file.parsed.calls[ci];
            if file.parsed.in_cold_region(call.line) {
                continue;
            }
            if let Some(what) = alloc_call(call) {
                if !excused(&file.lexed, call.line, &["AUDIT: allow(hotpath-no-alloc)"]) {
                    violations.push(Violation {
                        file: file.rel.clone(),
                        line: call.line + 1,
                        rule: Rule::HotpathNoAlloc,
                        msg: format!(
                            "{what} on the hot path ({via}); move it behind \
                             `// AUDIT: cold` or justify with \
                             `// AUDIT: allow(hotpath-no-alloc) <why>`"
                        ),
                    });
                }
            }
            if let Some(what) = panic_call(call) {
                if !excused(&file.lexed, call.line, &["AUDIT: allow(hotpath-no-panic)"]) {
                    violations.push(Violation {
                        file: file.rel.clone(),
                        line: call.line + 1,
                        rule: Rule::HotpathNoPanic,
                        msg: format!(
                            "{what} on the hot path ({via}); return a typed error \
                             or justify with `// AUDIT: allow(hotpath-no-panic) <why>`"
                        ),
                    });
                }
            }
        }
        for &ii in g.indexes.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            let site = &file.parsed.indexes[ii];
            if file.parsed.in_cold_region(site.line) {
                continue;
            }
            if excused(
                &file.lexed,
                site.line,
                &["INDEX:", "AUDIT: allow(hotpath-no-panic)"],
            ) {
                continue;
            }
            violations.push(Violation {
                file: file.rel.clone(),
                line: site.line + 1,
                rule: Rule::HotpathNoPanic,
                msg: format!(
                    "scalar `[]` indexing on the hot path ({via}) can panic; \
                     add an `// INDEX: <why in bounds>` justification or use \
                     get/range slicing"
                ),
            });
        }
    }

    // ---- lock-order over every library fn -------------------------------
    lock_order(&g, &mut violations);

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let qualify = |n: &Nid| {
        format!("{} ({})", g.fn_of(*n).qualified(), g.file_of(*n).rel)
    };
    GraphReport {
        violations,
        hot_roots: roots.iter().map(|n| g.fn_of(*n).qualified()).collect(),
        hot_reachable: {
            let mut v: Vec<String> = reached.iter().map(|n| g.fn_of(*n).qualified()).collect();
            v.sort();
            v.dedup();
            let _ = qualify;
            v
        },
    }
}

/// `root -> … -> fn` witness string for reports (truncated to 4 hops).
fn witness(g: &Graph<'_>, parent: &HashMap<Nid, Option<(Nid, usize)>>, n: Nid) -> String {
    let mut chain = vec![g.fn_of(n).qualified()];
    let mut cur = n;
    while let Some(Some((p, _))) = parent.get(&cur) {
        chain.push(g.fn_of(*p).qualified());
        cur = *p;
        if chain.len() > 8 {
            break;
        }
    }
    chain.reverse();
    if chain.len() > 4 {
        let skipped = chain.len() - 4;
        let head = chain[0].clone();
        let tail = chain[chain.len() - 3..].join(" -> ");
        format!("reachable via {head} -> …{skipped} more… -> {tail}")
    } else {
        format!("reachable via {}", chain.join(" -> "))
    }
}

/// Method names that allocate on any owned container. Over-approximate by
/// design: `.clone()` on a `Range` is cheap, but the rule asks you to say
/// so at the site rather than trust the reader to know the type.
const ALLOC_METHODS: &[&str] = &[
    "to_vec", "to_owned", "to_string", "clone", "push", "push_str", "reserve",
    "extend", "append", "insert", "collect", "repeat", "join", "into_boxed_slice",
];

/// `Qual::name` constructors that allocate.
const ALLOC_PATH_QUALS: &[&str] = &[
    "Box", "Vec", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
    "Arc", "Rc",
];
const ALLOC_PATH_FNS: &[&str] = &["new", "with_capacity", "from", "from_iter"];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Classifies an allocating call; `None` when benign.
fn alloc_call(call: &CallSite) -> Option<String> {
    match &call.kind {
        CallKind::Method { .. } => {
            if ALLOC_METHODS.contains(&call.name.as_str()) {
                Some(format!("allocating call `.{}()`", call.name))
            } else {
                None
            }
        }
        CallKind::Path { qual } => {
            // `Arc::clone` / `Rc::clone` are refcount bumps, not allocs.
            if call.name == "clone" && (qual == "Arc" || qual == "Rc") {
                return None;
            }
            if ALLOC_PATH_QUALS.contains(&qual.as_str())
                && ALLOC_PATH_FNS.contains(&call.name.as_str())
            {
                Some(format!("allocating call `{qual}::{}`", call.name))
            } else {
                None
            }
        }
        CallKind::Macro => {
            if ALLOC_MACROS.contains(&call.name.as_str()) {
                Some(format!("allocating macro `{}!`", call.name))
            } else {
                None
            }
        }
        CallKind::Free => None,
    }
}

/// Macros that unwind. `debug_assert*` stays permitted: the workspace CI
/// builds hot-path tests with debug assertions on, and release builds
/// compile them out.
const PANIC_MACROS: &[&str] = &[
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Classifies a panicking call; `None` when benign.
fn panic_call(call: &CallSite) -> Option<String> {
    match &call.kind {
        CallKind::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
            Some(format!("panicking macro `{}!`", call.name))
        }
        CallKind::Method { .. } if PANIC_METHODS.contains(&call.name.as_str()) => {
            Some(format!("panicking call `.{}()`", call.name))
        }
        _ => None,
    }
}

/// `tags` found in the comment on the site's line or in the contiguous
/// comment/attribute block above (same adjacency discipline as `// SAFETY:`).
fn excused(lexed: &Lexed, line: usize, tags: &[&str]) -> bool {
    let hit = |l: usize| {
        let c = lexed.comment_line(l);
        tags.iter().any(|t| c.contains(t))
    };
    if hit(line) {
        return true;
    }
    let mut l = line;
    let mut budget = 8usize;
    while l > 0 && budget > 0 {
        l -= 1;
        budget -= 1;
        if hit(l) {
            return true;
        }
        let code = lexed.code_line(l).trim().to_owned();
        if code.is_empty() || code.starts_with("#[") || code.starts_with("#![") {
            continue;
        }
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            return false;
        }
    }
    false
}

/// One lock acquisition inside a function body.
struct LockSite {
    /// Heuristic lock identity (receiver field name, shim argument, or
    /// producer fn name) — see DESIGN.md §17 for the caveats.
    id: String,
    byte: usize,
    line: usize,
    /// Hold span: acquisition byte to the end of the enclosing block. An
    /// over-approximation for temporaries, exact for `let`-bound guards.
    until: usize,
}

/// The lock-order pass. Lock identity is textual; ordered pairs are
/// collected per function (direct site → direct site, and direct site →
/// transitive acquisitions of calls made while held), then any identity
/// pair observed in both orders anywhere in the workspace is flagged once.
fn lock_order(g: &Graph<'_>, out: &mut Vec<Violation>) {
    // Shims: workspace free fns named `lock` / `lock_unpoisoned` that
    // adapt `Mutex::lock` (poison recovery). Their internal `.lock()` on a
    // parameter would alias every caller's lock to one name, so the shim's
    // own sites are skipped and each *call* to it counts as an acquisition
    // of its argument.
    let shim_name = |n: &str| n == "lock" || n == "lock_unpoisoned";
    let is_shim = |nid: Nid| {
        let f = g.fn_of(nid);
        shim_name(&f.name) && f.self_ty.is_none()
    };

    // Lock propagation resolves calls more tightly than reachability does:
    // a method name shared by several unrelated types (`get`, `len`,
    // `wait`, `clear`, …) would alias their lock sets together and
    // manufacture phantom inversions, so ambiguous method edges and
    // self-recursion are dropped here. Reachability keeps the full
    // over-approximation — a spurious "hot" edge only widens scrutiny,
    // while a spurious lock chain fails the build. Ambiguity is decided
    // before the caller is dropped: inside one of two same-named methods,
    // a call by that name (often a std method on a field, `self.data.len()`)
    // must not bind to the other one.
    let lock_edges = |nid: Nid, call: &CallSite| -> Vec<Nid> {
        let mut ts = g.resolve(nid, call);
        if matches!(call.kind, CallKind::Method { .. }) && ts.len() > 1 {
            return Vec::new();
        }
        ts.retain(|&t| t != nid);
        ts
    };

    // Direct acquisition sites per node.
    let mut sites: HashMap<Nid, Vec<LockSite>> = HashMap::new();
    for (fi, file) in g.files.iter().enumerate() {
        if !file.in_graph {
            continue;
        }
        let bytes = file.lexed.scrubbed.as_bytes();
        for (ni, _) in file.parsed.fns.iter().enumerate() {
            let nid = (fi, ni);
            if !g.traversable(nid) || is_shim(nid) {
                continue;
            }
            let mut v = Vec::new();
            for &ci in g.calls.get(&nid).map(Vec::as_slice).unwrap_or(&[]) {
                let call = &file.parsed.calls[ci];
                if excused(&file.lexed, call.line, &["AUDIT: allow(lock-order)"]) {
                    continue;
                }
                let id = match &call.kind {
                    CallKind::Method { recv } if call.name == "lock" => recv.clone(),
                    CallKind::Free | CallKind::Path { .. } if shim_name(&call.name) => {
                        // Only calls that bind to a workspace shim count.
                        if g.resolve(nid, call).iter().any(|&t| is_shim(t)) {
                            first_arg_ident(bytes, call.byte + call.name.len())
                        } else {
                            String::new()
                        }
                    }
                    _ => String::new(),
                };
                if id.is_empty() {
                    continue;
                }
                let until = parser::enclosing_open_brace(bytes, call.byte)
                    .map(|open| parser::match_brace(bytes, open))
                    .unwrap_or(bytes.len());
                v.push(LockSite {
                    id,
                    byte: call.byte,
                    line: call.line,
                    until,
                });
            }
            if !v.is_empty() {
                sites.insert(nid, v);
            }
        }
    }

    // Transitive acquired-id sets to a fixpoint (cycle-safe: sets only grow).
    let mut acquires: HashMap<Nid, BTreeSet<String>> = HashMap::new();
    for (nid, v) in &sites {
        acquires.insert(*nid, v.iter().map(|s| s.id.clone()).collect());
    }
    loop {
        let mut changed = false;
        for (fi, file) in g.files.iter().enumerate() {
            if !file.in_graph {
                continue;
            }
            for (ni, _) in file.parsed.fns.iter().enumerate() {
                let nid = (fi, ni);
                if !g.traversable(nid) {
                    continue;
                }
                let mut add: BTreeSet<String> = BTreeSet::new();
                for &ci in g.calls.get(&nid).map(Vec::as_slice).unwrap_or(&[]) {
                    let call = &file.parsed.calls[ci];
                    for t in lock_edges(nid, call) {
                        if let Some(set) = acquires.get(&t) {
                            add.extend(set.iter().cloned());
                        }
                    }
                }
                if add.is_empty() {
                    continue;
                }
                let entry = acquires.entry(nid).or_default();
                let before = entry.len();
                entry.extend(add);
                if entry.len() != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Ordered pairs with a representative site for the report.
    let mut pairs: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    for (nid, v) in &sites {
        let file = g.file_of(*nid);
        let fn_name = g.fn_of(*nid).qualified();
        for a in v {
            // Direct: another lock taken while `a` is held.
            for b in v {
                if b.byte > a.byte && b.byte <= a.until && a.id != b.id {
                    pairs
                        .entry((a.id.clone(), b.id.clone()))
                        .or_insert_with(|| (file.rel.clone(), a.line + 1, fn_name.clone()));
                }
            }
            // Transitive: a call made while `a` is held acquires callee locks.
            for &ci in g.calls.get(nid).map(Vec::as_slice).unwrap_or(&[]) {
                let call = &file.parsed.calls[ci];
                if call.byte <= a.byte || call.byte > a.until {
                    continue;
                }
                for t in lock_edges(*nid, call) {
                    if let Some(set) = acquires.get(&t) {
                        for id in set {
                            if *id != a.id {
                                pairs.entry((a.id.clone(), id.clone())).or_insert_with(|| {
                                    (file.rel.clone(), a.line + 1, fn_name.clone())
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Both orders present → one violation per unordered pair.
    let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (file, line, fn_name)) in &pairs {
        let rev = (b.clone(), a.clone());
        if !pairs.contains_key(&rev) {
            continue;
        }
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if !flagged.insert(key) {
            continue;
        }
        let (rfile, rline, rfn) = &pairs[&rev];
        out.push(Violation {
            file: file.clone(),
            line: *line,
            rule: Rule::LockOrder,
            msg: format!(
                "locks `{a}` then `{b}` acquired here (in {fn_name}) but in the \
                 opposite order at {rfile}:{rline} (in {rfn}); pick one order or \
                 justify with `// AUDIT: allow(lock-order) <why>`"
            ),
        });
    }
}

/// Last identifier of a call's first argument — the lock a `lock(&…)` shim
/// call acquires. `lock(&self.inner.queue)` → `queue`.
fn first_arg_ident(bytes: &[u8], after_name: usize) -> String {
    let mut j = after_name;
    while j < bytes.len() && bytes[j] != b'(' {
        if bytes[j] == b';' || bytes[j] == b'\n' {
            return String::new();
        }
        j += 1;
    }
    let mut depth = 0usize;
    let mut end = j;
    while end < bytes.len() {
        match bytes[end] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b',' if depth == 1 => break,
            _ => {}
        }
        end += 1;
    }
    let arg = &bytes[j + 1..end.min(bytes.len())];
    // Last identifier in the argument text.
    let mut last = String::new();
    let mut k = 0usize;
    while k < arg.len() {
        if arg[k].is_ascii_alphabetic() || arg[k] == b'_' {
            let s = k;
            while k < arg.len() && (arg[k].is_ascii_alphanumeric() || arg[k] == b'_') {
                k += 1;
            }
            let ident = String::from_utf8_lossy(&arg[s..k]).into_owned();
            if ident != "self" && ident != "Self" && ident != "mut" && ident != "ref" {
                last = ident;
            }
        } else {
            k += 1;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> GraphFile {
        let lexed = lex(src);
        let parsed = parser::parse(&lexed);
        GraphFile {
            rel: rel.to_owned(),
            test_regions: crate::rules::test_regions(&lexed),
            lexed,
            parsed,
            in_graph: true,
            dep_cone: None,
        }
    }

    #[test]
    fn reachability_crosses_files_and_impls() {
        let a = file(
            "crates/a/src/lib.rs",
            "pub struct Plan;\nimpl Plan {\n    // AUDIT: hotpath\n    pub fn execute(&self) { helper(); }\n}\nfn helper() { crate::b::leafy(); }\n",
        );
        let b = file("crates/b/src/lib.rs", "pub fn leafy() {}\n");
        let r = analyze(&[a, b]);
        assert_eq!(r.hot_roots, vec!["Plan::execute"]);
        assert!(r.hot_reachable.contains(&"helper".to_owned()));
        assert!(r.hot_reachable.contains(&"leafy".to_owned()));
    }

    #[test]
    fn alloc_in_reachable_fn_is_flagged_and_cold_region_excuses() {
        let a = file(
            "crates/a/src/lib.rs",
            "// AUDIT: hotpath\npub fn run(v: &mut Vec<u32>) {\n    v.push(1);\n    if v.is_empty() {\n        // AUDIT: cold — refill path, once per epoch.\n        v.reserve(64);\n    }\n}\n",
        );
        let r = analyze(&[a]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::HotpathNoAlloc);
        assert_eq!(r.violations[0].line, 3);
    }

    #[test]
    fn unwrap_and_panic_reachable_are_flagged() {
        let a = file(
            "crates/a/src/lib.rs",
            "// AUDIT: hotpath\npub fn run(x: Option<u32>) -> u32 {\n    deep(x)\n}\nfn deep(x: Option<u32>) -> u32 {\n    if x.is_none() { panic!(\"boom\") }\n    x.unwrap()\n}\n",
        );
        let r = analyze(&[a]);
        let rules: Vec<_> = r.violations.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(Rule::HotpathNoPanic, 6)), "{rules:?}");
        assert!(rules.contains(&(Rule::HotpathNoPanic, 7)), "{rules:?}");
    }

    #[test]
    fn index_needs_justification_ranges_do_not() {
        let a = file(
            "crates/a/src/lib.rs",
            "// AUDIT: hotpath\npub fn run(v: &[u32], i: usize) -> u32 {\n    let s = &v[..4];\n    // INDEX: i < len checked by the planner.\n    let a = s[i];\n    v[i + 1]\n}\n",
        );
        let r = analyze(&[a]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 6);
        assert_eq!(r.violations[0].rule, Rule::HotpathNoPanic);
    }

    #[test]
    fn cold_fn_annotation_prunes_the_subtree() {
        let a = file(
            "crates/a/src/lib.rs",
            "// AUDIT: hotpath\npub fn run() { fallback(); }\n// AUDIT: cold — error path only.\nfn fallback() { let mut v = Vec::new(); v.push(1); }\n",
        );
        let r = analyze(&[a]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(!r.hot_reachable.contains(&"fallback".to_owned()));
    }

    #[test]
    fn lock_inversion_across_functions_is_flagged() {
        let a = file(
            "crates/a/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { q: Mutex<u32>, r: Mutex<u32> }\nimpl S {\n    pub fn fwd(&self) {\n        let _a = self.q.lock();\n        let _b = self.r.lock();\n    }\n    pub fn rev(&self) {\n        let _b = self.r.lock();\n        let _a = self.q.lock();\n    }\n}\n",
        );
        let r = analyze(&[a]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::LockOrder);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let a = file(
            "crates/a/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { q: Mutex<u32>, r: Mutex<u32> }\nimpl S {\n    pub fn one(&self) {\n        let _a = self.q.lock();\n        let _b = self.r.lock();\n    }\n    pub fn two(&self) {\n        let _a = self.q.lock();\n        let _b = self.r.lock();\n    }\n}\n",
        );
        let r = analyze(&[a]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn lock_inversion_through_a_callee_is_flagged() {
        let a = file(
            "crates/a/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { q: Mutex<u32>, r: Mutex<u32> }\nimpl S {\n    pub fn fwd(&self) {\n        let _a = self.q.lock();\n        self.take_r();\n    }\n    fn take_r(&self) {\n        let _b = self.r.lock();\n    }\n    pub fn rev(&self) {\n        let _b = self.r.lock();\n        let _a = self.q.lock();\n    }\n}\n",
        );
        let r = analyze(&[a]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::LockOrder);
    }

    #[test]
    fn same_named_method_inside_its_twin_is_ambiguous_not_an_edge() {
        // `Buf::len`'s `self.data.len()` is a `Vec` call; binding it to
        // `Reg::len` (the one other workspace `len`) would make `clear`,
        // which holds `b` and calls `Buf::len`, acquire `a` after `b` — a
        // phantom inversion with `Reg::len`'s `a` then `b`. The real
        // inversion between `p` and `q`, through a uniquely named method,
        // must still be flagged.
        let a = file(
            "crates/a/src/lib.rs",
            "use std::sync::Mutex;
pub struct Buf { data: Vec<u32> }
impl Buf {
    pub fn len(&self) -> usize { self.data.len() }
}
pub struct Reg { a: Mutex<u32>, b: Mutex<u32>, p: Mutex<u32>, q: Mutex<u32> }
impl Reg {
    pub fn len(&self) -> usize {
        let _a = self.a.lock();
        let _b = self.b.lock();
        0
    }
    pub fn clear(&self, buf: &Buf) -> usize {
        let _b = self.b.lock();
        Buf::len(buf)
    }
    pub fn fwd(&self) {
        let _p = self.p.lock();
        self.take_q();
    }
    fn take_q(&self) {
        let _q = self.q.lock();
    }
    pub fn rev(&self) {
        let _q = self.q.lock();
        let _p = self.p.lock();
    }
}
",
        );
        let r = analyze(&[a]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::LockOrder);
        let msg = &r.violations[0].msg;
        assert!(msg.contains("`p`") && msg.contains("`q`"), "{msg}");
    }

    #[test]
    fn shim_calls_use_the_argument_identity() {
        let a = file(
            "crates/a/src/lib.rs",
            "use std::sync::{Mutex, MutexGuard};\nfn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n    m.lock().unwrap_or_else(|p| p.into_inner())\n}\npub struct S { q: Mutex<u32>, r: Mutex<u32> }\nimpl S {\n    pub fn fwd(&self) {\n        let _a = lock(&self.q);\n        let _b = lock(&self.r);\n    }\n    pub fn rev(&self) {\n        let _b = lock(&self.r);\n        let _a = lock(&self.q);\n    }\n}\n",
        );
        let r = analyze(&[a]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::LockOrder);
        assert!(r.violations[0].msg.contains('q') && r.violations[0].msg.contains('r'));
    }

    #[test]
    fn test_fns_never_join_the_graph() {
        let a = file(
            "crates/a/src/lib.rs",
            "// AUDIT: hotpath\npub fn run() {}\n#[cfg(test)]\nmod tests {\n    // AUDIT: hotpath\n    fn fake_root() { let mut v = Vec::new(); v.push(1); }\n    #[test]\n    fn t() { fake_root(); super::run(); }\n}\n",
        );
        let r = analyze(&[a]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(!r.hot_reachable.contains(&"fake_root".to_owned()));
    }

    #[test]
    fn macro_bodies_do_not_create_false_edges() {
        // macro_rules! bodies mention identifiers that look like calls;
        // the extractor sees them, but resolution binds only to real fns,
        // and an unreachable mention must not mark `secret` hot.
        let a = file(
            "crates/a/src/lib.rs",
            "macro_rules! m { ($x:expr) => { other_name($x) }; }\n// AUDIT: hotpath\npub fn run() { let _ = 1; }\nfn secret(v: &mut Vec<u32>) { v.push(1); }\n",
        );
        let r = analyze(&[a]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(!r.hot_reachable.contains(&"secret".to_owned()));
    }
}
