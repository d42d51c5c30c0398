//! Clang-AST-shaped document (dataset **A** of Table 3): deep (≈100
//! levels) and highly irregular — the code-as-data scenario of §1.2.
//!
//! Recursive `inner` arrays nest AST nodes inside each other, which makes
//! query A2 (`$..inner..inner..type.qualType`) highly ambiguous and grows
//! the depth-stack (§5.6 calls this the hardest known case). Nodes with a
//! `decl` member are very rare (query A1, 35 matches on 25.6 MB), and
//! `loc.includedFrom.file` is uncommon (query A3).

use super::super::words::{close, hex_id, key, kv_raw, kv_str, sentence, word};
use rand::rngs::StdRng;
use rand::Rng;

const KINDS: [&str; 12] = [
    "TranslationUnitDecl",
    "FunctionDecl",
    "CompoundStmt",
    "DeclStmt",
    "VarDecl",
    "BinaryOperator",
    "ImplicitCastExpr",
    "DeclRefExpr",
    "CallExpr",
    "IntegerLiteral",
    "IfStmt",
    "ReturnStmt",
];

pub(crate) fn generate(out: &mut String, rng: &mut StdRng, target_bytes: usize) {
    // Iterative generation with an explicit stack of "children remaining"
    // so the document depth (≈100) never stresses the generator's own
    // stack and the byte budget is respected mid-tree.
    out.push('{');
    node_header(out, rng, 0);
    key(out, "inner");
    out.push('[');
    // Stack of remaining-sibling counts at each open level.
    let mut stack: Vec<u32> = vec![u32::MAX]; // root's inner: grow until budget
    let mut first_at_level = true;

    while !stack.is_empty() {
        let budget_left = out.len() < target_bytes;
        #[expect(
            clippy::expect_used,
            reason = "the loop runs while the stack is non-empty"
        )]
        let remaining = *stack.last().expect("loop guard");
        if remaining == 0 || (!budget_left && stack.len() == 1) {
            // Close this inner array and its node.
            stack.pop();
            out.push(']');
            out.push('}');
            first_at_level = false;
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop runs while the stack is non-empty"
        )]
        let left = stack.last_mut().expect("loop guard");
        *left -= 1;
        if !first_at_level {
            out.push(',');
        }
        first_at_level = false;

        out.push('{');
        node_header(out, rng, stack.len());
        // Decide whether this node has children; bias towards deep chains
        // (the AST's depth comes from nested expressions).
        let depth = stack.len();
        let want_children = budget_left
            && depth < 96
            && (depth < 8 || rng.gen_bool(if depth < 40 { 0.55 } else { 0.35 }));
        if want_children {
            key(out, "inner");
            out.push('[');
            let kids = if rng.gen_bool(0.7) {
                1
            } else {
                rng.gen_range(2..5)
            };
            stack.push(kids);
            first_at_level = true;
        } else {
            close(out, '}');
        }
    }
    // `stack` drained: the root's brace was closed by the loop's pop.
}

fn node_header(out: &mut String, rng: &mut StdRng, depth: usize) {
    kv_str(out, "id", &hex_id(rng));
    kv_str(out, "kind", KINDS[rng.gen_range(0..KINDS.len())]);

    key(out, "range");
    out.push('{');
    key(out, "begin");
    offset(out, rng);
    out.push(',');
    key(out, "end");
    offset(out, rng);
    close(out, '}');
    out.push(',');

    if rng.gen_bool(0.5) {
        key(out, "loc");
        out.push('{');
        kv_raw(out, "offset", rng.gen_range(0..900_000));
        kv_raw(out, "line", rng.gen_range(1..23_000));
        kv_raw(out, "col", rng.gen_range(1..120));
        if rng.gen_range(0..450) == 0 {
            key(out, "includedFrom");
            out.push('{');
            kv_str(out, "file", &format!("/usr/include/{}.h", word(rng)));
            close(out, '}');
            out.push(',');
        }
        close(out, '}');
        out.push(',');
    }

    if rng.gen_bool(0.4) {
        key(out, "type");
        out.push('{');
        kv_str(
            out,
            "qualType",
            TYPE_NAMES[rng.gen_range(0..TYPE_NAMES.len())],
        );
        close(out, '}');
        out.push(',');
    }

    if rng.gen_bool(0.25) {
        kv_str(
            out,
            "name",
            &format!("{}_{}", word(rng), rng.gen_range(0..999)),
        );
    }

    // The A1 needle: a rare `decl` reference object with a `name`.
    if depth > 0 && rng.gen_range(0..9_000) == 0 {
        key(out, "decl");
        out.push('{');
        kv_str(out, "id", &hex_id(rng));
        kv_str(
            out,
            "name",
            &format!("{}_{}", word(rng), rng.gen_range(0..999)),
        );
        close(out, '}');
        out.push(',');
    }

    if rng.gen_bool(0.3) {
        kv_str(out, "valueCategory", "prvalue");
    }
    if rng.gen_bool(0.2) {
        kv_str(out, "castKind", "LValueToRValue");
    }
    kv_str(out, "spelling", &sentence(rng, 1));
}

const TYPE_NAMES: [&str; 8] = [
    "int",
    "char *",
    "unsigned long",
    "void (int, char **)",
    "struct buffer *",
    "const char *",
    "double",
    "size_t",
];

fn offset(out: &mut String, rng: &mut StdRng) {
    out.push('{');
    kv_raw(out, "offset", rng.gen_range(0..900_000));
    kv_raw(out, "col", rng.gen_range(1..120));
    kv_raw(out, "tokLen", rng.gen_range(1..12));
    close(out, '}');
}
