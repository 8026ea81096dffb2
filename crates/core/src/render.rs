//! Structural renderings of the architecture (the paper's Figs. 1 and 4).
//!
//! [`grid_dot`] emits Graphviz for a VCGRA fragment — PEs, VSBs and their
//! settings registers, like Fig. 1. [`pe_dot`] draws the fully
//! parameterized PE of Fig. 4 (settings register, BLE groups, TCON ring).
//! [`grid_ascii`] renders a mapped application as a text diagram for
//! terminal output.

use crate::app::AppGraph;
use crate::flow::VcgraMapping;
use crate::grid::VcgraArch;
use crate::pe::PeMode;

/// Graphviz rendering of the VCGRA grid (Fig. 1 style): PEs as boxes, VSBs
/// as diamonds, settings registers as small rectangles.
pub fn grid_dot(arch: &VcgraArch) -> String {
    let mut s = String::from("digraph vcgra {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
    for r in 0..arch.rows {
        for c in 0..arch.cols {
            s.push_str(&format!(
                "  pe_{r}_{c} [shape=box, style=filled, fillcolor=lightblue, \
                 label=\"PE({r},{c})\\nsettings reg\"];\n"
            ));
        }
    }
    for r in 0..arch.rows - 1 {
        for c in 0..arch.cols - 1 {
            s.push_str(&format!(
                "  vsb_{r}_{c} [shape=diamond, style=filled, fillcolor=khaki, \
                 label=\"VSB\\nsettings reg\"];\n"
            ));
            // VSB connects the four surrounding PEs.
            for (pr, pc) in [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)] {
                s.push_str(&format!(
                    "  pe_{pr}_{pc} -> vsb_{r}_{c} [dir=both, color=gray40];\n"
                ));
            }
        }
    }
    s.push_str("}\n");
    s
}

/// Graphviz rendering of the fully parameterized PE (Fig. 4 style).
pub fn pe_dot() -> String {
    let mut s = String::from("digraph pe {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n");
    s.push_str(
        "  settings [shape=record, style=filled, fillcolor=lightgrey, \
         label=\"settings register|coeff|route selects|counter\"];\n",
    );
    for (i, ble) in [
        "BLE group (mul)",
        "BLE group (mul)",
        "BLE group (add)",
        "BLE group (add)",
    ]
    .iter()
    .enumerate()
    {
        s.push_str(&format!(
            "  ble{i} [shape=box, style=filled, fillcolor=lightblue, label=\"{ble}\\n(TLUTs)\"];\n"
        ));
    }
    for i in 0..8 {
        s.push_str(&format!(
            "  tcon{i} [shape=circle, style=filled, fillcolor=khaki, label=\"TCON\"];\n"
        ));
    }
    // TCON ring connecting the BLE groups, as in Fig. 4.
    for i in 0..8 {
        s.push_str(&format!(
            "  tcon{} -> tcon{} [color=gray40];\n",
            i,
            (i + 1) % 8
        ));
    }
    for i in 0..4 {
        s.push_str(&format!("  tcon{} -> ble{} [dir=both];\n", 2 * i, i));
    }
    s.push_str("  settings -> tcon0 [style=dashed, label=\"config\"];\n");
    s.push_str("}\n");
    s
}

/// ASCII rendering of `app` as `mapping` places it on the grid: each used
/// PE shows its node's mode.
pub fn grid_ascii(mapping: &VcgraMapping, app: &AppGraph) -> String {
    let arch = &mapping.arch;
    let mut mode = vec![None; arch.pe_count()];
    for (node, &(r, c)) in app.nodes.iter().zip(&mapping.place) {
        mode[r * arch.cols + c] = Some(node.op);
    }
    let mut s = String::new();
    for r in 0..arch.rows {
        // PE row.
        for c in 0..arch.cols {
            let tag = match mode[r * arch.cols + c] {
                Some(PeMode::Mac) => "MAC",
                Some(PeMode::Mul) => "MUL",
                Some(PeMode::Add) => "ADD",
                Some(PeMode::Pass) => "PAS",
                None => " . ",
            };
            s.push_str(&format!("[{tag}]"));
            if c + 1 < arch.cols {
                s.push_str("--");
            }
        }
        s.push('\n');
        if r + 1 < arch.rows {
            for c in 0..arch.cols {
                s.push_str("  |  ");
                if c + 1 < arch.cols {
                    s.push_str("  ");
                }
            }
            s.push('\n');
        }
    }
    s.push_str(&format!(
        "PEs used: {}/{}  virtual WL: {} segments\n",
        mapping.place.len(),
        arch.pe_count(),
        mapping.virtual_wirelength
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppGraph;
    use softfloat::FpFormat;

    #[test]
    fn grid_dot_contains_all_components() {
        let arch = VcgraArch::paper_4x4();
        let dot = grid_dot(&arch);
        assert_eq!(dot.matches("shape=box").count(), 16, "16 PEs");
        assert_eq!(dot.matches("shape=diamond").count(), 9, "9 VSBs");
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn pe_dot_shows_fig4_structure() {
        let dot = pe_dot();
        assert_eq!(dot.matches("TCON").count(), 8, "Fig. 4 shows 8 TCON boxes");
        assert_eq!(dot.matches("BLE group").count(), 4);
        assert!(dot.contains("settings register"));
    }

    #[test]
    fn ascii_render_is_complete() {
        let app = AppGraph::dot_product(FpFormat::PAPER, &[1.0, 2.0, 3.0]);
        let m = crate::flow::map_app(&app, VcgraArch::paper_4x4(), 1).unwrap();
        let a = grid_ascii(&m, &app);
        assert_eq!(a.matches('[').count(), 16, "all 16 cells rendered");
        assert!(a.contains("MUL") && a.contains("ADD"));
        assert!(a.contains("virtual WL"));
    }
}
