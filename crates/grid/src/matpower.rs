//! MATPOWER `.m` case file parsing and writing.
//!
//! Supports the standard `mpc.baseMVA`, `mpc.bus`, `mpc.gen`, `mpc.branch`,
//! and `mpc.gencost` matrices. Piecewise-linear cost models (MODEL = 1) are
//! converted to a quadratic least-squares fit; polynomial models (MODEL = 2)
//! of degree ≤ 2 are taken as-is and higher degrees are truncated to their
//! quadratic part. This is enough to load the pegase / ACTIVSg cases the
//! paper evaluates on when the files are available locally.

use crate::branch::Branch;
use crate::bus::{Bus, BusType};
use crate::error::GridError;
use crate::generator::{GenCost, Generator};
use crate::network::Case;
use std::path::Path;

/// Parse a MATPOWER case from a file path.
pub fn read_case(path: &Path) -> Result<Case, GridError> {
    let text = std::fs::read_to_string(path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "case".to_string());
    parse_case(&text, &name)
}

/// Parse a MATPOWER case from in-memory text.
pub fn parse_case(text: &str, name: &str) -> Result<Case, GridError> {
    let base_mva = parse_scalar(text, "baseMVA")?.unwrap_or(100.0);
    let bus_rows = parse_matrix(text, "bus")?
        .ok_or_else(|| GridError::Invalid("missing mpc.bus matrix".into()))?;
    let gen_rows = parse_matrix(text, "gen")?
        .ok_or_else(|| GridError::Invalid("missing mpc.gen matrix".into()))?;
    let branch_rows = parse_matrix(text, "branch")?
        .ok_or_else(|| GridError::Invalid("missing mpc.branch matrix".into()))?;
    let gencost_rows = parse_matrix(text, "gencost")?.unwrap_or_default();

    let mut buses = Vec::with_capacity(bus_rows.len());
    for (i, row) in bus_rows.iter().enumerate() {
        if row.len() < 13 {
            return Err(GridError::Parse {
                line: i + 1,
                message: format!("bus row has {} columns, expected >= 13", row.len()),
            });
        }
        buses.push(Bus {
            id: row[0] as usize,
            bus_type: BusType::from_code(row[1] as i64),
            pd: row[2],
            qd: row[3],
            gs: row[4],
            bs: row[5],
            area: row[6] as usize,
            vm: row[7],
            va: row[8],
            base_kv: row[9],
            zone: row[10] as usize,
            vmax: row[11],
            vmin: row[12],
        });
    }

    let mut generators = Vec::with_capacity(gen_rows.len());
    for (i, row) in gen_rows.iter().enumerate() {
        if row.len() < 10 {
            return Err(GridError::Parse {
                line: i + 1,
                message: format!("gen row has {} columns, expected >= 10", row.len()),
            });
        }
        let cost = gencost_rows
            .get(i)
            .map(|r| parse_gencost(r))
            .transpose()?
            .unwrap_or_default();
        generators.push(Generator {
            bus: row[0] as usize,
            pg: row[1],
            qg: row[2],
            qmax: row[3],
            qmin: row[4],
            vg: row[5],
            mbase: row[6],
            status: row[7] > 0.0,
            pmax: row[8],
            pmin: row[9],
            cost,
        });
    }

    let mut branches = Vec::with_capacity(branch_rows.len());
    for (i, row) in branch_rows.iter().enumerate() {
        if row.len() < 11 {
            return Err(GridError::Parse {
                line: i + 1,
                message: format!("branch row has {} columns, expected >= 11", row.len()),
            });
        }
        branches.push(Branch {
            from: row[0] as usize,
            to: row[1] as usize,
            r: row[2],
            x: row[3],
            b: row[4],
            rate_a: row[5],
            tap: row[8],
            shift: row[9],
            status: row[10] > 0.0,
            angmin: row.get(11).copied().unwrap_or(-360.0),
            angmax: row.get(12).copied().unwrap_or(360.0),
        });
    }

    Ok(Case {
        name: name.to_string(),
        base_mva,
        buses,
        generators,
        branches,
    })
}

/// Serialize a case back to MATPOWER `.m` format.
pub fn write_case(case: &Case) -> String {
    let mut out = String::new();
    out.push_str(&format!("function mpc = {}\n", case.name));
    out.push_str("mpc.version = '2';\n");
    out.push_str(&format!("mpc.baseMVA = {};\n\n", case.base_mva));

    out.push_str("%% bus data\nmpc.bus = [\n");
    for b in &case.buses {
        out.push_str(&format!(
            "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{};\n",
            b.id,
            b.bus_type.to_code(),
            b.pd,
            b.qd,
            b.gs,
            b.bs,
            b.area,
            b.vm,
            b.va,
            b.base_kv,
            b.zone,
            b.vmax,
            b.vmin
        ));
    }
    out.push_str("];\n\n%% generator data\nmpc.gen = [\n");
    for g in &case.generators {
        out.push_str(&format!(
            "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;\n",
            g.bus,
            g.pg,
            g.qg,
            g.qmax,
            g.qmin,
            g.vg,
            g.mbase,
            if g.status { 1 } else { 0 },
            g.pmax,
            g.pmin
        ));
    }
    out.push_str("];\n\n%% branch data\nmpc.branch = [\n");
    for br in &case.branches {
        out.push_str(&format!(
            "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{};\n",
            br.from,
            br.to,
            br.r,
            br.x,
            br.b,
            br.rate_a,
            br.rate_a,
            br.rate_a,
            br.tap,
            br.shift,
            if br.status { 1 } else { 0 },
            br.angmin,
            br.angmax
        ));
    }
    out.push_str("];\n\n%% generator cost data\nmpc.gencost = [\n");
    for g in &case.generators {
        out.push_str(&format!(
            "\t2\t0\t0\t3\t{}\t{}\t{};\n",
            g.cost.c2, g.cost.c1, g.cost.c0
        ));
    }
    out.push_str("];\n");
    out
}

/// Convert a MATPOWER gencost row to a quadratic [`GenCost`].
fn parse_gencost(row: &[f64]) -> Result<GenCost, GridError> {
    if row.len() < 4 {
        return Err(GridError::Invalid("gencost row too short".into()));
    }
    let model = row[0] as i64;
    let n = row[3] as usize;
    let coeffs = &row[4..];
    match model {
        2 => {
            // Polynomial: coefficients from highest degree to constant.
            if coeffs.len() < n {
                return Err(GridError::Invalid("gencost polynomial truncated".into()));
            }
            let poly = &coeffs[..n];
            // Take the quadratic, linear and constant parts (highest-order
            // terms beyond quadratic are dropped; they are rare in practice).
            let c0 = poly.last().copied().unwrap_or(0.0);
            let c1 = if n >= 2 { poly[n - 2] } else { 0.0 };
            let c2 = if n >= 3 { poly[n - 3] } else { 0.0 };
            Ok(GenCost { c2, c1, c0 })
        }
        1 => {
            // Piecewise linear: (p_1, c_1, ..., p_n, c_n). Least-squares fit
            // of a quadratic through the breakpoints.
            if n < 2 || n > coeffs.len() / 2 {
                return Err(GridError::Invalid(
                    "piecewise cost needs >= 2 points".into(),
                ));
            }
            let pts: Vec<(f64, f64)> = (0..n).map(|k| (coeffs[2 * k], coeffs[2 * k + 1])).collect();
            Ok(fit_quadratic(&pts))
        }
        other => Err(GridError::Invalid(format!("unknown cost model {other}"))),
    }
}

/// Least-squares quadratic fit through `(p, cost)` points via the 3x3 normal
/// equations (falls back to a linear fit when the system is singular).
fn fit_quadratic(pts: &[(f64, f64)]) -> GenCost {
    let n = pts.len() as f64;
    let (mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0);
    let (mut t0, mut t1, mut t2) = (0.0, 0.0, 0.0);
    for &(p, c) in pts {
        s1 += p;
        s2 += p * p;
        s3 += p * p * p;
        s4 += p * p * p * p;
        t0 += c;
        t1 += c * p;
        t2 += c * p * p;
    }
    // Normal equations A * [c0, c1, c2]^T = b
    let a = [[n, s1, s2], [s1, s2, s3], [s2, s3, s4]];
    let b = [t0, t1, t2];
    match solve3(a, b) {
        Some([c0, c1, c2]) => GenCost { c2, c1, c0 },
        None => {
            // Degenerate: linear fit through first and last point.
            let (p0, c0) = pts[0];
            let (p1, c1v) = pts[pts.len() - 1];
            let slope = if (p1 - p0).abs() > 1e-12 {
                (c1v - c0) / (p1 - p0)
            } else {
                0.0
            };
            GenCost {
                c2: 0.0,
                c1: slope,
                c0: c0 - slope * p0,
            }
        }
    }
}

fn solve3(a: [[f64; 3]; 3], b: [f64; 3]) -> Option<[f64; 3]> {
    let det = |m: &[[f64; 3]; 3]| {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let d = det(&a);
    if d.abs() < 1e-10 {
        return None;
    }
    let mut out = [0.0; 3];
    for k in 0..3 {
        let mut ak = a;
        for r in 0..3 {
            ak[r][k] = b[r];
        }
        out[k] = det(&ak) / d;
    }
    Some(out)
}

/// Find the scalar assignment `mpc.<field> = value;`.
fn parse_scalar(text: &str, field: &str) -> Result<Option<f64>, GridError> {
    let needle = format!("mpc.{field}");
    for (ln, line) in text.lines().enumerate() {
        let line = strip_comment(line);
        if let Some(pos) = line.find(&needle) {
            if let Some(eq) = line[pos..].find('=') {
                let rhs = line[pos + eq + 1..].trim().trim_end_matches(';').trim();
                return rhs.parse::<f64>().map(Some).map_err(|_| GridError::Parse {
                    line: ln + 1,
                    message: format!("cannot parse scalar '{rhs}'"),
                });
            }
        }
    }
    Ok(None)
}

/// Find and parse the matrix assignment `mpc.<field> = [ ... ];`.
fn parse_matrix(text: &str, field: &str) -> Result<Option<Vec<Vec<f64>>>, GridError> {
    let needle = format!("mpc.{field}");
    let mut rows = Vec::new();
    let mut in_matrix = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if !in_matrix {
            // Match "mpc.<field>" exactly (not a prefix of a longer name).
            if let Some(pos) = trimmed.find(&needle) {
                let after = &trimmed[pos + needle.len()..];
                let is_exact = after.trim_start().starts_with('=');
                if is_exact && trimmed.contains('[') {
                    in_matrix = true;
                    let after_bracket = &trimmed[trimmed.find('[').unwrap() + 1..];
                    if push_rows(after_bracket, &mut rows, ln)? {
                        return Ok(Some(rows));
                    }
                }
            }
        } else if push_rows(trimmed, &mut rows, ln)? {
            return Ok(Some(rows));
        }
    }
    if in_matrix {
        Err(GridError::Invalid(format!(
            "unterminated matrix mpc.{field}"
        )))
    } else {
        Ok(None)
    }
}

/// Parse rows out of a chunk of matrix body text. Returns true when the
/// closing bracket was seen.
fn push_rows(chunk: &str, rows: &mut Vec<Vec<f64>>, ln: usize) -> Result<bool, GridError> {
    let (body, done) = match chunk.find(']') {
        Some(p) => (&chunk[..p], true),
        None => (chunk, false),
    };
    for row_text in body.split(';') {
        let row_text = row_text.trim();
        if row_text.is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for tok in row_text.split([' ', '\t', ',']) {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            row.push(tok.parse::<f64>().map_err(|_| GridError::Parse {
                line: ln + 1,
                message: format!("cannot parse number '{tok}'"),
            })?);
        }
        if !row.is_empty() {
            rows.push(row);
        }
    }
    Ok(done)
}

fn strip_comment(line: &str) -> &str {
    match line.find('%') {
        Some(p) => &line[..p],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    #[test]
    fn roundtrip_case9() {
        let case = cases::case9();
        let text = write_case(&case);
        let parsed = parse_case(&text, "case9").unwrap();
        assert_eq!(parsed.buses.len(), 9);
        assert_eq!(parsed.generators.len(), 3);
        assert_eq!(parsed.branches.len(), 9);
        assert!((parsed.base_mva - 100.0).abs() < 1e-12);
        assert!((parsed.total_load_mw() - case.total_load_mw()).abs() < 1e-9);
        // Cost curves survive the roundtrip.
        for (a, b) in case.generators.iter().zip(&parsed.generators) {
            assert!((a.cost.c2 - b.cost.c2).abs() < 1e-12);
            assert!((a.cost.c1 - b.cost.c1).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_preserves_network() {
        let case = cases::case14();
        let text = write_case(&case);
        let parsed = parse_case(&text, "case14").unwrap();
        let n1 = case.compile().unwrap();
        let n2 = parsed.compile().unwrap();
        assert_eq!(n1.nbus, n2.nbus);
        assert_eq!(n1.nbranch, n2.nbranch);
        for l in 0..n1.nbranch {
            assert!((n1.br_y[l].gii - n2.br_y[l].gii).abs() < 1e-12);
            assert!((n1.br_y[l].bij - n2.br_y[l].bij).abs() < 1e-12);
        }
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let text = r"
% a comment
function mpc = tiny
mpc.baseMVA = 100;  % MVA base
mpc.bus = [
    1  3  0    0  0 0 1 1.0 0 345 1 1.1 0.9;  % slack
    2  1  50  10  0 0 1 1.0 0 345 1 1.1 0.9;
];
mpc.gen = [
    1  30 0 80 -80 1.0 100 1 120 0;
];
mpc.branch = [
    1 2 0.01 0.1 0.0 100 100 100 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.02 15 0;
];
";
        let case = parse_case(text, "tiny").unwrap();
        assert_eq!(case.buses.len(), 2);
        assert_eq!(case.generators.len(), 1);
        assert!((case.generators[0].cost.c1 - 15.0).abs() < 1e-12);
        assert!(case.compile().is_ok());
    }

    #[test]
    fn missing_bus_matrix_is_error() {
        let text = "mpc.baseMVA = 100;\n";
        assert!(parse_case(text, "bad").is_err());
    }

    #[test]
    fn malformed_number_reports_line() {
        let text = r"
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1.0 0 345 1 1.1 0.9;
    2 1 xx 10 0 0 1 1.0 0 345 1 1.1 0.9;
];
mpc.gen = [ 1 30 0 80 -80 1.0 100 1 120 0; ];
mpc.branch = [ 1 2 0.01 0.1 0.0 100 100 100 0 0 1; ];
";
        match parse_case(text, "bad") {
            Err(GridError::Parse { line, .. }) => assert!(line >= 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn piecewise_cost_fit() {
        // Cost points on an exact quadratic 0.1 p^2 + 2 p should be recovered.
        let row = vec![1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 50.0, 350.0, 100.0, 1200.0];
        let cost = parse_gencost(&row).unwrap();
        assert!((cost.c2 - 0.1).abs() < 1e-6, "c2 {}", cost.c2);
        assert!((cost.c1 - 2.0).abs() < 1e-4, "c1 {}", cost.c1);
    }

    /// A piecewise-linear row whose point count saturates the cast to
    /// `usize` is refused, not multiplied into an overflow.
    #[test]
    fn huge_piecewise_point_count_is_invalid() {
        let text = write_case(&cases::case9());
        let start = text.find("mpc.gencost = [\n").unwrap() + "mpc.gencost = [\n".len();
        let end = start + text[start..].find('\n').unwrap();
        let text = format!(
            "{}\t1\t0\t0\t1e20\t0\t0\t10\t20;{}",
            &text[..start],
            &text[end..]
        );
        match parse_case(&text, "case9") {
            Err(GridError::Invalid(msg)) => assert!(msg.contains("piecewise"), "{msg}"),
            other => panic!("expected an invalid gencost row, got {other:?}"),
        }
    }

    #[test]
    fn polynomial_cost_degrees() {
        // Linear (n = 2).
        let lin = parse_gencost(&[2.0, 0.0, 0.0, 2.0, 12.5, 100.0]).unwrap();
        assert_eq!(lin.c2, 0.0);
        assert!((lin.c1 - 12.5).abs() < 1e-12);
        assert!((lin.c0 - 100.0).abs() < 1e-12);
        // Quadratic (n = 3).
        let quad = parse_gencost(&[2.0, 0.0, 0.0, 3.0, 0.11, 5.0, 150.0]).unwrap();
        assert!((quad.c2 - 0.11).abs() < 1e-12);
    }

    #[test]
    fn unterminated_matrix_is_error() {
        let text = "mpc.bus = [\n 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;\n";
        assert!(parse_matrix(text, "bus").is_err());
    }

    #[test]
    fn gencost_not_confused_with_gen() {
        // "mpc.gen" must not match "mpc.gencost" rows.
        let case = cases::case5();
        let text = write_case(&case);
        let parsed = parse_case(&text, "case5").unwrap();
        assert_eq!(parsed.generators.len(), case.generators.len());
        assert!((parsed.generators[0].pmax - case.generators[0].pmax).abs() < 1e-9);
    }
}
