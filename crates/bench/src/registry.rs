//! The case registry: which networks each experiment runs on.

use gridsim_admm::AdmmParams;
use gridsim_grid::network::Case;
use gridsim_grid::synthetic::TableICase;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Proportionally scaled synthetic cases of ~300 buses each. Fast enough
    /// for CI and for the centralized baseline on a laptop.
    Small,
    /// ~10 % of the paper's sizes (1354-bus case stays full size).
    Medium,
    /// The full Table I dimensions (up to 70,000 buses). The ADMM side is
    /// tractable; the interior-point baseline becomes very slow, which is
    /// itself the paper's point.
    Paper,
}

impl Scale {
    /// Parse from a command-line string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Parse the `--scale` argument out of `std::env::args`, defaulting to
    /// [`Scale::Small`] when the flag is absent. A `--scale` with a missing
    /// or unrecognized value exits with status 2 and names the accepted
    /// values rather than silently running the wrong experiment size.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        Scale::from_arg_list(&args).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        })
    }

    /// [`Scale::from_args`] over an explicit argument list: the first
    /// `--scale <v>` or `--scale=<v>` decides.
    pub fn from_arg_list(args: &[String]) -> Result<Scale, String> {
        const ACCEPTED: &str = "expected small, medium, paper or full";
        for (i, a) in args.iter().enumerate() {
            let value = if a == "--scale" {
                args.get(i + 1).map(String::as_str)
            } else if let Some(rest) = a.strip_prefix("--scale=") {
                Some(rest)
            } else {
                continue;
            };
            return match value {
                Some(v) => Scale::parse(v).ok_or_else(|| format!("--scale {v}: {ACCEPTED}")),
                None => Err(format!("--scale needs a value: {ACCEPTED}")),
            };
        }
        Ok(Scale::Small)
    }
}

/// Value of a `--name value` or `--name=value` command-line argument, shared
/// by the experiment binaries (the `--scale` flag has its own parser in
/// [`Scale::from_args`]).
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args.get(i + 1).cloned();
        }
        if let Some(rest) = a.strip_prefix(&format!("{name}=")) {
            return Some(rest.to_string());
        }
    }
    None
}

/// One evaluation case together with the ADMM parameters the paper's Table I
/// assigns to it.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Display name (the Table I row).
    pub name: String,
    /// The (synthetic) network case.
    pub case: Case,
    /// ADMM parameters with the Table I penalties.
    pub params: AdmmParams,
    /// Which Table I row this stands in for.
    pub source: TableICase,
}

impl BenchCase {
    /// Build the six evaluation cases at the requested scale.
    pub fn all(scale: Scale) -> Vec<BenchCase> {
        TableICase::all()
            .into_iter()
            .map(|tc| {
                let case = match scale {
                    Scale::Small => tc.scaled(300),
                    Scale::Medium => {
                        let (_, _, nbus) = tc.dimensions();
                        tc.scaled((nbus / 10).max(1354).min(nbus))
                    }
                    Scale::Paper => tc.generate(),
                };
                // The Table I penalties were tuned for the full-size cases;
                // scaled-down stand-ins keep the same ratio but use the
                // small-case magnitudes.
                let params = match scale {
                    Scale::Paper => AdmmParams::for_table1_case(tc),
                    _ => AdmmParams::default(),
                };
                BenchCase {
                    name: format!("{}{}", tc.name(), scale_suffix(scale)),
                    case,
                    params,
                    source: tc,
                }
            })
            .collect()
    }

    /// A fast subset used by the Criterion benches: two proportional
    /// stand-ins of the smallest Table I case at 80 and 160 buses with a
    /// bounded ADMM iteration budget, so a full Criterion run (10 samples per
    /// benchmark, both solvers) finishes in minutes. The budget cap makes the
    /// benchmark measure time-per-fixed-work rather than time-to-convergence,
    /// which is the right quantity for a scaling micro-benchmark.
    pub fn criterion_subset() -> Vec<BenchCase> {
        [80usize, 160]
            .into_iter()
            .map(|nbus| {
                let tc = TableICase::Pegase1354;
                let params = AdmmParams {
                    max_outer: 3,
                    max_inner: 200,
                    ..AdmmParams::default()
                };
                BenchCase {
                    name: format!("{}_scaled{}", tc.name(), nbus),
                    case: tc.scaled(nbus),
                    params,
                    source: tc,
                }
            })
            .collect()
    }

    /// The embedded reference cases (WSCC 9-bus, IEEE-14-style, PJM 5-bus,
    /// and a deterministic 30-bus synthetic) with the default small-case
    /// penalties. These are the cases on which ADMM↔baseline agreement is
    /// verified by the test suite, and the set used for the recorded
    /// laptop-scale experiment runs.
    pub fn embedded() -> Vec<BenchCase> {
        use gridsim_grid::cases;
        [
            ("case5", cases::case5()),
            ("case9", cases::case9()),
            ("case14", cases::case14()),
            ("case30_synthetic", cases::case30_like()),
        ]
        .into_iter()
        .map(|(name, case)| BenchCase {
            name: name.to_string(),
            case,
            params: AdmmParams::default(),
            source: TableICase::Pegase1354,
        })
        .collect()
    }
}

fn scale_suffix(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => " (small)",
        Scale::Medium => " (medium)",
        Scale::Paper => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scale_flag_parsing_does_not_guess() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Scale::from_arg_list(&args)
        };
        // Flag absent: the documented default.
        assert_eq!(parse(&["table1"]), Ok(Scale::Small));
        assert_eq!(parse(&["table1", "--k", "4"]), Ok(Scale::Small));
        // Both spellings, any position.
        assert_eq!(parse(&["table1", "--scale", "medium"]), Ok(Scale::Medium));
        assert_eq!(
            parse(&["table1", "--scale=FULL", "--k", "4"]),
            Ok(Scale::Paper)
        );
        // Present but unusable: an error naming the accepted values.
        for bad in [
            &["table1", "--scale", "huge"][..],
            &["table1", "--scale=huge"],
            &["table1", "--scale="],
            &["table1", "--scale"],
        ] {
            let msg = parse(bad).unwrap_err();
            assert!(msg.contains("small, medium, paper or full"), "{msg}");
        }
    }

    #[test]
    fn small_scale_builds_six_compilable_cases() {
        let cases = BenchCase::all(Scale::Small);
        assert_eq!(cases.len(), 6);
        for bc in &cases {
            assert_eq!(bc.case.buses.len(), 300);
            assert!(bc.case.compile().is_ok(), "{} must compile", bc.name);
        }
    }

    #[test]
    fn paper_scale_matches_table1_dimensions() {
        // Only check the smallest case to keep the test fast.
        let tc = TableICase::Pegase1354;
        let bc = BenchCase {
            name: tc.name().into(),
            case: tc.generate(),
            params: AdmmParams::for_table1_case(tc),
            source: tc,
        };
        let (gens, branches, buses) = tc.dimensions();
        assert_eq!(bc.case.generators.len(), gens);
        assert_eq!(bc.case.branches.len(), branches);
        assert_eq!(bc.case.buses.len(), buses);
        assert_eq!(bc.params.rho_pq, 1e1);
        assert_eq!(bc.params.rho_va, 1e3);
    }

    #[test]
    fn criterion_subset_is_small() {
        let subset = BenchCase::criterion_subset();
        assert_eq!(subset.len(), 2);
    }
}
