//! The case registry: which networks each experiment runs on.

use gridsim_admm::AdmmParams;
use gridsim_grid::{Case, TableICase};
use std::str::FromStr;

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
    pub(crate) fn parse(s: &str) -> Option<Scale> {
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
    pub(crate) fn from_arg_list(args: &[String]) -> Result<Scale, String> {
        const ACCEPTED: &str = "expected small, medium, paper or full";
        match find_flag(args, "--scale") {
            None => Ok(Scale::Small),
            Some(None) => Err(format!("--scale needs a value: {ACCEPTED}")),
            Some(Some(v)) => Scale::parse(v).ok_or_else(|| format!("--scale {v}: {ACCEPTED}")),
        }
    }
}

/// First `name <v>` or `name=<v>` in `args`: `None` when the flag is absent,
/// `Some(None)` when it is the last argument and has no value.
fn find_flag<'a>(args: &'a [String], name: &str) -> Option<Option<&'a str>> {
    args.iter().enumerate().find_map(|(i, a)| {
        if a == name {
            Some(args.get(i + 1).map(String::as_str))
        } else {
            a.strip_prefix(name)?.strip_prefix('=').map(Some)
        }
    })
}

/// Value of a `--name value` or `--name=value` command-line argument, shared
/// by the experiment binaries (the `--scale` flag has its own parser in
/// [`Scale::from_args`], numeric flags go through [`arg_parsed`]).
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    find_flag(&args, name).flatten().map(str::to_string)
}

/// A numeric `--name <v>` / `--name=<v>` flag out of `std::env::args`:
/// `None` when the flag is absent (the caller's default applies). A flag
/// that is present with a missing or unparsable value exits with status 2
/// and names the flag and the expected type — a typo must not silently run
/// the default experiment.
pub fn arg_parsed<T: FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    arg_parsed_from(&args, name).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// [`arg_parsed`] over an explicit argument list.
pub(crate) fn arg_parsed_from<T: FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, String> {
    let expected = match std::any::type_name::<T>() {
        "usize" | "u64" => "an unsigned integer",
        "f64" => "a number",
        other => other,
    };
    match find_flag(args, name) {
        None => Ok(None),
        Some(None) => Err(format!("{name} needs a value: expected {expected}")),
        Some(Some(v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} {v}: expected {expected}")),
    }
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
        [
            ("case5", gridsim_grid::case5()),
            ("case9", gridsim_grid::case9()),
            ("case14", gridsim_grid::case14()),
            ("case30_synthetic", gridsim_grid::case30_like()),
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
    fn numeric_flag_parsing_does_not_guess() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            arg_parsed_from::<usize>(&args, "--k")
        };
        // Flag absent: the caller's default applies.
        assert_eq!(parse(&["sweep"]), Ok(None));
        assert_eq!(parse(&["sweep", "--kk", "4", "--levels", "3"]), Ok(None));
        // Both spellings, any position.
        assert_eq!(parse(&["sweep", "--k", "1000"]), Ok(Some(1000)));
        assert_eq!(parse(&["sweep", "--k=7", "--levels", "3"]), Ok(Some(7)));
        // Present but unusable: an error naming the flag and the type.
        for bad in [
            &["sweep", "--k", "abc"][..],
            &["sweep", "--k=-1"],
            &["sweep", "--k="],
            &["sweep", "--k", "--levels", "3"],
            &["sweep", "--k"],
        ] {
            let msg = parse(bad).unwrap_err();
            assert!(msg.starts_with("--k"), "{msg}");
            assert!(msg.contains("expected an unsigned integer"), "{msg}");
        }
        assert_eq!(
            parse(&["sweep", "--k", "abc"]).unwrap_err(),
            "--k abc: expected an unsigned integer"
        );
        // Floats share the helper and name their own type.
        let args = ["sweep".to_string(), "--lo=0.9x".to_string()];
        assert_eq!(
            arg_parsed_from::<f64>(&args, "--lo").unwrap_err(),
            "--lo 0.9x: expected a number"
        );
        assert_eq!(arg_parsed_from::<f64>(&args[..1], "--lo"), Ok(None));
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
