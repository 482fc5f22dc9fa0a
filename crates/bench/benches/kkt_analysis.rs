//! One symbolic analysis of the condensed KKT system, timed on its own.
//!
//! Every fresh interior-point solver pays it once per declared structure:
//! `KktCache::ensure_structure` on an empty cache builds the condensed
//! pattern, orders it with approximate minimum degree, freezes the
//! symbolic LDLᵀ factorization and records where each declared triplet
//! lands. `ensure_structure/*` times exactly that; `amd/*` times
//! `Ordering::amd` alone on the same pattern. The cases are `case14` and the
//! `Pegase1354/200` stand-in (877 condensed dimensions) the `ipm_fleet`
//! benchmark workload solves.
//!
//! Run with `cargo bench -p gridsim-bench --bench kkt_analysis`.

use criterion::{criterion_group, criterion_main, Criterion};
use gridsim_grid::TableICase;
use gridsim_ipm::kkt::KktDims;
use gridsim_ipm::{AcopfNlp, KktCache, Nlp};
use gridsim_sparse::{Csc, Ordering};

/// The condensed system's pattern as the cache freezes it: the diagonal,
/// the Hessian, both `J_E` blocks, and every pair of variables sharing an
/// inequality row.
fn condensed_pattern(nlp: &AcopfNlp) -> Csc {
    let (nx, m_eq) = (nlp.num_vars(), nlp.num_eq());
    let n = nx + m_eq;
    let (hess, jac_eq, jac_ineq) = (
        nlp.hessian_structure(),
        nlp.eq_jacobian_structure(),
        nlp.ineq_jacobian_structure(),
    );
    let mut rows: Vec<usize> = (0..n).chain(hess.rows.iter().copied()).collect();
    let mut cols: Vec<usize> = (0..n).chain(hess.cols.iter().copied()).collect();
    for (&r, &c) in jac_eq.rows.iter().zip(&jac_eq.cols) {
        rows.extend([nx + r, c]);
        cols.extend([c, nx + r]);
    }
    let mut by_row = vec![Vec::new(); nlp.num_ineq()];
    for (&r, &c) in jac_ineq.rows.iter().zip(&jac_ineq.cols) {
        by_row[r].push(c);
    }
    for row in &by_row {
        for &p in row {
            for &q in row {
                rows.push(p);
                cols.push(q);
            }
        }
    }
    let vals = vec![0.0; rows.len()];
    Csc::from_triplets(n, n, &rows, &cols, &vals)
}

fn bench_kkt_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("kkt_analysis");
    group.sample_size(50);
    for (name, case) in [
        ("case14", gridsim_grid::case14()),
        ("pegase1354_200", TableICase::Pegase1354.scaled(200)),
    ] {
        let net = case.compile().expect("the case compiles");
        let nlp = AcopfNlp::new(&net);
        let dims = KktDims {
            nx: nlp.num_vars(),
            ns: nlp.num_ineq(),
            m_eq: nlp.num_eq(),
            m_ineq: nlp.num_ineq(),
        };
        let (hess, jac_eq, jac_ineq) = (
            nlp.hessian_structure(),
            nlp.eq_jacobian_structure(),
            nlp.ineq_jacobian_structure(),
        );
        group.bench_function(format!("ensure_structure/{name}"), |b| {
            b.iter(|| {
                let mut cache = KktCache::new();
                assert!(cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
                cache
            })
        });
        let pattern = condensed_pattern(&nlp);
        group.bench_function(format!("amd/{name}"), |b| {
            b.iter(|| Ordering::amd(&pattern))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kkt_analysis);
criterion_main!(benches);
