//! Crate-level integration tests of MATPOWER file I/O: write real case files
//! to disk, read them back through the public path-based API, and compile.

use gridsim_grid::{matpower, SyntheticSpec};

#[test]
fn write_and_read_case9_via_filesystem() {
    let case = gridsim_grid::case9();
    let dir = std::env::temp_dir().join("gridadmm_test_cases");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case9_roundtrip.m");
    std::fs::write(&path, matpower::write_case(&case)).unwrap();

    let parsed = matpower::read_case(&path).unwrap();
    assert_eq!(parsed.name, "case9_roundtrip");
    assert_eq!(parsed.buses.len(), 9);
    let net = parsed.compile().unwrap();
    assert_eq!(net.nbranch, 9);
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_an_io_error() {
    let err = matpower::read_case(std::path::Path::new("/nonexistent/case.m")).unwrap_err();
    assert!(matches!(err, gridsim_grid::GridError::Io(_)));
}

#[test]
fn large_synthetic_case_roundtrips_through_disk() {
    let case = SyntheticSpec {
        name: "big".into(),
        nbus: 500,
        ngen: 80,
        nbranch: 700,
        seed: 99,
        ..Default::default()
    }
    .generate();
    let dir = std::env::temp_dir().join("gridadmm_test_cases");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.m");
    std::fs::write(&path, matpower::write_case(&case)).unwrap();
    let parsed = matpower::read_case(&path).unwrap();
    assert_eq!(parsed.buses.len(), 500);
    assert_eq!(parsed.branches.len(), 700);
    let n1 = case.compile().unwrap();
    let n2 = parsed.compile().unwrap();
    assert!((n1.total_pd() - n2.total_pd()).abs() < 1e-9);
    std::fs::remove_file(&path).ok();
}
