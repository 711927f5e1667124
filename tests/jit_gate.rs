//! Negative test for the `EGEMM_JIT=0` contract: with the knob off,
//! the engine must never map an executable page — not "map one and not
//! use it", but zero `mmap(PROT_EXEC)` activity for the life of the
//! process — and results must stay bit-identical to the interpreted
//! path.
//!
//! This lives in its own test binary because the knob is latched once
//! per process (first runtime construction); it cannot share a process
//! with tests that exercise the JIT. The harness runs each integration
//! test binary as a separate process, so setting the variable here is
//! safe and race-free as long as it happens before any engine work.

use egemm::emulation::EmulationScheme;
use egemm::engine::{self, EngineConfig, EngineRuntime, Plan};
use egemm::split_matrix::SplitMatrix;
use egemm::{emulated_gemm_entrywise, jit_available, jit_exec_mappings};
use egemm_matrix::Matrix;

#[test]
fn jit_disabled_process_never_maps_executable_pages() {
    // Latch the knob before the first EngineRuntime exists.
    std::env::set_var("EGEMM_JIT", "0");
    assert!(!jit_available(), "EGEMM_JIT=0 must report unavailable");

    let schemes = [
        EmulationScheme::EgemmTc,
        EmulationScheme::Markidis,
        EmulationScheme::MarkidisFourTerm,
        EmulationScheme::TcHalf,
    ];
    for (scheme, (m, k, n)) in schemes.into_iter().zip([
        (33, 40, 37), // ragged edges in every dimension
        (16, 24, 32),
        (7, 9, 50),
        (64, 64, 64),
    ]) {
        let a = Matrix::<f32>::random_uniform(m, k, 11);
        let b = Matrix::<f32>::random_uniform(k, n, 13);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        // jit: true in the config is deliberate — the env knob must
        // override per-call opt-ins.
        let cfg = EngineConfig {
            mc: 8,
            nc: 32,
            kc: 16,
            threads: 2,
            ..EngineConfig::default()
        };
        assert!(cfg.jit, "default EngineConfig must ask for the JIT");
        let d = engine::gemm(
            EngineRuntime::global(),
            &Plan {
                cfg,
                ..Plan::new(&a, &b, scheme)
            },
        );
        for i in 0..m {
            for j in 0..n {
                let want = emulated_gemm_entrywise(&sa, &sb, None, scheme, i, j);
                assert_eq!(
                    d.get(i, j).to_bits(),
                    want.to_bits(),
                    "{scheme:?} diverged at ({i},{j})"
                );
            }
        }
    }

    assert_eq!(
        jit_exec_mappings(),
        0,
        "EGEMM_JIT=0 process mapped executable pages"
    );
}
