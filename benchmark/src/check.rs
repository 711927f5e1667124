//! Bit-exact output checks against the scalar entrywise oracle.
//!
//! `emulated_gemm_entrywise(a, b, .., i, j)` reads only row `i` of A and
//! column `j` of B, and the split is elementwise, so the oracle can run
//! on the sampled rows and columns alone: one small split per check
//! instead of splitting whole operands.

use crate::stats::Rng;
use egemm::{emulated_gemm_entrywise, EmulationScheme, SplitMatrix};
use egemm_matrix::Matrix;

/// Output positions to check and the oracle's value at each.
#[derive(Clone, Debug)]
pub struct Expected {
    pub at: Vec<(usize, usize)>,
    pub bits: Vec<u32>,
}

impl Expected {
    /// `samples` seeded positions of `A·B`, with the oracle's values.
    pub fn of(a: &Matrix<f32>, b: &Matrix<f32>, samples: usize, rng: &mut Rng) -> Expected {
        let at: Vec<(usize, usize)> = (0..samples)
            .map(|_| (rng.below(a.rows()), rng.below(b.cols())))
            .collect();
        let bits = oracle(a, b, &at);
        Expected { at, bits }
    }

    /// Positions whose value in `d` differs from the oracle in any bit.
    pub fn mismatches(&self, d: &Matrix<f32>) -> usize {
        self.at
            .iter()
            .zip(&self.bits)
            .filter(|&(&(i, j), &want)| {
                i >= d.rows() || j >= d.cols() || d.get(i, j).to_bits() != want
            })
            .count()
    }
}

/// Oracle bits of `A·B` at each position in `at`.
pub fn oracle(a: &Matrix<f32>, b: &Matrix<f32>, at: &[(usize, usize)]) -> Vec<u32> {
    let scheme = EmulationScheme::EgemmTc;
    let k = a.cols();
    let rows = Matrix::from_fn(at.len(), k, |s, kk| a.get(at[s].0, kk));
    let cols = Matrix::from_fn(k, at.len(), |kk, s| b.get(kk, at[s].1));
    let sa = SplitMatrix::split(&rows, scheme.split_scheme());
    let sb = SplitMatrix::split(&cols, scheme.split_scheme());
    (0..at.len())
        .map(|s| emulated_gemm_entrywise(&sa, &sb, None, scheme, s, s).to_bits())
        .collect()
}

/// Check `d = A·B` on `samples` seeded positions; returns mismatches.
pub fn sampled(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    d: &Matrix<f32>,
    samples: usize,
    rng: &mut Rng,
) -> usize {
    Expected::of(a, b, samples, rng).mismatches(d)
}

/// Flip the lowest mantissa bit of one element: the deliberately
/// corrupted output the self-test feeds through the checks.
pub fn corrupt(d: &mut Matrix<f32>, i: usize, j: usize) {
    let v = d.get(i, j);
    d.set(i, j, f32::from_bits(v.to_bits() ^ 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm::Egemm;
    use egemm_tcsim::DeviceSpec;

    #[test]
    fn engine_output_passes_and_a_flipped_bit_fails() {
        let mut rng = Rng::new(7);
        let (a, b) = (rng.matrix(37, 45), rng.matrix(45, 29));
        let mut d = Egemm::auto(DeviceSpec::t4()).gemm(&a, &b).d;
        let at: Vec<(usize, usize)> = (0..37).flat_map(|i| (0..29).map(move |j| (i, j))).collect();
        let want = oracle(&a, &b, &at);
        let exp = Expected { at, bits: want };
        assert_eq!(exp.mismatches(&d), 0);
        corrupt(&mut d, 3, 4);
        assert_eq!(exp.mismatches(&d), 1);
    }
}
