//! SplitMix64: the benchmark's only source of randomness, so an op sequence
//! is a pure function of `--seed`.

#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `label` (one per client thread / purpose).
    pub fn fork(seed: u64, label: u64) -> SplitMix64 {
        let mut r = SplitMix64(seed ^ label.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        SplitMix64(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is below
    /// 2^-40 for every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // Reference values of SplitMix64 seeded with 0.
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn forks_differ_and_repeat() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::fork(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::fork(7, 0).next_u64(),
            SplitMix64::fork(7, 1).next_u64()
        );
        assert_ne!(
            SplitMix64::fork(7, 0).next_u64(),
            SplitMix64::fork(8, 0).next_u64()
        );
    }
}
