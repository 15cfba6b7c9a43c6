//! Seeded, splittable randomness for deterministic simulation.
//!
//! Every stochastic decision the simulated network makes — drop coin flips,
//! jitter fractions, nemesis schedules — derives from a single `u64` seed
//! through [`SimRng`], so a failing fault-injection run reproduces from the
//! seed alone. Streams split per label (per node, per connection), which
//! keeps one component's draw count from perturbing another's stream: the
//! request pattern on connection A cannot change which messages drop on
//! connection B.

/// A deterministic generator: SplitMix64 over a 64-bit state.
///
/// Cheap to copy, trivially serializable (the state *is* the seed lineage),
/// and good enough statistically for simulation coin flips. Not a
/// cryptographic generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

/// One SplitMix64 output step.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Builds the root stream from a seed.
    pub fn from_seed(seed: u64) -> SimRng {
        SimRng {
            state: splitmix(seed ^ 0x9e3779b97f4a7c15),
        }
    }

    /// Derives an independent child stream for `label`.
    ///
    /// Splitting is pure: the same parent + label always yields the same
    /// child, regardless of how many values either stream has produced.
    pub fn split(&self, label: u64) -> SimRng {
        SimRng {
            state: splitmix(self.state ^ label.wrapping_mul(0xd6e8feb86659fd93)),
        }
    }

    /// Derives a child stream from two labels (e.g. a connection endpoint
    /// pair). Order-sensitive: `(a, b)` and `(b, a)` are distinct streams.
    pub fn split2(&self, a: u64, b: u64) -> SimRng {
        self.split(a).split(b.rotate_left(17) | 1)
    }

    /// Returns the next 64 random bits, advancing the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        splitmix(self.state)
    }

    /// Stateless draw: the `n`-th value of this stream without advancing it.
    /// Lets concurrent users index a shared stream by a sequence number
    /// instead of serializing on a mutable generator.
    pub fn nth(&self, n: u64) -> u64 {
        splitmix(
            self.state
                .wrapping_add(n.wrapping_add(1).wrapping_mul(0x9e3779b97f4a7c15)),
        )
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform fraction in `[0, 1)`.
    pub fn fraction(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Coin flip with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.fraction() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let _turn = crate::test_turn::shared();
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let _turn = crate::test_turn::shared();
        let a: Vec<u64> = {
            let mut r = SimRng::from_seed(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::from_seed(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn split_streams_are_independent_of_draw_order() {
        let _turn = crate::test_turn::shared();
        let root = SimRng::from_seed(42);
        let mut a1 = root.split(1);
        // Drawing from one child must not affect the other child's stream.
        let mut a2 = root.split(2);
        let first_of_2 = a2.next_u64();
        for _ in 0..100 {
            a1.next_u64();
        }
        assert_eq!(root.split(2).next_u64(), first_of_2);
    }

    #[test]
    fn split2_is_order_sensitive() {
        let _turn = crate::test_turn::shared();
        let root = SimRng::from_seed(9);
        assert_ne!(root.split2(3, 5).next_u64(), root.split2(5, 3).next_u64());
    }

    #[test]
    fn nth_is_stateless_and_matches_indexing() {
        let _turn = crate::test_turn::shared();
        let r = SimRng::from_seed(11);
        let a = r.nth(5);
        let _ = r.nth(9);
        assert_eq!(r.nth(5), a);
        // Distinct indices give distinct values (overwhelmingly).
        let distinct: std::collections::HashSet<u64> = (0..1000).map(|i| r.nth(i)).collect();
        assert!(distinct.len() > 990);
    }

    #[test]
    fn chance_extremes() {
        let _turn = crate::test_turn::shared();
        let mut r = SimRng::from_seed(3);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
