//! Zipfian key chooser, following the YCSB reference implementation
//! (Gray et al.'s "Quickly generating billion-record synthetic databases"
//! rejection-free algorithm).

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::Rng;

/// Generates integers in `[0, n)` with a Zipfian distribution of parameter
/// `theta` (the paper's *skew factor*). Item 0 is the most popular.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// Create a generator over `items` items with skew `theta`.
    ///
    /// `theta = 0` degenerates to uniform; the paper uses 0.3 / 0.9 / 1.5 for
    /// low / medium / high contention. Values ≥ 1 are supported (the YCSB
    /// zeta recursion handles them, unlike the textbook closed form).
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian over an empty domain");
        assert!(theta >= 0.0, "theta must be non-negative");
        let zeta2theta = Self::zeta(2.min(items), theta);
        let zetan = Self::zeta(items, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// `sum(1 / i^theta)` for `i` in `1..=n`, summed once per thread and
    /// `(n, theta)`: a benchmark pass builds its generator twice (to load
    /// and to drive) and a run builds one per pass, and the paper's 1M-row
    /// sum takes tens of milliseconds. The memo returns the loop's own
    /// result, so a memoized generator equals a fresh one bit for bit.
    fn zeta(n: u64, theta: f64) -> f64 {
        thread_local! {
            static ZETAS: RefCell<Vec<((u64, u64), f64)>> = const { RefCell::new(Vec::new()) };
        }
        let key = (n, theta.to_bits());
        if let Some(zeta) =
            ZETAS.with_borrow(|zetas| zetas.iter().find(|(k, _)| *k == key).map(|&(_, zeta)| zeta))
        {
            return zeta;
        }
        let mut sum = 0.0;
        for i in 0..n {
            sum += 1.0 / ((i + 1) as f64).powf(theta);
        }
        ZETAS.with_borrow_mut(|zetas| zetas.push((key, sum)));
        sum
    }

    /// Number of items in the domain.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw the next value in `[0, items)`.
    pub fn next(&self, rng: &mut StdRng) -> u64 {
        if self.theta < 1e-9 {
            return rng.gen_range(0..self.items);
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = self.eta.mul_add(u, 1.0 - self.eta);
        ((self.items as f64) * spread.powf(self.alpha)) as u64 % self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn draw_histogram(items: u64, theta: f64, draws: usize) -> Vec<usize> {
        let gen = ZipfianGenerator::new(items, theta);
        let mut rng = StdRng::seed_from_u64(99);
        let mut hist = vec![0usize; items as usize];
        for _ in 0..draws {
            hist[gen.next(&mut rng) as usize] += 1;
        }
        hist
    }

    #[test]
    fn values_stay_in_range() {
        let gen = ZipfianGenerator::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(gen.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let hist = draw_histogram(10, 0.0, 50_000);
        for count in &hist {
            let frac = *count as f64 / 50_000.0;
            assert!((frac - 0.1).abs() < 0.02, "fraction {frac}");
        }
    }

    #[test]
    fn higher_theta_concentrates_on_hot_keys() {
        let low = draw_histogram(1000, 0.3, 50_000);
        let med = draw_histogram(1000, 0.9, 50_000);
        let high = draw_histogram(1000, 1.5, 50_000);
        let hot_share = |h: &Vec<usize>| {
            let hot: usize = h.iter().take(10).sum();
            hot as f64 / 50_000.0
        };
        let (l, m, h) = (hot_share(&low), hot_share(&med), hot_share(&high));
        assert!(
            l < m && m < h,
            "hot shares {l} {m} {h} must increase with theta"
        );
        assert!(
            h > 0.8,
            "theta=1.5 should send most accesses to the hottest keys ({h})"
        );
        assert!(l < 0.1, "theta=0.3 should be mild ({l})");
    }

    #[test]
    fn most_popular_item_is_item_zero() {
        let hist = draw_histogram(100, 0.99, 50_000);
        let max_idx = hist
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, 0);
    }

    /// The five fields, the floats as bits.
    fn bits(gen: &ZipfianGenerator) -> (u64, [u64; 4]) {
        let floats = [gen.theta, gen.alpha, gen.zetan, gen.eta];
        (gen.items, floats.map(f64::to_bits))
    }

    #[test]
    fn memoized_zeta_equals_a_fresh_sum_bit_for_bit() {
        // A new thread starts with an empty memo, so it sums afresh.
        let fresh = |n, theta| {
            std::thread::spawn(move || bits(&ZipfianGenerator::new(n, theta)))
                .join()
                .unwrap()
        };
        let orders: [&[(u64, f64)]; 3] = [
            &[
                (100_000, 0.9),
                (100_000, 0.99),
                (100_000, 0.9),
                (100_000, 0.99),
            ],
            &[
                (100_000, 0.99),
                (100_000, 0.9),
                (100_000, 0.99),
                (100_000, 0.9),
            ],
            &[(1_000, 0.9), (100_000, 0.9), (1_000, 0.9), (100_000, 0.9)],
        ];
        for order in orders {
            std::thread::spawn(move || {
                for &(n, theta) in order {
                    let memoized = bits(&ZipfianGenerator::new(n, theta));
                    assert_eq!(memoized, fresh(n, theta), "n {n} theta {theta}");
                }
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let gen = ZipfianGenerator::new(500, 0.9);
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| gen.next(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| gen.next(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
