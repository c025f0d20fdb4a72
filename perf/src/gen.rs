//! Input generation: every workload's arrivals come from `--seed` here and
//! nowhere else; the program under test receives only the generated inputs.
//!
//! Keys are drawn *without replacement*: each stream cycles through its own
//! seeded permutation of the key domain. With a domain equal to the window
//! population every window then holds each key about once, so the 21-way
//! join has selectivity one per tuple and not merely on average. Measured on
//! this query, independent uniform keys make the per-key result count a
//! product of 21 Poisson(1) variables: throughput then differs fivefold
//! between seeds, and no bound could be held.

/// SplitMix64 (Steele, Lea, Flood 2014). The benchmark keeps its own copy so
/// that its inputs do not change when the repository's generator does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; the bias of the multiply-shift (below 2^-40
    /// for the bounds used here) does not matter for a workload.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut p: Vec<u64> = (0..n).collect();
        for i in (1..p.len()).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// How the keys of one workload are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Every stream cycles through a permutation of `[0, domain)`.
    Cycle { domain: u64 },
    /// Every `hot_every`-th arrival of a stream cycles through a hot set of
    /// `hot` keys; with `hot * hot_every` equal to the window population each
    /// window holds each hot key once, so hot keys join at every level. The
    /// other arrivals cycle through a disjoint cold domain; the larger it is,
    /// the more rarely they meet a partner.
    HotCold {
        hot: u64,
        hot_every: u64,
        cold_domain: u64,
    },
}

/// Arrivals in structure-of-arrays form; the payload of arrival `i` is `i`.
#[derive(Debug, Clone, Default)]
pub struct Arrivals {
    pub streams: Vec<u16>,
    pub keys: Vec<u64>,
}

impl Arrivals {
    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

/// `n` arrivals over `streams` streams, the stream of each drawn uniformly.
pub fn arrivals(seed: u64, n: usize, streams: u16, keys: Keys) -> Arrivals {
    let mut rng = SplitMix64::new(seed);
    let (main_domain, hot) = match keys {
        Keys::Cycle { domain } => (domain, 0),
        Keys::HotCold {
            hot, cold_domain, ..
        } => (cold_domain, hot),
    };
    let main: Vec<Vec<u64>> = (0..streams).map(|_| rng.permutation(main_domain)).collect();
    let hot_perms: Vec<Vec<u64>> = (0..streams).map(|_| rng.permutation(hot)).collect();
    let mut main_pos = vec![0usize; streams as usize];
    let mut hot_pos = vec![0usize; streams as usize];
    let mut seen = vec![0u64; streams as usize];
    let mut out = Arrivals {
        streams: Vec::with_capacity(n),
        keys: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let s = rng.below(streams as u64) as usize;
        let is_hot = match keys {
            Keys::Cycle { .. } => false,
            Keys::HotCold { hot_every, .. } => seen[s].is_multiple_of(hot_every),
        };
        seen[s] += 1;
        let key = if is_hot {
            let k = hot_perms[s][hot_pos[s] % hot_perms[s].len()];
            hot_pos[s] += 1;
            k
        } else {
            let k = hot + main[s][main_pos[s] % main[s].len()];
            main_pos[s] += 1;
            k
        };
        out.streams.push(s as u16);
        out.keys.push(key);
    }
    out
}

/// The order in which `n` event-time positions are offered under bounded
/// disorder: position `i` is displaced by a seeded jitter of at most `bound`
/// positions, and every `straggler_every`-th position by `bound + excess`,
/// which is past what a lateness gate of that bound admits.
pub fn disorder(seed: u64, n: usize, bound: u64, straggler_every: usize, excess: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ 0xD150_4DE4);
    let mut keyed: Vec<(u64, u32)> = (0..n)
        .map(|i| {
            let jitter = if i > 0 && i.is_multiple_of(straggler_every) {
                bound + excess
            } else {
                rng.below(bound + 1)
            };
            (i as u64 + jitter, i as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let k = Keys::Cycle { domain: 50 };
        let a = arrivals(7, 500, 4, k);
        let b = arrivals(7, 500, 4, k);
        let c = arrivals(8, 500, 4, k);
        assert_eq!((&a.streams, &a.keys), (&b.streams, &b.keys));
        assert_ne!(a.keys, c.keys);
    }

    #[test]
    fn cycle_keys_repeat_only_after_a_full_domain() {
        let a = arrivals(3, 4000, 3, Keys::Cycle { domain: 100 });
        for s in 0..3u16 {
            let ks: Vec<u64> = (0..a.len())
                .filter(|&i| a.streams[i] == s)
                .map(|i| a.keys[i])
                .collect();
            for w in ks.chunks_exact(100) {
                let mut sorted = w.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
            }
        }
    }

    #[test]
    fn hot_and_cold_keys_are_disjoint() {
        let k = Keys::HotCold {
            hot: 10,
            hot_every: 4,
            cold_domain: 1000,
        };
        let a = arrivals(5, 20_000, 2, k);
        let hot = a.keys.iter().filter(|&&k| k < 10).count();
        assert!((4000..6000).contains(&hot), "hot share {hot}");
        assert!(a.keys.iter().all(|&k| k < 1010));
    }

    #[test]
    fn disorder_is_a_permutation_within_its_bound_except_stragglers() {
        let p = disorder(1, 5500, 16, 997, 128);
        let mut seen = vec![false; 5500];
        let mut max_seen = 0u32;
        let mut late_beyond = 0;
        for &i in &p {
            assert!(!std::mem::replace(&mut seen[i as usize], true));
            max_seen = max_seen.max(i);
            if max_seen - i > 16 {
                late_beyond += 1;
            }
        }
        assert_eq!(late_beyond, 5, "one straggler per 997 positions");
    }
}
