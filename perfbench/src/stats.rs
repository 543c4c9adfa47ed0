//! Statistics of a benchmark run.
//!
//! The host shares its memory system with other tenants. Their load comes in
//! episodes that last seconds to about a minute and slow a whole stretch of
//! a run, so every figure here is built to shrug off part of a run going
//! slow, and to use all of it:
//!
//! - [`Block`] holds the op counts and summed op times of one fixed-work
//!   block; [`slices`] merges consecutive blocks into equal slices, and
//!   [`median_rate`] reports the median slice's rate;
//! - [`Histogram`] holds per-op latencies in fixed space (a per-op `Vec`
//!   would pollute the caches the measured code runs in);
//! - [`recurring_stalls`] counts slow ops that recur at the same op index in
//!   every replay of an identical op sequence, so a one-off hiccup of the
//!   host never counts.

/// Op counts and summed op times of one block, or of a slice of blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Block {
    /// Read ops: queries, or RR sets.
    pub reads: u64,
    /// Summed time of the read ops.
    pub read_ns: u64,
    /// Update ops: inserts and deletes, or edge updates.
    pub updates: u64,
    /// Summed time of the update ops.
    pub update_ns: u64,
}

fn per_s(ops: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        ops as f64 * 1e9 / ns as f64
    }
}

impl Block {
    /// Adds `o`'s counts and times.
    pub fn add(&mut self, o: &Block) {
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.updates += o.updates;
        self.update_ns += o.update_ns;
    }

    /// Reads per second of op time.
    pub fn read_rate(&self) -> f64 {
        per_s(self.reads, self.read_ns)
    }

    /// Updates per second of op time.
    pub fn update_rate(&self) -> f64 {
        per_s(self.updates, self.update_ns)
    }

    /// Ops of either kind per second of op time.
    pub fn op_rate(&self) -> f64 {
        per_s(self.reads + self.updates, self.read_ns + self.update_ns)
    }
}

/// Merges `blocks` into `k` consecutive slices whose block counts differ by
/// at most one (fewer slices if there are fewer blocks).
pub fn slices(blocks: &[Block], k: usize) -> Vec<Block> {
    let k = k.min(blocks.len()).max(1);
    (0..k)
        .map(|i| {
            let mut s = Block::default();
            for b in &blocks[i * blocks.len() / k..(i + 1) * blocks.len() / k] {
                s.add(b);
            }
            s
        })
        .collect()
}

/// The median of `values` (the mean of the middle two for an even count;
/// 0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median over `slices` of `rate(slice)`.
pub fn median_rate(slices: &[Block], rate: impl Fn(&Block) -> f64) -> f64 {
    median(&slices.iter().map(rate).collect::<Vec<_>>())
}

/// Number of op indices that appear in every replay's list of slow ops.
/// Each list must be sorted ascending. No replays means no stalls.
pub fn recurring_stalls(slow_ops: &[Vec<u64>]) -> usize {
    let Some((first, rest)) = slow_ops.split_first() else {
        return 0;
    };
    first.iter().filter(|i| rest.iter().all(|r| r.binary_search(i).is_ok())).count()
}

/// Sub-buckets per power of two: values are kept to within 1/16 (6.25%).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

/// Minimum samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// A fixed-size log-linear histogram of non-negative integers (nanoseconds
/// here): exact below 16, then 16 linear sub-buckets per power of two.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: Box::new([0; BUCKETS]), total: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// The smallest value of bucket `b` and the bucket's width.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, 1.0);
    }
    let e = b / SUB + SUB_BITS as u64 - 1;
    let width = 1u64 << (e - SUB_BITS as u64);
    (((SUB + b % SUB) * width) as f64, width as f64)
}

/// The midpoint of bucket `b`.
#[cfg(test)]
fn bucket_value(b: usize) -> f64 {
    let (lo, width) = bucket_range(b);
    lo + (width - 1.0) / 2.0
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `p`-th percentile (`p` in `[0, 1]`), or `None` unless at least
    /// [`MIN_BEYOND`] samples lie beyond it. Within its bucket the value is
    /// interpolated by rank, as if the bucket's samples were spread evenly.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        if self.total < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bucket_range(b);
                return Some(lo + width * ((rank - seen) as f64 - 0.5) / c as f64);
            }
            seen += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(reads: u64, read_ns: u64) -> Block {
        Block { reads, read_ns, updates: 2 * reads, update_ns: read_ns / 2 }
    }

    #[test]
    fn median_rate_shrugs_off_a_slow_episode() {
        // 64 equal blocks at 1000 reads/s; an episode slows the last 16 by 30%.
        let mut blocks = vec![block(10, 10_000_000); 64];
        for b in &mut blocks[48..] {
            b.read_ns = b.read_ns * 13 / 10;
        }
        let s = slices(&blocks, 8);
        assert_eq!(s.len(), 8);
        assert_eq!(median_rate(&s, Block::read_rate), 1000.0);
        // The rate of the whole run moves by 7%.
        let mut all = Block::default();
        blocks.iter().for_each(|b| all.add(b));
        assert!((1000.0 - all.read_rate()) / 1000.0 > 0.06);
        assert_eq!(s[0].update_rate(), 4000.0);
        assert!((s[0].op_rate() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn slices_keep_every_block() {
        let blocks: Vec<Block> = (1..=10).map(|i| block(i, i * 100)).collect();
        for k in [1, 3, 7, 10, 25] {
            let s = slices(&blocks, k);
            assert_eq!(s.len(), k.min(10));
            assert_eq!(s.iter().map(|b| b.reads).sum::<u64>(), 55);
            assert_eq!(s.iter().map(|b| b.read_ns).sum::<u64>(), 5500);
        }
        assert_eq!(slices(&[], 4), vec![Block::default()]);
        assert_eq!(Block::default().read_rate(), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_buckets_are_within_one_sixteenth() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, 123_456, 1 << 40, u64::MAX] {
            let mid = bucket_value(bucket_of(v));
            let err = (mid - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 1.0 / 16.0, "{v}: {mid}");
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v * 100);
        }
        // p50 and p90 have 50 and 10 samples beyond them.
        let p50 = h.percentile(0.5).expect("50 beyond");
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.07, "{p50}");
        assert!(h.percentile(0.9).is_some());
        // p99 has one sample beyond: not reported.
        assert_eq!(h.percentile(0.99), None);
        let mut big = Histogram::default();
        for _ in 0..10 {
            big.merge(&h);
        }
        assert_eq!(big.count(), 1000);
        let p99 = big.percentile(0.99).expect("10 beyond");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.07, "{p99}");
        assert_eq!(big.percentile(0.999), None);
        assert_eq!(Histogram::default().percentile(0.5), None);
    }

    #[test]
    fn stall_in_one_replay_does_not_count() {
        // Op 7 is slow in every replay; op 3 and op 11 only in one.
        let replays = vec![vec![3, 7, 20], vec![7, 11, 20], vec![7, 20]];
        assert_eq!(recurring_stalls(&replays), 2);
        assert_eq!(recurring_stalls(&[vec![3, 7], vec![], vec![7]]), 0);
        assert_eq!(recurring_stalls(&[]), 0);
        assert_eq!(recurring_stalls(&[vec![5]]), 1);
    }
}
