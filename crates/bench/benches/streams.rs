//! E3 (extended) — per-operation update cost under adversarial streams.
//!
//! Two backends:
//! - `DpssSampler` — O(1) amortized updates (one O(n) burst per rebuild);
//! - `DeamortizedDpss` — O(1) worst-case updates (migration spread over
//!   subsequent operations).
//!
//! Two stream shapes from the `workloads` crate:
//! - `Oscillate` around the rebuild boundary — the worst case for the
//!   amortized variant (it keeps crossing the ×2/÷2 trigger);
//! - `SlidingWindow` — the steady-state streaming shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpss::{DeamortizedDpss, DpssSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;
use workloads::updates::{scale_weight, LiveSet, Op, StreamKind, UpdateStream};
use workloads::weights::WeightDist;

const DIST: WeightDist = WeightDist::Uniform { lo: 1, hi: 1 << 40 };

fn make_stream(kind: StreamKind, n_initial: usize, n_ops: usize) -> UpdateStream {
    let mut rng = SmallRng::seed_from_u64(77);
    UpdateStream::generate(kind, n_initial, n_ops, DIST, &mut rng)
}

fn replay_halt(stream: &UpdateStream) -> usize {
    let mut s = DpssSampler::new();
    let mut live = LiveSet::new();
    for &w in &stream.initial {
        live.insert(s.insert(w));
    }
    for op in &stream.ops {
        match *op {
            Op::Insert(w) => live.insert(s.insert(w)),
            Op::DeleteAt(i) => {
                s.delete(live.remove_at(i));
            }
            Op::DeleteOldest => {
                s.delete(live.remove_oldest());
            }
            Op::ReweightAt { index, weight } => {
                let id = live.handles()[index];
                s.set_weight(id, weight).expect("live id");
            }
            Op::ScaleAllWeights { num, den } => {
                // HALT's native in-place reweight: ids stay stable.
                for &id in live.handles() {
                    let w = s.weight(id).expect("live id");
                    s.set_weight(id, scale_weight(w, num, den)).expect("live id");
                }
            }
        }
    }
    live.len()
}

fn replay_deamortized(stream: &UpdateStream) -> usize {
    let mut s = DeamortizedDpss::new();
    let mut live = LiveSet::new();
    for &w in &stream.initial {
        live.insert(s.insert(w));
    }
    for op in &stream.ops {
        match *op {
            Op::Insert(w) => live.insert(s.insert(w)),
            Op::DeleteAt(i) => {
                s.delete(live.remove_at(i));
            }
            Op::DeleteOldest => {
                s.delete(live.remove_oldest());
            }
            Op::ReweightAt { index, weight } => {
                use pss_core::PssBackend;
                let entry = &mut live.handles_mut()[index];
                let nh = PssBackend::set_weight(&mut s, pss_core::Handle::from_raw(*entry), weight)
                    .expect("live handle");
                *entry = nh.raw();
            }
            Op::ScaleAllWeights { num, den } => {
                // The de-amortized structure uses the facade's default
                // (delete + reinsert): adopt the re-issued handles.
                use pss_core::PssBackend;
                for h in live.handles_mut() {
                    let w = s.weight(*h).expect("live handle");
                    let nh = PssBackend::set_weight(
                        &mut s,
                        pss_core::Handle::from_raw(*h),
                        scale_weight(w, num, den),
                    )
                    .expect("live handle");
                    *h = nh.raw();
                }
            }
        }
    }
    live.len()
}

fn bench_streams(c: &mut Criterion) {
    let mut g = c.benchmark_group("update_streams");
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(10);
    let cases = [
        (
            "oscillate_boundary",
            make_stream(StreamKind::Oscillate { lo: 1 << 12, hi: 5 << 12 }, 1 << 12, 60_000),
        ),
        ("sliding_window", make_stream(StreamKind::SlidingWindow { window: 1 << 12 }, 0, 60_000)),
        ("fifo_window", make_stream(StreamKind::Fifo { window: 1 << 12 }, 0, 60_000)),
        ("mixed_50_50", make_stream(StreamKind::Mixed { insert_permille: 500 }, 1 << 12, 60_000)),
        (
            "decayed",
            make_stream(
                StreamKind::Decayed { insert_permille: 520, scale_every: 512, num: 1, den: 2 },
                1 << 12,
                20_000,
            ),
        ),
    ];
    for (label, stream) in &cases {
        g.bench_with_input(BenchmarkId::new("halt_amortized", *label), stream, |b, s| {
            b.iter(|| replay_halt(s));
        });
        g.bench_with_input(BenchmarkId::new("deamortized", *label), stream, |b, s| {
            b.iter(|| replay_deamortized(s));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_streams);
criterion_main!(benches);
