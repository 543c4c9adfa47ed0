//! Cross-version stream pins for the HALT query path.
//!
//! Each case drives a seeded sequence of inserts, deletes and queries through
//! both HALT backends and folds every query's output (in order) into one
//! FNV-1a hash, together with the context's running count of random words.
//! The hashes were recorded from the fast path before the query
//! path moved to word-sized probabilities; any change that alters a single
//! coin decision, the RNG consumption, or the output order moves a hash.
//!
//! The cases cover the extreme parameters the fast path must keep exact:
//! multi-limb α and β in both directions (every coin then falls back to the
//! exact path), `W` made of β alone, `W` exactly at a power of two, and
//! `u64::MAX` weights. These pins are against the fast path itself, not
//! against force-exact mode, whose streams differ (only the law is shared).

use bignum::{BigUint, Ratio};
use dpss::{DeamortizedDpss, DpssSampler};
use pss_core::{Handle, QueryCtx, SeedableBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::weights::WeightDist;

/// Queries per round; three rounds per case, with updates in between.
const QUERIES: usize = 60;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn pow2(e: u64) -> Ratio {
    Ratio::new(BigUint::pow2(e), BigUint::one())
}

fn pow2_inv(e: u64) -> Ratio {
    Ratio::new(BigUint::one(), BigUint::pow2(e))
}

/// One pinned case: its weights and query parameters.
struct Case {
    name: &'static str,
    weights: Vec<u64>,
    alpha: Ratio,
    beta: Ratio,
}

fn zipf(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 }.generate(n, &mut rng)
}

fn cases() -> Vec<Case> {
    let mut with_max = zipf(600, 3);
    for i in (0..with_max.len()).step_by(97) {
        with_max[i] = u64::MAX;
    }
    // 512 items of weight 128: Σw = 2^16 exactly.
    let pow2_total = vec![128u64; 512];
    vec![
        Case {
            name: "zipf_alpha_1_16",
            weights: zipf(2000, 1),
            alpha: Ratio::from_u64s(1, 16),
            beta: Ratio::zero(),
        },
        Case {
            name: "alpha_3_1000_beta_12345",
            weights: zipf(2000, 2),
            alpha: Ratio::from_u64s(3, 1000),
            beta: Ratio::from_int(12345),
        },
        Case {
            name: "beta_only",
            weights: zipf(1000, 4),
            alpha: Ratio::zero(),
            beta: Ratio::from_int(1 << 26),
        },
        Case {
            name: "u64_max_weights",
            weights: with_max,
            alpha: Ratio::one(),
            beta: Ratio::zero(),
        },
        Case {
            name: "w_exactly_2_16",
            weights: pow2_total,
            alpha: Ratio::one(),
            beta: Ratio::zero(),
        },
        Case {
            name: "alpha_2_neg3000",
            weights: zipf(300, 5),
            alpha: pow2_inv(3000),
            beta: Ratio::zero(),
        },
        Case {
            name: "alpha_2_3000",
            weights: zipf(1000, 6),
            alpha: pow2(3000),
            beta: Ratio::zero(),
        },
        Case {
            name: "beta_2_3000_over_3",
            weights: zipf(1200, 7),
            alpha: Ratio::one(),
            beta: Ratio::new(BigUint::pow2(3000), BigUint::from_u64(3)),
        },
        Case {
            name: "alpha_2_neg20_beta_2_neg3000",
            weights: zipf(1500, 8),
            alpha: pow2_inv(20),
            beta: pow2_inv(3000),
        },
    ]
}

/// Runs one case on a fresh backend and returns the hash of its outputs.
///
/// Round 1 queries the freshly loaded set; round 2 follows deletes of every
/// third item (plans go stale and are refreshed); round 3 follows a second
/// batch of inserts.
fn stream_hash<B: SeedableBackend>(case: &Case) -> u64 {
    let mut s = B::with_seed(0x51_2E);
    let mut ctx = QueryCtx::new(0xC0FFEE);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut handles: Vec<Handle> = case.weights.iter().map(|&w| s.insert(w)).collect();
    let round = |s: &B, ctx: &mut QueryCtx, h: &mut Fnv| {
        for _ in 0..QUERIES {
            let t = s.query(ctx, &case.alpha, &case.beta);
            h.word(ctx.words_consumed());
            h.word(t.len() as u64);
            for x in t {
                h.word(x.raw());
            }
        }
    };
    round(&s, &mut ctx, &mut h);
    let mut i = 0;
    handles.retain(|&x| {
        i += 1;
        i % 3 != 0 || !s.delete(x)
    });
    round(&s, &mut ctx, &mut h);
    let mut rng = SmallRng::seed_from_u64(0xADD);
    let half = case.weights.len() / 2;
    for _ in 0..half {
        let w = case.weights[rng.gen_range(0..case.weights.len())];
        handles.push(s.insert(w));
    }
    round(&s, &mut ctx, &mut h);
    h.word(handles.len() as u64);
    h.0
}

/// `(case, halt hash, halt-deam hash)`, recorded from the fast path.
const PINS: &[(&str, u64, u64)] = &[
    ("zipf_alpha_1_16", 0xa1504baf5b28d8aa, 0x92b559bfaed20d8a),
    ("alpha_3_1000_beta_12345", 0x93de95b4e05482d7, 0xed1eebc0bff79644),
    ("beta_only", 0x28de16d677e8748f, 0x20cd900321e7e1f1),
    ("u64_max_weights", 0x130bf56a59fffb6c, 0xfcc54a3dd3a06bf8),
    ("w_exactly_2_16", 0x5abbc6160af6488a, 0xfb4545222ebe0307),
    ("alpha_2_neg3000", 0xf132dc6d9563a0f0, 0x300ad6d990377a70),
    ("alpha_2_3000", 0x9256832024e6454a, 0x8a49d5cbee41c5ae),
    ("beta_2_3000_over_3", 0x5ddfdbc17ed23a9a, 0xfe5699845cf92086),
    ("alpha_2_neg20_beta_2_neg3000", 0x2ed1b193039ed6d5, 0xef2620f973cb4762),
];

#[test]
fn query_streams_match_pins() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len(), "one pin per case");
    for (case, &(name, halt, deam)) in cases.iter().zip(PINS) {
        assert_eq!(case.name, name);
        let got = stream_hash::<DpssSampler>(case);
        assert_eq!(got, halt, "{name}: halt stream moved (now {got:#018x})");
        let got = stream_hash::<DeamortizedDpss>(case);
        assert_eq!(got, deam, "{name}: halt-deam stream moved (now {got:#018x})");
    }
}
