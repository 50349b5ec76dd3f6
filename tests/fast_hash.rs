//! The shared integer hasher on the simulator's and interpreter's hot maps
//! (tier 1): it must spread the strided keys those maps see, and swapping it
//! in must not change any order the simulator depends on.

use std::collections::HashSet;
use std::hash::BuildHasher;

use tls_repro::ir::hash::FastBuild;
use tls_repro::ir::{Sid, LINE_WORDS};
use tls_repro::sim::WriteBuffer;

/// For 4,096 keys at each stride the maps see — consecutive words, cache
/// lines, pages, far-apart addresses, and their negatives — the low 12 bits
/// (a 4,096-bucket table's index) take at least 3,000 distinct values, and
/// the top 7 bits (the table's tag byte) are not constant. A uniformly
/// random hash would give about 2,590 distinct values; a hash that drops
/// low-bit structure (plain multiplication on a power-of-two stride) gives
/// a handful.
#[test]
fn hash_spreads_strided_keys() {
    const KEYS: i64 = 4096;
    let build = FastBuild::default();
    let strides = [1, LINE_WORDS, 1024, 1 << 20];
    for stride in strides.into_iter().flat_map(|s| [s, -s]) {
        for base in [0i64, 1 << 20, -12_345, 1 << 24] {
            let mut low = HashSet::new();
            let mut top = HashSet::new();
            for i in 0..KEYS {
                let h = build.hash_one(base + i * stride);
                low.insert(h & 0xFFF);
                top.insert(h >> 57);
            }
            assert!(
                low.len() >= 3000,
                "stride {stride} base {base}: only {} distinct low-12-bit values",
                low.len()
            );
            assert!(
                top.len() > 1,
                "stride {stride} base {base}: top 7 bits constant"
            );
        }
    }
}

/// Dense ids (sids, channels, groups, predictor slots) hash as spread as
/// consecutive words.
#[test]
fn hash_spreads_dense_ids() {
    let build = FastBuild::default();
    let low: HashSet<u64> = (0..4096u32)
        .map(|i| build.hash_one(Sid(i)) & 0xFFF)
        .collect();
    assert!(low.len() >= 3000, "{} distinct", low.len());
    let low: HashSet<u64> = (0..4096usize).map(|i| build.hash_one(i) & 0xFFF).collect();
    assert!(low.len() >= 3000, "{} distinct", low.len());
}

/// Commit walks the write buffer in address order (it feeds cache timing),
/// whatever order the stores arrived in and whichever lines they dirty.
#[test]
fn write_buffer_iterates_in_address_order() {
    let mut rng = tls_repro::ir::SplitMix64::seed_from_u64(7);
    let mut wb = WriteBuffer::default();
    let mut expect = std::collections::BTreeMap::new();
    for n in 0..2000 {
        let addr = match rng.pick(3) {
            0 => rng.gen_range(-64, 64),
            1 => rng.gen_range(0, 1 << 12) * LINE_WORDS,
            _ => rng.gen_range(-(1 << 40), 1 << 40),
        };
        wb.store(addr, n, Sid(n as u32));
        expect.insert(addr, n);
    }
    let got: Vec<(i64, i64)> = wb.iter().collect();
    assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
}
