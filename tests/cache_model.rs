//! The simulator's cache and timer building blocks, checked with seeded
//! random streams (tier 1).
//!
//! - The tag-array cache against an ordered-list LRU model.
//! - The pipeline timer's invariants.
//! - The paged `SetAssocCache`/`MemSystem` against an eager reference: a
//!   copy, kept here, of the implementation that filled every tag and
//!   stamp up front. Hits, latencies and victims must agree at every step.
//! - Residency: building the Table 1 hierarchy materializes no tag page,
//!   and a small program materializes only a handful.

use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::{Harness, Mode};
use tls_repro::ir::{generate, line_of, GenConfig, SplitMix64, LINE_WORDS};
use tls_repro::sim::{CoreTimer, Machine, MemSystem, SetAssocCache, SimConfig};

// ---------------------------------------------------------------------------
// Reference models
// ---------------------------------------------------------------------------

/// Ordered-list LRU: per set, lines most-recent-first.
struct ModelCache {
    sets: Vec<Vec<i64>>,
    ways: usize,
}

impl ModelCache {
    fn new(lines: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); lines / ways],
            ways,
        }
    }

    fn set(&self, line: i64) -> usize {
        line.rem_euclid(self.sets.len() as i64) as usize
    }

    fn access(&mut self, line: i64) -> bool {
        let set = self.set(line);
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&l| l == line) {
            s.remove(pos);
            s.insert(0, line);
            true
        } else {
            s.insert(0, line);
            s.truncate(self.ways);
            false
        }
    }

    fn probe(&self, line: i64) -> bool {
        self.sets[self.set(line)].contains(&line)
    }
}

/// The eager tag array the paged one replaced: every tag and stamp
/// allocated and filled at construction.
struct EagerCache {
    tags: Vec<Option<i64>>,
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    clock: u64,
}

impl EagerCache {
    fn new(lines: usize, ways: usize) -> Self {
        Self {
            tags: vec![None; lines],
            stamps: vec![0; lines],
            sets: lines / ways,
            ways,
            clock: 0,
        }
    }

    fn base(&self, line: i64) -> usize {
        line.rem_euclid(self.sets as i64) as usize * self.ways
    }

    fn access_evict(&mut self, line: i64) -> (bool, Option<i64>) {
        self.clock += 1;
        let base = self.base(line);
        for w in 0..self.ways {
            if self.tags[base + w] == Some(line) {
                self.stamps[base + w] = self.clock;
                return (true, None);
            }
        }
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        let evicted = self.tags[base + victim];
        self.tags[base + victim] = Some(line);
        self.stamps[base + victim] = self.clock;
        (false, evicted)
    }

    fn probe(&self, line: i64) -> bool {
        let base = self.base(line);
        (0..self.ways).any(|w| self.tags[base + w] == Some(line))
    }

    fn invalidate(&mut self, line: i64) {
        let base = self.base(line);
        for w in 0..self.ways {
            if self.tags[base + w] == Some(line) {
                self.tags[base + w] = None;
            }
        }
    }
}

/// The eager hierarchy: per-core L1s over a shared L2.
struct EagerMem {
    l1: Vec<EagerCache>,
    l2: EagerCache,
    lat: (u64, u64, u64),
}

impl EagerMem {
    fn new(c: &SimConfig) -> Self {
        Self {
            l1: (0..c.cores)
                .map(|_| EagerCache::new(c.l1_lines, c.l1_ways))
                .collect(),
            l2: EagerCache::new(c.l2_lines, c.l2_ways),
            lat: (c.l1_lat, c.l2_lat, c.mem_lat),
        }
    }

    fn access_evict(&mut self, core: usize, addr: i64) -> (u64, Option<i64>) {
        let line = line_of(addr);
        let (hit, evicted) = self.l1[core].access_evict(line);
        if hit {
            (self.lat.0, None)
        } else if self.l2.access_evict(line).0 {
            (self.lat.1, evicted)
        } else {
            (self.lat.2, evicted)
        }
    }

    fn install(&mut self, core: usize, addr: i64) {
        let line = line_of(addr);
        self.l1[core].access_evict(line);
        self.l2.access_evict(line);
    }

    fn invalidate_local(&mut self, core: usize, addr: i64) {
        let line = line_of(addr);
        self.l1[core].invalidate(line);
        self.l2.invalidate(line);
    }

    fn invalidate_others(&mut self, core: usize, addr: i64) {
        let line = line_of(addr);
        for (c, l1) in self.l1.iter_mut().enumerate() {
            if c != core {
                l1.invalidate(line);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Key streams
// ---------------------------------------------------------------------------

/// A key drawn from a mix of shapes: a small hot range (hits and set
/// conflicts), the same range negated, a few far-apart clusters, and rare
/// extremes. `unit` scales the hot range (1 for lines, `LINE_WORDS` for
/// word addresses).
fn key(rng: &mut SplitMix64, hot: i64, unit: i64) -> i64 {
    const FAR: [i64; 4] = [1 << 20, 1 << 40, -(1 << 33), i64::MAX / 8];
    match rng.pick(16) {
        0..=9 => rng.gen_range(0, hot) * unit,
        10..=11 => -rng.gen_range(1, hot + 1) * unit,
        12..=14 => FAR[rng.pick(FAR.len())] + rng.gen_range(-hot, hot) * unit,
        _ => [i64::MIN, i64::MAX, i64::MIN / 4, i64::MAX / 4][rng.pick(4)],
    }
}

/// (lines, ways) of every geometry the differential tests cover.
fn geometries() -> Vec<(usize, usize)> {
    let c = SimConfig::cgo2004();
    vec![
        (1, 1),
        (16, 1),
        (32, 2),
        (64, 4),
        (c.l1_lines, c.l1_ways),
        (c.l2_lines, c.l2_ways),
    ]
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// The tag-array cache matches the ordered-list LRU model exactly, access by
/// access and in a final probe sweep (16 sets × 1, 2 and 4 ways).
#[test]
fn cache_matches_lru_model() {
    let mut rng = SplitMix64::seed_from_u64(0x00C0_FFEE);
    for case in 0..300 {
        let ways = [1usize, 2, 4][case % 3];
        let lines = 16 * ways;
        let mut cache = SetAssocCache::new(lines, ways);
        let mut model = ModelCache::new(lines, ways);
        let n = 1 + rng.pick(300);
        for step in 0..n {
            let line = rng.gen_range(0, 64);
            assert_eq!(
                cache.access(line),
                model.access(line),
                "case {case} step {step}: line {line}"
            );
        }
        for line in 0..64 {
            assert_eq!(
                cache.probe(line),
                model.probe(line),
                "case {case}: probe {line}"
            );
        }
    }
}

/// Pipeline timer invariants: issue times are monotone, never earlier than
/// operand readiness, and graduation throughput respects the issue width.
#[test]
fn timer_is_monotone_and_bounded() {
    let config = SimConfig::cgo2004();
    let mut rng = SplitMix64::seed_from_u64(0x71AE);
    for case in 0..300 {
        let mut t = CoreTimer::new(&config, 0);
        let mut last_issue = 0;
        let n = 1 + rng.pick(200) as u64;
        for _ in 0..n {
            let ready = last_issue + rng.gen_range(0, 100) as u64 % 3;
            let lat = rng.gen_range(1, 20) as u64;
            let (issue, complete) = t.issue(ready, lat);
            assert!(issue >= last_issue, "case {case}: issue went backwards");
            assert!(issue >= ready, "case {case}: issued before operands ready");
            assert_eq!(complete, issue + lat);
            last_issue = issue;
        }
        assert_eq!(t.graduated(), n);
        // n instructions need at least n/width cycles.
        assert!(
            last_issue + 1 >= n / config.issue_width,
            "case {case}: {n} instructions in {} cycles on a {}-wide machine",
            last_issue + 1,
            config.issue_width
        );
    }
}

/// The paged tag array answers every access, probe and invalidation like
/// the eager one, with the same victims, on every geometry.
#[test]
fn paged_cache_matches_eager_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xCAC4E);
    for (lines, ways) in geometries() {
        for round in 0..4 {
            let mut paged = SetAssocCache::new(lines, ways);
            let mut eager = EagerCache::new(lines, ways);
            // A hot range a few times the cache keeps sets under pressure
            // while still hitting.
            let hot = (lines as i64 * 3).clamp(4, 4096);
            for step in 0..4000 {
                let line = key(&mut rng, hot, 1);
                let at = format!("{lines}x{ways} round {round} step {step} line {line}");
                match rng.pick(5) {
                    0 => assert_eq!(paged.access(line), eager.access_evict(line).0, "{at}"),
                    1 | 2 => assert_eq!(paged.access_evict(line), eager.access_evict(line), "{at}"),
                    3 => assert_eq!(paged.probe(line), eager.probe(line), "{at}"),
                    _ => {
                        paged.invalidate(line);
                        eager.invalidate(line);
                    }
                }
            }
            for line in -hot..hot {
                assert_eq!(
                    paged.probe(line),
                    eager.probe(line),
                    "{lines}x{ways}: probe {line}"
                );
            }
        }
    }
}

/// The paged hierarchy gives the eager one's latencies and L1 victims under
/// random access, install and invalidation streams from every core.
#[test]
fn paged_hierarchy_matches_eager_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x3E3);
    let table1 = SimConfig::cgo2004();
    for (l1_lines, l1_ways) in geometries() {
        let mut cfg = table1.clone();
        cfg.l1_lines = l1_lines;
        cfg.l1_ways = l1_ways;
        if l1_lines < table1.l1_lines {
            // A small L1 gets a small L2 too, so the stream sees memory,
            // L2 and L1 hits alike.
            cfg.l2_lines = 4 * l1_lines;
            cfg.l2_ways = l1_ways;
        }
        let mut paged = MemSystem::new(&cfg);
        let mut eager = EagerMem::new(&cfg);
        let hot = (cfg.l2_lines as i64 * 2).clamp(8, 8192);
        for step in 0..6000 {
            let core = rng.pick(cfg.cores);
            let addr = key(&mut rng, hot, LINE_WORDS).wrapping_add(rng.gen_range(0, LINE_WORDS));
            let at = format!("L1 {l1_lines}x{l1_ways} step {step} core {core} addr {addr}");
            match rng.pick(8) {
                0..=1 => assert_eq!(
                    paged.access(core, addr),
                    eager.access_evict(core, addr).0,
                    "{at}"
                ),
                2..=4 => assert_eq!(
                    paged.access_evict(core, addr),
                    eager.access_evict(core, addr),
                    "{at}"
                ),
                5 => {
                    paged.install(core, addr);
                    eager.install(core, addr);
                }
                6 => {
                    paged.invalidate_others(core, addr);
                    eager.invalidate_others(core, addr);
                }
                _ => {
                    paged.invalidate_local(core, addr);
                    eager.invalidate_local(core, addr);
                }
            }
        }
    }
}

/// Building the Table 1 hierarchy materializes no tag page; probes and
/// invalidations of untouched sets materialize none either.
#[test]
fn fresh_hierarchy_holds_no_tag_pages() {
    let cfg = SimConfig::cgo2004();
    let mut m = MemSystem::new(&cfg);
    assert_eq!(m.resident_pages(), 0);
    m.invalidate_others(0, 12_345);
    m.invalidate_local(1, -7);
    let mut c = SetAssocCache::new(cfg.l2_lines, cfg.l2_ways);
    assert!(!c.probe(99));
    c.invalidate(99);
    assert_eq!((m.resident_pages(), c.resident_pages()), (0, 0));
    // One access touches one page in the accessing core's L1 and one in
    // the L2.
    m.access(2, 4096);
    assert_eq!(m.resident_pages(), 2);
}

/// A run over a small generated program materializes only a handful of the
/// hierarchy's 288 tag pages (four L1s of 8 pages each plus 256 L2 pages),
/// sequentially and speculating on all four cores.
#[test]
fn small_program_touches_a_handful_of_tag_pages() {
    let cfg = SimConfig::cgo2004();
    let total = cfg.cores * (cfg.l1_lines / cfg.l1_ways).div_ceil(64)
        + (cfg.l2_lines / cfg.l2_ways).div_ceil(64);
    assert_eq!(total, 288);
    let opts = FuzzConfig::default().compile_options();
    for seed in 0..4 {
        let module = generate(seed, &GenConfig::default(), 0);
        let seq = Machine::new(&module, cfg.clone()).run().expect("simulates");
        assert!(seq.instructions > 0);
        assert!(
            (1..=4).contains(&seq.cache_tag_pages),
            "seed {seed}: sequential run materialized {} of {total} tag pages",
            seq.cache_tag_pages
        );
        let h = Harness::from_modules("pages", &module, None, &opts).expect("prepares");
        for mode in [Mode::Unsync, Mode::CompilerRef, Mode::HwSync] {
            let r = h.run(mode).expect("simulates");
            assert!(
                (1..=8).contains(&r.cache_tag_pages),
                "seed {seed} {mode:?}: {} of {total} tag pages materialized",
                r.cache_tag_pages
            );
        }
    }
}
