//! Flat, word-addressed, paged memory.

use tls_ir::FastMap;

const PAGE_WORDS: usize = 1024;

/// A sparse 64-bit word-addressed memory. Unwritten words read as zero.
///
/// Shared between the sequential interpreter and the simulator's committed
/// architectural state.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: FastMap<i64, Box<[i64; PAGE_WORDS]>>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memory initialized with a module's globals.
    pub fn with_globals(module: &tls_ir::Module) -> Self {
        let mut mem = Self::new();
        for g in &module.globals {
            for (i, &v) in g.init.iter().enumerate() {
                mem.write(g.addr + i as i64, v);
            }
        }
        mem
    }

    #[inline]
    fn split(addr: i64) -> (i64, usize) {
        (
            addr.div_euclid(PAGE_WORDS as i64),
            addr.rem_euclid(PAGE_WORDS as i64) as usize,
        )
    }

    /// Read the word at `addr` (zero if never written).
    #[inline]
    pub fn read(&self, addr: i64) -> i64 {
        let (p, o) = Self::split(addr);
        self.pages.get(&p).map_or(0, |page| page[o])
    }

    /// Write `val` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: i64, val: i64) {
        let (p, o) = Self::split(addr);
        self.pages
            .entry(p)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[o] = val;
    }

    /// Number of resident pages (diagnostics only).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The first `(addr, self_value, other_value)` where the two memories
    /// disagree, in address order, or `None` if they hold the same words.
    ///
    /// Comparison is semantic: a page full of zeros equals an absent page,
    /// so two memories with different page residency can still be equal.
    pub fn first_diff(&self, other: &Memory) -> Option<(i64, i64, i64)> {
        self.first_diff_outside(other, &(0..0))
    }

    /// Like [`Memory::first_diff`], but words with addresses in `skip` are
    /// not compared. Used to exclude compiler-introduced scratch (the
    /// memory-resident synchronization flags live past the original
    /// program's globals) from architectural-equality checks.
    pub fn first_diff_outside(
        &self,
        other: &Memory,
        skip: &std::ops::Range<i64>,
    ) -> Option<(i64, i64, i64)> {
        static ZERO_PAGE: [i64; PAGE_WORDS] = [0; PAGE_WORDS];
        let mut pages: Vec<i64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        for p in pages {
            let a = self.pages.get(&p).map_or(&ZERO_PAGE, |pg| pg);
            let b = other.pages.get(&p).map_or(&ZERO_PAGE, |pg| pg);
            // Equal pages (the common case) compare as whole slices; only a
            // page that differs is scanned word by word.
            if a == b {
                continue;
            }
            let base = p * PAGE_WORDS as i64;
            for (o, (&va, &vb)) in a.iter().zip(b.iter()).enumerate() {
                let addr = base + o as i64;
                if va != vb && !skip.contains(&addr) {
                    return Some((addr, va, vb));
                }
            }
        }
        None
    }

    /// Do the two memories hold the same words? (See [`Memory::first_diff`].)
    pub fn same_words(&self, other: &Memory) -> bool {
        self.first_diff(other).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(1 << 40), 0);
        assert_eq!(m.read(-5), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut m = Memory::new();
        for addr in [0i64, 1, 1023, 1024, 1025, -1, -1024, 1 << 30] {
            m.write(addr, addr.wrapping_mul(7) + 1);
        }
        for addr in [0i64, 1, 1023, 1024, 1025, -1, -1024, 1 << 30] {
            assert_eq!(m.read(addr), addr.wrapping_mul(7) + 1, "addr {addr}");
        }
        assert_eq!(m.read(2), 0);
    }

    #[test]
    fn diff_is_semantic_and_ordered() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert!(a.same_words(&b));
        // Residency alone is not a difference.
        a.write(5, 0);
        assert!(a.same_words(&b) && b.same_words(&a));
        a.write(2048, 7);
        b.write(2048, 7);
        b.write(-3, 1);
        a.write(9000, 4);
        // First difference in address order: -3.
        assert_eq!(a.first_diff(&b), Some((-3, 0, 1)));
        b.write(-3, 0);
        assert_eq!(a.first_diff(&b), Some((9000, 4, 0)));
        b.write(9000, 4);
        assert!(a.same_words(&b));
    }

    #[test]
    fn diff_inside_skip_is_ignored() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write(100, 1);
        a.write(101, 2);
        assert_eq!(a.first_diff_outside(&b, &(100..102)), None);
        assert_eq!(a.first_diff_outside(&b, &(100..101)), Some((101, 2, 0)));
    }

    #[test]
    fn later_diff_on_a_skipped_page_is_found() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(5, 1);
        a.write(900, 3);
        b.write(900, 4);
        // The page differs at 5 (skipped) and again at 900.
        assert_eq!(a.first_diff_outside(&b, &(0..10)), Some((900, 3, 4)));
        assert_eq!(b.first_diff_outside(&a, &(0..10)), Some((900, 4, 3)));
    }

    #[test]
    fn absent_page_equals_a_zero_filled_page() {
        let mut a = Memory::new();
        let b = Memory::new();
        for addr in 2048..2048 + PAGE_WORDS as i64 {
            a.write(addr, 0);
        }
        a.write(-7, 0);
        assert_eq!(a.resident_pages(), 2);
        assert_eq!(a.first_diff_outside(&b, &(0..0)), None);
        assert_eq!(b.first_diff_outside(&a, &(0..0)), None);
        a.write(2048 + 17, 9);
        assert_eq!(b.first_diff_outside(&a, &(0..0)), Some((2048 + 17, 0, 9)));
    }

    #[test]
    fn with_globals_loads_initializers() {
        let mut mb = tls_ir::ModuleBuilder::new();
        let g = mb.add_global("tbl", 6, vec![9, 8, 7]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let mem = Memory::with_globals(&m);
        let base = m.global(g).addr;
        assert_eq!(mem.read(base), 9);
        assert_eq!(mem.read(base + 2), 7);
        assert_eq!(mem.read(base + 3), 0); // zero-padded tail
    }
}
