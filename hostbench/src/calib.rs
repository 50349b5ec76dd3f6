//! Host-speed calibration.
//!
//! The benchmark runs on small shared hosts whose speed drifts by up to 2×
//! over seconds to minutes, as neighbours load the cores and caches they
//! share. Raw op times follow that drift, so two sets of runs of the same
//! code can disagree by far more than any change worth measuring.
//!
//! A fixed kernel that lives here, outside every layer the benchmark
//! measures, is timed between ops, after every [`EVERY_MS`] of op time. Its
//! time says how fast the host is at that moment, and the ops between two
//! calibrations are rescaled to what they would take on the reference host,
//! where one slice of the kernel takes [`REF_SLICE_MS`]. The kernel
//! allocates, fills and frees small vectors, as the pipeline's collections
//! do all the time. Of the kernels tried (an ALU loop, pointer chases from
//! 1 to 64 MiB, a branchy bytecode loop, random reads of a 16 MiB vector,
//! hash-map lookups over 32 Ki to 1 Mi entries, and this one), it was the
//! only one that never widened the run-to-run spread of the simulator, the
//! interpreter, the compiler, the fuzzer or the conformance check. While
//! the host drifted, it cut that spread to a third or less. The others each
//! tracked the pipeline in some periods and drifted against it in others.
//!
//! No change to the pipeline can change the kernel's code, so a change that
//! speeds the pipeline up shows in full. The kernel does share the process's
//! allocator, so a change that leaves the allocator very differently
//! fragmented can move the calibration a little.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Allocations in one slice.
const ALLOCS: usize = 8000;

/// Vectors the kernel keeps alive; each allocation replaces one.
const RING: usize = 512;

/// Time of one slice on the reference host (a 2-vCPU Intel Xeon VM, at
/// its quiet-period speed), in ms. Normalized times are host times scaled
/// to this speed.
pub const REF_SLICE_MS: f64 = 0.18;

/// Op time between two calibrations, in ms.
pub const EVERY_MS: f64 = 100.0;

/// Timed slices in one calibration.
const SLICES: usize = 15;

thread_local! {
    /// The live vectors, and the next allocation's number.
    static LIVE: RefCell<(Vec<Vec<u64>>, usize)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Run one slice and return its time in ms.
fn slice_ms() -> f64 {
    LIVE.with(|live| {
        let (ring, next) = &mut *live.borrow_mut();
        let t0 = Instant::now();
        for _ in 0..ALLOCS {
            let i = *next;
            *next += 1;
            let v = vec![i as u64; 8 + i % 64];
            if ring.len() < RING {
                ring.push(v);
            } else {
                ring[i % RING] = v;
            }
        }
        black_box(&*ring);
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// Fill the kernel's ring, so the first calibration sees it in its steady
/// state.
pub fn prepare() {
    slice_ms();
}

/// Calibrate: one untimed slice to warm the kernel, then the median time of
/// [`SLICES`] slices, in ms.
pub fn measure() -> f64 {
    slice_ms();
    let mut v: Vec<f64> = (0..SLICES).map(|_| slice_ms()).collect();
    v.sort_by(f64::total_cmp);
    v[SLICES / 2]
}

/// `ms` measured between two calibrations, rescaled to the reference host.
pub fn normalize(ms: f64, before: f64, after: f64) -> f64 {
    ms * REF_SLICE_MS * 2.0 / (before + after)
}
