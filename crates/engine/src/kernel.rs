//! Session-wide kernel selection, mirroring the worker-count default in
//! [`crate::pool`].
//!
//! The `--kernel {reference,batch,sweep}` flag is parsed once by the
//! drivers and stored here; deep call chains ([`crate::PolicyKind::simulate`],
//! the figure sweeps) pick it up without plumbing a parameter through every
//! signature. The choice is between the reference simulators and the fast
//! path, which `batch` and `sweep` both name. All kernels are bit-identical
//! in output, so this setting is purely a performance choice — journal keys
//! and resumed sweeps are unaffected by it.

use std::sync::atomic::{AtomicU8, Ordering};

use dynex_cache::Kernel;

/// Session-wide kernel override. Encoding: 0 = batch (the default),
/// 1 = reference, 2 = sweep.
static DEFAULT_KERNEL: AtomicU8 = AtomicU8::new(0);

/// Sets the session-wide kernel used by [`default_kernel`]. Drivers call
/// this once after argument parsing.
pub fn set_default_kernel(kernel: Kernel) {
    let encoded = match kernel {
        Kernel::Batch => 0u8,
        Kernel::Reference => 1,
        Kernel::Sweep => 2,
    };
    DEFAULT_KERNEL.store(encoded, Ordering::Relaxed);
}

/// The kernel used when a caller does not specify one: the
/// [`set_default_kernel`] override if set, else [`Kernel::Batch`].
///
/// # Examples
///
/// ```
/// use dynex_engine::{default_kernel, set_default_kernel, Kernel};
///
/// assert_eq!(default_kernel(), Kernel::Batch);
/// set_default_kernel(Kernel::Sweep);
/// assert_eq!(default_kernel(), Kernel::Sweep);
/// set_default_kernel(Kernel::Batch);
/// ```
pub fn default_kernel() -> Kernel {
    match DEFAULT_KERNEL.load(Ordering::Relaxed) {
        1 => Kernel::Reference,
        2 => Kernel::Sweep,
        _ => Kernel::Batch,
    }
}
