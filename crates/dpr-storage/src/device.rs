//! The append-only log-device abstraction.

use dpr_core::Result;

/// An append-only logical byte address space with an explicit durable
/// frontier.
///
/// * [`LogDevice::append`] buffers data and returns the logical address it
///   was placed at; appended data is readable immediately but **not**
///   durable.
/// * [`LogDevice::flush`] makes everything appended so far durable and
///   advances the durable frontier. This is where injected device latency is
///   charged.
/// * [`LogDevice::read`] serves reads from anywhere below the tail,
///   regardless of durability — the volatile suffix is exactly the part a
///   crash loses.
///
/// Addresses are dense: the first append lands at 0 and address
/// `tail()` is one past the last appended byte.
pub trait LogDevice: Send + Sync {
    /// Append `data`, returning its starting logical address.
    fn append(&self, data: &[u8]) -> Result<u64>;

    /// Read `buf.len()` bytes starting at `addr`. Returns the number of
    /// bytes read (short reads only at the tail).
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<usize>;

    /// Make all appended data durable; returns the new durable frontier.
    fn flush(&self) -> Result<u64>;

    /// One past the last appended byte.
    fn tail(&self) -> u64;

    /// One past the last *durable* byte.
    fn durable_frontier(&self) -> u64;

    /// Free storage below `addr` (log truncation after checkpoint GC).
    /// Reads below the truncation point may fail afterwards.
    fn truncate_before(&self, addr: u64) -> Result<()>;

    /// The truncation point: the address below which reads may fail, `0` on
    /// a device that keeps its history. Recovery starts the log where the
    /// device still has it.
    fn truncated_before(&self) -> u64 {
        0
    }
}

/// Read a full buffer or fail; convenience over [`LogDevice::read`].
pub fn read_exact(dev: &dyn LogDevice, addr: u64, buf: &mut [u8]) -> Result<()> {
    let n = dev.read(addr, buf)?;
    if n != buf.len() {
        return Err(dpr_core::DprError::Storage(format!(
            "short read at {addr}: wanted {}, got {n}",
            buf.len()
        )));
    }
    Ok(())
}
