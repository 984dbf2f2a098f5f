//! Property tests on the HybridLog: under random interleavings of appends,
//! seals, flushes, evictions and device crashes, every committed record is
//! always readable (resident or via the device) and equals what was
//! written.

use dpr_core::{Key, Value, Version};
use dpr_faster::{GetOutcome, RecordLog, NONE_ADDRESS, PAGE_SIZE};
use dpr_storage::{LogDevice, MemLogDevice};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Action {
    Append(u8),
    SealAndFlush,
    Evict,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (0..64u8).prop_map(Action::Append),
        1 => Just(Action::SealAndFlush),
        1 => Just(Action::Evict),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_record_readable_under_random_maintenance(
        actions in prop::collection::vec(action_strategy(), 1..200)
    ) {
        let device = Arc::new(MemLogDevice::null());
        let log = RecordLog::new(device, 0); // min budget: 2 pages
        let mut model: Vec<(u64, u64)> = Vec::new(); // (addr, value)
        for a in &actions {
            match a {
                Action::Append(v) => {
                    let addr = log.append(
                        &log.protect(),
                        &Key::from_u64(model.len() as u64),
                        &Value::from_u64(u64::from(*v)),
                        Version(1),
                        false,
                        NONE_ADDRESS,
                    );
                    model.push((addr, u64::from(*v)));
                }
                Action::SealAndFlush => {
                    let until = log.seal_to_tail();
                    log.flush_until(until).unwrap();
                }
                Action::Evict => {
                    log.maybe_evict();
                }
            }
        }
        // Every address must be readable with the right contents, resident
        // or not.
        for &(addr, expected) in &model {
            let guard = log.protect();
            let value = match log.get_ready(&guard, addr).unwrap() {
                GetOutcome::Resident(r) => r.read_value(),
                GetOutcome::OnDisk => log.read_from_device(addr).unwrap().read_value(),
                GetOutcome::NotReady => unreachable!("get_ready resolved NotReady"),
            };
            prop_assert_eq!(value.as_u64(), Some(expected), "addr {}", addr);
        }
        // Invariants on the region pointers.
        prop_assert!(log.head() <= log.flushed() || log.flushed() == 0);
        prop_assert!(log.flushed() <= log.tail());
        prop_assert!(log.read_only() <= log.tail());
    }

    #[test]
    fn crash_preserves_flushed_prefix_exactly(
        n_before in 1usize..500,
        n_after in 0usize..200,
    ) {
        let device = Arc::new(MemLogDevice::null());
        let (until, spans, written) = {
            let log = RecordLog::new(device.clone(), 1 << 20);
            let mut written = Vec::new();
            for i in 0..n_before as u64 {
                written.push(log.append(
                    &log.protect(),
                    &Key::from_u64(i),
                    &Value::from_u64(i * 3),
                    Version(1),
                    false,
                    NONE_ADDRESS,
                ));
            }
            let until = log.seal_to_tail();
            log.flush_until(until).unwrap();
            // Unflushed suffix: lost at the crash.
            for i in 0..n_after as u64 {
                log.append(&log.protect(), &Key::from_u64(i), &Value::from_u64(999), Version(2), false, NONE_ADDRESS);
            }
            (until, log.segment_spans_until(until), written)
        };
        device.crash();
        let log = RecordLog::recover(device, 1 << 20, until, &spans).unwrap();
        prop_assert_eq!(log.tail(), until, "tail rewinds to the flushed prefix");
        let mut recovered = Vec::new();
        log.scan_range(0, until, &mut |rec| {
            recovered.push((rec.address(), rec.read_value()));
            Ok(())
        }).unwrap();
        prop_assert_eq!(recovered.len(), n_before, "exactly the flushed prefix");
        for (i, ((addr, value), expected_addr)) in
            recovered.into_iter().zip(written).enumerate()
        {
            prop_assert_eq!(addr, expected_addr);
            prop_assert_eq!(value.as_u64(), Some(i as u64 * 3));
        }
    }
}

#[test]
fn device_gc_frees_space_and_later_reads_fail_cleanly() {
    let device = Arc::new(MemLogDevice::null());
    let log = RecordLog::new(device.clone(), 0);
    let page = PAGE_SIZE as u64;
    // Fill a bit more than three pages.
    let mut addrs = Vec::new();
    let mut i = 0u64;
    while log.tail() < 3 * page + page / 2 {
        addrs.push(log.append(
            &log.protect(),
            &Key::from_u64(i),
            &Value::from_u64(i),
            Version(1),
            false,
            NONE_ADDRESS,
        ));
        i += 1;
    }
    let until = log.seal_to_tail();
    log.flush_until(until).unwrap();
    log.evict_to(2 * page);
    assert_eq!(log.head(), 2 * page);
    // GC below the first record at or past one page boundary.
    let below = addrs[0];
    let keep = *addrs.iter().find(|&&a| a >= page).unwrap();
    assert_eq!(log.truncate_below(keep).unwrap(), keep);
    assert_eq!((log.begin(), device.truncated_before()), (keep, keep));
    // Records in [keep, head) still readable from the device; below are gone.
    assert!(log.read_from_device(keep).is_ok());
    assert!(log.read_from_device(below).is_err());
}
