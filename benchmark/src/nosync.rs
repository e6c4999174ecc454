//! Durable writes as on a tmpfs. The program makes its writes durable with
//! `fsync` (`File::sync_all`) and `fdatasync` (`File::sync_data`). This
//! binary defines both C symbols, so the program's calls land here, and
//! they return at once, as they do on a tmpfs such as `/dev/shm`, unless
//! `--fsync` sent them on to the C library.
//!
//! Why: the benchmark may write only inside its checkout, which sits on the
//! machine's disk. On the virtual disk of the 2-vCPU machine the baseline
//! comes from, a small file's fsync took 0.33 ms at the start of a minute
//! of steady syncing and 0.45 ms at its end. Six back-to-back `service`
//! runs, whose jobs make about a dozen such calls each, read a p50 of
//! 5.9-7.6 ms and a tail of 6.6-14.7 ms with the calls reaching the disk,
//! and 3.5-3.9 ms and 4.0-4.7 ms with them skipped. Skipping them still
//! times everything else the program does for durability (writes, renames,
//! the journal and spool protocols), and the traced run still counts each
//! durable operation (`data.io_ops`, `core.journal_appends`).

use std::ffi::CStr;
use std::os::raw::{c_char, c_int, c_void};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

static TO_DISK: AtomicBool = AtomicBool::new(false);
static SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Sends `fsync` and `fdatasync` on to the C library (`--fsync`), or
/// makes them return at once (the default).
pub fn reach_disk(on: bool) {
    TO_DISK.store(on, Ordering::Relaxed);
}

/// Whether `fsync` and `fdatasync` reach the disk.
pub fn reaches_disk() -> bool {
    TO_DISK.load(Ordering::Relaxed)
}

/// Calls that returned without reaching the disk so far.
pub fn skipped() -> u64 {
    SKIPPED.load(Ordering::Relaxed)
}

type SyncFn = unsafe extern "C" fn(c_int) -> c_int;

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
}

/// `RTLD_NEXT` of glibc and musl: look the name up in the objects loaded
/// after this binary, which is where the C library's definition is.
const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;

/// The C library's function `name`, looked up once.
fn libc_fn(name: &'static CStr, slot: &'static OnceLock<usize>) -> SyncFn {
    let addr = *slot.get_or_init(|| {
        // SAFETY: `name` is NUL-terminated and `RTLD_NEXT` is a handle
        // `dlsym` accepts; the call reads nothing else.
        unsafe { dlsym(RTLD_NEXT, name.as_ptr()) as usize }
    });
    assert!(addr != 0, "the C library defines {name:?}");
    // SAFETY: `addr` is the C library's definition of `name`, `fsync` or
    // `fdatasync`, both `int (int)`, which is `SyncFn`.
    unsafe { std::mem::transmute::<usize, SyncFn>(addr) }
}

fn sync(fd: c_int, name: &'static CStr, slot: &'static OnceLock<usize>) -> c_int {
    if !reaches_disk() {
        SKIPPED.fetch_add(1, Ordering::Relaxed);
        return 0;
    }
    let real = libc_fn(name, slot);
    // SAFETY: the caller's argument is passed on unchanged to the function
    // it meant to call.
    unsafe { real(fd) }
}

/// The program's `fsync`.
#[no_mangle]
pub extern "C" fn fsync(fd: c_int) -> c_int {
    static REAL: OnceLock<usize> = OnceLock::new();
    sync(fd, c"fsync", &REAL)
}

/// The program's `fdatasync`.
#[no_mangle]
pub extern "C" fn fdatasync(fd: c_int) -> c_int {
    static REAL: OnceLock<usize> = OnceLock::new();
    sync(fd, c"fdatasync", &REAL)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard library's `sync_all` and `sync_data` land here and
    /// skip the disk by default; with `--fsync` the C library runs, which
    /// refuses a descriptor that is not open.
    #[test]
    fn program_syncs_skip_the_disk_unless_asked() {
        let dir = crate::out_dir().join("test-work").join("nosync");
        std::fs::create_dir_all(&dir).expect("test dir");
        let file = std::fs::File::create(dir.join("f")).expect("file");
        let before = skipped();
        file.sync_all().expect("skipped fsync succeeds");
        file.sync_data().expect("skipped fdatasync succeeds");
        assert!(skipped() >= before + 2);
        assert_eq!((fsync(-1), fdatasync(-1)), (0, 0));

        reach_disk(true);
        let real = (fsync(-1), fdatasync(-1));
        file.sync_all().expect("real fsync succeeds");
        reach_disk(false);
        assert_eq!(real, (-1, -1), "the C library rejects a closed descriptor");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
