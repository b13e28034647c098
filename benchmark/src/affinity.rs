//! Pinning the process to one CPU, for the workload whose cost is thread
//! hand-offs.
//!
//! On a 2-vCPU guest a chain of wake-ups (client -> connection worker ->
//! batcher -> engine worker and back) takes ~25 µs when every thread sits
//! on one vCPU and ~125 µs when the scheduler spreads them, because each
//! cross-vCPU wake-up is an inter-processor interrupt through the
//! hypervisor. Which of the two a run gets is the scheduler's coin: of 20
//! unpinned runs 2 ran packed (29k req/s) and 18 spread (7k req/s). Pinned,
//! four runs read 32.2k-34.5k req/s. So `http_small_closed` measures the
//! software path on one CPU and leaves the hypervisor out.
//!
//! `std` has no affinity call and the benchmark takes no dependency, so
//! this is the raw `sched_setaffinity` system call. It applies to the
//! calling thread; threads spawned afterwards inherit it.

/// Words of a CPU mask: room for 1024 CPUs.
type Mask = [u64; 16];

/// The `Cpus_allowed:` line of `/proc/<pid>/status`: comma-separated
/// 32-bit hex groups, most significant first.
pub fn parse_cpus_allowed(status: &str) -> Option<Mask> {
    let line = status.lines().find(|l| l.starts_with("Cpus_allowed:"))?;
    let mut mask = [0u64; 16];
    for (i, group) in line.split_whitespace().nth(1)?.rsplit(',').enumerate() {
        let bits = u64::from(u32::from_str_radix(group, 16).ok()?);
        *mask.get_mut(i / 2)? |= bits << (32 * (i % 2));
    }
    Some(mask)
}

/// The highest CPU in `mask` (kernel housekeeping favours the low ones).
pub fn last_cpu(mask: &Mask) -> Option<usize> {
    (0..mask.len() * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity(mask: &Mask) -> isize {
    let ret: isize;
    // SAFETY: system call 203 (sched_setaffinity) with pid 0 (this
    // thread), the mask's size in bytes and a pointer to the mask, which
    // the kernel only reads for that many bytes and which outlives the
    // call. `syscall` clobbers rcx and r11, declared below; no memory is
    // written and the stack is untouched.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<Mask>(),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sched_setaffinity(mask: &Mask) -> isize {
    let ret: isize;
    // SAFETY: system call 122 (sched_setaffinity) with pid 0, the mask's
    // size in bytes and a pointer to the mask, read-only for the kernel
    // and alive across the call; `svc 0` returns in x0 and touches no
    // other register or memory.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize,
            inlateout("x0") 0isize => ret,
            in("x1") std::mem::size_of::<Mask>(),
            in("x2") mask.as_ptr(),
            options(nostack, readonly),
        );
    }
    ret
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sched_setaffinity(_mask: &Mask) -> isize {
    -38 // ENOSYS
}

/// While alive, the creating thread and everything it spawns run on one
/// CPU; dropping it gives the creating thread its CPUs back.
pub struct Pinned {
    original: Mask,
}

impl Pinned {
    /// Pins to the highest allowed CPU.
    pub fn new() -> Result<Self, String> {
        let status =
            std::fs::read_to_string("/proc/thread-self/status").map_err(|e| e.to_string())?;
        let original =
            parse_cpus_allowed(&status).ok_or("no Cpus_allowed in /proc/thread-self/status")?;
        let cpu = last_cpu(&original).ok_or("empty CPU mask")?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        match sched_setaffinity(&one) {
            0 => Ok(Self { original }),
            errno => Err(format!("sched_setaffinity to CPU {cpu} failed ({errno})")),
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        sched_setaffinity(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpus_allowed_parses_hex_groups_least_significant_last() {
        let mask =
            parse_cpus_allowed("Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n").unwrap();
        assert_eq!((mask[0], last_cpu(&mask)), (3, Some(1)));
        let wide = parse_cpus_allowed("Cpus_allowed:\t00000001,00000000,80000001\n").unwrap();
        assert_eq!((wide[0], wide[1]), (0x8000_0001, 1));
        assert_eq!(last_cpu(&wide), Some(64));
        assert_eq!(parse_cpus_allowed("Cpus_allowed:\tzz\n"), None);
        assert_eq!(parse_cpus_allowed("nothing"), None);
        assert_eq!(last_cpu(&[0; 16]), None);
    }

    #[test]
    fn pinning_narrows_the_thread_to_one_cpu_and_dropping_restores_it() {
        // On its own thread: other tests must not inherit the mask.
        std::thread::spawn(|| {
            let allowed = || {
                parse_cpus_allowed(&std::fs::read_to_string("/proc/thread-self/status").unwrap())
                    .unwrap()
            };
            let before = allowed();
            let pinned = Pinned::new().expect("pin");
            let during = allowed();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(last_cpu(&during), last_cpu(&before));
            let child = std::thread::spawn(allowed).join().unwrap();
            assert_eq!(child, during, "spawned threads inherit the pin");
            drop(pinned);
            assert_eq!(allowed(), before);
        })
        .join()
        .unwrap();
    }
}
