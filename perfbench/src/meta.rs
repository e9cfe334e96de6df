//! What a result depends on besides the code: the machine and where the
//! benchmark's files live. Read from `/proc` (Linux only).

use std::path::Path;

/// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` CPU
/// times (`USER_HZ`, 100 on every mainstream Linux build).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (the longest mount point
/// in `/proc/mounts` that contains it), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount_point = fields.next()?.replace("\\040", " ");
            let fs = fields.next()?;
            path.starts_with(&mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// User plus system CPU seconds `pid` has used so far (all threads).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed /proc/{pid}/stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/{pid}/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// CPU seconds this process has used so far.
pub fn own_cpu_seconds() -> f64 {
    cpu_seconds(std::process::id()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_grows_with_work() {
        let before = own_cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(own_cpu_seconds() > before, "{x}");
    }

    #[test]
    fn the_root_mount_has_a_type() {
        assert_ne!(fs_type(Path::new("/")), "unknown");
        assert!(nproc() >= 1);
    }
}
