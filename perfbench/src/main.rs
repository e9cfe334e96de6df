//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload tune-gp|tune-sim|serve-fleet --seed N --seconds S
//!           --trace 0|1 --work-dir DIR [--serve-bin PATH]
//!           [--rustc TEXT] [--commit TEXT]
//! ```
//!
//! Prints a metadata line, then one JSON result line. An untraced run
//! reports the end-to-end metrics; a traced run the per-layer ones. Exit
//! code 0 when every output check passed, 1 when one failed, 2 on usage
//! errors. `run.py` next to this package builds and drives it.

mod calib;
mod fleet;
mod layers;
mod meta;
mod report;
mod stats;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
    serve_bin: Option<PathBuf>,
    rustc: String,
    commit: String,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        need(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: need("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        work_dir: PathBuf::from(need("--work-dir")?),
        serve_bin: get("--serve-bin").map(PathBuf::from),
        rustc: get("--rustc").unwrap_or("unknown").to_string(),
        commit: get("--commit").unwrap_or("unknown").to_string(),
    })
}

/// A seed for item `k` of a run seeded with `seed` (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's own input generator, independent of the program's.
pub struct Rng(pub u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        derive_seed(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: usage: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let mut report = Report::default();
    report.meta("workload", &args.workload);
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("trace", u8::from(args.trace));
    report.meta("nproc", meta::nproc());
    report.meta("work_fs", meta::fs_type(&work));
    report.meta("rustc", &args.rustc);
    report.meta("commit", &args.commit);
    let started = std::time::Instant::now();
    match args.workload.as_str() {
        "tune-gp" => tune::run(tune::Kind::Gp, &args, &work, &mut report),
        "tune-sim" => tune::run(tune::Kind::Sim, &args, &work, &mut report),
        "serve-fleet" => fleet::run(&args, &work, &mut report),
        other => {
            eprintln!("perfbench: usage: unknown workload '{other}'");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    }
    report.meta("run_wall_s", started.elapsed().as_secs_f64());
    if let Err(e) = std::fs::remove_dir_all(&work) {
        report.fail(&format!("remove {}: {e}", work.display()));
    }
    let (meta_line, result) = report.render(args.trace);
    println!("{meta_line}");
    println!("{result}");
    if result.starts_with("{\"correct\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_reproducible_and_spread() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        let mut rng = Rng(1);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(56) < 56);
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv: Vec<String> = "--workload tune-gp --seed 3 --seconds 10 --trace 1 --work-dir w"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv).expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(parse(&argv[..4]).is_err());
        let mut bad = argv.clone();
        bad[7] = "2".to_string();
        assert!(parse(&bad).is_err());
    }
}
