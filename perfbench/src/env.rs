//! Records the environment a run measured on.

use std::path::Path;

/// SIMD and bit-manipulation flags the kernels' runtime dispatch and the
/// `target-cpu=native` build can use.
const CPU_FLAGS: [&str; 10] = [
    "sse4_2",
    "popcnt",
    "avx",
    "avx2",
    "fma",
    "bmi2",
    "avx512f",
    "avx512bw",
    "avx512vl",
    "avx512_vnni",
];

/// Prints one `env <key> = <value>` line per recorded property.
pub fn print(workload: &str, seed: u64, seconds: u64, trace: bool) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let present: Vec<&str> = CPU_FLAGS
        .iter()
        .copied()
        .filter(|f| flags.split_whitespace().any(|g| g == *f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("env workload = {workload}");
    println!("env seed = {seed}");
    println!("env run_seconds = {seconds}");
    println!("env trace = {}", u8::from(trace));
    println!(
        "env git_rev = {}",
        git_rev().unwrap_or_else(|| "unknown".into())
    );
    println!("env nproc = {nproc}");
    println!(
        "env cpu_model = {}",
        field("model name").unwrap_or_else(|| "unknown".into())
    );
    println!("env cpu_flags = {}", present.join(" "));
    println!("env rustc = {rustc}");
    println!("env build = release, target-cpu=native (.cargo/config.toml)");
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`:
/// on a virtual machine, steal is time the host ran something else while
/// this guest's CPUs were runnable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_rev() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
