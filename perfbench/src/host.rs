//! Host facts recorded with every result: core count, clock source, cache
//! sizes and compiler. Unreadable facts read "unknown".

use std::fs;

fn sys(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Size of the level-`level` unified or data cache of cpu0, as the kernel
/// prints it (e.g. `4096K`).
fn cache_size(level: &str) -> Option<String> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let ty = sys(&format!("{dir}/type"))?;
        (sys(&format!("{dir}/level"))? == level && ty != "Instruction")
            .then(|| sys(&format!("{dir}/size")))
            .flatten()
    })
}

/// `(name, value)` pairs describing the host and toolchain.
pub fn facts(rustc: &str) -> Vec<(String, String)> {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string());
    vec![
        ("nproc".into(), nproc),
        (
            "clocksource".into(),
            sys("/sys/devices/system/clocksource/clocksource0/current_clocksource")
                .unwrap_or_else(unknown),
        ),
        ("l2_per_core".into(), cache_size("2").unwrap_or_else(unknown)),
        ("l3".into(), cache_size("3").unwrap_or_else(unknown)),
        ("rustc".into(), rustc.to_string()),
    ]
}
