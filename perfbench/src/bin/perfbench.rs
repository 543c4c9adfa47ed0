//! The untraced benchmark binary: end-to-end metrics, no counting allocator.
//! Usage: `perfbench --workload W --seed N --seconds S`.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
