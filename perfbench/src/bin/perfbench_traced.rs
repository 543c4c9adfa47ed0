//! The traced benchmark binary: spans, per-layer counters, and the counting
//! allocator behind the `alloc.*` metrics.
//! Usage: `perfbench_traced --workload W --seed N --seconds S --trace-out PATH`.

#[global_allocator]
static ALLOC: perfbench::alloc_count::CountingAlloc = perfbench::alloc_count::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
