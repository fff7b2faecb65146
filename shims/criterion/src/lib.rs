//! Offline stand-in for `criterion`.
//!
//! Same macro/API surface as the subset the workspace's benches use
//! (`criterion_group!`, `criterion_main!`, groups, `bench_with_input`,
//! `Bencher::iter`), implemented as a plain wall-clock harness: warm up
//! briefly, auto-scale the iteration count to a target measurement
//! window, report ns/iter (median of samples). No statistics engine, no
//! HTML reports — the point is comparable numbers from `cargo bench`
//! with zero external dependencies.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Identifies a parameterized benchmark (`function_name/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    /// Median ns/iter over the measurement samples, filled by `iter`.
    result_ns: f64,
    samples: usize,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: find an iteration count that runs
        // ~10ms, so Instant overhead is negligible.
        let mut n = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(10) || n >= 1 << 30 {
                break;
            }
            n = if elapsed.is_zero() {
                n * 64
            } else {
                let scale =
                    Duration::from_millis(12).as_nanos() as f64 / elapsed.as_nanos().max(1) as f64;
                ((n as f64 * scale) as u64).max(n + 1)
            };
        }
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / n as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        self.result_ns = per_iter[per_iter.len() / 2];
    }
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        result_ns: f64::NAN,
        samples,
    };
    f(&mut b);
    let ns = b.result_ns;
    let human = if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    };
    println!("{label:<48} time: {human}/iter");
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Criterion requires >= 10; keep the shim's floor small but sane.
        self.samples = n.clamp(3, 100);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().id);
        run_one(&label, self.samples, &mut f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.id);
        run_one(&label, self.samples, &mut |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { samples: 11 }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.samples;
        BenchmarkGroup {
            name: name.into(),
            samples,
            _parent: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into().id, self.samples, &mut f);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(3);
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &n| {
            b.iter(|| black_box(n) * black_box(n))
        });
        group.finish();
    }

    criterion_group!(smoke, tiny_bench);

    #[test]
    fn harness_runs_and_reports() {
        smoke();
    }
}
