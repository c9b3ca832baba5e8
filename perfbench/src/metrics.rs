//! Metric definitions and the benchmark's output: readable lines, a
//! detail file and the spans file under `perfbench/out/`, and the final
//! JSON line.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

use crate::stats::{median, tail};
use crate::trace::{coverage, layer_self_ns, Span};
use crate::workloads::Counts;
use crate::{bench_dir, calib, Args, Paced, Tally, Timed};

/// End-to-end metrics in `BENCHMARK.json`: (name, unit, better). They
/// apply to every workload, so the final line of `--trace 0` always
/// carries all of them. Times are at the reference host speed.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("run_ms_p50", "ms", "lower"),
    ("run_ms_tail", "ms", "lower"),
    ("peak_heap_mb", "MB", "lower"),
];

/// Per-layer metrics in `BENCHMARK.json`, in print order. A layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    ("core.plan.self_ms", "ms", "lower"),
    ("timetag.mc.self_ms", "ms", "lower"),
    ("timetag.mc.tags", "count", "higher"),
    ("timetag.mc.mtags_per_s", "Mtag/s", "higher"),
    ("timetag.mc.allocs", "count", "lower"),
    ("timetag.mc.par_eff", "ratio", "higher"),
    ("timetag.linewidth.self_ms", "ms", "lower"),
    ("timetag.linewidth.pairs", "count", "higher"),
    ("timetag.linewidth.par_eff", "ratio", "higher"),
    ("coincidence.assemble.self_ms", "ms", "lower"),
    ("coincidence.assemble.allocs", "count", "lower"),
    ("coincidence.assemble.par_eff", "ratio", "higher"),
    ("coincidence.matrix.self_ms", "ms", "lower"),
    ("coincidence.matrix.cells", "count", "higher"),
    ("coincidence.car.self_ms", "ms", "lower"),
    ("coincidence.car.channels", "count", "higher"),
    ("coincidence.histogram.self_ms", "ms", "lower"),
    ("coincidence.histogram.pairs", "count", "higher"),
    ("tomography.bell.self_ms", "ms", "lower"),
    ("tomography.bell.iterations", "count", "lower"),
    ("tomography.bell.par_eff", "ratio", "higher"),
    ("core.fringe.self_ms", "ms", "lower"),
    ("tomography.counts.self_ms", "ms", "lower"),
    ("tomography.counts.events", "count", "higher"),
    ("tomography.counts.cells_nonzero", "count", "higher"),
    ("tomography.mle.self_ms", "ms", "lower"),
    ("tomography.mle.iterations", "count", "lower"),
    ("tomography.mle.ms_per_iter", "ms", "lower"),
    ("tomography.mle.useful_frac", "ratio", "higher"),
    ("tomography.mle.allocs", "count", "lower"),
    ("core.report.self_ms", "ms", "lower"),
    ("core.report.bytes", "bytes", "lower"),
    ("campaign.plan.calls", "count", "lower"),
    ("campaign.plan.self_ms", "ms", "lower"),
    ("campaign.shard.calls", "count", "lower"),
    ("campaign.shard.self_ms", "ms", "lower"),
    ("campaign.shard.payload_mb", "MB", "lower"),
    ("campaign.shard.par_eff", "ratio", "higher"),
    ("campaign.merge.calls", "count", "lower"),
    ("campaign.merge.self_ms", "ms", "lower"),
    ("campaign.checkpoint_write.self_ms", "ms", "lower"),
    ("campaign.checkpoint_write.mb", "MB", "lower"),
    ("campaign.checkpoint_read.self_ms", "ms", "lower"),
    ("campaign.checkpoint_read.mb", "MB", "lower"),
    ("campaign.checkpoint_read.mb_per_s", "MB/s", "higher"),
    (
        "campaign.checkpoint_read.ms_per_mb_largest",
        "ms/MB",
        "lower",
    ),
    (
        "campaign.checkpoint_read.ms_per_mb_smallest",
        "ms/MB",
        "lower",
    ),
    ("campaign.checkpoint_read.resumed", "count", "higher"),
    ("campaign.checkpoint_read.rejected", "count", "lower"),
    ("obs.collector_overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
];

/// Layers with a per-layer metric named `<layer><suffix>`.
fn layers_with(suffix: &str) -> impl Iterator<Item = &'static str> + '_ {
    PER_LAYER
        .iter()
        .filter_map(move |(name, _, _)| name.strip_suffix(suffix))
}

/// One traced cycle's readings, all on one seed.
pub struct Cycle {
    pub untraced_ms: f64,
    pub collector_ms: f64,
    /// Run id of the cycle's traced decomposition at 2 threads.
    pub traced_run: u32,
    pub counts: Counts,
}

/// A traced run: its id in the spans, pool threads and seed, and whether
/// the allocator counted (its spans then give allocator calls, never
/// times).
pub struct TracedRun {
    pub id: u32,
    pub threads: usize,
    pub seed: u64,
    pub counting: bool,
}

/// A printed metric: value, unit and the samples behind it.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        // JSON has no NaN; a ratio with no base reads 0.
        value: if value.is_finite() { value } else { 0.0 },
        note,
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Everything one invocation prints and writes.
pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    provenance: String,
    /// The metrics of the final line.
    main: Vec<Metric>,
    /// Workload-specific end-to-end metrics, printed only.
    extra: Vec<Metric>,
    /// Raw samples for the detail file, as JSON members.
    samples: Vec<String>,
    /// Readable lines printed after the metrics.
    summary: Vec<String>,
}

impl Report {
    pub fn new(args: &Args, provenance: String) -> Self {
        Self {
            workload: args.workload,
            seed: args.seed,
            trace: args.trace,
            provenance,
            main: Vec::new(),
            extra: Vec::new(),
            samples: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Times at the reference host speed (the metrics of `BENCHMARK.json`)
    /// for a workload whose times follow slowness^`exponent`, each
    /// printed once more as measured (`_wall`). `peak_mb` is the heap
    /// growth of the untimed counting run.
    pub fn end_to_end(
        &mut self,
        setups: &[Paced],
        peak_mb: Option<f64>,
        samples: &[Timed],
        exponent: f64,
    ) {
        let n = samples.len();
        let median_or_0 = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let setup_wall: Vec<f64> = setups.iter().map(|p| p.wall).collect();
        let setup: Vec<f64> = setups.iter().map(|p| p.calibrated(exponent)).collect();
        let run_wall: Vec<f64> = samples.iter().map(|s| s.out.ms).collect();
        let run: Vec<f64> = samples
            .iter()
            .map(|s| s.calibrated(s.out.ms, exponent))
            .collect();
        let busy_wall = samples.iter().map(|s| s.iteration.wall).sum::<f64>() / 1e3;
        let busy = samples
            .iter()
            .map(|s| s.iteration.calibrated(exponent))
            .sum::<f64>()
            / 1e3;
        let slowness: Vec<f64> = samples.iter().map(|s| s.iteration.slowness).collect();
        let setups_note = format!("median of {} set-ups", setups.len());
        let main = [
            metric("setup_s", "s", median_or_0(&setup), setups_note.clone()),
            metric("run_ms_p50", "ms", median_or_0(&run), format!("n={n}")),
            tail_metric("run_ms_tail", &run),
            metric(
                "peak_heap_mb",
                "MB",
                peak_mb.unwrap_or(0.0),
                "one untimed run, allocator counting".to_owned(),
            ),
        ];
        debug_assert!(main.iter().map(|m| m.name.as_str()).eq(END_TO_END.map(|m| m.0)));
        self.main.extend(main);
        // Printed, not in `BENCHMARK.json`: on `campaign-heralded` it is
        // mostly the resume, whose time swings with more than the host's
        // CPU speed.
        self.extra.extend([
            metric(
                "runs_per_s",
                "1/s",
                n as f64 / busy,
                format!("{n} runs in {busy:.3} s"),
            ),
            metric("setup_s_wall", "s", median_or_0(&setup_wall), setups_note),
            metric("run_ms_p50_wall", "ms", median_or_0(&run_wall), format!("n={n}")),
            tail_metric("run_ms_tail_wall", &run_wall),
            metric(
                "runs_per_s_wall",
                "1/s",
                n as f64 / busy_wall,
                format!("{n} runs in {busy_wall:.3} s"),
            ),
        ]);

        let resumed: Vec<(&Timed, f64)> = samples
            .iter()
            .filter_map(|s| s.out.resume_ms.map(|ms| (s, ms)))
            .collect();
        if !resumed.is_empty() {
            let wall: Vec<f64> = resumed.iter().map(|r| r.1).collect();
            let resume: Vec<f64> = resumed
                .iter()
                .map(|&(s, ms)| s.calibrated(ms, exponent))
                .collect();
            let note = format!("n={}", wall.len());
            self.extra.extend([
                metric("resume_ms_p50", "ms", median_or_0(&resume), note.clone()),
                tail_metric("resume_ms_tail", &resume),
                metric("resume_ms_p50_wall", "ms", median_or_0(&wall), note),
                tail_metric("resume_ms_tail_wall", &wall),
            ]);
            self.samples
                .push(format!("\"resume_ms\": {}", json_list(&wall)));
        }
        self.extra.push(metric(
            "host_slowness",
            "x",
            median_or_0(&slowness),
            format!(
                "median over runs of the calibration kernel's time / {} ms; times divided by slowness^{exponent}",
                calib::REF_MS
            ),
        ));
        let rows: Vec<(usize, usize)> = samples.iter().filter_map(|s| s.out.rows).collect();
        if !rows.is_empty() {
            let (passed, total) = rows.iter().fold((0, 0), |(p, t), r| (p + r.0, t + r.1));
            self.extra.push(metric(
                "paper_pass_frac",
                "ratio",
                passed as f64 / total as f64,
                format!("{passed} of {total} rows in {} runs", rows.len()),
            ));
        }
        let errs: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.out.fidelity_abs_err)
            .collect();
        if !errs.is_empty() {
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            let max = errs.iter().copied().fold(0.0, f64::max);
            self.extra.push(metric(
                "fidelity_abs_err",
                "1",
                mean,
                format!("mean of n={}, max {max:.4}", errs.len()),
            ));
        }
        let setup_slowness: Vec<f64> = setups.iter().map(|p| p.slowness).collect();
        self.samples.extend([
            format!("\"setup_s\": {}", json_list(&setup_wall)),
            format!("\"setup_slowness\": {}", json_list(&setup_slowness)),
            format!("\"run_ms\": {}", json_list(&run_wall)),
            format!("\"run_slowness\": {}", json_list(&slowness)),
            format!(
                "\"peak_heap_mb\": {}",
                json_list(&peak_mb.into_iter().collect::<Vec<_>>())
            ),
        ]);
    }

    pub fn per_layer(&mut self, cycles: &[Cycle], runs: &[TracedRun], spans: &[Span]) {
        let ids = |threads: usize, counting: bool| -> Vec<u32> {
            runs.iter()
                .filter(|r| r.threads == threads && r.counting == counting)
                .map(|r| r.id)
                .collect()
        };
        let (two, one, counted) = (ids(crate::THREADS, false), ids(1, false), ids(1, true));
        let per_run = |ids: &[u32], f: &dyn Fn(u32) -> f64| -> f64 {
            let xs: Vec<f64> = ids.iter().map(|&id| f(id)).collect();
            median(&xs).unwrap_or(0.0)
        };
        let self_ms = |ids: &[u32], name: &str| {
            per_run(ids, &|id| layer_self_ns(spans, id, name) as f64 / 1e6)
        };
        let named = |id: u32, name: &'static str| {
            spans.iter().filter(move |s| s.run == id && s.name == name)
        };
        let root = |id: u32| named(id, "run").find(|s| s.parent.is_none());
        let root_ms = |id: u32| root(id).map(|r| (r.end_ns - r.start_ns) as f64 / 1e6);

        let mut v: BTreeMap<String, f64> = BTreeMap::new();
        for name in layers_with(".self_ms") {
            v.insert(format!("{name}.self_ms"), self_ms(&two, name));
        }
        for name in layers_with(".par_eff") {
            let at_two = self_ms(&two, name);
            let eff = if at_two > 0.0 {
                self_ms(&one, name) / (2.0 * at_two)
            } else {
                0.0
            };
            v.insert(format!("{name}.par_eff"), eff);
        }
        for name in layers_with(".allocs") {
            let allocs = per_run(&counted, &|id| {
                named(id, name).fold(0.0, |a, s| a + s.allocs as f64)
            });
            v.insert(format!("{name}.allocs"), allocs);
        }
        for name in layers_with(".calls") {
            let calls = per_run(&two, &|id| named(id, name).count() as f64);
            v.insert(format!("{name}.calls"), calls);
        }
        let keys: BTreeSet<&str> = cycles
            .iter()
            .flat_map(|c| c.counts.keys().copied())
            .collect();
        for key in keys {
            let xs: Vec<f64> = cycles
                .iter()
                .map(|c| c.counts.get(key).copied().unwrap_or(0.0))
                .collect();
            let value = if key.ends_with("_frac") {
                xs.iter().sum::<f64>() / xs.len() as f64
            } else {
                median(&xs).unwrap_or(0.0)
            };
            v.insert(key.to_owned(), value);
        }
        let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        v.insert(
            "timetag.mc.mtags_per_s".into(),
            ratio(
                get(&v, "timetag.mc.tags") / 1e6,
                get(&v, "timetag.mc.self_ms") / 1e3,
            ),
        );
        v.insert(
            "tomography.mle.ms_per_iter".into(),
            ratio(
                get(&v, "tomography.mle.self_ms"),
                get(&v, "tomography.mle.iterations"),
            ),
        );
        v.insert(
            "campaign.checkpoint_read.mb_per_s".into(),
            ratio(
                get(&v, "campaign.checkpoint_read.mb"),
                get(&v, "campaign.checkpoint_read.self_ms") / 1e3,
            ),
        );
        let untraced: Vec<f64> = cycles.iter().map(|c| c.untraced_ms).collect();
        let observed: Vec<f64> = cycles.iter().map(|c| c.collector_ms).collect();
        let traced: Vec<f64> = cycles
            .iter()
            .map(|c| root_ms(c.traced_run).unwrap_or(0.0))
            .collect();
        let untraced_ms = median(&untraced).unwrap_or(0.0);
        let traced_ms = median(&traced).unwrap_or(0.0);
        // Overheads pair the runs of one cycle, so slow drift of the host
        // between cycles cancels.
        let overhead = |xs: &[f64]| {
            let fracs: Vec<f64> = xs
                .iter()
                .zip(&untraced)
                .map(|(&x, &base)| ratio(x, base) - 1.0)
                .collect();
            median(&fracs).unwrap_or(0.0)
        };
        v.insert("obs.collector_overhead_frac".into(), overhead(&observed));
        v.insert("trace.overhead_frac".into(), overhead(&traced));
        v.insert(
            "trace.coverage_frac".into(),
            per_run(&two, &|id| root(id).map_or(0.0, |r| coverage(r, spans))),
        );

        let n = cycles.len();
        for (name, unit, _) in PER_LAYER {
            let mut note = format!("n={n}");
            if name.ends_with(".self_ms") && traced_ms > 0.0 {
                let _ = write!(
                    note,
                    ", {:.1} % of the traced run",
                    100.0 * get(&v, name) / traced_ms
                );
            }
            self.main.push(metric(name, unit, get(&v, name), note));
        }
        self.summary.push(format!(
            "traced run {traced_ms:.3} ms vs untraced {untraced_ms:.3} ms (medians of n={n}); \
             per-layer times are medians at {} threads, par_eff uses the 1-thread runs, \
             allocs the counting runs",
            crate::THREADS
        ));
        self.samples
            .push(format!("\"untraced_ms\": {}", json_list(&untraced)));
        self.samples
            .push(format!("\"collector_ms\": {}", json_list(&observed)));
        self.samples
            .push(format!("\"traced_ms\": {}", json_list(&traced)));
    }

    /// Writes every span, with the runs they belong to.
    pub fn write_spans(&self, runs: &[TracedRun], spans: &[Span]) {
        let mut s = format!(
            "{{\"workload\": {}, \"seed\": {}, \"runs\": [",
            json_str(self.workload),
            self.seed
        );
        for (k, r) in runs.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n  {{\"run\": {}, \"threads\": {}, \"seed\": {}, \"counting\": {}}}",
                r.id, r.threads, r.seed, r.counting
            );
        }
        s.push_str("\n], \"spans\": [");
        for (k, sp) in spans.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}\n  {{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                sp.id,
                sp.run,
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.allocs
            );
        }
        s.push_str("\n]}\n");
        self.write(
            &format!("{}-seed{}.spans.json", self.workload, self.seed),
            &s,
        );
    }

    fn write(&self, file: &str, contents: &str) {
        let dir = bench_dir().join("out");
        let path = dir.join(file);
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    /// Prints every metric, writes the detail file and prints the final
    /// line. Exit code 1 on any failure or when nothing was measured.
    pub fn finish(mut self, tally: &Tally) -> ExitCode {
        let failed_frac = if tally.attempted > 0 {
            tally.failed as f64 / tally.attempted as f64
        } else {
            1.0
        };
        if !self.trace {
            self.extra.push(metric(
                "failed_frac",
                "ratio",
                failed_frac,
                format!("{} of {} runs", tally.failed, tally.attempted),
            ));
        }
        let correct = tally.failed == 0 && !self.main.is_empty();
        for m in self.main.iter().chain(&self.extra) {
            println!(
                "{:<44} {:>16} {:<7} ({})",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        for line in &self.summary {
            println!("{line}");
        }
        let members = |ms: &[Metric]| -> Vec<String> {
            ms.iter()
                .map(|m| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(&m.name),
                        m.value,
                        json_str(m.unit)
                    )
                })
                .collect()
        };
        let notes: Vec<String> = self
            .main
            .iter()
            .chain(&self.extra)
            .map(|m| format!("{}: {}", json_str(&m.name), json_str(&m.note)))
            .collect();
        let all: Vec<String> = members(&self.main)
            .into_iter()
            .chain(members(&self.extra))
            .collect();
        let detail = format!(
            "{{\"provenance\": {},\n \"correct\": {correct}, \"attempted\": {}, \"failed\": {},\n \"metrics\": {{{}}},\n \"notes\": {{{}}},\n \"samples\": {{{}}}}}\n",
            self.provenance,
            tally.attempted,
            tally.failed,
            all.join(", "),
            notes.join(", "),
            self.samples.join(", ")
        );
        let mode = if self.trace { "traced" } else { "e2e" };
        self.write(
            &format!("{}-seed{}-{mode}.json", self.workload, self.seed),
            &detail,
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            members(&self.main).join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn tail_metric(name: &str, xs: &[f64]) -> Metric {
    match tail(xs) {
        Some(t) => metric(
            name,
            "ms",
            t.value,
            format!("p{}, n={}, {} beyond", t.percentile, t.n, t.beyond),
        ),
        None => metric(
            name,
            "ms",
            xs.iter().copied().fold(0.0, f64::max),
            format!("max: only n={} samples, the tail rule needs 11", xs.len()),
        ),
    }
}

fn format_value(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with these units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = bench_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"better\"").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares other metrics"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(layers_with(".self_ms").count(), 17);
        assert_eq!(layers_with(".par_eff").count(), 5);
        assert_eq!(layers_with(".allocs").count(), 3);
        assert_eq!(layers_with(".calls").count(), 3);
    }
}
