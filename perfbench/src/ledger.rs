//! Sample statistics, the span recorder of the traced run, and the
//! per-layer ledger derived from its spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; `0.0` when
/// there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Arithmetic mean; `0.0` when there are none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().fold(0.0, |a, v| a + v) / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest order statistic with at least ten samples above it, but
/// no higher than the 95th percentile, with the percentile it sits at
/// and the sample count. On a shared host the few slowest of many ops
/// are set by rare events (a preemption, an fsync spike, one hard watch
/// set) whose count changes from run to run; the cap keeps the tail of
/// large runs below them. With ten or fewer samples it is the maximum,
/// at the 100th percentile.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return Tail {
            value: sorted.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    let idx = (n - 11).min((n as f64 * 0.95).ceil() as usize - 1);
    Tail {
        value: sorted[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Events per second over `slices` consecutive slices of a run's op
/// times (`per_op` events each), median over the slices.
pub fn sliced_rate(op_ms: &[f64], per_op: f64, slices: usize) -> f64 {
    let len = op_ms.len().div_ceil(slices.max(1)).max(1);
    let rates: Vec<f64> = op_ms
        .chunks(len)
        .map(|c| per_op * c.len() as f64 / c.iter().fold(0.0, |a, v| a + v) * 1e3)
        .collect();
    median(&rates)
}

/// `p25..p75 (±x% of median)`, the spread printed beside a median.
pub fn spread(values: &[f64]) -> String {
    let (q1, q2, q3) = (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    );
    let share = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
    format!("IQR {q1:.4}..{q3:.4} ({:.1}% of median)", share * 100.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One span recorded by the benchmark around a public layer call.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span store of the traced run. Spans nest strictly (the
/// benchmark calls one layer at a time), so a span's self time is its
/// duration minus its children's.
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent.0].op;
        let id = self.open(name, Some(parent), op);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name, in nanoseconds, and the number of spans,
    /// over the trees whose top span is named `root`.
    fn self_times(&self, root: &str) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents open before their children, so `top` fills in order.
        let mut top = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            top.push(s.parent.map_or(i, |p| top[p]));
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, (s, child)) in self.spans.iter().zip(child_ns).enumerate() {
            if self.spans[top[i]].name != root {
                continue;
            }
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            entry.1 += 1;
        }
        out
    }

    /// The ledger over every span rooted at a span named `root`: per
    /// layer self time, and the root's own self time as unattributed.
    pub fn ledger(&self, root: &str) -> Ledger {
        let ops = self.spans.iter().filter(|s| s.name == root).count() as u64;
        let wall_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let mut layers = Vec::new();
        let mut unattributed_ns = 0;
        for (name, (self_ns, calls)) in self.self_times(root) {
            if name == root {
                unattributed_ns = self_ns;
            } else {
                layers.push((name, self_ns, calls));
            }
        }
        Ledger {
            root: root.to_string(),
            ops,
            wall_ns,
            layers,
            unattributed_ns,
        }
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-layer self time over a set of traced ops.
pub struct Ledger {
    pub root: String,
    pub ops: u64,
    pub wall_ns: u64,
    /// `(layer, self ns, calls)` in name order.
    pub layers: Vec<(&'static str, u64, u64)>,
    pub unattributed_ns: u64,
}

impl Ledger {
    /// Mean self time of `layer` per op, in milliseconds.
    pub fn per_op_ms(&self, layer: &str) -> f64 {
        let ns = self
            .layers
            .iter()
            .find(|(name, ..)| *name == layer)
            .map_or(0, |(_, ns, _)| *ns);
        if self.ops == 0 {
            0.0
        } else {
            ns as f64 / 1e6 / self.ops as f64
        }
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.wall_ns as f64
        }
    }

    pub fn print(&self) {
        let wall = self.wall_ns.max(1) as f64;
        let ops = self.ops.max(1) as f64;
        println!(
            "ledger over {} traced `{}` ops ({:.3} ms each on average)",
            self.ops,
            self.root,
            wall / 1e6 / ops
        );
        println!(
            "  {:<28} {:>12} {:>8} {:>12}",
            "layer", "self ms/op", "share", "calls/op"
        );
        for (name, ns, calls) in &self.layers {
            println!(
                "  {:<28} {:>12.4} {:>7.2}% {:>12.2}",
                name,
                *ns as f64 / 1e6 / ops,
                100.0 * *ns as f64 / wall,
                *calls as f64 / ops
            );
        }
        println!(
            "  {:<28} {:>12.4} {:>7.2}%",
            "unattributed",
            self.unattributed_ns as f64 / 1e6 / ops,
            100.0 * self.unattributed_share()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.value, t.percentile), (9500.0, 95.0));
        assert_eq!(tail(&[3.0, 1.0]).value, 3.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        let root = rec.open("op", None, 0);
        rec.time("child", root, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(1));
        rec.close(root);
        let ledger = rec.ledger("op");
        assert_eq!(ledger.ops, 1);
        assert!(ledger.per_op_ms("child") >= 2.0);
        assert!(ledger.unattributed_ns >= 1_000_000);
        assert!(ledger.unattributed_ns < ledger.wall_ns);
    }
}
