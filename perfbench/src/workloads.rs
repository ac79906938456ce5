//! The four workloads. Each drives the program only through its public
//! library calls and times those calls from outside.
//!
//! Untraced runs measure the end-to-end metrics. Traced runs alternate
//! an untraced op with a traced one on the same input: the traced op
//! recomposes the workload's op from the public layer calls it is made
//! of (`split_practical` or `parallel_split`, `efilter_one`,
//! `filter_one_instrumented`, `IngestWriter`, `IncrementalSplit`, …)
//! inside spans recorded here, and reads the program's counters at the
//! `counters` telemetry level. Each recomposition is checked against the
//! untraced op's answer, so the ledger describes the same work the
//! untraced op did.

use crate::ledger::{
    mean, median, ms, quantile, sliced_rate, spread, tail, Ledger, Recorder, SpanId,
};
use evmatch::core::scenario::{EScenario, ScenarioId, VScenario};
use evmatch::core::{Eid, Vid};
use evmatch::datagen::{sample_targets, DatasetConfig, EvDataset};
use evmatch::disk::{CheckpointPolicy, DiskBackend, DiskStore, IngestWriter};
use evmatch::exec::Executor;
use evmatch::mapreduce::{Backend, ClusterConfig, MapReduce};
use evmatch::matching::edp::{efilter_one, EdpConfig};
use evmatch::matching::incremental::IncrementalSplit;
use evmatch::matching::matcher::ExecutionMode;
use evmatch::matching::parallel::{parallel_split, ParallelSplitConfig};
use evmatch::matching::practical::split_practical;
use evmatch::matching::refine::SplitMode;
use evmatch::matching::setsplit::{SelectionStrategy, SetSplitConfig};
use evmatch::matching::vfilter::{filter_one_instrumented, GalleryCache, VFilterConfig};
use evmatch::matching::{EvMatcher, MatchOutcome, MatchReport, MatcherConfig, ScenarioList};
use evmatch::serve::{LiveCorpus, ServeConfig};
use evmatch::store::{EScenarioStore, StoreBackend, VideoStore};
use evmatch::telemetry::{names, Telemetry, TelemetryLevel};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Slices of a run's op sequence; `match_eids_per_s` is the median of
/// their rates, so a few seconds of host contention move it little.
const RATE_SLICES: usize = 40;
/// Loads of the stored corpus per run on the batch workloads (ingest
/// and freshness samples).
const CORPUS_LOADS: usize = 10;
/// EIDs per `match_many` op (the paper's §VI-A target-set size scale).
const TARGETS: usize = 400;
/// EIDs the live service watches.
const WATCH: usize = 40;
/// Ticks per streamed window on `serve-day`.
const WINDOW_TICKS: u64 = 30;
/// `dense-2t` target sets re-run at one thread for the identity check.
const IDENTITY_SAMPLES: usize = 3;
/// The live service's checkpoint policy (the `ServeConfig` default).
const CHECKPOINT_EVERY: u64 = 1024;
/// Lowest accepted share of targets matched to their true VID.
const ACCURACY_FLOOR: f64 = 0.75;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchSeq,
    Dense2t,
    Lookup,
    ServeDay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchSeq,
        Workload::Dense2t,
        Workload::Lookup,
        Workload::ServeDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSeq => "batch-seq",
            Workload::Dense2t => "dense-2t",
            Workload::Lookup => "lookup",
            Workload::ServeDay => "serve-day",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The generated world: the paper's §VI-A world, or its dense
    /// variant, both at the dataset's own default seed. The world stays
    /// fixed so that runs on different seeds measure the same corpus;
    /// the run seed draws what is asked of it (target sets, lookup
    /// order, watch set).
    fn world(self) -> DatasetConfig {
        match self {
            Workload::Dense2t => DatasetConfig {
                population: 2000,
                cell_size: 150.0,
                duration: 900,
                ..DatasetConfig::paper()
            },
            _ => DatasetConfig::paper(),
        }
    }

    /// The execution mode `evmatch match` picks for this workload
    /// (`--threads 2` selects the sharded pipeline).
    fn execution(self) -> ExecutionMode {
        match self {
            Workload::Dense2t => ExecutionMode::Sharded(2),
            _ => ExecutionMode::Sequential,
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::Dense2t => 2,
            _ => 1,
        }
    }
}

/// What a run asks for.
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Where serve-day corpora and the span dump go.
    pub scratch: PathBuf,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Correctness gate: every op and every check is attempted once.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything a run prints.
pub struct RunOutput {
    pub header: Vec<(&'static str, String)>,
    /// The metrics `BENCHMARK.json` lists: printed and in the result line.
    pub metrics: Vec<Metric>,
    /// Printed only: measured, but too noisy on a shared host to gate a
    /// change on.
    pub printed_only: Vec<Metric>,
    pub ledger: Option<Ledger>,
    pub checks: Checks,
}

impl RunOutput {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }
}

// ---------------------------------------------------------------------
// Inputs

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed of the `i`-th target set of a run.
fn op_seed(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i.wrapping_add(1)))
}

/// Every carried EID in a seeded order.
fn seeded_order(data: &EvDataset, seed: u64) -> Vec<Eid> {
    let mut eids = data.eids();
    let mut state = splitmix(seed ^ 0x6c6f_6f6b_7570);
    for i in (1..eids.len()).rev() {
        state = splitmix(state);
        eids.swap(i, (state % (i as u64 + 1)) as usize);
    }
    eids
}

/// The events of `data` whose tick falls in each `WINDOW_TICKS` window.
fn windows(data: &EvDataset) -> Vec<(Vec<EScenario>, Vec<VScenario>)> {
    let n = data.config.duration.div_ceil(WINDOW_TICKS);
    (0..n)
        .map(|w| {
            let span = w * WINDOW_TICKS..(w + 1) * WINDOW_TICKS;
            let es = data
                .estore
                .iter()
                .filter(|s| span.contains(&s.time().tick()))
                .cloned()
                .collect();
            let vs = data
                .video
                .scenarios()
                .filter(|s| span.contains(&s.time().tick()))
                .cloned()
                .collect();
            (es, vs)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Set-up and shared measurements

struct Setup {
    data: EvDataset,
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    index_ms: Vec<f64>,
}

/// Generates the world and builds its scenario index, `SETUP_REPS`
/// times; keeps the last corpus.
fn setup(config: &DatasetConfig) -> Result<Setup, String> {
    let (mut setup_s, mut generate_s, mut index_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut data = None;
    for _ in 0..SETUP_REPS {
        // One corpus resident at a time, so peak memory is one world's.
        drop(data.take());
        let t0 = Instant::now();
        let d = EvDataset::generate(config).map_err(|e| format!("generate: {e}"))?;
        let t1 = Instant::now();
        black_box(d.estore.index().eid_count());
        let t2 = Instant::now();
        setup_s.push((t2 - t0).as_secs_f64());
        generate_s.push((t1 - t0).as_secs_f64());
        index_ms.push(ms(t2 - t1));
        data = Some(d);
    }
    Ok(Setup {
        data: data.ok_or("no set-up ran")?,
        setup_s,
        generate_s,
        index_ms,
    })
}

/// A report with its wall-clock timings zeroed, serialized: two reports
/// are byte-identical when these strings are equal.
fn canon(report: &MatchReport) -> String {
    let mut r = report.clone();
    r.timings = Default::default();
    serde_json::to_string(&r).expect("a match report serializes")
}

fn canon_outcome(outcome: &MatchOutcome) -> String {
    serde_json::to_string(outcome).expect("an outcome serializes")
}

/// Whether `report` holds exactly one outcome per target, in EID order.
fn one_outcome_per_target(report: &MatchReport, targets: &BTreeSet<Eid>) -> bool {
    report.outcomes.len() == targets.len()
        && report
            .outcomes
            .iter()
            .map(|o| o.eid)
            .eq(targets.iter().copied())
}

fn correct_matches(data: &EvDataset, report: &MatchReport) -> u64 {
    report
        .outcomes
        .iter()
        .filter(|o| o.is_majority() && o.vid.is_some() && o.vid == data.true_vid(o.eid))
        .count() as u64
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.registry().counter_value(name).unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// The traced recomposition of Algorithm 2

/// Counts the traced ops read from the layers.
#[derive(Default)]
struct LayerCounts {
    ops: u64,
    split_examined: u64,
    recorded: u64,
    rounds: u64,
    gallery_hits: u64,
    gallery_misses: u64,
    v_extracted: u64,
    v_hits: u64,
    candidates: u64,
    blocks: u64,
}

/// Per-round split seed, as the refinement loop derives it: random-time
/// selection is reseeded each round so retries see other scenarios.
fn reseeded(base: &SetSplitConfig, round: u32) -> SetSplitConfig {
    match base.strategy {
        SelectionStrategy::RandomTime { seed } => SetSplitConfig {
            strategy: SelectionStrategy::RandomTime {
                seed: seed.wrapping_add(u64::from(round) - 1),
            },
            ..*base
        },
        _ => *base,
    }
}

/// `EvMatcher::match_many` under the default (practical, sequential)
/// configuration, recomposed from its layer calls inside spans under
/// `op`: per round, `split_practical`, then (from round 2) per-EID
/// `efilter_one`, then `filter_one_instrumented` per EID in refine
/// order over one shared gallery cache.
#[allow(clippy::too_many_arguments)]
fn match_many_traced(
    rec: &mut Recorder,
    op: SpanId,
    estore: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    config: &MatcherConfig,
    tel: &Telemetry,
    counts: &mut LayerCounts,
) -> MatchReport {
    assert_eq!(
        config.mode,
        SplitMode::Practical,
        "recomposes practical mode"
    );
    let vcfg = &config.vfilter;
    let mut report = MatchReport::default();
    let mut accepted: BTreeMap<Eid, MatchOutcome> = BTreeMap::new();
    let mut matched_vids = BTreeSet::new();
    let mut pending = targets.clone();
    let mut cache = GalleryCache::new();
    let mut rounds = 0;
    let (cand0, blocks0) = (
        counter(tel, names::VFILTER_CANDIDATES_SCORED),
        counter(tel, names::KERNEL_BLOCKS_BUILT),
    );
    while !pending.is_empty() && rounds < config.max_rounds.max(1) {
        rounds += 1;
        let split_cfg = reseeded(&config.split, rounds);
        let out = rec.time("ev-matching.split", op, || {
            split_practical(estore, &pending, &split_cfg)
        });
        counts.split_examined += out.scenarios_examined as u64;
        counts.recorded += out.recorded.len() as u64;
        report.selected_scenarios.extend(out.selected());
        let mut lists = out.lists;
        if rounds > 1 {
            let edp = EdpConfig {
                vfilter: *vcfg,
                max_scenarios_per_eid: None,
                seed: u64::from(rounds),
            };
            for (&eid, list) in lists.iter_mut() {
                let extra = rec.time("ev-matching.efilter", op, || efilter_one(estore, eid, &edp));
                for id in extra {
                    if !list.contains(&id) {
                        list.push(id);
                        report.selected_scenarios.insert(id);
                    }
                }
            }
        }
        let mut order: Vec<(&Eid, &ScenarioList)> = lists.iter().collect();
        order.sort_by_key(|(eid, list)| (std::cmp::Reverse(list.len()), **eid));
        for (&eid, list) in order {
            let outcome = rec.time("ev-matching.vfilter", op, || {
                filter_one_instrumented(eid, list, video, vcfg, &matched_vids, &mut cache, tel)
            });
            if outcome.is_confident(vcfg.min_margin) {
                if vcfg.exclusion {
                    if let Some(vid) = outcome.vid {
                        matched_vids.insert(vid);
                    }
                }
                report.lists.insert(eid, list.clone());
                accepted.insert(eid, outcome);
                pending.remove(&eid);
            } else if rounds >= config.max_rounds.max(1) {
                report.lists.insert(eid, list.clone());
                accepted.insert(eid, outcome);
            } else {
                report.lists.entry(eid).or_insert_with(|| list.clone());
                accepted.entry(eid).or_insert(outcome);
            }
        }
    }
    report.outcomes = accepted.into_values().collect();
    report.rounds = rounds;
    counts.ops += 1;
    counts.rounds += u64::from(rounds);
    counts.gallery_hits += cache.hits();
    counts.gallery_misses += cache.misses();
    counts.candidates += counter(tel, names::VFILTER_CANDIDATES_SCORED) - cand0;
    counts.blocks += counter(tel, names::KERNEL_BLOCKS_BUILT) - blocks0;
    report
}

/// The split seed `EvMatcher` hands the parallel pipelines.
fn split_seed(config: &MatcherConfig) -> u64 {
    match config.split.strategy {
        SelectionStrategy::RandomTime { seed } => seed,
        _ => 0,
    }
}

/// `EvMatcher::match_many` under `ExecutionMode::Sharded(threads)`,
/// recomposed from its phases' public calls inside spans under `op`:
/// Algorithm 3 (`parallel_split` on the pipeline's pinned work-stealing
/// engine), cell-shard extraction and per-EID scoring on an `ev-exec`
/// pool of `threads`, then the exclusion fix-up. Layer times here are
/// the wall times of the parallel phases.
#[allow(clippy::too_many_arguments)]
fn sharded_traced(
    rec: &mut Recorder,
    op: SpanId,
    estore: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    config: &MatcherConfig,
    threads: usize,
    tel: &Telemetry,
    counts: &mut LayerCounts,
) -> Result<MatchReport, String> {
    let engine = MapReduce::new(ClusterConfig {
        workers: threads,
        split_size: 8,
        reduce_partitions: 4,
        backend: Backend::WorkStealing,
        ..ClusterConfig::default()
    });
    let split_cfg = ParallelSplitConfig {
        seed: split_seed(config),
        max_iterations: None,
    };
    let split = rec
        .time("ev-matching.split", op, || {
            parallel_split(&engine, estore, targets, &split_cfg)
        })
        .map_err(|e| format!("parallel_split: {e}"))?;
    let exec = Executor::new(threads);
    let selected: BTreeSet<ScenarioId> = split.lists.values().flatten().copied().collect();
    let extracted = rec.time("ev-store.shard_extract", op, || {
        let (per_shard, _) = exec.map_ordered(estore.shard_cells(threads), |_ctx, shard| {
            let index = shard.build_index();
            let batch: BTreeSet<ScenarioId> = targets
                .iter()
                .flat_map(|&eid| index.postings(eid))
                .filter(|id| selected.contains(id))
                .copied()
                .collect();
            for id in batch {
                black_box(video.extract(id));
            }
        });
        per_shard.into_iter().collect::<Result<Vec<()>, _>>()
    });
    extracted.map_err(|panic| format!("shard extraction panicked: {}", panic.message))?;
    let (cand0, blocks0) = (
        counter(tel, names::VFILTER_CANDIDATES_SCORED),
        counter(tel, names::KERNEL_BLOCKS_BUILT),
    );
    let vcfg = config.vfilter;
    let score_cfg = VFilterConfig {
        exclusion: false,
        ..vcfg
    };
    let inputs: Vec<(Eid, ScenarioList)> =
        split.lists.iter().map(|(&e, l)| (e, l.clone())).collect();
    let scored = rec.time("ev-matching.vfilter", op, || {
        exec.map_ordered(inputs, |_ctx, (eid, list): (Eid, ScenarioList)| {
            let mut cache = GalleryCache::new();
            let none = BTreeSet::new();
            let outcome =
                filter_one_instrumented(eid, &list, video, &score_cfg, &none, &mut cache, tel);
            (outcome, cache.hits(), cache.misses())
        })
        .0
    });
    let mut outcomes = Vec::with_capacity(scored.len());
    for result in scored {
        let (outcome, hits, misses) =
            result.map_err(|panic| format!("scoring panicked: {}", panic.message))?;
        counts.gallery_hits += hits;
        counts.gallery_misses += misses;
        outcomes.push(outcome);
    }
    if vcfg.exclusion {
        rec.time("ev-matching.resolve_conflicts", op, || {
            resolve_conflicts(&mut outcomes, &split.lists, video, &vcfg, tel);
        });
    }
    outcomes.sort_by_key(|o| o.eid);
    counts.ops += 1;
    counts.rounds += 1;
    counts.split_examined += split.scenarios_examined as u64;
    counts.recorded += split.recorded.len() as u64;
    counts.candidates += counter(tel, names::VFILTER_CANDIDATES_SCORED) - cand0;
    counts.blocks += counter(tel, names::KERNEL_BLOCKS_BUILT) - blocks0;
    Ok(MatchReport {
        outcomes,
        selected_scenarios: split.selected(),
        lists: split.lists,
        timings: Default::default(),
        rounds: 1,
    })
}

/// The parallel pipelines' exclusion fix-up, recomposed over public calls
/// because the program's own is private to `ev-matching`: while several
/// majority outcomes claim one VID, the strongest claim keeps it and the
/// others re-filter with every claimed VID ruled out.
fn resolve_conflicts(
    outcomes: &mut [MatchOutcome],
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
    tel: &Telemetry,
) {
    for _ in 0..8 {
        let mut claims: BTreeMap<Vid, Vec<usize>> = BTreeMap::new();
        for (i, o) in outcomes.iter().enumerate() {
            if let Some(vid) = o.vid.filter(|_| o.is_majority()) {
                claims.entry(vid).or_default().push(i);
            }
        }
        let mut losers: Vec<usize> = Vec::new();
        for claimants in claims.values().filter(|c| c.len() > 1) {
            let strongest = claimants.iter().copied().max_by(|&a, &b| {
                let (oa, ob) = (&outcomes[a], &outcomes[b]);
                oa.vote_share
                    .total_cmp(&ob.vote_share)
                    .then(oa.confidence.total_cmp(&ob.confidence))
                    .then(ob.eid.cmp(&oa.eid))
            });
            losers.extend(claimants.iter().filter(|&&i| Some(i) != strongest));
        }
        if losers.is_empty() {
            return;
        }
        let excluded: BTreeSet<Vid> = claims.keys().copied().collect();
        for i in losers {
            let eid = outcomes[i].eid;
            let list = lists.get(&eid).cloned().unwrap_or_default();
            let mut cache = GalleryCache::new();
            outcomes[i] =
                filter_one_instrumented(eid, &list, video, config, &excluded, &mut cache, tel);
        }
    }
}

/// `EvMatcher::match_one` recomposed: per-EID E-filter, then the V
/// filter over a call-local gallery cache.
#[allow(clippy::too_many_arguments)]
fn match_one_traced(
    rec: &mut Recorder,
    op: SpanId,
    estore: &EScenarioStore,
    video: &VideoStore,
    eid: Eid,
    config: &MatcherConfig,
    tel: &Telemetry,
    counts: &mut LayerCounts,
) -> MatchOutcome {
    let edp = EdpConfig {
        vfilter: config.vfilter,
        max_scenarios_per_eid: None,
        seed: 0,
    };
    let (cand0, blocks0) = (
        counter(tel, names::VFILTER_CANDIDATES_SCORED),
        counter(tel, names::KERNEL_BLOCKS_BUILT),
    );
    let list = rec.time("ev-matching.efilter", op, || efilter_one(estore, eid, &edp));
    let mut cache = GalleryCache::new();
    let outcome = rec.time("ev-matching.vfilter", op, || {
        filter_one_instrumented(
            eid,
            &list,
            video,
            &config.vfilter,
            &BTreeSet::new(),
            &mut cache,
            tel,
        )
    });
    counts.ops += 1;
    counts.gallery_hits += cache.hits();
    counts.gallery_misses += cache.misses();
    counts.candidates += counter(tel, names::VFILTER_CANDIDATES_SCORED) - cand0;
    counts.blocks += counter(tel, names::KERNEL_BLOCKS_BUILT) - blocks0;
    outcome
}

// ---------------------------------------------------------------------
// Runs

/// Accumulates the end-to-end figures of the untraced ops.
#[derive(Default)]
struct Ops {
    ms: Vec<f64>,
    eids: u64,
    correct: u64,
    judged: u64,
    v_extracted: u64,
}

impl Ops {
    fn accuracy(&self) -> f64 {
        self.correct as f64 / self.judged.max(1) as f64
    }
}

/// Ingest figures: per batch handed to the program (a streamed window,
/// or a whole stored corpus loaded), its ingest rate and the time until
/// it was query-visible.
#[derive(Default)]
struct Stream {
    events: u64,
    ingest_per_s: Vec<f64>,
    freshness_ms: Vec<f64>,
    staleness_max: u64,
}

pub fn run(p: &Params) -> Result<RunOutput, String> {
    let w = p.workload;
    let s = setup(&w.world())?;
    let d = &s.data;
    let mut out = RunOutput {
        header: vec![
            ("workload", w.name().to_string()),
            ("seed", p.seed.to_string()),
            ("threads", w.threads().to_string()),
            ("e_scenarios", d.estore.len().to_string()),
            ("e_records", d.estore.record_count().to_string()),
            ("v_scenarios", d.video.len().to_string()),
            ("people", d.config.population.to_string()),
            ("ticks", d.config.duration.to_string()),
        ],
        metrics: Vec::new(),
        printed_only: Vec::new(),
        ledger: None,
        checks: Checks::default(),
    };
    let mut ops = Ops::default();
    let mut stream = Stream::default();
    let mut traced = Traced::default();
    let mut rec = Recorder::new();
    let (t, c) = (&mut traced, &mut out.checks);
    match w {
        Workload::BatchSeq | Workload::Dense2t => batch(p, d, &mut ops, &mut rec, t, c),
        Workload::Lookup => lookup(p, d, &mut ops, &mut rec, t, c),
        Workload::ServeDay => serve_day(p, d, &mut ops, &mut stream, &mut rec, t, c)?,
    }
    let accuracy = ops.accuracy();
    out.checks.record(accuracy >= ACCURACY_FLOOR, || {
        format!("accuracy {accuracy:.4} below the floor {ACCURACY_FLOOR}")
    });
    let op_tail = tail(&ops.ms);
    out.header.push((
        "op_ms_tail",
        format!("p{:.2} of {} ops", op_tail.percentile, op_tail.samples),
    ));
    if p.trace {
        traced.report(&rec, p, &s, &ops, &stream, &mut out);
        return Ok(out);
    }
    // Read before the corpus loads below, so that peak memory is the
    // workload's own.
    let rss = peak_rss_mb().ok_or("peak RSS unreadable: /proc/self/status has no VmHWM")?;
    if w != Workload::ServeDay {
        disk_loads(p, d, &mut stream, &mut out.checks)?;
    }
    let fresh_tail = tail(&stream.freshness_ms);
    out.header.push((
        "freshness_ms_tail",
        format!(
            "p{:.2} of {} {}",
            fresh_tail.percentile,
            fresh_tail.samples,
            if w == Workload::ServeDay {
                "windows"
            } else {
                "corpus loads"
            }
        ),
    ));
    out.metric(
        "setup_s",
        median(&s.setup_s),
        "s",
        format!(
            "median of {} set-ups; {}",
            s.setup_s.len(),
            spread(&s.setup_s)
        ),
    );
    let eids_per_op = ops.eids as f64 / ops.ms.len().max(1) as f64;
    out.metric(
        "match_eids_per_s",
        sliced_rate(&ops.ms, eids_per_op, RATE_SLICES),
        "1/s",
        format!(
            "median over {RATE_SLICES} consecutive slices of the run; {} EIDs in {} ops",
            ops.eids,
            ops.ms.len()
        ),
    );
    out.metric("op_ms_p50", median(&ops.ms), "ms", spread(&ops.ms));
    out.metric(
        "op_ms_tail",
        op_tail.value,
        "ms",
        format!("p{:.2}, {} samples", op_tail.percentile, op_tail.samples),
    );
    out.metric(
        "ingest_events_per_s",
        median(&stream.ingest_per_s),
        "1/s",
        format!(
            "median of {} batches, {} events; {}",
            stream.ingest_per_s.len(),
            stream.events,
            spread(&stream.ingest_per_s)
        ),
    );
    out.metric(
        "freshness_ms_p50",
        median(&stream.freshness_ms),
        "ms",
        spread(&stream.freshness_ms),
    );
    out.printed_only.push(Metric {
        name: "freshness_ms_tail",
        value: fresh_tail.value,
        unit: "ms",
        note: format!(
            "p{:.2}, {} samples",
            fresh_tail.percentile, fresh_tail.samples
        ),
    });
    out.metric(
        "accuracy",
        accuracy,
        "ratio",
        format!("{} of {} targets", ops.correct, ops.judged),
    );
    out.metric(
        "v_scenarios_per_eid",
        ops.v_extracted as f64 / ops.eids.max(1) as f64,
        "count",
        format!("{} V-scenarios extracted", ops.v_extracted),
    );
    out.metric("peak_rss_mb", rss, "MB", "VmHWM".to_string());
    Ok(out)
}

/// The batch workloads' ingest and freshness: the corpus is written once
/// with `DiskStore::append` (what `evmatch ingest` runs), then loaded
/// back with `DiskBackend::open` and indexed, as `evmatch match
/// --data-dir` does before it matches. Each load is one sample: events
/// per second of the load, and the time until the loaded corpus is
/// query-ready. The directory is deleted at the end.
fn disk_loads(
    p: &Params,
    d: &EvDataset,
    stream: &mut Stream,
    checks: &mut Checks,
) -> Result<(), String> {
    let dir = p.scratch.join(format!("corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = load_corpus(&dir, d, stream, checks);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn load_corpus(
    dir: &Path,
    d: &EvDataset,
    stream: &mut Stream,
    checks: &mut Checks,
) -> Result<(), String> {
    {
        let mut store = DiskStore::create(dir).map_err(|e| format!("corpus create: {e}"))?;
        let e: Vec<EScenario> = d.estore.iter().cloned().collect();
        let v: Vec<VScenario> = d.video.scenarios().cloned().collect();
        store
            .append(&e, &v)
            .map_err(|e| format!("corpus append: {e}"))?;
    }
    let written = (d.estore.len(), d.video.len());
    for k in 0..CORPUS_LOADS {
        let t0 = Instant::now();
        let backend = DiskBackend::open(dir, d.video.cost_model())
            .map_err(|e| format!("corpus load {k}: {e}"))?;
        let t1 = Instant::now();
        black_box(backend.estore().index().eid_count());
        let t2 = Instant::now();
        let loaded = (backend.estore().len(), backend.video().len());
        checks.record(loaded == written, || {
            format!("corpus load {k}: {loaded:?} scenarios, {written:?} written")
        });
        let events = (loaded.0 + loaded.1) as u64;
        stream.events += events;
        stream
            .ingest_per_s
            .push(events as f64 / (t1 - t0).as_secs_f64());
        stream.freshness_ms.push(ms(t2 - t0));
    }
    Ok(())
}

/// Figures only the traced run gathers.
#[derive(Default)]
struct Traced {
    root: &'static str,
    counts: LayerCounts,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    one_thread_ms: Vec<f64>,
    two_thread_ms: Vec<f64>,
    sharded2_ms: Vec<f64>,
    dag2_ms: Vec<f64>,
    exec_ops: u64,
    exec_tasks: u64,
    exec_stolen: u64,
    task_p99_ns: f64,
    append_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    absorb_ms: Vec<f64>,
    query_ms: Vec<f64>,
    bytes_per_day: Vec<f64>,
    last_day: Option<DayEnd>,
}

impl Traced {
    #[allow(clippy::too_many_lines)]
    fn report(
        self,
        rec: &Recorder,
        p: &Params,
        s: &Setup,
        ops: &Ops,
        stream: &Stream,
        out: &mut RunOutput,
    ) {
        let ledger = rec.ledger(self.root);
        let path = p
            .scratch
            .join(format!("trace-{}-seed{}.json", p.workload.name(), p.seed));
        match rec.write_chrome_trace(&path) {
            Ok(()) => out.header.push(("trace_file", path.display().to_string())),
            Err(e) => out.header.push(("trace_file", format!("not written: {e}"))),
        }
        let c = &self.counts;
        let per_op = |n: u64| n as f64 / c.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let p50 = |v: &[f64]| quantile(v, 0.5);
        let overhead = 100.0 * (median(&self.traced_ms) / median(&self.untraced_ms) - 1.0);
        let speedup = if self.two_thread_ms.is_empty() {
            0.0
        } else {
            median(&self.one_thread_ms) / median(&self.two_thread_ms)
        };
        let exec_per_op = |n: u64| n as f64 / self.exec_ops.max(1) as f64;
        let rows: [(&'static str, f64, &'static str, String); 27] = [
            (
                "ev-datagen.generate_s",
                median(&s.generate_s),
                "s",
                spread(&s.generate_s),
            ),
            (
                "ev-store.index_build_ms",
                median(&s.index_ms),
                "ms",
                spread(&s.index_ms),
            ),
            (
                "ev-store.v_extractions",
                per_op(c.v_extracted),
                "count",
                "per op".into(),
            ),
            (
                "ev-store.v_extract_hit_ratio",
                ratio(c.v_hits, c.v_hits + c.v_extracted),
                "ratio",
                "VideoStore cache hits / extract calls".into(),
            ),
            (
                "ev-matching.split_ms",
                ledger.per_op_ms("ev-matching.split"),
                "ms",
                "self time per op".into(),
            ),
            (
                "ev-matching.split_examined",
                per_op(c.split_examined),
                "count",
                "per op".into(),
            ),
            (
                "ev-matching.split_effective_ratio",
                ratio(c.recorded, c.split_examined),
                "ratio",
                "recorded / examined".into(),
            ),
            (
                "ev-matching.recorded_scenarios",
                per_op(c.recorded),
                "count",
                "per op".into(),
            ),
            (
                "ev-matching.vfilter_ms",
                ledger.per_op_ms("ev-matching.vfilter"),
                "ms",
                "self time per op".into(),
            ),
            (
                "ev-matching.candidates_scored",
                per_op(c.candidates),
                "count",
                "per op".into(),
            ),
            (
                "ev-matching.gallery_hit_ratio",
                ratio(c.gallery_hits, c.gallery_hits + c.gallery_misses),
                "ratio",
                "GalleryCache hits / lookups".into(),
            ),
            (
                "ev-matching.efilter_ms",
                ledger.per_op_ms("ev-matching.efilter"),
                "ms",
                "self time per op".into(),
            ),
            (
                "ev-matching.refine_rounds",
                per_op(c.rounds),
                "count",
                "per op".into(),
            ),
            (
                "ev-core.kernel_blocks_built",
                per_op(c.blocks),
                "count",
                "per op".into(),
            ),
            (
                "ev-exec.speedup_2t_vs_1t",
                speedup,
                "ratio",
                format!("median of {} paired ops", self.two_thread_ms.len()),
            ),
            (
                "ev-exec.tasks_executed",
                exec_per_op(self.exec_tasks),
                "count",
                "per op".into(),
            ),
            (
                "ev-exec.tasks_stolen",
                exec_per_op(self.exec_stolen),
                "count",
                "per op".into(),
            ),
            (
                "ev-exec.task_latency_p99_ns",
                self.task_p99_ns,
                "ns",
                "run reservoir".into(),
            ),
            (
                "ev-disk.append_ms_p50",
                p50(&self.append_ms),
                "ms",
                spread(&self.append_ms),
            ),
            (
                "ev-disk.bytes_written",
                median(&self.bytes_per_day),
                "B",
                "per streamed day".into(),
            ),
            (
                "ev-disk.checkpoint_ms_p50",
                p50(&self.checkpoint_ms),
                "ms",
                spread(&self.checkpoint_ms),
            ),
            (
                "serve.apply_ms_p50",
                p50(&self.apply_ms),
                "ms",
                spread(&self.apply_ms),
            ),
            (
                "serve.incremental_absorb_ms",
                mean(&self.absorb_ms),
                "ms",
                "mean per apply".into(),
            ),
            (
                "serve.staleness_events_max",
                stream.staleness_max as f64,
                "count",
                "most events an ingest receipt left staged; apply follows every ingest, \
                 so one window's events"
                    .into(),
            ),
            (
                "serve.query_ms_p50",
                p50(&self.query_ms),
                "ms",
                spread(&self.query_ms),
            ),
            (
                "unattributed_share",
                ledger.unattributed_share(),
                "ratio",
                format!("of {} traced ops' wall time", ledger.ops),
            ),
            (
                "ev-telemetry.trace_overhead_pct",
                overhead,
                "%",
                format!(
                    "traced op p50 {:.4} ms vs untraced {:.4} ms",
                    median(&self.traced_ms),
                    median(&self.untraced_ms)
                ),
            ),
        ];
        for (name, value, unit, note) in rows {
            out.metric(name, value, unit, note);
        }
        if !self.dag2_ms.is_empty() {
            let (sharded2, dag2) = (median(&self.sharded2_ms), median(&self.dag2_ms));
            let paired = format!("median of {} paired ops", self.dag2_ms.len());
            out.printed_only.extend([
                Metric {
                    name: "modes.sharded2_op_ms_p50",
                    value: sharded2,
                    unit: "ms",
                    note: paired.clone(),
                },
                Metric {
                    name: "modes.dag2_op_ms_p50",
                    value: dag2,
                    unit: "ms",
                    note: paired,
                },
                Metric {
                    name: "modes.dag2_vs_sharded2",
                    value: dag2 / sharded2,
                    unit: "ratio",
                    note: "above 1: Dag(2) is slower".into(),
                },
            ]);
        }
        out.header.push(("traced_ops", ledger.ops.to_string()));
        out.header.push(("untraced_ops", ops.ms.len().to_string()));
        out.ledger = Some(ledger);
    }
}

/// The matchers a batch op runs through.
struct BatchMatchers<'a> {
    /// The workload's own op, untraced.
    op: EvMatcher<'a>,
    /// The same configuration at the counters telemetry level.
    counted: EvMatcher<'a>,
    /// The sharded pipeline at one thread.
    one_thread: EvMatcher<'a>,
    /// `Sharded(2)` and `Dag(2)`, timed side by side.
    sharded2: EvMatcher<'a>,
    dag2: EvMatcher<'a>,
    config: MatcherConfig,
    tel: &'a Telemetry,
}

impl<'a> BatchMatchers<'a> {
    fn new(d: &'a EvDataset, config: MatcherConfig, tel: &'a Telemetry) -> Self {
        let mode = |execution| {
            EvMatcher::new(
                &d.estore,
                &d.video,
                MatcherConfig {
                    execution,
                    ..config.clone()
                },
            )
        };
        BatchMatchers {
            op: EvMatcher::new(&d.estore, &d.video, config.clone()),
            counted: EvMatcher::new(&d.estore, &d.video, config.clone()).with_telemetry(tel),
            one_thread: mode(ExecutionMode::Sharded(1)),
            sharded2: mode(ExecutionMode::Sharded(2)),
            dag2: mode(ExecutionMode::Dag(2)),
            config,
            tel,
        }
    }
}

/// The traced side of one batch op, for the checks: the recomposed
/// report, and the canonical reports of the other runs of the same
/// target set (`None` when a run failed or did not happen).
struct TracedBatch {
    replica: Result<MatchReport, String>,
    /// `dense-2t`: the op at the counters level, and at one thread.
    counted: Option<String>,
    single: Option<String>,
    sharded2: Option<String>,
    dag2: Option<String>,
}

/// Runs `matcher` on `targets` from a cold video store; pushes its time.
fn timed_match(
    d: &EvDataset,
    matcher: &EvMatcher,
    targets: &BTreeSet<Eid>,
    times: &mut Vec<f64>,
) -> Option<String> {
    d.video.reset_usage();
    let t0 = Instant::now();
    let report = matcher.match_many(targets);
    times.push(ms(t0.elapsed()));
    report.ok().map(|r| canon(&r))
}

/// The traced side of one batch op.
fn traced_batch_op(
    i: u64,
    targets: &BTreeSet<Eid>,
    d: &EvDataset,
    dense: bool,
    m: &BatchMatchers,
    rec: &mut Recorder,
    t: &mut Traced,
) -> TracedBatch {
    let (mut counted, mut single) = (None, None);
    if dense {
        // The op itself at the counters level: the executor's and the
        // video store's counts.
        d.video.reset_usage();
        let (tasks0, stolen0) = (
            counter(m.tel, names::EXEC_TASKS_EXECUTED),
            counter(m.tel, names::EXEC_TASKS_STOLEN),
        );
        counted = m.counted.match_many(targets).ok().map(|r| canon(&r));
        let vs = d.video.stats();
        t.counts.v_extracted += vs.extracted_scenarios as u64;
        t.counts.v_hits += vs.cache_hits;
        t.exec_ops += 1;
        t.exec_tasks += counter(m.tel, names::EXEC_TASKS_EXECUTED) - tasks0;
        t.exec_stolen += counter(m.tel, names::EXEC_TASKS_STOLEN) - stolen0;
        // The same op at one thread: the speed-up pair.
        single = timed_match(d, &m.one_thread, targets, &mut t.one_thread_ms);
    }
    // The op recomposed from its layer calls, one span per call.
    d.video.reset_usage();
    let op = rec.open("op", None, i);
    let replica = if dense {
        sharded_traced(
            rec,
            op,
            &d.estore,
            &d.video,
            targets,
            &m.config,
            Workload::Dense2t.threads(),
            m.tel,
            &mut t.counts,
        )
    } else {
        Ok(match_many_traced(
            rec,
            op,
            &d.estore,
            &d.video,
            targets,
            &m.config,
            m.tel,
            &mut t.counts,
        ))
    };
    t.traced_ms.push(ms(rec.close(op)));
    if !dense {
        let vs = d.video.stats();
        t.counts.v_extracted += vs.extracted_scenarios as u64;
        t.counts.v_hits += vs.cache_hits;
    }
    // `Sharded(2)` beside `Dag(2)` on the same target set, in
    // alternating order: the two-thread paths `evmatch match` offers.
    let (sharded2, dag2) = if i.is_multiple_of(2) {
        let s = timed_match(d, &m.sharded2, targets, &mut t.sharded2_ms);
        (s, timed_match(d, &m.dag2, targets, &mut t.dag2_ms))
    } else {
        let g = timed_match(d, &m.dag2, targets, &mut t.dag2_ms);
        (timed_match(d, &m.sharded2, targets, &mut t.sharded2_ms), g)
    };
    TracedBatch {
        replica,
        counted,
        single,
        sharded2,
        dag2,
    }
}

/// `batch-seq` and `dense-2t`: closed-loop `match_many` on a fresh
/// target set per op. Traced runs put the traced side of every other op
/// first, so neither side always runs on caches the other warmed.
fn batch(
    p: &Params,
    d: &EvDataset,
    ops: &mut Ops,
    rec: &mut Recorder,
    t: &mut Traced,
    checks: &mut Checks,
) {
    t.root = "op";
    let dense = p.workload == Workload::Dense2t;
    let config = MatcherConfig {
        execution: p.workload.execution(),
        ..MatcherConfig::default()
    };
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let m = BatchMatchers::new(d, config, &tel);
    let mut identity: Vec<(BTreeSet<Eid>, String)> = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < p.seconds {
        let targets = sample_targets(d, TARGETS, op_seed(p.seed, i));
        let traced_first = p.trace && i % 2 == 1;
        let mut traced = None;
        if traced_first {
            traced = Some(traced_batch_op(i, &targets, d, dense, &m, rec, t));
        }
        d.video.reset_usage();
        let t0 = Instant::now();
        let result = m.op.match_many(&targets);
        let dt = ms(t0.elapsed());
        let v_extracted = d.video.stats().extracted_scenarios as u64;
        if p.trace && !traced_first {
            traced = Some(traced_batch_op(i, &targets, d, dense, &m, rec, t));
        }
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                checks.record(false, || format!("op {i}: match_many failed: {e}"));
                i += 1;
                continue;
            }
        };
        checks.record(one_outcome_per_target(&report, &targets), || {
            format!(
                "op {i}: {} outcomes for {} targets",
                report.outcomes.len(),
                targets.len()
            )
        });
        ops.ms.push(dt);
        ops.eids += targets.len() as u64;
        ops.correct += correct_matches(d, &report);
        ops.judged += targets.len() as u64;
        ops.v_extracted += v_extracted;
        if let Some(tb) = traced {
            t.untraced_ms.push(dt);
            let expected = canon(&report);
            let replica = tb.replica.map(|r| canon(&r));
            checks.record(replica.as_ref() == Ok(&expected), || match &replica {
                Ok(_) => format!("op {i}: traced decomposition differs from match_many"),
                Err(e) => format!("op {i}: traced decomposition failed: {e}"),
            });
            if dense {
                t.two_thread_ms.push(dt);
                checks.record(tb.single.as_ref() == Some(&expected), || {
                    format!("op {i}: 1-thread report differs from 2-thread")
                });
                checks.record(tb.counted.as_ref() == Some(&expected), || {
                    format!("op {i}: counters-level report differs")
                });
            }
            checks.record(tb.sharded2.is_some() && tb.dag2 == tb.sharded2, || {
                format!("op {i}: Dag(2) report differs from Sharded(2)")
            });
        } else if dense && identity.len() < IDENTITY_SAMPLES {
            identity.push((targets, canon(&report)));
        }
        i += 1;
    }
    for (k, (targets, expected)) in identity.iter().enumerate() {
        let same = m
            .one_thread
            .match_many(targets)
            .is_ok_and(|r| canon(&r) == *expected);
        checks.record(same, || {
            format!("identity sample {k}: 1-thread report differs")
        });
    }
    if p.trace && dense {
        tel.sync_derived_metrics();
        t.task_p99_ns = tel
            .registry()
            .gauge_value(names::EXEC_TASK_LATENCY_P99_NS)
            .unwrap_or(0.0);
    }
}

/// `lookup`: closed-loop `match_one`, cycling through the EIDs in a
/// seeded order. Traced runs alternate which side of an op goes first.
fn lookup(
    p: &Params,
    d: &EvDataset,
    ops: &mut Ops,
    rec: &mut Recorder,
    t: &mut Traced,
    checks: &mut Checks,
) {
    t.root = "op";
    let config = MatcherConfig::default();
    let matcher = EvMatcher::new(&d.estore, &d.video, config.clone());
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let order = seeded_order(d, p.seed);
    let traced_op = |i: u64, eid: Eid, rec: &mut Recorder, t: &mut Traced| {
        d.video.reset_usage();
        let op = rec.open("op", None, i);
        let outcome = match_one_traced(
            rec,
            op,
            &d.estore,
            &d.video,
            eid,
            &config,
            &tel,
            &mut t.counts,
        );
        t.traced_ms.push(ms(rec.close(op)));
        let vs = d.video.stats();
        t.counts.v_extracted += vs.extracted_scenarios as u64;
        t.counts.v_hits += vs.cache_hits;
        canon_outcome(&outcome)
    };
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < p.seconds {
        let eid = order[(i as usize) % order.len()];
        let traced_first = p.trace && i % 2 == 1;
        let mut traced = None;
        if traced_first {
            traced = Some(traced_op(i, eid, rec, t));
        }
        d.video.reset_usage();
        let t0 = Instant::now();
        let report = matcher.match_one(eid);
        let dt = ms(t0.elapsed());
        let v_extracted = d.video.stats().extracted_scenarios as u64;
        if p.trace && !traced_first {
            traced = Some(traced_op(i, eid, rec, t));
        }
        let ok = report.outcomes.len() == 1 && report.outcomes[0].eid == eid;
        checks.record(ok, || {
            format!(
                "op {i}: match_one({eid}) gave {} outcomes",
                report.outcomes.len()
            )
        });
        ops.ms.push(dt);
        ops.eids += 1;
        ops.correct += correct_matches(d, &report);
        ops.judged += 1;
        ops.v_extracted += v_extracted;
        if let Some(traced) = traced {
            t.untraced_ms.push(dt);
            let same = ok && traced == canon_outcome(&report.outcomes[0]);
            checks.record(same, || {
                format!("op {i}: traced decomposition differs from match_one")
            });
        }
        i += 1;
    }
}

/// `serve-day`: stream the world into a fresh on-disk live corpus, one
/// `ingest` → `apply` → watch-set `query` per window, day after day.
/// An op is a day's watch-set queries: a query's cost ramps with the
/// corpus over the day, so per-query percentiles would sit on the
/// boundaries between windows, and a day's sum averages that out. The
/// ingest and apply calls, which carry the fsyncs, are measured as
/// ingest rate and freshness.
/// Traced runs alternate a `LiveCorpus` day with a recomposed day.
fn serve_day(
    p: &Params,
    d: &EvDataset,
    ops: &mut Ops,
    stream: &mut Stream,
    rec: &mut Recorder,
    t: &mut Traced,
    checks: &mut Checks,
) -> Result<(), String> {
    t.root = "window";
    let windows = windows(d);
    // Each day's corpora are deleted when the day ends. Deleting them all
    // at the end of the run instead left gigabytes of discard work on a
    // filesystem mounted with `discard` to whatever ran next, and
    // consecutive runs slowed down.
    let root = p.scratch.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let start = Instant::now();
    let mut day = 0u64;
    let mut result = Ok(());
    while result.is_ok() && (day == 0 || start.elapsed() < p.seconds) {
        // A fresh watch set each day, so a run averages over many.
        let config = ServeConfig {
            cost: d.video.cost_model(),
            watch: sample_targets(d, WATCH, op_seed(p.seed, day)),
            checkpoint_every: CHECKPOINT_EVERY,
            ..ServeConfig::default()
        };
        let dir = root.join(format!("day{day}"));
        result = live_day(p, d, &dir, &config, &windows, ops, stream, t, checks, day);
        let _ = std::fs::remove_dir_all(&dir);
        if result.is_ok() && p.trace {
            let dir = root.join(format!("traced{day}"));
            result = traced_day(&dir, &config, &windows, rec, t, checks, day);
            let _ = std::fs::remove_dir_all(&dir);
        }
        day += 1;
    }
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// Final-epoch answer and watch lists of the last `LiveCorpus` day, for
/// the recomposed day to match.
struct DayEnd {
    report: String,
    watch_lists: Option<evmatch::matching::setsplit::SplitOutput>,
}

#[allow(clippy::too_many_arguments)]
fn live_day(
    p: &Params,
    d: &EvDataset,
    dir: &Path,
    config: &ServeConfig,
    windows: &[(Vec<EScenario>, Vec<VScenario>)],
    ops: &mut Ops,
    stream: &mut Stream,
    t: &mut Traced,
    checks: &mut Checks,
    day: u64,
) -> Result<(), String> {
    let watch = &config.watch;
    let tel = Telemetry::off();
    let mut live =
        LiveCorpus::open(dir, config.clone(), &tel).map_err(|e| format!("day {day}: open: {e}"))?;
    let mut last: Option<MatchReport> = None;
    let mut day_ms = 0.0;
    for (w, (e, v)) in windows.iter().enumerate() {
        let (e, v) = (e.clone(), v.clone());
        let events = (e.len() + v.len()) as u64;
        let t0 = Instant::now();
        let receipt = live.ingest(e, v);
        let t1 = Instant::now();
        let applied = live.apply();
        let t2 = Instant::now();
        let receipt = receipt.map_err(|e| format!("day {day} window {w}: ingest: {e}"))?;
        applied.map_err(|e| format!("day {day} window {w}: apply: {e}"))?;
        stream.events += events;
        stream
            .ingest_per_s
            .push(events as f64 / (t1 - t0).as_secs_f64());
        stream.freshness_ms.push(ms(t2 - t0));
        stream.staleness_max = stream.staleness_max.max(receipt.staged_events);
        live.video().reset_usage();
        let t3 = Instant::now();
        let answer = live.query(watch);
        let dt = ms(t3.elapsed());
        let answer = answer.map_err(|e| format!("day {day} window {w}: query: {e}"))?;
        checks.record(one_outcome_per_target(&answer.report, watch), || {
            format!(
                "day {day} window {w}: {} outcomes",
                answer.report.outcomes.len()
            )
        });
        checks.record(
            answer.epoch == w as u64 + 1 && answer.staleness_events == 0,
            || {
                format!(
                    "day {day} window {w}: epoch {} staleness {}",
                    answer.epoch, answer.staleness_events
                )
            },
        );
        day_ms += dt;
        ops.eids += watch.len() as u64;
        ops.v_extracted += live.video().stats().extracted_scenarios as u64;
        if p.trace {
            t.untraced_ms.push(dt);
        }
        last = Some(answer.report);
    }
    ops.ms.push(day_ms);
    let last = last.ok_or("a day has at least one window")?;
    ops.correct += correct_matches(d, &last);
    ops.judged += watch.len() as u64;
    if day == 0 {
        // The final epoch, queried offline on the same snapshot.
        let offline = EvMatcher::new(live.estore(), live.video(), config.matcher.clone())
            .match_many(watch)
            .map(|r| canon(&r));
        checks.record(offline.is_ok_and(|r| r == canon(&last)), || {
            format!("day {day}: live final-epoch answer differs from offline match_many")
        });
    }
    let day_end = DayEnd {
        report: canon(&last),
        watch_lists: live.watch_lists(),
    };
    live.finish()
        .map_err(|e| format!("day {day}: finish: {e}"))?;
    if p.trace {
        t.bytes_per_day.push(dir_bytes(dir) as f64);
        t.last_day = Some(day_end);
    }
    Ok(())
}

/// One day of the live service recomposed from its layer calls: the
/// durable append and checkpoint of `IngestWriter`, the store splices,
/// the incremental watch-set split, and the recomposed query.
#[allow(clippy::too_many_arguments)]
fn traced_day(
    dir: &Path,
    config: &ServeConfig,
    windows: &[(Vec<EScenario>, Vec<VScenario>)],
    rec: &mut Recorder,
    t: &mut Traced,
    checks: &mut Checks,
    day: u64,
) -> Result<(), String> {
    let watch = &config.watch;
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let disk = DiskStore::create(dir).map_err(|e| format!("traced day {day}: create: {e}"))?;
    let mut writer = IngestWriter::new(
        disk,
        CheckpointPolicy {
            records_per_checkpoint: config.checkpoint_every,
        },
    );
    let mut estore = EScenarioStore::from_scenarios(Vec::new());
    let mut video = VideoStore::new(Vec::new(), config.cost);
    let watch_cfg = SetSplitConfig {
        strategy: SelectionStrategy::Chronological,
        ..config.matcher.split
    };
    let mut incr = IncrementalSplit::new(watch, &watch_cfg);
    incr.absorb(&estore);
    let mut last = None;
    for (w, (e, v)) in windows.iter().enumerate() {
        let (e, v) = (e.clone(), v.clone());
        let op = rec.open("window", None, op_id(day, w));
        let a0 = Instant::now();
        let pushed = rec.time("ev-disk.append", op, || writer.push(&e, &v));
        t.append_ms.push(ms(a0.elapsed()));
        pushed.map_err(|e| format!("traced day {day} window {w}: push: {e}"))?;
        let apply = rec.open("serve.apply", Some(op), op_id(day, w));
        let c0 = Instant::now();
        let committed = rec.time("ev-disk.checkpoint", apply, || writer.checkpoint());
        t.checkpoint_ms.push(ms(c0.elapsed()));
        committed.map_err(|e| format!("traced day {day} window {w}: checkpoint: {e}"))?;
        let stats = rec.time("ev-store.ingest", apply, || estore.ingest(e));
        rec.time("ev-store.video_ingest", apply, || video.ingest(v));
        let b0 = Instant::now();
        rec.time("serve.incremental_absorb", apply, || {
            if stats.rebuilt {
                incr = IncrementalSplit::new(watch, &watch_cfg);
            }
            incr.absorb(&estore)
        });
        t.absorb_ms.push(ms(b0.elapsed()));
        t.apply_ms.push(ms(rec.close(apply)));
        video.reset_usage();
        let query = rec.open("serve.query", Some(op), op_id(day, w));
        let report = match_many_traced(
            rec,
            query,
            &estore,
            &video,
            watch,
            &config.matcher,
            &tel,
            &mut t.counts,
        );
        let q = ms(rec.close(query));
        t.query_ms.push(q);
        t.traced_ms.push(q);
        rec.close(op);
        let vs = video.stats();
        t.counts.v_extracted += vs.extracted_scenarios as u64;
        t.counts.v_hits += vs.cache_hits;
        last = Some(report);
    }
    writer
        .finish()
        .map_err(|e| format!("traced day {day}: finish: {e}"))?;
    t.bytes_per_day.push(dir_bytes(dir) as f64);
    if let (Some(live), Some(report)) = (t.last_day.take(), last) {
        checks.record(live.report == canon(&report), || {
            format!("traced day {day}: final answer differs from the LiveCorpus day")
        });
        checks.record(live.watch_lists == Some(incr.output(&estore)), || {
            format!("traced day {day}: watch lists differ from the LiveCorpus day")
        });
    }
    Ok(())
}

fn op_id(day: u64, window: usize) -> u64 {
    day * 1000 + window as u64
}
