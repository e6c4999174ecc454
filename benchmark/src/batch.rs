//! `batch_publish`: the one-shot custodian path, `acpp publish` without a
//! journal, over a labelled SAL CSV file.
//!
//! Closed loop, one caller. Set-up writes the input the way `acpp generate`
//! does (fifteen times; the median is `setup_s`). One warm-up op, then ops
//! back to back for the window. Each op reads and parses the CSV, runs the
//! three-phase publication on [`sut::THREADS`] engine threads, renders the
//! release and writes it atomically. Every op uses the same seed, so every
//! release must be byte-identical. In the traced run each timed op runs
//! twice, once plain and once with every call timed.

use std::time::Instant;

use crate::run::{closed_loop, halves, medians, Outcome, Settings, Timed, COUNT_OPS};
use crate::sut::{self, Telemetry};
use crate::trace::{self, Spans};

/// Input rows of the full workload (see "Sizes" in the module docs of
/// `main.rs`).
const ROWS: usize = 50_000;
/// Input rows under `--quick`.
const QUICK_ROWS: usize = 5_000;
const SETUP_REPEATS: usize = 15;
const MIN_OPS: usize = 3;

/// Work counts and shard times of one traced op.
#[derive(Default)]
struct OpLayers {
    csv_read_allocs: f64,
    pipeline_allocs: f64,
    par_tasks: f64,
    io_ops: f64,
    shards: sut::ShardTime,
}

/// Runs the workload.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let rows = if s.quick { QUICK_ROWS } else { ROWS };
    let world = sut::sal_world();
    let input = s.work.join("input.csv");
    let output = s.work.join("dstar.csv");
    let mut out = Outcome::default();

    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let table = sut::sal_table(rows, s.seed);
        sut::write_atomic(&input, sut::table_csv(&table)?.as_bytes())?;
        out.setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut spans = Spans::new();
    let mut expected_digest = None;
    let op = |index: usize, traced: bool| -> Timed<OpLayers> {
        let (mut plain_ms, mut record) = (0.0, None);
        for &instrumented in halves(index, traced) {
            let (ms, published, bytes, layers) = if instrumented {
                traced_op(s, &world, &input, &output, index as u64, &mut spans)?
            } else {
                plain_op(s, &world, &input, &output)?
            };
            check(&published, &bytes, rows, &mut expected_digest)?;
            match layers {
                Some(layers) => record = Some((ms, layers)),
                None => plain_ms = ms,
            }
        }
        Ok((plain_ms, record))
    };
    let (layers, overhead) = closed_loop(s, 1, MIN_OPS, &mut out, op);

    if s.trace {
        let head = &layers[..layers.len().min(COUNT_OPS)];
        let col = |f: fn(&OpLayers) -> f64| head.iter().map(f).collect::<Vec<f64>>();
        out.layers = medians(&[
            ("data.csv_read_allocs", col(|l| l.csv_read_allocs)),
            ("core.pipeline_allocs", col(|l| l.pipeline_allocs)),
            ("core.par_tasks", col(|l| l.par_tasks)),
            ("data.io_ops", col(|l| l.io_ops)),
        ]);
        let shards = layers
            .iter()
            .fold(sut::ShardTime::default(), |a, l| a.plus(l.shards));
        out.layers.extend(shards.shares(spans.root_us()));
        out.layers.push(("obs.trace_overhead_frac", overhead));
        out.spans = Some(spans);
    }
    Ok(out)
}

type OpResult = Result<(f64, sut::PublishedTable, Vec<u8>, Option<OpLayers>), String>;

/// One untraced op: exactly the calls `acpp publish` makes.
fn plain_op(
    s: &Settings,
    world: &sut::World,
    input: &std::path::Path,
    output: &std::path::Path,
) -> OpResult {
    let started = Instant::now();
    let table = sut::read_table(world, input)?;
    let mut rng = sut::rng(s.seed);
    let published = sut::publish(&table, world, &mut rng, &Telemetry::disabled())?;
    let rendered = sut::render(&published, world);
    sut::write_atomic(output, rendered.as_bytes())?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((ms, published, rendered.into_bytes(), None))
}

/// The same calls, each timed, with the program's phase spans, the shard
/// profiler, allocation counts and work counters collected around them.
fn traced_op(
    s: &Settings,
    world: &sut::World,
    input: &std::path::Path,
    output: &std::path::Path,
    op: u64,
    spans: &mut Spans,
) -> OpResult {
    let mut l = OpLayers::default();
    let armed = trace::Armed::new();
    let started = Instant::now();

    let a0 = trace::allocs();
    let table = sut::read_table(world, input)?;
    let t_read = Instant::now();
    l.csv_read_allocs = (trace::allocs() - a0) as f64;

    // The telemetry clock starts when the handle is built, just before the
    // call; its spans are placed on the benchmark's clock from there.
    let telemetry = Telemetry::enabled();
    let c0 = sut::Counters::now();
    let a0 = trace::allocs();
    let t_pub0 = Instant::now();
    let mut rng = sut::rng(s.seed);
    let published = sut::publish(&table, world, &mut rng, &telemetry)?;
    let t_pub1 = Instant::now();
    l.pipeline_allocs = (trace::allocs() - a0) as f64;
    l.par_tasks = sut::Counters::now().since(c0).par_tasks as f64;

    let rendered = sut::render(&published, world);
    let t_render = Instant::now();
    let c0 = sut::Counters::now();
    sut::write_atomic(output, rendered.as_bytes())?;
    let ended = Instant::now();
    l.io_ops = sut::Counters::now().since(c0).io_ops as f64;
    l.shards = armed.finish();

    let root = spans.push_at("op", started, ended, None, op);
    spans.push_at("data.csv_read", started, t_read, Some(root), op);
    let pipeline = spans.push_at("core.pipeline", t_pub0, t_pub1, Some(root), op);
    let base = spans.us(t_pub0);
    for (name, a, b) in sut::closed_spans(&telemetry) {
        if let Some(layer) = sut::phase_layer(name) {
            spans.push(layer, base + a, base + b, Some(pipeline), op);
        }
    }
    spans.push_at("core.render", t_pub1, t_render, Some(root), op);
    spans.push_at("data.write_atomic", t_render, ended, Some(root), op);

    let ms = ended.duration_since(started).as_secs_f64() * 1e3;
    Ok((ms, published, rendered.into_bytes(), Some(l)))
}

/// The release is k-anonymous, covers every input row, samples one tuple
/// per group, and is byte-identical to every other op's (same seed).
fn check(
    published: &sut::PublishedTable,
    bytes: &[u8],
    rows: usize,
    expected_digest: &mut Option<u64>,
) -> Result<(), String> {
    let tuples = published.tuples();
    if let Some(t) = tuples.iter().find(|t| t.group_size < sut::K) {
        return Err(format!(
            "group of size {} below k = {}",
            t.group_size,
            sut::K
        ));
    }
    if tuples.len() > rows / sut::K {
        return Err(format!(
            "{} tuples exceed n/k = {}",
            tuples.len(),
            rows / sut::K
        ));
    }
    let covered: usize = tuples.iter().map(|t| t.group_size).sum();
    if covered != rows {
        return Err(format!("groups cover {covered} of {rows} rows"));
    }
    let digest = sut::fnv1a(bytes);
    match expected_digest {
        None => *expected_digest = Some(digest),
        Some(d) if *d != digest => return Err("release differs from the first op's".into()),
        Some(_) => {}
    }
    Ok(())
}
