//! The CLI subcommands.

use crate::error::CliError;
use crate::flags::Flags;
use crate::schema_spec;
use crate::ui::Ui;
use acpp_attack::breach::{simulate, BreachSimConfig};
use acpp_attack::ExternalDatabase;
use acpp_core::guarantees::{max_retention_for_delta, max_retention_for_rho2};
use acpp_core::journal::{publish_journaled, resume, CrashPoint, RunOptions};
use acpp_conformance::{run_audit, AuditConfig};
use acpp_core::{
    publish, publish_robust_observed, record_guarantee_surface, AcppError, DegradationPolicy,
    GuaranteeParams, Phase2Algorithm, PgConfig, Threads,
};
use acpp_obs::{render_prometheus, render_summary, render_trace, Telemetry};
use acpp_data::digest::render_digest;
use acpp_data::sal::{self, SalConfig};
use acpp_data::{csv, write_atomic, RetryPolicy, Schema, Table, Taxonomy, Value};
use acpp_mining::{
    category_channel, classification_error, DecisionTree, MiningSet, TreeConfig,
};
use acpp_perturb::Channel;
use acpp_sample::sample_without_replacement;
use acpp_serve::{signals, Daemon, DaemonConfig, FleetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};

type CliResult = Result<(), CliError>;

/// File inside a journal directory recording the publish invocation, so
/// `acpp resume DIR` can reload the same inputs and parameters.
const JOB_FILE: &str = "job";

fn schema_from_path(path: Option<&str>) -> Result<(Schema, Vec<Taxonomy>), CliError> {
    match path {
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read schema `{path}`: {e}"))?;
            let schema = schema_spec::parse(&text)?;
            let taxonomies = schema_spec::default_taxonomies(&schema);
            Ok((schema, taxonomies))
        }
        None => Ok((sal::schema(), sal::qi_taxonomies())),
    }
}

fn load_schema(flags: &Flags) -> Result<(Schema, Vec<Taxonomy>), CliError> {
    schema_from_path(flags.get_str("schema"))
}

fn load_table(flags: &Flags, schema: &Schema) -> Result<Table, CliError> {
    let path: String = flags.require("input")?;
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read input `{path}`: {e}"))?;
    Ok(csv::from_str(schema, &text)?)
}

fn algorithm(flags: &Flags) -> Result<Phase2Algorithm, CliError> {
    Ok(flags.get_str("algorithm").unwrap_or("mondrian").parse::<Phase2Algorithm>()?)
}

fn pg_config(flags: &Flags) -> Result<PgConfig, CliError> {
    let p: f64 = flags.require("p")?;
    // Out-of-range p/k/s here is an input rejected before any phase ran, so
    // it surfaces as a validation failure (exit 2), not a pipeline error.
    let reject = |e: acpp_core::CoreError| AcppError::Validation(e.to_string());
    let cfg = match flags.get_str("s") {
        Some(s) => PgConfig::from_sampling_rate(p, s.parse().map_err(|_| "bad --s value")?)
            .map_err(reject)?,
        None => PgConfig::new(p, flags.get("k", 6usize)?).map_err(reject)?,
    };
    Ok(cfg.with_algorithm(algorithm(flags)?))
}

/// Telemetry wiring shared by `publish` and `resume`: `--trace FILE`
/// enables span collection and writes the run's JSONL trace there;
/// `--metrics FILE` writes a Prometheus text snapshot of the process-wide
/// registry. `--verbose` also enables spans so the run summary printed to
/// stderr has content.
struct Obs {
    telemetry: Telemetry,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Obs {
    fn from_flags(flags: &Flags, ui: &Ui) -> Self {
        let trace = flags.get_str("trace").map(str::to_string);
        let metrics = flags.get_str("metrics").map(str::to_string);
        let telemetry = if trace.is_some() || ui.verbose() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        Obs { telemetry, trace, metrics }
    }

    /// Writes the requested artifacts atomically and, under `--verbose`,
    /// prints the human run summary to stderr. Called after the command's
    /// pipeline work so the snapshot covers the whole run.
    fn finish(&self, ui: &Ui) -> Result<(), CliError> {
        let io = RetryPolicy::default();
        if let Some(path) = &self.trace {
            write_atomic(Path::new(path), render_trace(&self.telemetry).as_bytes(), &io)?;
            ui.progress(format_args!("trace written to {path}"));
        }
        let snapshot = acpp_obs::metrics().snapshot();
        if let Some(path) = &self.metrics {
            write_atomic(Path::new(path), render_prometheus(&snapshot).as_bytes(), &io)?;
            ui.progress(format_args!("metrics written to {path}"));
        }
        ui.detail_block(render_summary(&self.telemetry, &snapshot));
        Ok(())
    }
}

/// `acpp generate --rows N [--seed S] --out data.csv`
pub fn generate(flags: &Flags) -> CliResult {
    let ui = Ui::from_flags(flags)?;
    let rows: usize = flags.get("rows", 100_000)?;
    let seed: u64 = flags.get("seed", 2008)?;
    let out: String = flags.require("out")?;
    let table = sal::generate(SalConfig { rows, seed });
    let io = RetryPolicy::default();
    write_atomic(Path::new(&out), csv::to_string(&table, true)?.as_bytes(), &io)?;
    let schema_path = format!("{out}.schema");
    write_atomic(Path::new(&schema_path), schema_spec::render(table.schema()).as_bytes(), &io)?;
    ui.progress(format_args!("wrote {rows} rows to {out} (schema: {schema_path})"));
    Ok(())
}

/// `acpp publish --input data.csv [--schema f] --p P (--k K | --s S)
///  [--algorithm A] [--seed S] [--lambda L] [--on-error abort|skip]
///  [--threads auto|N] [--journal DIR] --out dstar.csv`
///
/// With `--journal DIR`, the run is journaled: the release commits
/// atomically and an interrupted run is completed byte-identically by
/// `acpp resume DIR`. The undocumented `--crash-at POINT` flag injects a
/// simulated crash (see [`CrashPoint::parse`]) for the recovery test
/// matrix.
pub fn publish_cmd(flags: &Flags) -> CliResult {
    let ui = Ui::from_flags(flags)?;
    let obs = Obs::from_flags(flags, &ui);
    let (schema, taxonomies) = load_schema(flags)?;
    let table = load_table(flags, &schema)?;
    let cfg = pg_config(flags)?;
    let seed: u64 = flags.get("seed", 2008)?;
    let out: String = flags.require("out")?;
    let policy = flags.get_str("on-error").unwrap_or("abort").parse::<DegradationPolicy>();
    let policy = policy.map_err(|e| format!("--on-error: {e}"))?;
    let threads = parse_threads(flags)?;
    let (dstar, report) = match flags.get_str("journal") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            let crash = match flags.get_str("crash-at") {
                Some(s) => Some(CrashPoint::parse(s).ok_or_else(|| {
                    format!("unknown --crash-at point `{s}`")
                })?),
                None => None,
            };
            fs::create_dir_all(&dir).map_err(|e| {
                format!("cannot create journal directory `{}`: {e}", dir.display())
            })?;
            write_job(&dir, flags, cfg, policy, seed, &out)?;
            let opts = RunOptions {
                threads,
                telemetry: Some(&obs.telemetry),
                crash,
                ..RunOptions::default()
            };
            let run = publish_journaled(
                &table,
                &taxonomies,
                cfg,
                policy,
                seed,
                &dir,
                Path::new(&out),
                &opts,
            )?;
            (run.published, run.report)
        }
        None => {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dstar, report) = publish_robust_observed(
                &table,
                &taxonomies,
                cfg,
                policy,
                None,
                threads,
                &mut rng,
                &obs.telemetry,
            )?;
            write_atomic(
                Path::new(&out),
                dstar.render(&taxonomies).as_bytes(),
                &RetryPolicy::default(),
            )?;
            (dstar, report)
        }
    };
    if !report.is_clean() {
        ui.progress_block(&report);
    }

    let us = schema.sensitive_domain_size();
    let lambda: f64 = flags.get("lambda", (0.1f64).max(1.0 / us as f64))?;
    let gp = GuaranteeParams::new(cfg.p, cfg.k, lambda, us)?;
    record_guarantee_surface(&dstar, lambda);
    obs.finish(&ui)?;
    ui.progress(format_args!(
        "published {} of {} tuples to {out} (p = {}, k = {})",
        dstar.len(),
        table.len(),
        cfg.p,
        cfg.k
    ));
    ui.progress(format_args!(
        "certified against {lambda}-skewed adversaries with any corruption power:"
    ));
    ui.progress(format_args!("  Delta-growth  <= {:.4}", gp.min_delta()?));
    ui.progress(format_args!("  0.2-to-rho2   <= {:.4}", gp.min_rho2(0.2)?));
    Ok(())
}

/// `acpp republish --input base.csv [--schema f] --p P (--k K | --s S)
///  --series DIR [--delta FILE[,FILE...]] [--seed S] [--threads auto|N]`
///
/// Publishes a *series* of releases into `--series DIR` through the durable
/// commit protocol: a full release of `--input`, then one incremental
/// release per `--delta` update-batch file (CSV lines `I,<owner>,<vals...>`
/// / `D,<owner>`), each computed by repairing only the Mondrian regions the
/// batch touches while untouched regions republish verbatim. The retained
/// partition is process-local, so deltas always follow the full release of
/// the same invocation.
pub fn republish_cmd(flags: &Flags) -> CliResult {
    use acpp_republish::{parse_updates_csv, SeriesPublisher};

    let ui = Ui::from_flags(flags)?;
    let (schema, taxonomies) = load_schema(flags)?;
    let table = load_table(flags, &schema)?;
    let cfg = pg_config(flags)?;
    if !flags.get_str("delta").map_or(true, str::is_empty)
        && cfg.algorithm != Phase2Algorithm::Mondrian
    {
        return Err("--delta requires --algorithm mondrian".into());
    }
    let seed: u64 = flags.get("seed", 2008)?;
    let series_dir: String = flags.require("series")?;
    let threads = parse_threads(flags)?;
    let us = schema.sensitive_domain_size();
    let (series, recovery) =
        SeriesPublisher::open(cfg, us, &series_dir, RetryPolicy::default())?;
    let mut series = series.with_threads(threads);
    match recovery {
        acpp_data::atomic::CommitRecovery::Clean => {}
        other => ui.progress(format_args!("series recovery: {other:?}")),
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let base = series.publish_next(&table, &taxonomies, &mut rng)?;
    ui.progress(format_args!(
        "release {:04}: {} tuples over {} rows (full) -> {}",
        base.index,
        base.published.len(),
        table.len(),
        base.path.display()
    ));
    for path in flags.get_str("delta").unwrap_or("").split(',').filter(|s| !s.is_empty()) {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read delta batch `{path}`: {e}"))?;
        let updates = parse_updates_csv(&schema, &text)?;
        let release = series.publish_delta(&updates, &taxonomies, &mut rng)?;
        let rows: usize = release.published.tuples().iter().map(|t| t.group_size).sum();
        ui.progress(format_args!(
            "release {:04}: {} tuples over {rows} rows (delta {path}: {} updates) -> {}",
            release.index,
            release.published.len(),
            updates.len(),
            release.path.display()
        ));
    }
    ui.progress(format_args!(
        "series at {series_dir}: {} durable releases (p = {}, k = {})",
        series.releases(),
        cfg.p,
        cfg.k
    ));
    Ok(())
}

/// `--threads auto|N` — worker threads for the parallel engine. The output
/// is byte-identical for every value; the knob only affects wall-clock.
fn parse_threads(flags: &Flags) -> Result<Threads, CliError> {
    match flags.get_str("threads") {
        None => Ok(Threads::Auto),
        Some(s) => Threads::parse(s).map_err(CliError::from),
    }
}

/// Records the publish invocation in the journal directory (atomically),
/// so `acpp resume` can rebuild the identical run. `p` is stored as its
/// exact bit pattern: the journal fingerprint is bit-precise.
fn write_job(
    dir: &Path,
    flags: &Flags,
    cfg: PgConfig,
    policy: DegradationPolicy,
    seed: u64,
    out: &str,
) -> Result<(), CliError> {
    let input: String = flags.require("input")?;
    let mut body = String::from("acpp-job v1\n");
    body.push_str(&format!("input={input}\n"));
    if let Some(schema) = flags.get_str("schema") {
        body.push_str(&format!("schema={schema}\n"));
    }
    body.push_str(&format!("p_bits={:016x}\n", cfg.p.to_bits()));
    body.push_str(&format!("k={}\n", cfg.k));
    body.push_str(&format!("algorithm={}\n", cfg.algorithm.wire_name()));
    body.push_str(&format!("policy={}\n", policy.wire_name()));
    body.push_str(&format!("seed={seed}\n"));
    body.push_str(&format!("out={out}\n"));
    write_atomic(&dir.join(JOB_FILE), body.as_bytes(), &RetryPolicy::default())?;
    Ok(())
}

struct Job {
    input: String,
    schema: Option<String>,
    cfg: PgConfig,
    policy: DegradationPolicy,
    seed: u64,
    out: String,
}

fn read_job(dir: &Path) -> Result<Job, CliError> {
    let path = dir.join(JOB_FILE);
    let journal_err =
        |msg: String| CliError::from(AcppError::Journal(msg));
    let text = fs::read_to_string(&path).map_err(|e| {
        journal_err(format!(
            "cannot read job record `{}`: {e} — was the publish run with --journal?",
            path.display()
        ))
    })?;
    let malformed = || journal_err(format!("malformed job record `{}`", path.display()));
    let mut lines = text.lines();
    if lines.next() != Some("acpp-job v1") {
        return Err(malformed());
    }
    let mut input = None;
    let mut schema = None;
    let mut p_bits = None;
    let mut k = None;
    let mut alg = None;
    let mut policy = None;
    let mut seed = None;
    let mut out = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(malformed)?;
        match key {
            "input" => input = Some(value.to_string()),
            "schema" => schema = Some(value.to_string()),
            "p_bits" => p_bits = u64::from_str_radix(value, 16).ok(),
            "k" => k = value.parse::<usize>().ok(),
            "algorithm" => alg = Some(value.parse().map_err(|_| malformed())?),
            "policy" => policy = value.parse().ok(),
            "seed" => seed = value.parse::<u64>().ok(),
            "out" => out = Some(value.to_string()),
            _ => return Err(malformed()),
        }
    }
    let cfg = PgConfig {
        p: f64::from_bits(p_bits.ok_or_else(malformed)?),
        k: k.ok_or_else(malformed)?,
        algorithm: alg.ok_or_else(malformed)?,
    };
    Ok(Job {
        input: input.ok_or_else(malformed)?,
        schema,
        cfg,
        policy: policy.ok_or_else(malformed)?,
        seed: seed.ok_or_else(malformed)?,
        out: out.ok_or_else(malformed)?,
    })
}

/// `acpp resume DIR` — completes an interrupted `acpp publish --journal
/// DIR` run, producing a release byte-identical to the uninterrupted one.
/// Idempotent: resuming a completed run verifies the release and exits 0.
pub fn resume_cmd(flags: &Flags) -> CliResult {
    let ui = Ui::from_flags(flags)?;
    let obs = Obs::from_flags(flags, &ui);
    let dir = match (flags.positional(), flags.get_str("journal")) {
        ([dir], None) => PathBuf::from(dir),
        ([], Some(dir)) => PathBuf::from(dir),
        ([], None) => {
            return Err("resume needs the journal directory: acpp resume <dir>".into())
        }
        _ => return Err("resume takes exactly one journal directory".into()),
    };
    let job = read_job(&dir)?;
    let (schema, taxonomies) = schema_from_path(job.schema.as_deref())?;
    let text = fs::read_to_string(&job.input)
        .map_err(|e| format!("cannot read input `{}`: {e}", job.input))?;
    let table = csv::from_str(&schema, &text)?;
    let opts = RunOptions {
        threads: parse_threads(flags)?,
        telemetry: Some(&obs.telemetry),
        ..RunOptions::default()
    };
    let run = resume(
        &table,
        &taxonomies,
        job.cfg,
        job.policy,
        job.seed,
        &dir,
        Path::new(&job.out),
        &opts,
    )?;
    if !run.report.is_clean() {
        ui.progress_block(&run.report);
    }
    let us = schema.sensitive_domain_size();
    let lambda: f64 = flags.get("lambda", (0.1f64).max(1.0 / us as f64))?;
    record_guarantee_surface(&run.published, lambda);
    obs.finish(&ui)?;
    ui.progress(format_args!(
        "resumed publish from {} ({} phase checkpoints reused)",
        dir.display(),
        run.checkpoints_reused
    ));
    ui.progress(format_args!(
        "published {} of {} tuples to {} (digest {})",
        run.published.len(),
        table.len(),
        job.out,
        render_digest(run.release_digest)
    ));
    Ok(())
}

/// `acpp guarantee --p P --k K [--lambda L] [--us N] [--rho1 R]`
pub fn guarantee(flags: &Flags) -> CliResult {
    let p: f64 = flags.require("p")?;
    let k: usize = flags.require("k")?;
    let us: u32 = flags.get("us", 50)?;
    let lambda: f64 = flags.get("lambda", (0.1f64).max(1.0 / us as f64))?;
    let rho1: f64 = flags.get("rho1", 0.2)?;
    // The entry gate also checks the derived calculus stays finite.
    let gp = acpp_core::validate_guarantee_request(p, k, lambda, us)?;
    println!("parameters: p = {p}, k = {k}, lambda = {lambda}, |U^s| = {us}");
    println!("  h_top          = {:.4}", gp.h_top());
    println!("  w_m            = {:.4}", gp.w_m());
    println!("  minimal Delta  = {:.4}   (Theorem 3)", gp.min_delta()?);
    println!("  minimal rho2   = {:.4}   (Theorem 2, rho1 = {rho1})", gp.min_rho2(rho1)?);
    Ok(())
}

/// `acpp solve --k K (--delta D | --rho2 R [--rho1 R1]) [--lambda L] [--us N]`
pub fn solve(flags: &Flags) -> CliResult {
    let k: usize = flags.require("k")?;
    let us: u32 = flags.get("us", 50)?;
    let lambda: f64 = flags.get("lambda", (0.1f64).max(1.0 / us as f64))?;
    let p = match (flags.get_str("delta"), flags.get_str("rho2")) {
        (Some(d), None) => {
            let delta: f64 = d.parse().map_err(|_| "bad --delta value")?;
            let p = max_retention_for_delta(k, lambda, us, delta)?;
            println!("largest p certifying a {delta}-growth guarantee: {p:.4}");
            p
        }
        (None, Some(r)) => {
            let rho2: f64 = r.parse().map_err(|_| "bad --rho2 value")?;
            let rho1: f64 = flags.get("rho1", 0.2)?;
            let p = max_retention_for_rho2(k, lambda, us, rho1, rho2)?;
            println!("largest p certifying a {rho1}-to-{rho2} guarantee: {p:.4}");
            p
        }
        _ => return Err("pass exactly one of --delta or --rho2".into()),
    };
    let gp = GuaranteeParams::new(p, k, lambda, us)?;
    println!("at that p: Delta <= {:.4}, rho2 <= {:.4}", gp.min_delta()?, gp.min_rho2(0.2)?);
    Ok(())
}

/// `acpp breach --input data.csv [--schema f] --p P --k K
///  [--attacks N] [--extraneous N] [--seed S]`
pub fn breach(flags: &Flags) -> CliResult {
    let (schema, taxonomies) = load_schema(flags)?;
    let table = load_table(flags, &schema)?;
    let cfg = pg_config(flags)?;
    let attacks: usize = flags.get("attacks", 300)?;
    let seed: u64 = flags.get("seed", 2008)?;
    let extraneous: usize = flags.get("extraneous", table.len() / 10)?;
    let us = schema.sensitive_domain_size();
    let lambda: f64 = flags.get("lambda", (0.1f64).max(1.0 / us as f64))?;
    let rho1: f64 = flags.get("rho1", 0.2)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let dstar = publish(&table, &taxonomies, cfg, &mut rng)?;
    let external = ExternalDatabase::with_extraneous(&table, extraneous, &mut rng);
    let gp = GuaranteeParams::new(cfg.p, cfg.k, lambda, us)?;
    let sim = BreachSimConfig {
        attacks,
        rho1,
        rho2: gp.min_rho2(rho1)?,
        delta: gp.min_delta()?,
        lambda,
    };
    let report = simulate(&table, &taxonomies, &dstar, &external, sim, &mut rng)?;
    println!("{} linking attacks against the release:", report.attacks);
    println!("  max h           = {:.4}  (bound {:.4})", report.max_h, gp.h_top());
    println!(
        "  max growth      = {:.4}  (bound {:.4})",
        report.max_growth,
        gp.min_delta()?
    );
    println!(
        "  max posterior   = {:.4}  (bound {:.4}, prior <= {rho1})",
        report.max_posterior_under_rho1,
        gp.min_rho2(rho1)?
    );
    println!(
        "  breaches        = {}",
        report.rho_breaches + report.delta_breaches
    );
    if report.rho_breaches + report.delta_breaches > 0 {
        return Err("breach detected — this would falsify Theorems 2/3".into());
    }
    Ok(())
}

/// `acpp utility --input data.csv [--schema f] --p P --k K
///  [--classes C] [--seed S]`
pub fn utility(flags: &Flags) -> CliResult {
    let (schema, taxonomies) = load_schema(flags)?;
    let table = load_table(flags, &schema)?;
    let cfg = pg_config(flags)?;
    let classes: u32 = flags.get("classes", 2)?;
    let seed: u64 = flags.get("seed", 2008)?;
    let us = schema.sensitive_domain_size();
    if classes < 2 || classes > us {
        return Err(format!("--classes must be in 2..={us}").into());
    }
    // Equal-width bucketing of the sensitive domain into classes.
    let width = us.div_ceil(classes);
    let labeler = move |v: Value| (v.code() / width).min(classes - 1);
    let sizes: Vec<u32> = (0..classes)
        .map(|c| {
            let lo = c * width;
            let hi = ((c + 1) * width).min(us);
            hi - lo
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let dstar = publish(&table, &taxonomies, cfg, &mut rng)?;
    let eval = MiningSet::from_table(&table, classes, labeler);

    let train = MiningSet::from_published(&dstar, &taxonomies, classes, labeler);
    let min_leaf = (16.0 / (cfg.p.max(0.05) * cfg.p.max(0.05))) as usize;
    let min_leaf = min_leaf.clamp(16, (train.len() / 8).max(16));
    let pg_cfg = TreeConfig {
        max_depth: 10,
        min_rows: 2 * min_leaf,
        min_leaf_rows: min_leaf,
        ..TreeConfig::default()
    }
    .with_reconstruction(category_channel(cfg.p, &sizes));
    let pg_tree = DecisionTree::train(&train, &pg_cfg);
    let pg_err = classification_error(&pg_tree, &eval);

    let subset_rows = sample_without_replacement(&mut rng, table.len(), dstar.len().max(1));
    let subset = table.select_rows(&subset_rows);
    let opt_set = MiningSet::from_table(&subset, classes, labeler);
    let opt_tree = DecisionTree::train(&opt_set, &TreeConfig::default());
    let opt_err = classification_error(&opt_tree, &eval);

    let channel = Channel::uniform(0.0, us);
    let randomized = acpp_perturb::perturb_table(&channel, &subset, &mut rng);
    let pess_set = MiningSet::from_table(&randomized, classes, labeler);
    let pess_tree = DecisionTree::train(&pess_set, &TreeConfig::default());
    let pess_err = classification_error(&pess_tree, &eval);

    println!("classification error over the microdata ({classes} classes):");
    println!("  PG           = {:.4}", pg_err);
    println!("  optimistic   = {:.4}", opt_err);
    println!("  pessimistic  = {:.4}", pess_err);
    println!("  majority     = {:.4}", acpp_mining::eval::majority_error(&eval));
    Ok(())
}

/// `acpp audit [--quick] [--seed S] [--threads auto|N] [--out FILE]`
///
/// Runs the statistical conformance audit of `acpp_conformance` and
/// writes the machine-readable report (default
/// `results/CONFORMANCE.json`). Exit code 0 only when every check
/// passes; any violation — a disagreement between the implementation and
/// the paper — exits with the conformance code so CI can gate on it.
pub fn audit(flags: &Flags) -> CliResult {
    let ui = Ui::from_flags(flags)?;
    let obs = Obs::from_flags(flags, &ui);
    let cfg = AuditConfig {
        seed: flags.get("seed", AuditConfig::default().seed)?,
        quick: flags.has("quick"),
        threads: parse_threads(flags)?.resolve(),
    };
    ui.progress(format_args!(
        "running the {} conformance audit (seed {}, {} threads)",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads
    ));
    let report = run_audit(&cfg, &obs.telemetry)?;

    let out: String = flags.get("out", "results/CONFORMANCE.json".to_string())?;
    let path = Path::new(&out);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| {
                format!("cannot create report directory `{}`: {e}", parent.display())
            })?;
        }
    }
    write_atomic(path, report.render_json().as_bytes(), &RetryPolicy::default())?;
    println!("{}", report.render_summary());
    for v in report.violated() {
        eprintln!("violation: {} — {}", v.id, v.detail);
    }
    obs.finish(&ui)?;
    ui.progress(format_args!("report written to {out}"));
    if report.violations() > 0 {
        return Err(AcppError::Conformance(format!(
            "{} of {} checks violated; see {out}",
            report.violations(),
            report.checks.len()
        ))
        .into());
    }
    Ok(())
}

/// `acpp serve [--addr A] [--spool DIR] [--workers N] [--queue-cap N]
///  [--tenant-quota N] [--input-root DIR] [--allow-chaos]
///  [--node-id ID] [--lease-ttl MS] [--keep-alive N]` — runs
/// `acppd`, the multi-tenant publication daemon, until SIGTERM/SIGINT
/// (or `POST /drain`) triggers a graceful drain. Boot recovers the
/// spool: every interrupted job is resumed byte-identically before new
/// work mixes in. Server-side `{"input": path}` sources are disabled
/// unless `--input-root` confines them, and chaos-bearing job specs
/// (fault injection, simulated crashes) are refused unless
/// `--allow-chaos` opts this instance into the test tier.
///
/// `acpp profile [--rows N] [--threads T] [--p P] [--k K] [--seed S]
///  [--out FILE]`
///
/// Runs one publication with the shard profiler enabled and emits the
/// attributed scaling report: per-phase wall time, shard counts,
/// queue-wait vs. run time, and the serial residue that names the
/// bottleneck behind the flat scaling curve. The JSON report (with the
/// standard `meta` provenance block) goes to `--out` or stdout; the human
/// table goes to stderr.
pub fn profile(flags: &Flags) -> CliResult {
    let ui = Ui::from_flags(flags)?;
    let rows: usize = flags.get("rows", 200_000)?;
    let seed: u64 = flags.get("seed", 2008)?;
    let threads: usize = flags.get("threads", 4)?;
    let p: f64 = flags.get("p", 0.4)?;
    let k: usize = flags.get("k", 6)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let reject = |e: acpp_core::CoreError| AcppError::Validation(e.to_string());
    let cfg = PgConfig::new(p, k).map_err(reject)?;
    ui.progress(format_args!("profiling publish: {rows} rows, {threads} threads"));
    let table = sal::generate(SalConfig { rows, seed });
    let taxonomies = sal::qi_taxonomies();

    let telemetry = Telemetry::enabled();
    let prof = acpp_obs::profiler();
    prof.begin();
    let mut rng = StdRng::seed_from_u64(seed);
    let run = publish_robust_observed(
        &table,
        &taxonomies,
        cfg,
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(threads),
        &mut rng,
        &telemetry,
    );
    let samples = prof.take();
    run?;

    let records = telemetry.records();
    let report = acpp_obs::build_report(&records, &samples, threads)
        .ok_or("profiler saw no closed publication span")?;
    let meta = acpp_obs::render_run_meta(&acpp_obs::run_meta(threads));
    let json = report.render_json(&meta);
    match flags.get_str("out") {
        Some(path) => {
            write_atomic(Path::new(path), json.as_bytes(), &RetryPolicy::default())?;
            ui.progress(format_args!("profile written to {path}"));
        }
        None => print!("{json}"),
    }
    eprint!("{}", report.render_text());
    Ok(())
}

/// `--node-id` switches the daemon into fleet mode: N daemons sharing one
/// `--spool` cooperate through per-job leases — each job runs on exactly
/// one node, and a node that dies (or stalls past `--lease-ttl`
/// milliseconds without heartbeating) has its jobs stolen and resumed
/// byte-identically by a peer. `--keep-alive` lets one connection carry up
/// to N requests (default 1: every connection closes after its response).
pub fn serve(flags: &Flags) -> CliResult {
    let ui = Ui::from_flags(flags)?;
    let fleet = match flags.get_str("node-id") {
        Some(node_id) => {
            if !acpp_serve::job::is_ident(node_id) {
                return Err("--node-id must be a lawful identifier \
                            (lowercase start, [a-z0-9_-], at most 32 bytes)"
                    .into());
            }
            let ttl_ms: u64 = flags.get("lease-ttl", 2_000)?;
            if ttl_ms == 0 {
                return Err("--lease-ttl must be positive (milliseconds)".into());
            }
            Some(FleetConfig {
                node_id: node_id.to_string(),
                lease_ttl: std::time::Duration::from_millis(ttl_ms),
            })
        }
        None => {
            if flags.get_str("lease-ttl").is_some() {
                return Err("--lease-ttl requires --node-id (fleet mode)".into());
            }
            None
        }
    };
    let cfg = DaemonConfig {
        addr: flags.get_str("addr").unwrap_or("127.0.0.1:8787").to_string(),
        spool: PathBuf::from(flags.get_str("spool").unwrap_or("acppd-spool")),
        workers: flags.get("workers", 2)?,
        queue_cap: flags.get("queue-cap", 16)?,
        tenant_quota: flags.get("tenant-quota", 4)?,
        max_body_bytes: flags.get("max-body-bytes", 4 << 20)?,
        input_root: flags.get_str("input-root").map(PathBuf::from),
        allow_chaos: flags.has("allow-chaos"),
        fleet,
        keep_alive_max: flags.get("keep-alive", 1)?,
    };
    if cfg.workers == 0 || cfg.queue_cap == 0 || cfg.tenant_quota == 0 {
        return Err("--workers, --queue-cap and --tenant-quota must be positive".into());
    }
    if cfg.keep_alive_max == 0 {
        return Err("--keep-alive must be positive (requests per connection)".into());
    }
    signals::install();
    let daemon = Daemon::start(cfg)?;
    let flight = daemon.spool().join("flight.jsonl");
    install_panic_dump(flight.clone());
    // stdout carries exactly one datum: the bound address (scripts need it
    // when binding port 0), flushed eagerly because stdout is
    // block-buffered under a pipe. Everything human — banner, drain
    // notices — is stderr, like the rest of the CLI contract.
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "{}", daemon.addr());
        let _ = out.flush();
    }
    eprintln!(
        "acppd listening on {} (spool {}); SIGTERM or POST /drain drains gracefully",
        daemon.addr(),
        daemon.spool().display()
    );
    while !signals::term_requested() && !daemon.is_draining() {
        if signals::take_usr1() {
            match acpp_obs::recorder().dump_to(&flight) {
                Ok(()) => ui.progress(format_args!(
                    "flight recorder dumped to {}",
                    flight.display()
                )),
                Err(_) => ui.progress("flight recorder dump failed"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    ui.progress("draining: no new admissions; finishing in-flight jobs");
    daemon.drain();
    ui.progress("acppd drained cleanly");
    Ok(())
}

/// Chains a process-global panic hook that dumps the flight recorder's
/// recent-event ring to `path` (atomically: tmp + rename) before the
/// previous hook — backtrace printing included — runs. Installed once; a
/// second serve in the same process keeps the first path.
fn install_panic_dump(path: PathBuf) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = acpp_obs::recorder().dump_to(&path);
            prev(info);
        }));
    });
}

/// Validates that a written D* file parses back as CSV (round-trip guard
/// used by tests).
#[cfg(test)]
pub fn validate_release_csv(path: &std::path::Path) -> Result<usize, Box<dyn std::error::Error>> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty release")?;
    let cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        if line.split(',').count() != cols {
            return Err(format!("ragged row: {line}").into());
        }
        rows += 1;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("acpp-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(args.iter().copied()).unwrap()
    }

    #[test]
    fn generate_publish_round_trip() {
        let data = tmp("data.csv");
        let out = tmp("dstar.csv");
        generate(&flags(&[
            "--rows", "400", "--seed", "3", "--out", data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(data.exists());
        assert!(tmp("data.csv.schema").exists());
        publish_cmd(&flags(&[
            "--input", data.to_str().unwrap(),
            "--schema", tmp("data.csv.schema").to_str().unwrap(),
            "--p", "0.3", "--k", "4",
            "--out", out.to_str().unwrap(),
        ]))
        .unwrap();
        let rows = validate_release_csv(&out).unwrap();
        assert!(rows > 0 && rows <= 100, "cardinality bound respected: {rows}");
    }

    #[test]
    fn publish_with_sampling_rate_flag() {
        let data = tmp("data2.csv");
        let out = tmp("dstar2.csv");
        generate(&flags(&["--rows", "300", "--out", data.to_str().unwrap()])).unwrap();
        publish_cmd(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.25", "--s", "0.5",
            "--out", out.to_str().unwrap(),
        ]))
        .unwrap();
        let rows = validate_release_csv(&out).unwrap();
        assert!(rows <= 150);
    }

    #[test]
    fn guarantee_and_solve_run() {
        guarantee(&flags(&["--p", "0.3", "--k", "6"])).unwrap();
        solve(&flags(&["--k", "6", "--delta", "0.25"])).unwrap();
        solve(&flags(&["--k", "6", "--rho2", "0.5", "--rho1", "0.2"])).unwrap();
        assert!(solve(&flags(&["--k", "6"])).is_err(), "needs a target");
        assert!(
            solve(&flags(&["--k", "6", "--delta", "0.2", "--rho2", "0.5"])).is_err(),
            "both targets rejected"
        );
    }

    #[test]
    fn breach_command_reports_no_breaches() {
        let data = tmp("data3.csv");
        generate(&flags(&["--rows", "600", "--out", data.to_str().unwrap()])).unwrap();
        breach(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.3", "--k", "4", "--attacks", "40",
        ]))
        .unwrap();
    }

    #[test]
    fn utility_command_runs() {
        let data = tmp("data4.csv");
        generate(&flags(&["--rows", "2000", "--out", data.to_str().unwrap()])).unwrap();
        utility(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.4", "--k", "4", "--classes", "2",
        ]))
        .unwrap();
        assert!(utility(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.4", "--k", "4", "--classes", "1",
        ]))
        .is_err());
    }

    #[test]
    fn bad_algorithm_rejected() {
        let f = flags(&["--p", "0.3", "--k", "4", "--algorithm", "magic"]);
        assert!(algorithm(&f).is_err());
    }

    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir = tmp(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journaled_publish_crash_and_resume_is_byte_identical() {
        let data = tmp("data5.csv");
        generate(&flags(&["--rows", "400", "--seed", "7", "--out", data.to_str().unwrap()]))
            .unwrap();

        // Baseline: an uninterrupted journaled run.
        let out_a = tmp("dstar5a.csv");
        let _ = fs::remove_file(&out_a);
        let jdir_a = fresh_dir("journal5a");
        publish_cmd(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.3", "--k", "4", "--seed", "7",
            "--journal", jdir_a.to_str().unwrap(),
            "--out", out_a.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(jdir_a.join("journal.log").exists());
        assert!(jdir_a.join("job").exists());

        // Same run, crashed mid-pipeline, then resumed.
        let out_b = tmp("dstar5b.csv");
        let _ = fs::remove_file(&out_b);
        let jdir_b = fresh_dir("journal5b");
        let err = publish_cmd(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.3", "--k", "4", "--seed", "7",
            "--journal", jdir_b.to_str().unwrap(),
            "--crash-at", "after-generalize",
            "--out", out_b.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 10);
        assert!(!out_b.exists(), "crashed run must publish nothing");
        resume_cmd(&Flags::parse([jdir_b.to_str().unwrap()]).unwrap()).unwrap();
        assert_eq!(
            fs::read(&out_a).unwrap(),
            fs::read(&out_b).unwrap(),
            "resume must be byte-identical to the uninterrupted run"
        );
        // Resume is idempotent.
        resume_cmd(&Flags::parse([jdir_b.to_str().unwrap()]).unwrap()).unwrap();
    }

    #[test]
    fn resume_without_a_journal_reports_exit_ten() {
        let jdir = fresh_dir("journal-none");
        fs::create_dir_all(&jdir).unwrap();
        let err = resume_cmd(&Flags::parse([jdir.to_str().unwrap()]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 10);
        assert!(resume_cmd(&flags(&[])).is_err(), "missing directory is a usage error");
    }

    #[test]
    fn crash_at_flag_is_validated() {
        let data = tmp("data6.csv");
        generate(&flags(&["--rows", "200", "--out", data.to_str().unwrap()])).unwrap();
        let jdir = fresh_dir("journal6");
        let err = publish_cmd(&flags(&[
            "--input", data.to_str().unwrap(),
            "--p", "0.3", "--k", "4",
            "--journal", jdir.to_str().unwrap(),
            "--crash-at", "whenever",
            "--out", tmp("dstar6.csv").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "bad --crash-at is a usage error");
    }
}
