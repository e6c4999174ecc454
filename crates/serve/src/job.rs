//! Job specifications: the wire format, the durable spool record, and the
//! translation into pipeline inputs.
//!
//! A job arrives as JSON (parsed with the dependency-free
//! [`acpp_obs::Json`] reader), is validated against a closed grammar, and
//! is then persisted to the job's spool directory as a `key=value` record
//! *before* the daemon acknowledges admission — the record plus the
//! materialized `input.csv` are exactly what crash-restart recovery needs
//! to re-run the job byte-identically. The retention probability `p` is
//! stored as its IEEE-754 bit pattern so a recovered job has the same
//! `f64` to the last bit.
//!
//! Every parse error in this module is a `&'static str`: job bodies are
//! attacker-controlled, and a static reason can be logged or echoed
//! without any risk of quoting payload content.

use acpp_core::{CrashPoint, DegradationPolicy, FaultKind, FaultPlan, Phase2Algorithm};
use acpp_data::{sal, Attribute, Domain, Role, Schema, Taxonomy};
use acpp_obs::Json;

/// Magic first line of a spool job record.
pub const RECORD_MAGIC: &str = "acppd-job v1";

/// Default fault intensity (mirrors [`FaultPlan`]'s default `per_kind`).
const DEFAULT_INTENSITY: usize = 3;

/// Fanout of interval taxonomies derived for inline schemas.
const INLINE_FANOUT: u32 = 2;

/// Where a job's input rows come from. Only ever held in memory at
/// admission time: the daemon materializes the rows to the spool's
/// `input.csv` before acknowledging, so the record itself never carries
/// dataset content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobInput {
    /// CSV content inlined in the request body.
    Inline(String),
    /// A server-side path to read at admission time.
    Path(String),
}

/// An inline schema: QI attributes and the sensitive attribute, each as
/// `(name, domain size)` over anonymous indexed domains. Omitted schemas
/// fall back to the SAL census workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaSpec {
    /// Quasi-identifier attributes.
    pub quasi: Vec<(String, u32)>,
    /// The sensitive attribute.
    pub sensitive: (String, u32),
}

/// Seed-deterministic chaos to inject into the run (test/chaos tiers).
/// Accepted on the wire only when the daemon runs with chaos enabled
/// (`DaemonConfig::allow_chaos` / `acpp serve --allow-chaos`); a
/// production daemon refuses chaos-bearing specs with `chaos_disabled`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Fault kinds to inject.
    pub faults: Vec<FaultKind>,
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// Units corrupted per kind (also scales the slow-I/O stall).
    pub intensity: usize,
    /// Simulated crash point — honoured on the first (fresh) run only;
    /// recovery resumes without it.
    pub crash_at: Option<CrashPoint>,
}

/// A validated publication job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (a lawful identifier; safe to echo).
    pub tenant: String,
    /// Phase-1 retention probability.
    pub p: f64,
    /// Phase-2 minimum group size.
    pub k: usize,
    /// Phase-2 algorithm.
    pub algorithm: Phase2Algorithm,
    /// Degradation policy under injected faults.
    pub policy: DegradationPolicy,
    /// Master seed of the run.
    pub seed: u64,
    /// Optional wall-clock budget, enforced at checkpoint boundaries.
    pub deadline_ms: Option<u64>,
    /// Inline schema; `None` means the SAL workload.
    pub schema: Option<SchemaSpec>,
    /// Chaos injection; `None` means a clean run.
    pub chaos: Option<ChaosSpec>,
    /// Release-series membership: `Some(id)` publishes into the durable
    /// series `spool/series/<tenant>--<id>` instead of producing a
    /// one-shot release. Series jobs are at-least-once (a crash between
    /// the series commit and the registry update re-runs the job and
    /// appends another release) and never carry chaos.
    pub series: Option<String>,
    /// For series jobs only: `true` means the job input is an *update
    /// batch* (`I,<owner>,<vals...>` / `D,<owner>` lines) applied as an
    /// incremental delta against the series' previous release, repairing
    /// only the Mondrian regions the batch touches.
    pub delta: bool,
}

/// Lifecycle of an admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Committed; the release file is published.
    Done,
    /// Failed with a typed pipeline error (terminal).
    Failed,
    /// Cancelled by request or deadline (terminal; checkpoints kept).
    Cancelled,
    /// Died mid-run (crash); will be resumed on restart.
    Interrupted,
}

impl JobState {
    /// Wire/telemetry label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Interrupted => "interrupted",
        }
    }

    /// Whether the job can still change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// Whether `s` is a lawful identifier: starts with a lowercase letter,
/// continues with lowercase letters, digits, `_` or `-`, at most 32 bytes.
/// The grammar is a subset of `acpp_obs::is_valid_label` and can never be
/// a bare number, so identifiers are safe to echo on the wire and in
/// traces.
pub fn is_ident(s: &str) -> bool {
    s.len() <= 32
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
}

fn as_u64(v: &Json) -> Result<u64, &'static str> {
    let n = v.as_number().ok_or("expected a number")?;
    if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
        return Err("expected a non-negative integer");
    }
    Ok(n as u64)
}

fn parse_fault(s: &str) -> Result<FaultKind, &'static str> {
    FaultKind::ALL
        .iter()
        .copied()
        .find(|k| k.label() == s)
        .ok_or("unknown fault kind")
}

fn name_size_pair(v: &Json) -> Result<(String, u32), &'static str> {
    let Json::Array(items) = v else { return Err("expected [name, size]") };
    if items.len() != 2 {
        return Err("expected [name, size]");
    }
    let name = items[0].as_str().ok_or("attribute name must be a string")?;
    if !is_ident(name) {
        return Err("attribute name is not a lawful identifier");
    }
    let size = as_u64(&items[1])?;
    if !(2..=1 << 24).contains(&size) {
        return Err("domain size out of range");
    }
    Ok((name.to_string(), size as u32))
}

fn parse_schema(v: &Json) -> Result<SchemaSpec, &'static str> {
    let obj = v.as_object().ok_or("schema must be an object")?;
    let mut quasi = Vec::new();
    let mut sensitive = None;
    for (key, value) in obj {
        match key.as_str() {
            "quasi" => {
                let Json::Array(items) = value else { return Err("quasi must be an array") };
                for item in items {
                    quasi.push(name_size_pair(item)?);
                }
            }
            "sensitive" => sensitive = Some(name_size_pair(value)?),
            _ => return Err("unknown schema field"),
        }
    }
    if quasi.is_empty() {
        return Err("schema needs at least one quasi attribute");
    }
    Ok(SchemaSpec { quasi, sensitive: sensitive.ok_or("schema needs a sensitive attribute")? })
}

fn parse_chaos(v: &Json) -> Result<ChaosSpec, &'static str> {
    let obj = v.as_object().ok_or("chaos must be an object")?;
    let mut chaos = ChaosSpec { intensity: DEFAULT_INTENSITY, ..ChaosSpec::default() };
    for (key, value) in obj {
        match key.as_str() {
            "faults" => {
                let Json::Array(items) = value else { return Err("faults must be an array") };
                for item in items {
                    let label = item.as_str().ok_or("fault kinds are strings")?;
                    chaos.faults.push(parse_fault(label)?);
                }
            }
            "fault_seed" => chaos.fault_seed = as_u64(value)?,
            "intensity" => chaos.intensity = as_u64(value)?.clamp(1, 1 << 16) as usize,
            "crash_at" => {
                let label = value.as_str().ok_or("crash_at must be a string")?;
                chaos.crash_at = Some(CrashPoint::parse(label).ok_or("unknown crash point")?);
            }
            _ => return Err("unknown chaos field"),
        }
    }
    Ok(chaos)
}

impl JobSpec {
    /// Parses and validates a `POST /jobs` body. Returns the spec plus the
    /// input source (inline CSV or server-side path).
    pub fn from_json(body: &str) -> Result<(JobSpec, JobInput), &'static str> {
        let doc = Json::parse(body).map_err(|_| "body is not valid JSON")?;
        let obj = doc.as_object().ok_or("body must be a JSON object")?;

        let mut tenant = None;
        let mut input = None;
        let mut p = None;
        let mut k = None;
        let mut seed = None;
        let mut algorithm = Phase2Algorithm::default();
        let mut policy = DegradationPolicy::default();
        let mut deadline_ms = None;
        let mut schema = None;
        let mut chaos = None;
        let mut series = None;
        let mut delta = false;

        for (key, value) in obj {
            match key.as_str() {
                "tenant" => {
                    let t = value.as_str().ok_or("tenant must be a string")?;
                    if !is_ident(t) {
                        return Err("tenant is not a lawful identifier");
                    }
                    tenant = Some(t.to_string());
                }
                "csv" => {
                    let text = value.as_str().ok_or("csv must be a string")?;
                    input = match input {
                        None => Some(JobInput::Inline(text.to_string())),
                        Some(_) => return Err("give exactly one of csv and input"),
                    };
                }
                "input" => {
                    let path = value.as_str().ok_or("input must be a string")?;
                    input = match input {
                        None => Some(JobInput::Path(path.to_string())),
                        Some(_) => return Err("give exactly one of csv and input"),
                    };
                }
                "p" => {
                    let n = value.as_number().ok_or("p must be a number")?;
                    if !(0.0..=1.0).contains(&n) {
                        return Err("p out of range");
                    }
                    p = Some(n);
                }
                "k" => {
                    let n = as_u64(value)?;
                    if n == 0 {
                        return Err("k must be at least 1");
                    }
                    k = Some(n as usize);
                }
                "seed" => seed = Some(as_u64(value)?),
                "algorithm" => {
                    let name = value.as_str().ok_or("algorithm must be a string")?;
                    algorithm = name.parse().map_err(|_| "unknown algorithm")?;
                }
                "policy" => {
                    let name = value.as_str().ok_or("policy must be a string")?;
                    policy = name.parse().map_err(|_| "unknown policy")?;
                }
                "deadline_ms" => {
                    let n = as_u64(value)?;
                    if n == 0 {
                        return Err("deadline_ms must be positive");
                    }
                    deadline_ms = Some(n);
                }
                "schema" => schema = Some(parse_schema(value)?),
                "chaos" => chaos = Some(parse_chaos(value)?),
                "series" => {
                    let id = value.as_str().ok_or("series must be a string")?;
                    if !is_ident(id) {
                        return Err("series is not a lawful identifier");
                    }
                    series = Some(id.to_string());
                }
                "kind" => {
                    delta = match value.as_str().ok_or("kind must be a string")? {
                        "full" => false,
                        "delta" => true,
                        _ => return Err("unknown job kind"),
                    };
                }
                _ => return Err("unknown field"),
            }
        }

        if delta && series.is_none() {
            return Err("kind delta requires a series");
        }
        if series.is_some() && chaos.is_some() {
            return Err("chaos is not supported for series jobs");
        }
        let spec = JobSpec {
            tenant: tenant.ok_or("tenant is required")?,
            p: p.ok_or("p is required")?,
            k: k.ok_or("k is required")?,
            algorithm,
            policy,
            seed: seed.ok_or("seed is required")?,
            deadline_ms,
            schema,
            chaos,
            series,
            delta,
        };
        Ok((spec, input.ok_or("give exactly one of csv and input")?))
    }

    /// Builds the pipeline world: the schema plus QI taxonomies. An
    /// omitted schema means the SAL census workload.
    pub fn world(&self) -> Result<(Schema, Vec<Taxonomy>), &'static str> {
        match &self.schema {
            None => Ok((sal::schema(), sal::qi_taxonomies())),
            Some(spec) => {
                let mut attributes = Vec::new();
                for (name, size) in &spec.quasi {
                    attributes.push(Attribute::new(name, Role::Quasi, Domain::indexed(*size)));
                }
                let (name, size) = &spec.sensitive;
                attributes.push(Attribute::new(name, Role::Sensitive, Domain::indexed(*size)));
                let schema = Schema::new(attributes).map_err(|_| "inline schema is invalid")?;
                let taxonomies = spec
                    .quasi
                    .iter()
                    .map(|(_, size)| Taxonomy::intervals(*size, INLINE_FANOUT))
                    .collect();
                Ok((schema, taxonomies))
            }
        }
    }

    /// The fault plan this job injects, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        let chaos = self.chaos.as_ref()?;
        if chaos.faults.is_empty() {
            return None;
        }
        let mut plan = FaultPlan::new(chaos.fault_seed).with_intensity(chaos.intensity);
        for kind in &chaos.faults {
            plan = plan.with(*kind);
        }
        Some(plan)
    }

    /// The simulated crash point, honoured on fresh runs only.
    pub fn crash_at(&self) -> Option<CrashPoint> {
        self.chaos.as_ref().and_then(|c| c.crash_at)
    }

    /// Renders the durable spool record. Contains parameters only — never
    /// dataset rows (those live in the spool's `input.csv`).
    pub fn render_record(&self) -> String {
        let mut out = format!(
            "{RECORD_MAGIC}\ntenant={}\np_bits={:016x}\nk={}\nalgorithm={}\npolicy={}\nseed={}\n",
            self.tenant,
            self.p.to_bits(),
            self.k,
            self.algorithm.label(),
            self.policy.label(),
            self.seed,
        );
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!("deadline_ms={ms}\n"));
        }
        if let Some(series) = &self.series {
            out.push_str(&format!("series={series}\n"));
            if self.delta {
                out.push_str("kind=delta\n");
            }
        }
        if let Some(spec) = &self.schema {
            let mut parts: Vec<String> =
                spec.quasi.iter().map(|(n, s)| format!("q:{n}:{s}")).collect();
            parts.push(format!("s:{}:{}", spec.sensitive.0, spec.sensitive.1));
            out.push_str(&format!("schema={}\n", parts.join(",")));
        }
        if let Some(chaos) = &self.chaos {
            if !chaos.faults.is_empty() {
                let labels: Vec<&str> = chaos.faults.iter().map(|k| k.label()).collect();
                out.push_str(&format!("faults={}\n", labels.join("+")));
                out.push_str(&format!("fault_seed={}\n", chaos.fault_seed));
                out.push_str(&format!("intensity={}\n", chaos.intensity));
            }
            if let Some(point) = chaos.crash_at {
                out.push_str(&format!("crash_at={point}\n"));
            }
        }
        out
    }

    /// Parses a spool record written by [`JobSpec::render_record`].
    pub fn parse_record(text: &str) -> Result<JobSpec, &'static str> {
        let mut lines = text.lines();
        if lines.next() != Some(RECORD_MAGIC) {
            return Err("not an acppd job record");
        }
        let mut tenant = None;
        let mut p = None;
        let mut k = None;
        let mut seed = None;
        let mut algorithm = Phase2Algorithm::default();
        let mut policy = DegradationPolicy::default();
        let mut deadline_ms = None;
        let mut schema = None;
        let mut chaos: Option<ChaosSpec> = None;
        let mut series = None;
        let mut delta = false;

        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or("malformed record line")?;
            fn chaos_mut(c: &mut Option<ChaosSpec>) -> &mut ChaosSpec {
                c.get_or_insert_with(|| ChaosSpec {
                    intensity: DEFAULT_INTENSITY,
                    ..ChaosSpec::default()
                })
            }
            match key {
                "tenant" => {
                    if !is_ident(value) {
                        return Err("tenant is not a lawful identifier");
                    }
                    tenant = Some(value.to_string());
                }
                "p_bits" => {
                    let bits =
                        u64::from_str_radix(value, 16).map_err(|_| "bad p_bits")?;
                    p = Some(f64::from_bits(bits));
                }
                "k" => k = Some(value.parse().map_err(|_| "bad k")?),
                "seed" => seed = Some(value.parse().map_err(|_| "bad seed")?),
                "algorithm" => algorithm = value.parse().map_err(|_| "unknown algorithm")?,
                "policy" => policy = value.parse().map_err(|_| "unknown policy")?,
                "deadline_ms" => {
                    deadline_ms = Some(value.parse().map_err(|_| "bad deadline_ms")?)
                }
                "schema" => {
                    let mut quasi = Vec::new();
                    let mut sensitive = None;
                    for part in value.split(',') {
                        let mut fields = part.splitn(3, ':');
                        let role = fields.next().ok_or("bad schema entry")?;
                        let name = fields.next().ok_or("bad schema entry")?;
                        let size: u32 = fields
                            .next()
                            .ok_or("bad schema entry")?
                            .parse()
                            .map_err(|_| "bad schema entry")?;
                        if !is_ident(name) {
                            return Err("attribute name is not a lawful identifier");
                        }
                        match role {
                            "q" => quasi.push((name.to_string(), size)),
                            "s" => sensitive = Some((name.to_string(), size)),
                            _ => return Err("bad schema entry"),
                        }
                    }
                    schema = Some(SchemaSpec {
                        quasi,
                        sensitive: sensitive.ok_or("schema needs a sensitive attribute")?,
                    });
                }
                "faults" => {
                    let mut kinds = Vec::new();
                    for label in value.split('+') {
                        kinds.push(parse_fault(label)?);
                    }
                    chaos_mut(&mut chaos).faults = kinds;
                }
                "fault_seed" => {
                    chaos_mut(&mut chaos).fault_seed =
                        value.parse().map_err(|_| "bad fault_seed")?
                }
                "intensity" => {
                    chaos_mut(&mut chaos).intensity =
                        value.parse().map_err(|_| "bad intensity")?
                }
                "crash_at" => {
                    chaos_mut(&mut chaos).crash_at =
                        Some(CrashPoint::parse(value).ok_or("unknown crash point")?)
                }
                "series" => {
                    if !is_ident(value) {
                        return Err("series is not a lawful identifier");
                    }
                    series = Some(value.to_string());
                }
                "kind" => {
                    delta = match value {
                        "full" => false,
                        "delta" => true,
                        _ => return Err("unknown job kind"),
                    };
                }
                _ => return Err("unknown record key"),
            }
        }
        if delta && series.is_none() {
            return Err("kind delta requires a series");
        }
        Ok(JobSpec {
            tenant: tenant.ok_or("record missing tenant")?,
            p: p.ok_or("record missing p_bits")?,
            k: k.ok_or("record missing k")?,
            algorithm,
            policy,
            seed: seed.ok_or("record missing seed")?,
            deadline_ms,
            schema,
            chaos,
            series,
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_body() -> &'static str {
        r#"{
            "tenant": "acme",
            "csv": "qa,qb,secret\n1,2,3\n",
            "p": 0.3,
            "k": 4,
            "seed": 7,
            "algorithm": "tds",
            "policy": "skip",
            "deadline_ms": 2000,
            "schema": {"quasi": [["qa", 64], ["qb", 16]], "sensitive": ["secret", 524288]},
            "chaos": {"faults": ["slow_io"], "fault_seed": 9, "crash_at": "after-perturb"}
        }"#
    }

    #[test]
    fn parses_a_full_request_and_round_trips_the_record() {
        let (spec, input) = JobSpec::from_json(full_body()).unwrap();
        assert_eq!(spec.tenant, "acme");
        assert_eq!(input, JobInput::Inline("qa,qb,secret\n1,2,3\n".into()));
        assert_eq!(spec.k, 4);
        assert_eq!(spec.algorithm, Phase2Algorithm::Tds);
        assert_eq!(spec.policy, DegradationPolicy::SkipAndReport);
        assert_eq!(spec.deadline_ms, Some(2000));
        assert_eq!(spec.crash_at(), Some(CrashPoint::AfterPerturb));
        let plan = spec.fault_plan().unwrap();
        assert!(plan.is_active(FaultKind::SlowIo));
        assert_eq!(plan.seed(), 9);

        let record = spec.render_record();
        let back = JobSpec::parse_record(&record).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.p.to_bits(), spec.p.to_bits(), "p survives to the bit");
        // The record never contains dataset rows.
        assert!(!record.contains("csv"));
    }

    #[test]
    fn minimal_request_defaults_to_the_sal_workload() {
        let (spec, _) = JobSpec::from_json(
            r#"{"tenant": "t1", "csv": "x", "p": 0.25, "k": 2, "seed": 1}"#,
        )
        .unwrap();
        assert_eq!(spec.algorithm, Phase2Algorithm::Mondrian);
        assert_eq!(spec.policy, DegradationPolicy::Abort);
        assert!(spec.schema.is_none() && spec.chaos.is_none());
        let (schema, taxonomies) = spec.world().unwrap();
        assert_eq!(schema, sal::schema());
        assert_eq!(taxonomies.len(), sal::qi_taxonomies().len());
    }

    #[test]
    fn inline_schema_builds_a_consistent_world() {
        let (spec, _) = JobSpec::from_json(full_body()).unwrap();
        let (schema, taxonomies) = spec.world().unwrap();
        assert_eq!(schema.qi_arity(), 2);
        assert_eq!(schema.sensitive().name(), "secret");
        assert_eq!(taxonomies.len(), 2);
        for (tax, &col) in taxonomies.iter().zip(schema.qi_indices()) {
            tax.check().unwrap();
            assert_eq!(tax.domain_size(), schema.attribute(col).domain().size());
        }
    }

    #[test]
    fn rejects_malformed_bodies() {
        let cases = [
            ("not json", "body is not valid JSON"),
            ("[1,2]", "body must be a JSON object"),
            (r#"{"csv":"x","p":0.3,"k":4,"seed":1}"#, "tenant is required"),
            (r#"{"tenant":"Bad Tenant","csv":"x","p":0.3,"k":4,"seed":1}"#, "tenant is not a lawful identifier"),
            (r#"{"tenant":"t","csv":"x","p":1.5,"k":4,"seed":1}"#, "p out of range"),
            (r#"{"tenant":"t","csv":"x","p":0.3,"k":0,"seed":1}"#, "k must be at least 1"),
            (r#"{"tenant":"t","p":0.3,"k":4,"seed":1}"#, "give exactly one of csv and input"),
            (r#"{"tenant":"t","csv":"x","input":"y","p":0.3,"k":4,"seed":1}"#, "give exactly one of csv and input"),
            (r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"bonus":1}"#, "unknown field"),
            (r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"chaos":{"faults":["nope"]}}"#, "unknown fault kind"),
            (r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"chaos":{"crash_at":"sometime"}}"#, "unknown crash point"),
        ];
        for (body, want) in cases {
            assert_eq!(JobSpec::from_json(body).unwrap_err(), want, "{body}");
        }
    }

    #[test]
    fn series_jobs_parse_and_round_trip() {
        let (spec, _) = JobSpec::from_json(
            r#"{"tenant":"t1","csv":"D,5\n","p":0.3,"k":4,"seed":1,
                "series":"census","kind":"delta"}"#,
        )
        .unwrap();
        assert_eq!(spec.series.as_deref(), Some("census"));
        assert!(spec.delta);
        let back = JobSpec::parse_record(&spec.render_record()).unwrap();
        assert_eq!(back, spec);

        // kind defaults to full.
        let (full, _) = JobSpec::from_json(
            r#"{"tenant":"t1","csv":"x","p":0.3,"k":4,"seed":1,"series":"census"}"#,
        )
        .unwrap();
        assert!(!full.delta);
        let back = JobSpec::parse_record(&full.render_record()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn series_job_constraints_are_enforced() {
        let cases = [
            (
                r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"kind":"delta"}"#,
                "kind delta requires a series",
            ),
            (
                r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"series":"Bad Id"}"#,
                "series is not a lawful identifier",
            ),
            (
                r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"series":"s","kind":"weekly"}"#,
                "unknown job kind",
            ),
            (
                r#"{"tenant":"t","csv":"x","p":0.3,"k":4,"seed":1,"series":"s",
                    "chaos":{"faults":["slow_io"]}}"#,
                "chaos is not supported for series jobs",
            ),
        ];
        for (body, want) in cases {
            assert_eq!(JobSpec::from_json(body).unwrap_err(), want, "{body}");
        }
    }

    #[test]
    fn identifier_grammar_is_tight() {
        assert!(is_ident("acme"));
        assert!(is_ident("tenant-a_2"));
        assert!(!is_ident(""));
        assert!(!is_ident("9lives"));
        assert!(!is_ident("UPPER"));
        assert!(!is_ident("has space"));
        assert!(!is_ident(&"x".repeat(33)));
    }

    #[test]
    fn states_have_lawful_labels_and_terminality() {
        use acpp_obs::is_valid_label;
        let all = [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Interrupted,
        ];
        for state in all {
            assert!(is_valid_label(state.label()));
        }
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Interrupted.is_terminal());
    }
}
