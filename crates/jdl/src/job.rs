//! Typed view of a job description — the attributes §3 of the paper defines,
//! validated.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::ast::{Ad, Value};
use crate::expr::Expr;
use crate::parser::{parse_ad, ParseError};

/// Batch or interactive (first element of `JobType`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interactivity {
    /// Classic unattended execution.
    Batch,
    /// Needs the Grid Console I/O path and fast startup.
    Interactive,
}

/// Sequential or one of the supported MPI flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Single process.
    Sequential,
    /// MPICH ch_p4: all subjobs on one site/cluster.
    MpichP4,
    /// MPICH-G2: subjobs may be co-allocated across sites.
    MpichG2,
}

/// Streaming mode for the Grid Console (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StreamingMode {
    /// Disk buffering at both ends, retry across network failures.
    #[default]
    Reliable,
    /// No intermediate buffering; faster, data lost on failure.
    Fast,
}

/// Machine-access mode controlling multi-programming (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MachineAccess {
    /// Run on an idle machine without multi-programming components.
    #[default]
    Exclusive,
    /// Run on an interactive VM slot, sharing with a batch job.
    Shared,
}

/// A validation failure when typing an [`Ad`] into a [`JobDescription`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid job description: {}", self.message)
    }
}

impl std::error::Error for JobError {}

impl From<ParseError> for JobError {
    fn from(e: ParseError) -> Self {
        JobError {
            message: e.to_string(),
        }
    }
}

fn invalid(message: impl Into<String>) -> JobError {
    JobError {
        message: message.into(),
    }
}

/// A validated job description. Its string fields are the ad's own values,
/// shared: typing an ad copies no string, and neither does cloning the job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDescription {
    /// Executable name (`Executable`).
    pub executable: Arc<str>,
    /// Command-line arguments (`Arguments`), space-separated as submitted.
    pub arguments: Arc<str>,
    /// Batch or interactive.
    pub interactivity: Interactivity,
    /// Sequential / MPICH-P4 / MPICH-G2.
    pub parallelism: Parallelism,
    /// Number of nodes (`NodeNumber`); 1 for sequential jobs.
    pub node_number: u32,
    /// Streaming mode; meaningful for interactive jobs.
    pub streaming_mode: StreamingMode,
    /// Machine access; meaningful for interactive jobs.
    pub machine_access: MachineAccess,
    /// `PerformanceLoss` (% CPU the interactive job leaves to the co-resident
    /// batch job): 0, 5, 10, … 100.
    pub performance_loss: u8,
    /// Optional fixed shadow port (users with firewalls pre-open one, §4).
    pub shadow_port: Option<u16>,
    /// Submitting user (accounting / fair share).
    pub user: Arc<str>,
    /// Requested selection-policy name (`SelectionPolicy`), kept as spelled.
    /// The broker resolves it against its policy registry and falls back to
    /// its configured default when the name is unknown (the analyzer emits
    /// W207 for that case).
    pub selection_policy: Option<Arc<str>>,
    /// Estimated runtime in seconds, when declared (used by LRMS walltime).
    pub estimated_runtime_s: Option<f64>,
    /// Input-sandbox file sizes in bytes (staged before execution).
    pub input_sandbox_bytes: Vec<u64>,
    /// The raw ad, for attributes the typed view does not model — and the
    /// one home of `Requirements` and `Rank`, which
    /// [`JobDescription::requirements`] and [`JobDescription::rank`] read in
    /// place.
    pub ad: Ad,
}

/// An ad's `Requirements` as an expression: a stored expression as it is, a
/// literal boolean as the expression it folded from.
/// [`JobDescription::from_ad`] rejects every other shape.
pub(crate) fn requirements_of(ad: &Ad) -> Option<Cow<'_, Expr>> {
    match ad.get("Requirements")? {
        Value::Expr(e) => Some(Cow::Borrowed(e)),
        Value::Bool(b) => Some(Cow::Owned(Expr::Bool(*b))),
        _ => None,
    }
}

/// An ad's `Rank` as an expression: a stored expression as it is, a literal
/// number as the expression it folded from. [`JobDescription::from_ad`]
/// rejects every other shape.
pub(crate) fn rank_of(ad: &Ad) -> Option<Cow<'_, Expr>> {
    match ad.get("Rank")? {
        Value::Expr(e) => Some(Cow::Borrowed(e)),
        Value::Int(n) => Some(Cow::Owned(Expr::Int(*n))),
        Value::Double(x) => Some(Cow::Owned(Expr::Double(*x))),
        _ => None,
    }
}

impl JobDescription {
    /// Parses and validates JDL source.
    pub fn parse(src: &str) -> Result<Self, JobError> {
        Self::from_ad(parse_ad(src)?)
    }

    /// Statically analyses this job's ad against the default machine-ad
    /// vocabulary ([`crate::analyze::Schema::machine`]). The broker runs
    /// this at submit time and rejects ads with `Error`-severity findings.
    pub fn analyze(&self) -> crate::analyze::Analysis {
        self.analyze_with(crate::analyze::Schema::shared_machine())
    }

    /// Statically analyses this job's ad against a custom machine schema.
    pub fn analyze_with(&self, machine: &crate::analyze::Schema) -> crate::analyze::Analysis {
        crate::analyze::analyze_ad(&self.ad, None, machine)
    }

    /// Validates a parsed ad.
    pub fn from_ad(ad: Ad) -> Result<Self, JobError> {
        let executable = match ad.get("Executable") {
            Some(Value::Str(s)) => Arc::clone(s),
            _ => return Err(invalid("missing or non-string Executable")),
        };
        if executable.is_empty() {
            return Err(invalid("Executable is empty"));
        }
        let arguments = ad
            .get("Arguments")
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(invalid(format!("Arguments must be a string, got {other}"))),
            })
            .transpose()?
            .unwrap_or_default();

        let (interactivity, parallelism) = parse_job_type(&ad)?;

        let node_number = match ad.get("NodeNumber") {
            None => 1,
            Some(v) => {
                let n = v
                    .as_i64()
                    .ok_or_else(|| invalid(format!("NodeNumber must be an integer, got {v}")))?;
                if n < 1 {
                    return Err(invalid(format!("NodeNumber must be >= 1, got {n}")));
                }
                n as u32
            }
        };
        if parallelism == Parallelism::Sequential && node_number != 1 {
            return Err(invalid(format!(
                "sequential job cannot request NodeNumber = {node_number}"
            )));
        }

        let streaming_mode = match ad.get("StreamingMode").map(|v| v.as_str()) {
            None => StreamingMode::default(),
            Some(Some(s)) if s.eq_ignore_ascii_case("reliable") => StreamingMode::Reliable,
            Some(Some(s)) if s.eq_ignore_ascii_case("fast") => StreamingMode::Fast,
            Some(other) => {
                return Err(invalid(format!(
                    "StreamingMode must be \"reliable\" or \"fast\", got {other:?}"
                )))
            }
        };

        let machine_access = match ad.get("MachineAccess").map(|v| v.as_str()) {
            None => MachineAccess::default(),
            Some(Some(s)) if s.eq_ignore_ascii_case("exclusive") => MachineAccess::Exclusive,
            Some(Some(s)) if s.eq_ignore_ascii_case("shared") => MachineAccess::Shared,
            Some(other) => {
                return Err(invalid(format!(
                    "MachineAccess must be \"exclusive\" or \"shared\", got {other:?}"
                )))
            }
        };

        let performance_loss = match ad.get("PerformanceLoss") {
            None => 0,
            Some(v) => {
                let n = v.as_i64().ok_or_else(|| {
                    invalid(format!("PerformanceLoss must be an integer, got {v}"))
                })?;
                // "Values for Performance Loss can be 0, 5, 10, 15, and so on" (§3).
                if !(0..=100).contains(&n) || n % 5 != 0 {
                    return Err(invalid(format!(
                        "PerformanceLoss must be a multiple of 5 in [0, 100], got {n}"
                    )));
                }
                n as u8
            }
        };

        let shadow_port = match ad.get("ShadowPort") {
            None => None,
            Some(v) => {
                let n = v
                    .as_i64()
                    .ok_or_else(|| invalid(format!("ShadowPort must be an integer, got {v}")))?;
                if !(1..=65535).contains(&n) {
                    return Err(invalid(format!("ShadowPort out of range: {n}")));
                }
                Some(n as u16)
            }
        };

        if let (Some(other), None) = (ad.get("Requirements"), requirements_of(&ad)) {
            return Err(invalid(format!(
                "Requirements must be an expression, got {other}"
            )));
        }
        if let (Some(other), None) = (ad.get("Rank"), rank_of(&ad)) {
            return Err(invalid(format!("Rank must be an expression, got {other}")));
        }

        let user = match ad.get("User") {
            Some(Value::Str(s)) => Arc::clone(s),
            _ => Arc::from("anonymous"),
        };

        let selection_policy = ad
            .get("SelectionPolicy")
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(invalid(format!(
                    "SelectionPolicy must be a string, got {other}"
                ))),
            })
            .transpose()?;

        let estimated_runtime_s =
            match ad.get("EstimatedRuntime") {
                None => None,
                Some(v) => Some(v.as_f64().ok_or_else(|| {
                    invalid(format!("EstimatedRuntime must be a number, got {v}"))
                })?),
            };

        let input_sandbox_bytes = match ad.get("InputSandboxSizes") {
            None => Vec::new(),
            Some(Value::List(items)) => items
                .iter()
                .map(|v| {
                    v.as_i64()
                        .filter(|&n| n >= 0)
                        .map(|n| n as u64)
                        .ok_or_else(|| {
                            invalid("InputSandboxSizes entries must be non-negative integers")
                        })
                })
                .collect::<Result<_, _>>()?,
            Some(other) => {
                return Err(invalid(format!(
                    "InputSandboxSizes must be a list, got {other}"
                )))
            }
        };

        Ok(JobDescription {
            executable,
            arguments,
            interactivity,
            parallelism,
            node_number,
            streaming_mode,
            machine_access,
            performance_loss,
            shadow_port,
            user,
            selection_policy,
            estimated_runtime_s,
            input_sandbox_bytes,
            ad,
        })
    }

    /// Matchmaking requirement, if present: borrowed from [`Self::ad`].
    pub fn requirements(&self) -> Option<Cow<'_, Expr>> {
        requirements_of(&self.ad)
    }

    /// Matchmaking rank, if present: borrowed from [`Self::ad`].
    pub fn rank(&self) -> Option<Cow<'_, Expr>> {
        rank_of(&self.ad)
    }

    /// True for interactive jobs.
    pub fn is_interactive(&self) -> bool {
        self.interactivity == Interactivity::Interactive
    }

    /// True for any MPI flavour.
    pub fn is_parallel(&self) -> bool {
        self.parallelism != Parallelism::Sequential
    }

    /// Number of Console Agents this job runs when interactive: one per
    /// subjob for MPICH-G2, otherwise a single agent (§4).
    pub fn console_agent_count(&self) -> u32 {
        match self.parallelism {
            Parallelism::MpichG2 => self.node_number,
            _ => 1,
        }
    }

    /// Total input-sandbox size in bytes.
    pub fn sandbox_bytes(&self) -> u64 {
        self.input_sandbox_bytes.iter().sum()
    }
}

fn parse_job_type(ad: &Ad) -> Result<(Interactivity, Parallelism), JobError> {
    let mut interactivity = Interactivity::Batch;
    let mut parallelism = Parallelism::Sequential;
    let Some(v) = ad.get("JobType") else {
        return Ok((interactivity, parallelism));
    };
    let items = match v {
        Value::Str(_) => std::slice::from_ref(v),
        Value::List(items) => &**items,
        other => {
            return Err(invalid(format!(
                "JobType must be a string or list, got {other}"
            )))
        }
    };
    // Every entry's type is checked before any entry's spelling.
    if let Some(i) = items.iter().find(|i| i.as_str().is_none()) {
        return Err(invalid(format!("JobType entries must be strings, got {i}")));
    }
    for item in items.iter().filter_map(Value::as_str) {
        let is = |spelling: &str| item.eq_ignore_ascii_case(spelling);
        if is("batch") || is("normal") {
            interactivity = Interactivity::Batch;
        } else if is("interactive") {
            interactivity = Interactivity::Interactive;
        } else if is("sequential") {
            parallelism = Parallelism::Sequential;
        } else if is("mpich-p4") || is("mpich") {
            parallelism = Parallelism::MpichP4;
        } else if is("mpich-g2") || is("mpichg2") {
            parallelism = Parallelism::MpichG2;
        } else {
            return Err(invalid(format!(
                "unknown JobType component {:?}",
                item.to_ascii_lowercase()
            )));
        }
    }
    Ok((interactivity, parallelism))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE_2: &str = r#"
        Executable = "interactive_mpich-g2_app";
        JobType = {"interactive", "mpich-g2"};
        NodeNumber = 2;
        Arguments = "-n";
    "#;

    #[test]
    fn printed_ad_reparses_identically() {
        // The broker journals `ad.to_string()` as the job's durable commit
        // record; crash recovery must be able to parse that bracketed form
        // back into the same job.
        let j = JobDescription::parse(FIGURE_2).unwrap();
        let reparsed = JobDescription::parse(&j.ad.to_string()).unwrap();
        assert_eq!(reparsed.executable, j.executable);
        assert_eq!(reparsed.interactivity, j.interactivity);
        assert_eq!(reparsed.parallelism, j.parallelism);
        assert_eq!(reparsed.node_number, j.node_number);
        assert_eq!(reparsed.ad.to_string(), j.ad.to_string());
    }

    #[test]
    fn parses_figure_2_fully_typed() {
        let j = JobDescription::parse(FIGURE_2).unwrap();
        assert_eq!(&*j.executable, "interactive_mpich-g2_app");
        assert_eq!(&*j.arguments, "-n");
        assert_eq!(j.interactivity, Interactivity::Interactive);
        assert_eq!(j.parallelism, Parallelism::MpichG2);
        assert_eq!(j.node_number, 2);
        assert!(j.is_interactive());
        assert!(j.is_parallel());
        assert_eq!(j.console_agent_count(), 2, "one CA per MPICH-G2 subjob");
    }

    #[test]
    fn defaults_are_the_papers_defaults() {
        let j = JobDescription::parse(r#"Executable = "a.out";"#).unwrap();
        assert_eq!(j.interactivity, Interactivity::Batch);
        assert_eq!(j.parallelism, Parallelism::Sequential);
        assert_eq!(j.node_number, 1);
        assert_eq!(j.streaming_mode, StreamingMode::Reliable);
        assert_eq!(j.machine_access, MachineAccess::Exclusive);
        assert_eq!(j.performance_loss, 0);
        assert_eq!(j.console_agent_count(), 1);
        assert_eq!(&*j.user, "anonymous");
    }

    #[test]
    fn streaming_and_access_modes_parse() {
        let j = JobDescription::parse(
            r#"
            Executable = "app";
            JobType = "interactive";
            StreamingMode = "fast";
            MachineAccess = "shared";
            PerformanceLoss = 25;
        "#,
        )
        .unwrap();
        assert_eq!(j.streaming_mode, StreamingMode::Fast);
        assert_eq!(j.machine_access, MachineAccess::Shared);
        assert_eq!(j.performance_loss, 25);
    }

    #[test]
    fn performance_loss_must_be_multiple_of_five() {
        for (pl, ok) in [
            (0, true),
            (5, true),
            (100, true),
            (3, false),
            (105, false),
            (-5, false),
        ] {
            let src =
                format!(r#"Executable = "app"; JobType = "interactive"; PerformanceLoss = {pl};"#);
            assert_eq!(JobDescription::parse(&src).is_ok(), ok, "PL={pl}");
        }
    }

    #[test]
    fn sequential_with_nodes_rejected() {
        let err = JobDescription::parse(r#"Executable = "a"; NodeNumber = 4;"#).unwrap_err();
        assert!(err.message.contains("sequential"), "{}", err.message);
    }

    #[test]
    fn mpich_p4_runs_one_console_agent() {
        let j = JobDescription::parse(
            r#"Executable = "a"; JobType = {"interactive", "mpich-p4"}; NodeNumber = 8;"#,
        )
        .unwrap();
        assert_eq!(j.console_agent_count(), 1);
    }

    #[test]
    fn missing_executable_rejected() {
        assert!(JobDescription::parse("NodeNumber = 1;").is_err());
        assert!(JobDescription::parse(r#"Executable = "";"#).is_err());
    }

    #[test]
    fn bad_job_type_rejected() {
        let err = JobDescription::parse(r#"Executable = "a"; JobType = "weird";"#).unwrap_err();
        assert!(err.message.contains("weird"));
        assert!(JobDescription::parse(r#"Executable = "a"; JobType = 3;"#).is_err());
    }

    #[test]
    fn shadow_port_validation() {
        let j = JobDescription::parse(
            r#"Executable = "a"; JobType = "interactive"; ShadowPort = 9000;"#,
        )
        .unwrap();
        assert_eq!(j.shadow_port, Some(9000));
        assert!(JobDescription::parse(r#"Executable = "a"; ShadowPort = 70000;"#).is_err());
        assert!(JobDescription::parse(r#"Executable = "a"; ShadowPort = 0;"#).is_err());
    }

    #[test]
    fn requirements_and_rank_are_kept_as_expressions() {
        let j = JobDescription::parse(
            r#"
            Executable = "a";
            Requirements = other.FreeCpus >= 1;
            Rank = other.FreeCpus;
        "#,
        )
        .unwrap();
        assert!(j.requirements().is_some());
        assert!(j.rank().is_some());
        // Constant folding edge: `Requirements = true;` is fine.
        let j = JobDescription::parse(r#"Executable = "a"; Requirements = true;"#).unwrap();
        assert_eq!(j.requirements().as_deref(), Some(&Expr::Bool(true)));
    }

    #[test]
    fn sandbox_sizes() {
        let j = JobDescription::parse(r#"Executable = "a"; InputSandboxSizes = {1000, 2500};"#)
            .unwrap();
        assert_eq!(j.sandbox_bytes(), 3500);
        assert!(JobDescription::parse(r#"Executable = "a"; InputSandboxSizes = {-5};"#).is_err());
    }

    #[test]
    fn selection_policy_is_kept_as_spelled() {
        let j = JobDescription::parse(
            r#"Executable = "a"; JobType = "interactive"; SelectionPolicy = "queue-forecast";"#,
        )
        .unwrap();
        assert_eq!(j.selection_policy.as_deref(), Some("queue-forecast"));
        // Unknown spellings survive parsing (the broker falls back; the
        // analyzer warns), but a non-string is a hard type error.
        let j =
            JobDescription::parse(r#"Executable = "a"; SelectionPolicy = "best-effort";"#).unwrap();
        assert_eq!(j.selection_policy.as_deref(), Some("best-effort"));
        let err = JobDescription::parse(r#"Executable = "a"; SelectionPolicy = 3;"#).unwrap_err();
        assert!(err.message.contains("SelectionPolicy"), "{}", err.message);
        assert_eq!(
            JobDescription::parse(r#"Executable = "a";"#)
                .unwrap()
                .selection_policy,
            None
        );
    }

    #[test]
    fn user_and_runtime() {
        let j =
            JobDescription::parse(r#"Executable = "a"; User = "alice"; EstimatedRuntime = 3600;"#)
                .unwrap();
        assert_eq!(&*j.user, "alice");
        assert_eq!(j.estimated_runtime_s, Some(3600.0));
    }
}
