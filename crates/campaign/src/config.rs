//! Campaign configuration and finding records.

use yinyang_faults::SolverId;
use yinyang_rt::impl_json_struct;
use yinyang_rt::json::{FromJson, Json, JsonError, ToJson};
use yinyang_smtlib::Logic;
use yinyang_solver::{SolverConfig, TheoryBudget};

/// Tunable knobs of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fig. 7 seed-count scale (`1:scale` of the paper's inventory).
    pub scale: usize,
    /// Fused tests per (benchmark, oracle) pair per round.
    pub iterations: usize,
    /// Fix-and-retest rounds (the paper's testing rounds).
    pub rounds: usize,
    /// RNG seed for reproducibility.
    pub rng_seed: u64,
    /// Worker threads (the paper's multi-threaded mode).
    pub threads: usize,
    /// Print a per-round progress line to stderr (`--verbose` on the CLI).
    /// Off by default: libraries and tests should stay silent.
    pub heartbeat: bool,
    /// Record a cumulative [`yinyang_coverage`] snapshot per round (the
    /// Fig. 9/10-style coverage trajectory). Off by default: coverage
    /// state is process-global, so trajectories are only meaningful when
    /// one campaign owns the process — the CLI turns this on, libraries
    /// and concurrent tests leave it off.
    pub coverage_trajectory: bool,
    /// Cache solve results keyed on the canonical script text plus the
    /// full solver configuration (`--cache` on the CLI). Replay-safe:
    /// hits replay the cached solve's metrics, trace events, and tick
    /// cost, so reports stay byte-identical with the cache on or off.
    pub cache: bool,
    /// Solve-cache entry bound (`--cache-capacity`); oldest entries are
    /// evicted first. Ignored unless [`CampaignConfig::cache`] is set.
    pub cache_capacity: usize,
    /// Ignored: every campaign runs on [`yinyang_rt::pool::parallel_map`].
    /// Kept only because the benchmark harness still sets it; the field
    /// goes away in the next benchmark-definition change.
    pub pipeline: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scale: 400,
            iterations: 30,
            rounds: 3,
            rng_seed: 0xD1CE,
            threads: 1,
            heartbeat: false,
            coverage_trajectory: false,
            cache: false,
            cache_capacity: 4096,
            pipeline: true,
        }
    }
}

/// The throughput-oriented limits campaigns give the reference solver.
pub fn fast_solver_config() -> SolverConfig {
    SolverConfig {
        sat_conflicts: 2_000,
        max_iterations: 8,
        theory: TheoryBudget { search_candidates: 50, interval_rounds: 4, bb_nodes: 80 },
        forall_instances: 3,
    }
}

/// What a finding looked like, mirroring the paper's bug classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// The solver contradicted the construction oracle.
    Incorrect {
        /// Answer given (`"sat"`/`"unsat"`).
        got: String,
        /// Oracle (`"sat"`/`"unsat"`).
        expected: String,
    },
    /// The solver crashed.
    Crash {
        /// Panic payload.
        message: String,
    },
    /// The solver answered `unknown` while a performance/unknown-class bug
    /// trigger was active (the paper found these during reduction).
    SpuriousUnknown,
}

/// One raw finding of a campaign.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Which persona was under test.
    pub solver: String,
    /// The injected bug the finding maps to (triage), if identifiable.
    pub bug_id: Option<u32>,
    /// Observed behavior.
    pub behavior: Behavior,
    /// Logic of the fused formula.
    pub logic: String,
    /// Fig. 7 benchmark the seeds came from.
    pub benchmark: String,
    /// Campaign round (0-based).
    pub round: usize,
    /// The fused SMT-LIB test case.
    pub script: String,
    /// The two ancestor seeds.
    pub seeds: (String, String),
    /// Oracle of the fused formula.
    pub oracle: String,
}

/// Summary counters of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Fused tests executed.
    pub tests: usize,
    /// `unknown` answers seen.
    pub unknowns: usize,
    /// Fusion attempts without a fusible pair.
    pub fusion_failures: usize,
}

/// Everything a campaign produced.
#[derive(Debug, Clone, Default)]
pub struct CampaignOutcome {
    /// All findings, in discovery order.
    pub findings: Vec<RawFinding>,
    /// Counters.
    pub stats: CampaignStats,
}

impl_json_struct!(CampaignConfig {
    scale,
    iterations,
    rounds,
    rng_seed,
    threads,
    heartbeat,
    coverage_trajectory,
    cache,
    cache_capacity,
    ..
});
impl_json_struct!(RawFinding {
    solver,
    bug_id,
    behavior,
    logic,
    benchmark,
    round,
    script,
    seeds,
    oracle,
});
impl_json_struct!(CampaignStats { tests, unknowns, fusion_failures });
impl_json_struct!(CampaignOutcome { findings, stats });

// `Behavior` keeps serde's externally-tagged enum shape so reports written
// by earlier builds keep parsing: struct variants become one-member objects,
// the unit variant a bare string.
impl ToJson for Behavior {
    fn to_json(&self) -> Json {
        match self {
            Behavior::Incorrect { got, expected } => Json::obj([(
                "Incorrect",
                Json::obj([("got", got.to_json()), ("expected", expected.to_json())]),
            )]),
            Behavior::Crash { message } => {
                Json::obj([("Crash", Json::obj([("message", message.to_json())]))])
            }
            Behavior::SpuriousUnknown => Json::Str("SpuriousUnknown".into()),
        }
    }
}

impl FromJson for Behavior {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if json.as_str() == Some("SpuriousUnknown") {
            return Ok(Behavior::SpuriousUnknown);
        }
        let field = |body: &Json, name: &str| -> Result<String, JsonError> {
            String::from_json(body.get(name).unwrap_or(&Json::Null)).map_err(|e| JsonError {
                pos: e.pos,
                message: format!("Behavior field `{name}`: {}", e.message),
            })
        };
        if let Some(body) = json.get("Incorrect") {
            return Ok(Behavior::Incorrect {
                got: field(body, "got")?,
                expected: field(body, "expected")?,
            });
        }
        if let Some(body) = json.get("Crash") {
            return Ok(Behavior::Crash { message: field(body, "message")? });
        }
        Err(JsonError { pos: 0, message: "unknown Behavior variant".into() })
    }
}

/// Helper: parse a stored logic string back.
pub fn logic_of(finding: &RawFinding) -> Option<Logic> {
    finding.logic.parse().ok()
}

/// Helper: parse a stored solver name back to a persona id.
pub fn solver_of(finding: &RawFinding) -> Option<SolverId> {
    SolverId::from_name(&finding.solver)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(solver: &str, logic: &str) -> RawFinding {
        RawFinding {
            solver: solver.to_owned(),
            bug_id: None,
            behavior: Behavior::SpuriousUnknown,
            logic: logic.to_owned(),
            benchmark: "QF_S".into(),
            round: 0,
            script: String::new(),
            seeds: (String::new(), String::new()),
            oracle: "sat".into(),
        }
    }

    #[test]
    fn solver_name_parsing() {
        assert_eq!(solver_of(&finding("zirkon-trunk", "QF_S")), Some(SolverId::Zirkon));
        assert_eq!(solver_of(&finding("corvus-1.5", "QF_S")), Some(SolverId::Corvus));
        assert_eq!(solver_of(&finding("z3", "QF_S")), None);
    }

    #[test]
    fn logic_parsing() {
        assert_eq!(logic_of(&finding("zirkon-trunk", "QF_NRA")), Some(Logic::QfNra));
        assert_eq!(logic_of(&finding("zirkon-trunk", "NOT_A_LOGIC")), None);
    }

    #[test]
    fn default_config_is_reasonable() {
        let c = CampaignConfig::default();
        assert!(c.scale >= 1 && c.iterations >= 1 && c.rounds >= 1 && c.threads >= 1);
    }

    #[test]
    fn config_json_leaves_out_the_ignored_pipeline_field() {
        let c = CampaignConfig { pipeline: false, threads: 3, ..CampaignConfig::default() };
        let json = c.to_json();
        assert!(json.get("pipeline").is_none(), "{}", json.compact());
        let back = CampaignConfig::from_json(&json).unwrap();
        assert_eq!((back.threads, back.pipeline), (3, true), "unlisted fields read as Default");
    }

    #[test]
    fn findings_serialize_roundtrip() {
        let f = finding("zirkon-trunk", "QF_S");
        let json = f.to_json().compact();
        let back = RawFinding::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.solver, f.solver);
        assert_eq!(back.behavior, f.behavior);
    }

    #[test]
    fn behavior_keeps_tagged_enum_shape() {
        let b = Behavior::Incorrect { got: "sat".into(), expected: "unsat".into() };
        assert_eq!(b.to_json().compact(), r#"{"Incorrect":{"got":"sat","expected":"unsat"}}"#);
        assert_eq!(Behavior::SpuriousUnknown.to_json().compact(), r#""SpuriousUnknown""#);
        for b in [b, Behavior::Crash { message: "boom".into() }, Behavior::SpuriousUnknown] {
            let back = Behavior::from_json(&Json::parse(&b.to_json().compact()).unwrap()).unwrap();
            assert_eq!(back, b);
        }
    }
}
