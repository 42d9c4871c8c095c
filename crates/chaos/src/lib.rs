//! **green-chaos**: deterministic failpoints for every durable write.
//!
//! The sweep stack's durability story — checkpointed shard fragments,
//! atomic sidecar rewrites, append-only heartbeat trails and event
//! log — only counts if it survives faults that land at *arbitrary* byte
//! positions, not just the polite row boundaries of a CSV writer. This
//! crate gives every durable writer a named [`Failpoint`] probe and a
//! deterministic, seeded way to detonate it:
//!
//! * [`Failpoint`] — the registry of probes, one per durable artifact
//!   write. Names are wire surface: they appear in `--chaos` specs,
//!   error text, the crash-matrix test harness and
//!   `docs/robustness.md`, and `tools/check_docs.sh` fails on an
//!   undocumented one.
//! * [`ChaosRegistry`] — the one failure-injection handle: a list of
//!   compiled [`ChaosRule`]s parsed from the spec grammar by
//!   [`ChaosRegistry::from_spec`], from a `--chaos <spec>` flag, the only
//!   way to arm one. The registry keeps its spec text, so the
//!   orchestrator hands each worker the same rules on its own command
//!   line. Every writer takes a `&ChaosRegistry`; [`NO_CHAOS`], the
//!   registry with no rules, is the disarmed handle, whose probes scan an
//!   empty rule list and proceed.
//!   Triggers are deterministic: *fail the Nth hit* (`hit:N`, counted
//!   per process per failpoint) or *fail with probability p*
//!   (`p:P[:SEED]`) drawn from a named SplitMix64 stream keyed by the
//!   failpoint name — the same seed always tears the same writes.
//!
//! Probes sit at durable writes, never in the per-cell loop: a shard
//! probes twice per CSV row (its commit and its fragment write) and
//! twice per checkpoint, and a merge once per shard body.
//!
//! # Spec grammar
//!
//! ```text
//! spec    := rule (';' rule)*
//! rule    := failpoint '=' action '@' trigger
//! action  := 'err' | 'writezero' | 'enospc' | 'panic'
//!          | 'torn' [':' BYTES] | 'delay' ':' MILLIS
//! trigger := 'hit' ':' N          (the Nth hit and every one after)
//!          | 'p' ':' P [':' SEED] (each hit independently, 0 <= P <= 1)
//! ```
//!
//! `scenarios --chaos 'manifest_rewrite=enospc@hit:3'` fails the third
//! manifest checkpoint of the run with a storage-full error;
//! `fragment_row=torn:7@hit:100` writes seven bytes of the hundredth
//! CSV row and then dies — the torn-tail shape a SIGKILL leaves.
//!
//! # Actions
//!
//! * `err` — a generic injected `io::Error`.
//! * `writezero` — `ErrorKind::WriteZero`, the "wrote nothing" retry
//!   path.
//! * `enospc` — `ErrorKind::StorageFull`, a full disk.
//! * `torn[:BYTES]` — partial-write-then-crash: the caller writes the
//!   first BYTES bytes (default 0) of its buffer and panics, leaving a
//!   genuinely torn artifact for recovery to deal with.
//! * `panic` — process/worker death at the probe, before any write.
//! * `delay:MILLIS` — sleep, then keep evaluating (a deterministic
//!   straggler; composes with a fault rule on the same failpoint).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// One named probe in front of a durable write. The catalog below is
/// the whole wire surface: every variant is documented in
/// `docs/robustness.md` and exercised by the `crash_matrix` harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// Atomic rewrite of a shard's `<csv>.manifest` checkpoint.
    ManifestRewrite = 0,
    /// One CSV row written into a shard fragment.
    FragmentRow = 1,
    /// One heartbeat appended to a shard's `<csv>.progress` trail. The
    /// wire name `progress_rewrite` outlived the sidecar's rewrite, so
    /// existing specs keep working.
    ProgressRewrite = 2,
    /// The `<csv>.cols` columnar sidecar written after a shard
    /// completes.
    ColumnarSidecar = 3,
    /// One event appended to the orchestrator's `orchestrate.jsonl`.
    OrchestrateAppend = 4,
    /// The merged CSV written by `scenarios merge` (and the
    /// orchestrator's auto-merge).
    MergeWrite = 5,
    /// The report written by `scenarios analyze --out`.
    AnalyzeWrite = 6,
    /// One aggregate row committed (in expansion order) by the sweep
    /// runner's reorder buffer — the point where parallel workers'
    /// results become durable output.
    ParallelCommit = 7,
}

impl Failpoint {
    /// Every failpoint, in discriminant order.
    pub const ALL: [Failpoint; 8] = [
        Failpoint::ManifestRewrite,
        Failpoint::FragmentRow,
        Failpoint::ProgressRewrite,
        Failpoint::ColumnarSidecar,
        Failpoint::OrchestrateAppend,
        Failpoint::MergeWrite,
        Failpoint::AnalyzeWrite,
        Failpoint::ParallelCommit,
    ];

    /// The failpoint's stable wire name (spec grammar, error text,
    /// docs).
    pub fn name(self) -> &'static str {
        match self {
            Failpoint::ManifestRewrite => "manifest_rewrite",
            Failpoint::FragmentRow => "fragment_row",
            Failpoint::ProgressRewrite => "progress_rewrite",
            Failpoint::ColumnarSidecar => "columnar_sidecar",
            Failpoint::OrchestrateAppend => "orchestrate_append",
            Failpoint::MergeWrite => "merge_write",
            Failpoint::AnalyzeWrite => "analyze_write",
            Failpoint::ParallelCommit => "parallel_commit",
        }
    }

    /// Parses a wire name back to its failpoint.
    pub fn parse(name: &str) -> Result<Failpoint, ChaosError> {
        Failpoint::ALL
            .into_iter()
            .find(|fp| fp.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Failpoint::ALL.into_iter().map(Failpoint::name).collect();
                ChaosError(format!(
                    "unknown failpoint `{name}` (known: {})",
                    known.join(", ")
                ))
            })
    }
}

/// A spec-grammar or configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError(pub String);

impl core::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bad chaos spec: {}", self.0)
    }
}

impl std::error::Error for ChaosError {}

/// The fault a triggered rule injects (the `action` half of a rule,
/// minus `delay`, which is applied inside [`ChaosRegistry::hit`] and
/// never returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// No fault — the write proceeds untouched.
    Proceed,
    /// Fail with an injected I/O error before writing anything.
    Fail(FaultKind),
    /// Partial-write-then-crash: the probe site writes exactly this
    /// many bytes of its buffer, then dies via [`torn_crash`].
    Torn(usize),
    /// Die at the probe, before any write.
    Panic,
}

/// The error flavor of a [`ChaosAction::Fail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A generic injected failure (`io::ErrorKind::Other`).
    Generic,
    /// `io::ErrorKind::WriteZero`.
    WriteZero,
    /// `io::ErrorKind::StorageFull` — ENOSPC, the full-disk case.
    Enospc,
}

impl FaultKind {
    /// The injected error for a fault at `fp`. Every message starts
    /// with `chaos:` so supervisors and tests can tell injected faults
    /// from real ones.
    pub fn to_error(self, fp: Failpoint) -> io::Error {
        let name = fp.name();
        match self {
            FaultKind::Generic => io::Error::other(format!("chaos: injected failure at {name}")),
            FaultKind::WriteZero => io::Error::new(
                io::ErrorKind::WriteZero,
                format!("chaos: injected WriteZero at {name}"),
            ),
            FaultKind::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("chaos: injected ENOSPC (no space left on device) at {name}"),
            ),
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// On the Nth hit of the failpoint (1-based) and every hit after —
    /// the PR 7 `FAIL_ROWS` shape, and what makes a single-error site
    /// deterministic under retries within one process.
    Hit(u64),
    /// On each hit independently with probability `p`, drawn from a
    /// SplitMix64 stream named by the failpoint (keyed `seed ^
    /// fnv(name) ^ hit`), so a given seed tears exactly the same writes
    /// every run.
    Probability { p: f64, seed: u64 },
}

/// The action half of a rule as written in the spec (including
/// `delay`, which [`ChaosAction`] does not carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleAction {
    Fail(FaultKind),
    Torn(usize),
    Panic,
    DelayMs(u64),
}

/// One compiled spec rule: a failpoint, a trigger, an action, and the
/// per-process hit counter the trigger evaluates against.
#[derive(Debug)]
pub struct ChaosRule {
    failpoint: Failpoint,
    trigger: Trigger,
    action: RuleAction,
    hits: AtomicU64,
}

impl ChaosRule {
    /// The failpoint this rule arms.
    pub fn failpoint(&self) -> Failpoint {
        self.failpoint
    }

    /// Hits this rule's failpoint has taken so far (through this rule).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn fires(&self, hit: u64) -> bool {
        match self.trigger {
            Trigger::Hit(n) => hit >= n,
            Trigger::Probability { p, seed } => {
                let z = splitmix64(seed ^ fnv1a(self.failpoint.name().as_bytes()) ^ hit);
                ((z >> 11) as f64 / (1u64 << 53) as f64) < p
            }
        }
    }
}

/// SplitMix64 — the named-stream generator behind `p:` triggers.
/// Stateless per draw (keyed by seed, stream and hit index), so
/// concurrent hits never race the stream out of determinism.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64 over `bytes` — names the per-failpoint RNG stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The failure-injection handle: the rules compiled from a `--chaos`
/// spec, and the spec's text. First fault rule to fire on a hit wins;
/// delay rules sleep and keep evaluating.
#[derive(Debug, Default)]
pub struct ChaosRegistry {
    rules: Vec<ChaosRule>,
    spec: String,
}

/// The disarmed handle: a registry with no rules, for writers that arm
/// nothing.
pub static NO_CHAOS: ChaosRegistry = ChaosRegistry {
    rules: Vec::new(),
    spec: String::new(),
};

impl ChaosRegistry {
    /// Compiles a spec (see the crate docs for the grammar). The empty
    /// spec compiles to a registry with no rules, which never fires. A
    /// malformed spec is an error, not silence — a chaos run that
    /// silently injects nothing would report fault tolerance it never
    /// tested.
    pub fn from_spec(spec: &str) -> Result<ChaosRegistry, ChaosError> {
        let mut rules = Vec::new();
        for rule in spec.split(';').map(str::trim).filter(|r| !r.is_empty()) {
            rules.push(parse_rule(rule)?);
        }
        Ok(ChaosRegistry {
            rules,
            spec: spec.to_string(),
        })
    }

    /// The spec text the registry was compiled from (empty for
    /// [`NO_CHAOS`]): compiled again, it arms the same rules with fresh
    /// hit counters.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The compiled rules, in spec order.
    pub fn rules(&self) -> &[ChaosRule] {
        &self.rules
    }

    /// True when no rule is armed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Registers one hit of `fp` and returns the fault to inject, if
    /// any. Delay rules sleep in here and are never returned.
    pub fn hit(&self, fp: Failpoint) -> ChaosAction {
        for rule in self.rules.iter().filter(|r| r.failpoint == fp) {
            let hit = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if !rule.fires(hit) {
                continue;
            }
            match rule.action {
                RuleAction::DelayMs(ms) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                RuleAction::Fail(kind) => return ChaosAction::Fail(kind),
                RuleAction::Torn(bytes) => return ChaosAction::Torn(bytes),
                RuleAction::Panic => return ChaosAction::Panic,
            }
        }
        ChaosAction::Proceed
    }
}

/// Evaluates one probe. `Ok(None)`: proceed untouched. `Ok(Some(k))`:
/// the site must write exactly the first `k` bytes of its buffer and
/// then die via [`torn_crash`]. `Err`: fail now, before writing.
/// [`ChaosAction::Panic`] dies in here.
pub fn probe(chaos: &ChaosRegistry, fp: Failpoint) -> io::Result<Option<usize>> {
    match chaos.hit(fp) {
        ChaosAction::Proceed => Ok(None),
        ChaosAction::Fail(kind) => Err(kind.to_error(fp)),
        ChaosAction::Torn(bytes) => Ok(Some(bytes)),
        ChaosAction::Panic => panic!("chaos: injected panic at {}", fp.name()),
    }
}

/// The second half of a torn write: the probe site has written its
/// partial prefix; now the "process" dies. (A panic, so in-process
/// harnesses can contain it with `catch_unwind`; a real worker exits
/// dirty exactly like a SIGKILL mid-write.)
pub fn torn_crash(fp: Failpoint, bytes: usize) -> ! {
    panic!("chaos: torn write at {} after {bytes} bytes", fp.name());
}

fn parse_rule(rule: &str) -> Result<ChaosRule, ChaosError> {
    let (name, rest) = rule
        .split_once('=')
        .ok_or_else(|| ChaosError(format!("rule `{rule}` must be `failpoint=action@trigger`")))?;
    let failpoint = Failpoint::parse(name.trim())?;
    let (action, trigger) = rest.split_once('@').ok_or_else(|| {
        ChaosError(format!(
            "rule `{rule}` is missing its `@trigger` (e.g. `@hit:1`)"
        ))
    })?;
    Ok(ChaosRule {
        failpoint,
        trigger: parse_trigger(trigger.trim(), rule)?,
        action: parse_action(action.trim(), rule)?,
        hits: AtomicU64::new(0),
    })
}

fn parse_action(action: &str, rule: &str) -> Result<RuleAction, ChaosError> {
    let (head, arg) = match action.split_once(':') {
        Some((head, arg)) => (head, Some(arg)),
        None => (action, None),
    };
    let no_arg = |value: RuleAction| match arg {
        None => Ok(value),
        Some(_) => Err(ChaosError(format!(
            "action `{head}` takes no argument (rule `{rule}`)"
        ))),
    };
    match head {
        "err" => no_arg(RuleAction::Fail(FaultKind::Generic)),
        "writezero" => no_arg(RuleAction::Fail(FaultKind::WriteZero)),
        "enospc" => no_arg(RuleAction::Fail(FaultKind::Enospc)),
        "panic" => no_arg(RuleAction::Panic),
        "torn" => match arg {
            None => Ok(RuleAction::Torn(0)),
            Some(bytes) => bytes.parse().map(RuleAction::Torn).map_err(|_| {
                ChaosError(format!("`torn:{bytes}` needs a byte count (rule `{rule}`)"))
            }),
        },
        "delay" => match arg {
            Some(ms) => ms.parse().map(RuleAction::DelayMs).map_err(|_| {
                ChaosError(format!("`delay:{ms}` needs milliseconds (rule `{rule}`)"))
            }),
            None => Err(ChaosError(format!(
                "`delay` needs milliseconds, e.g. `delay:50` (rule `{rule}`)"
            ))),
        },
        other => Err(ChaosError(format!(
            "unknown action `{other}` (rule `{rule}`; known: err, writezero, enospc, \
             torn[:BYTES], panic, delay:MS)"
        ))),
    }
}

fn parse_trigger(trigger: &str, rule: &str) -> Result<Trigger, ChaosError> {
    let mut parts = trigger.split(':');
    match parts.next() {
        Some("hit") => {
            let n: u64 = parts
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    ChaosError(format!("`hit` needs N >= 1, e.g. `hit:3` (rule `{rule}`)"))
                })?;
            match parts.next() {
                None => Ok(Trigger::Hit(n)),
                Some(_) => Err(ChaosError(format!(
                    "`hit:N` takes one argument (rule `{rule}`)"
                ))),
            }
        }
        Some("p") => {
            let p: f64 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| {
                    ChaosError(format!(
                        "`p` needs a probability in 0..=1, e.g. `p:0.01:42` (rule `{rule}`)"
                    ))
                })?;
            let seed: u64 = match parts.next() {
                None => 0,
                Some(seed) => seed.parse().map_err(|_| {
                    ChaosError(format!(
                        "`p:{p}:{seed}` needs an integer seed (rule `{rule}`)"
                    ))
                })?,
            };
            match parts.next() {
                None => Ok(Trigger::Probability { p, seed }),
                Some(_) => Err(ChaosError(format!(
                    "`p:P:SEED` takes two arguments (rule `{rule}`)"
                ))),
            }
        }
        _ => Err(ChaosError(format!(
            "unknown trigger `{trigger}` (rule `{rule}`; known: hit:N, p:P[:SEED])"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_chaos_is_empty_and_inert() {
        assert!(NO_CHAOS.is_empty());
        for fp in Failpoint::ALL {
            assert_eq!(NO_CHAOS.hit(fp), ChaosAction::Proceed);
            assert_eq!(probe(&NO_CHAOS, fp).unwrap(), None);
        }
    }

    #[test]
    fn wire_names_are_unique_and_roundtrip() {
        let mut names: Vec<&str> = Failpoint::ALL.into_iter().map(Failpoint::name).collect();
        for fp in Failpoint::ALL {
            assert_eq!(Failpoint::parse(fp.name()).unwrap(), fp);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Failpoint::ALL.len(), "duplicate wire name");
        assert!(Failpoint::parse("no_such_probe").is_err());
    }

    #[test]
    fn nth_hit_trigger_fires_on_and_after_n() {
        let reg = ChaosRegistry::from_spec("fragment_row=err@hit:3").unwrap();
        assert_eq!(reg.hit(Failpoint::FragmentRow), ChaosAction::Proceed);
        assert_eq!(reg.hit(Failpoint::FragmentRow), ChaosAction::Proceed);
        assert_eq!(
            reg.hit(Failpoint::FragmentRow),
            ChaosAction::Fail(FaultKind::Generic)
        );
        assert_eq!(
            reg.hit(Failpoint::FragmentRow),
            ChaosAction::Fail(FaultKind::Generic),
            "hit:N keeps firing after N"
        );
        // Other failpoints are untouched.
        assert_eq!(reg.hit(Failpoint::ManifestRewrite), ChaosAction::Proceed);
    }

    #[test]
    fn probability_stream_is_deterministic_and_named() {
        let decisions = |spec: &str, fp: Failpoint| -> Vec<bool> {
            let reg = ChaosRegistry::from_spec(spec).unwrap();
            (0..64)
                .map(|_| reg.hit(fp) != ChaosAction::Proceed)
                .collect()
        };
        let a = decisions("fragment_row=err@p:0.25:7", Failpoint::FragmentRow);
        let b = decisions("fragment_row=err@p:0.25:7", Failpoint::FragmentRow);
        assert_eq!(a, b, "same seed, same stream, same tears");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        let c = decisions("fragment_row=err@p:0.25:8", Failpoint::FragmentRow);
        assert_ne!(a, c, "a different seed tears different hits");
        // The stream is *named*: the same seed on a different failpoint
        // draws different values.
        let d = decisions("manifest_rewrite=err@p:0.25:7", Failpoint::ManifestRewrite);
        assert_ne!(a, d);
        // Degenerate probabilities behave.
        assert!(decisions("fragment_row=err@p:1", Failpoint::FragmentRow)
            .iter()
            .all(|&f| f));
        assert!(decisions("fragment_row=err@p:0", Failpoint::FragmentRow)
            .iter()
            .all(|&f| !f));
    }

    #[test]
    fn actions_map_to_error_kinds() {
        let reg = ChaosRegistry::from_spec(
            "manifest_rewrite=enospc@hit:1;progress_rewrite=writezero@hit:1;\
             columnar_sidecar=torn:16@hit:1",
        )
        .unwrap();
        let enospc = probe(&reg, Failpoint::ManifestRewrite).unwrap_err();
        assert_eq!(enospc.kind(), io::ErrorKind::StorageFull);
        assert!(enospc.to_string().starts_with("chaos:"), "{enospc}");
        let zero = probe(&reg, Failpoint::ProgressRewrite).unwrap_err();
        assert_eq!(zero.kind(), io::ErrorKind::WriteZero);
        assert_eq!(
            probe(&reg, Failpoint::ColumnarSidecar).unwrap(),
            Some(16),
            "torn returns the partial byte budget"
        );
    }

    #[test]
    fn panic_action_dies_at_the_probe() {
        let reg = ChaosRegistry::from_spec("fragment_row=panic@hit:1").unwrap();
        let died = std::panic::catch_unwind(|| {
            let _ = probe(&reg, Failpoint::FragmentRow);
        });
        let text = *died.unwrap_err().downcast::<String>().unwrap();
        assert!(
            text.contains("chaos: injected panic at fragment_row"),
            "{text}"
        );
    }

    #[test]
    fn delay_composes_with_a_fault_rule() {
        let reg =
            ChaosRegistry::from_spec("fragment_row=delay:1@hit:1;fragment_row=err@hit:2").unwrap();
        let before = std::time::Instant::now();
        assert_eq!(reg.hit(Failpoint::FragmentRow), ChaosAction::Proceed);
        assert!(before.elapsed().as_micros() >= 1000, "delay slept");
        assert_eq!(
            reg.hit(Failpoint::FragmentRow),
            ChaosAction::Fail(FaultKind::Generic)
        );
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for bad in [
            "fragment_row",
            "fragment_row=err",
            "fragment_row=err@",
            "fragment_row=err@hit:0",
            "fragment_row=err@p:1.5",
            "fragment_row=torn:x@hit:1",
            "fragment_row=delay@hit:1",
            "fragment_row=enospc:3@hit:1",
            "no_such_probe=err@hit:1",
            "fragment_row=boom@hit:1",
            "fragment_row=err@sometimes",
        ] {
            assert!(
                ChaosRegistry::from_spec(bad).is_err(),
                "`{bad}` should not parse"
            );
        }
        let empty = ChaosRegistry::from_spec("  ").unwrap();
        assert!(empty.is_empty());
        let multi =
            ChaosRegistry::from_spec("fragment_row=err@hit:3; manifest_rewrite=enospc@p:0.5:9")
                .unwrap();
        assert_eq!(multi.rules().len(), 2);
    }

    #[test]
    fn registry_keeps_the_spec_it_compiled() {
        assert_eq!(NO_CHAOS.spec(), "");
        let spec = "fragment_row=err@hit:2; manifest_rewrite=enospc@hit:1";
        let reg = ChaosRegistry::from_spec(spec).unwrap();
        assert_eq!(reg.spec(), spec);
        assert_eq!(reg.hit(Failpoint::FragmentRow), ChaosAction::Proceed);
        // Compiled again, the text arms the same rules, counting afresh.
        let again = ChaosRegistry::from_spec(reg.spec()).unwrap();
        let armed = |r: &ChaosRegistry| -> Vec<Failpoint> {
            r.rules().iter().map(ChaosRule::failpoint).collect()
        };
        assert_eq!(armed(&again), armed(&reg));
        assert_eq!(
            armed(&again),
            [Failpoint::FragmentRow, Failpoint::ManifestRewrite]
        );
        assert_eq!(again.rules()[0].hits(), 0);
        assert_eq!(reg.rules()[0].hits(), 1);
    }
}
