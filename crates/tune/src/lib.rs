//! # cl-tune — online autotuning with a persistent performance cache
//!
//! The decision layer over the runtime's sensors (ROADMAP item 4). When a
//! program passes NULL for `local_work_size`, the runtime historically falls
//! back to a fixed heuristic — the paper's Figure 3 shows that heuristic
//! losing to a hand-tuned explicit size. This crate closes the loop:
//!
//! 1. **Static prior** — [`shortlist`] derives a small candidate set of
//!    (workgroup size, groups-per-chunk) configurations from the launch
//!    geometry and the kernel's architecture-independent
//!    [`KernelFeatures`] (lane classes, barrier count, arithmetic
//!    intensity). Every workgroup-size candidate is a divisor of the
//!    innermost global size ≤ the device cap, so every candidate is a
//!    *legal* explicit local size by construction.
//! 2. **Bandit refinement** — [`Tuner::decide`] runs successive halving
//!    over the shortlist: each surviving candidate gets
//!    [`SAMPLES_PER_ROUND`] measured launches per round (the PR 3
//!    profiling timestamps), the worse half is dropped each round, and the
//!    survivor converges. Candidates are ranked by their *minimum* sample:
//!    scheduler interference is additive and one-sided (a noisy neighbour
//!    only ever makes a launch slower), so with 3 samples per round the
//!    minimum estimates the uncontended cost far more robustly than the
//!    median, which one CI load spike out of three contaminates. The trial
//!    *count* for a given shortlist size is deterministic — only *which*
//!    candidate survives is measured — so report schedules stay
//!    drift-stable. The final pick is noise-floored with the PR 5 MAD
//!    machinery: candidates within `MAD_K · MAD` of the best are ties,
//!    resolved toward fewer dispatch chunks.
//! 3. **Persistent cache** — converged decisions are written to a
//!    cross-process JSON cache keyed by `(kernel name, geometry, device,
//!    workers)`: versioned schema, atomic tmp+rename writes, merge with
//!    concurrent writers on save, corrupt/stale/foreign-schema content
//!    ignored rather than fatal. A second process starting cold reuses the
//!    decisions with zero additional trials.
//!
//! Knobs: a queue tunes when its `QueueConfig::tuner` is set (`ocl_rt`'s
//! `QueueConfig::from_env` sets [`Tuner::process`] for `CL_TUNE=1`; the
//! serving layer's `ServeConfig::tuner` reaches every tenant queue);
//! `CL_TUNE_CACHE=<path>` overrides the cache location (default
//! `target/tune-cache.json`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cl_analyze::{KernelFeatures, LaneClass};
use cl_util::json::{self, Json};
use cl_util::sync::Mutex;

/// Cache-file schema version; files carrying any other version are ignored
/// wholesale (stale ≠ fatal).
pub const CACHE_SCHEMA: u32 = 1;

/// Measured launches per candidate per halving round.
pub const SAMPLES_PER_ROUND: usize = 3;

/// Noise multiplier on the winner's MAD: candidates within `MAD_K · MAD`
/// of the best are statistical ties (same constant family as the PR 5
/// bench gate).
pub const MAD_K: f64 = 6.0;

/// Hard cap on the candidate shortlist: successive halving over 8
/// candidates costs `3·(8+4+2) = 42` trials, small enough to amortize in
/// one benchmark warmup loop.
pub const MAX_CANDIDATES: usize = 8;

/// Hard cap on a groups-per-chunk candidate (mirrors
/// `cl_analyze::coarsen::MAX_FACTOR`).
pub const MAX_CHUNK: usize = 64;

/// Identity of one tuning problem: a kernel at a geometry on a device with
/// a worker count. Everything that changes the optimal configuration is in
/// the key; everything else (buffer contents, queue flags) is not.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TuneKey {
    pub kernel: String,
    pub global: [usize; 3],
    pub dims: usize,
    pub device: String,
    pub workers: usize,
}

/// One launch configuration the tuner can choose: the innermost workgroup
/// size (always a divisor of `global[0]`) and the requested groups-fused-
/// per-dispatch-chunk (clamped at enqueue time to the coarsening prover's
/// `Proven{k_max}` certificate — the tuner proposes, the prover disposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TunedConfig {
    pub wg: usize,
    pub chunk: usize,
}

impl TunedConfig {
    pub fn label(&self) -> String {
        format!("wg={} chunk={}", self.wg, self.chunk)
    }
}

/// What an enqueue should do, per [`Tuner::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Use this configuration; the decision is final (cacheable).
    Converged(TunedConfig),
    /// Run this configuration as a measured trial and report the launch
    /// time back via [`Tuner::observe`]. Not cacheable — the next enqueue
    /// may try a different candidate.
    Trial(TunedConfig),
    /// The tuner has nothing to say (empty shortlist); use the untuned
    /// fallback heuristic.
    Fallback,
}

/// The launch geometry as the prior sees it (no kernel object needed).
#[derive(Debug, Clone, Copy)]
pub struct TuneGeometry {
    pub global: [usize; 3],
    pub dims: usize,
}

impl TuneGeometry {
    fn outer_items(&self) -> usize {
        self.global[1].max(1) * self.global[2].max(1)
    }
}

// ---------------------------------------------------------------------------
// Static prior
// ---------------------------------------------------------------------------

/// All divisors of `n` that are ≤ `cap`, ascending.
fn divisors_at_most(n: usize, cap: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut high = Vec::new();
    let mut d = 1usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            if d <= cap {
                out.push(d);
            }
            let q = n / d;
            if q != d && q <= cap {
                high.push(q);
            }
        }
        d += 1;
    }
    high.reverse();
    out.extend(high);
    out.sort_unstable();
    out
}

fn largest_divisor_at_most(n: usize, cap: usize) -> usize {
    let cap = cap.min(n).max(1);
    (1..=cap).rev().find(|&d| n.is_multiple_of(d)).unwrap_or(1)
}

/// Does any lane of the kernel gather or diverge? Such kernels prefer
/// smaller groups (less work serialized behind the worst lane).
fn irregular(features: &KernelFeatures) -> bool {
    features.barrier_count > 0
        || features
            .lanes
            .iter()
            .any(|l| matches!(l.class, LaneClass::Gather | LaneClass::Divergent))
}

/// Static prior score for a workgroup-size candidate — lower is better.
/// Streaming kernels want large groups (dispatch amortization); irregular
/// or barrier-heavy kernels want moderate ones (tail latency and
/// divergence); the distance is measured in octaves so 128-vs-256 matters
/// as much as 16-vs-32.
fn prior_score(wg: usize, features: Option<&KernelFeatures>) -> f64 {
    let ideal: f64 = match features {
        Some(f) if irregular(f) => 64.0,
        Some(f) if f.arith_mem_ratio >= 4.0 => 128.0,
        _ => 256.0,
    };
    ((wg.max(1) as f64).log2() - ideal.log2()).abs()
}

/// Build the candidate shortlist for one tuning problem.
///
/// * `features` — the kernel's static feature record at the default
///   resolution, when it publishes an access spec.
/// * `max_wg` — the device workgroup-size cap (`Device::default_wg`).
/// * `workers` — pool workers (load-balance bound for chunk candidates).
/// * `heuristic_wg` — the untuned NULL-local heuristic's pick, always
///   included so the tuner can never do worse than the fallback on the
///   configurations it actually measured.
///
/// Every candidate's `wg` divides `global[0]` and is ≤ `max_wg`; every
/// candidate's `chunk` is ≤ the group count and [`MAX_CHUNK`]. Deterministic:
/// same inputs, same list, same order.
pub fn shortlist(
    geom: &TuneGeometry,
    features: Option<&KernelFeatures>,
    max_wg: usize,
    workers: usize,
    heuristic_wg: usize,
) -> Vec<TunedConfig> {
    let g0 = geom.global[0];
    if g0 == 0 {
        return Vec::new();
    }
    let cap = max_wg.min(g0).max(1);
    let divs = divisors_at_most(g0, cap);

    // Ladder targets: one candidate near each power-of-four rung, plus the
    // cap and the untuned heuristic's pick.
    let mut wgs: Vec<usize> = Vec::new();
    for target in [16usize, 64, 256, cap] {
        let pick = largest_divisor_at_most(g0, target.min(cap));
        if !wgs.contains(&pick) {
            wgs.push(pick);
        }
    }
    if divs.len() <= 4 {
        // Divisor-poor (skewed) sizes: take every legal size there is.
        for &d in &divs {
            if !wgs.contains(&d) {
                wgs.push(d);
            }
        }
    }
    if heuristic_wg >= 1
        && g0.is_multiple_of(heuristic_wg)
        && heuristic_wg <= cap
        && !wgs.contains(&heuristic_wg)
    {
        wgs.push(heuristic_wg);
    }

    // Chunk candidates per workgroup size: uncoarsened, and the load-
    // balance-bounded fused factor (when they differ).
    let mut out: Vec<TunedConfig> = Vec::new();
    for &wg in &wgs {
        let n_groups = (g0 / wg) * geom.outer_items();
        let balance = (n_groups / (4 * workers.max(1))).clamp(1, MAX_CHUNK);
        out.push(TunedConfig { wg, chunk: 1 });
        if balance > 1 {
            out.push(TunedConfig { wg, chunk: balance });
        }
    }

    // Rank by the static prior (stable: ties keep insertion order, so the
    // heuristic pick survives truncation deterministically) and truncate.
    let mut indexed: Vec<(usize, TunedConfig)> = out.into_iter().enumerate().collect();
    indexed.sort_by(|(ia, a), (ib, b)| {
        prior_score(a.wg, features)
            .partial_cmp(&prior_score(b.wg, features))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ia.cmp(ib))
    });
    let mut out: Vec<TunedConfig> = indexed.into_iter().map(|(_, c)| c).collect();
    out.truncate(MAX_CANDIDATES);
    out.sort_by_key(|c| (c.wg, c.chunk));
    out.dedup();
    out
}

/// Total measured trials successive halving spends on a shortlist of `n`
/// candidates: `SAMPLES_PER_ROUND · (n + ⌈n/2⌉ + … + 2)`. Deterministic —
/// the convergence *budget* the harness gates against.
pub fn schedule_trials(n: usize) -> usize {
    let mut total = 0usize;
    let mut len = n;
    while len > 1 {
        total += SAMPLES_PER_ROUND * len;
        len = len.div_ceil(2);
    }
    if n == 1 {
        total = SAMPLES_PER_ROUND; // still sample the lone candidate once per round
    }
    total
}

// ---------------------------------------------------------------------------
// Bandit state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct CandState {
    cfg: TunedConfig,
    samples: Vec<f64>,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n == 0 {
        return f64::INFINITY;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&devs)
}

/// Ranking statistic for candidate comparison. Interference noise on a
/// shared machine is additive and strictly one-sided, so the minimum of a
/// handful of samples tracks the uncontended launch cost; the median of 3
/// flips whenever a single load spike lands in the window.
fn min_ns(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::INFINITY, f64::min)
}

#[derive(Debug, Clone)]
enum KeyState {
    Exploring {
        /// Surviving candidates, in pinned schedule order.
        cands: Vec<CandState>,
        /// Next candidate index in the round-robin.
        next: usize,
        /// Samples each survivor must reach before the next halving.
        round_quota: usize,
        /// Trials performed by this process on this key.
        trials: usize,
    },
    Converged {
        cfg: TunedConfig,
        /// Total trials behind the decision (may come from another process
        /// via the cache file).
        trials: usize,
        /// Winning median in ns (0.0 when unknown/loaded without one).
        median_ns: f64,
        /// Trials performed by *this process* on this key (0 when the
        /// decision was reused from the persistent cache).
        session_trials: usize,
    },
}

// ---------------------------------------------------------------------------
// Tuner
// ---------------------------------------------------------------------------

/// The per-process tuner: bandit state per [`TuneKey`] plus the persistent
/// cache file. Cheap to share (`Arc`); all state behind one mutex — the
/// converged hot path never takes it because converged decisions ride the
/// runtime's enqueue-plan cache.
pub struct Tuner {
    path: PathBuf,
    state: Mutex<BTreeMap<TuneKey, KeyState>>,
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tuner({})", self.path.display())
    }
}

/// Distinguishes concurrent in-process writers' tmp files; cross-process
/// uniqueness comes from the pid.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Tuner {
    /// A tuner over the cache file at `path` (`None` = the
    /// `CL_TUNE_CACHE`/default path). Loads whatever valid entries the file
    /// holds; a missing, corrupt, truncated, or foreign-schema file yields
    /// an empty (not failed) tuner.
    pub fn new(path: Option<PathBuf>) -> Self {
        let path = path.unwrap_or_else(Self::cache_path_from_env);
        let mut state = BTreeMap::new();
        for (key, cfg, trials, median_ns) in load_cache(&path) {
            state.insert(
                key,
                KeyState::Converged {
                    cfg,
                    trials,
                    median_ns,
                    session_trials: 0,
                },
            );
        }
        Tuner {
            path,
            state: Mutex::new(state),
        }
    }

    /// `CL_TUNE_CACHE=<path>` wins over the default `target/tune-cache.json`.
    pub fn cache_path_from_env() -> PathBuf {
        Self::cache_path_from_vars(|name| std::env::var(name).ok())
    }

    /// The path [`Tuner::cache_path_from_env`] picks when `var` gives each
    /// variable's value (a blank `CL_TUNE_CACHE` counts as unset). Tests
    /// pass a closure here instead of setting a process-wide variable.
    pub fn cache_path_from_vars(var: impl Fn(&str) -> Option<String>) -> PathBuf {
        var("CL_TUNE_CACHE")
            .filter(|p| !p.trim().is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/tune-cache.json"))
    }

    /// The shared per-process tuner (lazily built from the environment).
    /// Serving tenants and every `CL_TUNE=1` queue share this instance, so
    /// traffic from many clients compounds into one learning curve.
    pub fn process() -> &'static Arc<Tuner> {
        static TUNER: OnceLock<Arc<Tuner>> = OnceLock::new();
        TUNER.get_or_init(|| Arc::new(Tuner::new(None)))
    }

    /// The cache file this tuner loads from and persists to.
    pub fn cache_path(&self) -> &Path {
        &self.path
    }

    /// Decide what an enqueue should run. `candidates` is called at most
    /// once per key (the first time the key is seen) to build the
    /// shortlist.
    pub fn decide<F>(&self, key: &TuneKey, candidates: F) -> Decision
    where
        F: FnOnce() -> Vec<TunedConfig>,
    {
        let mut state = self.state.lock();
        if !state.contains_key(key) {
            let shortlist = candidates();
            if shortlist.is_empty() {
                // Remember the refusal so the closure doesn't re-run on
                // every enqueue of an untunable launch.
                state.insert(
                    key.clone(),
                    KeyState::Exploring {
                        cands: Vec::new(),
                        next: 0,
                        round_quota: 0,
                        trials: 0,
                    },
                );
            } else if shortlist.len() == 1 {
                state.insert(
                    key.clone(),
                    KeyState::Converged {
                        cfg: shortlist[0],
                        trials: 0,
                        median_ns: 0.0,
                        session_trials: 0,
                    },
                );
            } else {
                state.insert(
                    key.clone(),
                    KeyState::Exploring {
                        cands: shortlist
                            .into_iter()
                            .map(|cfg| CandState {
                                cfg,
                                samples: Vec::new(),
                            })
                            .collect(),
                        next: 0,
                        round_quota: SAMPLES_PER_ROUND,
                        trials: 0,
                    },
                );
            }
        }
        match state.get_mut(key).expect("inserted above") {
            KeyState::Converged { cfg, .. } => Decision::Converged(*cfg),
            KeyState::Exploring { cands, next, .. } => {
                if cands.is_empty() {
                    return Decision::Fallback;
                }
                let cfg = cands[*next % cands.len()].cfg;
                Decision::Trial(cfg)
            }
        }
    }

    /// Report one measured launch time (ns) for a trial configuration.
    /// Advances the pinned round-robin schedule; on the last sample of a
    /// halving round drops the worse half, and on convergence persists the
    /// decision to the cache file (best-effort: IO failure leaves the
    /// in-process decision intact).
    pub fn observe(&self, key: &TuneKey, cfg: TunedConfig, sample_ns: f64) {
        let mut state = self.state.lock();
        let Some(KeyState::Exploring {
            cands,
            next,
            round_quota,
            trials,
        }) = state.get_mut(key)
        else {
            return; // converged concurrently, or never decided: stale report
        };
        if cands.is_empty() {
            return;
        }
        let idx = *next % cands.len();
        if cands[idx].cfg != cfg {
            return; // out-of-schedule report (e.g. two queues racing); drop
        }
        cands[idx].samples.push(sample_ns.max(0.0));
        *trials += 1;
        *next = (idx + 1) % cands.len();

        // Halve once every survivor fills the round quota.
        if !cands.iter().all(|c| c.samples.len() >= *round_quota) {
            return;
        }
        let keep = cands.len().div_ceil(2);
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| {
            min_ns(&cands[a].samples)
                .partial_cmp(&min_ns(&cands[b].samples))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.truncate(keep);
        order.sort_unstable(); // keep schedule order stable across rounds
        let survivors: Vec<CandState> = order.iter().map(|&i| cands[i].clone()).collect();

        if survivors.len() == 1 {
            // Final round: noise-floored pick over the full last field, not
            // just the raw median winner — within MAD_K·MAD is a tie.
            let t = *trials;
            let (wcfg, wmed) = {
                let winner = self.final_pick(cands);
                (winner.cfg, median(&winner.samples))
            };
            state.insert(
                key.clone(),
                KeyState::Converged {
                    cfg: wcfg,
                    trials: t,
                    median_ns: wmed,
                    session_trials: t,
                },
            );
            drop(state);
            let _ = self.save();
            return;
        }
        *cands = survivors;
        *next = 0;
        *round_quota += SAMPLES_PER_ROUND;
        if cands.len() == 2 && *round_quota > SAMPLES_PER_ROUND * 16 {
            // Pathological tie loop guard: force a winner.
            let t = *trials;
            let (wcfg, wmed) = {
                let winner = self.final_pick(cands);
                (winner.cfg, median(&winner.samples))
            };
            state.insert(
                key.clone(),
                KeyState::Converged {
                    cfg: wcfg,
                    trials: t,
                    median_ns: wmed,
                    session_trials: t,
                },
            );
            drop(state);
            let _ = self.save();
        }
    }

    /// Noise-floored final selection: the best minimum wins; candidates
    /// within `MAD_K · MAD` of it are ties, resolved toward the larger
    /// `wg·chunk` (fewer dispatch chunks — the cheaper config when timing
    /// cannot tell them apart).
    fn final_pick<'a>(&self, cands: &'a [CandState]) -> &'a CandState {
        let best = cands
            .iter()
            .min_by(|a, b| {
                min_ns(&a.samples)
                    .partial_cmp(&min_ns(&b.samples))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty candidates");
        let floor = MAD_K * mad(&best.samples);
        let best_min = min_ns(&best.samples);
        cands
            .iter()
            .filter(|c| min_ns(&c.samples) <= best_min + floor)
            .max_by_key(|c| (c.cfg.wg * c.cfg.chunk, c.cfg.wg))
            .unwrap_or(best)
    }

    /// The converged decision for `key`, if any.
    pub fn converged(&self, key: &TuneKey) -> Option<TunedConfig> {
        match self.state.lock().get(key) {
            Some(KeyState::Converged { cfg, .. }) => Some(*cfg),
            _ => None,
        }
    }

    /// Total trials behind `key`'s state (including trials a previous
    /// process performed, when the decision came from the cache file).
    pub fn trials(&self, key: &TuneKey) -> usize {
        match self.state.lock().get(key) {
            Some(KeyState::Converged { trials, .. }) => *trials,
            Some(KeyState::Exploring { trials, .. }) => *trials,
            None => 0,
        }
    }

    /// Trials *this process* performed on `key` — 0 when the decision was
    /// reused from the persistent cache (the cold-start reuse guarantee the
    /// harness gates).
    pub fn session_trials(&self, key: &TuneKey) -> usize {
        match self.state.lock().get(key) {
            Some(KeyState::Converged { session_trials, .. }) => *session_trials,
            Some(KeyState::Exploring { trials, .. }) => *trials,
            None => 0,
        }
    }

    /// Keys this tuner holds a converged decision for.
    pub fn converged_keys(&self) -> Vec<TuneKey> {
        self.state
            .lock()
            .iter()
            .filter(|(_, s)| matches!(s, KeyState::Converged { .. }))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Persist every converged decision: read-merge-write with atomic
    /// tmp+rename, so concurrent writers never tear the file and a crash
    /// mid-write leaves the previous version intact.
    pub fn save(&self) -> std::io::Result<()> {
        // Merge entries already on disk (another process may have converged
        // keys we never saw); our own decisions win on conflict.
        let mut entries: BTreeMap<TuneKey, (TunedConfig, usize, f64)> = load_cache(&self.path)
            .into_iter()
            .map(|(k, cfg, trials, med)| (k, (cfg, trials, med)))
            .collect();
        {
            let state = self.state.lock();
            for (key, s) in state.iter() {
                if let KeyState::Converged {
                    cfg,
                    trials,
                    median_ns,
                    ..
                } = s
                {
                    entries.insert(key.clone(), (*cfg, *trials, *median_ns));
                }
            }
        }
        let mut body = String::new();
        body.push_str("{\n");
        body.push_str(&format!("  \"schema\": {CACHE_SCHEMA},\n"));
        body.push_str("  \"entries\": [\n");
        let n = entries.len();
        for (i, (key, (cfg, trials, median_ns))) in entries.into_iter().enumerate() {
            body.push_str(&format!(
                "    {{ \"kernel\": \"{}\", \"global\": [{}, {}, {}], \"dims\": {}, \
                 \"device\": \"{}\", \"workers\": {}, \"wg\": {}, \"chunk\": {}, \
                 \"trials\": {}, \"median_ns\": {:.1} }}{}\n",
                json::escape(&key.kernel),
                key.global[0],
                key.global[1],
                key.global[2],
                key.dims,
                json::escape(&key.device),
                key.workers,
                cfg.wg,
                cfg.chunk,
                trials,
                median_ns,
                if i + 1 < n { "," } else { "" },
            ));
        }
        body.push_str("  ]\n}\n");

        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = self.path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, body)?;
        let renamed = std::fs::rename(&tmp, &self.path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }
}

/// Parse the cache file at `path` into converged entries. Anything that is
/// missing, unreadable, syntactically corrupt, the wrong schema, or
/// per-entry malformed is skipped silently — the cache is an accelerator,
/// never a failure source.
fn load_cache(path: &Path) -> Vec<(TuneKey, TunedConfig, usize, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    if doc.get("schema").and_then(Json::as_f64) != Some(CACHE_SCHEMA as f64) {
        return Vec::new();
    }
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in entries {
        let (Some(kernel), Some(device)) = (
            e.get("kernel").and_then(Json::as_str),
            e.get("device").and_then(Json::as_str),
        ) else {
            continue;
        };
        let num = |k: &str| e.get(k).and_then(Json::as_f64);
        let Some(global) = e.get("global").and_then(Json::as_arr) else {
            continue;
        };
        if global.len() != 3 || global.iter().any(|g| g.as_f64().is_none()) {
            continue;
        }
        let (Some(dims), Some(workers), Some(wg), Some(chunk)) =
            (num("dims"), num("workers"), num("wg"), num("chunk"))
        else {
            continue;
        };
        if wg < 1.0 || chunk < 1.0 {
            continue;
        }
        let g = [
            global[0].as_f64().unwrap_or(0.0) as usize,
            global[1].as_f64().unwrap_or(0.0) as usize,
            global[2].as_f64().unwrap_or(0.0) as usize,
        ];
        // Stale-entry guard: a decision whose workgroup size no longer
        // divides the recorded geometry (hand-edited or bit-rotted file)
        // would produce illegal explicit locals — skip it.
        if g[0] == 0 || !g[0].is_multiple_of(wg as usize) {
            continue;
        }
        out.push((
            TuneKey {
                kernel: kernel.to_string(),
                global: g,
                dims: dims as usize,
                device: device.to_string(),
                workers: workers as usize,
            },
            TunedConfig {
                wg: wg as usize,
                chunk: chunk as usize,
            },
            num("trials").unwrap_or(0.0) as usize,
            num("median_ns").unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kernel: &str, n: usize) -> TuneKey {
        TuneKey {
            kernel: kernel.to_string(),
            global: [n, 1, 1],
            dims: 1,
            device: "test-device".to_string(),
            workers: 2,
        }
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cl-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn shortlist_is_legal_and_deterministic() {
        let geom = TuneGeometry {
            global: [10_000, 1, 1],
            dims: 1,
        };
        let a = shortlist(&geom, None, 512, 2, 500);
        let b = shortlist(&geom, None, 512, 2, 500);
        assert_eq!(a, b, "prior must be deterministic");
        assert!(!a.is_empty() && a.len() <= MAX_CANDIDATES);
        for c in &a {
            assert_eq!(10_000 % c.wg, 0, "wg must divide global: {c:?}");
            assert!(c.wg <= 512);
            assert!(c.chunk >= 1 && c.chunk <= MAX_CHUNK);
            assert!(c.chunk <= 10_000 / c.wg, "chunk beyond group count: {c:?}");
        }
        assert!(
            a.iter().any(|c| c.wg == 500),
            "heuristic pick must be a candidate: {a:?}"
        );
    }

    #[test]
    fn shortlist_survives_prime_sizes() {
        let geom = TuneGeometry {
            global: [9973, 1, 1],
            dims: 1,
        };
        let cands = shortlist(&geom, None, 512, 2, 1);
        assert!(!cands.is_empty());
        assert!(
            cands.iter().all(|c| c.wg == 1),
            "prime size has one divisor"
        );
    }

    #[test]
    fn halving_converges_to_fastest_with_pinned_trial_count() {
        let t = Tuner::new(Some(tmpfile("halving.json")));
        let k = key("bench", 4096);
        let cands = vec![
            TunedConfig { wg: 16, chunk: 1 },
            TunedConfig { wg: 64, chunk: 1 },
            TunedConfig { wg: 256, chunk: 1 },
            TunedConfig { wg: 256, chunk: 4 },
        ];
        let budget = schedule_trials(cands.len());
        let mut trials = 0usize;
        loop {
            match t.decide(&k, || cands.clone()) {
                Decision::Converged(cfg) => {
                    // wg=256 chunk=4 is fastest in the synthetic cost below.
                    assert_eq!(cfg, TunedConfig { wg: 256, chunk: 4 });
                    break;
                }
                Decision::Trial(cfg) => {
                    trials += 1;
                    assert!(trials <= budget, "exceeded pinned budget {budget}");
                    let cost = 1000.0 / (cfg.wg as f64) + 100.0 / (cfg.chunk as f64);
                    t.observe(&k, cfg, cost);
                }
                Decision::Fallback => panic!("non-empty shortlist must not fall back"),
            }
        }
        assert_eq!(t.trials(&k), budget, "halving schedule is deterministic");
        assert_eq!(t.session_trials(&k), budget);
    }

    #[test]
    fn empty_shortlist_falls_back_once() {
        let t = Tuner::new(Some(tmpfile("fallback.json")));
        let k = key("opaque", 7);
        let mut calls = 0;
        for _ in 0..3 {
            let d = t.decide(&k, || {
                calls += 1;
                Vec::new()
            });
            assert_eq!(d, Decision::Fallback);
        }
        assert_eq!(calls, 1, "candidate builder runs once per key");
    }

    #[test]
    fn cache_round_trips_and_reuses_with_zero_session_trials() {
        let path = tmpfile("roundtrip.json");
        let _ = std::fs::remove_file(&path);
        let k = key("square", 1024);
        {
            let t = Tuner::new(Some(path.clone()));
            let cands = vec![
                TunedConfig { wg: 64, chunk: 1 },
                TunedConfig { wg: 256, chunk: 2 },
            ];
            loop {
                match t.decide(&k, || cands.clone()) {
                    Decision::Converged(_) => break,
                    Decision::Trial(cfg) => t.observe(&k, cfg, cfg.wg as f64),
                    Decision::Fallback => unreachable!(),
                }
            }
            assert!(t.session_trials(&k) > 0);
        }
        let t2 = Tuner::new(Some(path.clone()));
        match t2.decide(&k, || panic!("cached key must not rebuild candidates")) {
            Decision::Converged(cfg) => assert_eq!(cfg.wg, 64, "64 was measured faster"),
            other => panic!("expected converged decision from cache, got {other:?}"),
        }
        assert_eq!(t2.session_trials(&k), 0, "cold-start reuse costs no trials");
        assert!(t2.trials(&k) > 0, "persisted trial count survives");
    }

    #[test]
    fn corrupt_wrong_schema_and_stale_entries_are_ignored() {
        for (name, content) in [
            ("corrupt.json", "{ not json at all"),
            ("truncated.json", "{\"schema\": 1, \"entries\": [ {\"ker"),
            ("schema.json", "{\"schema\": 99, \"entries\": []}"),
            (
                "stale.json",
                // wg 7 does not divide global 1024: must be skipped.
                "{\"schema\": 1, \"entries\": [{\"kernel\": \"k\", \"global\": [1024, 1, 1], \
                 \"dims\": 1, \"device\": \"d\", \"workers\": 2, \"wg\": 7, \"chunk\": 1, \
                 \"trials\": 9, \"median_ns\": 1.0}]}",
            ),
        ] {
            let path = tmpfile(name);
            std::fs::write(&path, content).unwrap();
            let t = Tuner::new(Some(path));
            assert!(
                t.converged_keys().is_empty(),
                "{name}: bad cache must load empty, not fail"
            );
        }
    }

    #[test]
    fn save_merges_with_foreign_entries() {
        let path = tmpfile("merge.json");
        let _ = std::fs::remove_file(&path);
        let ka = key("a", 256);
        let kb = key("b", 256);
        let converge = |t: &Tuner, k: &TuneKey| loop {
            match t.decide(k, || {
                vec![
                    TunedConfig { wg: 16, chunk: 1 },
                    TunedConfig { wg: 256, chunk: 1 },
                ]
            }) {
                Decision::Converged(_) => break,
                Decision::Trial(cfg) => t.observe(k, cfg, 1.0 / cfg.wg as f64),
                Decision::Fallback => unreachable!(),
            }
        };
        let t1 = Tuner::new(Some(path.clone()));
        converge(&t1, &ka);
        // A second tuner (fresh process analog) converges a different key;
        // its save must keep t1's entry.
        let t2 = Tuner::new(Some(path.clone()));
        converge(&t2, &kb);
        let t3 = Tuner::new(Some(path));
        assert_eq!(t3.converged_keys().len(), 2, "merge-on-save keeps both");
    }

    #[test]
    fn schedule_trials_matches_halving() {
        assert_eq!(schedule_trials(1), SAMPLES_PER_ROUND);
        assert_eq!(schedule_trials(2), SAMPLES_PER_ROUND * 2);
        assert_eq!(schedule_trials(4), SAMPLES_PER_ROUND * (4 + 2));
        assert_eq!(schedule_trials(8), SAMPLES_PER_ROUND * (8 + 4 + 2));
    }
}
