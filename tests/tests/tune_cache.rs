//! Persistent tune-cache robustness: the cache file is an accelerator,
//! never a failure source. Corrupt, truncated, or foreign-schema content
//! must load as empty; concurrent writers in separate processes must never
//! tear the file (tmp+rename atomicity); and the `CL_TUNE_CACHE` knob must
//! win over the default path.
//!
//! The two-process scenarios re-exec this test binary filtered to the
//! `child_` helper tests (the standard self-exec pattern — the child
//! helpers are no-ops unless the driving env var is set).

use std::path::PathBuf;
use std::process::Command;

use cl_tune::{Decision, TuneKey, TunedConfig, Tuner};

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cl-tune-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(kernel: &str) -> TuneKey {
    TuneKey {
        kernel: kernel.to_string(),
        global: [1024, 1, 1],
        dims: 1,
        device: "itest-device".to_string(),
        workers: 2,
    }
}

/// Converge `k` on `t` with a synthetic cost model (smaller wg = slower).
fn converge(t: &Tuner, k: &TuneKey) -> TunedConfig {
    loop {
        match t.decide(k, || {
            vec![
                TunedConfig { wg: 32, chunk: 1 },
                TunedConfig { wg: 64, chunk: 1 },
                TunedConfig { wg: 256, chunk: 1 },
                TunedConfig { wg: 256, chunk: 4 },
            ]
        }) {
            Decision::Converged(cfg) => return cfg,
            Decision::Trial(cfg) => t.observe(k, cfg, 10_000.0 / (cfg.wg * cfg.chunk) as f64),
            Decision::Fallback => unreachable!("non-empty shortlist"),
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed-content tolerance
// ---------------------------------------------------------------------------

#[test]
fn corrupt_cache_loads_empty_and_is_recoverable() {
    let path = tmpdir().join("corrupt.json");
    std::fs::write(&path, "this is { not json").unwrap();
    let t = Tuner::new(Some(path.clone()));
    assert!(
        t.converged_keys().is_empty(),
        "corrupt cache must load empty"
    );
    // And the tuner recovers the file: converging writes a valid cache
    // over the garbage.
    let k = key("recover");
    let cfg = converge(&t, &k);
    let t2 = Tuner::new(Some(path));
    assert_eq!(t2.converged(&k), Some(cfg), "save must overwrite garbage");
}

#[test]
fn truncated_cache_loads_empty() {
    // A write cut off mid-entry — the scenario tmp+rename prevents, but a
    // reader must survive it anyway (e.g. a cache copied mid-write).
    let path = tmpdir().join("truncated.json");
    let t = Tuner::new(Some(path.clone()));
    let k = key("whole");
    converge(&t, &k);
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    let t2 = Tuner::new(Some(path));
    assert!(
        t2.converged_keys().is_empty(),
        "truncated cache must load empty, not fail or half-load"
    );
}

#[test]
fn wrong_schema_version_is_ignored_wholesale() {
    let path = tmpdir().join("schema.json");
    std::fs::write(
        &path,
        format!(
            "{{\"schema\": {}, \"entries\": [{{\"kernel\": \"k\", \"global\": [1024, 1, 1], \
             \"dims\": 1, \"device\": \"d\", \"workers\": 2, \"wg\": 64, \"chunk\": 1, \
             \"trials\": 9, \"median_ns\": 1.0}}]}}",
            cl_tune::CACHE_SCHEMA + 1
        ),
    )
    .unwrap();
    let t = Tuner::new(Some(path));
    assert!(
        t.converged_keys().is_empty(),
        "future-schema entries must not be misread"
    );
}

// ---------------------------------------------------------------------------
// Env-knob precedence
// ---------------------------------------------------------------------------

#[test]
fn cl_tune_cache_env_wins_over_default() {
    // Env mutation is process-global: save and restore.
    let saved = std::env::var("CL_TUNE_CACHE").ok();
    std::env::set_var("CL_TUNE_CACHE", "/some/explicit/cache.json");
    let with_env = Tuner::cache_path_from_env();
    std::env::set_var("CL_TUNE_CACHE", "   ");
    let blank = Tuner::cache_path_from_env();
    std::env::remove_var("CL_TUNE_CACHE");
    let without = Tuner::cache_path_from_env();
    match saved {
        Some(v) => std::env::set_var("CL_TUNE_CACHE", v),
        None => std::env::remove_var("CL_TUNE_CACHE"),
    }
    assert_eq!(with_env, PathBuf::from("/some/explicit/cache.json"));
    assert_eq!(
        blank,
        PathBuf::from("target/tune-cache.json"),
        "blank = unset"
    );
    assert_eq!(without, PathBuf::from("target/tune-cache.json"));
    // A Tuner built with an explicit path ignores the env entirely.
    let explicit = tmpdir().join("explicit.json");
    let t = Tuner::new(Some(explicit.clone()));
    assert_eq!(t.cache_path(), explicit.as_path());
}

// ---------------------------------------------------------------------------
// Two-process concurrency (self-exec)
// ---------------------------------------------------------------------------

/// Child helper: no-op under a normal test run. When `TUNE_CHILD_KERNEL`
/// is set, converges that kernel's key into `TUNE_CHILD_CACHE`, then
/// re-saves `TUNE_CHILD_RESAVES` more times to stress the writer path.
#[test]
fn child_cache_writer() {
    let Ok(kernel) = std::env::var("TUNE_CHILD_KERNEL") else {
        return;
    };
    let path = PathBuf::from(std::env::var("TUNE_CHILD_CACHE").expect("child cache path"));
    let resaves: usize = std::env::var("TUNE_CHILD_RESAVES")
        .expect("child resave count")
        .parse()
        .expect("numeric resave count");
    let t = Tuner::new(Some(path));
    converge(&t, &key(&kernel));
    for _ in 0..resaves {
        t.save().expect("child save");
    }
}

fn spawn_writer(cache: &std::path::Path, kernel: &str, resaves: usize) -> std::process::Child {
    Command::new(std::env::current_exe().expect("test exe"))
        .args(["child_cache_writer", "--exact", "--test-threads", "1"])
        // The child's own test listing would interleave with this binary's
        // report lines; its panic message still reaches stderr.
        .arg("--nocapture")
        .stdout(std::process::Stdio::null())
        .env("TUNE_CHILD_KERNEL", kernel)
        .env("TUNE_CHILD_CACHE", cache)
        .env("TUNE_CHILD_RESAVES", resaves.to_string())
        .spawn()
        .expect("spawn child writer")
}

/// Two separate processes converging different keys into the same cache
/// file, each re-saving in a tight loop, while this process re-reads the
/// file continuously: every read must parse as a valid cache (atomic
/// tmp+rename means readers see the old or the new version, never a torn
/// one), and both children must exit green.
#[test]
fn concurrent_process_writers_never_tear_the_file() {
    let cache = tmpdir().join("concurrent.json");
    let _ = std::fs::remove_file(&cache);
    let mut kids = vec![
        spawn_writer(&cache, "writer-a", 40),
        spawn_writer(&cache, "writer-b", 40),
    ];
    // Reader loop: any non-empty file state must be a valid cache. A torn
    // write would surface as a parse failure → empty load of a non-empty
    // file that previously held entries.
    let mut saw_entries = false;
    while kids
        .iter_mut()
        .any(|k| k.try_wait().expect("child poll").is_none())
    {
        if cache.exists() {
            let text = std::fs::read_to_string(&cache).unwrap_or_default();
            if !text.is_empty() {
                let t = Tuner::new(Some(cache.clone()));
                let loaded = t.converged_keys().len();
                assert!(
                    loaded >= 1,
                    "non-empty cache failed to load any entry — torn write?\n{text}"
                );
                saw_entries = true;
            }
        }
        std::thread::yield_now();
    }
    for kid in &mut kids {
        let status = kid.wait().expect("child exit");
        assert!(status.success(), "child writer failed: {status}");
    }
    assert!(saw_entries, "writers never produced a readable cache");
    // No orphaned tmp files: failed renames clean up after themselves, and
    // successful ones consume the tmp.
    let dir = cache.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("concurrent.tmp."))
        .collect();
    assert!(leftovers.is_empty(), "orphaned tmp files: {leftovers:?}");
}

/// Sequential cross-process merge: a second process converging a different
/// key must keep the first process's entry (read-merge-write), so a third
/// process sees both.
#[test]
fn sequential_process_writers_merge_entries() {
    let cache = tmpdir().join("sequential.json");
    let _ = std::fs::remove_file(&cache);
    for kernel in ["seq-a", "seq-b"] {
        let status = spawn_writer(&cache, kernel, 0).wait().expect("child exit");
        assert!(status.success(), "writer {kernel} failed: {status}");
    }
    let t = Tuner::new(Some(cache));
    let mut kernels: Vec<String> = t.converged_keys().into_iter().map(|k| k.kernel).collect();
    kernels.sort();
    assert_eq!(kernels, ["seq-a", "seq-b"], "merge-on-save keeps both");
}
