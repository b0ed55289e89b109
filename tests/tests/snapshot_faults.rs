//! Crash-safety tests for the snapshot/resume layer.
//!
//! The acceptance bar is *equivalence*: for every kernel, tripping the
//! run at **every** poll point, snapshotting, round-tripping the
//! snapshot through its wire encoding, and resuming under an unlimited
//! budget must reproduce the uninterrupted run's answer exactly. On top
//! of that, every injected storage corruption — torn tails, bit flips,
//! short writes, out-of-space writers, wrong graph/kernel — must be
//! rejected with a typed [`RecoveryError`] and degrade to a clean
//! from-scratch run, never a panic or a wrong answer.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nsky_centrality::greedy::{greedy_group, greedy_group_with, GreedyOptions};
use nsky_centrality::measure::Harmonic;
use nsky_centrality::neisky::{nei_sky_group, nei_sky_group_with};
use nsky_clique::{
    max_clique_bnb, max_clique_bnb_with, mc_brb, mc_brb_with, nei_sky_mc, nei_sky_mc_with,
    top_k_cliques, top_k_cliques_with, TopkMode,
};
use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};
use nsky_graph::Graph;
use nsky_skyline::budget::{ExecutionBudget, TripClock};
use nsky_skyline::snapshot::{
    FaultFile, FaultKind, FileCheckpointer, RecoveryError, ResumableRun, Snapshot,
};
use nsky_skyline::{
    base_sky, base_sky_with, filter_refine_sky, filter_refine_sky_par_with, filter_refine_sky_with,
    ExecutionContext, RefineConfig,
};

/// A budget with a deterministic clock tripping on poll `k`, polling on
/// every tick, plus the clock handle for poll counting.
fn trip_budget(k: u64) -> (ExecutionBudget, Arc<TripClock>) {
    let clock = Arc::new(TripClock::at_poll(k));
    let budget = ExecutionBudget::unlimited()
        .deadline(Arc::clone(&clock))
        .check_interval(1);
    (budget, clock)
}

/// A scratch path unique to this test process and `label`.
fn scratch_path(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nsky-snapshot-faults-{}-{label}-{seq}.ck",
        std::process::id()
    ))
}

/// The equivalence sweep: calibrate the kernel's total poll count, then
/// for **every** poll point `k` trip the run there, round-trip the
/// returned snapshot through bytes, resume under an unlimited budget,
/// and hand the resumed outcome to `check` (which asserts equality with
/// the uninterrupted reference).
fn kill_sweep<T>(
    label: &str,
    run: &dyn Fn(&ExecutionBudget, Option<&Snapshot>) -> ResumableRun<T>,
    check: &dyn Fn(&T, &str),
) {
    let (budget, clock) = trip_budget(u64::MAX);
    let reference = run(&budget, None);
    assert!(
        reference.snapshot.is_none() && reference.recovery.is_none(),
        "{label}: unlimited run must complete cleanly"
    );
    let total = clock.polls();
    assert!(total > 4, "{label}: too few polls to sweep ({total})");
    for k in 1..total {
        let (budget, _clock) = trip_budget(k);
        let tripped = run(&budget, None);
        let snap = tripped
            .snapshot
            .unwrap_or_else(|| panic!("{label} k={k}/{total}: trip produced no snapshot"));
        // Wire round-trip: what a process restart would read from disk.
        let bytes = snap.to_bytes();
        let snap = Snapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{label} k={k}/{total}: re-read failed: {e}"));
        let resumed = run(&ExecutionBudget::unlimited(), Some(&snap));
        assert!(
            resumed.snapshot.is_none(),
            "{label} k={k}/{total}: resumed run did not complete"
        );
        assert!(
            resumed.recovery.is_none(),
            "{label} k={k}/{total}: genuine snapshot rejected: {:?}",
            resumed.recovery
        );
        check(&resumed.outcome, &format!("{label} k={k}/{total}"));
    }
}

#[test]
fn base_sky_kill_sweep() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 1);
    let full = base_sky(&g);
    kill_sweep(
        "base-sky",
        &|b, r| base_sky_with(&g, &mut ExecutionContext::new().budget(b).resume(r)),
        &|out, ctx| {
            assert_eq!(out.skyline, full.skyline, "{ctx}");
        },
    );
}

#[test]
fn filter_refine_kill_sweep() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 2);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    kill_sweep(
        "filter-refine",
        &|b, r| filter_refine_sky_with(&g, &cfg, &mut ExecutionContext::new().budget(b).resume(r)),
        &|out, ctx| {
            assert_eq!(out.skyline, full.skyline, "{ctx}");
        },
    );
}

#[test]
fn parallel_refine_kill_sweep() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 3);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    // Two workers race the trip, so the exact trip poll is not
    // deterministic — but the resumed answer must still be exact.
    let (budget, clock) = trip_budget(u64::MAX);
    let reference =
        filter_refine_sky_par_with(&g, &cfg, 2, &mut ExecutionContext::new().budget(&budget));
    assert_eq!(reference.outcome.skyline, full.skyline);
    let total = clock.polls();
    for k in 1..total {
        let (budget, _clock) = trip_budget(k);
        let tripped =
            filter_refine_sky_par_with(&g, &cfg, 2, &mut ExecutionContext::new().budget(&budget));
        let Some(snap) = tripped.snapshot else {
            // Workers may legitimately finish before observing the trip.
            assert_eq!(tripped.outcome.skyline, full.skyline, "par k={k}");
            continue;
        };
        let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("re-read");
        let resumed = filter_refine_sky_par_with(
            &g,
            &cfg,
            2,
            &mut ExecutionContext::new()
                .budget(&ExecutionBudget::unlimited())
                .resume(Some(&snap)),
        );
        assert!(resumed.recovery.is_none(), "par k={k}");
        assert_eq!(resumed.outcome.skyline, full.skyline, "par k={k}");
    }
}

#[test]
fn clique_bnb_kill_sweep() {
    let g = erdos_renyi(40, 0.25, 4);
    let (full, _) = max_clique_bnb(&g);
    kill_sweep(
        "clique-bnb",
        &|b, r| max_clique_bnb_with(&g, &mut ExecutionContext::new().budget(b).resume(r)),
        &|out, ctx| {
            assert_eq!(out.clique, full, "{ctx}");
        },
    );
}

#[test]
fn mc_brb_kill_sweep() {
    let g = chung_lu_power_law(120, 2.6, 6.0, 5);
    let (full, _) = mc_brb(&g);
    kill_sweep(
        "mc-brb",
        &|b, r| mc_brb_with(&g, &mut ExecutionContext::new().budget(b).resume(r)),
        &|out, ctx| {
            assert_eq!(out.clique, full, "{ctx}");
        },
    );
}

#[test]
fn nei_sky_mc_kill_sweep() {
    let g = chung_lu_power_law(120, 2.6, 6.0, 6);
    let full = nei_sky_mc(&g);
    kill_sweep(
        "nei-sky-mc",
        &|b, r| nei_sky_mc_with(&g, &mut ExecutionContext::new().budget(b).resume(r)),
        &|out, ctx| {
            assert_eq!(out.clique, full.clique, "{ctx}");
            assert_eq!(out.skyline_size, full.skyline_size, "{ctx}");
        },
    );
}

#[test]
fn topk_base_kill_sweep() {
    let g = erdos_renyi(32, 0.3, 7);
    let full = top_k_cliques(&g, 3, TopkMode::Base);
    kill_sweep(
        "topk-base",
        &|b, r| {
            top_k_cliques_with(
                &g,
                3,
                TopkMode::Base,
                &mut ExecutionContext::new().budget(b).resume(r),
            )
        },
        &|out, ctx| {
            assert_eq!(out.cliques, full.cliques, "{ctx}");
            assert_eq!(out.seeds, full.seeds, "{ctx}");
        },
    );
}

#[test]
fn topk_neisky_kill_sweep() {
    let g = erdos_renyi(40, 0.25, 8);
    let full = top_k_cliques(&g, 4, TopkMode::NeiSky);
    kill_sweep(
        "topk-neisky",
        &|b, r| {
            top_k_cliques_with(
                &g,
                4,
                TopkMode::NeiSky,
                &mut ExecutionContext::new().budget(b).resume(r),
            )
        },
        &|out, ctx| {
            assert_eq!(out.cliques, full.cliques, "{ctx}");
            assert_eq!(out.seeds, full.seeds, "{ctx}");
        },
    );
}

#[test]
fn greedy_plain_kill_sweep() {
    let g = erdos_renyi(36, 0.12, 9);
    let opts = GreedyOptions::default();
    let full = greedy_group(&g, Harmonic, 3, &opts);
    kill_sweep(
        "greedy-plain",
        &|b, r| {
            greedy_group_with(
                &g,
                Harmonic,
                3,
                &opts,
                &mut ExecutionContext::new().budget(b).resume(r),
            )
        },
        &|out, ctx| {
            assert_eq!(out.group, full.group, "{ctx}");
            assert_eq!(
                out.score_trace, full.score_trace,
                "{ctx}: float replay drifted"
            );
            assert_eq!(out.score, full.score, "{ctx}");
        },
    );
}

#[test]
fn greedy_celf_kill_sweep() {
    let g = erdos_renyi(36, 0.12, 10);
    let opts = GreedyOptions::optimized();
    let full = greedy_group(&g, Harmonic, 3, &opts);
    kill_sweep(
        "greedy-celf",
        &|b, r| {
            greedy_group_with(
                &g,
                Harmonic,
                3,
                &opts,
                &mut ExecutionContext::new().budget(b).resume(r),
            )
        },
        &|out, ctx| {
            assert_eq!(out.group, full.group, "{ctx}");
            assert_eq!(
                out.score_trace, full.score_trace,
                "{ctx}: float replay drifted"
            );
            assert_eq!(out.score, full.score, "{ctx}");
        },
    );
}

#[test]
fn nei_sky_group_kill_sweep() {
    let g = chung_lu_power_law(56, 2.7, 5.0, 11);
    let full = nei_sky_group(&g, Harmonic, 3, true);
    kill_sweep(
        "nei-sky-group",
        &|b, r| {
            nei_sky_group_with(
                &g,
                Harmonic,
                3,
                true,
                &mut ExecutionContext::new().budget(b).resume(r),
            )
        },
        &|out, ctx| {
            assert_eq!(out.greedy.group, full.greedy.group, "{ctx}");
            assert_eq!(out.greedy.score, full.greedy.score, "{ctx}");
            assert_eq!(out.skyline_size, full.skyline_size, "{ctx}");
        },
    );
}

/// Crash-and-reload: run with a file checkpointer and a deadline trip,
/// pretend the process died (drop the in-memory snapshot), reload
/// whatever the *disk* holds, and resume from that. Disk may lag the
/// trip point by up to one checkpoint period — resuming must still
/// converge to the uninterrupted answer.
#[test]
fn crash_reload_from_disk_checkpoint_converges() {
    let g = chung_lu_power_law(120, 2.7, 5.0, 12);
    let full = base_sky(&g);
    let (budget, clock) = trip_budget(u64::MAX);
    let _ = base_sky_with(&g, &mut ExecutionContext::new().budget(&budget));
    let total = clock.polls();
    for k in [total / 4, total / 2, (3 * total) / 4] {
        let path = scratch_path("crash-reload");
        let (budget, _clock) = trip_budget(k);
        budget.set_checkpoint_period(5);
        let mut sink = FileCheckpointer::new(&path);
        let tripped = base_sky_with(
            &g,
            &mut ExecutionContext::new()
                .budget(&budget)
                .checkpoint(Some(&mut sink)),
        );
        assert!(tripped.snapshot.is_some(), "k={k}: no final snapshot");
        // Crash: only the disk survives.
        let resume = Snapshot::load(&path).ok();
        let resumed = base_sky_with(
            &g,
            &mut ExecutionContext::new()
                .budget(&ExecutionBudget::unlimited())
                .resume(resume.as_ref()),
        );
        assert!(resumed.recovery.is_none(), "k={k}");
        assert_eq!(resumed.outcome.skyline, full.skyline, "k={k}");
        let _ = std::fs::remove_file(&path);
    }
}

/// Periodic checkpointing under an otherwise unlimited budget must not
/// change the answer, and the last checkpoint on disk must itself be a
/// usable resume point.
#[test]
fn periodic_checkpoints_preserve_answers_and_stay_loadable() {
    let g = chung_lu_power_law(100, 2.7, 5.0, 13);
    let full = filter_refine_sky(&g, &RefineConfig::default());
    let path = scratch_path("periodic");
    let budget = ExecutionBudget::unlimited().check_interval(1);
    budget.set_checkpoint_period(7);
    let mut sink = FileCheckpointer::new(&path);
    let run = filter_refine_sky_with(
        &g,
        &RefineConfig::default(),
        &mut ExecutionContext::new()
            .budget(&budget)
            .checkpoint(Some(&mut sink)),
    );
    assert!(run.snapshot.is_none(), "checkpointed run must still finish");
    assert_eq!(run.outcome.skyline, full.skyline);
    // The file holds some mid-run state; resuming from it re-converges.
    let snap = Snapshot::load(&path).expect("at least one checkpoint landed");
    let resumed = filter_refine_sky_with(
        &g,
        &RefineConfig::default(),
        &mut ExecutionContext::new()
            .budget(&ExecutionBudget::unlimited())
            .resume(Some(&snap)),
    );
    assert!(resumed.recovery.is_none());
    assert_eq!(resumed.outcome.skyline, full.skyline);
    let _ = std::fs::remove_file(&path);
}

/// A genuine mid-run snapshot of `base_sky` on `g`, as wire bytes.
fn genuine_snapshot(g: &Graph) -> Vec<u8> {
    let (budget, clock) = trip_budget(u64::MAX);
    let _ = base_sky_with(g, &mut ExecutionContext::new().budget(&budget));
    let (budget, _clock) = trip_budget(clock.polls() / 2);
    let tripped = base_sky_with(g, &mut ExecutionContext::new().budget(&budget));
    tripped.snapshot.expect("mid-run trip").to_bytes()
}

#[test]
fn every_torn_tail_is_rejected_with_a_typed_error() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 14);
    let bytes = genuine_snapshot(&g);
    for len in 0..bytes.len() {
        let err = Snapshot::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("torn tail at {len} accepted"));
        assert!(
            matches!(
                err,
                RecoveryError::Truncated
                    | RecoveryError::ChecksumMismatch
                    | RecoveryError::BadMagic
            ),
            "torn tail at {len}: unexpected {err:?}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected_with_a_typed_error() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 15);
    let bytes = genuine_snapshot(&g);
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(&corrupt).is_err(),
                "bit flip at byte {i} bit {bit} accepted"
            );
        }
    }
}

#[test]
fn short_writes_and_enospc_never_yield_a_loadable_lie() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 16);
    let bytes = genuine_snapshot(&g);
    let snap = Snapshot::from_bytes(&bytes).expect("genuine");
    for budget in 0..bytes.len() {
        // A writer that silently drops the tail (crash before flush):
        // the surviving prefix must never parse as a valid snapshot.
        let mut disk = FaultFile::new(budget, FaultKind::ShortWrite);
        snap.write_to(&mut disk).expect("short writes lie with Ok");
        assert!(
            Snapshot::from_bytes(disk.written()).is_err(),
            "short write at {budget} bytes produced a loadable snapshot"
        );
        // An out-of-space writer must surface a typed I/O error.
        let mut disk = FaultFile::new(budget, FaultKind::Enospc);
        assert!(
            snap.write_to(&mut disk).is_err(),
            "ENOSPC at {budget} bytes went unnoticed"
        );
    }
}

#[test]
fn unusable_snapshots_degrade_to_clean_fresh_runs() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 17);
    let other = chung_lu_power_law(90, 2.8, 5.0, 18);
    let full = base_sky(&g);
    let snap = Snapshot::from_bytes(&genuine_snapshot(&other)).expect("genuine");

    // Wrong graph: typed GraphMismatch, then a clean from-scratch run.
    let run = base_sky_with(
        &g,
        &mut ExecutionContext::new()
            .budget(&ExecutionBudget::unlimited())
            .resume(Some(&snap)),
    );
    assert!(matches!(run.recovery, Some(RecoveryError::GraphMismatch)));
    assert_eq!(run.outcome.skyline, full.skyline);

    // Wrong kernel: a base-sky snapshot offered to the clique solver.
    let snap = Snapshot::from_bytes(&genuine_snapshot(&g)).expect("genuine");
    let (full_clique, _) = mc_brb(&g);
    let run = mc_brb_with(
        &g,
        &mut ExecutionContext::new()
            .budget(&ExecutionBudget::unlimited())
            .resume(Some(&snap)),
    );
    assert!(matches!(
        run.recovery,
        Some(RecoveryError::KernelMismatch { .. })
    ));
    assert_eq!(run.outcome.clique, full_clique);
}

#[test]
fn on_disk_corruption_is_caught_by_load() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 19);
    let bytes = genuine_snapshot(&g);
    let snap = Snapshot::from_bytes(&bytes).expect("genuine");

    // Trailing garbage appended after a valid image.
    let path = scratch_path("trailing");
    snap.save(&path).expect("save");
    let mut on_disk = std::fs::read(&path).expect("read");
    on_disk.extend_from_slice(b"garbage");
    std::fs::write(&path, &on_disk).expect("write");
    assert!(matches!(
        Snapshot::load(&path),
        Err(RecoveryError::Malformed(_))
    ));
    let _ = std::fs::remove_file(&path);

    // A torn file (half the image) fails closed.
    let path = scratch_path("torn");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
    assert!(Snapshot::load(&path).is_err());
    let _ = std::fs::remove_file(&path);

    // A missing file is a typed I/O error, not a panic.
    let path = scratch_path("missing");
    assert!(matches!(Snapshot::load(&path), Err(RecoveryError::Io(_))));
}
