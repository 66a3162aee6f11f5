//! Replication walkthrough: hot standby, failover, fencing.
//!
//! Runs the pupil workload on a logged primary while a replica tails
//! its WAL through the pull-based [`ReplicationSource`], then:
//!
//! 1. **hot standby** — the replica serves transaction-consistent reads
//!    while catching up, and reports its lag;
//! 2. **failover** — the primary dies mid-transaction; the replica is
//!    promoted, discarding the dangling transaction exactly like crash
//!    recovery would, and starts a higher replication term;
//! 3. **fencing** — the old primary comes back and tries to ship; its
//!    stale term is rejected, so the cluster cannot split-brain;
//! 4. **divergence** — a forged frame that disagrees with stored
//!    history is quarantined with a [`DivergenceReport`], never
//!    silently applied.
//!
//! ```sh
//! cargo run --example replicate
//! ```

use std::sync::Arc;

use fdb::core::{
    Database, DurabilityConfig, LogRecord, LoggedDatabase, SimDisk, SyncPolicy, WalStorage,
};
use fdb::repl::{ApplyOutcome, Batch, Replica, ReplicationSource, ShippedFrame};
use fdb::types::{Functionality, Value};

fn v(s: &str) -> Value {
    Value::atom(s)
}

/// Whether `teach` holds a live row for `who`.
fn teaches(db: &Database, who: &str) -> bool {
    let teach = db.resolve("teach").expect("teach is declared");
    db.store().table(teach).x_width(&v(who)) > 0
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        sync_policy: SyncPolicy::Always,
        checkpoint_every: None,
        segment_max_bytes: 64 * 1024,
    }
}

/// Ships everything the source has that the replica lacks.
fn catch_up(source: &mut ReplicationSource, replica: &mut Replica) -> ApplyOutcome {
    let mut last = ApplyOutcome::Applied {
        frames: 0,
        records: 0,
    };
    loop {
        let batch = source.poll(replica.next_seq(), 256).expect("poll");
        if batch.is_empty() {
            return last;
        }
        last = replica.apply_batch(&batch).expect("apply batch");
        match last {
            ApplyOutcome::Applied { .. } => {}
            _ => return last,
        }
    }
}

fn main() {
    // -- 1. hot standby ------------------------------------------------
    let pdisk = Arc::new(SimDisk::new());
    let mut primary =
        LoggedDatabase::create_with(pdisk.clone() as Arc<dyn WalStorage>, "/primary", config())
            .expect("create primary");
    primary
        .declare("teach", "faculty", "course", Functionality::ManyMany)
        .expect("declare teach");
    primary
        .declare("class_list", "course", "student", Functionality::ManyMany)
        .expect("declare class_list");
    primary
        .insert("teach", v("euclid"), v("geometry"))
        .expect("insert");
    primary
        .insert("class_list", v("geometry"), v("ptolemy"))
        .expect("insert");

    let mut source = ReplicationSource::for_primary(&primary);
    let rdisk = Arc::new(SimDisk::new());
    let mut replica =
        Replica::open(rdisk.clone() as Arc<dyn WalStorage>, "/replica").expect("open replica");
    catch_up(&mut source, &mut replica);
    println!("== replica status after catch-up ==");
    println!("{}", replica.status().render());
    let view = replica.consistent_view().expect("consistent view");
    assert_eq!(
        view.to_snapshot().unwrap(),
        primary.database().to_snapshot().unwrap(),
        "hot standby mirrors the primary"
    );

    // -- 2. failover ---------------------------------------------------
    // The primary opens a transaction, writes, and dies before COMMIT.
    primary.begin().expect("begin");
    primary
        .insert("teach", v("hypatia"), v("astronomy"))
        .expect("insert in txn");
    catch_up(&mut source, &mut replica); // the replica has the open txn frames
    drop(primary); // power cut

    let promotion = replica.promote().expect("promote");
    println!("\n== promotion ==");
    println!(
        "uncommitted records discarded: {}",
        promotion.report.uncommitted_discarded
    );
    let mut promoted = promotion.logged;
    assert!(promotion.report.uncommitted_discarded > 0);
    assert_eq!(promoted.term(), 2, "promotion starts a new term");
    assert!(
        !teaches(promoted.database(), "hypatia"),
        "the dangling transaction is gone, like crash recovery"
    );
    promoted
        .insert("teach", v("gauss"), v("algebra"))
        .expect("the promoted replica accepts writes");

    // -- 3. fencing ----------------------------------------------------
    // The old primary's machine comes back; a follower that now tracks
    // the promoted node refuses its stale term.
    pdisk.revive();
    let (zombie, _report) =
        LoggedDatabase::open_with(pdisk.clone() as Arc<dyn WalStorage>, "/primary", config())
            .expect("old primary restarts");
    let mut stale = ReplicationSource::for_primary(&zombie);
    let mut follower_src = ReplicationSource::for_primary(&promoted);
    let fdisk = Arc::new(SimDisk::new());
    let mut follower =
        Replica::open(fdisk as Arc<dyn WalStorage>, "/follower").expect("open follower");
    catch_up(&mut follower_src, &mut follower);
    assert_eq!(follower.term(), 2);
    let stale_batch = stale.poll(follower.next_seq(), 256).expect("stale poll");
    match follower.apply_batch(&stale_batch).expect("apply stale") {
        ApplyOutcome::Fenced {
            batch_term,
            replica_term,
        } => println!("\n== fencing ==\nold primary (term {batch_term}) rejected by follower on term {replica_term}"),
        other => panic!("stale primary must be fenced, got {other:?}"),
    }

    // -- 4. divergence -------------------------------------------------
    // A frame forged over an already-stored position: refused, reported,
    // quarantined — never silently applied.
    let forged = ShippedFrame::for_record(
        follower.next_seq() - 1,
        &LogRecord::Insert {
            function: "teach".into(),
            x: v("evil"),
            y: v("rewrite"),
        },
    )
    .expect("encode forged frame");
    let forged_batch = Batch {
        term: follower.term(),
        seed: None,
        source_last_seq: forged.seq,
        remaining_records: 0,
        remaining_bytes: 0,
        frames: vec![forged],
        trace_id: 0,
    };
    match follower.apply_batch(&forged_batch).expect("apply forged") {
        ApplyOutcome::Diverged(report) => {
            println!("\n== divergence ==\n{}", report.render());
        }
        other => panic!("forged history must diverge, got {other:?}"),
    }
    assert!(follower.status().diverged);
    assert!(follower.promote().is_err(), "a diverged replica stays down");

    // The promoted primary is unaffected throughout.
    assert!(teaches(promoted.database(), "gauss") && !teaches(promoted.database(), "evil"));
    println!("\nreplicate example: ok");
}
