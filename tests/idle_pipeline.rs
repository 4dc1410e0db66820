//! An executor whose tasks sleep costs next to no CPU: the coordinator
//! and idle workers spin only briefly on an empty pipe, then park. An
//! unbounded spin would show here as one busy core for the whole run.
//!
//! Process CPU time comes from `/proc/self/stat`, so this test has a file
//! of its own: no other test may run in the process while it measures.

#![cfg(target_os = "linux")]

use datalog_sched::dag::{DagBuilder, NodeId};
use datalog_sched::runtime::{Executor, TaskFn};
use datalog_sched::sched::LevelBased;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// User plus system CPU time of the whole process, dead threads included.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm is parenthesised") + 2..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    // USER_HZ is 100 on every Linux architecture this builds for.
    Duration::from_millis(ticks * 10)
}

#[test]
fn an_idle_pipeline_burns_no_cpu() {
    // Four independent tasks, all dirty, each sleeping 50 ms: two workers
    // run two each, so an update is ≈ 100 ms of waiting on every thread.
    let dag = Arc::new(DagBuilder::new(4).build().unwrap());
    let initial: Vec<NodeId> = dag.nodes().collect();
    let nap: TaskFn =
        Arc::new(|_, _: &mut Vec<NodeId>| std::thread::sleep(Duration::from_millis(50)));
    let updates = vec![initial; 3];
    let mut s = LevelBased::new(dag.clone());

    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let report = Executor::new(2)
        .run_stream(&mut s, &dag, &updates, nap)
        .expect("run succeeds");
    let wall = t0.elapsed();
    let cpu = process_cpu() - cpu0;

    assert_eq!(report.executed, 12);
    assert!(
        cpu.as_secs_f64() < 0.25 * wall.as_secs_f64(),
        "{cpu:?} of CPU over {wall:?} of wall: a waiting thread spins instead of parking"
    );
}
