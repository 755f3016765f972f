//! Whole-system integration tests: everything from the channel
//! runtime to the booted OS, spanning all workspace crates.

use chanos::kernel::{boot, BootCfg, FsKind, KernelKind};
use chanos::noc::{CostModel, Interconnect, Mesh2D};
use chanos::sim::{Config, CoreId, RunEnd, Simulation};

fn machine(cores: usize) -> Simulation {
    Simulation::with_config(Config {
        cores,
        ctx_switch: 20,
        ..Config::default()
    })
}

#[test]
fn os_survives_a_day_in_the_life() {
    // Boot the full proposal (message kernel + message FS), run a mix
    // of processes doing real file work, verify every byte.
    let mut m = machine(12);
    let total = m
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                (0..4).map(CoreId).collect(),
            ))
            .await;
            let (_pid, mkdirs) = os.procs.spawn_process(CoreId(4), |env| async move {
                env.mkdir("/tmp").await.unwrap();
                env.mkdir("/var").await.unwrap();
                env.mkdir("/var/log").await.unwrap();
            });
            mkdirs.join().await.unwrap();

            let mut handles = Vec::new();
            for p in 0..8u32 {
                let core = CoreId(4 + (p % 8));
                let (_pid, h) = os.procs.spawn_process(core, move |env| async move {
                    let log = format!("/var/log/proc{p}.log");
                    let fd = env.create(&log).await.unwrap();
                    let mut written = 0usize;
                    for line in 0..20 {
                        let msg = format!("proc {p} line {line}: all is well\n");
                        written += env.write(fd, msg.as_bytes()).await.unwrap();
                    }
                    env.close(fd).await.unwrap();
                    // Read it back and sanity-check.
                    let fd = env.open(&log).await.unwrap();
                    let data = env.read(fd, written + 10).await.unwrap();
                    assert_eq!(data.len(), written);
                    assert!(data.starts_with(format!("proc {p} line 0").as_bytes()));
                    env.close(fd).await.unwrap();
                    written
                });
                handles.push(h);
            }
            let mut total = 0usize;
            for h in handles {
                total += h.join().await.unwrap();
            }
            // The directory listing sees all logs.
            let (_pid, ls) = os.procs.spawn_process(CoreId(4), |env| async move {
                env.readdir("/var/log").await.unwrap().len()
            });
            assert_eq!(ls.join().await.unwrap(), 8);
            total
        })
        .unwrap();
    assert!(total > 0);
    // The whole run used the message fabric: syscalls and vnode
    // threads exist; nothing deadlocked. One vnode per file: the root,
    // three directories and eight logs.
    let st = m.stats();
    assert!(st.counter("kernel.syscalls") >= 8 * 23);
    assert_eq!(st.counter("msgfs.vnode_threads_spawned"), 12);
}

#[test]
fn trap_and_message_kernels_agree_observably() {
    // The same program must produce identical observable results on
    // both kernel architectures (§4: only performance differs).
    let run = |kind: KernelKind| -> Vec<u8> {
        let mut m = machine(8);
        m.block_on(async move {
            let os = boot(BootCfg::new(
                kind,
                FsKind::Sharded,
                (0..2).map(CoreId).collect(),
            ))
            .await;
            let (_pid, h) = os.procs.spawn_process(CoreId(3), |env| async move {
                let fd = env.create("/data").await.unwrap();
                env.write(fd, b"abcdef").await.unwrap();
                env.close(fd).await.unwrap();
                let fd = env.open("/data").await.unwrap();
                let a = env.read(fd, 3).await.unwrap();
                let b = env.read(fd, 3).await.unwrap();
                [a, b].concat()
            });
            h.join().await.unwrap()
        })
        .unwrap()
    };
    assert_eq!(run(KernelKind::Trap), run(KernelKind::Message));
}

#[test]
fn same_seed_reproduces_the_same_os_run_exactly() {
    let run = |seed: u64| {
        let mut m = Simulation::with_config(Config {
            cores: 8,
            ctx_switch: 20,
            seed,
        });
        m.block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                (0..3).map(CoreId).collect(),
            ))
            .await;
            let (_pid, h) = os.procs.spawn_process(CoreId(4), |env| async move {
                let fd = env.create("/f").await.unwrap();
                for i in 0..10u8 {
                    env.write(fd, &[i; 100]).await.unwrap();
                }
            });
            h.join().await.unwrap();
        })
        .unwrap();
        (m.now(), m.trace_hash())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must give identical time AND trace");
}

#[test]
fn interconnect_choice_changes_costs_not_results() {
    let run = |ic: Interconnect| {
        let mut m = machine(16);
        chanos::csp::install(&m, ic);
        let data = m
            .block_on(async {
                let os = boot(BootCfg::new(
                    KernelKind::Message,
                    FsKind::Message,
                    (0..4).map(CoreId).collect(),
                ))
                .await;
                let (_pid, h) = os.procs.spawn_process(CoreId(8), |env| async move {
                    let fd = env.create("/x").await.unwrap();
                    env.write(fd, b"topology-independent").await.unwrap();
                    env.close(fd).await.unwrap();
                    let fd = env.open("/x").await.unwrap();
                    env.read(fd, 64).await.unwrap()
                });
                h.join().await.unwrap()
            })
            .unwrap();
        (data, m.now())
    };
    let (d1, t_mesh) = run(Interconnect::new(Mesh2D::new(4, 4), CostModel::default()));
    let slow = CostModel {
        per_hop: 40,
        injection: 300,
        ..CostModel::default()
    };
    let (d2, t_slow) = run(Interconnect::new(Mesh2D::new(4, 4), slow));
    assert_eq!(d1, d2, "results must not depend on the interconnect");
    assert!(
        t_slow > t_mesh,
        "a slower interconnect must cost virtual time ({t_slow} vs {t_mesh})"
    );
}

#[test]
fn heavy_mixed_load_terminates_cleanly() {
    // Stress: processes + drivers + FS + VM side by side.
    let mut m = machine(16);
    let out = {
        m.spawn_on(CoreId(0), async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                (0..4).map(CoreId).collect(),
            ))
            .await;
            // VM service alongside.
            let vm = chanos::vm::VmService::start(chanos::vm::VmCfg {
                granularity: chanos::vm::Granularity::PerSpace,
                fault_work: 200,
                frames: 4096,
                service_cores: vec![CoreId(1), CoreId(2)],
                thread_spawn_cost: 500,
            });
            let mut handles = Vec::new();
            for p in 0..6u32 {
                let (_pid, h) = os
                    .procs
                    .spawn_process(CoreId(4 + p % 12), move |env| async move {
                        let fd = env.create(&format!("/m{p}")).await.unwrap();
                        env.write(fd, &vec![p as u8; 4096]).await.unwrap();
                        env.close(fd).await.unwrap();
                    });
                handles.push(h);
            }
            let mut vm_handles = Vec::new();
            for sid in 0..4u64 {
                let space = vm.create_space(sid);
                vm_handles.push(chanos::sim::spawn_on(CoreId(8 + sid as u32), async move {
                    space
                        .map_region(0, 64 * chanos::vm::PAGE_SIZE)
                        .await
                        .unwrap();
                    for p in 0..32 {
                        space.touch(p * chanos::vm::PAGE_SIZE).await.unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().await.unwrap();
            }
            for h in vm_handles {
                h.join().await.unwrap();
            }
        });
        m.run_until_idle()
    };
    assert_eq!(out.end, RunEnd::Completed);
    let st = m.stats();
    assert!(st.counter("vm.faults") >= 128);
    assert!(st.counter("disk.writes") > 0);
}
