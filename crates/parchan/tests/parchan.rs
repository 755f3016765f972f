//! Real-thread runtime tests: scheduling, channels, select, panics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chanos_parchan::{after, channel, choose, Capacity, RecvError, Runtime, SendError};

#[test]
fn spawn_and_join() {
    let rt = Runtime::new(2);
    let h = rt.spawn(async { 6 * 7 });
    assert_eq!(h.join_blocking().unwrap(), 42);
    rt.shutdown();
}

#[test]
fn block_on_drives_future() {
    let rt = Runtime::new(2);
    let out = rt.block_on(async { "done" });
    assert_eq!(out, "done");
    rt.shutdown();
}

#[test]
fn many_tasks_all_run() {
    let rt = Runtime::new(4);
    let counter = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..500)
        .map(|_| {
            let c = counter.clone();
            rt.spawn(async move {
                c.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join_blocking().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 500);
    rt.shutdown();
}

#[test]
fn panic_is_reported_not_fatal() {
    let rt = Runtime::new(2);
    let bad = rt.spawn(async {
        panic!("deliberate");
    });
    let good = rt.spawn(async { 1 });
    let err = bad.join_blocking().unwrap_err();
    assert!(err.0.contains("deliberate"));
    assert_eq!(good.join_blocking().unwrap(), 1);
    rt.shutdown();
}

#[test]
fn unbounded_fifo_single_consumer() {
    let rt = Runtime::new(4);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    let consumer = rt.spawn(async move {
        let mut got = Vec::new();
        while let Ok(v) = rx.recv().await {
            got.push(v);
        }
        got
    });
    rt.block_on(async move {
        for i in 0..1000 {
            tx.send(i).await.unwrap();
        }
    });
    let got = consumer.join_blocking().unwrap();
    assert_eq!(got, (0..1000).collect::<Vec<_>>());
    rt.shutdown();
}

#[test]
fn mpmc_no_loss_no_duplication() {
    let rt = Runtime::new(4);
    let (tx, rx) = channel::<u64>(Capacity::Bounded(64));
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let rx = rx.clone();
            rt.spawn(async move {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv().await {
                    got.push(v);
                }
                got
            })
        })
        .collect();
    drop(rx);
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let tx = tx.clone();
            rt.spawn(async move {
                for i in 0..250 {
                    tx.send(p * 1000 + i).await.unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join_blocking().unwrap();
    }
    let mut all: Vec<u64> = Vec::new();
    for c in consumers {
        all.extend(c.join_blocking().unwrap());
    }
    all.sort_unstable();
    let mut expect: Vec<u64> = (0..4u64)
        .flat_map(|p| (0..250).map(move |i| p * 1000 + i))
        .collect();
    expect.sort_unstable();
    assert_eq!(all, expect);
    rt.shutdown();
}

#[test]
fn rendezvous_blocks_until_receiver() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u32>(Capacity::Rendezvous);
    let flag = Arc::new(AtomicU64::new(0));
    let f2 = flag.clone();
    let sender = rt.spawn(async move {
        tx.send(9).await.unwrap();
        f2.store(1, Ordering::SeqCst);
    });
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(flag.load(Ordering::SeqCst), 0, "send must still be parked");
    let got = rt.block_on(async move { rx.recv().await.unwrap() });
    assert_eq!(got, 9);
    sender.join_blocking().unwrap();
    assert_eq!(flag.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn bounded_applies_backpressure() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u32>(Capacity::Bounded(2));
    assert!(tx.try_send(1).is_ok());
    assert!(tx.try_send(2).is_ok());
    assert!(tx.try_send(3).is_err(), "third must not fit");
    assert_eq!(rt.block_on(async { rx.recv().await }).unwrap(), 1);
    assert!(tx.try_send(3).is_ok(), "space freed");
    rt.shutdown();
}

#[test]
fn close_semantics() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    rt.block_on(async {
        tx.send(5).await.unwrap();
        tx.close();
        assert_eq!(rx.recv().await, Ok(5));
        assert_eq!(rx.recv().await, Err(RecvError::Closed));
    });
    rt.shutdown();
}

#[test]
fn send_to_dropped_receivers_returns_value() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<String>(Capacity::Unbounded);
    drop(rx);
    let got = rt.block_on(async move { tx.send("boomerang".to_string()).await });
    assert_eq!(got, Err(SendError::Closed("boomerang".to_string())));
    rt.shutdown();
}

#[test]
fn choose_over_two_channels() {
    let rt = Runtime::new(2);
    let (tx1, rx1) = channel::<u32>(Capacity::Unbounded);
    let (_tx2, rx2) = channel::<u32>(Capacity::Unbounded);
    let got = rt.block_on(async move {
        tx1.send(7).await.unwrap();
        choose! {
            v = rx1.recv() => v.unwrap(),
            v = rx2.recv() => v.unwrap() + 100,
        }
    });
    assert_eq!(got, 7);
    rt.shutdown();
}

#[test]
fn choose_timeout_fires() {
    let rt = Runtime::new(2);
    let (_tx, rx) = channel::<u32>(Capacity::Unbounded);
    let got = rt.block_on(async move {
        choose! {
            _ = rx.recv() => "data",
            _ = after(Duration::from_millis(30)) => "timeout",
        }
    });
    assert_eq!(got, "timeout");
    rt.shutdown();
}

#[test]
fn async_join_from_task() {
    let rt = Runtime::new(2);
    let out = rt.block_on(async {
        let h = rt.spawn(async { 5 });
        h.join().await.unwrap()
    });
    assert_eq!(out, 5);
    rt.shutdown();
}

#[test]
fn ping_pong_rpc_pattern() {
    let rt = Runtime::new(4);
    let (req_tx, req_rx) = channel::<(u32, chanos_parchan::Sender<u32>)>(Capacity::Unbounded);
    let server = rt.spawn(async move {
        while let Ok((x, reply)) = req_rx.recv().await {
            let _ = reply.send(x * 2).await;
        }
    });
    let got = rt.block_on(async move {
        let mut results = Vec::new();
        for i in 0..50 {
            let (rtx, rrx) = channel::<u32>(Capacity::Bounded(1));
            req_tx.send((i, rtx)).await.unwrap();
            results.push(rrx.recv().await.unwrap());
        }
        results
    });
    assert_eq!(got, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    drop(server);
    rt.shutdown();
}
