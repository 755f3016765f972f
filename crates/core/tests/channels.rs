//! Integration tests for the channel model: ordering, timing against
//! the cost model, rendezvous semantics, backpressure, close, choice,
//! and the RPC pattern.

use chanos_csp::noc::{Bus, CostModel, Interconnect};
use chanos_csp::{
    after, channel, choose, install_with, request, ticker, Capacity, CspConfig, RecvError,
    SendError, TryRecvError, TrySendError,
};
use chanos_sim::{sleep, spawn, spawn_on, Config, CoreId, Simulation};
use std::future::Future;

const SEND_OVH: u64 = 10;
const RECV_OVH: u64 = 10;
const INJECTION: u64 = 30;
const PER_HOP: u64 = 4;
const PER_BYTE: u64 = 1;
const LOCAL: u64 = 20;
const ACK_BYTES: usize = 8;

/// A simulation with zero context-switch cost and a bus interconnect
/// with known constants, so latencies are exactly computable.
fn timed_sim(cores: usize) -> Simulation {
    let sim = Simulation::with_config(Config {
        cores,
        ctx_switch: 0,
        ..Config::default()
    });
    install_with(
        &sim,
        Interconnect::new(
            Bus::new(cores),
            CostModel {
                local: LOCAL,
                injection: INJECTION,
                per_hop: PER_HOP,
                per_byte: PER_BYTE,
                device_hops: 4,
            },
        ),
        CspConfig {
            send_overhead: SEND_OVH,
            recv_overhead: RECV_OVH,
            ack_bytes: ACK_BYTES,
        },
    );
    sim
}

fn remote_latency(bytes: u64) -> u64 {
    SEND_OVH + INJECTION + PER_HOP + PER_BYTE * bytes + RECV_OVH
}

fn local_latency(bytes: u64) -> u64 {
    SEND_OVH + LOCAL + PER_BYTE * bytes + RECV_OVH
}

#[test]
fn unbounded_fifo_order() {
    let mut sim = timed_sim(2);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            spawn(async move {
                for i in 0..100 {
                    tx.send(i).await.unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv().await.unwrap());
            }
            got
        })
        .unwrap();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
}

#[test]
fn unbounded_send_never_blocks() {
    let mut sim = timed_sim(1);
    let n = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            for i in 0..1000 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            let mut n = 0;
            while rx.recv().await.is_ok() {
                n += 1;
            }
            n
        })
        .unwrap();
    assert_eq!(n, 1000);
}

#[test]
fn remote_latency_matches_cost_model() {
    let mut sim = timed_sim(2);
    let (sent_at, got_at) = sim
        .block_on(async {
            let (tx, rx) = channel::<u64>(Capacity::Unbounded);
            let recv = spawn_on(CoreId(1), async move {
                rx.recv().await.unwrap();
                chanos_sim::now()
            });
            let sent_at = chanos_sim::now();
            tx.send(7).await.unwrap();
            let got_at = recv.join().await.unwrap();
            (sent_at, got_at)
        })
        .unwrap();
    assert_eq!(got_at - sent_at, remote_latency(8));
}

#[test]
fn local_send_cheaper_than_remote() {
    let mut sim = timed_sim(2);
    let (local_t, remote_t) = sim
        .block_on(async {
            // Local pair on core 0.
            let (tx, rx) = channel::<u64>(Capacity::Unbounded);
            let t0 = chanos_sim::now();
            tx.send(1).await.unwrap();
            let h = spawn_on(CoreId(0), async move {
                rx.recv().await.unwrap();
                chanos_sim::now()
            });
            let local_t = h.join().await.unwrap() - t0;

            // Remote pair core0 -> core1.
            let (tx, rx) = channel::<u64>(Capacity::Unbounded);
            let t1 = chanos_sim::now();
            tx.send(1).await.unwrap();
            let h = spawn_on(CoreId(1), async move {
                rx.recv().await.unwrap();
                chanos_sim::now()
            });
            let remote_t = h.join().await.unwrap() - t1;
            (local_t, remote_t)
        })
        .unwrap();
    assert_eq!(local_t, local_latency(8));
    assert_eq!(remote_t, remote_latency(8));
    assert!(local_t < remote_t);
}

#[test]
fn rendezvous_sender_waits_for_receiver() {
    let mut sim = timed_sim(2);
    let (send_done, recv_started) = sim
        .block_on(async {
            let (tx, rx) = channel::<u8>(Capacity::Rendezvous);
            let sender = spawn_on(CoreId(0), async move {
                tx.send(1).await.unwrap();
                chanos_sim::now()
            });
            // The receiver shows up late.
            let receiver = spawn_on(CoreId(1), async move {
                sleep(10_000).await;
                let start = chanos_sim::now();
                rx.recv().await.unwrap();
                start
            });
            let send_done = sender.join().await.unwrap();
            let recv_started = receiver.join().await.unwrap();
            (send_done, recv_started)
        })
        .unwrap();
    assert!(
        send_done > recv_started,
        "rendezvous send ({send_done}) must complete only after the receiver arrived \
         ({recv_started})"
    );
    // Pairing happens when the receiver arrives; the sender then waits
    // for delivery plus the ack flight.
    assert_eq!(
        send_done - recv_started,
        remote_latency(1) + INJECTION + PER_HOP + PER_BYTE * ACK_BYTES as u64
    );
}

#[test]
fn rendezvous_receiver_gets_value_at_transit_time() {
    let mut sim = timed_sim(2);
    let delta = sim
        .block_on(async {
            let (tx, rx) = channel::<u8>(Capacity::Rendezvous);
            // Receiver waits first.
            let receiver = spawn_on(CoreId(1), async move {
                rx.recv().await.unwrap();
                chanos_sim::now()
            });
            sleep(100).await;
            let t0 = chanos_sim::now();
            tx.send(9).await.unwrap();
            receiver.join().await.unwrap() - t0
        })
        .unwrap();
    assert_eq!(delta, remote_latency(1));
}

#[test]
fn bounded_backpressure_blocks_sender() {
    let mut sim = timed_sim(1);
    let events = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Bounded(2));
            let events = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let ev = events.clone();
            let sender = spawn(async move {
                for i in 0..4 {
                    tx.send(i).await.unwrap();
                    ev.borrow_mut()
                        .push(format!("sent{i}@{}", chanos_sim::now()));
                }
            });
            // Drain slowly: the 3rd and 4th sends must wait for pops.
            sleep(5_000).await;
            let ev2 = events.clone();
            for _ in 0..4 {
                let v = rx.recv().await.unwrap();
                ev2.borrow_mut()
                    .push(format!("got{v}@{}", chanos_sim::now()));
            }
            sender.join().await.unwrap();
            let out = events.borrow().clone();
            out
        })
        .unwrap();
    // First two sends complete immediately (buffer depth 2); the
    // third only after the first receive.
    let idx = |needle: &str| {
        events
            .iter()
            .position(|e| e.starts_with(needle))
            .unwrap_or_else(|| panic!("missing {needle} in {events:?}"))
    };
    assert!(idx("sent0") < idx("got0"));
    assert!(idx("sent1") < idx("got0"));
    assert!(idx("got0") < idx("sent2"), "events: {events:?}");
    assert!(idx("got1") < idx("sent3"), "events: {events:?}");
}

#[test]
fn close_wakes_blocked_receiver() {
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<u8>(Capacity::Unbounded);
            let h = spawn(async move { rx.recv().await });
            sleep(100).await;
            tx.close();
            h.join().await.unwrap()
        })
        .unwrap();
    assert_eq!(got, Err(RecvError::Closed));
}

#[test]
fn dropping_all_senders_closes_after_drain() {
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<u8>(Capacity::Unbounded);
            tx.send(1).await.unwrap();
            tx.send(2).await.unwrap();
            drop(tx);
            let a = rx.recv().await;
            let b = rx.recv().await;
            let c = rx.recv().await;
            (a, b, c)
        })
        .unwrap();
    assert_eq!(got, (Ok(1), Ok(2), Err(RecvError::Closed)));
}

#[test]
fn dropping_all_receivers_fails_send_with_value() {
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<String>(Capacity::Unbounded);
            drop(rx);
            tx.send("hello".to_string()).await
        })
        .unwrap();
    assert_eq!(got, Err(SendError::Closed("hello".to_string())));
}

#[test]
fn blocked_rendezvous_sender_reclaims_value_on_close() {
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<String>(Capacity::Rendezvous);
            let h = spawn(async move { tx.send("precious".to_string()).await });
            sleep(100).await;
            drop(rx);
            h.join().await.unwrap()
        })
        .unwrap();
    assert_eq!(got, Err(SendError::Closed("precious".to_string())));
}

#[test]
fn mpmc_processes_every_message_once() {
    let mut sim = timed_sim(8);
    let mut results = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            let workers: Vec<_> = (0..4)
                .map(|w| {
                    let rx = rx.clone();
                    spawn_on(CoreId(w), async move {
                        let mut seen = Vec::new();
                        while let Ok(v) = rx.recv().await {
                            seen.push(v);
                        }
                        seen
                    })
                })
                .collect();
            drop(rx);
            for i in 0..200 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            let mut all = Vec::new();
            for w in workers {
                all.extend(w.join().await.unwrap());
            }
            all
        })
        .unwrap();
    results.sort_unstable();
    assert_eq!(results, (0..200).collect::<Vec<_>>());
}

#[test]
fn choose_takes_from_ready_channel() {
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (tx1, rx1) = channel::<u32>(Capacity::Unbounded);
            let (_tx2, rx2) = channel::<u32>(Capacity::Unbounded);
            tx1.send(11).await.unwrap();
            sleep(local_latency(4) + 1).await;
            choose! {
                v = rx1.recv() => v.unwrap(),
                v = rx2.recv() => v.unwrap() + 1000,
            }
        })
        .unwrap();
    assert_eq!(got, 11);
}

#[test]
fn choose_consumes_exactly_one_message() {
    let mut sim = timed_sim(1);
    let (len1, len2) = sim
        .block_on(async {
            let (tx1, rx1) = channel::<u32>(Capacity::Unbounded);
            let (tx2, rx2) = channel::<u32>(Capacity::Unbounded);
            tx1.send(1).await.unwrap();
            tx2.send(2).await.unwrap();
            sleep(local_latency(4) + 1).await;
            // Both ready: exactly one arm must fire and consume.
            choose! {
                _ = rx1.recv() => (),
                _ = rx2.recv() => (),
            }
            (rx1.len() + usize::from(rx1.try_recv().is_ok()), rx2.len())
        })
        .unwrap();
    // One of the two channels still holds its message.
    assert_eq!(len1 + len2, 1, "exactly one message must remain");
}

#[test]
fn choose_timeout_fires_on_empty_channels() {
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (_tx, rx) = channel::<u32>(Capacity::Unbounded);
            choose! {
                _ = rx.recv() => "message",
                _ = after(500) => "timeout",
            }
        })
        .unwrap();
    assert_eq!(got, "timeout");
}

#[test]
fn rpc_round_trip() {
    let mut sim = timed_sim(4);
    let got = sim
        .block_on(async {
            enum Req {
                Double(u32, chanos_csp::ReplyTo<u32>),
            }
            let (tx, rx) = channel::<Req>(Capacity::Unbounded);
            chanos_sim::spawn_daemon_on("server", CoreId(3), async move {
                while let Ok(Req::Double(x, reply)) = rx.recv().await {
                    let _ = reply.send(x * 2).await;
                }
            });
            request(&tx, |r| Req::Double(21, r)).await.unwrap()
        })
        .unwrap();
    assert_eq!(got, 42);
}

#[test]
fn channels_travel_through_channels() {
    let mut sim = timed_sim(2);
    let got = sim
        .block_on(async {
            // Plumb a connection: send the data channel's sender
            // through a control channel, then use it directly (§3).
            let (ctl_tx, ctl_rx) = channel::<chanos_csp::Sender<u64>>(Capacity::Unbounded);
            let (data_tx, data_rx) = channel::<u64>(Capacity::Unbounded);
            spawn_on(CoreId(1), async move {
                let tx = ctl_rx.recv().await.unwrap();
                tx.send(99).await.unwrap();
            });
            ctl_tx.send(data_tx).await.unwrap();
            data_rx.recv().await.unwrap()
        })
        .unwrap();
    assert_eq!(got, 99);
}

#[test]
fn try_send_and_try_recv() {
    let mut sim = timed_sim(1);
    sim.block_on(async {
        let (tx, rx) = channel::<u32>(Capacity::Bounded(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        // The message is in flight until its transit completes.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        sleep(local_latency(4) + 1).await;
        assert_eq!(rx.try_recv(), Ok(1));
        tx.close();
        assert_eq!(tx.try_send(3), Err(TrySendError::Closed(3)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
    })
    .unwrap();
}

#[test]
fn rendezvous_try_send_needs_waiting_receiver() {
    let mut sim = timed_sim(2);
    sim.block_on(async {
        let (tx, rx) = channel::<u32>(Capacity::Rendezvous);
        assert_eq!(tx.try_send(1), Err(TrySendError::Full(1)));
        let h = spawn_on(CoreId(1), async move { rx.recv().await.unwrap() });
        sleep(1_000).await;
        assert_eq!(tx.try_send(5), Ok(()));
        assert_eq!(h.join().await.unwrap(), 5);
    })
    .unwrap();
}

#[test]
fn ticker_delivers_periodic_ticks() {
    let mut sim = timed_sim(1);
    let times = sim
        .block_on(async {
            let rx = ticker(1_000);
            let mut times = Vec::new();
            for _ in 0..3 {
                rx.recv().await.unwrap();
                times.push(chanos_sim::now());
            }
            times
        })
        .unwrap();
    assert_eq!(times.len(), 3);
    // Ticks arrive about one period apart (plus delivery latency).
    assert!(times[1] - times[0] >= 900 && times[1] - times[0] <= 1_100);
    assert!(times[2] - times[1] >= 900 && times[2] - times[1] <= 1_100);
}

#[test]
fn killed_receiver_does_not_strand_channel() {
    let mut sim = timed_sim(2);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            let victim = {
                let rx = rx.clone();
                spawn(async move { rx.recv().await })
            };
            sleep(100).await;
            victim.abort();
            tx.send(7).await.unwrap();
            rx.recv().await.unwrap()
        })
        .unwrap();
    assert_eq!(got, 7);
}

#[test]
fn stats_count_messages_and_hops() {
    let mut sim = timed_sim(2);
    sim.block_on(async {
        let (tx, rx) = channel::<u64>(Capacity::Unbounded);
        let h = spawn_on(CoreId(1), async move {
            for _ in 0..10 {
                rx.recv().await.unwrap();
            }
        });
        for i in 0..10 {
            tx.send(i).await.unwrap();
        }
        h.join().await.unwrap();
    })
    .unwrap();
    let stats = sim.stats();
    assert_eq!(stats.counter("csp.sends"), 10);
    assert_eq!(stats.counter("csp.recvs"), 10);
    assert_eq!(stats.counter("csp.sends_remote"), 10);
    assert_eq!(stats.counter("csp.hops"), 10); // Bus: 1 hop each.
}

#[test]
fn two_frees_wake_two_parked_senders() {
    // `Bounded(2)`, full, with senders A and B parked on it. Two
    // receives free both slots before either woken sender runs: each
    // freed slot must wake a different sender, or B sleeps forever
    // beside an empty slot.
    let mut sim = timed_sim(1);
    let len = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Bounded(2));
            tx.try_send(0).unwrap();
            tx.try_send(1).unwrap();
            let a = {
                let tx = tx.clone();
                spawn(async move { tx.send(2).await.unwrap() })
            };
            sleep(1_000).await;
            let b = {
                let tx = tx.clone();
                spawn(async move { tx.send(3).await.unwrap() })
            };
            sleep(1_000).await;
            assert_eq!(rx.try_recv(), Ok(0));
            assert_eq!(rx.try_recv(), Ok(1));
            a.join().await.unwrap();
            b.join().await.unwrap();
            rx.len()
        })
        .unwrap();
    assert_eq!(len, 2);
}

#[test]
fn a_woken_sender_dropped_unpolled_passes_its_wake_on() {
    // `Bounded(1)`, full. A's send parks, then B's. A receive frees the
    // slot, which wakes A; A drops its send without polling it again
    // (a `choose!` arm that lost), so the wake must pass to B.
    let mut sim = timed_sim(1);
    let got = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Bounded(1));
            tx.try_send(0).unwrap();
            let a = {
                let tx = tx.clone();
                spawn(async move {
                    let mut send = tx.send(1);
                    let parked = std::future::poll_fn(|cx| {
                        let poll = Future::poll(std::pin::Pin::new(&mut send), cx);
                        std::task::Poll::Ready(poll.is_pending())
                    })
                    .await;
                    assert!(parked, "the channel is full");
                    // The receive below wakes this send meanwhile.
                    sleep(3_000).await;
                })
            };
            sleep(1_000).await;
            let b = spawn(async move { tx.send(2).await.unwrap() });
            sleep(1_000).await;
            assert_eq!(rx.try_recv(), Ok(0));
            a.join().await.unwrap();
            b.join().await.unwrap();
            rx.recv().await
        })
        .unwrap();
    assert_eq!(got, Ok(2));
}

#[test]
fn two_parked_receivers_each_get_one_of_two_messages() {
    // Two receivers park on an empty channel, then two messages are
    // sent while the sender stays open. The receiver taking the first
    // message must leave the list before the second's arrival is
    // announced: announced to itself, the wake is spent and the other
    // receiver sleeps forever beside a queued message.
    let mut sim = timed_sim(2);
    let mut got = sim
        .block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            let a = {
                let rx = rx.clone();
                spawn(async move { rx.recv().await.unwrap() })
            };
            let b = spawn(async move { rx.recv().await.unwrap() });
            sleep(1_000).await;
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            let got = vec![a.join().await.unwrap(), b.join().await.unwrap()];
            drop(tx);
            got
        })
        .unwrap();
    got.sort_unstable();
    assert_eq!(got, [1, 2]);
}

#[test]
fn a_reply_dispatches_its_caller_once_when_it_lands() {
    // §3's RPC: the server's reply send drops the reply channel's last
    // sender while the reply is in flight. The caller, parked on the
    // reply, already has the reply's arrival wake, so the drop must not
    // dispatch it early: it is dispatched once, when the reply lands,
    // and takes it one modeled transit after the send.
    use std::sync::{Arc, Mutex};
    enum Req {
        Double(u32, chanos_csp::ReplyTo<u32>),
    }
    for (server_core, transit) in [(0, local_latency(4)), (1, remote_latency(4))] {
        let mut sim = timed_sim(2);
        let (sent, taken) = sim
            .block_on(async move {
                let (tx, rx) = channel::<Req>(Capacity::Unbounded);
                let sent = Arc::new(Mutex::new(None));
                let at_send = sent.clone();
                chanos_sim::spawn_daemon_on("server", CoreId(server_core), async move {
                    while let Ok(Req::Double(x, reply)) = rx.recv().await {
                        let stamp = (chanos_sim::now(), chanos_sim::stat_get("sim.dispatches"));
                        *at_send.lock().unwrap() = Some(stamp);
                        let _ = reply.send(x * 2).await;
                    }
                });
                let caller = spawn_on(CoreId(0), async move {
                    assert_eq!(request(&tx, |r| Req::Double(21, r)).await, Some(42));
                    (chanos_sim::now(), chanos_sim::stat_get("sim.dispatches"))
                });
                let taken = caller.join().await.unwrap();
                let sent = sent.lock().unwrap().expect("the server replied");
                (sent, taken)
            })
            .unwrap();
        assert_eq!(
            taken.1 - sent.1,
            1,
            "server on core {server_core}: the caller was dispatched before its reply landed"
        );
        assert_eq!(taken.0, sent.0 + transit, "server on core {server_core}");
    }
}
