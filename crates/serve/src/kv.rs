//! A memcached-style key-value service on the libOS surface.
//!
//! The store is sharded: each shard is one server task that *owns*
//! its `HashMap` (no shared state, no locks — the §3 discipline) and
//! drains its [`Port`] in `recv_many` bursts, answering a whole
//! burst through one [`ReplyBatch`] so reply wakes coalesce. Keys
//! hash to shards client-side; batch reads group by
//! shard and go out as one `call_batch` per shard (one server wake
//! per burst on real threads).
//!
//! Servers take a [`Priority`]: spawning shards `High` puts them ahead
//! of every ready `Normal` task (on real threads, through the pool's
//! high-priority lane), which is what keeps GET tail latency flat
//! while batch work floods the machine (see
//! `high_priority_is_not_starved_under_overload_on_both_backends` in
//! `tests/backend_equiv.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use chanos_rt::{
    self as rt, port_channel, Call, Capacity, Port, Priority, Receiver, ReplyBatch, ReplyTo,
};

/// Requests served by one KV shard.
pub enum KvReq {
    /// Look a key up; replies with the value if present.
    Get {
        key: u64,
        reply: ReplyTo<Option<Vec<u8>>>,
    },
    /// Insert or overwrite; replies `true` if the key existed.
    Set {
        key: u64,
        val: Vec<u8>,
        reply: ReplyTo<bool>,
    },
    /// Remove; replies `true` if the key existed.
    Del { key: u64, reply: ReplyTo<bool> },
}

/// Configuration for [`spawn_kv`].
#[derive(Debug, Clone)]
pub struct KvCfg {
    /// Number of shard server tasks (keys hash across them).
    pub shards: usize,
    /// Priority class the shard tasks are spawned with.
    pub priority: Priority,
}

impl Default for KvCfg {
    fn default() -> Self {
        KvCfg {
            shards: 4,
            priority: Priority::Normal,
        }
    }
}

/// Requests drained per shard wake; matches the depth at which reply
/// coalescing and channel burst drains pay off elsewhere in the repo.
const KV_BATCH: usize = 64;

/// Client handle to a sharded KV service; clone freely.
#[derive(Clone)]
pub struct KvClient {
    shards: Arc<[Port<KvReq>]>,
}

/// Spawns `cfg.shards` shard server tasks and returns the client.
/// Shards exit when every client clone (and outstanding call) is
/// dropped.
pub fn spawn_kv(cfg: KvCfg) -> KvClient {
    assert!(cfg.shards > 0);
    let mut ports = Vec::with_capacity(cfg.shards);
    for s in 0..cfg.shards {
        let (port, rx) = port_channel::<KvReq>(Capacity::Unbounded);
        rt::spawn_named_with_priority(&format!("kv-shard{s}"), cfg.priority, shard_loop(rx));
        ports.push(port);
    }
    KvClient {
        shards: ports.into(),
    }
}

async fn shard_loop(rx: Receiver<KvReq>) {
    let mut store: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut buf: Vec<KvReq> = Vec::with_capacity(KV_BATCH);
    let mut replies = ReplyBatch::default();
    loop {
        buf.clear();
        if rx.recv_many(&mut buf, KV_BATCH).await == 0 {
            return; // every client is gone
        }
        rt::stat_incr("serve.kv_bursts");
        let (mut gets, mut sets, mut dels) = (0u64, 0u64, 0u64);
        for req in buf.drain(..) {
            match req {
                KvReq::Get { key, reply } => {
                    gets += 1;
                    replies.send(reply, store.get(&key).cloned());
                }
                KvReq::Set { key, val, reply } => {
                    sets += 1;
                    replies.send(reply, store.insert(key, val).is_some());
                }
                KvReq::Del { key, reply } => {
                    dels += 1;
                    replies.send(reply, store.remove(&key).is_some());
                }
            }
        }
        replies.flush();
        rt::stat_add("serve.kv_gets", gets);
        rt::stat_add("serve.kv_sets", sets);
        rt::stat_add("serve.kv_dels", dels);
    }
}

impl KvClient {
    /// Number of shards behind this client.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard serves `key` (Fibonacci hash on the key bits).
    pub fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
    }

    /// Issues a GET; hold the [`Call`] to pipeline.
    pub fn get(&self, key: u64) -> Call<Option<Vec<u8>>> {
        self.shards[self.shard_of(key)].call(move |reply| KvReq::Get { key, reply })
    }

    /// Issues a SET; resolves `true` if the key was overwritten.
    pub fn set(&self, key: u64, val: Vec<u8>) -> Call<bool> {
        self.shards[self.shard_of(key)].call(move |reply| KvReq::Set { key, val, reply })
    }

    /// Issues a DEL; resolves `true` if the key existed.
    pub fn del(&self, key: u64) -> Call<bool> {
        self.shards[self.shard_of(key)].call(move |reply| KvReq::Del { key, reply })
    }

    /// Issues a batch of GETs grouped by shard — one `call_batch`
    /// (one server wake) per shard touched. Calls come back in the
    /// order of `keys`.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Call<Option<Vec<u8>>>> {
        let mut by_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.shards.len()];
        for (i, &k) in keys.iter().enumerate() {
            by_shard[self.shard_of(k)].push((i, k));
        }
        let mut out: Vec<Option<Call<Option<Vec<u8>>>>> = keys.iter().map(|_| None).collect();
        for (s, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let calls = self.shards[s].call_batch(
                group
                    .iter()
                    .map(|&(_, key)| move |reply| KvReq::Get { key, reply }),
            );
            for ((i, _), call) in group.into_iter().zip(calls) {
                out[i] = Some(call);
            }
        }
        out.into_iter()
            .map(|c| c.expect("every key was grouped into a shard"))
            .collect()
    }

    /// Issues a batch of SETs grouped by shard, like [`get_many`].
    ///
    /// [`get_many`]: KvClient::get_many
    pub fn set_many(&self, pairs: Vec<(u64, Vec<u8>)>) -> Vec<Call<bool>> {
        let mut by_shard: Vec<Vec<(usize, u64, Vec<u8>)>> = vec![Vec::new(); self.shards.len()];
        let n = pairs.len();
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            by_shard[self.shard_of(k)].push((i, k, v));
        }
        let mut out: Vec<Option<Call<bool>>> = (0..n).map(|_| None).collect();
        for (s, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut idxs = Vec::with_capacity(group.len());
            let calls = self.shards[s].call_batch(group.into_iter().map(|(i, key, val)| {
                idxs.push(i);
                move |reply| KvReq::Set { key, val, reply }
            }));
            for (i, call) in idxs.into_iter().zip(calls) {
                out[i] = Some(call);
            }
        }
        out.into_iter()
            .map(|c| c.expect("every pair was grouped into a shard"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chanos_sim::{Config, Simulation};

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn request_layout_is_pinned() {
        // The simulator charges a message `size_of::<T>()` bytes: a failure
        // here means every modeled number is about to move.
        assert_eq!(std::mem::size_of::<KvReq>(), 56);
    }

    fn sim() -> Simulation {
        Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        })
    }

    #[test]
    fn get_set_del_roundtrip_on_sim() {
        let got = sim()
            .block_on(async {
                let kv = spawn_kv(KvCfg::default());
                assert!(!kv.set(7, b"seven".to_vec()).await.unwrap());
                assert!(kv.set(7, b"SEVEN".to_vec()).await.unwrap());
                let v = kv.get(7).await.unwrap();
                assert!(kv.del(7).await.unwrap());
                assert_eq!(kv.get(7).await.unwrap(), None);
                v
            })
            .unwrap();
        assert_eq!(got, Some(b"SEVEN".to_vec()));
    }

    #[test]
    fn batched_ops_preserve_key_order() {
        sim()
            .block_on(async {
                let kv = spawn_kv(KvCfg {
                    shards: 3,
                    ..KvCfg::default()
                });
                let pairs: Vec<(u64, Vec<u8>)> =
                    (0..64u64).map(|k| (k, vec![k as u8; 8])).collect();
                for c in kv.set_many(pairs) {
                    assert!(!c.await.unwrap());
                }
                let keys: Vec<u64> = (0..64u64).rev().collect();
                let calls = kv.get_many(&keys);
                for (k, c) in keys.iter().zip(calls) {
                    assert_eq!(c.await.unwrap(), Some(vec![*k as u8; 8]));
                }
            })
            .unwrap();
    }

    #[test]
    fn works_on_real_threads_with_high_priority_shards() {
        let rt = chanos_parchan::Runtime::new(2);
        rt.block_on(async {
            let kv = spawn_kv(KvCfg {
                shards: 2,
                priority: Priority::High,
            });
            let calls = kv.set_many((0..32u64).map(|k| (k, vec![1u8; 4])).collect());
            for c in calls {
                c.await.unwrap();
            }
            for (k, c) in (0..32u64).zip(kv.get_many(&(0..32).collect::<Vec<_>>())) {
                assert_eq!(c.await.unwrap(), Some(vec![1u8; 4]), "key {k}");
            }
        });
        rt.shutdown();
    }
}
