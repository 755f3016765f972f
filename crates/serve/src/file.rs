//! A static-file server over the block-device stack.
//!
//! There is no filesystem underneath: at spawn time each file is
//! written to the raw disk as one block-aligned extent, one after the
//! other from LBA 0, and `path → (lba, len)` stays in an in-memory
//! index, so the serving path needs no lookup round trip. One task
//! drains its [`Port`] in bursts and plans **each burst as one
//! [`DiskClient::read_extents`]** with one extent per *distinct* file
//! in it: a popular file asked for five times in a burst is read once
//! and every reply is cut from that buffer. It hands the read and the
//! answers to a child task, one per burst, spawned with the server's
//! [`Priority`], and goes straight back to draining, so several bursts
//! are in flight at once. The driver's queue then holds all of their
//! reads, and because files sit back to back it programs nearby files
//! — and the same file asked for by two bursts — as a single device
//! command. Each child answers its burst through its own
//! [`ReplyBatch`]: a client with several gets in it is woken once. On
//! the threads backend that is real file I/O end-to-end.

use std::collections::HashMap;

use chanos_drivers::{DiskClient, DiskError, BLOCK_SIZE};
use chanos_rt::{
    self as rt, port_channel, Call, Capacity, Port, Priority, Receiver, ReplyBatch, ReplyTo,
};

/// Requests served by the file server.
pub enum FileReq {
    /// Fetch a whole file by path; replies `None` for unknown paths.
    /// A published file the device fails to read is not answered at
    /// all: the call resolves `CallError::Cancelled`, not a miss.
    Get {
        path: String,
        reply: ReplyTo<Option<Vec<u8>>>,
    },
}

/// Client handle to a file server; clone freely.
#[derive(Clone)]
pub struct FileClient {
    port: Port<FileReq>,
}

impl FileClient {
    /// Issues a GET for `path`; hold the [`Call`] to pipeline.
    pub fn get(&self, path: impl Into<String>) -> Call<Option<Vec<u8>>> {
        let path = path.into();
        self.port.call(move |reply| FileReq::Get { path, reply })
    }
}

/// Requests drained per server wake.
const FILE_BATCH: usize = 32;

/// Where a published file lives: first block, byte length, blocks.
struct IndexEntry {
    lba: u64,
    len: usize,
    nblocks: u32,
}

/// Writes `files` onto `disk` starting at LBA 0 (block-aligned, in
/// order) and spawns the serving task with the given priority.
///
/// The disk must be large enough for the padded content; formatting
/// errors (e.g. out of range) surface here, before serving starts.
pub async fn spawn_file_server(
    disk: DiskClient,
    files: Vec<(String, Vec<u8>)>,
    priority: Priority,
) -> Result<FileClient, DiskError> {
    let mut index: HashMap<String, IndexEntry> = HashMap::new();
    let mut lba = 0u64;
    for (path, content) in files {
        let len = content.len();
        let nblocks = len.div_ceil(BLOCK_SIZE).max(1);
        let mut data = content;
        data.resize(nblocks * BLOCK_SIZE, 0);
        disk.write(lba, data).await?;
        index.insert(
            path,
            IndexEntry {
                lba,
                len,
                nblocks: nblocks as u32,
            },
        );
        lba += nblocks as u64;
    }
    let (port, rx) = port_channel::<FileReq>(Capacity::Unbounded);
    rt::spawn_named_with_priority(
        "file-server",
        priority,
        serve_loop(disk, index, rx, priority),
    );
    Ok(FileClient { port })
}

/// One planned reply: which of the burst's extents holds the file and
/// how many of its bytes are content (`(slot, len)`), or `None` for a
/// miss.
type PlanEntry = (ReplyTo<Option<Vec<u8>>>, Option<(usize, usize)>);

async fn serve_loop(
    disk: DiskClient,
    index: HashMap<String, IndexEntry>,
    rx: Receiver<FileReq>,
    priority: Priority,
) {
    let mut buf: Vec<FileReq> = Vec::with_capacity(FILE_BATCH);
    loop {
        buf.clear();
        if rx.recv_many(&mut buf, FILE_BATCH).await == 0 {
            return;
        }
        rt::stat_incr("serve.file_bursts");
        // Plan the whole burst first: one extent per distinct file,
        // all of them one submission, instead of a serial read per
        // request. A burst is at most FILE_BATCH long, so finding a
        // repeated file is a scan of the extents so far.
        let mut extents: Vec<(u64, u32)> = Vec::new();
        let mut plan: Vec<PlanEntry> = Vec::with_capacity(buf.len());
        for req in buf.drain(..) {
            let FileReq::Get { path, reply } = req;
            let meta = index.get(&path).map(|e| {
                let slot = extents
                    .iter()
                    .position(|&(lba, _)| lba == e.lba)
                    .unwrap_or_else(|| {
                        extents.push((e.lba, e.nblocks));
                        extents.len() - 1
                    });
                (slot, e.len)
            });
            plan.push((reply, meta));
        }
        let blocks: u64 = extents.iter().map(|&(_, n)| u64::from(n)).sum();
        rt::stat_add("serve.file_blocks_read", blocks);
        rt::stat_add("serve.file_gets", plan.len() as u64);
        // The burst is read and answered by a child while the server
        // drains the next, so the driver's queue holds the reads of
        // every burst in flight and can join them into one command.
        rt::spawn_with_priority(priority, answer_burst(disk.clone(), extents, plan));
    }
}

/// Reads one planned burst's extents and answers every request in it
/// through the burst's own [`ReplyBatch`].
async fn answer_burst(disk: DiskClient, extents: Vec<(u64, u32)>, plan: Vec<PlanEntry>) {
    let files = if extents.is_empty() {
        Vec::new()
    } else {
        disk.read_extents(&extents).await
    };
    let mut replies = ReplyBatch::default();
    for (reply, meta) in plan {
        let body = match meta {
            None => None,
            Some((slot, len)) => match &files[slot] {
                Ok(bytes) => Some(bytes[..len].to_vec()),
                // A disk error is not a 404, and the reply type has no
                // third answer: the request is accepted and left
                // unanswered.
                Err(_) => {
                    rt::stat_incr("serve.file_read_errors");
                    continue;
                }
            },
        };
        replies.send(reply, body);
    }
    replies.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use chanos_drivers::{install_disk, spawn_disk_driver, DiskParams, DiskReq};
    use chanos_rt::CallError;
    use chanos_sim::{Config, CoreId, Simulation};

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn request_layout_is_pinned() {
        // The simulator charges a message `size_of::<T>()` bytes: a failure
        // here means every modeled number is about to move.
        assert_eq!(std::mem::size_of::<FileReq>(), 48);
    }

    #[test]
    fn serves_published_content_and_misses_cleanly() {
        let mut s = Simulation::with_config(Config {
            cores: 3,
            ..Config::default()
        });
        let dev = s.add_device_core();
        s.block_on(async move {
            let (hw, irq) = install_disk(256, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(1));
            let big = vec![0xCD; BLOCK_SIZE + 123]; // straddles blocks
            let files = vec![
                ("/index.html".to_string(), b"<h1>chanos</h1>".to_vec()),
                ("/blob.bin".to_string(), big.clone()),
            ];
            let srv = spawn_file_server(disk, files, Priority::Normal)
                .await
                .unwrap();
            // Pipeline a burst: all three resolve from one read_extents.
            let a = srv.get("/index.html");
            let b = srv.get("/blob.bin");
            let c = srv.get("/missing");
            assert_eq!(a.await.unwrap(), Some(b"<h1>chanos</h1>".to_vec()));
            assert_eq!(b.await.unwrap(), Some(big));
            assert_eq!(c.await.unwrap(), None);
        })
        .unwrap();
    }

    #[test]
    fn a_burst_reads_each_file_once_and_adjacent_files_together() {
        let mut s = Simulation::with_config(Config {
            cores: 3,
            ..Config::default()
        });
        let dev = s.add_device_core();
        s.block_on(async move {
            let (hw, irq) = install_disk(256, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(1));
            // Back to back on the disk: blocks 0-1, 2, 3-5. Writing the
            // last file leaves the head at block 3, inside the run, and
            // the elevator's sweep starts at the run's start.
            let two = vec![0xA1; BLOCK_SIZE + 123];
            let one = vec![0xB2; 77];
            let three = vec![0xC3; 3 * BLOCK_SIZE];
            let files = vec![
                ("/two".to_string(), two.clone()),
                ("/one".to_string(), one.clone()),
                ("/three".to_string(), three.clone()),
            ];
            let srv = spawn_file_server(disk, files, Priority::Normal)
                .await
                .unwrap();
            let before = ["serve.file_bursts", "serve.file_blocks_read", "disk.reads"]
                .map(chanos_sim::stat_get);
            let burst = [
                ("/two", Some(&two)),
                ("/three", Some(&three)),
                ("/two", Some(&two)),
                ("/missing", None),
                ("/one", Some(&one)),
                ("/two", Some(&two)),
            ];
            let calls: Vec<_> = burst.iter().map(|(path, _)| srv.get(*path)).collect();
            for ((path, want), call) in burst.into_iter().zip(calls) {
                assert_eq!(call.await.unwrap().as_ref(), want, "{path}");
            }
            let after = ["serve.file_bursts", "serve.file_blocks_read", "disk.reads"]
                .map(chanos_sim::stat_get);
            assert_eq!(after[0] - before[0], 1, "the six gets arrived as one burst");
            assert_eq!(after[1] - before[1], 6, "three distinct files, six blocks");
            assert_eq!(
                after[2] - before[2],
                1,
                "adjacent extents left as one command"
            );
        })
        .unwrap();
    }

    #[test]
    fn a_failed_read_is_not_answered_as_a_miss() {
        Simulation::with_config(Config {
            cores: 2,
            ..Config::default()
        })
        .block_on(async {
            // A driver whose device takes every write and fails every read.
            let (port, rx) = rt::port_channel::<DiskReq>(Capacity::Unbounded);
            rt::spawn(async move {
                while let Ok(req) = rx.recv().await {
                    match req {
                        DiskReq::Write { reply, .. } => {
                            let _ = reply.send(Ok(())).await;
                        }
                        DiskReq::Read { reply, .. } => {
                            let _ = reply.send(Err(DiskError::Io)).await;
                        }
                    }
                }
            });
            let files = vec![("/page".to_string(), b"content".to_vec())];
            let srv = spawn_file_server(DiskClient::new(port), files, Priority::Normal)
                .await
                .unwrap();
            let errors0 = chanos_sim::stat_get("serve.file_read_errors");
            let published = srv.get("/page");
            let unpublished = srv.get("/missing");
            assert_eq!(published.await, Err(CallError::Cancelled));
            assert_eq!(unpublished.await, Ok(None));
            assert_eq!(chanos_sim::stat_get("serve.file_read_errors") - errors0, 1);
        })
        .unwrap();
    }

    #[test]
    fn a_second_burst_is_planned_while_the_first_is_in_flight() {
        Simulation::with_config(Config {
            cores: 2,
            ..Config::default()
        })
        .block_on(async {
            // A driver that holds the first read it gets until a second
            // one arrives, fails the second and only then answers the
            // first. A server that awaited its burst's reads before
            // draining the next would never send the second.
            let (port, rx) = rt::port_channel::<DiskReq>(Capacity::Unbounded);
            rt::spawn(async move {
                let mut store: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut held = None;
                while let Ok(req) = rx.recv().await {
                    match req {
                        DiskReq::Write { lba, data, reply } => {
                            store.insert(lba, data);
                            let _ = reply.send(Ok(())).await;
                        }
                        DiskReq::Read { lba, reply, .. } => match held.take() {
                            None => held = Some((lba, reply)),
                            Some((first, first_reply)) => {
                                let _ = reply.send(Err(DiskError::Io)).await;
                                let _ = first_reply.send(Ok(store[&first].clone())).await;
                            }
                        },
                    }
                }
            });
            let files = vec![
                ("/a".to_string(), b"first".to_vec()),
                ("/b".to_string(), b"second".to_vec()),
            ];
            let srv = spawn_file_server(DiskClient::new(port), files, Priority::Normal)
                .await
                .unwrap();
            let before = ["serve.file_bursts", "serve.file_read_errors"].map(chanos_sim::stat_get);
            let a = srv.get("/a");
            let missing = srv.get("/missing");
            // Let the server drain the first burst before the second.
            rt::sleep(10_000).await;
            let b = srv.get("/b");
            let nope = srv.get("/nope");
            // The second burst's failed read costs it only its own get.
            assert_eq!(b.await, Err(CallError::Cancelled));
            assert_eq!(nope.await, Ok(None));
            assert_eq!(a.await, Ok(Some(b"first".to_vec())));
            assert_eq!(missing.await, Ok(None));
            let after = ["serve.file_bursts", "serve.file_read_errors"].map(chanos_sim::stat_get);
            assert_eq!([after[0] - before[0], after[1] - before[1]], [2, 1]);
        })
        .unwrap();
    }
}
