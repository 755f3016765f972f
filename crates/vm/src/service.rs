//! The VM fault-handling service at four thread granularities.
//!
//! §5: *"The search for parallelism to enable scalability can yield
//! too much. With lightweight and fine-grained channels and threads
//! it is easy to write code that uses vast numbers of threads. For
//! example, one might build a virtual memory system with a thread for
//! every page of physical memory in the system; that would produce
//! too many threads no matter how many cores are available."*
//!
//! Experiment E8 sweeps [`Granularity`] over the same fault storm and
//! watches per-page collapse under spawn overhead and thread memory.
//!
//! The service is written against the `chanos-rt` facade: on the
//! simulator its threads are simulated tasks with modeled spawn and
//! fault costs; on the real-threads backend every granularity spawns
//! real tasks on the work-stealing scheduler, with the same observable
//! result (`vm_map_fault_unmap_equivalent_across_granularities` in
//! `tests/backend_equiv.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use chanos_rt::{self as rt, delay, port_channel, Capacity, CoreId, Cycles, Port, ReplyTo};

use crate::frames::FrameAlloc;
use crate::VmError;

/// Bytes per page.
pub const PAGE_SIZE: u64 = 4096;

/// Modeled stack bytes consumed per service thread (for the
/// too-many-threads accounting).
pub const THREAD_STACK_BYTES: u64 = 4096;

/// How finely the VM service is threaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One server for the whole machine.
    Centralized,
    /// One server per address space.
    PerSpace,
    /// One server per mapped region.
    PerRegion,
    /// One server per *page* — the paper's cautionary example.
    PerPage,
}

impl Granularity {
    /// Name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Granularity::Centralized => "centralized",
            Granularity::PerSpace => "per-space",
            Granularity::PerRegion => "per-region",
            Granularity::PerPage => "per-page",
        }
    }
}

/// VM service configuration.
#[derive(Clone)]
pub struct VmCfg {
    /// Thread granularity.
    pub granularity: Granularity,
    /// CPU cycles to handle one fault (page-table walk, bookkeeping).
    pub fault_work: Cycles,
    /// Physical frames available.
    pub frames: u64,
    /// Cores the service threads round-robin over.
    pub service_cores: Vec<CoreId>,
    /// CPU cycles to create one service thread (stack allocation and
    /// registration — even "lightweight" threads are not free, which
    /// is what sinks the per-page design in E8).
    pub thread_spawn_cost: Cycles,
}

impl VmCfg {
    /// A default configuration at the given granularity.
    pub fn new(granularity: Granularity, frames: u64, service_cores: Vec<CoreId>) -> VmCfg {
        VmCfg {
            granularity,
            fault_work: 300,
            frames,
            service_cores,
            thread_spawn_cost: 800,
        }
    }
}

enum SpaceMsg {
    MapRegion {
        start: u64,
        len: u64,
        reply: ReplyTo<Result<(), VmError>>,
    },
    Unmap {
        start: u64,
        len: u64,
        reply: ReplyTo<Result<u64, VmError>>,
    },
    Fault {
        vaddr: u64,
        reply: ReplyTo<Result<u64, VmError>>,
    },
    Resolve {
        vaddr: u64,
        reply: ReplyTo<Result<Option<u64>, VmError>>,
    },
}

enum RegionMsg {
    Fault {
        vaddr: u64,
        reply: ReplyTo<Result<u64, VmError>>,
    },
    Resolve {
        vaddr: u64,
        reply: ReplyTo<Result<Option<u64>, VmError>>,
    },
    /// Tear the region down: free every mapped frame (and, per-page,
    /// retire the page threads); replies with the page count freed.
    Unmap { reply: ReplyTo<u64> },
}

enum PageMsg {
    Fault {
        reply: ReplyTo<Result<u64, VmError>>,
    },
    Resolve {
        reply: ReplyTo<Result<Option<u64>, VmError>>,
    },
    /// Retire the page thread, yielding its frame (if faulted in).
    Unmap { reply: ReplyTo<Option<u64>> },
}

#[derive(Clone, Copy)]
struct Region {
    start: u64,
    len: u64,
}

impl Region {
    fn contains(&self, vaddr: u64) -> bool {
        vaddr >= self.start && vaddr < self.start + self.len
    }

    fn inside(&self, start: u64, len: u64) -> bool {
        self.start >= start && self.start + self.len <= start + len
    }
}

/// Frees every table entry whose page lies in `[start, start+len)`,
/// returning the frames and the count. (Shared with the libOS space,
/// which keeps its page table in-process.) The frames go back as one
/// pipelined burst — one allocator wake per range, not one per page.
pub(crate) async fn free_range(
    table: &mut HashMap<u64, u64>,
    frames: &FrameAlloc,
    start: u64,
    len: u64,
) -> u64 {
    let first = start / PAGE_SIZE;
    let last = (start + len).div_ceil(PAGE_SIZE);
    let vpns: Vec<u64> = table
        .keys()
        .copied()
        .filter(|&v| v >= first && v < last)
        .collect();
    let mut pfns = Vec::with_capacity(vpns.len());
    for vpn in vpns {
        if let Some(pfn) = table.remove(&vpn) {
            pfns.push(pfn);
        }
    }
    frames.free_batch(&pfns).await;
    pfns.len() as u64
}

/// The VM service: entry point for creating address spaces.
#[derive(Clone)]
pub struct VmService {
    cfg: Arc<VmCfg>,
    frames: FrameAlloc,
    rr: Arc<AtomicUsize>,
    /// Centralized mode: the single server port.
    central: Option<Port<(u64, SpaceMsg)>>,
}

impl VmService {
    /// Boots the VM service (frame allocator plus, in centralized
    /// mode, the single VM server).
    pub fn start(cfg: VmCfg) -> VmService {
        assert!(!cfg.service_cores.is_empty());
        let frames = FrameAlloc::spawn(cfg.frames, cfg.service_cores[0]);
        let cfg = Arc::new(cfg);
        let central = if cfg.granularity == Granularity::Centralized {
            let (tx, rx) = port_channel::<(u64, SpaceMsg)>(Capacity::Unbounded);
            let cfg2 = cfg.clone();
            let frames2 = frames.clone();
            rt::spawn_daemon_on("vm-central", cfg.service_cores[0], async move {
                // All spaces' state in one server.
                let mut spaces: HashMap<u64, (Vec<Region>, HashMap<u64, u64>)> = HashMap::new();
                while let Ok((sid, msg)) = rx.recv().await {
                    let (regions, table) = spaces.entry(sid).or_default();
                    handle_space_msg(msg, regions, table, &frames2, cfg2.fault_work).await;
                }
            });
            Some(tx)
        } else {
            None
        };
        VmService {
            cfg,
            frames,
            rr: Arc::new(AtomicUsize::new(1)),
            central,
        }
    }

    fn next_core(&self) -> CoreId {
        let i = self.rr.fetch_add(1, Ordering::Relaxed);
        self.cfg.service_cores[i % self.cfg.service_cores.len()]
    }

    /// The frame allocator (shared by all spaces).
    pub fn frames(&self) -> &FrameAlloc {
        &self.frames
    }

    /// Creates an address space; `sid` must be unique.
    pub fn create_space(&self, sid: u64) -> SpaceHandle {
        match self.cfg.granularity {
            Granularity::Centralized => SpaceHandle {
                route: SpaceRoute::Central {
                    sid,
                    tx: self.central.clone().expect("central server running"),
                },
            },
            _ => {
                let (tx, rx) = port_channel::<SpaceMsg>(Capacity::Unbounded);
                let cfg = self.cfg.clone();
                let frames = self.frames.clone();
                let svc = self.clone();
                let core = self.next_core();
                rt::spawn_daemon_on(&format!("vm-space{sid}"), core, async move {
                    space_task(cfg, svc, frames, rx).await;
                });
                rt::stat_incr("vm.service_threads");
                SpaceHandle {
                    route: SpaceRoute::Dedicated { tx },
                }
            }
        }
    }
}

/// Client handle to one address space.
#[derive(Clone)]
pub struct SpaceHandle {
    route: SpaceRoute,
}

#[derive(Clone)]
enum SpaceRoute {
    /// Centralized mode: messages carry the space id.
    Central { sid: u64, tx: Port<(u64, SpaceMsg)> },
    /// A dedicated space server.
    Dedicated { tx: Port<SpaceMsg> },
}

impl SpaceHandle {
    /// Issues one call to the space server and awaits its reply.
    async fn roundtrip<T: Send + 'static>(
        &self,
        make: impl FnOnce(ReplyTo<Result<T, VmError>>) -> SpaceMsg,
    ) -> Result<T, VmError> {
        let call = match &self.route {
            SpaceRoute::Central { sid, tx } => {
                let sid = *sid;
                tx.call(move |reply| (sid, make(reply)))
            }
            SpaceRoute::Dedicated { tx } => tx.call(make),
        };
        call.await.unwrap_or_else(|e| Err(e.into()))
    }

    /// Maps an anonymous region `[start, start+len)`.
    pub async fn map_region(&self, start: u64, len: u64) -> Result<(), VmError> {
        self.roundtrip(|reply| SpaceMsg::MapRegion { start, len, reply })
            .await
    }

    /// Unmaps every region fully inside `[start, start+len)`,
    /// returning mapped pages to the frame allocator.
    ///
    /// Resolves to the number of pages freed; per-region and per-page
    /// service threads covering the range are retired.
    pub async fn unmap(&self, start: u64, len: u64) -> Result<u64, VmError> {
        self.roundtrip(|reply| SpaceMsg::Unmap { start, len, reply })
            .await
    }

    /// Touches `vaddr`: faults the page in if needed; returns the
    /// backing frame.
    pub async fn touch(&self, vaddr: u64) -> Result<u64, VmError> {
        self.roundtrip(|reply| SpaceMsg::Fault { vaddr, reply })
            .await
    }

    /// Resolves `vaddr` without faulting; `None` if unmapped.
    pub async fn resolve(&self, vaddr: u64) -> Result<Option<u64>, VmError> {
        self.roundtrip(|reply| SpaceMsg::Resolve { vaddr, reply })
            .await
    }
}

/// Handles one message against centralized space state.
async fn handle_space_msg(
    msg: SpaceMsg,
    regions: &mut Vec<Region>,
    table: &mut HashMap<u64, u64>,
    frames: &FrameAlloc,
    fault_work: Cycles,
) {
    match msg {
        SpaceMsg::MapRegion { start, len, reply } => {
            regions.push(Region { start, len });
            let _ = reply.send(Ok(())).await;
        }
        SpaceMsg::Unmap { start, len, reply } => {
            // Free only the pages of regions *fully inside* the range
            // — the same unit the per-region/per-page granularities
            // tear down, so unmap observables match across all four.
            let removed: Vec<Region> = regions
                .iter()
                .copied()
                .filter(|r| r.inside(start, len))
                .collect();
            regions.retain(|r| !r.inside(start, len));
            let mut freed = 0u64;
            for r in removed {
                freed += free_range(table, frames, r.start, r.len).await;
            }
            rt::stat_incr("vm.unmaps");
            let _ = reply.send(Ok(freed)).await;
        }
        SpaceMsg::Fault { vaddr, reply } => {
            let out = if regions.iter().any(|r| r.contains(vaddr)) {
                let vpn = vaddr / PAGE_SIZE;
                if let Some(&pfn) = table.get(&vpn) {
                    Ok(pfn)
                } else {
                    delay(fault_work).await;
                    rt::stat_incr("vm.faults");
                    match frames.alloc().await {
                        Ok(pfn) => {
                            table.insert(vpn, pfn);
                            Ok(pfn)
                        }
                        Err(e) => Err(e),
                    }
                }
            } else {
                Err(VmError::BadAddress)
            };
            let _ = reply.send(out).await;
        }
        SpaceMsg::Resolve { vaddr, reply } => {
            let out = Ok(table.get(&(vaddr / PAGE_SIZE)).copied());
            let _ = reply.send(out).await;
        }
    }
}

/// A dedicated space server; per-region and per-page granularities
/// push work further down.
async fn space_task(
    cfg: Arc<VmCfg>,
    svc: VmService,
    frames: FrameAlloc,
    rx: chanos_rt::Receiver<SpaceMsg>,
) {
    let mut regions: Vec<Region> = Vec::new();
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut region_chans: Vec<(Region, Port<RegionMsg>)> = Vec::new();
    while let Ok(msg) = rx.recv().await {
        match cfg.granularity {
            Granularity::PerSpace => {
                handle_space_msg(msg, &mut regions, &mut table, &frames, cfg.fault_work).await;
            }
            Granularity::PerRegion | Granularity::PerPage => match msg {
                SpaceMsg::MapRegion { start, len, reply } => {
                    let region = Region { start, len };
                    delay(cfg.thread_spawn_cost).await;
                    let (tx, rrx) = port_channel::<RegionMsg>(Capacity::Unbounded);
                    let cfg2 = cfg.clone();
                    let frames2 = frames.clone();
                    let svc2 = svc.clone();
                    let core = svc.next_core();
                    rt::spawn_daemon_on(&format!("vm-region{start:x}"), core, async move {
                        region_task(cfg2, svc2, frames2, region, rrx).await;
                    });
                    rt::stat_incr("vm.service_threads");
                    region_chans.push((region, tx));
                    let _ = reply.send(Ok(())).await;
                }
                SpaceMsg::Unmap { start, len, reply } => {
                    // Tear down every region server inside the range;
                    // dropping its port afterwards retires it.
                    let mut freed = 0u64;
                    let mut kept: Vec<(Region, Port<RegionMsg>)> = Vec::new();
                    for (region, tx) in region_chans.drain(..) {
                        if region.inside(start, len) {
                            freed += tx
                                .call(|reply| RegionMsg::Unmap { reply })
                                .await
                                .unwrap_or(0);
                        } else {
                            kept.push((region, tx));
                        }
                    }
                    region_chans = kept;
                    rt::stat_incr("vm.unmaps");
                    let _ = reply.send(Ok(freed)).await;
                }
                SpaceMsg::Fault { vaddr, reply } => {
                    match region_chans.iter().find(|(r, _)| r.contains(vaddr)) {
                        None => {
                            let _ = reply.send(Err(VmError::BadAddress)).await;
                        }
                        Some((_, tx)) => {
                            // Forward; the region server replies to the
                            // original requester directly (channels as
                            // capabilities, §3).
                            let _ = tx.forward(RegionMsg::Fault { vaddr, reply });
                        }
                    }
                }
                SpaceMsg::Resolve { vaddr, reply } => {
                    match region_chans.iter().find(|(r, _)| r.contains(vaddr)) {
                        None => {
                            let _ = reply.send(Ok(None)).await;
                        }
                        Some((_, tx)) => {
                            let _ = tx.forward(RegionMsg::Resolve { vaddr, reply });
                        }
                    }
                }
            },
            Granularity::Centralized => unreachable!("handled by the central server"),
        }
    }
}

async fn region_task(
    cfg: Arc<VmCfg>,
    svc: VmService,
    frames: FrameAlloc,
    region: Region,
    rx: chanos_rt::Receiver<RegionMsg>,
) {
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut page_chans: HashMap<u64, Port<PageMsg>> = HashMap::new();
    while let Ok(msg) = rx.recv().await {
        match msg {
            RegionMsg::Fault { vaddr, reply } => {
                let vpn = vaddr / PAGE_SIZE;
                match cfg.granularity {
                    Granularity::PerPage => {
                        // One thread per page: spawned on first touch,
                        // alive until the region unmaps. Creating it
                        // costs the region server real cycles.
                        if !page_chans.contains_key(&vpn) {
                            delay(cfg.thread_spawn_cost).await;
                        }
                        let tx = page_chans.entry(vpn).or_insert_with(|| {
                            let (tx, prx) = port_channel::<PageMsg>(Capacity::Unbounded);
                            let frames2 = frames.clone();
                            let cfg2 = cfg.clone();
                            let core = svc.next_core();
                            rt::spawn_daemon_on(&format!("vm-page{vpn:x}"), core, async move {
                                page_task(cfg2, frames2, prx).await;
                            });
                            rt::stat_incr("vm.service_threads");
                            rt::stat_incr("vm.page_threads");
                            tx
                        });
                        let _ = tx.forward(PageMsg::Fault { reply });
                    }
                    _ => {
                        let out = if let Some(&pfn) = table.get(&vpn) {
                            Ok(pfn)
                        } else {
                            delay(cfg.fault_work).await;
                            rt::stat_incr("vm.faults");
                            match frames.alloc().await {
                                Ok(pfn) => {
                                    table.insert(vpn, pfn);
                                    Ok(pfn)
                                }
                                Err(e) => Err(e),
                            }
                        };
                        let _ = reply.send(out).await;
                    }
                }
            }
            RegionMsg::Resolve { vaddr, reply } => {
                let vpn = vaddr / PAGE_SIZE;
                match cfg.granularity {
                    Granularity::PerPage => match page_chans.get(&vpn) {
                        None => {
                            let _ = reply.send(Ok(None)).await;
                        }
                        Some(tx) => {
                            let out = tx
                                .call(|reply| PageMsg::Resolve { reply })
                                .await
                                .unwrap_or_else(|e| Err(e.into()));
                            let _ = reply.send(out).await;
                        }
                    },
                    _ => {
                        let _ = reply.send(Ok(table.get(&vpn).copied())).await;
                    }
                }
            }
            RegionMsg::Unmap { reply } => {
                let mut freed = 0u64;
                // Per-page: collect each page thread's frame and
                // retire it (dropping the port ends its loop).
                for (_, tx) in std::mem::take(&mut page_chans) {
                    if let Ok(Some(pfn)) = tx.call(|reply| PageMsg::Unmap { reply }).await {
                        let _ = frames.free(pfn).await;
                        freed += 1;
                    }
                }
                freed += free_range(&mut table, &frames, region.start, region.len).await;
                let _ = reply.send(freed).await;
                // The space server drops our channel next; the loop
                // ends once it does.
            }
        }
    }
}

async fn page_task(cfg: Arc<VmCfg>, frames: FrameAlloc, rx: chanos_rt::Receiver<PageMsg>) {
    let mut pfn: Option<u64> = None;
    while let Ok(msg) = rx.recv().await {
        match msg {
            PageMsg::Fault { reply } => {
                let out = if let Some(p) = pfn {
                    Ok(p)
                } else {
                    delay(cfg.fault_work).await;
                    rt::stat_incr("vm.faults");
                    match frames.alloc().await {
                        Ok(p) => {
                            pfn = Some(p);
                            Ok(p)
                        }
                        Err(e) => Err(e),
                    }
                };
                let _ = reply.send(out).await;
            }
            PageMsg::Resolve { reply } => {
                let _ = reply.send(Ok(pfn)).await;
            }
            PageMsg::Unmap { reply } => {
                let _ = reply.send(pfn.take()).await;
                break;
            }
        }
    }
}
