//! The whole-machine simulator: CPUs, caches, directories, mesh and the
//! event loop.
//!
//! Each node replays one processor's stream of a [`PhasedTrace`], separated
//! by global barriers. Within a phase the interleaving is determined by the
//! simulated timing: CPUs run in *bursts* until they block on a memory
//! resource (MSHRs exhausted, or the outstanding-load limit modelling the
//! finite active list of an ILP core). L2 misses travel through a MESI
//! directory protocol with replacement hints over the 4×4 mesh.
//!
//! Miss latencies are measured with request timestamps (Section 4.1) and
//! become the miss *cost* stored with the filled block, so cost-sensitive
//! L2 policies replace based on predicted (= last measured) miss latency.

use crate::config::{SystemConfig, Time};
use crate::directory::{DirState, Directory, Pending};
use crate::event::{Event, EventQueue};
use crate::mesh::Mesh;
use crate::msg::{HomeState, Msg, MsgKind};
use crate::node::{CpuState, MshrEntry, Node};
use crate::stats::{MissClass, ReqType, SimResult, Table3Matrix};
use cache_sim::{AccessType, BlockAddr, BoxedPolicy, Cache, Cost, Lru};
use mem_trace::{Phase, PhasedTrace, ProcId};
use std::collections::HashMap;

/// The simulated CC-NUMA machine, replaying the phases it borrows.
pub struct System<'t> {
    cfg: SystemConfig,
    phases: &'t [Phase],
    nodes: Vec<Node>,
    dirs: Vec<Directory>,
    mesh: Mesh,
    queue: EventQueue,
    homes: HashMap<u64, usize>,
    barrier_arrived: usize,
    barrier_max: Time,
    final_time: Time,
}

impl std::fmt::Debug for System<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("nodes", &self.nodes.len())
            .field("phases", &self.phases.len())
            .finish_non_exhaustive()
    }
}

impl<'t> System<'t> {
    /// Assembles a machine for `trace` whose L2 sets each get a core built
    /// by `l2_core`, node 0's sets first.
    ///
    /// # Panics
    ///
    /// Panics if the trace's processor count differs from the configuration.
    #[must_use]
    pub fn new(
        cfg: SystemConfig,
        trace: &'t PhasedTrace,
        mut l2_core: impl FnMut() -> BoxedPolicy,
    ) -> Self {
        assert_eq!(
            trace.num_procs(),
            cfg.num_nodes,
            "trace processor count must match the machine"
        );
        let nodes = (0..cfg.num_nodes)
            .map(|id| {
                let l1 = Cache::new(cfg.l1, Lru::new);
                let l2 = Cache::new(cfg.l2, &mut l2_core);
                Node::new(id, l1, l2)
            })
            .collect();
        System {
            nodes,
            dirs: (0..cfg.num_nodes).map(|_| Directory::new()).collect(),
            mesh: Mesh::new(),
            queue: EventQueue::new(),
            homes: HashMap::new(),
            barrier_arrived: 0,
            barrier_max: 0,
            final_time: 0,
            phases: trace.phases(),
            cfg,
        }
    }

    /// Runs the machine to completion and returns the results.
    pub fn run(&mut self) -> SimResult {
        for n in 0..self.nodes.len() {
            self.queue.push(0, Event::CpuResume(n));
        }
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Event::CpuResume(n) => self.cpu_resume(now, n),
                Event::MsgArrive(msg) => self.handle_msg(now, msg),
            }
        }
        if !self.nodes.iter().all(|n| n.state == CpuState::Done) {
            for n in &self.nodes {
                if n.state != CpuState::Done {
                    eprintln!(
                        "node {}: state {:?} phase {} pos {} outstanding {} mshr {:?}",
                        n.id,
                        n.state,
                        n.phase,
                        n.pos,
                        n.outstanding_loads,
                        n.mshr
                            .iter()
                            .map(|(b, m)| (*b, m.is_upgrade))
                            .collect::<Vec<_>>()
                    );
                }
            }
            let stuck_blocks: Vec<u64> = self
                .nodes
                .iter()
                .flat_map(|n| n.mshr.keys().copied())
                .collect();
            for (h, d) in self.dirs.iter().enumerate() {
                for b in &stuck_blocks {
                    if let Some(e) = d.peek(*b) {
                        if e.pending.is_some() || !e.queue.is_empty() {
                            eprintln!(
                                "dir {h} block {b}: state {:?} pending {:?} queued {}",
                                e.state,
                                e.pending.as_ref().map(|p| (
                                    p.msg.kind,
                                    p.msg.requester,
                                    p.acks_outstanding,
                                    p.awaiting_wb
                                )),
                                e.queue.len()
                            );
                        }
                    }
                }
            }
            panic!("simulation drained with unfinished CPUs (deadlock)");
        }
        let mut table3 = Table3Matrix::new();
        for n in &self.nodes {
            table3.merge(&n.table3);
        }
        SimResult {
            exec_time_ps: self.final_time,
            nodes: self.nodes.iter().map(|n| n.stats).collect(),
            table3,
        }
    }

    /// Interconnect statistics (after `run`).
    #[must_use]
    pub fn mesh_stats(&self) -> &crate::mesh::MeshStats {
        self.mesh.stats()
    }

    /// Validates the protocol invariants on a quiesced machine (after
    /// [`run`](Self::run)): directory state matches cache residency, at
    /// most one exclusive holder, L1 contents included in the L2, and no
    /// transaction left dangling.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate_coherence(&mut self) -> Result<(), String> {
        let homes: Vec<(u64, usize)> = self.homes.iter().map(|(b, h)| (*b, *h)).collect();
        for (b, home) in homes {
            let block = BlockAddr(b);
            let holders: Vec<usize> = self
                .nodes
                .iter()
                .filter(|n| n.l2.contains(block))
                .map(|n| n.id)
                .collect();
            let entry = self.dirs[home].entry(b);
            if let Some(p) = &entry.pending {
                return Err(format!(
                    "block {b}: dangling pending at home {home}: kind {:?} req {} remaining {} acks {} awaiting_wb {} state {:?} holders {holders:?}",
                    p.msg.kind, p.msg.requester, p.remaining, p.acks_outstanding, p.awaiting_wb, entry.state
                ));
            }
            if !entry.queue.is_empty() {
                return Err(format!("block {b}: dangling request queue at home {home}"));
            }
            match &entry.state {
                DirState::Uncached => {
                    if !holders.is_empty() {
                        return Err(format!(
                            "block {b}: directory Uncached but cached at {holders:?}"
                        ));
                    }
                }
                DirState::Shared(set) => {
                    let set_v: Vec<usize> = set.iter().copied().collect();
                    // With replacement hints the sharer set tracks holders
                    // exactly; without them, silent clean evictions leave
                    // stale sharers, so the set may only be a superset.
                    let consistent = if self.cfg.replacement_hints {
                        set_v == holders
                    } else {
                        holders.iter().all(|h| set.contains(h))
                    };
                    if !consistent {
                        return Err(format!(
                            "block {b}: sharers {set_v:?} inconsistent with holders {holders:?}"
                        ));
                    }
                    for n in &holders {
                        if self.nodes[*n].owned.contains(&b) {
                            return Err(format!("block {b}: shared but owned at node {n}"));
                        }
                    }
                }
                DirState::Exclusive(o) => {
                    if holders != vec![*o] {
                        return Err(format!(
                            "block {b}: exclusive at {o} but cached at {holders:?}"
                        ));
                    }
                    if !self.nodes[*o].owned.contains(&b) {
                        return Err(format!("block {b}: exclusive at {o} but not marked owned"));
                    }
                }
            }
        }
        for n in &self.nodes {
            if !n.mshr.is_empty() {
                return Err(format!("node {}: dangling MSHR entries", n.id));
            }
            for l1_block in n.l1.resident_blocks() {
                if !n.l2.contains(l1_block) {
                    return Err(format!(
                        "node {}: L1 holds {l1_block} outside the (inclusive) L2",
                        n.id
                    ));
                }
            }
        }
        Ok(())
    }

    fn ctrl_ps(&self) -> Time {
        self.cfg.ctrl_ns * 1000
    }

    fn home_of(&mut self, block: BlockAddr, toucher: usize) -> usize {
        *self.homes.entry(block.0).or_insert(toucher)
    }

    fn send(&mut self, msg: Msg, depart: Time) {
        let flits = if msg.kind.carries_data() {
            self.cfg.data_flits
        } else {
            self.cfg.control_flits
        };
        let arrival = self.mesh.send(&self.cfg, msg.src, msg.dst, flits, depart);
        self.queue.push(arrival, Event::MsgArrive(msg));
    }

    // ------------------------------------------------------------------
    // CPU side
    // ------------------------------------------------------------------

    fn cpu_resume(&mut self, now: Time, n: usize) {
        match self.nodes[n].state {
            CpuState::Done | CpuState::AtBarrier => return,
            // A fill that did not retire a load (store miss, upgrade) also
            // schedules a wakeup; ignore it while the load window is still
            // full, or every spurious wakeup would leak one extra load past
            // the limit.
            CpuState::WaitLoadLimit
                if self.nodes[n].outstanding_loads >= self.cfg.max_load_overlap =>
            {
                return;
            }
            _ => {}
        }
        let node = &mut self.nodes[n];
        if node.is_stalled() {
            node.stats.stall_ps += now.saturating_sub(node.cpu_time);
        }
        node.stalled_since = None;
        node.cpu_time = node.cpu_time.max(now);
        node.state = CpuState::Running;
        self.burst(n);
    }

    /// Records the start of a memory stall (idempotent within one stall).
    fn note_stall(&mut self, n: usize) {
        let node = &mut self.nodes[n];
        if node.stalled_since.is_none() {
            node.stalled_since = Some(node.cpu_time);
        }
    }

    /// Executes references until the CPU blocks, hits a barrier or ends.
    fn burst(&mut self, n: usize) {
        let cycle = self.cfg.cycle_ps();
        let l1_ps = self.cfg.l1_cycles * cycle;
        let l2_ps = self.cfg.l2_cycles * cycle;
        loop {
            let phase_idx = self.nodes[n].phase;
            if phase_idx >= self.phases.len() {
                self.nodes[n].state = CpuState::Done;
                return;
            }
            let pos = self.nodes[n].pos;
            let stream = self.phases[phase_idx].stream(ProcId(n));
            let Some(&rec) = stream.get(pos) else {
                self.barrier_arrive(n);
                return;
            };
            let op = rec.op();
            let block = rec.addr().block(self.cfg.l2.block_bytes());
            let is_write = op == AccessType::Write;

            // Issue + L1 probe.
            self.nodes[n].cpu_time += cycle + l1_ps;
            if self.nodes[n].l1.contains(block) {
                if is_write && !self.write_permission_ok(n, block) && !self.start_upgrade(n, block)
                {
                    // MSHRs full; the reference is retried on the next
                    // completion. Refund the probe charge so the retry does
                    // not bill it twice.
                    self.nodes[n].cpu_time -= cycle + l1_ps;
                    self.note_stall(n);
                    return;
                }
                let node = &mut self.nodes[n];
                node.l1.access(block, op, Cost::ZERO);
                node.stats.refs += 1;
                node.stats.l1_hits += 1;
                node.pos += 1;
                continue;
            }

            // L2 probe.
            self.nodes[n].cpu_time += l2_ps;
            if self.nodes[n].l2.contains(block) {
                if is_write && !self.write_permission_ok(n, block) && !self.start_upgrade(n, block)
                {
                    self.nodes[n].cpu_time -= cycle + l1_ps + l2_ps;
                    self.note_stall(n);
                    return;
                }
                {
                    let node = &mut self.nodes[n];
                    node.l2.access(block, op, Cost::ZERO);
                    node.stats.refs += 1;
                    node.stats.l2_hits += 1;
                    node.pos += 1;
                }
                self.fill_l1(n, block, op);
                continue;
            }

            // L2 miss.
            if let Some(m) = self.nodes[n].mshr.get_mut(&block.0) {
                // Merged into the outstanding transaction. A store merging
                // into a read transaction still needs ownership once the
                // shared data arrives (complete_fill issues the upgrade).
                if is_write {
                    m.wants_write = true;
                }
                let node = &mut self.nodes[n];
                node.stats.refs += 1;
                node.pos += 1;
                continue;
            }
            if self.nodes[n].mshr.len() >= self.cfg.mshrs {
                self.nodes[n].cpu_time -= cycle + l1_ps + l2_ps;
                self.nodes[n].state = CpuState::WaitMshr;
                self.note_stall(n);
                return;
            }
            let issue = self.nodes[n].cpu_time;
            let home = self.home_of(block, n);
            let kind = if is_write {
                MsgKind::GetX
            } else {
                MsgKind::GetS
            };
            self.nodes[n].mshr.insert(
                block.0,
                MshrEntry {
                    is_write,
                    is_upgrade: false,
                    issue,
                    wants_write: is_write,
                },
            );
            let depart = issue + self.ctrl_ps();
            self.send(Msg::request(kind, n, home, block, issue), depart);
            {
                let node = &mut self.nodes[n];
                node.stats.refs += 1;
                node.pos += 1;
                if !is_write {
                    node.outstanding_loads += 1;
                    if node.outstanding_loads >= self.cfg.max_load_overlap {
                        node.state = CpuState::WaitLoadLimit;
                        self.note_stall(n);
                        return;
                    }
                }
            }
        }
    }

    /// Whether a store to a resident block can proceed without a
    /// transaction (we own it, or an upgrade is already outstanding).
    fn write_permission_ok(&self, n: usize, block: BlockAddr) -> bool {
        let node = &self.nodes[n];
        node.owned.contains(&block.0) || node.mshr.contains_key(&block.0)
    }

    /// Starts an ownership upgrade; returns `false` when MSHRs are full
    /// (the CPU must stall).
    fn start_upgrade(&mut self, n: usize, block: BlockAddr) -> bool {
        if self.nodes[n].mshr.len() >= self.cfg.mshrs {
            self.nodes[n].state = CpuState::WaitMshr;
            return false;
        }
        let issue = self.nodes[n].cpu_time;
        let home = self.home_of(block, n);
        self.nodes[n].mshr.insert(
            block.0,
            MshrEntry {
                is_write: true,
                is_upgrade: true,
                issue,
                wants_write: true,
            },
        );
        self.nodes[n].stats.upgrades += 1;
        let depart = issue + self.ctrl_ps();
        self.send(
            Msg::request(MsgKind::Upgrade, n, home, block, issue),
            depart,
        );
        true
    }

    /// Fills `block` into the L1, writing back a displaced dirty victim
    /// into the (inclusive) L2.
    fn fill_l1(&mut self, n: usize, block: BlockAddr, op: AccessType) {
        let node = &mut self.nodes[n];
        let out = node.l1.access(block, op, Cost::ZERO);
        if let Some(ev) = out.evicted {
            if ev.dirty {
                node.l2.writeback(ev.block);
            }
        }
    }

    /// Barrier semantics: a CPU arrives when it has *issued* its whole
    /// phase stream; outstanding fills may still drain during the next
    /// phase (release consistency at barriers rather than the paper's
    /// sequential consistency — a documented simplification that slightly
    /// favours every policy equally).
    fn barrier_arrive(&mut self, n: usize) {
        let t = self.nodes[n].cpu_time;
        self.nodes[n].state = CpuState::AtBarrier;
        self.barrier_arrived += 1;
        self.barrier_max = self.barrier_max.max(t);
        if self.barrier_arrived < self.nodes.len() {
            return;
        }
        // Release.
        let release = self.barrier_max + self.cfg.barrier_ns * 1000;
        self.barrier_arrived = 0;
        self.barrier_max = 0;
        let next_phase = self.nodes[0].phase + 1;
        let done = next_phase >= self.phases.len();
        for node in &mut self.nodes {
            node.phase = next_phase;
            node.pos = 0;
            node.cpu_time = release;
            node.state = if done {
                CpuState::Done
            } else {
                CpuState::Running
            };
        }
        if done {
            self.final_time = release;
        } else {
            for i in 0..self.nodes.len() {
                self.queue.push(release, Event::CpuResume(i));
            }
        }
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    fn handle_msg(&mut self, now: Time, msg: Msg) {
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => self.home_request(now, msg),
            MsgKind::ReplHint => self.home_repl_hint(&msg),
            MsgKind::WriteBack => self.home_writeback(now, msg),
            MsgKind::InvalAck => self.home_inval_ack(now, msg),
            MsgKind::DownAck => self.home_down_ack(now, msg),
            MsgKind::OwnerAck => self.home_owner_ack(now, msg),
            MsgKind::FetchNack => self.home_fetch_nack(now, msg),
            MsgKind::GrantAck => self.home_grant_ack(now, msg),
            MsgKind::FetchS | MsgKind::FetchInval => self.cache_fetch(now, msg),
            MsgKind::InvalReq => self.cache_inval(now, msg),
            MsgKind::DataS
            | MsgKind::DataE
            | MsgKind::UpgAck
            | MsgKind::OwnerDataS
            | MsgKind::OwnerDataE => self.complete_fill(now, msg),
        }
    }

    // ------------------------------------------------------------------
    // Home (directory) side
    // ------------------------------------------------------------------

    fn home_request(&mut self, now: Time, msg: Msg) {
        let entry = self.dirs[msg.dst].entry(msg.block.0);
        if entry.pending.is_some() {
            entry.queue.push_back(msg);
            return;
        }
        self.dir_start(now, msg);
    }

    /// Unloaded latency of an invalidation round trip to the farthest
    /// target, ns.
    fn inval_round_trip_ns(&self, home: usize, targets: &[usize]) -> u64 {
        targets
            .iter()
            .map(|&t| {
                self.cfg.unloaded_msg_ns(home, t, self.cfg.control_flits)
                    + self.cfg.ctrl_ns
                    + self.cfg.unloaded_msg_ns(t, home, self.cfg.control_flits)
            })
            .max()
            .unwrap_or(0)
    }

    fn dir_start(&mut self, now: Time, msg: Msg) {
        let home = msg.dst;
        let req = msg.requester;
        let ctrl = self.ctrl_ps();
        let mem = self.cfg.mem_ns * 1000;
        // The clone is cheap in practice (sharer sets are tiny); owning the
        // state keeps the match arms free to mutate the entry.
        let state = self.dirs[home].entry(msg.block.0).state.clone();
        let state_seen = state.classify();

        match (msg.kind, state) {
            // MESI grants Exclusive to the sole requester of an uncached
            // block, so GetS and GetX behave identically here.
            (MsgKind::GetS | MsgKind::GetX, DirState::Uncached) => {
                self.dirs[home].entry(msg.block.0).state = DirState::Exclusive(req);
                self.hold_for_grant(home, msg, state_seen);
                let mut reply = msg;
                reply.kind = MsgKind::DataE;
                reply.src = home;
                reply.dst = req;
                reply.home_state = HomeState::Uncached;
                reply.unloaded_ns = self.cfg.unloaded_clean_ns(req, home);
                self.send(reply, now + ctrl + mem);
            }
            (MsgKind::GetS, DirState::Shared(mut set)) => {
                set.insert(req);
                self.dirs[home].entry(msg.block.0).state = DirState::Shared(set);
                self.hold_for_grant(home, msg, state_seen);
                let mut reply = msg;
                reply.kind = MsgKind::DataS;
                reply.src = home;
                reply.dst = req;
                reply.home_state = HomeState::Shared;
                reply.unloaded_ns = self.cfg.unloaded_clean_ns(req, home);
                self.send(reply, now + ctrl + mem);
            }
            (MsgKind::GetS, DirState::Exclusive(owner)) if owner == req => {
                // Our own writeback is still in flight; wait for it.
                self.dirs[home].entry(msg.block.0).pending = Some(Pending {
                    msg,
                    acks_outstanding: 0,
                    mem_ready: 0,
                    awaiting_wb: true,
                    state_seen,
                    prev_owner: owner,
                    remaining: 0,
                });
            }
            (MsgKind::GetS, DirState::Exclusive(owner)) => {
                self.dirs[home].entry(msg.block.0).pending = Some(Pending {
                    msg,
                    acks_outstanding: 0,
                    mem_ready: 0,
                    awaiting_wb: false,
                    state_seen,
                    prev_owner: owner,
                    remaining: 2,
                });
                let mut fwd = msg;
                fwd.kind = MsgKind::FetchS;
                fwd.src = home;
                fwd.dst = owner;
                fwd.owner = owner;
                fwd.home_state = HomeState::Exclusive;
                fwd.unloaded_ns = self.cfg.unloaded_dirty_ns(req, home, owner);
                self.send(fwd, now + ctrl);
            }
            (MsgKind::GetX, DirState::Shared(set)) => {
                let targets: Vec<usize> = set.iter().copied().filter(|&t| t != req).collect();
                if targets.is_empty() {
                    self.dirs[home].entry(msg.block.0).state = DirState::Exclusive(req);
                    self.hold_for_grant(home, msg, state_seen);
                    let mut reply = msg;
                    reply.kind = MsgKind::DataE;
                    reply.src = home;
                    reply.dst = req;
                    reply.home_state = HomeState::Shared;
                    reply.unloaded_ns = self.cfg.unloaded_clean_ns(req, home);
                    self.send(reply, now + ctrl + mem);
                    return;
                }
                let unloaded = self.cfg.unloaded_clean_ns(req, home)
                    + self.inval_round_trip_ns(home, &targets);
                let mut pending_msg = msg;
                pending_msg.unloaded_ns = unloaded;
                pending_msg.home_state = HomeState::Shared;
                self.dirs[home].entry(msg.block.0).pending = Some(Pending {
                    msg: pending_msg,
                    acks_outstanding: targets.len(),
                    mem_ready: now + ctrl + mem,
                    awaiting_wb: false,
                    state_seen,
                    prev_owner: usize::MAX,
                    remaining: 1,
                });
                for t in targets {
                    let mut inval = msg;
                    inval.kind = MsgKind::InvalReq;
                    inval.src = home;
                    inval.dst = t;
                    self.send(inval, now + ctrl);
                }
            }
            (MsgKind::GetX, DirState::Exclusive(owner)) => {
                self.dirs[home].entry(msg.block.0).pending = Some(Pending {
                    msg,
                    acks_outstanding: 0,
                    mem_ready: 0,
                    awaiting_wb: owner == req,
                    state_seen,
                    prev_owner: owner,
                    remaining: if owner == req { 0 } else { 2 },
                });
                if owner != req {
                    let mut fwd = msg;
                    fwd.kind = MsgKind::FetchInval;
                    fwd.src = home;
                    fwd.dst = owner;
                    fwd.owner = owner;
                    fwd.home_state = HomeState::Exclusive;
                    fwd.unloaded_ns = self.cfg.unloaded_dirty_ns(req, home, owner);
                    self.send(fwd, now + ctrl);
                }
            }
            (MsgKind::Upgrade, DirState::Shared(set)) if set.contains(&req) => {
                let targets: Vec<usize> = set.iter().copied().filter(|&t| t != req).collect();
                if targets.is_empty() {
                    self.dirs[home].entry(msg.block.0).state = DirState::Exclusive(req);
                    self.hold_for_grant(home, msg, state_seen);
                    let mut reply = msg;
                    reply.kind = MsgKind::UpgAck;
                    reply.src = home;
                    reply.dst = req;
                    reply.home_state = HomeState::Shared;
                    reply.unloaded_ns = self.unloaded_upgrade_ns(req, home);
                    self.send(reply, now + ctrl);
                    return;
                }
                let unloaded =
                    self.unloaded_upgrade_ns(req, home) + self.inval_round_trip_ns(home, &targets);
                let mut pending_msg = msg;
                pending_msg.unloaded_ns = unloaded;
                pending_msg.home_state = HomeState::Shared;
                self.dirs[home].entry(msg.block.0).pending = Some(Pending {
                    msg: pending_msg,
                    acks_outstanding: targets.len(),
                    mem_ready: 0,
                    awaiting_wb: false,
                    state_seen,
                    prev_owner: usize::MAX,
                    remaining: 1,
                });
                for t in targets {
                    let mut inval = msg;
                    inval.kind = MsgKind::InvalReq;
                    inval.src = home;
                    inval.dst = t;
                    self.send(inval, now + ctrl);
                }
            }
            (MsgKind::Upgrade, _) => {
                // The requester lost its copy before the upgrade was served
                // (or the state is otherwise stale): serve as a plain GetX.
                let mut as_getx = msg;
                as_getx.kind = MsgKind::GetX;
                self.dir_start(now, as_getx);
            }
            (k, s) => unreachable!("home received {k:?} in state {s:?}"),
        }
    }

    /// Marks the entry busy until the requester's [`MsgKind::GrantAck`]
    /// arrives (no other completion is outstanding; memory-served grants
    /// have no previous owner).
    fn hold_for_grant(&mut self, home: usize, msg: Msg, state_seen: HomeState) {
        self.dirs[home].entry(msg.block.0).pending = Some(Pending {
            msg,
            acks_outstanding: 0,
            mem_ready: 0,
            awaiting_wb: false,
            state_seen,
            prev_owner: usize::MAX,
            remaining: 1,
        });
    }

    /// Unloaded latency of an upgrade transaction without third-party
    /// sharers, ns.
    fn unloaded_upgrade_ns(&self, req: usize, home: usize) -> u64 {
        self.cfg.probe_ns()
            + self.cfg.ctrl_ns
            + self.cfg.unloaded_msg_ns(req, home, self.cfg.control_flits)
            + self.cfg.ctrl_ns
            + self.cfg.unloaded_msg_ns(home, req, self.cfg.control_flits)
            + self.cfg.ctrl_ns
    }

    /// Replacement hints mutate the sharer set immediately, even while a
    /// transaction is pending. This is safe because pending transactions
    /// snapshot everything they need at start (invalidation targets,
    /// unloaded latency) and write their final state wholesale on
    /// completion; the hint only ever *removes* a sharer, and a removed
    /// sharer still acks the invalidation it may already have been sent.
    fn home_repl_hint(&mut self, msg: &Msg) {
        let entry = self.dirs[msg.dst].entry(msg.block.0);
        match &mut entry.state {
            DirState::Shared(set) => {
                set.remove(&msg.src);
                if set.is_empty() {
                    entry.state = DirState::Uncached;
                }
            }
            DirState::Exclusive(o) if *o == msg.src => {
                entry.state = DirState::Uncached;
            }
            _ => {}
        }
    }

    fn home_writeback(&mut self, now: Time, msg: Msg) {
        let entry = self.dirs[msg.dst].entry(msg.block.0);
        let from_owner = matches!(entry.state, DirState::Exclusive(o) if o == msg.src);
        let awaiting_wb = entry.pending.as_ref().is_some_and(|p| p.awaiting_wb);
        if entry.pending.is_some() {
            if awaiting_wb && from_owner {
                entry.state = DirState::Uncached;
                self.serve_from_memory(now, msg.dst, msg.block);
                return;
            }
            // Bank the writeback for the FetchNack that will follow.
            if from_owner {
                entry.state = DirState::Uncached;
            }
            entry.wb_banked = true;
            return;
        }
        if from_owner {
            entry.state = DirState::Uncached;
        }
    }

    /// Completes the pending request from memory after the owner's
    /// writeback arrived; the transaction stays busy until the grant ack.
    fn serve_from_memory(&mut self, now: Time, home: usize, block: BlockAddr) {
        let ctrl = self.ctrl_ps();
        let mem = self.cfg.mem_ns * 1000;
        let entry = self.dirs[home].entry(block.0);
        let p = entry
            .pending
            .as_mut()
            .expect("serve_from_memory without pending");
        p.awaiting_wb = false;
        p.remaining = 1; // only the grant ack remains
        let (req, state_seen, prev_owner, pmsg) =
            (p.msg.requester, p.state_seen, p.prev_owner, p.msg);
        entry.state = DirState::Exclusive(req);
        let mut reply = pmsg;
        reply.kind = MsgKind::DataE;
        reply.src = home;
        reply.dst = req;
        reply.home_state = state_seen;
        reply.owner = prev_owner;
        // Served from memory after a writeback: clean 2-hop timing.
        reply.unloaded_ns = self.cfg.unloaded_clean_ns(req, home);
        self.send(reply, now + ctrl + mem);
    }

    fn home_inval_ack(&mut self, now: Time, msg: Msg) {
        let ctrl = self.ctrl_ps();
        let entry = self.dirs[msg.dst].entry(msg.block.0);
        let p = entry
            .pending
            .as_mut()
            .expect("InvalAck without pending transaction");
        p.acks_outstanding -= 1;
        if p.acks_outstanding > 0 {
            return;
        }
        let (req, kind, mem_ready, pmsg) = (p.msg.requester, p.msg.kind, p.mem_ready, p.msg);
        entry.state = DirState::Exclusive(req);
        let mut reply = pmsg;
        reply.src = msg.dst;
        reply.dst = req;
        match kind {
            MsgKind::GetX => {
                reply.kind = MsgKind::DataE;
                self.send(reply, (now + ctrl).max(mem_ready));
            }
            MsgKind::Upgrade => {
                reply.kind = MsgKind::UpgAck;
                self.send(reply, now + ctrl);
            }
            other => unreachable!("acks collected for {other:?}"),
        }
        // The entry stays busy until the requester's grant ack.
    }

    /// Applies one completion acknowledgement of the pending transaction:
    /// optionally installs the final directory state, then decrements the
    /// outstanding-ack count and finishes the transaction at zero.
    fn dir_ack_progress(&mut self, now: Time, msg: &Msg, final_state: Option<DirState>) {
        let entry = self.dirs[msg.dst].entry(msg.block.0);
        let p = entry
            .pending
            .as_mut()
            .unwrap_or_else(|| panic!("{:?} without pending transaction", msg.kind));
        p.remaining -= 1;
        let done = p.remaining == 0;
        if let Some(state) = final_state {
            entry.state = state;
        }
        if done {
            self.dir_complete(now, msg.dst, msg.block);
        }
    }

    fn home_down_ack(&mut self, now: Time, msg: Msg) {
        let p = self.dirs[msg.dst]
            .entry(msg.block.0)
            .pending
            .as_ref()
            .expect("DownAck without pending transaction");
        let mut set = std::collections::BTreeSet::new();
        set.insert(p.prev_owner);
        set.insert(p.msg.requester);
        self.dir_ack_progress(now, &msg, Some(DirState::Shared(set)));
    }

    fn home_owner_ack(&mut self, now: Time, msg: Msg) {
        let req = self.dirs[msg.dst]
            .entry(msg.block.0)
            .pending
            .as_ref()
            .expect("OwnerAck without pending transaction")
            .msg
            .requester;
        self.dir_ack_progress(now, &msg, Some(DirState::Exclusive(req)));
    }

    fn home_grant_ack(&mut self, now: Time, msg: Msg) {
        self.dir_ack_progress(now, &msg, None);
    }

    fn home_fetch_nack(&mut self, now: Time, msg: Msg) {
        let entry = self.dirs[msg.dst].entry(msg.block.0);
        if entry.wb_banked {
            entry.wb_banked = false;
            self.serve_from_memory(now, msg.dst, msg.block);
        } else {
            let p = entry
                .pending
                .as_mut()
                .expect("FetchNack without pending transaction");
            p.awaiting_wb = true;
        }
    }

    /// Finishes the active transaction and lets one queued request proceed.
    fn dir_complete(&mut self, now: Time, home: usize, block: BlockAddr) {
        let entry = self.dirs[home].entry(block.0);
        entry.pending = None;
        entry.wb_banked = false;
        if let Some(next) = entry.queue.pop_front() {
            // Re-inject; the request pays another controller traversal.
            self.queue
                .push(now + self.ctrl_ps(), Event::MsgArrive(next));
        }
    }

    // ------------------------------------------------------------------
    // Remote cache side
    // ------------------------------------------------------------------

    fn cache_fetch(&mut self, now: Time, msg: Msg) {
        let n = msg.dst;
        let ctrl = self.ctrl_ps();
        let home = msg.src;
        if !self.nodes[n].l2.contains(msg.block) {
            // The grant-ack serialization guarantees our own fills are
            // complete before an intervention can arrive, so an absent
            // block means our writeback is in flight to the home.
            let mut nack = msg;
            nack.kind = MsgKind::FetchNack;
            nack.src = n;
            nack.dst = home;
            self.send(nack, now + ctrl);
            return;
        }
        match msg.kind {
            MsgKind::FetchS => {
                // Downgrade: keep a shared copy, forward data.
                self.nodes[n].owned.remove(&msg.block.0);
            }
            MsgKind::FetchInval => {
                let node = &mut self.nodes[n];
                node.l1.invalidate(msg.block);
                node.l2.invalidate(msg.block);
                node.owned.remove(&msg.block.0);
                node.stats.invals_received += 1;
            }
            _ => unreachable!("cache_fetch on {:?}", msg.kind),
        }
        let mut data = msg;
        data.kind = if msg.kind == MsgKind::FetchS {
            MsgKind::OwnerDataS
        } else {
            MsgKind::OwnerDataE
        };
        data.src = n;
        data.dst = msg.requester;
        self.send(data, now + ctrl);
        let mut ack = msg;
        ack.kind = if msg.kind == MsgKind::FetchS {
            MsgKind::DownAck
        } else {
            MsgKind::OwnerAck
        };
        ack.src = n;
        ack.dst = home;
        self.send(ack, now + ctrl);
    }

    fn cache_inval(&mut self, now: Time, msg: Msg) {
        let n = msg.dst;
        let ctrl = self.ctrl_ps();
        let home = msg.src;
        self.nodes[n].stats.invals_received += 1;
        // Grant-ack serialization guarantees no data fill for this block is
        // in flight toward us: either we hold the block (invalidate it), or
        // our own request is still queued at the home (nothing to do
        // locally — the later fill will carry fresh data). Either way the
        // home gets its ack immediately. An upgrade that lost the race is
        // also handled here: the home will serve our queued upgrade as a
        // full GetX.
        let node = &mut self.nodes[n];
        node.l1.invalidate(msg.block);
        node.l2.invalidate(msg.block);
        node.owned.remove(&msg.block.0);
        let mut ack = msg;
        ack.kind = MsgKind::InvalAck;
        ack.src = n;
        ack.dst = home;
        self.send(ack, now + ctrl);
    }

    // ------------------------------------------------------------------
    // Fill completion at the requester
    // ------------------------------------------------------------------

    fn complete_fill(&mut self, now: Time, msg: Msg) {
        let n = msg.dst;
        let ctrl = self.ctrl_ps();
        let done_at = now + ctrl;
        let entry = self.nodes[n]
            .mshr
            .remove(&msg.block.0)
            .expect("fill without an MSHR entry");
        let measured_ps = done_at.saturating_sub(entry.issue);
        // Penalty attribution: the stall window this fill terminates. Fills
        // arriving while the CPU is running were fully overlapped, and only
        // a fill that actually relieves the stall is charged — any fill
        // frees an MSHR, but a load-limit stall ends only with a load.
        let relieves = match self.nodes[n].state {
            CpuState::WaitMshr => true,
            CpuState::WaitLoadLimit => !entry.is_write && !entry.is_upgrade,
            _ => false,
        };
        let penalty_ps = if relieves {
            let p = self.nodes[n]
                .stalled_since
                .map_or(0, |since| done_at.saturating_sub(since));
            // Each stall window is billed once (to its first reliever).
            self.nodes[n].stalled_since = None;
            p
        } else {
            0
        };
        let cost = Cost(self.cfg.cost_mode.cost_of(
            measured_ps / 1000,
            msg.unloaded_ns,
            penalty_ps / 1000,
        ));

        // Table 3: consecutive-miss classification per (node, block).
        let class = MissClass {
            req: if entry.is_write {
                ReqType::RdExcl
            } else {
                ReqType::Read
            },
            home_state: msg.home_state,
            unloaded_ns: msg.unloaded_ns,
        };
        if let Some(last) = self.nodes[n].last_miss.insert(msg.block.0, class) {
            self.nodes[n].table3.record(last, class);
        }

        match msg.kind {
            MsgKind::UpgAck => {
                if self.nodes[n].l2.contains(msg.block) {
                    // The block was already accessed (and promoted) when the
                    // store issued; only refresh the cost prediction and the
                    // dirtiness — a second l2.access would double-promote
                    // and double-count the reference.
                    let node = &mut self.nodes[n];
                    node.owned.insert(msg.block.0);
                    node.l2.update_cost(msg.block, cost);
                    node.l2.writeback(msg.block);
                } else {
                    // Evicted while the upgrade was in flight: hand the
                    // (conceptually dirty) line straight back.
                    let home = self.home_of(msg.block, n);
                    self.nodes[n].stats.writebacks += 1;
                    self.send(
                        Msg::request(MsgKind::WriteBack, n, home, msg.block, done_at),
                        done_at,
                    );
                }
            }
            MsgKind::DataS | MsgKind::DataE | MsgKind::OwnerDataS | MsgKind::OwnerDataE => {
                let op = if entry.is_write || entry.wants_write {
                    AccessType::Write
                } else {
                    AccessType::Read
                };
                if !entry.is_upgrade {
                    // An upgrade that lost its race and was re-served as a
                    // GetX was already counted as an L2 hit at issue time;
                    // counting the data fill again would double-count it.
                    let node = &mut self.nodes[n];
                    node.stats.l2_misses += 1;
                    node.stats.miss_latency_ps += measured_ps;
                }
                let out = self.nodes[n].l2.access(msg.block, op, cost);
                if let Some(ev) = out.evicted {
                    self.handle_l2_eviction(now, n, ev);
                }
                self.fill_l1(n, msg.block, op);
                if matches!(msg.kind, MsgKind::DataE | MsgKind::OwnerDataE) {
                    self.nodes[n].owned.insert(msg.block.0);
                } else if entry.wants_write {
                    // A store merged into this read transaction while it was
                    // in flight; the shared grant does not confer ownership,
                    // so acquire it now with an upgrade.
                    self.nodes[n].mshr.insert(
                        msg.block.0,
                        MshrEntry {
                            is_write: true,
                            is_upgrade: true,
                            issue: done_at,
                            wants_write: true,
                        },
                    );
                    self.nodes[n].stats.upgrades += 1;
                    let home = self.home_of(msg.block, n);
                    self.send(
                        Msg::request(MsgKind::Upgrade, n, home, msg.block, done_at),
                        done_at + ctrl,
                    );
                }
            }
            other => unreachable!("complete_fill on {other:?}"),
        }

        // Release the home's transaction serialization.
        let home = self.home_of(msg.block, n);
        let mut grant = msg;
        grant.kind = MsgKind::GrantAck;
        grant.src = n;
        grant.dst = home;
        self.send(grant, done_at);

        // Loads allocate their entries with is_write == false; upgrades and
        // store misses never count against the load-overlap window.
        if !entry.is_write && !entry.is_upgrade {
            self.nodes[n].outstanding_loads -= 1;
        }
        if self.nodes[n].is_stalled() {
            self.queue.push(done_at, Event::CpuResume(n));
        }
    }

    fn handle_l2_eviction(&mut self, now: Time, n: usize, ev: cache_sim::Evicted) {
        let ctrl = self.ctrl_ps();
        self.nodes[n].l1.invalidate(ev.block);
        // A block with an in-flight upgrade is left to the UpgAck handler,
        // which returns the granted ownership with a WriteBack; sending a
        // ReplHint here as well would tell the home about the departure
        // twice.
        if self.nodes[n]
            .mshr
            .get(&ev.block.0)
            .is_some_and(|m| m.is_upgrade)
        {
            return;
        }
        let home = self.home_of(ev.block, n);
        if self.nodes[n].owned.remove(&ev.block.0) {
            self.nodes[n].stats.writebacks += 1;
            self.send(
                Msg::request(MsgKind::WriteBack, n, home, ev.block, now),
                now + ctrl,
            );
        } else if self.cfg.replacement_hints {
            self.nodes[n].stats.repl_hints += 1;
            self.send(
                Msg::request(MsgKind::ReplHint, n, home, ev.block, now),
                now + ctrl,
            );
        }
        // Without hints, clean shared evictions are silent: the home's
        // sharer set goes stale and later invalidations may target nodes
        // that no longer hold the block (they ack without a copy).
    }
}
