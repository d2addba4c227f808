//! Open-system serving: arrivals, admission control, retry budgets, the
//! metastability guard, the skew detector's load re-pack, and giving up.

use super::*;
use vt_core::{SurvivorPacking, TopologyKind};
use vt_simnet::{ArrivalGen, DetRng};

/// CHT busy-time skew (the hottest node's share over the mean across live
/// nodes) at or above which a detector tick counts as skewed.
const SKEW_THRESHOLD: f64 = 4.0;

/// Live serving-mode state: per-client arrival generators and retry
/// budgets, the metastability guard, the skew detector, and the counters
/// the serve report is built from.
#[derive(Default)]
pub(super) struct ServeState {
    /// Activity counters for the report.
    pub(super) stats: ServeStats,
    /// Per-client arrival generators, indexed by rank.
    gens: Vec<ArrivalGen>,
    /// Remaining retry budget per client.
    budget: Vec<u32>,
    /// Arrivals seen in the current detector tick window.
    win_arrivals: u64,
    /// Admission sheds in the current detector tick window.
    win_sheds: u64,
    /// The metastability guard is engaged: retransmissions are suppressed
    /// until the windowed shed fraction falls back under the threshold.
    guard_active: bool,
    /// Admitted serve requests still in flight (keeps the detector ticking
    /// through the post-horizon drain).
    active: u32,
    /// Clients whose arrival stream has passed the horizon.
    arrivals_done: u32,
    /// Consecutive detector ticks that saw hot-spot skew at or above the
    /// threshold.
    skew_streak: u32,
    /// A load-triggered re-pack was already requested this run (one per
    /// run: the escalation is a step, not a control loop).
    repacked: bool,
    /// A load-triggered `EpochCommit` is in flight; the commit that lands
    /// it counts toward `stats.load_repacks`.
    pending_load_repack: bool,
    /// Per-node CHT busy time as of the previous detector tick (the skew
    /// signal is the busy-time *delta* per tick: queueing hides inside the
    /// network's time reservations, so CHT queue length alone stays flat
    /// even at a saturated hot spot). Lazily sized on the first tick.
    busy_seen: Vec<SimTime>,
    /// Completed-request latencies (µs), in completion order.
    pub(super) latencies_us: Vec<f64>,
}

impl ServeState {
    /// The serving state for `cfg`, or `None` with serving off.
    pub(super) fn new(cfg: &RuntimeConfig) -> Option<Self> {
        if !cfg.serve.enabled {
            return None;
        }
        // Per-client arrival streams on forked sub-streams: adding or
        // reordering clients never perturbs another client's arrivals.
        let root = DetRng::new(cfg.seed);
        Some(ServeState {
            gens: (0..cfg.n_procs)
                .map(|r| {
                    ArrivalGen::new(
                        cfg.serve.arrivals,
                        root.fork(0x5345_5256_0000_0000 | u64::from(r)),
                    )
                })
                .collect(),
            budget: vec![cfg.serve.retry_budget; cfg.n_procs as usize],
            ..ServeState::default()
        })
    }

    /// Whether serving still has arrivals to generate or admitted work in
    /// flight — the liveness condition for the detector ticks.
    pub(super) fn live(&self) -> bool {
        self.arrivals_done < self.gens.len() as u32 || self.active > 0
    }
}

/// The next rung up the contention-attenuation ladder from `kind`, if one
/// exists and covers `n` nodes: each step trades edge degree for forwarding
/// depth, attenuating many-to-one convergence at a hot node. `None` from
/// the hypercube (already minimal-degree) or when the candidate cannot
/// cover `n`.
fn escalate_kind(kind: TopologyKind, n: u32) -> Option<TopologyKind> {
    let next = match kind {
        TopologyKind::Fcg => Some(TopologyKind::Mfcg),
        TopologyKind::Mfcg => Some(TopologyKind::Cfcg),
        TopologyKind::Cfcg => Some(TopologyKind::KFcg(4)),
        TopologyKind::KFcg(k) => k.checked_add(1).map(TopologyKind::KFcg),
        TopologyKind::Hypercube => None,
    };
    next.filter(|k| k.supports(n))
}

impl Engine {
    /// Schedules every client's first arrival and the first detector tick.
    pub(super) fn start_serving(&mut self) {
        if self.serve.is_none() {
            return;
        }
        for r in 0..self.cfg.n_procs {
            self.schedule_next_arrival(Rank(r));
        }
        self.queue.schedule(self.cfg.serve.tick, Event::ServeTick);
    }

    /// Draws `rank`'s next inter-arrival gap and schedules the arrival if
    /// it still lands inside the serving horizon.
    fn schedule_next_arrival(&mut self, rank: Rank) {
        let Some(s) = &mut self.serve else {
            return;
        };
        let at = s.gens[rank.idx()].next_arrival();
        if at < self.cfg.serve.horizon {
            self.queue.schedule(at, Event::ClientArrival { rank });
        } else {
            s.arrivals_done += 1;
        }
    }

    /// A client request arrives from the open world: admit it (bounded by
    /// the per-client in-flight cap) or shed it deterministically.
    pub(super) fn client_arrival(&mut self, now: SimTime, rank: Rank) {
        self.schedule_next_arrival(rank);
        if matches!(self.procs[rank.idx()].phase, Phase::Lost | Phase::Failed) {
            return; // A dead client generates no load.
        }
        let Some(s) = &mut self.serve else {
            return;
        };
        let phase_idx = self.cfg.serve.arrivals.phase_at(now).index();
        s.stats.arrivals += 1;
        s.stats.arrivals_by_phase[phase_idx] += 1;
        s.win_arrivals += 1;
        if self.procs[rank.idx()].outstanding >= self.cfg.serve.queue_cap {
            // Admission control: the client's in-flight window is full. The
            // shed arrival still consumes a sequence number so admitted
            // timelines are insensitive to diagnostic bookkeeping.
            let seq = self.next_seq;
            self.next_seq += 1;
            s.stats.sheds += 1;
            s.stats.sheds_by_phase[phase_idx] += 1;
            s.win_sheds += 1;
            self.faults.sheds += 1;
            // Keep a bounded sample of shed diagnostics: a saturated run
            // sheds millions of arrivals and the vector is per-failure.
            if s.stats.sheds <= 8 {
                self.failures.push(SimError::Overloaded {
                    at: now,
                    rank,
                    seq,
                    depth: self.procs[rank.idx()].outstanding,
                    cap: self.cfg.serve.queue_cap,
                });
            }
            return;
        }
        s.stats.admitted += 1;
        s.active += 1;
        let hot = Rank(self.cfg.serve.hot_rank);
        self.issue_op(now, rank, Op::fetch_add(hot, 1), false, true);
    }

    /// A serve request timed out with its client up: give up once its
    /// attempts, the client's budget or the guard say so; else retransmit.
    pub(super) fn serve_retry(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        if r.attempt >= self.cfg.retry.max_retries {
            self.serve_give_up(req);
            return;
        }
        let Some(s) = &mut self.serve else {
            return;
        };
        let budget = &mut s.budget[r.origin.idx()];
        if s.guard_active || *budget == 0 {
            // The metastability guard (or an exhausted per-client retry
            // budget) sheds the retransmission instead of amplifying an
            // already-overloaded system.
            s.stats.shed_retries += 1;
            self.serve_give_up(req);
            return;
        }
        *budget -= 1;
        s.stats.retries += 1;
        s.stats.retries_by_phase[self.cfg.serve.arrivals.phase_at(now).index()] += 1;
        self.retransmit(now, req);
    }

    /// Periodic serving-control tick: evaluates the metastability guard
    /// over the last window and the hot-spot skew detector that triggers a
    /// load re-pack, then re-arms itself while the open system is live.
    pub(super) fn serve_tick(&mut self, now: SimTime) {
        let Some(s) = self.serve.as_mut().filter(|s| s.live()) else {
            return; // All arrivals landed and drained: stop ticking.
        };
        // Metastability guard: when the shed fraction over the last tick
        // window crosses the threshold, suppress retransmissions until the
        // window looks healthy again (retry storms are what tip an
        // overloaded open system into the metastable regime).
        let (arr, sheds) = (s.win_arrivals, s.win_sheds);
        s.win_arrivals = 0;
        s.win_sheds = 0;
        #[allow(clippy::cast_precision_loss)]
        let frac = if arr == 0 {
            0.0
        } else {
            sheds as f64 / arr as f64
        };
        if frac >= self.cfg.serve.guard_threshold {
            if !s.guard_active {
                s.guard_active = true;
                s.stats.guard_trips += 1;
            }
        } else {
            s.guard_active = false;
        }
        // Hot-spot skew detector: a sustained imbalance of per-tick CHT
        // busy time (queue depth hides inside the network's time
        // reservations) escalates the topology kind one rung up the
        // attenuation ladder and commits it as a membership epoch under
        // live traffic.
        let repack = self.cfg.serve.load_repack && !s.repacked;
        if let Some(m) = self.view.as_mut().filter(|m| repack && !m.pending_commit) {
            let n_nodes = self.layout.num_nodes();
            s.busy_seen.resize(n_nodes as usize, SimTime::ZERO);
            let (mut total, mut max) = (0u64, 0u64);
            for node in 0..n_nodes as usize {
                let seen = self.cht_busy_total[node];
                let delta = seen.saturating_sub(s.busy_seen[node]).as_nanos();
                s.busy_seen[node] = seen;
                total += delta;
                max = max.max(delta);
            }
            #[allow(clippy::cast_precision_loss)]
            let skewed =
                total > 0 && max as f64 >= SKEW_THRESHOLD * (total as f64 / f64::from(n_nodes));
            if skewed {
                s.skew_streak += 1;
            } else {
                s.skew_streak = 0;
            }
            if s.skew_streak >= self.cfg.serve.skew_ticks {
                let current = m
                    .packing
                    .as_ref()
                    .map_or(self.cfg.topology, SurvivorPacking::kind);
                // One step per run; at the top of the ladder, stop probing.
                s.repacked = true;
                if let Some(kind) = escalate_kind(current, n_nodes) {
                    s.pending_load_repack = true;
                    m.repack_kind = kind;
                    self.request_commit(now);
                }
            }
        }
        self.queue
            .schedule(now + self.cfg.serve.tick, Event::ServeTick);
    }

    /// An epoch committed `kind`: a load re-pack if the skew detector asked.
    pub(super) fn load_repack_landed(&mut self, kind: TopologyKind) {
        if let Some(s) = &mut self.serve {
            if std::mem::take(&mut s.pending_load_repack) {
                s.stats.load_repacks += 1;
                s.stats.repack_kind = Some(kind);
            }
        }
    }

    /// Serve-side accounting of a completed client request `r`.
    pub(super) fn serve_completed(&mut self, now: SimTime, r: &Request) {
        if let Some(s) = self.serve.as_mut().filter(|_| r.serve) {
            s.active -= 1;
            s.stats.completed += 1;
            s.latencies_us.push((now - r.issued).as_micros_f64());
        }
    }

    /// Abandons serve-mode request `req`: the client stops waiting, the
    /// operation is marked resolved (squelching late responses and parked
    /// retries), and the accounting that keeps the open system drainable is
    /// closed out. Never fails the client rank — giving up on one request
    /// is normal overload behaviour, not a crash. The slot stays until its
    /// copy's journey ends.
    pub(super) fn serve_give_up(&mut self, req: ReqId) {
        let r = self.requests[req as usize];
        if self.settle(&r) != OpState::Open {
            return; // Already resolved by a racing path.
        }
        self.faults.failed_ops += 1;
        self.procs[r.origin.idx()].outstanding -= 1;
        if let Some(s) = &mut self.serve {
            s.stats.gave_up += 1;
            s.active -= 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::tests::{hotspot_program, run_all, small_cfg};
    use super::*;
    use crate::workload::ScriptProgram;

    fn serve_cfg(n_procs: u32, topo: TopologyKind, rate: f64) -> RuntimeConfig {
        let mut cfg = small_cfg(n_procs, topo);
        cfg.serve = crate::config::ServeConfig::on(
            vt_simnet::ArrivalProcess::steady(rate),
            SimTime::from_millis(2),
        );
        cfg
    }

    fn idle_programs(cfg: &RuntimeConfig) -> Vec<Box<dyn Program>> {
        (0..cfg.n_procs)
            .map(|_| Box::new(ScriptProgram::new(vec![])) as Box<dyn Program>)
            .collect()
    }

    #[test]
    fn serve_open_system_drains_and_balances_its_ledger() {
        let cfg = serve_cfg(8, TopologyKind::Fcg, 50_000.0);
        let report = Engine::new(cfg, idle_programs(&cfg))
            .run()
            .expect("serve run completes");
        let s = report.serve;
        assert!(s.arrivals > 50, "expected real load, got {s:?}");
        assert_eq!(s.arrivals, s.admitted + s.sheds);
        assert_eq!(s.admitted, s.completed + s.gave_up);
        assert_eq!(s.completed, report.serve_latencies_us.len() as u64);
        assert_eq!(report.credit_leaks, 0);
        // Exactly-once: the hot counter holds every applied increment —
        // all completions, plus possibly some abandoned ops whose effect
        // landed after the client stopped waiting.
        let hot = report.fetch_finals[0] as u64;
        assert!(hot >= s.completed && hot <= s.admitted, "{hot} vs {s:?}");
        assert!(report.finish_time >= SimTime::from_millis(2));
    }

    #[test]
    fn serve_overload_sheds_deterministically() {
        let run = || {
            let mut cfg = serve_cfg(8, TopologyKind::Fcg, 400_000.0);
            cfg.serve.queue_cap = 2;
            Engine::new(cfg, idle_programs(&cfg))
                .run()
                .expect("overloaded serve run still completes")
        };
        let a = run();
        let b = run();
        assert!(a.serve.sheds > 0, "cap 2 at 400k/s/client must shed");
        assert!(a.faults.sheds == a.serve.sheds);
        assert!(!a.failures.is_empty(), "shed diagnostics recorded");
        assert!(
            a.failures.len() <= 8,
            "diagnostics stay bounded: {}",
            a.failures.len()
        );
        assert!(matches!(a.failures[0], SimError::Overloaded { .. }));
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.serve, b.serve);
        assert_eq!(a.events, b.events);
        assert_eq!(a.serve_latencies_us, b.serve_latencies_us);
    }

    #[test]
    fn serve_disabled_config_is_byte_identical_to_baseline() {
        let base = run_all(small_cfg(9, TopologyKind::Mfcg), hotspot_program);
        // Same run with serving machinery compiled in but disabled.
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.serve = crate::config::ServeConfig::default();
        assert!(!cfg.serve.enabled);
        let off = run_all(cfg, hotspot_program);
        assert_eq!(base.finish_time, off.finish_time);
        assert_eq!(base.events, off.events);
        assert_eq!(base.net, off.net);
        assert_eq!(off.serve, crate::metrics::ServeStats::default());
        assert!(off.serve_latencies_us.is_empty());
    }

    #[test]
    fn serve_load_repack_commits_epoch_under_traffic() {
        let mut cfg = serve_cfg(16, TopologyKind::Fcg, 100_000.0);
        cfg.procs_per_node = 1;
        cfg.serve.horizon = SimTime::from_millis(4);
        cfg.serve.load_repack = true;
        cfg.serve.tick = SimTime::from_micros(100);
        cfg.serve.skew_ticks = 2;
        let report = Engine::new(cfg, idle_programs(&cfg))
            .run()
            .expect("load-repack run completes");
        let s = report.serve;
        assert_eq!(s.load_repacks, 1, "{s:?}");
        assert_eq!(report.repair.epoch_bumps, 1, "{:?}", report.repair);
        assert_eq!(report.repair.final_epoch, 1);
        assert_eq!(report.credit_leaks, 0);
        assert_eq!(s.admitted, s.completed + s.gave_up);
        let hot = report.fetch_finals[0] as u64;
        assert!(hot >= s.completed && hot <= s.admitted, "{hot} vs {s:?}");
        // Traffic kept flowing across the commit: requests completed both
        // before and after the epoch bump (drained set non-trivial OR
        // completions continued — check completions outnumber what could
        // drain pre-commit is too timing-coupled, so assert drain + flow).
        assert!(s.completed > 0);
    }

    #[test]
    fn serve_retry_budget_and_guard_bound_retransmissions() {
        let run = |budget: u32, guard: f64| {
            let mut cfg = serve_cfg(8, TopologyKind::Fcg, 400_000.0);
            cfg.serve.queue_cap = 8;
            cfg.serve.retry_budget = budget;
            cfg.serve.guard_threshold = guard;
            // A tight timeout forces retries under queueing delay alone.
            cfg.retry.timeout = SimTime::from_micros(20);
            Engine::new(cfg, idle_programs(&cfg))
                .run()
                .expect("serve run completes")
        };
        let strict = run(0, 1.0);
        assert_eq!(strict.serve.retries, 0, "budget 0 must suppress retries");
        assert!(strict.serve.shed_retries > 0, "{:?}", strict.serve);
        let loose = run(16, 1.0);
        assert!(loose.serve.retries > 0, "{:?}", loose.serve);
        // Per-client budgets bound total serve retransmissions.
        assert!(loose.serve.retries <= 16 * 8);
    }

    #[test]
    fn serve_state_is_bounded_by_in_flight_work() {
        // Request slots and per-operation records are recycled once nothing
        // can name them: a steady open system peaks at the same slab size
        // and record count whatever its horizon, instead of keeping one
        // entry per request ever issued.
        let peaks = |horizon_ms: u64| {
            let mut cfg = serve_cfg(8, TopologyKind::Fcg, 100_000.0);
            cfg.serve.horizon = SimTime::from_millis(horizon_ms);
            // A tight timeout makes requests retry, so operations hold
            // several slots and late responses outlive completions.
            cfg.retry.timeout = SimTime::from_micros(20);
            let mut engine = Engine::new(cfg, idle_programs(&cfg));
            engine.start();
            let mut ops_peak = 0;
            while let Some((now, ev)) = engine.queue.pop() {
                engine.dispatch(now, ev);
                let ops = engine.recovery.as_ref().map_or(0, Recovery::ops);
                ops_peak = ops_peak.max(ops);
            }
            let stats = engine.serve.as_ref().unwrap().stats;
            (engine.requests.len(), ops_peak, stats)
        };
        let (slab_short, ops_short, short) = peaks(2);
        let (slab_long, ops_long, long) = peaks(8);
        assert!(long.retries > 0, "{long:?}");
        assert!(
            long.completed >= 3 * short.completed,
            "{short:?} vs {long:?}"
        );
        assert!(
            2 * slab_long <= 3 * slab_short,
            "slab peak {slab_short} -> {slab_long}"
        );
        assert!(
            2 * ops_long <= 3 * ops_short,
            "record peak {ops_short} -> {ops_long}"
        );
    }

    #[test]
    fn serve_envelope_slots_are_recycled() {
        // Coalesced serving over a forwarding topology: every envelope slot
        // is free once the run drains, and the envelope slab peaks at the
        // same size whatever the horizon.
        let envelopes = |horizon_ms: u64| {
            let mut cfg = serve_cfg(16, TopologyKind::Mfcg, 100_000.0);
            cfg.procs_per_node = 1;
            cfg.coalesce = crate::config::CoalesceConfig::on();
            cfg.serve.horizon = SimTime::from_millis(horizon_ms);
            cfg.retry.timeout = SimTime::from_micros(20);
            let mut engine = Engine::new(cfg, idle_programs(&cfg));
            engine.start();
            while let Some((now, ev)) = engine.queue.pop() {
                engine.dispatch(now, ev);
            }
            assert_eq!(
                engine.free_envs.len(),
                engine.envelopes.len(),
                "envelope slots still taken after a {horizon_ms} ms run"
            );
            (engine.envelopes.len(), engine.coalesce.envelopes)
        };
        let (slab_short, assembled_short) = envelopes(2);
        let (slab_long, assembled_long) = envelopes(8);
        assert!(slab_short > 0, "no envelope formed");
        assert!(
            assembled_long >= 3 * assembled_short,
            "{assembled_short} -> {assembled_long} envelopes"
        );
        assert!(
            2 * slab_long <= 3 * slab_short,
            "envelope slab peak {slab_short} -> {slab_long}"
        );
    }

    // ----- transient faults: reboots, partitions, corruption --------------

    #[test]
    fn serve_escalation_ladder_respects_node_support() {
        assert_eq!(
            escalate_kind(TopologyKind::Fcg, 16),
            Some(TopologyKind::Mfcg)
        );
        assert_eq!(
            escalate_kind(TopologyKind::Mfcg, 16),
            Some(TopologyKind::Cfcg)
        );
        assert_eq!(
            escalate_kind(TopologyKind::Cfcg, 16),
            Some(TopologyKind::KFcg(4))
        );
        // The hypercube is already minimal-degree: no rung above it.
        assert_eq!(escalate_kind(TopologyKind::Hypercube, 16), None);
        // A k-FCG past the dimension bound has nowhere to go.
        assert_eq!(escalate_kind(TopologyKind::KFcg(u8::MAX), 16), None);
    }
}
