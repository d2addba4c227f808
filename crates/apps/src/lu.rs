//! NAS LU proxy (paper §VI-A, Fig. 8).
//!
//! The NAS LU benchmark applies SSOR sweeps to a 3-D grid decomposed into
//! vertical pencils over a 2-D process grid. Its communication is
//! *neighbour-only*: every sweep exchanges block faces with the four mesh
//! neighbours, and an iteration ends in a global synchronisation. There is
//! no hot spot — which is exactly why the paper finds all virtual topologies
//! performing comparably on LU, with a slight edge for the leaner
//! topologies (smaller CHT pools → less cache pressure) at lower process
//! counts.
//!
//! Face exchanges use `ARMCI_PutV`-style strided transfers (a face of a 3-D
//! block is noncontiguous), so they do traverse the CHT and the virtual
//! topology; with dense rank placement, mesh neighbours usually live on the
//! same node or on a directly-connected one, so MFCG forwards only a small
//! fraction of them.

use vt_armci::{Action, Op, ProcCtx, Program, Rank, RuntimeConfig, Simulation};
use vt_core::TopologyKind;
use vt_simnet::SimTime;

/// Configuration of one LU run.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Total ranks (must admit a near-square 2-D factorisation).
    pub n_procs: u32,
    /// Processes per node. Paper: 4 on the XT5 runs at this scale.
    pub ppn: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Grid points per side (class C = 162).
    pub grid_points: u32,
    /// SSOR time steps (class C = 250).
    pub iterations: u32,
    /// Serial compute seconds per time step (divided evenly over ranks).
    pub serial_seconds_per_iter: f64,
    /// Model the SSOR wavefront *dependencies* with notify-carrying faces.
    ///
    /// Real LU pipelines the wavefront at k-plane granularity (~160 planes
    /// per sweep), which keeps the fill cost below a few percent but would
    /// multiply the event count beyond what is practical to simulate at
    /// 1 536 processes. With `wavefront = false` (the default, used for
    /// Fig. 8) sweeps synchronise only at the per-iteration barrier — the
    /// right cost model when the pipeline is fine-grained. With
    /// `wavefront = true` faces carry notifications and each sweep is a
    /// genuine whole-block wavefront; use it at small scale to study
    /// dependency-driven behaviour.
    pub wavefront: bool,
    /// Root seed.
    pub seed: u64,
}

impl LuConfig {
    /// A class-C-like configuration calibrated to the paper's magnitudes
    /// (~1 200 s at 192 processes, strong-scaling down from there).
    ///
    /// 12 processes per node, as on the XT5's 12-core nodes — which also
    /// makes the node counts of the paper's process counts (192–1 536)
    /// powers of two, so the Hypercube is constructible.
    pub fn class_c(n_procs: u32, topology: TopologyKind) -> Self {
        LuConfig {
            n_procs,
            ppn: 12,
            topology,
            grid_points: 162,
            iterations: 250,
            serial_seconds_per_iter: 880.0,
            wavefront: false,
            seed: 0x001_u64,
        }
    }
}

/// Result of one LU run.
#[derive(Clone, Copy, Debug)]
pub struct LuOutcome {
    /// Total execution time in seconds — the paper's Fig. 8 quantity.
    pub exec_seconds: f64,
    /// Fraction of CHT requests that needed forwarding.
    pub forward_fraction: f64,
    /// BEER slow-path events (should stay near zero: no hot spot).
    pub stream_misses: u64,
}

/// Near-square factorisation `px × py = n` with `px ≤ py`.
///
/// # Panics
/// Panics if `n` has no factorisation with `px ≥ 2` other than `1 × n` and
/// `n > 3` (prime process counts don't appear in NAS configurations).
pub fn process_grid(n: u32) -> (u32, u32) {
    assert!(n >= 1);
    let mut px = (n as f64).sqrt().floor() as u32;
    while px > 1 && !n.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), n / px.max(1))
}

struct LuProgram {
    rank: Rank,
    cfg: LuConfig,
    px: u32,
    py: u32,
    iter: u32,
    step: u8,
    /// Cumulative notification threshold this rank has waited up to.
    expected: u64,
    face_x: Op, // exchange with the ±x (same-row) neighbours
    face_y: Op, // exchange with the ±y neighbours
}

impl LuProgram {
    fn new(rank: Rank, cfg: LuConfig) -> Self {
        let (px, py) = process_grid(cfg.n_procs);
        let n = u64::from(cfg.grid_points);
        // A pencil is (n/px) x (n/py) x n points, 5 solution variables of
        // 8 bytes each. The x-face spans (n/py) x n points.
        let x_face_bytes = (n / u64::from(px).max(1)).max(1) * n * 5 * 8 / 8; // one variable slab per exchange step
        let y_face_bytes = (n / u64::from(py).max(1)).max(1) * n * 5 * 8 / 8;
        let segs = cfg.grid_points.clamp(1, 64);
        LuProgram {
            rank,
            cfg,
            px,
            py,
            iter: 0,
            step: 0,
            expected: 0,
            face_x: Op::put_v(rank, segs, (x_face_bytes / u64::from(segs)).max(8)),
            face_y: Op::put_v(rank, segs, (y_face_bytes / u64::from(segs)).max(8)),
        }
    }

    /// Number of upstream faces feeding this rank's *lower* sweep (from the
    /// south-west wavefront origin).
    fn upstream_lower(&self) -> u64 {
        let (x, y) = self.coords();
        u64::from(x > 0) + u64::from(y > 0)
    }

    /// Number of upstream faces feeding the *upper* sweep (from the
    /// north-east corner).
    fn upstream_upper(&self) -> u64 {
        let (x, y) = self.coords();
        u64::from(x + 1 < self.px) + u64::from(y + 1 < self.py)
    }

    fn coords(&self) -> (u32, u32) {
        (self.rank.0 % self.px, self.rank.0 / self.px)
    }

    fn neighbor(&self, dx: i32, dy: i32) -> Option<Rank> {
        let (x, y) = self.coords();
        let nx = x as i32 + dx;
        let ny = y as i32 + dy;
        if nx < 0 || ny < 0 || nx >= self.px as i32 || ny >= self.py as i32 {
            return None;
        }
        Some(Rank(ny as u32 * self.px + nx as u32))
    }

    fn compute_time(&self) -> SimTime {
        SimTime::from_micros_f64(
            self.cfg.serial_seconds_per_iter / f64::from(self.cfg.n_procs) * 1e6 / 2.0,
        )
    }
}

impl Program for LuProgram {
    fn next(&mut self, _ctx: &ProcCtx) -> Action {
        loop {
            if self.iter >= self.cfg.iterations {
                return Action::Done;
            }
            let step = self.step;
            self.step += 1;
            // One SSOR time step as a genuine wavefront: the lower sweep
            // waits for the south-west upstream faces (notify-carrying
            // puts), computes and pushes north-east; the upper sweep does
            // the reverse; a barrier closes the step (residual/global sum).
            // Notification thresholds are cumulative; the per-iteration
            // barrier keeps sweeps of different iterations from mixing.
            let action = match step {
                0 => {
                    if self.cfg.wavefront {
                        self.expected += self.upstream_lower();
                        Some(Action::WaitNotify(self.expected))
                    } else {
                        None
                    }
                }
                1 => Some(Action::Compute(self.compute_time())),
                2 => self.neighbor(1, 0).map(|nb| {
                    Action::Op(
                        Op {
                            target: nb,
                            ..self.face_x
                        }
                        .with_notify(),
                    )
                }),
                3 => self.neighbor(0, 1).map(|nb| {
                    Action::Op(
                        Op {
                            target: nb,
                            ..self.face_y
                        }
                        .with_notify(),
                    )
                }),
                4 => {
                    if self.cfg.wavefront {
                        self.expected += self.upstream_upper();
                        Some(Action::WaitNotify(self.expected))
                    } else {
                        None
                    }
                }
                5 => Some(Action::Compute(self.compute_time())),
                6 => self.neighbor(-1, 0).map(|nb| {
                    Action::Op(
                        Op {
                            target: nb,
                            ..self.face_x
                        }
                        .with_notify(),
                    )
                }),
                7 => self.neighbor(0, -1).map(|nb| {
                    Action::Op(
                        Op {
                            target: nb,
                            ..self.face_y
                        }
                        .with_notify(),
                    )
                }),
                8 => Some(Action::Barrier),
                _ => {
                    self.iter += 1;
                    self.step = 0;
                    None
                }
            };
            if let Some(a) = action {
                return a;
            }
        }
    }
}

/// Runs LU and reports the execution time.
///
/// # Panics
/// Panics if the simulation deadlocks; [`try_run`] is the non-panicking
/// variant.
pub fn run(cfg: &LuConfig) -> LuOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("LU run failed: {e}"))
}

/// Runs LU, surfacing abnormal simulation endings as a typed error.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the simulation deadlocks or
/// times out.
pub fn try_run(cfg: &LuConfig) -> Result<LuOutcome, crate::RunError> {
    let mut rt = RuntimeConfig::new(cfg.n_procs, cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    let sim = Simulation::build(rt, |rank| LuProgram::new(rank, *cfg));
    let report = sim.run()?;
    let handled = report.cht_totals.serviced + report.cht_totals.forwarded;
    Ok(LuOutcome {
        exec_seconds: report.finish_time.as_secs_f64(),
        forward_fraction: if handled == 0 {
            0.0
        } else {
            report.cht_totals.forwarded as f64 / handled as f64
        },
        stream_misses: report.net.stream_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(topology: TopologyKind) -> LuConfig {
        LuConfig {
            n_procs: 16,
            ppn: 4,
            topology,
            grid_points: 32,
            iterations: 3,
            serial_seconds_per_iter: 0.016,
            wavefront: false,
            seed: 3,
        }
    }

    #[test]
    fn wavefront_serialises_the_sweep() {
        // With whole-block wavefront dependencies, an iteration's critical
        // path crosses the process grid: execution must be substantially
        // longer than the dependency-free model, and bounded by the full
        // serialisation of all stages.
        let free = run(&tiny(TopologyKind::Fcg));
        let mut wf_cfg = tiny(TopologyKind::Fcg);
        wf_cfg.wavefront = true;
        let wf = run(&wf_cfg);
        assert!(
            wf.exec_seconds > 1.5 * free.exec_seconds,
            "wavefront {} !>> free {}",
            wf.exec_seconds,
            free.exec_seconds
        );
    }

    #[test]
    fn wavefront_completes_on_all_topologies() {
        for kind in [TopologyKind::Mfcg, TopologyKind::Cfcg] {
            let mut cfg = tiny(kind);
            cfg.wavefront = true;
            let out = run(&cfg);
            assert!(out.exec_seconds > 0.0);
        }
    }

    #[test]
    fn process_grid_factors() {
        assert_eq!(process_grid(192), (12, 16));
        assert_eq!(process_grid(384), (16, 24));
        assert_eq!(process_grid(768), (24, 32));
        assert_eq!(process_grid(1536), (32, 48));
        assert_eq!(process_grid(16), (4, 4));
        assert_eq!(process_grid(1), (1, 1));
    }

    #[test]
    fn runs_and_scales_down_with_more_procs() {
        let small = run(&tiny(TopologyKind::Fcg));
        let mut bigger_cfg = tiny(TopologyKind::Fcg);
        bigger_cfg.n_procs = 64;
        let big = run(&bigger_cfg);
        assert!(small.exec_seconds > 0.0);
        assert!(
            big.exec_seconds < small.exec_seconds,
            "strong scaling: {} !< {}",
            big.exec_seconds,
            small.exec_seconds
        );
    }

    #[test]
    fn topologies_are_comparable_without_hot_spot() {
        let fcg = run(&tiny(TopologyKind::Fcg));
        let mfcg = run(&tiny(TopologyKind::Mfcg));
        let ratio = mfcg.exec_seconds / fcg.exec_seconds;
        assert!(
            (0.5..2.0).contains(&ratio),
            "LU should be topology-insensitive, got ratio {ratio}"
        );
    }

    #[test]
    fn mfcg_forwards_some_faces_fcg_none() {
        let fcg = run(&tiny(TopologyKind::Fcg));
        assert_eq!(fcg.forward_fraction, 0.0);
        let mut cfg = tiny(TopologyKind::Mfcg);
        cfg.n_procs = 64; // 16 nodes as a 4x4 mesh: some cross-row faces
        let mfcg = run(&cfg);
        assert!(mfcg.forward_fraction > 0.0);
        assert!(mfcg.forward_fraction < 0.9);
    }

    #[test]
    fn deterministic() {
        let a = run(&tiny(TopologyKind::Cfcg));
        let b = run(&tiny(TopologyKind::Cfcg));
        assert_eq!(a.exec_seconds, b.exec_seconds);
    }
}
