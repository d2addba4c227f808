//! Argument parsing and command implementations for the `vtsim` binary.
//!
//! Hand-rolled flag parsing (no CLI dependency): every command takes
//! `--flag value` pairs, unknown flags are errors, and each command has
//! defaults matching the paper's setups.

use std::collections::BTreeMap;
use std::num::NonZeroU32;
use vt_apps::chaos::{ChaosConfig, ChaosOutcome};
use vt_apps::contention::{ContentionConfig, OpSpec, Scenario};
use vt_apps::faults::FaultScenarioConfig;
use vt_apps::gups::GupsConfig;
use vt_apps::lu::LuConfig;
use vt_apps::nwchem_ccsd::CcsdConfig;
use vt_apps::nwchem_dft::DftConfig;
use vt_apps::repair::{RepairOutcome, RepairScenarioConfig};
use vt_apps::serve::{CurvePoint, ServeOutcome, ServeScenarioConfig};
use vt_apps::Table;
use vt_armci::OpKind;
use vt_core::json::{Fixed, Object};
use vt_core::{analyze, DependencyGraph, MemoryModel, RequestTree, TopologyKind, VirtualTopology};

/// The largest value a microsecond flag (`--kill-at-us`, `--horizon-us`,
/// `--retry-timeout-us`, `--tick-us`) accepts: one simulated hour, far
/// beyond any run the simulator can finish and far below the ~585 years
/// at which `u64` nanoseconds overflow.
pub const MAX_FLAG_US: u64 = 3_600_000_000;

/// A parsed `--key value` flag map.
#[derive(Debug, Default)]
pub struct Flags {
    map: BTreeMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    /// Returns a message for a dangling `--key` or a non-flag token.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{arg}'"))?;
            let val = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            map.insert(key.to_string(), val.clone());
        }
        Ok(Flags { map })
    }

    /// Takes a value, parsing it into `T`.
    pub fn take<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: '{v}'")),
        }
    }

    /// Takes a count (nodes, processes, processes per node): a positive
    /// integer, so a zero never reaches the layers that divide by it.
    pub fn take_count(&mut self, key: &str, default: u32) -> Result<u32, String> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<NonZeroU32>()
                .map(NonZeroU32::get)
                .map_err(|_| format!("invalid value for --{key}: '{v}' (a positive integer)")),
        }
    }

    /// Takes a microsecond flag as simulated time, refusing values above
    /// [`MAX_FLAG_US`] so no flag can push the clock near overflow.
    pub fn take_micros(&mut self, key: &str, default_us: u64) -> Result<vt_armci::SimTime, String> {
        let us: u64 = self.take(key, default_us)?;
        if us > MAX_FLAG_US {
            return Err(format!(
                "invalid value for --{key}: '{us}' (at most {MAX_FLAG_US} us, one simulated hour)"
            ));
        }
        Ok(vt_armci::SimTime::from_micros(us))
    }

    /// Takes `--seed` in decimal or in the `0x` hex form reports print.
    pub fn take_seed(&mut self, default: u64) -> Result<u64, String> {
        match self.map.remove("seed") {
            None => Ok(default),
            Some(v) => match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("invalid value for --seed: '{v}' (decimal or 0x hex)")),
        }
    }

    /// Takes an `on|off` switch.
    pub fn take_switch(&mut self, key: &str, default: bool) -> Result<bool, String> {
        match self.map.remove(key).as_deref() {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(format!("invalid value for --{key}: '{other}' (on|off)")),
        }
    }

    /// Takes `--format human|json`; true when JSON was asked for.
    pub fn take_format(&mut self) -> Result<bool, String> {
        match self.map.remove("format").as_deref() {
            None | Some("human") => Ok(false),
            Some("json") => Ok(true),
            Some(other) => Err(format!(
                "invalid value for --format: '{other}' (human|json)"
            )),
        }
    }

    /// Takes the topology flag.
    pub fn take_topology(&mut self, default: TopologyKind) -> Result<TopologyKind, String> {
        match self.map.remove("topology") {
            None => Ok(default),
            Some(v) => parse_topology(&v),
        }
    }

    /// Errors if any unrecognised flags remain.
    pub fn finish(self) -> Result<(), String> {
        if self.map.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "unknown flags: {}",
                self.map
                    .keys()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
    }
}

/// Parses a topology name (`fcg`, `mfcg`, `cfcg`, `hypercube`/`hc`, or the
/// generalised `kfcgN`).
pub fn parse_topology(s: &str) -> Result<TopologyKind, String> {
    match s {
        "fcg" => Ok(TopologyKind::Fcg),
        "mfcg" => Ok(TopologyKind::Mfcg),
        "cfcg" => Ok(TopologyKind::Cfcg),
        "hypercube" | "hc" => Ok(TopologyKind::Hypercube),
        other => other
            .strip_prefix("kfcg")
            .and_then(|k| k.parse::<u8>().ok())
            .filter(|&k| k >= 1)
            .map(TopologyKind::KFcg)
            .ok_or_else(|| format!("unknown topology '{other}' (fcg|mfcg|cfcg|hypercube|kfcgN)")),
    }
}

/// Parses a contention scenario: `none`, `11`, `20`, or `1/N`.
pub fn parse_scenario(s: &str) -> Result<Scenario, String> {
    match s {
        "none" | "0" => Ok(Scenario::NoContention),
        "11" => Ok(Scenario::pct11()),
        "20" => Ok(Scenario::pct20()),
        other => other
            .strip_prefix("1/")
            .and_then(|n| n.parse::<NonZeroU32>().ok())
            .map(|n| Scenario::Contention { every_nth: n.get() })
            .ok_or_else(|| format!("unknown scenario '{other}' (none|11|20|1/N)")),
    }
}

/// Parses an operation name into an [`OpSpec`].
pub fn parse_op(s: &str) -> Result<OpSpec, String> {
    match s {
        "putv" => Ok(OpSpec::vector_put()),
        "getv" => Ok(OpSpec::vector_get()),
        "fadd" | "fetch-add" => Ok(OpSpec::fetch_add()),
        "lock" => Ok(OpSpec::lock_unlock()),
        "acc" => Ok(OpSpec {
            kind: OpKind::Acc,
            segments: 1,
            seg_bytes: 8 * 1024,
        }),
        _ => Err(format!("unknown op '{s}' (putv|getv|fadd|lock|acc)")),
    }
}

/// The usage text. Each command's block starts with its name, indented
/// two columns; the block's further lines are indented to the flags.
const USAGE: &str = "\
vtsim — virtual-topology experiments (ICPP 2011 reproduction)

USAGE: vtsim <command> [--flag value]...

COMMANDS
  analyze     --topology K --nodes N [--ppn 4] [--credits 4]
              [--buffer-bytes 16384] [--coalesce off]
              [--fault none|crash|crash:N[,N...]]
              [--model on|off] [--format human|json] [--dot PATH]
              static protocol verification (acyclicity, totality, depth,
              budgets, small-N model check); exits non-zero when the
              configuration is not certified
  analyze     --matrix on [--format json]   full topology x coalescing x
              fault verification matrix (the CI gate)
  topo        --topology K --nodes N            inspect a topology
  dot         --topology K --nodes N [--tree R]  Graphviz DOT export
  memory      --nodes N [--ppn 12]              Fig. 5 memory table
  contention  --topology K --op OP --scenario S [--procs 1024] [--ppn 4]
              [--stride 16] [--iterations 20] [--coalesce off]
              Figs. 6/7 protocol (coalesce on|off folds shared-hop
              forwards into envelopes)
  lu          --procs N [--topology K] [--iterations 250]   Fig. 8
  dft         --cores N [--topology K] [--tasks N]          Fig. 9a
  ccsd        --cores N [--topology K]                      Fig. 9b
  gups        --procs N [--topology K] [--skew 0.0]         UPC-style
  faults      --topology K [--procs 256] [--ppn 4] [--ops 8]
              [--kill-at-us 300] [--membership on|off]
              forwarder-kill resilience experiment (membership adds
              failure detection + live epoch re-packing)
  repair      [--topology K --nodes N --victim V] [--ppn 2] [--ops 4]
              [--kill-at-us 50] [--format human|json]
              membership-repair experiment: crash an escape-critical
              boundary node the static analyzer refuses (defaults run
              both pins: mfcg/23 node 2 and cfcg/29 node 24) and
              complete the workload via epoch re-packing; exits
              non-zero unless every run completes with zero credit
              leaks and a certified post-repair topology
  serve       [--preset flash-crowd|steady|load-repack] [--topology K]
              [--nodes N] [--ppn P] [--rate R] [--peak X]
              [--horizon-us H] [--queue-cap Q] [--retry-budget B]
              [--retry-timeout-us 5000]
              [--guard 0.5] [--tick-us 250] [--load-repack on|off]
              [--curve 0.5,1,2,4] [--format human|json]
              open-system overload experiment: deterministic arrival
              processes drive every rank as a serving client past the
              hot CHT's saturation point; reports shed/goodput/latency
              percentiles (and the goodput-vs-offered-load curve with
              --curve); exits non-zero unless the exactly-once ledger
              balances with zero credit leaks
  chaos       [--cells 64] [--ppn 4] [--ops 12] [--seed 0xc4a0]
              [--threads 0] [--quick] [--format human|json]
              deterministic chaos campaign: randomised composite fault
              schedules (crashes, reboots, partitions, loss, payload
              corruption) over the topology x population grid, every
              cell checked against invariant oracles (completion, zero
              credit leaks, every corruption caught, exactly-once
              effects) plus double-run replay identity; failing
              schedules are greedily shrunk to a minimized reproducer;
              exits non-zero when any cell violates an invariant
  lint        [--root .] [--allow lint_allow.toml] [--format human|json]
              [--out PATH]
              workspace determinism & panic-policy static analyzer:
              D1 no unordered hash iteration in protocol paths, D2 no
              ambient nondeterminism in sim crates, D3 DetRng is the
              only randomness source, D4 no float accumulation in
              protocol state, P1 justified-panic audit; exits non-zero
              on any unallowlisted finding or stale allowlist entry
  bench       [--quick] [--repeats N] [--sizes 1024,4096,16384]
              [--topologies fcg,mfcg,cfcg,hypercube] [--serve on|off]
              [--out PATH]
              [--baseline BENCH_sim.json] [--max-regression-pct 50]
              simulator-core throughput on the frozen hot-spot
              workload; emits the BENCH_sim.json trajectory document
              and, with --baseline, exits non-zero on a regression

Topologies: fcg mfcg cfcg hypercube kfcgN. Scenarios: none 11 20 1/N.
Run `vtsim <command> --help` for one command's flags.
";

/// Usage text.
pub fn usage() -> String {
    USAGE.to_string()
}

/// Usage text of one command, its blocks under COMMANDS in [`USAGE`]
/// (`vtsim <command> --help`); `None` for an unknown command.
fn command_usage(cmd: &str) -> Option<String> {
    let mut blocks = String::new();
    let mut keep = false;
    let commands = USAGE.lines().skip_while(|l| *l != "COMMANDS").skip(1);
    for line in commands.take_while(|l| !l.is_empty()) {
        if !line.starts_with("   ") {
            keep = line.split_whitespace().next() == Some(cmd);
        }
        if keep {
            blocks.push_str(line);
            blocks.push('\n');
        }
    }
    (!blocks.is_empty()).then(|| format!("USAGE: vtsim {cmd} [--flag value]...\n\n{blocks}"))
}

/// Runs one command; returns the rendered output.
///
/// # Errors
/// Returns a usage/flag error message.
pub fn run_command(cmd: &str, args: &[String]) -> Result<String, String> {
    // `bench` and `chaos` follow the figure-harness convention of a bare
    // `--quick`; normalize it to the `--flag value` shape the parser
    // expects.
    if args.iter().any(|a| a == "--help") {
        return command_usage(cmd).ok_or_else(|| format!("unknown command '{cmd}'\n\n{USAGE}"));
    }
    let normalized;
    let args = if cmd == "bench" || cmd == "chaos" {
        normalized = normalize_bare_flags(args, &["--quick"]);
        &normalized[..]
    } else {
        args
    };
    let mut flags = Flags::parse(args)?;
    let out = match cmd {
        "analyze" => {
            let matrix = flags.take_switch("matrix", false)?;
            let json = flags.take_format()?;
            if matrix {
                let threads: usize = flags.take("threads", 0)?;
                flags.finish()?;
                return analyze_matrix(json, threads);
            }
            let topology = flags.take_topology(TopologyKind::Mfcg)?;
            let nodes = flags.take_count("nodes", 64)?;
            let ppn = flags.take_count("ppn", 4)?;
            let credits: u32 = flags.take("credits", 4)?;
            let buffer_bytes: u64 = flags.take("buffer-bytes", 16 * 1024)?;
            let coalesce = flags.take_switch("coalesce", false)?;
            let fault = flags.take("fault", "none".to_string())?;
            let model = flags.take_switch("model", true)?;
            let dot_path = flags.take("dot", String::new())?;
            flags.finish()?;
            let mut cfg = vt_analyze::AnalyzeConfig::new(topology, nodes);
            cfg.procs_per_node = ppn;
            cfg.credits = credits;
            cfg.buffer_bytes = buffer_bytes;
            cfg.coalescing = coalesce;
            cfg.model_check = model;
            cfg.dead_sequence = match fault.as_str() {
                "none" => Vec::new(),
                "crash" => crash_victim(topology, nodes).into_iter().collect(),
                other => match other.strip_prefix("crash:") {
                    Some(list) => list
                        .split(',')
                        .map(|v| {
                            v.parse::<u32>()
                                .map_err(|_| format!("invalid crash victim '{v}'"))
                        })
                        .collect::<Result<Vec<u32>, String>>()?,
                    None => {
                        return Err(format!(
                            "invalid value for --fault: '{other}' (none|crash|crash:N[,N...])"
                        ))
                    }
                },
            };
            let report = vt_analyze::analyze(&cfg)?;
            if !dot_path.is_empty() {
                if let Some(w) = &report.counterexample {
                    std::fs::write(&dot_path, w.dot())
                        .map_err(|e| format!("cannot write {dot_path}: {e}"))?;
                }
            }
            let rendered = if json {
                report.json().finish() + "\n"
            } else {
                report.render()
            };
            if report.certified() {
                rendered
            } else {
                return Err(format!("configuration NOT certified\n{rendered}"));
            }
        }
        "lint" => {
            let root = flags.take("root", ".".to_string())?;
            let allow = flags.take("allow", String::new())?;
            let json = flags.take_format()?;
            let out_path = flags.take("out", String::new())?;
            flags.finish()?;
            let allow_path = (!allow.is_empty()).then(|| std::path::PathBuf::from(&allow));
            let report =
                vt_lint::lint_workspace(std::path::Path::new(&root), allow_path.as_deref())
                    .map_err(|e| format!("lint failed: {e}"))?;
            let doc = lint_json(&report) + "\n";
            if !out_path.is_empty() {
                std::fs::write(&out_path, &doc)
                    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            }
            let rendered = if json { doc } else { report.render() };
            if report.clean() {
                rendered
            } else {
                return Err(format!("determinism gate FAILED\n{rendered}"));
            }
        }
        "topo" => {
            let kind = flags.take_topology(TopologyKind::Mfcg)?;
            let nodes: u32 = flags.take("nodes", 64)?;
            flags.finish()?;
            if !kind.supports(nodes) {
                return Err(format!("{} does not support {nodes} nodes", kind.name()));
            }
            let topo = kind.build(nodes);
            let stats = analyze(&topo);
            let tree = RequestTree::build(&topo, 0);
            let dep = DependencyGraph::from_topology(&topo);
            format!(
                "{} over {} nodes (shape {:?})\n\
                 edges: {}   max degree: {}\n\
                 routes: avg {:.2} hops, max {} hops\n\
                 request tree at node 0: height {}, direct fan-in {}\n\
                 buffer-dependency graph: {} channels, {} arcs, deadlock-free: {}\n",
                kind.name(),
                nodes,
                vt_core::VirtualTopology::shape(&topo).dims(),
                stats.edges,
                stats.max_degree,
                stats.avg_route_hops,
                stats.max_route_hops,
                tree.height(),
                tree.root_fan_in(),
                dep.channels().len(),
                dep.graph().edge_count(),
                dep.is_deadlock_free(),
            )
        }
        "dot" => {
            let kind = flags.take_topology(TopologyKind::Mfcg)?;
            let nodes: u32 = flags.take("nodes", 9)?;
            let tree_root: i64 = flags.take("tree", -1i64)?;
            flags.finish()?;
            if !kind.supports(nodes) {
                return Err(format!("{} does not support {nodes} nodes", kind.name()));
            }
            let topo = kind.build(nodes);
            if tree_root >= 0 {
                vt_core::tree_dot(&topo, tree_root as u32)
            } else {
                vt_core::topology_dot(&topo)
            }
        }
        "memory" => {
            let nodes = flags.take_count("nodes", 1024)?;
            let ppn = flags.take_count("ppn", 12)?;
            flags.finish()?;
            let model = MemoryModel {
                procs_per_node: ppn,
                ..MemoryModel::default()
            };
            let mut table = Table::new(&["topology", "pool (MB)", "master VmRSS (MB)"]);
            for kind in TopologyKind::ALL {
                if !kind.supports(nodes) {
                    continue;
                }
                let topo = kind.build(nodes);
                table.row(&[
                    kind.name().to_string(),
                    format!("{:.1}", model.cht_pool_bytes(&topo, 0) as f64 / 1048576.0),
                    format!(
                        "{:.1}",
                        model.master_vmrss_bytes(&topo, 0) as f64 / 1048576.0
                    ),
                ]);
            }
            format!(
                "{} processes ({} nodes x {} ppn)\n{}",
                nodes * ppn,
                nodes,
                ppn,
                table.render()
            )
        }
        "contention" => {
            let topology = flags.take_topology(TopologyKind::Fcg)?;
            let op = parse_op(&flags.take("op", "fadd".to_string())?)?;
            let scenario = parse_scenario(&flags.take("scenario", "none".to_string())?)?;
            let n_procs = flags.take_count("procs", 1024)?;
            let ppn = flags.take_count("ppn", 4)?;
            let measure_stride: u32 = flags.take("stride", 16)?;
            let iterations: u32 = flags.take("iterations", 20)?;
            let coalesce = flags.take_switch("coalesce", false)?;
            flags.finish()?;
            if n_procs <= ppn {
                // The experiment measures ranks off rank 0's node.
                return Err(format!(
                    "--procs {n_procs} must exceed --ppn {ppn}: every rank would share rank 0's node"
                ));
            }
            let cfg = ContentionConfig {
                n_procs,
                ppn,
                measure_stride,
                iterations,
                coalesce,
                ..ContentionConfig::paper(topology, op, scenario)
            };
            let o = vt_apps::contention::run(&cfg);
            let mut out = format!(
                "{} / {} / {}: mean {:.1} us, median {:.1} us over {} ranks\n\
                 stream misses {}, forwards {}, total {:.3} s\n",
                topology.name(),
                op.kind.name(),
                scenario.label(),
                o.mean_us(),
                o.median_us(),
                o.points.len(),
                o.net.stream_misses,
                o.cht.forwarded,
                o.finish.as_secs_f64(),
            );
            if coalesce {
                out.push_str(&format!(
                    "coalescing: {} envelopes folded {} requests ({} physical forwards, {} net messages)\n",
                    o.cht.envelopes, o.cht.coalesced, o.cht.fwd_messages, o.net.messages,
                ));
            }
            out
        }
        "lu" => {
            let topology = flags.take_topology(TopologyKind::Fcg)?;
            let n_procs = flags.take_count("procs", 192)?;
            let iterations: u32 = flags.take("iterations", 250)?;
            flags.finish()?;
            let cfg = LuConfig {
                iterations,
                ..LuConfig::class_c(n_procs, topology)
            };
            let o = vt_apps::lu::run(&cfg);
            format!(
                "LU {} procs / {}: {:.1} s (forwarded faces {:.1}%)\n",
                n_procs,
                topology.name(),
                o.exec_seconds,
                o.forward_fraction * 100.0
            )
        }
        "dft" => {
            let topology = flags.take_topology(TopologyKind::Fcg)?;
            let cores = flags.take_count("cores", 3072)?;
            let default_tasks = DftConfig::siosi3(cores, topology).total_tasks;
            let tasks: u32 = flags.take("tasks", default_tasks / 8)?;
            flags.finish()?;
            let cfg = DftConfig {
                total_tasks: tasks,
                ..DftConfig::siosi3(cores, topology)
            };
            let o = vt_apps::nwchem_dft::run(&cfg);
            format!(
                "DFT {} cores / {}: {:.1} s ({} tasks, {} stream misses)\n",
                cores,
                topology.name(),
                o.exec_seconds,
                o.tasks_executed,
                o.stream_misses
            )
        }
        "ccsd" => {
            let topology = flags.take_topology(TopologyKind::Fcg)?;
            let cores = flags.take_count("cores", 9996)?;
            flags.finish()?;
            let mut cfg = CcsdConfig::water(cores, topology);
            cfg.serial_seconds /= 8.0;
            cfg.fixed_seconds_per_proc /= 8.0;
            let o = vt_apps::nwchem_ccsd::run(&cfg);
            format!(
                "CCSD {} cores / {}: {:.1} s (paging {:.2}, node mem {:.2} GiB)\n",
                cores,
                topology.name(),
                o.exec_seconds,
                o.paging_factor,
                o.node_mem_used as f64 / (1u64 << 30) as f64
            )
        }
        "gups" => {
            let topology = flags.take_topology(TopologyKind::Fcg)?;
            let n_procs = flags.take_count("procs", 256)?;
            let skew: f64 = flags.take("skew", 0.0)?;
            flags.finish()?;
            if !(0.0..=1.0).contains(&skew) {
                return Err(format!(
                    "invalid value for --skew: '{skew}' (a fraction in [0, 1])"
                ));
            }
            let o = vt_apps::gups::run(&GupsConfig::skewed(n_procs, topology, skew));
            format!(
                "GUPS {} procs / {} / skew {:.0}%: {:.1} us per update, {:.4} MUPS\n",
                n_procs,
                topology.name(),
                skew * 100.0,
                o.mean_update_us,
                o.gups * 1e3
            )
        }
        "faults" => {
            let topology = flags.take_topology(TopologyKind::Mfcg)?;
            let n_procs = flags.take_count("procs", 256)?;
            let ppn = flags.take_count("ppn", 4)?;
            let ops_per_rank: u32 = flags.take("ops", 8)?;
            let kill_at = flags.take_micros("kill-at-us", 300)?;
            let membership = flags.take_switch("membership", false)?;
            flags.finish()?;
            let cfg = FaultScenarioConfig {
                n_procs,
                ppn,
                ops_per_rank,
                kill_at,
                membership,
                ..FaultScenarioConfig::paper(topology)
            };
            if !topology.supports(cfg.num_nodes()) {
                return Err(format!(
                    "{} does not support {} nodes",
                    topology.name(),
                    cfg.num_nodes()
                ));
            }
            let o = vt_apps::faults::try_run(&cfg).map_err(|e| e.to_string())?;
            let mut out = format!(
                "forwarder kill on {} ({} procs, node{} dead at {} us):\n\
                 healthy {:.1} us -> faulted {:.1} us ({:.2}x), availability {:.3}\n\
                 {} lost ranks, {} failed ops, {} completed ops\n\
                 recovery: {} retries, {} reroutes, {} credit reclaims, {} dedup hits, \
                 {} corrupt caught, {} partitions healed\n",
                topology.name(),
                n_procs,
                o.victim,
                kill_at.as_nanos() / 1_000,
                o.healthy_seconds * 1e6,
                o.exec_seconds * 1e6,
                o.slowdown(),
                o.availability,
                o.lost_ranks,
                o.faults.failed_ops,
                o.completed_ops,
                o.faults.retries,
                o.faults.reroutes,
                o.faults.reclaims,
                o.faults.dedup_hits,
                o.faults.corrupt_detected,
                o.faults.partitions_healed,
            );
            if membership {
                out.push_str(&render_repair_stats(&o.repair));
            }
            out
        }
        "repair" => {
            let json = flags.take_format()?;
            let custom = flags.map.contains_key("topology")
                || flags.map.contains_key("nodes")
                || flags.map.contains_key("victim");
            let scenarios: Vec<RepairScenarioConfig> = if custom {
                let topology = flags.take_topology(TopologyKind::Mfcg)?;
                let base = match topology {
                    TopologyKind::Cfcg => RepairScenarioConfig::cfcg_boundary(),
                    _ => RepairScenarioConfig::mfcg_boundary(),
                };
                let nodes: u32 = flags.take("nodes", base.nodes)?;
                let victim: u32 = flags.take("victim", base.victim)?;
                let ppn = flags.take_count("ppn", base.ppn)?;
                let ops: u32 = flags.take("ops", base.ops_per_rank)?;
                let kill_at = flags.take_micros("kill-at-us", 50)?;
                if !topology.supports(nodes) {
                    return Err(format!(
                        "{} does not support {nodes} nodes",
                        topology.name()
                    ));
                }
                if victim >= nodes {
                    return Err(format!("victim {victim} outside 0..{nodes}"));
                }
                vec![RepairScenarioConfig {
                    topology,
                    nodes,
                    ppn,
                    ops_per_rank: ops,
                    victim,
                    kill_at,
                    ..base
                }]
            } else {
                let ppn = flags.take_count("ppn", 2)?;
                let ops: u32 = flags.take("ops", 4)?;
                let kill_at = flags.take_micros("kill-at-us", 50)?;
                [
                    RepairScenarioConfig::mfcg_boundary(),
                    RepairScenarioConfig::cfcg_boundary(),
                ]
                .into_iter()
                .map(|base| RepairScenarioConfig {
                    ppn,
                    ops_per_rank: ops,
                    kill_at,
                    ..base
                })
                .collect()
            };
            flags.finish()?;
            let mut out = String::new();
            let mut cells = Vec::new();
            let mut all_ok = true;
            for cfg in &scenarios {
                let o = vt_apps::repair::run(cfg);
                all_ok &= o.completed && o.credit_leaks == 0 && o.post_repair_certified;
                if json {
                    cells.push(repair_json(cfg, &o));
                } else {
                    out.push_str(&render_repair_outcome(cfg, &o));
                }
            }
            if json {
                out = Object::new()
                    .field("all_repaired", all_ok)
                    .field("scenarios", cells)
                    .finish()
                    + "\n";
            }
            if !all_ok {
                return Err(format!("repair experiment FAILED\n{out}"));
            }
            out
        }
        "serve" => {
            let json = flags.take_format()?;
            let preset = flags.take("preset", "flash-crowd".to_string())?;
            let base = match preset.as_str() {
                "flash-crowd" | "flash" => ServeScenarioConfig::flash_crowd(),
                "steady" => ServeScenarioConfig::steady_small(),
                "load-repack" | "repack" => ServeScenarioConfig::load_repack_hotspot(),
                other => {
                    return Err(format!(
                        "unknown preset '{other}' (flash-crowd|steady|load-repack)"
                    ))
                }
            };
            let mut cfg = base;
            cfg.topology = flags.take_topology(base.topology)?;
            cfg.nodes = flags.take("nodes", base.nodes)?;
            cfg.ppn = flags.take("ppn", base.ppn)?;
            cfg.arrivals.rate_per_sec = flags.take("rate", base.arrivals.rate_per_sec)?;
            cfg.arrivals.peak = flags.take("peak", base.arrivals.peak)?;
            cfg.horizon = flags.take_micros("horizon-us", base.horizon.as_nanos() / 1000)?;
            cfg.queue_cap = flags.take("queue-cap", base.queue_cap)?;
            cfg.retry_budget = flags.take("retry-budget", base.retry_budget)?;
            cfg.retry_timeout =
                flags.take_micros("retry-timeout-us", base.retry_timeout.as_nanos() / 1000)?;
            cfg.guard_threshold = flags.take("guard", base.guard_threshold)?;
            cfg.tick = flags.take_micros("tick-us", base.tick.as_nanos() / 1000)?;
            cfg.load_repack = flags.take_switch("load-repack", base.load_repack)?;
            let curve_spec = flags.take("curve", String::new())?;
            flags.finish()?;
            if !cfg.topology.supports(cfg.nodes) {
                return Err(format!(
                    "{} does not support {} nodes",
                    cfg.topology.name(),
                    cfg.nodes
                ));
            }
            cfg.runtime_config().check()?;
            // Every scaled configuration is checked before any cell runs.
            let factors = curve_spec
                .split(',')
                .filter(|v| !v.is_empty())
                .map(|v| {
                    let f = v
                        .parse::<f64>()
                        .ok()
                        .filter(|f| *f > 0.0 && f.is_finite())
                        .ok_or_else(|| {
                            format!("invalid factor '{v}' in --curve (a positive load multiplier)")
                        })?;
                    cfg.scaled(f)
                        .runtime_config()
                        .check()
                        .map_err(|e| format!("invalid factor '{v}' in --curve: {e}"))?;
                    Ok(f)
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let o = vt_apps::serve::run(&cfg);
            let ok = o.exactly_once && o.credit_leaks == 0;
            let points = if factors.is_empty() {
                Vec::new()
            } else {
                vt_apps::serve::curve(&cfg, &factors)
            };
            let mut out = if json {
                serve_json(&cfg, &o, &points)
            } else {
                let mut s = vt_apps::serve::render(&cfg, &o);
                if !points.is_empty() {
                    s.push_str(&render_serve_curve(&points));
                }
                s
            };
            if !ok {
                out = format!("serve experiment FAILED (ledger or credit invariant)\n{out}");
                return Err(out);
            }
            out
        }
        "chaos" => {
            let json = flags.take_format()?;
            let base = if flags.take_switch("quick", false)? {
                ChaosConfig::quick()
            } else {
                ChaosConfig::paper()
            };
            let cfg = ChaosConfig {
                cells: flags.take("cells", base.cells)?,
                ppn: flags.take_count("ppn", base.ppn)?,
                ops_per_rank: flags.take("ops", base.ops_per_rank)?,
                seed: flags.take_seed(base.seed)?,
                threads: flags.take("threads", base.threads)?,
            };
            flags.finish()?;
            let o = vt_apps::chaos::try_run(&cfg).map_err(|e| e.to_string())?;
            let out = if json {
                chaos_json(&cfg, &o)
            } else {
                render_chaos(&cfg, &o)
            };
            if o.failing_cells() > 0 {
                return Err(format!(
                    "chaos campaign FAILED ({} of {} cells violated invariants)\n{out}",
                    o.failing_cells(),
                    o.cells.len()
                ));
            }
            out
        }
        "bench" => {
            let mut opts = if flags.take_switch("quick", false)? {
                vt_bench::throughput::BenchOpts::quick()
            } else {
                vt_bench::throughput::BenchOpts::full()
            };
            opts.repeats = flags.take_count("repeats", opts.repeats)?;
            opts.serve = flags.take_switch("serve", opts.serve)?;
            let sizes = flags.take("sizes", String::new())?;
            if !sizes.is_empty() {
                opts.sizes = sizes
                    .split(',')
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| format!("invalid size '{v}' in --sizes"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            let topologies = flags.take("topologies", String::new())?;
            if !topologies.is_empty() {
                opts.topologies = topologies
                    .split(',')
                    .map(parse_topology)
                    .collect::<Result<Vec<TopologyKind>, String>>()?;
            }
            let out_path = flags.take("out", String::new())?;
            let baseline = flags.take("baseline", String::new())?;
            let max_regression_pct: f64 = flags.take(
                "max-regression-pct",
                vt_bench::throughput::DEFAULT_MAX_REGRESSION_PCT,
            )?;
            flags.finish()?;
            let report = vt_bench::throughput::run(&opts).map_err(|e| e.to_string())?;
            let mut out = report.render();
            if !baseline.is_empty() {
                let doc = std::fs::read_to_string(&baseline)
                    .map_err(|e| format!("cannot read {baseline}: {e}"))?;
                let table =
                    vt_bench::throughput::check_regression(&report, &doc, max_regression_pct)
                        .map_err(|e| e.to_string())?;
                out.push_str("\nvs committed baseline (gate passed):\n");
                out.push_str(&table);
            }
            if out_path.is_empty() {
                out.push('\n');
                out.push_str(&report.to_json());
            } else {
                std::fs::write(&out_path, report.to_json())
                    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
                out.push_str(&format!("\n[wrote {out_path}]\n"));
            }
            out
        }
        "help" | "--help" | "-h" => usage(),
        other => return Err(format!("unknown command '{other}'\n\n{}", usage())),
    };
    Ok(out)
}

/// Expands bare boolean flags (e.g. a trailing `--quick` or one followed
/// by another flag) into `--flag on` pairs so [`Flags::parse`] accepts
/// them.
fn normalize_bare_flags(args: &[String], bare: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len() + 1);
    for (i, a) in args.iter().enumerate() {
        out.push(a.clone());
        if bare.contains(&a.as_str()) {
            let followed_by_flag = match args.get(i + 1) {
                Some(next) => next.starts_with("--"),
                None => true,
            };
            if followed_by_flag {
                out.push("on".to_string());
            }
        }
    }
    out
}

/// Crash victim used by `vtsim analyze --fault crash`: the first forwarder
/// on the diameter route node 0 -> node `n-1`, an *interior* node with
/// full route-around diversity. (Crashing a partial-slice boundary node
/// can genuinely partition live pairs — the analyzer refuses those
/// configurations, see `vt-analyze`'s boundary-crash test.) When every
/// route is direct (FCG), a non-endpoint node is crashed instead so
/// dead-endpoint handling is still exercised.
fn crash_victim(kind: TopologyKind, nodes: u32) -> Option<u32> {
    if nodes < 3 {
        return None;
    }
    let topo = kind.try_build(nodes).ok()?;
    match topo.next_hop(0, nodes - 1) {
        Some(h) if h != 0 && h != nodes - 1 => Some(h),
        _ => Some(1),
    }
}

/// One human-readable line of membership/repair activity counters.
fn render_repair_stats(r: &vt_armci::RepairStats) -> String {
    format!(
        "membership repair: {} suspicions ({} false, {} suppressed), {} epoch bumps \
         ({} rejoins), {} drained, {} replayed, {} probes, fallback depth {}, final epoch {}\n",
        r.suspicions,
        r.false_suspicions,
        r.false_suspicions_suppressed,
        r.epoch_bumps,
        r.rejoins_committed,
        r.drained_requests,
        r.replayed_requests,
        r.probes,
        r.fallback_depth,
        r.final_epoch,
    )
}

/// The repair counters as a JSON object, in the human line's order.
fn repair_stats_json(r: &vt_armci::RepairStats) -> Object {
    Object::new()
        .field("suspicions", r.suspicions)
        .field("false_suspicions", r.false_suspicions)
        .field("false_suspicions_suppressed", r.false_suspicions_suppressed)
        .field("epoch_bumps", r.epoch_bumps)
        .field("rejoins_committed", r.rejoins_committed)
        .field("drained_requests", r.drained_requests)
        .field("replayed_requests", r.replayed_requests)
        .field("probes", r.probes)
        .field("fallback_depth", r.fallback_depth)
        .field("final_epoch", r.final_epoch)
}

/// Human rendering of one membership-repair scenario outcome.
fn render_repair_outcome(cfg: &RepairScenarioConfig, o: &RepairOutcome) -> String {
    let mut s = format!(
        "repair {} n={} victim node{} ({} procs):\n\
         static analyzer: {}\n\
         membership run: {} in {:.1} us, availability {:.3}, \
         {} completed ops, {} failed, {} credit leaks, {} retries\n",
        cfg.topology.name(),
        cfg.nodes,
        o.victim,
        cfg.n_procs(),
        if o.static_refusal {
            "REFUSES crashed packing (pin holds)"
        } else {
            "accepts crashed packing"
        },
        if o.completed { "COMPLETED" } else { "FAILED" },
        o.exec_seconds * 1e6,
        o.availability,
        o.completed_ops,
        o.failed_ops,
        o.credit_leaks,
        o.retries,
    );
    s.push_str(&render_repair_stats(&o.repair));
    s.push_str(&format!(
        "post-repair topology: {} over {} survivors, {}\n\n",
        o.post_repair_kind.name(),
        cfg.nodes - 1,
        if o.post_repair_certified {
            "CERTIFIED"
        } else {
            "NOT CERTIFIED"
        },
    ));
    s
}

/// JSON cell for one membership-repair scenario outcome.
fn repair_json(cfg: &RepairScenarioConfig, o: &RepairOutcome) -> Object {
    Object::new()
        .field("topology", cfg.topology.name())
        .field("nodes", cfg.nodes)
        .field("victim", o.victim)
        .field("static_refusal", o.static_refusal)
        .field("completed", o.completed)
        .field("exec_seconds", Fixed(o.exec_seconds, 9))
        .field("availability", Fixed(o.availability, 6))
        .field("completed_ops", o.completed_ops)
        .field("failed_ops", o.failed_ops)
        .field("credit_leaks", o.credit_leaks)
        .field("lost_ranks", o.lost_ranks)
        .field("retries", o.retries)
        .field("post_repair_kind", o.post_repair_kind.name())
        .field("post_repair_certified", o.post_repair_certified)
        .field("repair", repair_stats_json(&o.repair))
}

/// 64-bit FNV-1a — a stable short fingerprint for the per-cell replay
/// digests, so the rendered campaign stays compact and byte-diffable.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Human rendering of a chaos campaign: one row per cell plus the
/// campaign verdict (and the minimized reproducer when a cell failed).
fn render_chaos(cfg: &ChaosConfig, o: &ChaosOutcome) -> String {
    let mut out = format!(
        "# Chaos campaign: {} cells, seed {:#x}, {} ops/rank at {} ppn\n",
        cfg.cells, cfg.seed, cfg.ops_per_rank, cfg.ppn
    );
    let mut table = Table::new(&[
        "cell",
        "topology",
        "procs",
        "schedule",
        "exec (us)",
        "retries",
        "corrupt",
        "epochs",
        "rejoins",
        "heals",
        "digest",
        "verdict",
    ]);
    for c in &o.cells {
        table.row(&[
            c.idx.to_string(),
            c.topology.name().to_string(),
            c.n_procs.to_string(),
            format!(
                "{}c {}r {}p {}d {}x",
                c.crashes, c.restarts, c.partitions, c.drop_windows, c.corrupt_windows
            ),
            format!("{:.1}", c.exec_seconds * 1e6),
            c.faults.retries.to_string(),
            c.faults.corrupt_detected.to_string(),
            c.repair.epoch_bumps.to_string(),
            c.repair.rejoins_committed.to_string(),
            c.faults.partitions_healed.to_string(),
            format!("{:016x}", fnv64(&c.digest)),
            if c.passed() {
                "ok".to_string()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }
    out.push_str(&table.render());
    let tot = |f: fn(&vt_apps::CellOutcome) -> u64| o.cells.iter().map(f).sum::<u64>();
    out.push_str(&format!(
        "totals: {} retries, {} corrupt caught, {} epoch bumps, {} rejoins, \
         {} partitions healed, {} suppressed suspicions\n",
        tot(|c| c.faults.retries),
        tot(|c| c.faults.corrupt_detected),
        tot(|c| c.repair.epoch_bumps),
        tot(|c| c.repair.rejoins_committed),
        tot(|c| c.faults.partitions_healed),
        tot(|c| c.repair.false_suspicions_suppressed),
    ));
    let failing = o.failing_cells();
    if failing == 0 {
        out.push_str(&format!(
            "campaign: {} cells, all invariants HELD, replay byte-identical\n",
            o.cells.len()
        ));
    } else {
        out.push_str(&format!(
            "campaign: {failing} of {} cells VIOLATED invariants\n",
            o.cells.len()
        ));
        for c in o.cells.iter().filter(|c| !c.passed()) {
            for v in &c.violations {
                out.push_str(&format!("  cell {}: {v}\n", c.idx));
            }
        }
    }
    if let Some(m) = &o.minimized {
        out.push_str(&format!(
            "minimized reproducer (cell {}): {:?}\n",
            m.cell, m.plan
        ));
        for v in &m.violations {
            out.push_str(&format!("  still fails: {v}\n"));
        }
    }
    out
}

/// JSON document for one chaos campaign.
fn chaos_json(cfg: &ChaosConfig, o: &ChaosOutcome) -> String {
    let cells: Vec<Object> = o
        .cells
        .iter()
        .map(|c| {
            Object::new()
                .field("idx", c.idx)
                .field("topology", c.topology.name())
                .field("n_procs", c.n_procs)
                .field("crashes", c.crashes)
                .field("restarts", c.restarts)
                .field("partitions", c.partitions)
                .field("drop_windows", c.drop_windows)
                .field("corrupt_windows", c.corrupt_windows)
                .field("exec_seconds", Fixed(c.exec_seconds, 9))
                .field("retries", c.faults.retries)
                .field("corrupt_detected", c.faults.corrupt_detected)
                .field("epoch_bumps", c.repair.epoch_bumps)
                .field("rejoins_committed", c.repair.rejoins_committed)
                .field("partitions_healed", c.faults.partitions_healed)
                .field(
                    "false_suspicions_suppressed",
                    c.repair.false_suspicions_suppressed,
                )
                .field("digest", format!("{:016x}", fnv64(&c.digest)))
                .field("passed", c.passed())
                .field("violations", &c.violations)
        })
        .collect();
    Object::new()
        .field("cells", cfg.cells)
        .field("seed", cfg.seed)
        .field("all_passed", o.failing_cells() == 0)
        .field("cell_results", cells)
        .finish()
        + "\n"
}

/// Human rendering of the goodput-vs-offered-load curve.
fn render_serve_curve(points: &[CurvePoint]) -> String {
    let mut s = String::from("goodput vs offered load:\n");
    for p in points {
        s.push_str(&format!(
            "  x{:<5} offered {:>9.0}/s  goodput {:>9.0}/s  shed {:5.1}%  p99 {:.1} us\n",
            p.factor,
            p.offered_per_sec,
            p.goodput_per_sec,
            p.shed_frac * 100.0,
            p.p99_us,
        ));
    }
    s
}

/// JSON document for one serving run (plus optional curve).
fn serve_json(cfg: &ServeScenarioConfig, o: &ServeOutcome, points: &[CurvePoint]) -> String {
    let s = &o.stats;
    let curve: Vec<Object> = points
        .iter()
        .map(|p| {
            Object::new()
                .field("factor", p.factor)
                .field("offered_per_sec", Fixed(p.offered_per_sec, 3))
                .field("goodput_per_sec", Fixed(p.goodput_per_sec, 3))
                .field("shed_frac", Fixed(p.shed_frac, 6))
                .field("p99_us", Fixed(p.p99_us, 3))
        })
        .collect();
    Object::new()
        .field("topology", cfg.topology.name())
        .field("nodes", cfg.nodes)
        .field("ppn", cfg.ppn)
        .field("arrivals_kind", cfg.arrivals.kind.name())
        .field("arrivals", s.arrivals)
        .field("admitted", s.admitted)
        .field("sheds", s.sheds)
        .field("completed", s.completed)
        .field("gave_up", s.gave_up)
        .field("retries", s.retries)
        .field("shed_retries", s.shed_retries)
        .field("guard_trips", s.guard_trips)
        .field("offered_per_sec", Fixed(o.offered_per_sec, 3))
        .field("goodput_per_sec", Fixed(o.goodput_per_sec, 3))
        .field("p50_us", Fixed(o.p50_us, 3))
        .field("p99_us", Fixed(o.p99_us, 3))
        .field("p999_us", Fixed(o.p999_us, 3))
        .field("exec_seconds", Fixed(o.exec_seconds, 9))
        .field("credit_leaks", o.credit_leaks)
        .field("dedup_hits", o.dedup_hits)
        .field("corrupt_detected", o.corrupt_detected)
        .field("hot_final", o.hot_final)
        .field("exactly_once", o.exactly_once)
        .field("load_repacks", s.load_repacks)
        .field("repack_kind", s.repack_kind.map(TopologyKind::name))
        .field("repack_certified", o.repack_certified)
        .field("epoch_bumps", o.epoch_bumps)
        .field("curve", curve)
        .finish()
        + "\n"
}

/// JSON document for one lint run.
fn lint_json(r: &vt_lint::LintReport) -> String {
    let findings = |list: &[vt_lint::Finding]| -> Vec<Object> {
        list.iter()
            .map(|f| {
                Object::new()
                    .field("rule", f.rule.to_string())
                    .field("path", &f.path)
                    .field("line", f.line)
                    .field("snippet", &f.snippet)
                    .field("note", &f.note)
            })
            .collect()
    };
    Object::new()
        .field("tool", "vt-lint")
        .field("clean", r.clean())
        .field("files_scanned", r.files_scanned)
        .field("allow_entries", r.allow_entries)
        .field("findings", findings(&r.findings))
        .field("allowed", findings(&r.allowed))
        .finish()
}

/// The CI verification matrix: every topology at representative sizes —
/// including non-power-of-two and partial LDF packings — crossed with
/// coalescing on/off and {fault-free, forwarder crash}. Fails (non-zero
/// exit) when any cell is not certified; the JSON carries the per-cell
/// reports plus the `all_certified` gate bit.
fn analyze_matrix(json: bool, threads: usize) -> Result<String, String> {
    // Representative populations per topology, including non-power-of-two
    // and partially-packed LDF sizes. Partial packings are single-fault
    // tolerant only outside the top slice's escape-critical set (the
    // analyzer itself established that — see vt-analyze's boundary-crash
    // test), so the two partial cells pin a victim from the safe region;
    // full packings use the default interior forwarder.
    type MatrixRow = (TopologyKind, &'static [(u32, Option<u32>)]);
    let sizes: [MatrixRow; 4] = [
        (TopologyKind::Fcg, &[(12, None)]),
        (TopologyKind::Mfcg, &[(16, None), (23, Some(20))]),
        (TopologyKind::Cfcg, &[(27, None), (29, Some(25))]),
        (TopologyKind::Hypercube, &[(8, None), (16, None)]),
    ];
    let mut jobs = Vec::new();
    for (kind, ns) in sizes {
        for &(n, pinned) in ns {
            for coalesce in [false, true] {
                for fault in [false, true] {
                    let mut cfg = vt_analyze::AnalyzeConfig::new(kind, n);
                    cfg.coalescing = coalesce;
                    if fault {
                        cfg.dead_sequence = pinned
                            .or_else(|| crash_victim(kind, n))
                            .into_iter()
                            .collect();
                    }
                    jobs.push((kind, n, coalesce, fault, cfg));
                }
            }
        }
    }
    // Cells are independent; fan them over the sweep driver. Each cell is
    // deterministic and results come back in input order, so the rendered
    // matrix (diffed byte-for-byte in CI) is identical at any thread count.
    let meta: Vec<_> = jobs.iter().map(|&(k, n, c, f, _)| (k, n, c, f)).collect();
    let reports =
        vt_apps::run_parallel(jobs, threads, |(_, _, _, _, cfg)| vt_analyze::analyze(cfg));
    let mut cells = Vec::new();
    let mut human = String::new();
    let mut all = true;
    for ((kind, n, coalesce, fault), report) in meta.into_iter().zip(reports) {
        let report = report?;
        let ok = report.certified();
        all &= ok;
        human.push_str(&format!(
            "{:10} n={:<3} coalesce={:3} fault={:5}  {}\n",
            kind.name(),
            n,
            if coalesce { "on" } else { "off" },
            if fault { "crash" } else { "none" },
            if ok { "CERTIFIED" } else { "NOT CERTIFIED" },
        ));
        cells.push(report.json());
    }
    let out = if json {
        Object::new()
            .field("all_certified", all)
            .field("cells", cells)
            .finish()
            + "\n"
    } else {
        format!(
            "{human}matrix: {} cells, {}\n",
            cells.len(),
            if all {
                "all CERTIFIED"
            } else {
                "NOT all certified"
            }
        )
    };
    if all {
        Ok(out)
    } else {
        Err(format!("verification matrix NOT fully certified\n{out}"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs() {
        let mut f = Flags::parse(&s(&["--nodes", "97", "--topology", "cfcg"])).unwrap();
        assert_eq!(f.take("nodes", 0u32).unwrap(), 97);
        assert_eq!(
            f.take_topology(TopologyKind::Fcg).unwrap(),
            TopologyKind::Cfcg
        );
        f.finish().unwrap();
    }

    #[test]
    fn flags_reject_garbage() {
        assert!(Flags::parse(&s(&["nodes"])).is_err());
        assert!(Flags::parse(&s(&["--nodes"])).is_err());
        let f = Flags::parse(&s(&["--bogus", "1"])).unwrap();
        assert!(f.finish().is_err());
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(parse_topology("hc").unwrap(), TopologyKind::Hypercube);
        assert!(parse_topology("ring").is_err());
        assert_eq!(parse_scenario("20").unwrap(), Scenario::pct20());
        assert_eq!(
            parse_scenario("1/7").unwrap(),
            Scenario::Contention { every_nth: 7 }
        );
        assert!(parse_scenario("all").is_err());
        assert!(parse_scenario("1/0").is_err());
        assert_eq!(parse_op("putv").unwrap(), OpSpec::vector_put());
        assert!(parse_op("cas").is_err());
    }

    #[test]
    fn topo_command_reports_structure() {
        let out = run_command("topo", &s(&["--kind", "x", "--nodes", "97"]));
        // --kind is not a recognised flag; topology is --topology.
        assert!(out.is_err());
        let out = run_command("topo", &s(&["--topology", "mfcg", "--nodes", "97"])).unwrap();
        assert!(out.contains("deadlock-free: true"));
        assert!(out.contains("97 nodes"));
    }

    #[test]
    fn faults_command_reports_a_refused_configuration() {
        // CFCG over 29 nodes loses node 24, the sole in-slice forwarder
        // toward node 28: without membership the pre-flight refuses it,
        // and the command fails with the analyzer's report.
        let err = run_command(
            "faults",
            &s(&["--topology", "cfcg", "--procs", "29", "--ppn", "1"]),
        )
        .unwrap_err();
        assert!(err.contains("pre-flight verification failed"), "{err}");
        assert!(err.contains("[FAIL] totality"), "{err}");
        assert!(err.contains("NOT CERTIFIED"), "{err}");
    }

    #[test]
    fn analyze_command_certifies_and_reports() {
        let out = run_command(
            "analyze",
            &s(&["--topology", "mfcg", "--nodes", "23", "--fault", "crash:20"]),
        )
        .unwrap();
        assert!(out.contains("CERTIFIED deadlock-free"), "{out}");
        assert!(out.contains("acyclicity"));
        assert!(out.contains("model-check"));
    }

    #[test]
    fn analyze_command_emits_json() {
        let out = run_command(
            "analyze",
            &s(&[
                "--topology",
                "cfcg",
                "--nodes",
                "27",
                "--coalesce",
                "on",
                "--model",
                "off",
                "--format",
                "json",
            ]),
        )
        .unwrap();
        assert!(out.contains("\"certified\":true"), "{out}");
        assert!(out.contains("\"coalescing-refold\""));
    }

    #[test]
    fn analyze_command_refuses_partition_and_bad_flags() {
        // Crashing the escape-critical boundary node genuinely partitions
        // the 23-node partial MFCG packing; the command must error so
        // vtsim exits non-zero.
        let out = run_command(
            "analyze",
            &s(&[
                "--topology",
                "mfcg",
                "--nodes",
                "23",
                "--fault",
                "crash:2",
                "--model",
                "off",
            ]),
        );
        let err = out.unwrap_err();
        assert!(err.contains("NOT certified"), "{err}");
        assert!(err.contains("dead-ends"), "{err}");
        assert!(run_command("analyze", &s(&["--fault", "melt"])).is_err());
        assert!(run_command("analyze", &s(&["--coalesce", "maybe"])).is_err());
    }

    #[test]
    fn analyze_matrix_certifies_every_cell() {
        let out = run_command("analyze", &s(&["--matrix", "on", "--format", "json"])).unwrap();
        assert!(out.contains("\"all_certified\":true"), "{out}");
        // 4 topologies x sizes x coalescing x fault = 28 cells.
        assert_eq!(out.matches("\"topology\"").count(), 28, "{out}");
    }

    #[test]
    fn memory_command_builds_table() {
        let out = run_command("memory", &s(&["--nodes", "64", "--ppn", "4"])).unwrap();
        assert!(out.contains("fcg"));
        assert!(out.contains("hypercube"));
    }

    #[test]
    fn contention_command_runs_small() {
        let out = run_command(
            "contention",
            &s(&[
                "--procs",
                "32",
                "--ppn",
                "4",
                "--stride",
                "8",
                "--iterations",
                "2",
                "--topology",
                "mfcg",
                "--op",
                "fadd",
                "--scenario",
                "1/5",
            ]),
        )
        .unwrap();
        assert!(out.contains("mfcg / fadd / 20% contention"));
    }

    #[test]
    fn contention_command_accepts_coalesce_flag() {
        let args = |v: &str| {
            s(&[
                "--procs",
                "32",
                "--ppn",
                "4",
                "--stride",
                "8",
                "--iterations",
                "2",
                "--topology",
                "mfcg",
                "--op",
                "fadd",
                "--scenario",
                "1/5",
                "--coalesce",
                v,
            ])
        };
        let on = run_command("contention", &args("on")).unwrap();
        assert!(on.contains("coalescing:"), "{on}");
        assert!(on.contains("envelopes folded"), "{on}");
        let off = run_command("contention", &args("off")).unwrap();
        assert!(!off.contains("coalescing:"), "{off}");
        let err = run_command("contention", &args("maybe")).unwrap_err();
        assert!(err.contains("--coalesce"), "{err}");
    }

    #[test]
    fn gups_command_runs_small() {
        let out = run_command("gups", &s(&["--procs", "16", "--skew", "0.5"])).unwrap();
        assert!(out.contains("GUPS 16 procs"));
    }

    #[test]
    fn faults_command_runs_small() {
        let out = run_command(
            "faults",
            &s(&[
                "--topology",
                "mfcg",
                "--procs",
                "64",
                "--ops",
                "2",
                "--kill-at-us",
                "40",
            ]),
        )
        .unwrap();
        assert!(out.contains("forwarder kill on mfcg"), "{out}");
        assert!(out.contains("reroutes"), "{out}");
        assert!(out.contains("availability 0.938"), "{out}");
        // Membership off: no repair line in the output.
        assert!(!out.contains("membership repair"), "{out}");
    }

    #[test]
    fn faults_command_with_membership_reports_repair_counters() {
        let out = run_command(
            "faults",
            &s(&[
                "--topology",
                "mfcg",
                "--procs",
                "64",
                "--ops",
                "80",
                "--kill-at-us",
                "40",
                "--membership",
                "on",
            ]),
        )
        .unwrap();
        assert!(out.contains("membership repair:"), "{out}");
        assert!(out.contains("epoch bumps"), "{out}");
        assert!(run_command("faults", &s(&["--membership", "maybe"]))
            .unwrap_err()
            .contains("--membership"),);
    }

    #[test]
    fn repair_command_runs_boundary_defaults() {
        let out = run_command("repair", &[]).unwrap();
        assert!(out.contains("repair mfcg n=23 victim node2"), "{out}");
        assert!(out.contains("repair cfcg n=29 victim node24"), "{out}");
        assert!(out.contains("REFUSES crashed packing"), "{out}");
        assert!(out.contains("COMPLETED"), "{out}");
        assert!(out.contains("CERTIFIED"), "{out}");
        assert!(out.contains("0 credit leaks"), "{out}");
    }

    #[test]
    fn repair_command_emits_json_and_accepts_custom_scenario() {
        let out = run_command(
            "repair",
            &s(&[
                "--topology",
                "mfcg",
                "--nodes",
                "23",
                "--victim",
                "2",
                "--format",
                "json",
            ]),
        )
        .unwrap();
        assert!(out.starts_with("{\"all_repaired\":true"), "{out}");
        assert!(out.contains("\"static_refusal\":true"), "{out}");
        assert!(out.contains("\"post_repair_certified\":true"), "{out}");
        assert!(out.contains("\"epoch_bumps\":1"), "{out}");
        // Bad flags are rejected up front.
        assert!(run_command("repair", &s(&["--format", "xml"]))
            .unwrap_err()
            .contains("--format"));
        assert!(
            run_command("repair", &s(&["--nodes", "23", "--victim", "99"]))
                .unwrap_err()
                .contains("victim")
        );
    }

    #[test]
    fn serve_command_runs_steady_preset() {
        let out = run_command("serve", &s(&["--preset", "steady"])).unwrap();
        assert!(
            out.contains("serve fcg n=2 ppn=4 (8 procs), steady arrivals"),
            "{out}"
        );
        assert!(out.contains("exactly-once HOLDS"), "{out}");
        assert!(out.contains("0 credit leaks"), "{out}");
        assert!(out.contains("latency: p50"), "{out}");
    }

    #[test]
    fn serve_command_sheds_past_saturation_and_is_deterministic() {
        // A scaled-down flash crowd: 32 clients, 10x spike, json output.
        let args = s(&[
            "--preset",
            "flash-crowd",
            "--nodes",
            "16",
            "--ppn",
            "2",
            "--rate",
            "60000",
            "--horizon-us",
            "4000",
            "--format",
            "json",
        ]);
        let a = run_command("serve", &args).unwrap();
        let b = run_command("serve", &args).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"arrivals_kind\":\"flash-crowd\""), "{a}");
        assert!(a.contains("\"exactly_once\":true"), "{a}");
        assert!(a.contains("\"credit_leaks\":0"), "{a}");
        assert!(!a.contains("\"sheds\":0,"), "overload cell must shed: {a}");
    }

    #[test]
    fn serve_command_renders_goodput_curve() {
        let out = run_command("serve", &s(&["--preset", "steady", "--curve", "1,8"])).unwrap();
        assert!(out.contains("goodput vs offered load:"), "{out}");
        assert_eq!(out.matches("  x").count(), 2, "{out}");
    }

    #[test]
    fn serve_command_load_repack_certifies_epoch() {
        let out = run_command("serve", &s(&["--preset", "load-repack"])).unwrap();
        assert!(
            out.contains("load re-pack: fcg -> mfcg committed under traffic (epoch 1), CERTIFIED"),
            "{out}"
        );
    }

    #[test]
    fn serve_command_rejects_bad_flags() {
        assert!(run_command("serve", &s(&["--preset", "surge"]))
            .unwrap_err()
            .contains("preset"));
        assert!(run_command("serve", &s(&["--load-repack", "maybe"]))
            .unwrap_err()
            .contains("--load-repack"));
        assert!(run_command("serve", &s(&["--curve", "fast"]))
            .unwrap_err()
            .contains("--curve"));
        assert!(
            run_command("serve", &s(&["--topology", "hc", "--nodes", "97"]))
                .unwrap_err()
                .contains("does not support")
        );
    }

    #[test]
    fn degenerate_counts_and_curve_points_are_errors_not_panics() {
        let cases: [(&str, &[&str], &str); 18] = [
            ("contention", &["--procs", "0"], "--procs"),
            ("contention", &["--ppn", "0"], "--ppn"),
            ("contention", &["--procs", "64", "--ppn", "128"], "--procs"),
            ("gups", &["--procs", "0"], "--procs"),
            ("lu", &["--procs", "0"], "--procs"),
            ("faults", &["--ppn", "0"], "--ppn"),
            ("analyze", &["--nodes", "0"], "--nodes"),
            ("serve", &["--preset", "steady", "--curve", "0"], "--curve"),
            ("serve", &["--preset", "steady", "--curve", "-1"], "--curve"),
            ("repair", &["--ppn", "0"], "--ppn"),
            ("chaos", &["--ppn", "0", "--cells", "2"], "--ppn"),
            ("dft", &["--cores", "0"], "--cores"),
            ("ccsd", &["--cores", "0"], "--cores"),
            (
                "serve",
                &["--preset", "steady", "--curve", "1e308"],
                "'1e308' in --curve",
            ),
            ("memory", &["--ppn", "0"], "--ppn"),
            ("bench", &["--repeats", "0"], "--repeats"),
            (
                "serve",
                &["--rate", "1e12", "--horizon-us", "100"],
                "exceeds 1e9/s",
            ),
            (
                "serve",
                &["--curve", "1e9", "--horizon-us", "100"],
                "'1e9' in --curve: peak arrival rate",
            ),
        ];
        for (cmd, args, flag) in cases {
            assert_refused(cmd, args, flag);
        }
    }

    /// Runs `vtsim cmd args` and checks it is refused with an error
    /// naming `why`, not a panic.
    fn assert_refused(cmd: &str, args: &[&str], why: &str) {
        let outcome = std::panic::catch_unwind(|| run_command(cmd, &s(args)));
        let Ok(result) = outcome else {
            panic!("vtsim {cmd} {args:?} panicked");
        };
        let err = result.unwrap_err();
        assert!(err.contains(why), "vtsim {cmd} {args:?}: {err}");
    }

    #[test]
    fn serve_refuses_a_zero_rate() {
        assert_refused("serve", &["--rate", "0"], "arrival rate must be positive");
    }

    #[test]
    fn serve_refuses_a_zero_peak() {
        assert_refused("serve", &["--peak", "0"], "peak multiplier must be >= 1");
    }

    #[test]
    fn serve_refuses_a_zero_horizon() {
        assert_refused("serve", &["--horizon-us", "0"], "horizon must be positive");
    }

    #[test]
    fn microsecond_flags_refuse_values_past_one_simulated_hour() {
        let cap_plus_one = (MAX_FLAG_US + 1).to_string();
        let max = u64::MAX.to_string();
        for (cmd, flag) in [
            ("faults", "--kill-at-us"),
            ("repair", "--kill-at-us"),
            ("serve", "--horizon-us"),
            ("serve", "--retry-timeout-us"),
            ("serve", "--tick-us"),
        ] {
            for value in [&cap_plus_one, &max] {
                assert_refused(cmd, &[flag, value], "at most 3600000000 us");
            }
        }
        assert_refused(
            "repair",
            &["--topology", "cfcg", "--kill-at-us", &max],
            "at most 3600000000 us",
        );
    }

    #[test]
    fn serve_refuses_a_zero_queue_cap() {
        assert_refused(
            "serve",
            &["--queue-cap", "0"],
            "queue cap must be at least 1",
        );
    }

    #[test]
    fn gups_refuses_a_skew_above_one() {
        assert_refused("gups", &["--procs", "16", "--skew", "5"], "--skew");
    }

    #[test]
    fn gups_refuses_a_negative_skew() {
        assert_refused("gups", &["--procs", "16", "--skew", "-1"], "--skew");
    }

    #[test]
    fn contention_refuses_a_one_in_zero_scenario() {
        assert_refused(
            "contention",
            &["--scenario", "1/0"],
            "unknown scenario '1/0'",
        );
    }

    #[test]
    fn chaos_command_quick_campaign_holds_every_invariant() {
        let out = run_command("chaos", &s(&["--quick", "on"])).unwrap();
        assert!(out.contains("# Chaos campaign: 8 cells"), "{out}");
        assert!(
            out.contains("all invariants HELD, replay byte-identical"),
            "{out}"
        );
        assert!(!out.contains("VIOLATED"), "{out}");
        assert!(!out.contains("minimized reproducer"), "{out}");
    }

    #[test]
    fn chaos_command_json_is_deterministic_across_thread_counts() {
        let args = |t: &str| {
            s(&[
                "--quick",
                "on",
                "--cells",
                "6",
                "--threads",
                t,
                "--format",
                "json",
            ])
        };
        let serial = run_command("chaos", &args("1")).unwrap();
        let parallel = run_command("chaos", &args("4")).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.contains("\"all_passed\":true"), "{serial}");
        assert_eq!(serial.matches("\"idx\"").count(), 6, "{serial}");
    }

    #[test]
    fn chaos_json_escapes_violation_strings() {
        let cell = vt_apps::CellOutcome {
            idx: 3,
            topology: TopologyKind::Mfcg,
            n_procs: 16,
            crashes: 1,
            restarts: 1,
            partitions: 0,
            drop_windows: 0,
            corrupt_windows: 0,
            exec_seconds: 0.5,
            faults: vt_armci::FaultStats::default(),
            repair: vt_armci::RepairStats::default(),
            violations: vec!["credit leak on \"0->2\"\tc0".into()],
            digest: String::new(),
        };
        let o = ChaosOutcome {
            cells: vec![cell],
            minimized: None,
        };
        let j = chaos_json(&ChaosConfig::quick(), &o);
        assert!(j.contains("\"all_passed\":false"), "{j}");
        assert!(
            j.contains("\"violations\":[\"credit leak on \\\"0->2\\\"\\tc0\"]"),
            "{j}"
        );
    }

    #[test]
    fn chaos_command_rejects_bad_flags() {
        assert!(run_command("chaos", &s(&["--format", "xml"]))
            .unwrap_err()
            .contains("--format"));
        assert!(run_command("chaos", &s(&["--quick", "maybe"]))
            .unwrap_err()
            .contains("--quick"));
        assert!(run_command("chaos", &s(&["--cells", "0"]))
            .unwrap_err()
            .contains("at least one cell"));
    }

    #[test]
    fn switches_and_formats_take_only_their_two_values() {
        let mut f = Flags::parse(&s(&["--a", "on", "--b", "off", "--format", "json"])).unwrap();
        assert!(f.take_switch("a", false).unwrap());
        assert!(!f.take_switch("b", true).unwrap());
        assert!(f.take_switch("absent", true).unwrap());
        assert!(f.take_format().unwrap());
        assert!(!f.take_format().unwrap());
        f.finish().unwrap();
        let mut f = Flags::parse(&s(&["--a", "yes", "--format", "xml"])).unwrap();
        assert!(f
            .take_switch("a", false)
            .unwrap_err()
            .contains("--a: 'yes' (on|off)"));
        assert!(f.take_format().unwrap_err().contains("(human|json)"));
    }

    #[test]
    fn lint_json_is_well_formed_and_escaped() {
        let finding = vt_lint::Finding {
            rule: vt_lint::Rule::D1,
            path: "crates/armci/src/engine.rs".into(),
            line: 42,
            snippet: "for k in map.keys() {".into(),
            note: "a \"quoted\"\nnote".into(),
        };
        let r = vt_lint::LintReport {
            findings: vec![finding],
            files_scanned: 1,
            ..Default::default()
        };
        let j = lint_json(&r);
        assert!(
            j.starts_with("{\"tool\":\"vt-lint\",\"clean\":false"),
            "{j}"
        );
        assert!(j.contains("\"rule\":\"D1\""), "{j}");
        assert!(j.contains("\\\"quoted\\\"\\nnote"), "{j}");
        assert!(!j.contains('\n'));
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run_command("wat", &[]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn every_command_prints_its_own_help() {
        let headers: Vec<&str> = USAGE
            .lines()
            .skip_while(|l| *l != "COMMANDS")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .filter(|l| !l.starts_with("   "))
            .collect();
        let mut commands: Vec<&str> = headers
            .iter()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        commands.dedup();
        assert_eq!(commands.len(), 15, "{commands:?}");
        for cmd in commands {
            let help = run_command(cmd, &s(&["--help"])).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            assert!(help.starts_with(&format!("USAGE: vtsim {cmd} ")), "{help}");
            // Every block of the command, and no other command's.
            let own = headers
                .iter()
                .filter(|l| l.split_whitespace().next() == Some(cmd));
            for header in own {
                assert!(help.contains(header), "{cmd}: missing {header}");
            }
            let blocks = help.lines().skip(2).filter(|l| !l.starts_with("   "));
            assert!(blocks
                .into_iter()
                .all(|l| l.starts_with(&format!("  {cmd} "))));
            // --help wins over any other flag, valid or not.
            let mixed = run_command(cmd, &s(&["--format", "xml", "--help"])).unwrap();
            assert_eq!(mixed, help, "{cmd}");
        }
        let analyze = run_command("analyze", &s(&["--help"])).unwrap();
        assert!(analyze.contains("--matrix on") && analyze.contains("--dot PATH"));
        assert!(run_command("wat", &s(&["--help"]))
            .unwrap_err()
            .contains("unknown command 'wat'"));
    }

    #[test]
    fn dot_command_renders_graphs() {
        let out = run_command("dot", &s(&["--topology", "mfcg", "--nodes", "9"])).unwrap();
        assert!(out.starts_with("graph mfcg {"));
        let out = run_command(
            "dot",
            &s(&["--topology", "cfcg", "--nodes", "27", "--tree", "0"]),
        )
        .unwrap();
        assert!(out.starts_with("digraph cfcg_tree {"));
        assert_eq!(out.matches(" -> ").count(), 26);
    }

    #[test]
    fn kfcg_parses_and_builds() {
        assert_eq!(parse_topology("kfcg5").unwrap(), TopologyKind::KFcg(5));
        assert!(parse_topology("kfcg0").is_err());
        let out = run_command("topo", &s(&["--topology", "kfcg4", "--nodes", "81"])).unwrap();
        assert!(out.contains("deadlock-free: true"));
    }

    #[test]
    fn hypercube_node_count_guard() {
        let err = run_command("topo", &s(&["--topology", "hc", "--nodes", "97"])).unwrap_err();
        assert!(err.contains("does not support"));
    }
}
