//! Machine configuration.

use crate::placement::Placement;
use crate::time::SimTime;

/// Parameters of the simulated machine and interconnect.
///
/// Defaults are calibrated to Jaguar-era (Cray XT5 / SeaStar2+) magnitudes:
/// microsecond-scale one-sided operations, multi-GB/s links, a few hundred
/// nanoseconds per hop, and tens of microseconds for a BEER slow-path
/// flow-control exchange. Absolute values are *not* meant to match the
/// authors' testbed — the reproduction targets the shapes of the curves.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Physical torus extents; `None` picks the smallest near-cubic torus
    /// that fits the node count.
    pub torus_dims: Option<[u32; 3]>,
    /// Node-to-slot placement policy.
    pub placement: Placement,
    /// Router traversal latency per hop.
    pub hop_latency: SimTime,
    /// Link wire bandwidth in bytes per nanosecond (GB/s).
    pub link_bytes_per_ns: f64,
    /// Sender-side software + descriptor cost per message.
    pub tx_overhead: SimTime,
    /// Injection (host-to-NIC DMA) bandwidth in bytes per nanosecond.
    pub inj_bytes_per_ns: f64,
    /// Receiver-side fast-path cost per message.
    pub rx_base: SimTime,
    /// Receive (NIC-to-host DMA) bandwidth in bytes per nanosecond.
    pub rx_bytes_per_ns: f64,
    /// Number of resident fast message-stream contexts per NIC.
    pub stream_contexts: usize,
    /// BEER slow-path penalty when a message's source misses the stream
    /// table (flow-control handshake + reliability state re-establishment).
    pub stream_miss_penalty: SimTime,
    /// Latency of an intra-node (shared-memory) delivery.
    pub shm_latency: SimTime,
    /// Seed for the fault-injection RNG stream (transient drop decisions).
    /// Forked independently of every other stream, so changing it perturbs
    /// only which messages a [`crate::fault::DropWindow`] claims.
    pub fault_seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            torus_dims: None,
            placement: Placement::Linear,
            hop_latency: SimTime::from_nanos(500),
            link_bytes_per_ns: 6.0,
            tx_overhead: SimTime::from_nanos(1_200),
            inj_bytes_per_ns: 2.4,
            rx_base: SimTime::from_nanos(1_000),
            rx_bytes_per_ns: 2.4,
            stream_contexts: 96,
            stream_miss_penalty: SimTime::from_micros(25),
            shm_latency: SimTime::from_nanos(400),
            fault_seed: 0xFA17,
        }
    }
}

impl NetworkConfig {
    /// A configuration using the full Jaguar torus geometry (25 × 32 × 24)
    /// regardless of node count.
    pub fn jaguar() -> Self {
        NetworkConfig {
            torus_dims: Some([25, 32, 24]),
            ..NetworkConfig::default()
        }
    }

    /// A Blue Gene/P-flavoured machine — the "other petascale platform with
    /// a different physical topology" the paper names as future work (§VIII).
    ///
    /// Relative to the XT5: a denser torus of slower links (425 MB/s per
    /// direction vs multi-GB/s SeaStar), lower per-hop latency (hardware
    /// torus routing), and a hardware-reliable DMA engine — connection
    /// state is not the scarce resource it is under Portals, so the
    /// stream-miss penalty is small. Hot-spot damage on BG/P is therefore
    /// bandwidth/serialisation-driven rather than BEER-driven.
    pub fn bluegene_p() -> Self {
        NetworkConfig {
            torus_dims: Some([32, 32, 40]),
            placement: Placement::Linear,
            hop_latency: SimTime::from_nanos(100),
            link_bytes_per_ns: 0.425,
            tx_overhead: SimTime::from_nanos(2_000),
            inj_bytes_per_ns: 1.0,
            rx_base: SimTime::from_nanos(1_500),
            rx_bytes_per_ns: 1.0,
            stream_contexts: 256,
            stream_miss_penalty: SimTime::from_micros(3),
            shm_latency: SimTime::from_nanos(500),
            fault_seed: 0xFA17,
        }
    }

    /// Wire serialisation time for `bytes` on a link.
    pub fn link_time(&self, bytes: u64) -> SimTime {
        per_byte_time(bytes, self.link_bytes_per_ns)
    }

    /// Host-to-NIC injection time for `bytes`.
    pub fn inj_time(&self, bytes: u64) -> SimTime {
        per_byte_time(bytes, self.inj_bytes_per_ns)
    }

    /// NIC-to-host drain time for `bytes`.
    pub fn rx_time(&self, bytes: u64) -> SimTime {
        per_byte_time(bytes, self.rx_bytes_per_ns)
    }
}

fn per_byte_time(bytes: u64, bytes_per_ns: f64) -> SimTime {
    assert!(bytes_per_ns > 0.0, "bandwidth must be positive");
    SimTime::from_nanos((bytes as f64 / bytes_per_ns).round() as u64)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = NetworkConfig::default();
        assert!(c.stream_contexts > 0);
        assert!(c.stream_miss_penalty > c.rx_base);
        assert!(c.hop_latency > SimTime::ZERO);
    }

    #[test]
    fn bandwidth_times_scale_linearly() {
        let c = NetworkConfig::default();
        assert_eq!(c.link_time(6_000), SimTime::from_micros(1));
        assert_eq!(c.link_time(0), SimTime::ZERO);
        assert_eq!(c.inj_time(2_400), SimTime::from_micros(1));
        assert_eq!(c.rx_time(4_800), SimTime::from_micros(2));
    }

    #[test]
    fn jaguar_pins_torus() {
        assert_eq!(NetworkConfig::jaguar().torus_dims, Some([25, 32, 24]));
    }

    #[test]
    fn bluegene_p_contrasts_with_xt5() {
        let bgp = NetworkConfig::bluegene_p();
        let xt5 = NetworkConfig::jaguar();
        assert!(
            bgp.link_bytes_per_ns < xt5.link_bytes_per_ns,
            "slower links"
        );
        assert!(bgp.hop_latency < xt5.hop_latency, "faster hops");
        assert!(
            bgp.stream_miss_penalty < xt5.stream_miss_penalty,
            "no BEER-style cliff"
        );
        assert_eq!(bgp.torus_dims, Some([32, 32, 40]));
    }
}
