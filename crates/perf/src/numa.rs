//! Dual-socket topology and NUMA placement model.
//!
//! The paper's platform is a dual-socket Xeon Gold 6142: 16 physical cores
//! per socket, 2-way SMT (64 hardware threads), 22MB shared LLC per socket,
//! 128GB/s memory bandwidth per socket, and three QPI links providing
//! 136.2GB/s of inter-socket bandwidth (§IV-A). [`Topology`] models that
//! machine: threads are pinned round-robin across sockets (as the paper
//! pins software threads to hardware threads), and each cache line has a
//! *home socket* determined by page interleaving, so a miss served from the
//! remote socket contributes QPI traffic.

/// A dual-socket (or wider) machine model.
///
/// # Examples
///
/// ```
/// use saga_perf::numa::Topology;
///
/// let t = Topology::paper();
/// assert_eq!(t.sockets, 2);
/// assert_eq!(t.hardware_threads(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// SMT ways per physical core.
    pub smt: usize,
    /// Peak DRAM bandwidth per socket, bytes/second.
    pub dram_bandwidth_per_socket: f64,
    /// Peak inter-socket (QPI) bandwidth, bytes/second, both directions.
    pub qpi_bandwidth: f64,
    /// Page size used for home-socket interleaving, bytes.
    pub page_bytes: u64,
}

impl Topology {
    /// The paper's dual-socket Xeon Gold 6142 (§IV-A).
    pub fn paper() -> Self {
        Self {
            sockets: 2,
            cores_per_socket: 16,
            smt: 2,
            dram_bandwidth_per_socket: 128.0e9,
            qpi_bandwidth: 136.2e9,
            page_bytes: 4096,
        }
    }

    /// Total hardware execution threads.
    pub fn hardware_threads(&self) -> usize {
        self.sockets * self.cores_per_socket * self.smt
    }

    /// Socket a thread is pinned to. Threads are distributed round-robin
    /// across sockets, matching the paper's core-scaling methodology
    /// ("cores are distributed equally among 2 sockets at any given core
    /// count", Fig. 9a).
    pub fn socket_of_thread(&self, thread: usize) -> usize {
        thread % self.sockets
    }

    /// Home socket of a cache line (page-interleaved first-touch-free
    /// placement).
    pub fn home_socket(&self, line_addr: u64) -> usize {
        ((line_addr * 64 / self.page_bytes) % self.sockets as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_section_iv() {
        let t = Topology::paper();
        assert_eq!(t.hardware_threads(), 64);
        assert_eq!(t.cores_per_socket, 16);
        assert!((t.dram_bandwidth_per_socket - 128.0e9).abs() < 1.0);
        assert!((t.qpi_bandwidth - 136.2e9).abs() < 1.0);
    }

    #[test]
    fn threads_alternate_sockets() {
        let t = Topology::paper();
        assert_eq!(t.socket_of_thread(0), 0);
        assert_eq!(t.socket_of_thread(1), 1);
        assert_eq!(t.socket_of_thread(2), 0);
    }

    #[test]
    fn pages_interleave_across_sockets() {
        let t = Topology::paper();
        let lines_per_page = t.page_bytes / 64;
        assert_eq!(t.home_socket(0), 0);
        assert_eq!(t.home_socket(lines_per_page), 1);
        assert_eq!(t.home_socket(2 * lines_per_page), 0);
        // Lines within one page share a home.
        assert_eq!(t.home_socket(3), t.home_socket(5));
    }
}
